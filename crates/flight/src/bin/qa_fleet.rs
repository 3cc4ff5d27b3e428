//! `qa-fleet`: batch runner with always-on telemetry.
//!
//! Runs M example queries × K generated documents, each under a
//! [`Watchdog`] with a [`FlightRecorder`] black box, aggregates per-run
//! [`Metrics`] into one fleet profile, and exports:
//!
//! - `metrics.prom` — Prometheus text exposition of the merged registry
//!   (plus `qa_build_info` and `qa_heap_*` gauges, via `qa-pulse`);
//! - `profile.folded` — collapsed-stack span profile of all runs, ready
//!   for `flamegraph.pl` / inferno;
//! - `trace-<i>.json` — Chrome trace-event (Perfetto) exports of a
//!   deterministic reservoir sample of full run traces (the reservoir is
//!   drawn over the sampled jobs before the batch, so only the chosen
//!   jobs record a trace);
//! - `events.jsonl` — one wide [`JobEvent`] line per job, in global job
//!   order, with trace/span ids minted deterministically from
//!   `(run_id, job)` ([`qa_obs::TraceContext`]): the identity fields are
//!   byte-identical across reruns, `--jobs N` *and* `--mesh N` (only the
//!   trailing worker/shard/wall-clock fields vary);
//! - `fleet-trace.json` — the job events assembled into one Chrome
//!   trace-event timeline (`qa_mesh::federate_trace`), with
//!   `process_name`/`thread_name` metadata so Perfetto labels tracks;
//! - `summary.txt` — per-query table plus fleet-wide step/latency
//!   percentiles (also printed to stdout);
//! - `scope.json` / `scope.folded` / `explain.txt` — with `--scope`, the
//!   merged per-state execution profile ([`qa_scope::ScopeProfiler`]):
//!   visit histograms and transition heatmaps per machine, the
//!   collapsed-stack rendering, and the `EXPLAIN ANALYZE` report.
//!   Per-run profilers are deterministic and the merge is commutative, so
//!   all three files are **byte-identical** across reruns, `--jobs N`
//!   and `--mesh N`;
//! - `postmortem.txt` — flight-recorder dump of the first failed run, if
//!   any run tripped its budget or errored; with `--slo`, also the names
//!   of any alerts still firing at batch end;
//! - `alerts.log` — with `--slo RULES`, the deterministic alert-transition
//!   log: after the batch every job is replayed through a
//!   `qa_sentinel::Replay` in global job order (one logical tick per job),
//!   so the file is byte-identical across reruns, `--jobs N` and mesh
//!   topologies. Any alert firing at the end of the replay is named in
//!   `postmortem.txt` and makes the fleet exit 1.
//!
//! With `--serve ADDR` a [`PulseServer`] binds next to the batch and
//! answers `GET /healthz`, `/readyz`, `/metrics`, `/flight`, `/events`,
//! `/profile` — plus `/series` and `/alerts` when `--slo` attaches a live
//! sentinel — *while the fleet runs*: each run's registry is merged into
//! the served fleet registry as the run finishes (run-granularity
//! freshness at zero per-event cost), and per-run observers additionally
//! feed a [`SharedFlight`] ring behind `/flight`. A post-run `/metrics` scrape is
//! byte-identical to `metrics.prom`: both come from the same render over
//! the same registry. The stdout lines `pulse: serving on <addr>` and
//! `pulse: run complete` let scripts coordinate with a live fleet;
//! `--pace-ms` throttles jobs (a scrape window for tests and demos) and
//! `--linger-ms` keeps the server up after the batch (until the deadline
//! or a `GET /quit`).
//!
//! Exit code 0 iff every run completed. Document generation and sampling
//! are seeded ([`qa_base::rng`]), so a fleet reruns identically: same
//! documents, same sampled runs, same step counts.
//!
//! With `--jobs N` (N > 1) runs are fanned out over the `qa-par`
//! work-stealing executor. The outputs stay **byte-identical** to
//! `--jobs 1` on the same seed: sampling flags and the traced reservoir
//! are pre-drawn in job order, the wide events are sorted by job index
//! after the batch, and the merged metrics are commutative counter sums.
//! (`summary.txt` therefore carries no wall-clock line; latency
//! percentiles go to stdout only.) If any run fails, a partial
//! `summary.txt`/`metrics.prom` is flushed immediately, so a later hang or
//! kill still leaves telemetry on disk.
//!
//! With `--mesh N` the binary becomes a **coordinator**: it re-spawns
//! itself as N `--shard i/N --serve` workers on loopback (via `qa-mesh`),
//! deals the job grid round-robin, polls worker `/healthz`/`/readyz` into
//! liveness timelines, scrapes each worker after `pulse: run complete`,
//! and federates the results: `metrics.prom` (merged registry —
//! **byte-identical across shard counts**, because `Metrics::merge` is
//! commutative), `profile.folded` (worker-prefixed collapsed stacks),
//! `flight.json` (correlation-stamped worker dumps under one run id), and
//! `summary.txt` (per-worker table with timelines). A worker that dies
//! mid-batch has its shard reassigned to a fresh worker; the coordinator
//! then exits 1 (degraded) and `postmortem.txt` names the dead worker and
//! its exact in-flight jobs. `--chaos-kill I` makes the coordinator
//! SIGKILL shard I's original worker mid-batch on purpose.
//!
//! With `--scrape-every-ms MS` (and `--slo`) a background loop
//! additionally scrapes the in-process fleet registry into the live
//! sentinel on a wall-clock cadence — the ops-facing feed behind
//! `/series` and `/alerts`; its transitions land in the flight ring but
//! never decide the exit code (the post-batch replay does).
//!
//! With `--scope --serve ADDR` the live surface additionally answers
//! `GET /explain` (`?query=NAME` filters to one workload,
//! `?format=json` switches from the text block to the report JSON).
//!
//! ```text
//! qa-fleet [--queries M] [--docs K] [--size N] [--sweep] [--seed S]
//!          [--jobs N] [--sample-every N] [--reservoir K] [--scope]
//!          [--max-steps N] [--max-wall-ms MS] [--out-dir DIR] [--smoke]
//!          [--serve ADDR] [--pace-ms MS] [--linger-ms MS]
//!          [--slo RULES] [--scrape-every-ms MS]
//!          [--mesh N] [--chaos-kill I]
//!          [--shard I/N] [--worker-id ID] [--run-id ID]
//! ```
//!
//! `--sweep` scales each document's size by its doc index (doc `di` gets
//! `size × (di + 1)` nodes), turning one fleet into a growth experiment:
//! `qa-trace analyze growth` over the resulting `events.jsonl` fits
//! steps-vs-size exponents per query.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qa_base::rng::{Rng, StdRng};
use qa_base::{Alphabet, Symbol};
use qa_core::ranked::query::example_4_4;
use qa_core::unranked::query::{example_5_14, example_5_9};
use qa_flight::{
    parse_events, Budget, FlightRecorder, JobEvent, OneInN, Reservoir, Sampled, SharedEvents,
    SharedFlight, Watchdog,
};
use qa_obs::{
    percentile_sorted, render_events, Counter, Metrics, NoopObserver, RunTrace, Tee, TraceContext,
};
use qa_probe::export::chrome_trace;
use qa_pulse::{PulseServer, PulseState, SpanProfile, SpanProfiler, Weight};
use qa_scope::ScopeProfiler;
use qa_sentinel::{parse_rules, AlertRule, Replay, SharedSentinel};
use qa_trees::Tree;
use qa_twoway::string_qa::example_3_4_qa;

// Opt-in heap accounting: build with `--features alloc-count` and every
// `qa_heap_*` gauge on `/metrics` (and the `?weight=alloc` profile) goes
// live. The default build keeps the untouched system allocator.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: qa_pulse::CountingAlloc = qa_pulse::CountingAlloc::new();

const USAGE: &str = "usage:
  qa-fleet [--queries M] [--docs K] [--size N] [--sweep] [--seed S]
           [--jobs N] [--sample-every N] [--reservoir K] [--scope]
           [--max-steps N] [--max-wall-ms MS] [--out-dir DIR] [--smoke]
           [--serve ADDR] [--pace-ms MS] [--linger-ms MS]
           [--slo RULES] [--scrape-every-ms MS]
           [--mesh N] [--chaos-kill I]
           [--shard I/N] [--worker-id ID] [--run-id ID]

queries cycle through the paper's running examples:
  example-3-4 (string), example-4-4 (ranked circuit),
  example-5-9 (unranked circuit), example-5-14 (stay transitions)

--sweep scales doc sizes by doc index (doc di gets size x (di+1)), the
input shape `qa-trace analyze growth` fits step-growth exponents from.

--scope attaches a per-state execution profiler to every run and exports
scope.json (raw visit/transition tables), scope.folded (collapsed-stack
state heatmap) and explain.txt (EXPLAIN ANALYZE report) — byte-identical
across --jobs N and --mesh N; with --serve, GET /explain answers live
(?query=NAME filters to one workload, ?format=json for the report JSON).

--serve binds a live ops HTTP server (try ADDR 127.0.0.1:0) answering
/healthz /readyz /metrics /flight /events /profile /quit during the run;
--pace-ms sleeps between jobs (a scrape window), --linger-ms keeps the
server up after the batch until the deadline or a GET /quit.

--slo RULES loads a qa-sentinel alert rules file; after the batch every
job is replayed through the alert engine in global job order (alerts.log,
deterministic), firing alerts are named in postmortem.txt and make the
fleet exit 1. --scrape-every-ms MS adds a live wall-clock scrape loop
feeding the /series and /alerts endpoints while the batch runs.

--mesh N runs a coordinator that re-spawns this binary as N sharded
--serve workers, federates their metrics/profiles/flight dumps, and
reassigns the shard of any worker that dies mid-batch (exit 1 if so);
--chaos-kill I SIGKILLs shard I's original worker mid-batch on purpose.
--shard/--worker-id/--run-id are the worker-side flags the coordinator
passes; by hand they run just that slice of the job grid.";

struct Opts {
    queries: usize,
    docs: usize,
    size: usize,
    /// Scale doc sizes by doc index (`size * (di + 1)`), for growth fits.
    sweep: bool,
    seed: u64,
    jobs: usize,
    sample_every: u64,
    reservoir: usize,
    /// Attach a per-state [`ScopeProfiler`] to every run and export
    /// `scope.json` / `scope.folded` / `explain.txt` (plus `/explain`
    /// with `--serve`).
    scope: bool,
    max_steps: u64,
    max_wall: Duration,
    out_dir: String,
    serve: Option<String>,
    pace_ms: u64,
    linger_ms: u64,
    /// Alert rules file (`qa_sentinel::parse_rules` format).
    slo: Option<String>,
    /// Live scrape-loop period; 0 disables the wall-clock loop.
    scrape_every_ms: u64,
    /// Worker mode: run only jobs `g` with `g % count == index`.
    shard: Option<(usize, usize)>,
    worker_id: Option<String>,
    run_id: Option<String>,
    /// Coordinator mode: spawn this many sharded workers and federate.
    mesh: Option<usize>,
    chaos_kill: Option<usize>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            queries: 4,
            docs: 25,
            size: 256,
            sweep: false,
            seed: 1,
            jobs: 1,
            sample_every: 8,
            reservoir: 4,
            scope: false,
            max_steps: 10_000_000,
            max_wall: Duration::from_millis(10_000),
            out_dir: "fleet-out".to_string(),
            serve: None,
            pace_ms: 0,
            linger_ms: 0,
            slo: None,
            scrape_every_ms: 0,
            shard: None,
            worker_id: None,
            run_id: None,
            mesh: None,
            chaos_kill: None,
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    let val = |it: &mut std::slice::Iter<'_, String>, flag: &str| -> Result<String, String> {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--queries" => o.queries = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?,
            "--docs" => o.docs = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?,
            "--size" => o.size = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?,
            "--sweep" => o.sweep = true,
            "--seed" => o.seed = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?,
            "--jobs" => o.jobs = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?,
            "--sample-every" => {
                o.sample_every = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?
            }
            "--reservoir" => {
                o.reservoir = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?
            }
            "--scope" => o.scope = true,
            "--max-steps" => {
                o.max_steps = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?
            }
            "--max-wall-ms" => {
                o.max_wall =
                    Duration::from_millis(val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--out-dir" => o.out_dir = val(&mut it, arg)?,
            "--serve" => o.serve = Some(val(&mut it, arg)?),
            "--pace-ms" => o.pace_ms = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?,
            "--linger-ms" => {
                o.linger_ms = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?
            }
            "--slo" => o.slo = Some(val(&mut it, arg)?),
            "--scrape-every-ms" => {
                o.scrape_every_ms = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?
            }
            "--shard" => {
                let spec = val(&mut it, arg)?;
                let (i, n) = spec
                    .split_once('/')
                    .ok_or(format!("--shard wants I/N, got {spec}"))?;
                let (i, n) = (
                    i.parse::<usize>().map_err(|e| format!("{e}"))?,
                    n.parse::<usize>().map_err(|e| format!("{e}"))?,
                );
                if n == 0 || i >= n {
                    return Err(format!("--shard {spec}: need I < N and N >= 1"));
                }
                o.shard = Some((i, n));
            }
            "--worker-id" => o.worker_id = Some(val(&mut it, arg)?),
            "--run-id" => o.run_id = Some(val(&mut it, arg)?),
            "--mesh" => o.mesh = Some(val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?),
            "--chaos-kill" => {
                o.chaos_kill = Some(val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--smoke" => {
                o.queries = 4;
                o.docs = 3;
                o.size = 48;
                o.sample_every = 2;
                o.reservoir = 2;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if o.queries == 0 || o.docs == 0 || o.size == 0 || o.jobs == 0 {
        return Err("--queries, --docs, --size and --jobs must be >= 1".to_string());
    }
    if let Some(mesh) = o.mesh {
        if mesh == 0 {
            return Err("--mesh must be >= 1".to_string());
        }
        if o.shard.is_some() {
            return Err("--mesh and --shard are mutually exclusive".to_string());
        }
        if o.serve.is_some() {
            return Err(
                "--serve is a worker-side flag; the mesh coordinator does not serve".to_string(),
            );
        }
        if let Some(k) = o.chaos_kill {
            if k >= mesh {
                return Err(format!("--chaos-kill {k} is not a shard of --mesh {mesh}"));
            }
        }
    } else if o.chaos_kill.is_some() {
        return Err("--chaos-kill requires --mesh".to_string());
    }
    Ok(o)
}

/// The default run id — one formula for every mode (in-process batch,
/// mesh coordinator, shard worker). Trace/span ids derive from
/// `(run_id, job)`, so sharing the formula across modes is what makes the
/// `events.jsonl` identity fields byte-identical across `--jobs N` and
/// `--mesh N` on the same corpus.
fn default_run_id(o: &Opts) -> String {
    format!(
        "fleet-s{}-q{}x{}-z{}{}",
        o.seed,
        o.queries,
        o.docs,
        o.size,
        if o.sweep { "-sweep" } else { "" }
    )
}

/// Size of document `di` in the corpus: constant without `--sweep`,
/// scaled by the doc index with it.
fn doc_size(o: &Opts, di: usize) -> usize {
    if o.sweep {
        o.size * (di + 1)
    } else {
        o.size
    }
}

/// The document a query runs over.
enum Doc {
    Word(Vec<Symbol>),
    Tree(Tree),
}

impl Doc {
    fn len(&self) -> usize {
        match self {
            Doc::Word(w) => w.len(),
            Doc::Tree(t) => t.num_nodes(),
        }
    }

    /// Document height: 0 for words (flat), tree height otherwise.
    fn depth(&self) -> usize {
        match self {
            Doc::Word(_) => 0,
            Doc::Tree(t) => t.height(),
        }
    }
}

/// One roster entry: a named example query plus its document generator.
struct Workload {
    name: &'static str,
    query: QueryKind,
}

enum QueryKind {
    String(Box<qa_twoway::StringQa>),
    Ranked(Box<qa_core::ranked::RankedQa>),
    Unranked(Box<qa_core::unranked::UnrankedQa>),
}

fn binary_alphabet() -> Alphabet {
    Alphabet::from_names(["0", "1"])
}

fn circuit_alphabet() -> Alphabet {
    Alphabet::from_names(["AND", "OR", "0", "1"])
}

fn roster() -> Vec<Workload> {
    let bin = binary_alphabet();
    let circ = circuit_alphabet();
    vec![
        Workload {
            name: "example-3-4",
            query: QueryKind::String(Box::new(example_3_4_qa(&bin))),
        },
        Workload {
            name: "example-4-4",
            query: QueryKind::Ranked(Box::new(example_4_4(&circ))),
        },
        Workload {
            name: "example-5-9",
            query: QueryKind::Unranked(Box::new(example_5_9(&circ))),
        },
        Workload {
            name: "example-5-14",
            query: QueryKind::Unranked(Box::new(example_5_14(&bin))),
        },
    ]
}

/// Deterministic document for `(workload, seed)`.
fn generate_doc(name: &str, size: usize, seed: u64) -> Doc {
    let mut rng = StdRng::seed_from_u64(seed);
    match name {
        "example-3-4" => Doc::Word(
            (0..size)
                .map(|_| Symbol::from_index(rng.gen_range(0..2)))
                .collect(),
        ),
        "example-4-4" => {
            let a = circuit_alphabet();
            Doc::Tree(qa_trees::generate::random_full_binary(
                &mut rng,
                &[a.symbol("AND"), a.symbol("OR")],
                &[a.symbol("0"), a.symbol("1")],
                size / 2,
            ))
        }
        "example-5-9" => {
            // Variadic circuit: grow a random shape, then relabel inner
            // nodes AND/OR and leaves 0/1 so every node evaluates.
            let a = circuit_alphabet();
            let mut t = qa_trees::generate::random(&mut rng, &[a.symbol("0")], size, None);
            for v in t.nodes().collect::<Vec<_>>() {
                let label = if t.is_leaf(v) {
                    if rng.gen_bool(0.5) {
                        a.symbol("0")
                    } else {
                        a.symbol("1")
                    }
                } else if rng.gen_bool(0.5) {
                    a.symbol("AND")
                } else {
                    a.symbol("OR")
                };
                t.set_label(v, label);
            }
            Doc::Tree(t)
        }
        "example-5-14" => Doc::Tree(qa_trees::generate::random(
            &mut rng,
            &[Symbol::from_index(0), Symbol::from_index(1)],
            size,
            None,
        )),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Run one job under the `opts` budget, filling the measured fields of its
/// wide `event` (counters, selection, outcome, latency). Returns the
/// flight-recorder dump when the run failed, the full trace when
/// `traced`, and the run's span profile and, with `--scope`, its scope
/// profile.
fn run_one(
    opts: &Opts,
    wl: &Workload,
    doc: &Doc,
    traced: bool,
    fleet: &Metrics,
    live: Option<&SharedFlight>,
    event: &mut JobEvent,
) -> (
    Option<String>,
    Option<RunTrace>,
    SpanProfile,
    Option<ScopeProfiler>,
) {
    let run_metrics = Metrics::new();
    let trace_arm = if traced {
        Sampled::Full(RunTrace::new())
    } else {
        Sampled::Light(NoopObserver)
    };
    // With --serve, events additionally feed the shared /flight ring so a
    // mid-run scrape shows the current event tail. Metrics stay per-run
    // and are merged into the fleet registry at run end — run-granularity
    // freshness for /metrics, at zero per-event cost.
    let live_arm = match live {
        Some(shared) => Sampled::Full(shared.clone()),
        None => Sampled::Light(NoopObserver),
    };
    // The per-state profiler is per-run (single-threaded, deterministic);
    // merging at run end keeps scope.json independent of job interleaving.
    let scope_arm = if opts.scope {
        Sampled::Full(ScopeProfiler::new())
    } else {
        Sampled::Light(NoopObserver)
    };
    let mut obs = Watchdog::new(
        Tee(
            FlightRecorder::with_capacity(256),
            Tee(
                run_metrics.observer(),
                Tee(
                    trace_arm,
                    Tee(SpanProfiler::new(), Tee(scope_arm, live_arm)),
                ),
            ),
        ),
        Budget::steps(opts.max_steps).with_wall(opts.max_wall),
    );

    let t0 = Instant::now();
    let result = match (&wl.query, doc) {
        (QueryKind::String(q), Doc::Word(w)) => q.query_with(w, &mut obs).map(|sel| sel.len()),
        (QueryKind::Ranked(q), Doc::Tree(t)) => q.query_with(t, &mut obs).map(|sel| sel.len()),
        (QueryKind::Unranked(q), Doc::Tree(t)) => q.query_with(t, &mut obs).map(|sel| sel.len()),
        _ => unreachable!("workload/document kind mismatch"),
    };
    event.wall_ns = t0.elapsed().as_nanos() as u64;

    let Tee(recorder, Tee(_, Tee(trace_arm, Tee(profiler, Tee(scope_arm, _))))) = obs.into_inner();
    let dump = match result {
        Ok(n) => {
            event.selected = n;
            event.outcome = "ok".to_string();
            None
        }
        Err(e) => {
            event.outcome = e.to_string();
            Some(format!(
                "workload: {}\nerror: {e}\n\n{}",
                wl.name,
                recorder.dump()
            ))
        }
    };
    // Every completed run is one job — the denominator burn-rate SLOs
    // divide error counters by.
    run_metrics.count(Counter::Jobs, 1);
    event.steps = run_metrics.get(Counter::Steps);
    event.reversals = run_metrics.get(Counter::HeadReversals);
    event.cache_hits = run_metrics.get(Counter::CacheHits);
    event.cache_misses = run_metrics.get(Counter::CacheMisses);
    event.budget_trips = run_metrics.get(Counter::BudgetTrips);
    fleet.merge(&run_metrics);
    (
        dump,
        trace_arm.full(),
        profiler.into_profile(),
        scope_arm.full(),
    )
}

/// Render the fleet summary from the job-ordered events. With
/// `include_latency` the wall-clock percentile line is appended — that
/// variant goes to stdout only, so the `summary.txt` on disk is
/// byte-identical across reruns and `--jobs` settings.
fn render_summary(opts: &Opts, events: &[JobEvent], include_latency: bool) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "qa-fleet: {} run(s) = {} query kind(s) x {} doc(s), size {}, seed {}",
        events.len(),
        opts.queries,
        opts.docs,
        opts.size,
        opts.seed
    );
    if let Some((i, n)) = opts.shard {
        let _ = writeln!(
            out,
            "shard {i}/{n} (worker {}, run {}): {} of {} grid job(s)",
            opts.worker_id.as_deref().unwrap_or("?"),
            opts.run_id.as_deref().unwrap_or("local"),
            events.len(),
            opts.queries * opts.docs
        );
    }
    let _ = writeln!(
        out,
        "{:<14} {:>5} {:>7} {:>12} {:>10} {:>10}",
        "query", "runs", "failed", "steps", "sel/run", "steps/run"
    );
    // One row per query kind, in first-seen (= roster) order.
    let mut queries: Vec<&str> = Vec::new();
    for ev in events {
        if !queries.contains(&ev.query.as_str()) {
            queries.push(&ev.query);
        }
    }
    for name in queries {
        let runs: Vec<&JobEvent> = events.iter().filter(|e| e.query == name).collect();
        let steps: u64 = runs.iter().map(|e| e.steps).sum();
        let selected: usize = runs.iter().map(|e| e.selected).sum();
        let _ = writeln!(
            out,
            "{:<14} {:>5} {:>7} {:>12} {:>10.1} {:>10.1}",
            name,
            runs.len(),
            runs.iter().filter(|e| e.failed()).count(),
            steps,
            selected as f64 / runs.len() as f64,
            steps as f64 / runs.len() as f64
        );
    }

    let mut steps: Vec<u64> = events.iter().map(|e| e.steps).collect();
    steps.sort_unstable();
    let _ = writeln!(
        out,
        "steps   p50 {:>8}  p90 {:>8}  p99 {:>8}  max {:>8}",
        percentile_sorted(&steps, 0.50),
        percentile_sorted(&steps, 0.90),
        percentile_sorted(&steps, 0.99),
        steps.last().copied().unwrap_or(0)
    );
    if include_latency {
        let mut lat: Vec<u64> = events.iter().map(|e| e.wall_ns).collect();
        lat.sort_unstable();
        let _ = writeln!(
            out,
            "lat(ns) p50 {:>8}  p90 {:>8}  p99 {:>8}  max {:>8}",
            percentile_sorted(&lat, 0.50),
            percentile_sorted(&lat, 0.90),
            percentile_sorted(&lat, 0.99),
            lat.last().copied().unwrap_or(0)
        );
    }
    let _ = writeln!(
        out,
        "sampled {} of {} run(s); {} failed",
        events.iter().filter(|e| e.sampled).count(),
        events.len(),
        events.iter().filter(|e| e.failed()).count()
    );
    out
}

/// Best-effort flush of `summary.txt` and `metrics.prom` from the events
/// finished so far. Called the moment a run fails, so a later hang or kill
/// still leaves telemetry on disk; the normal exit path overwrites both
/// files with the complete versions.
fn flush_partial(
    opts: &Opts,
    out_dir: &Path,
    done: &[JobEvent],
    total_jobs: usize,
    state: &PulseState,
) {
    let mut summary = render_summary(opts, done, false);
    use std::fmt::Write;
    let _ = writeln!(
        summary,
        "PARTIAL: {} of {} run(s) flushed after a failure",
        done.len(),
        total_jobs
    );
    for (name, contents) in [
        ("summary.txt", summary),
        ("metrics.prom", state.metrics_text()),
    ] {
        if let Err(e) = std::fs::write(out_dir.join(name), contents) {
            eprintln!("cannot write partial {name}: {e}");
        }
    }
}

/// The authoritative alert pass: replay the job-ordered events one
/// logical tick per job. The same events and rules give a byte-identical
/// `alerts.log` whatever topology ran the batch and however the wall
/// clock moved; this — not the live scrape loop — names firing alerts and
/// sets the exit code.
fn replay_slo(rules: &[AlertRule], events: &[JobEvent]) -> Replay {
    let mut replay = Replay::new(rules.to_vec(), "qa_fleet");
    for ev in events {
        replay.observe_job(ev);
    }
    replay
}

/// `postmortem.txt`: the `incident` (a failed job's flight dump, or the
/// mesh casualty report), then every SLO alert still firing at batch end.
/// Empty when nothing went wrong.
fn render_postmortem(mut incident: String, replay: Option<&Replay>) -> String {
    let Some(engine) = replay.map(Replay::engine) else {
        return incident;
    };
    let firing = engine.firing();
    if firing.is_empty() {
        return incident;
    }
    if !incident.is_empty() {
        incident.push('\n');
    }
    incident.push_str("=== slo alerts firing at batch end ===\n");
    for rule in engine.rules() {
        if firing.contains(&rule.name.as_str()) {
            incident.push_str(&rule.render());
            incident.push('\n');
        }
    }
    incident
}

/// The exit code of a finished batch: 2 when an artifact could not be
/// written; 1 when the mesh degraded, any job failed, or an SLO alert is
/// firing at batch end; else 0.
fn exit_code(
    opts: &Opts,
    io_err: Option<String>,
    degraded: bool,
    events: &[JobEvent],
    replay: Option<&Replay>,
) -> ExitCode {
    if let Some(msg) = io_err {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    if degraded {
        eprintln!("qa-mesh: run degraded (worker death or non-zero worker exit)");
        return ExitCode::from(1);
    }
    let failed = events.iter().filter(|e| e.failed()).count();
    if failed > 0 {
        eprintln!(
            "{failed} run(s) failed; see {}/postmortem.txt",
            opts.out_dir
        );
        return ExitCode::from(1);
    }
    let firing = replay.map(|r| r.engine().firing()).unwrap_or_default();
    if !firing.is_empty() {
        eprintln!(
            "slo: {} alert(s) firing at batch end ({}); see {}/postmortem.txt",
            firing.len(),
            firing.join(", "),
            opts.out_dir
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Merge every per-workload profiler into one fleet-wide profiler.
/// Commutative merges over sorted tables: the result is independent of
/// job interleaving and shard topology.
fn merged_scope(scopes: &BTreeMap<String, ScopeProfiler>) -> ScopeProfiler {
    let mut merged = ScopeProfiler::new();
    for s in scopes.values() {
        merged.merge(s);
    }
    merged
}

/// The three `--scope` exports rendered from one merged profiler.
fn scope_exports(merged: &ScopeProfiler) -> [(&'static str, String); 3] {
    [
        ("scope.json", format!("{}\n", merged.to_json())),
        ("scope.folded", merged.to_collapsed()),
        ("explain.txt", merged.explain_run().render_text()),
    ]
}

/// Parse a completed worker's scraped step count for the summary table
/// (`?` when the scrape is missing or unparseable — the table is
/// best-effort; the federated registry is the source of truth).
fn scraped_steps(report: &qa_mesh::WorkerReport) -> String {
    report
        .scrape
        .as_ref()
        .and_then(|s| qa_pulse::parse_prometheus(&s.metrics).ok())
        .and_then(|s| s.to_metrics("qa_fleet").ok())
        .map(|m| m.get(Counter::Steps).to_string())
        .unwrap_or_else(|| "?".to_string())
}

/// The coordinator's federated summary: run header, per-worker table with
/// liveness timelines, casualty notes, and the degraded verdict.
fn render_mesh_summary(
    opts: &Opts,
    run_id: &str,
    plan: &qa_mesh::ShardPlan,
    outcome: &qa_mesh::MeshOutcome,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "qa-mesh run {run_id}: {} job(s) over {} shard(s), size {}, seed {}",
        plan.jobs, plan.shards, opts.size, opts.seed
    );
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>5} {:>5} {:>5} {:>12}  liveness",
        "worker", "shard", "jobs", "done", "exit", "steps"
    );
    let mut reports: Vec<&qa_mesh::WorkerReport> = outcome.reports.iter().collect();
    reports.sort_by_key(|r| (r.shard, r.respawn));
    for r in &reports {
        let exit = match r.exit_code {
            Some(c) => c.to_string(),
            None => "sig".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>5} {:>5} {:>5} {:>12}  {}",
            r.worker_id,
            r.shard,
            plan.len_for(r.shard),
            r.jobs_done.len(),
            exit,
            scraped_steps(r),
            r.timeline.render()
        );
    }
    for dead in outcome.casualties() {
        let cause = if dead.chaos_killed {
            "chaos-killed"
        } else {
            "died"
        };
        let _ = writeln!(
            out,
            "worker {} {cause} mid-batch with {} job(s) in flight; shard {} reassigned",
            dead.worker_id,
            dead.in_flight_at_death.len(),
            dead.shard
        );
    }
    if outcome.scrape_retries > 0 {
        // Coordinator-local accounting: flaky scrapes are worth a line in
        // the ops summary, but never a counter in the federated registry.
        let _ = writeln!(out, "scrape retries: {}", outcome.scrape_retries);
    }
    let _ = writeln!(
        out,
        "degraded: {}",
        if outcome.degraded { "yes" } else { "no" }
    );
    out
}

/// The federated post-mortem: for every dead worker, exactly which jobs
/// it owned, finished, had in flight, and never reached — plus where the
/// shard went next.
fn render_mesh_postmortem(
    run_id: &str,
    plan: &qa_mesh::ShardPlan,
    outcome: &qa_mesh::MeshOutcome,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "=== mesh postmortem: run {run_id} ===");
    for dead in outcome.casualties() {
        let assigned = plan.jobs_for(dead.shard);
        let never_started: Vec<usize> = assigned
            .iter()
            .copied()
            .filter(|j| !dead.jobs_done.contains(j) && !dead.in_flight_at_death.contains(j))
            .collect();
        let replacement = outcome
            .reports
            .iter()
            .find(|r| r.shard == dead.shard && r.respawn == dead.respawn + 1)
            .map(|r| r.worker_id.clone())
            .unwrap_or_else(|| "nobody".to_string());
        let _ = writeln!(
            out,
            "worker {} (shard {}/{}) died before completing its shard",
            dead.worker_id, dead.shard, plan.shards
        );
        let _ = writeln!(
            out,
            "  exit: {}",
            match dead.exit_code {
                Some(c) => format!("code {c}"),
                None => "killed by signal".to_string(),
            }
        );
        let _ = writeln!(out, "  chaos-killed: {}", dead.chaos_killed);
        let _ = writeln!(out, "  assigned {} job(s): {:?}", assigned.len(), assigned);
        let _ = writeln!(
            out,
            "  completed before death ({}): {:?}",
            dead.jobs_done.len(),
            dead.jobs_done
        );
        let _ = writeln!(
            out,
            "  in flight at death ({}): {:?}",
            dead.in_flight_at_death.len(),
            dead.in_flight_at_death
        );
        let _ = writeln!(
            out,
            "  never started ({}): {:?}",
            never_started.len(),
            never_started
        );
        let _ = writeln!(out, "  shard reassigned to {replacement}");
    }
    out
}

/// `--mesh N`: spawn N sharded copies of this binary, supervise them, and
/// federate their telemetry. With `--slo`, the coordinator replays the
/// federated `events.jsonl` through the same deterministic [`Replay`] the
/// in-process fleet uses, so `alerts.log` is byte-identical to an
/// unsharded run over the same corpus. Exit 0 clean, 1 degraded (any
/// worker died or exited non-zero — even when reassignment repaired the
/// run) or when an SLO alert is firing at batch end, 2 on
/// coordinator-level errors.
fn run_coordinator(opts: &Opts, slo_rules: Option<Vec<AlertRule>>) -> ExitCode {
    use qa_mesh::{
        federate_events, federate_flight, federate_metrics, federate_profile, federate_trace,
        run_mesh, MeshOptions,
    };

    let shards = opts.mesh.expect("coordinator mode");
    let plan = qa_mesh::ShardPlan::new(shards, opts.queries * opts.docs);
    // The default run id deliberately omits the shard count: trace/span
    // ids derive from (run_id, job), and the same corpus must mint the
    // same ids whether it runs in-process or over any number of shards.
    let run_id = opts.run_id.clone().unwrap_or_else(|| default_run_id(opts));
    let out_dir = Path::new(&opts.out_dir);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", opts.out_dir);
        return ExitCode::from(2);
    }
    // Workers are this same binary re-spawned in --shard mode: no second
    // executable to locate, and the coordinator/worker pair can never skew
    // versions.
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own binary: {e}");
            return ExitCode::from(2);
        }
    };

    let mut mesh_opts = MeshOptions::new(&run_id, plan);
    mesh_opts.chaos_kill = opts.chaos_kill;
    // The live sentinel rides the coordinator's poll loop: mid-run worker
    // scrapes land as per-worker series and evaluate the rules fleet-wide.
    // Ops-only — the deterministic alert pass is the replay below.
    if opts.scrape_every_ms > 0 {
        mesh_opts.scrape_interval = Some(Duration::from_millis(opts.scrape_every_ms));
        mesh_opts.sentinel = Some(SharedSentinel::new(slo_rules.clone().unwrap_or_default()));
    }
    let outcome = run_mesh(&mesh_opts, |shard, worker_id| {
        let mut cmd = std::process::Command::new(&exe);
        if opts.sweep {
            cmd.arg("--sweep");
        }
        if opts.scope {
            cmd.arg("--scope");
        }
        cmd.arg("--queries")
            .arg(opts.queries.to_string())
            .arg("--docs")
            .arg(opts.docs.to_string())
            .arg("--size")
            .arg(opts.size.to_string())
            .arg("--seed")
            .arg(opts.seed.to_string())
            .arg("--jobs")
            .arg(opts.jobs.to_string())
            .arg("--sample-every")
            .arg(opts.sample_every.to_string())
            .arg("--reservoir")
            .arg(opts.reservoir.to_string())
            .arg("--max-steps")
            .arg(opts.max_steps.to_string())
            .arg("--max-wall-ms")
            .arg(opts.max_wall.as_millis().to_string())
            .arg("--pace-ms")
            .arg(opts.pace_ms.to_string())
            .arg("--out-dir")
            .arg(out_dir.join(worker_id))
            .arg("--serve")
            .arg("127.0.0.1:0")
            // Long linger: the worker holds its endpoints after `run
            // complete` until the coordinator scrapes it and GETs /quit.
            .arg("--linger-ms")
            .arg("600000")
            .arg("--shard")
            .arg(format!("{shard}/{shards}"))
            .arg("--worker-id")
            .arg(worker_id)
            .arg("--run-id")
            .arg(&run_id);
        cmd
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("qa-mesh: {e}");
            return ExitCode::from(2);
        }
    };

    // Federate the completed workers' scrapes. Merging parsed registries
    // makes metrics.prom byte-identical across shard counts; profiles and
    // flight dumps keep worker attribution instead.
    let completed = outcome.completed();
    let federated = match federate_metrics(
        completed
            .iter()
            .filter_map(|r| r.scrape.as_ref())
            .map(|s| s.metrics.as_str()),
        "qa_fleet",
    ) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("qa-mesh: metrics federation failed: {e}");
            return ExitCode::from(2);
        }
    };
    let profile_inputs: Vec<(String, String)> = completed
        .iter()
        .filter_map(|r| {
            r.scrape
                .as_ref()
                .map(|s| (r.worker_id.clone(), s.profile.clone()))
        })
        .collect();
    let flight_inputs: Vec<String> = completed
        .iter()
        .filter_map(|r| r.scrape.as_ref().map(|s| s.flight.clone()))
        .collect();
    // The wide-event federation: worker /events tails merge in global job
    // order (identity fields byte-identical to an in-process run), and
    // the same events assemble into one Perfetto-loadable fleet timeline
    // with a named process per worker.
    let mut events = Vec::new();
    for r in &completed {
        if let Some(s) = &r.scrape {
            match parse_events(&s.events) {
                Ok(worker_events) => events.extend(worker_events),
                Err(e) => {
                    eprintln!("qa-mesh: events from worker {}: {e}", r.worker_id);
                    return ExitCode::from(2);
                }
            }
        }
    }
    let events = federate_events(events);

    let summary = render_mesh_summary(opts, &run_id, &plan, &outcome);
    print!("{summary}");

    let mut io_err = None;
    let mut write = |name: &str, contents: &str| {
        if let Err(e) = std::fs::write(out_dir.join(name), contents) {
            io_err = Some(format!("cannot write {name}: {e}"));
        }
    };
    write("summary.txt", &summary);
    write(
        "metrics.prom",
        &qa_pulse::metrics_text(&federated, "qa_fleet"),
    );
    write("profile.folded", &federate_profile(&profile_inputs));
    write("flight.json", &federate_flight(&run_id, &flight_inputs));
    write("events.jsonl", &render_events(&events));
    write("fleet-trace.json", &federate_trace(&run_id, &events));
    // Scope federation: each completed worker wrote its merged scope.json
    // before announcing `pulse: run complete`; the coordinator merges the
    // files. ScopeProfiler::merge is commutative and associative, so the
    // federated tables — and all three exports — are byte-identical to an
    // unsharded run over the same corpus.
    if opts.scope {
        let mut merged = ScopeProfiler::new();
        for r in &completed {
            let path = out_dir.join(&r.worker_id).join("scope.json");
            match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| ScopeProfiler::from_json(&t))
            {
                Ok(s) => merged.merge(&s),
                Err(e) => eprintln!("qa-mesh: no scope profile from worker {}: {e}", r.worker_id),
            }
        }
        for (name, contents) in scope_exports(&merged) {
            write(name, &contents);
        }
    }

    // The federated events are in global job order with identity fields
    // byte-identical to an in-process run, so the same replay yields the
    // same alerts.log whatever the shard count.
    let replay = slo_rules.as_deref().map(|rules| replay_slo(rules, &events));
    if let Some(replay) = &replay {
        write("alerts.log", &replay.engine().render_log());
    }
    let casualties = if outcome.casualties().is_empty() {
        String::new()
    } else {
        render_mesh_postmortem(&run_id, &plan, &outcome)
    };
    let postmortem = render_postmortem(casualties, replay.as_ref());
    if !postmortem.is_empty() {
        eprint!("{postmortem}");
        write("postmortem.txt", &postmortem);
    }
    exit_code(opts, io_err, outcome.degraded, &events, replay.as_ref())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // --slo rules load before the mode dispatch: a bad rules file is an
    // operator error (exit 2) whether the fleet runs in-process or meshed.
    let slo_rules: Option<Vec<AlertRule>> = match &opts.slo {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("--slo {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match parse_rules(&text) {
                Ok(rules) => Some(rules),
                Err(e) => {
                    eprintln!("--slo {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };
    if opts.mesh.is_some() {
        return run_coordinator(&opts, slo_rules);
    }

    let roster = roster();
    let fleet = Arc::new(Metrics::new());
    // One run id across every mode (see default_run_id): it seeds the
    // deterministic trace/span ids stamped into every wide event.
    let run_id = opts.run_id.clone().unwrap_or_else(|| default_run_id(&opts));
    // The pulse state exists even without --serve: it renders metrics.prom
    // and aggregates the span profile either way, and serving just exposes
    // the same state over HTTP.
    let state = PulseState::new(Arc::clone(&fleet), "qa_fleet");
    // The live sentinel exists when either flag asks for it: --slo alone
    // still wants /alerts and the post-batch replay; --scrape-every-ms
    // alone still records watchable /series rings.
    let sentinel = (slo_rules.is_some() || opts.scrape_every_ms > 0)
        .then(|| SharedSentinel::new(slo_rules.clone().unwrap_or_default()));
    if let Some(s) = &sentinel {
        let src = s.clone();
        state.set_series_source(Box::new(move |name, tail| src.series_json(name, tail)));
        let src = s.clone();
        state.set_alerts_source(Box::new(move || src.alerts_json()));
    }
    // Worker identity (present in mesh shard mode): stamped as an info
    // gauge on /metrics and as correlation ids on the flight ring, so
    // every federated artifact can name the process it came from. The
    // parser keeps info gauges out of merged registries, so the federated
    // metrics.prom stays independent of worker count.
    let worker_identity = opts.shard.map(|(i, n)| {
        (
            run_id.clone(),
            format!("{i}/{n}"),
            opts.worker_id.clone().unwrap_or_else(|| format!("w{i}")),
        )
    });
    if let Some((run_id, shard, worker)) = &worker_identity {
        fleet.set_info(
            "qa_fleet_worker_info",
            [
                ("run_id".to_string(), run_id.clone()),
                ("shard".to_string(), shard.clone()),
                ("worker".to_string(), worker.clone()),
            ],
        );
    }
    // The wide-event ring exists in every mode and is sized to the whole
    // grid, so it holds the batch's only copy of each event: jobs push as
    // they finish (a live completion-order tail for /events), and the
    // post-batch pass sorts it into job order.
    let events_ring = SharedEvents::with_capacity((opts.queries * opts.docs).max(1));
    // Per-workload scope profilers, merged in as runs finish. Keyed by
    // workload name so /explain?query=NAME can answer per query; the
    // fleet-wide profile is the (commutative) merge of all values.
    let scopes: Arc<Mutex<BTreeMap<String, ScopeProfiler>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let mut shared_flight = None;
    let server = match &opts.serve {
        Some(addr) => {
            let shared = SharedFlight::with_capacity(1024);
            if let Some((run_id, _, worker)) = &worker_identity {
                shared.set_correlation(run_id, worker);
            }
            let source = shared.clone();
            state.set_flight_source(Box::new(move |tail| source.with(|r| r.to_json_tail(tail))));
            let ev_source = events_ring.clone();
            state.set_events_source(Box::new(move |tail| ev_source.tail_jsonl(tail)));
            if opts.scope {
                let src = Arc::clone(&scopes);
                state.set_explain_source(Box::new(move |query, json| {
                    let scopes = src.lock().expect("scope lock");
                    let render = |p: &ScopeProfiler| {
                        if json {
                            p.explain_run().to_json()
                        } else {
                            p.explain_run().render_text()
                        }
                    };
                    match query {
                        None => Some(render(&merged_scope(&scopes))),
                        Some(name) => scopes.get(name).map(render),
                    }
                }));
            }
            shared_flight = Some(shared);
            match PulseServer::serve(addr.as_str(), Arc::clone(&state)) {
                Ok(s) => {
                    // Stdout protocol line: scripts wait for this before
                    // scraping (stdout is line-buffered, so it arrives
                    // promptly even through a pipe).
                    println!("pulse: serving on {}", s.local_addr());
                    Some(s)
                }
                Err(e) => {
                    eprintln!("cannot bind {addr}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    // The output directory exists before any run starts, so a mid-batch
    // failure can flush partial telemetry.
    let out_dir = Path::new(&opts.out_dir);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", opts.out_dir);
        return ExitCode::from(2);
    }
    // Warmup (arg parsing, roster, out dir) is done: flip /readyz.
    state.set_ready();

    // Sampling flags are pre-drawn in job order over the FULL grid: the
    // OneInN stream is consumed identically no matter how many threads —
    // or mesh shards — run the jobs, so any shard's sampled set matches
    // what an unsharded fleet would have sampled for those jobs.
    let mut admit = OneInN::new(opts.seed, opts.sample_every);
    let total_jobs = opts.queries * opts.docs;
    let specs: Vec<(usize, usize, bool)> = (0..opts.queries)
        .flat_map(|qi| (0..opts.docs).map(move |di| (qi, di)))
        .map(|(qi, di)| (qi, di, admit.admit()))
        .filter(|(qi, di, _)| match opts.shard {
            Some((index, count)) => (qi * opts.docs + di) % count == index,
            None => true,
        })
        .collect();
    // Algorithm R's choice depends only on how many items were offered,
    // so the traced jobs are drawn before the batch: offer the sampled
    // jobs' global indices in job order, and only the winners record a
    // full trace.
    let mut reservoir = Reservoir::new(opts.seed, opts.reservoir);
    for &(qi, di, sampled) in &specs {
        if sampled {
            reservoir.offer(qi * opts.docs + di);
        }
    }
    let traced = reservoir.into_items();
    let shard_mode = opts.shard.is_some();
    // Volatile event fields: placement facts stamped on every wide event.
    // In-process fleets are "local" worker, shard "0/1".
    let (ev_worker, ev_shard) = match &worker_identity {
        Some((_, shard, worker)) => (worker.clone(), shard.clone()),
        None => ("local".to_string(), "0/1".to_string()),
    };
    let fleet_t0 = Instant::now();

    // The live scrape loop: wall-clock cadence, ops-only. Transitions are
    // echoed onto the flight ring (when one exists) but never counted into
    // the fleet registry — metrics.prom must not depend on how fast the
    // wall clock moved — and never decide the exit code (the post-batch
    // replay does).
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scrape_loop = match (&sentinel, opts.scrape_every_ms) {
        (Some(s), ms) if ms > 0 => {
            let s = s.clone();
            let stop = Arc::clone(&scrape_stop);
            let metrics = Arc::clone(&fleet);
            let flight = shared_flight.clone();
            Some(std::thread::spawn(move || {
                let period = Duration::from_millis(ms);
                while !stop.load(Ordering::Relaxed) {
                    let transitions = s.scrape(&metrics, "qa_fleet", &Vec::new());
                    if let Some(flight) = &flight {
                        for t in &transitions {
                            flight.alert(t.tick, t.rule as u32, t.from, t.to);
                        }
                    }
                    std::thread::sleep(period);
                }
            }))
        }
        _ => None,
    };

    // Failed jobs' flight dumps and the traced jobs' runs, keyed by global
    // job index. The dumps lock also serializes the partial flushes.
    let dumps: Mutex<BTreeMap<usize, String>> = Mutex::new(BTreeMap::new());
    let traces: Mutex<BTreeMap<usize, RunTrace>> = Mutex::new(BTreeMap::new());
    qa_par::par_batch(opts.jobs, specs, |_worker, (qi, di, sampled)| {
        let global = qi * opts.docs + di;
        if shard_mode {
            // Stdout job protocol: the mesh coordinator tracks these to
            // know exactly which jobs were in flight if this process dies.
            println!("fleet: job {global} start");
        }
        let wl = &roster[qi % roster.len()];
        // Per-run seed: distinct per (query index, doc index), stable
        // across invocations with the same --seed.
        let doc_seed = opts
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((qi as u64) << 32 | di as u64);
        let doc = generate_doc(wl.name, doc_size(&opts, di), doc_seed);
        // The wide event: identity fields derive only from (run_id, job,
        // corpus, counters), so they match byte for byte across --jobs N
        // and --mesh N; placement and wall-clock ride in the volatile tail.
        let ctx = TraceContext::mint(&run_id, global);
        let mut event = JobEvent {
            run: run_id.clone(),
            trace: ctx.trace_hex(),
            span: ctx.span_hex(),
            job: global,
            query: wl.name.to_string(),
            query_index: qi,
            doc_index: di,
            doc_nodes: doc.len(),
            doc_depth: doc.depth(),
            sampled,
            worker: ev_worker.clone(),
            shard: ev_shard.clone(),
            start_ns: fleet_t0.elapsed().as_nanos() as u64,
            ..JobEvent::default()
        };
        let (dump, trace, profile, scope_profile) = run_one(
            &opts,
            wl,
            &doc,
            traced.contains(&global),
            &fleet,
            shared_flight.as_ref(),
            &mut event,
        );
        state.merge_profile(&profile);
        if let Some(sp) = scope_profile {
            scopes
                .lock()
                .expect("scope lock")
                .entry(wl.name.to_string())
                .or_default()
                .merge(&sp);
        }
        if let Some(trace) = trace {
            traces.lock().expect("traces lock").insert(global, trace);
        }
        events_ring.push(event);
        if let Some(dump) = dump {
            // A budget trip mid-batch must not strand the fleet without
            // telemetry: flush what finished so far (overwritten with the
            // complete exports on normal exit).
            let mut dumps = dumps.lock().expect("dumps lock");
            dumps.insert(global, dump);
            flush_partial(
                &opts,
                out_dir,
                &events_ring.sorted_by_job(),
                total_jobs,
                &state,
            );
        }
        if opts.pace_ms > 0 {
            // The pace window sits between `start` and `done` on purpose:
            // it is the chaos window — a coordinator kill landing here
            // finds this job in flight.
            std::thread::sleep(Duration::from_millis(opts.pace_ms));
        }
        if shard_mode {
            println!("fleet: job {global} done");
        }
    });

    scrape_stop.store(true, Ordering::Relaxed);
    if let Some(handle) = scrape_loop {
        let _ = handle.join();
    }

    // events.jsonl is written in global job order (the ring holds
    // completion order, for the live /events tail only), so the file's
    // identity projection is byte-identical across --jobs settings.
    let events = events_ring.sorted_by_job();
    // The replay runs before metrics.prom renders so the transition count
    // lands in the registry deterministically.
    let replay = slo_rules.as_deref().map(|rules| replay_slo(rules, &events));
    if let Some(replay) = &replay {
        fleet.count(
            Counter::AlertTransitions,
            replay.engine().log().len() as u64,
        );
    }

    let summary = render_summary(&opts, &events, false);
    print!("{}", render_summary(&opts, &events, true));

    let mut io_err = None;
    let mut write = |name: &str, contents: &str| {
        if let Err(e) = std::fs::write(out_dir.join(name), contents) {
            io_err = Some(format!("cannot write {name}: {e}"));
        }
    };
    write("summary.txt", &summary);
    write("metrics.prom", &state.metrics_text());
    write(
        "profile.folded",
        &state.profile_collapsed(Weight::WallNanos),
    );
    write("events.jsonl", &render_events(&events));
    write(
        "fleet-trace.json",
        &qa_mesh::federate_trace(&run_id, &events),
    );
    if opts.scope {
        let merged = merged_scope(&scopes.lock().expect("scope lock"));
        for (name, contents) in scope_exports(&merged) {
            write(name, &contents);
        }
    }
    let traces = traces.into_inner().expect("traces lock");
    for (i, job) in traced.iter().enumerate() {
        let label = format!(
            "{}-doc{}",
            roster[job / opts.docs % roster.len()].name,
            job % opts.docs
        );
        write(&format!("trace-{i}.json"), &chrome_trace(&traces[job]));
        eprintln!("trace-{i}.json <- full trace of {label}");
    }
    if let Some(replay) = &replay {
        write("alerts.log", &replay.engine().render_log());
    }
    // postmortem.txt collects everything that went wrong: the first failed
    // run's flight dump, then any SLO alerts still firing at batch end.
    let dumps = dumps.into_inner().expect("dumps lock");
    let first_failed = match events.iter().find(|e| e.failed()) {
        Some(ev) => {
            eprintln!(
                "postmortem.txt <- {} on a {}-node document",
                ev.query, ev.doc_nodes
            );
            dumps[&ev.job].clone()
        }
        None => String::new(),
    };
    let postmortem = render_postmortem(first_failed, replay.as_ref());
    if !postmortem.is_empty() {
        write("postmortem.txt", &postmortem);
    }
    // All exports are on disk; tell any coordinating script the endpoints
    // now serve final data, then hold the server for the linger window (or
    // until a GET /quit stops the accept loop).
    if let Some(server) = server {
        println!("pulse: run complete");
        let deadline = Instant::now() + Duration::from_millis(opts.linger_ms);
        while server.is_running() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    exit_code(&opts, io_err, false, &events, replay.as_ref())
}
