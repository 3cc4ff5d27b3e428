//! The traced run: per-layer numbers for one workload.
//!
//! It replays a seeded sample of the workload's operations in one
//! thread, calling each layer's public functions from here and recording
//! a span (name, start, end, parent, op id) around every call. Pass times
//! inside an evaluation come from [`PhaseClock`], an observer that only
//! timestamps the engine's existing phase events. Each repetition of an
//! operation is also sent to a live daemon (or fleet) right before its
//! replay, and `attributed_pct` is the median, over operations, of the
//! share of the end-to-end time the named layers explain. Spans stay in
//! memory and are written to `out/<workload>.spans.jsonl` at the end.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use qa_base::Alphabet;
use qa_core::ranked::query::example_4_4;
use qa_core::unranked::query::{example_5_14, example_5_9};
use qa_flight::{Budget, FlightRecorder, JobEvent, OneInN, Sampled, SharedFlight, Watchdog};
use qa_mso::PreparedUnary;
use qa_obs::json::{self, Value};
use qa_obs::{Counter, Metrics, NoopObserver, Observer, RunTrace, Tee, TraceContext};
use qa_par::WorkPool;
use qa_pulse::SpanProfiler;
use qa_scope::ScopeProfiler;
use qa_serve::{DocStore, QueryCache};
use qa_trees::Tree;
use qa_twoway::string_qa::example_3_4_qa;

use crate::corpus::{mix, Template};
use crate::fleet::{self, FleetDoc, KINDS};
use crate::http;
use crate::procs::{Binaries, Daemon};
use crate::report::{Outcome, Run};
use crate::serve::{self, Corpus, Kind};
use crate::stats::median;
use crate::Workload;

/// One recorded span.
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log with a stack of open spans for parent links.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside span `name` of operation `op`; returns its result
    /// and the span's duration in nanoseconds.
    fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, f64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        let start = Instant::now();
        let out = std::hint::black_box(f(self));
        let end = Instant::now();
        self.open.pop();
        let (s, e) = (self.ns(start), self.ns(end));
        self.spans[idx].start_ns = s;
        self.spans[idx].end_ns = e;
        (out, (e - s) as f64)
    }

    /// Record an already-finished interval as a child of the innermost
    /// open span.
    fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) -> f64 {
        let span = Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        let d = (span.end_ns - span.start_ns) as f64;
        self.spans.push(span);
        d
    }

    /// `(spans, self ns)` per span name: duration minus the part its
    /// direct children cover.
    fn self_times(&self) -> BTreeMap<&'static str, (usize, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let entry = table.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        table
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                r#"{{"span":{i},"parent":{parent},"op":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

/// Timestamps the engine's phase events and counts table lookups, and
/// records nothing else (`is_enabled() == false`).
#[derive(Default)]
struct PhaseClock {
    marks: Vec<(&'static str, Instant)>,
    phases: Vec<(&'static str, Instant, Instant)>,
    lookups: u64,
}

impl Observer for PhaseClock {
    fn phase_start(&mut self, name: &'static str) {
        self.marks.push((name, Instant::now()));
    }
    fn phase_end(&mut self, name: &'static str) {
        let end = Instant::now();
        if let Some(pos) = self.marks.iter().rposition(|(n, _)| *n == name) {
            let (_, start) = self.marks.remove(pos);
            self.phases.push((name, start, end));
        }
    }
    fn count(&mut self, counter: Counter, n: u64) {
        if counter == Counter::TableLookups {
            self.lookups += n;
        }
    }
    fn is_enabled(&self) -> bool {
        false
    }
}

/// Layer names of the evaluation phases.
const PHASES: [(&str, &str); 4] = [
    ("fcns encoding", "trees.fcns_encode"),
    ("bottom-up pass", "mso.pass1"),
    ("top-down pass", "mso.pass2"),
    ("verdicts", "mso.verdicts"),
];

/// Per-op medians over repetitions, keyed by layer.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn add(&mut self, layer: &'static str, ns: f64) {
        self.0.entry(layer).or_default().push(ns);
    }
    fn med(&self, layer: &str) -> f64 {
        self.0.get(layer).map_or(0.0, |v| median(v))
    }
    /// `layer` minus `base`, from the fastest repetition of each. Noise
    /// only ever adds time, so the minima isolate the extra work of
    /// `layer` better than medians do.
    fn extra(&self, layer: &str, base: &str) -> f64 {
        let fastest = |l: &str| {
            self.0
                .get(l)
                .map_or(0.0, |v| v.iter().copied().fold(f64::INFINITY, f64::min))
        };
        fastest(layer) - fastest(base)
    }
}

/// Settings of one traced run.
pub struct Plan {
    /// Repetitions of every replayed operation.
    pub reps: usize,
    /// Sampled warm queries.
    pub ops: usize,
    /// Sampled fleet jobs per roster entry (at most [`GRID_DOCS`]).
    pub jobs_per_kind: usize,
}

/// Documents per roster entry in the fleet grid the traced jobs come
/// from, and in the one-thread `qa-fleet` run they are compared with.
const GRID_DOCS: usize = 16;

/// Run the traced replay of `workload`.
pub fn run(
    workload: Workload,
    bins: &Binaries,
    seed: u64,
    plan: &Plan,
    out_dir: &Path,
) -> Result<Run, String> {
    let mut spans = Spans::new();
    let mut out = Outcome::default();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();

    // The serve layers run on the workload's own corpus; the batch
    // workload borrows the churn corpus for them.
    let kind = match workload {
        Workload::ServeLarge => Kind::Large,
        Workload::ServeSmall => Kind::Small,
        Workload::ServeChurn | Workload::FleetBatch => Kind::Churn,
    };
    let corpus = kind.corpus(seed);
    let mut daemon_out = Outcome::default();
    let (daemon, _) = serve::setup(bins, &corpus, &mut daemon_out)?;
    out.merge(daemon_out);

    let http_us = http_roundtrip_us(&daemon, plan.reps * 50, &mut out);
    m.insert("pulse.http_roundtrip_us".into(), http_us);
    let served = serve_layers(&mut spans, &daemon, &corpus, seed, plan, &mut out, &mut m)?;
    daemon.stop()?;
    ingest_layers(&mut spans, &corpus, plan, &mut out, &mut m)?;
    compile_layers(&mut spans, seed, plan, &mut m)?;
    let jobs_per_kind = if workload == Workload::FleetBatch {
        plan.jobs_per_kind
    } else {
        plan.jobs_per_kind.min(2)
    };
    let jobs = fleet_layers(&mut spans, seed, jobs_per_kind, plan, &mut out, &mut m);

    // Attribution of the workload's own end-to-end operation.
    let (attributed, e2e) = if workload == Workload::FleetBatch {
        fleet_attribution(bins, seed, &jobs, out_dir, &mut out)?
    } else {
        served.iter().map(|op| op.pair(http_us * 1e3)).unzip()
    };
    let ratio: Vec<f64> = attributed.iter().zip(&e2e).map(|(a, e)| a / e).collect();
    let residual: Vec<f64> = attributed.iter().zip(&e2e).map(|(a, e)| e - a).collect();
    let (attr_med, e2e_med) = (median(&attributed), median(&e2e));
    m.insert("attributed_pct".into(), 100.0 * median(&ratio));
    m.insert("residual_us".into(), median(&residual) / 1e3);

    let path = out_dir.join(format!("{}.spans.jsonl", workload.name()));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    print_self_times(&spans);

    let mut run = Run::new(out);
    for (name, value) in &m {
        run.metric(name, *value);
    }
    run.info("trace_ops", (served.len() + jobs.len()) as f64, "count");
    run.info("trace_spans", spans.spans.len() as f64, "count");
    run.info("e2e_median_us", e2e_med / 1e3, "us");
    run.info("attributed_median_us", attr_med / 1e3, "us");
    if workload == Workload::ServeLarge && m["attributed_pct"] < 90.0 {
        run.violations.push(format!(
            "named layers explain {:.1}% of the median serve-large query, below 90%",
            m["attributed_pct"]
        ));
    }
    Ok(run)
}

/// Median `GET /healthz` round trip in microseconds.
fn http_roundtrip_us(daemon: &Daemon, n: usize, out: &mut Outcome) -> f64 {
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let resp = http::request(daemon.addr, "GET", "/healthz", "");
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
        out.record(match resp {
            Ok(r) if r.status == 200 => Ok(()),
            Ok(r) => Err(format!("GET /healthz: status {}", r.status)),
            Err(e) => Err(format!("GET /healthz: {e}")),
        });
    }
    median(&us)
}

/// One replayed warm query: its layer times and end-to-end times, one
/// of each per repetition.
struct ServedOp {
    why: bool,
    layers: Samples,
    e2e_ns: Vec<f64>,
}

impl ServedOp {
    /// `(attributed, end-to-end)` nanoseconds of the op, each from its
    /// fastest repetition: the daemon's threads suffer more than this
    /// one-thread replay when the machine slows down, so pairing slowed
    /// repetitions would blame the program for the machine. The
    /// observer-chain and provenance overheads are differences of minima
    /// too.
    fn pair(&self, http_ns: f64) -> (f64, f64) {
        let l = &self.layers;
        let chain = l.extra("flight.serve_chain_eval", "mso.eval_noop").max(0.0);
        let provenance = if self.why {
            l.extra("mso.eval_explained", "mso.eval_noop").max(0.0)
        } else {
            0.0
        };
        let request_path = [
            "obs.json_request_parse",
            "serve.cache_hit",
            "par.pool_dispatch",
            "mso.eval",
            "obs.json_response",
            "flight.job_event_json",
        ];
        let path = (0..self.e2e_ns.len())
            .map(|rep| {
                request_path
                    .iter()
                    .map(|layer| l.0[layer][rep])
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min);
        let e2e = self.e2e_ns.iter().copied().fold(f64::INFINITY, f64::min);
        (http_ns + path + chain + provenance, e2e)
    }
}

/// The daemon's request path, replayed in process on the same corpus.
struct InProcess {
    store: DocStore,
    cache: QueryCache,
    metrics: Arc<Metrics>,
    pool: WorkPool,
}

/// The per-request budget a default daemon enforces.
fn serve_budget() -> Budget {
    Budget::steps(50_000_000)
        .with_wall(Duration::from_millis(5_000))
        .with_wall_poll_every(64)
}

/// Replay sampled warm queries: over HTTP for the end-to-end latency,
/// then layer by layer in process.
fn serve_layers(
    sp: &mut Spans,
    daemon: &Daemon,
    corpus: &Corpus,
    seed: u64,
    plan: &Plan,
    out: &mut Outcome,
    m: &mut BTreeMap<String, f64>,
) -> Result<Vec<ServedOp>, String> {
    let mut ip = InProcess {
        store: DocStore::new(),
        cache: QueryCache::new(128),
        metrics: Arc::new(Metrics::new()),
        pool: WorkPool::new(2),
    };
    for s in &corpus.read {
        ip.store
            .ingest(&s.name, &s.text)
            .map_err(|e| e.to_string())?;
    }
    for (formula, _) in &corpus.warm {
        ip.cache
            .compile(formula, ip.store.alphabet_mut(), None)
            .map_err(|e| e.to_string())?;
    }
    let mut parse_us = Vec::new();
    for (formula, _) in &corpus.warm {
        let mut alphabet = ip.store.alphabet().clone();
        for _ in 0..plan.reps * 10 {
            let (parsed, ns) = sp.time("mso.parse", 0, |_| qa_mso::parse(formula, &mut alphabet));
            parsed.map_err(|e| e.to_string())?;
            parse_us.push(ns / 1e3);
        }
    }
    m.insert("mso.parse_us".into(), median(&parse_us));

    let mut ops = Vec::new();
    let (mut nodes, mut lookups) = (0.0, 0.0);
    for i in 0..plan.ops {
        let op = i as u64 + 1;
        let fi = i % corpus.warm.len();
        let di = (mix(&[seed, 99, i as u64]) % corpus.read.len() as u64) as usize;
        let why = corpus.why_every > 0 && i % corpus.why_every == 0;
        let (formula, _) = corpus.warm[fi];
        let doc = &corpus.read[di];
        let want = &corpus.expected[fi][di];
        // Each repetition sends the request to the daemon, then replays
        // it in process, so the two sides of the ratio run close in time.
        let mut e2e = Vec::new();
        let mut layers = Samples::default();
        for _ in 0..plan.reps {
            let (ns, verdict) = serve::query(daemon, formula, &doc.name, why, want);
            out.record(verdict);
            e2e.push(ns as f64);
            let (found, _) = sp.time("serve.request", op, |sp| {
                replay_query(sp, op, &mut ip, formula, &doc.name, why, &mut layers)
            });
            let (selected, n) = found?;
            out.record(if selected == *want {
                Ok(())
            } else {
                Err(format!(
                    "in-process {formula} on {} differs from the reference",
                    doc.name
                ))
            });
            lookups += n as f64 / plan.reps as f64;
            sp.time("serve.eval_variants", op, |sp| {
                eval_variants(sp, op, &ip, &doc.name, formula, &mut layers)
            });
        }
        nodes += doc.doc.len() as f64;
        ops.push(ServedOp {
            why,
            layers,
            e2e_ns: e2e,
        });
    }
    let per_node = |f: &dyn Fn(&ServedOp) -> f64| ops.iter().map(f).sum::<f64>() / nodes;
    for (_, layer) in PHASES {
        let v = per_node(&|op| op.layers.med(layer));
        m.insert(format!("{layer}_ns_per_node"), v);
    }
    // The evaluation's own time outside its four phases: mapping the
    // selection back from the encoding and freeing the per-node tables.
    m.insert(
        "mso.unphased_ns_per_node".into(),
        per_node(&|op| {
            op.layers.med("mso.eval") - PHASES.iter().map(|(_, l)| op.layers.med(l)).sum::<f64>()
        }),
    );
    m.insert("mso.table_lookups_per_node".into(), lookups / nodes);
    m.insert(
        "flight.serve_chain_ns_per_node".into(),
        per_node(&|op| op.layers.extra("flight.serve_chain_eval", "mso.eval_noop")),
    );
    m.insert(
        "mso.provenance_ns_per_node".into(),
        per_node(&|op| op.layers.extra("mso.eval_explained", "mso.eval_noop")),
    );
    let us = |layer: &str| {
        median(
            &ops.iter()
                .map(|op| op.layers.med(layer) / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    m.insert("par.pool_dispatch_us".into(), us("par.pool_dispatch"));
    m.insert("serve.cache_hit_us".into(), us("serve.cache_hit"));
    m.insert(
        "obs.json_request_parse_us".into(),
        us("obs.json_request_parse"),
    );
    m.insert("obs.json_response_us".into(), us("obs.json_response"));
    m.insert(
        "flight.job_event_json_us".into(),
        us("flight.job_event_json"),
    );
    Ok(ops)
}

/// One warm `POST /query` through the daemon's request path, in process:
/// body parse, cache hit, pool round trip, phase-timed evaluation,
/// response and wide-event serialization. Returns the selected node ids
/// and the evaluation's table lookups.
fn replay_query(
    sp: &mut Spans,
    op: u64,
    ip: &mut InProcess,
    formula: &str,
    doc: &str,
    why: bool,
    layers: &mut Samples,
) -> Result<(Vec<u32>, u64), String> {
    let body = format!(r#"{{"formula":"{formula}","doc":"{doc}","why":{why}}}"#);
    let (request, ns) = sp.time("obs.json_request_parse", op, |_| {
        let v = json::parse(&body).map_err(|e| e.to_string())?;
        let text = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        Ok::<_, String>((
            text("formula"),
            text("doc"),
            matches!(v.get("why"), Some(Value::Bool(true))),
        ))
    });
    layers.add("obs.json_request_parse", ns);
    let (formula, doc, why_flag) = request?;
    let (formula, doc) = (formula.ok_or("no formula")?, doc.ok_or("no doc")?);
    let (compiled, ns) = sp.time("serve.cache_hit", op, |_| {
        ip.cache
            .compile(&formula, ip.store.alphabet_mut(), Some(&ip.metrics))
    });
    layers.add("serve.cache_hit", ns);
    let compiled = compiled.map_err(|e| e.to_string())?;
    let (_, ns) = sp.time("par.pool_dispatch", op, |_| {
        let (tx, rx) = mpsc::channel();
        ip.pool.submit(Box::new(move || {
            let _ = tx.send(());
        }));
        rx.recv()
    });
    layers.add("par.pool_dispatch", ns);
    let stored = ip.store.get(&doc).ok_or("document missing in process")?;
    let tree = Arc::clone(&stored.tree);
    let ((selected, lookups), ns) = sp.time("mso.eval", op, |sp| {
        let mut clock = PhaseClock::default();
        let selected = compiled.prepared.eval_unranked_with(&tree, &mut clock);
        for &(name, start, end) in &clock.phases {
            if let Some(&(_, layer)) = PHASES.iter().find(|(phase, _)| *phase == name) {
                layers.add(layer, sp.record(layer, op, start, end));
            }
        }
        (selected, clock.lookups)
    });
    layers.add("mso.eval", ns);
    let labels = ip.store.alphabet().clone();
    let explained: Vec<(qa_trees::NodeId, u32)> = if why_flag {
        compiled
            .prepared
            .eval_unranked_explained(&tree, &mut NoopObserver)
    } else {
        selected.iter().map(|&v| (v, 0)).collect()
    };
    let (_, ns) = sp.time("obs.json_response", op, |_| {
        response_json(&doc, &compiled, &explained, why_flag, &tree, &labels)
    });
    layers.add("obs.json_response", ns);
    let (_, ns) = sp.time("flight.job_event_json", op, |_| {
        let ctx = TraceContext::mint("qa-serve", op as usize);
        JobEvent {
            run: "qa-serve".to_string(),
            trace: ctx.trace_hex(),
            span: ctx.span_hex(),
            job: op as usize,
            query: format!("{:016x}", compiled.hash),
            query_index: 0,
            doc_index: 0,
            doc_nodes: tree.num_nodes(),
            doc_depth: stored.height,
            steps: 3 * tree.num_nodes() as u64,
            reversals: 0,
            cache_hits: 1,
            cache_misses: 0,
            budget_trips: 0,
            selected: selected.len(),
            sampled: false,
            outcome: "ok".to_string(),
            worker: "serve".to_string(),
            shard: "0/1".to_string(),
            start_ns: 0,
            wall_ns: 0,
        }
        .to_json()
    });
    layers.add("flight.job_event_json", ns);
    let mut ids: Vec<u32> = selected.iter().map(|v| v.index() as u32).collect();
    ids.sort_unstable();
    Ok((ids, lookups))
}

/// The daemon's response body for one answered query.
fn response_json(
    doc: &str,
    compiled: &qa_serve::CompiledQuery,
    explained: &[(qa_trees::NodeId, u32)],
    why: bool,
    tree: &Tree,
    labels: &Alphabet,
) -> String {
    json::object(|w| {
        w.field_str("doc", doc);
        w.field_str("query", &format!("{:016x}", compiled.hash));
        w.field_u64("sigma", compiled.sigma as u64);
        w.field_u64("states", compiled.states as u64);
        w.field_u64("count", explained.len() as u64);
        w.field_u64_array("selected", explained.iter().map(|(v, _)| v.index() as u64));
        if why {
            w.field_raw(
                "why_selected",
                &json::array(explained.iter().map(|(v, state)| {
                    json::object(|w| {
                        w.field_u64("node", v.index() as u64);
                        w.field_u64("marked_state", u64::from(*state));
                        w.field_str("label", labels.name(tree.label(*v)));
                    })
                })),
            );
        }
        w.field_u64("micros", 0);
    })
}

/// The same evaluation three more ways, for the differences the chain
/// and provenance metrics need: with no observer, under the daemon's
/// observer chain, and with provenance.
fn eval_variants(
    sp: &mut Spans,
    op: u64,
    ip: &InProcess,
    doc: &str,
    formula: &str,
    layers: &mut Samples,
) {
    let tree = Arc::clone(&ip.store.get(doc).expect("ingested").tree);
    let compiled = ip
        .cache
        .entries()
        .map(|(q, _)| q)
        .find(|q| q.formula == formula.trim())
        .expect("warm formula is cached");
    let (_, ns) = sp.time("mso.eval_noop", op, |_| {
        compiled.prepared.eval_unranked(&tree)
    });
    layers.add("mso.eval_noop", ns);
    let (_, ns) = sp.time("flight.serve_chain_eval", op, |_| {
        let req = Arc::new(Metrics::new());
        let scope_arm: Sampled<ScopeProfiler, NoopObserver> = Sampled::Light(NoopObserver);
        let mut dog = Watchdog::new(
            Tee(ip.metrics.observer(), Tee(req.observer(), scope_arm)),
            serve_budget(),
        );
        compiled.prepared.eval_unranked_with(&tree, &mut dog)
    });
    layers.add("flight.serve_chain_eval", ns);
    let (_, ns) = sp.time("mso.eval_explained", op, |_| {
        compiled
            .prepared
            .eval_unranked_explained(&tree, &mut NoopObserver)
    });
    layers.add("mso.eval_explained", ns);
}

/// Document parsers and the store's own ingest work, on the workload's
/// upload texts (the churn writer's, when it has them).
fn ingest_layers(
    sp: &mut Spans,
    corpus: &Corpus,
    plan: &Plan,
    out: &mut Outcome,
    m: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let docs: Vec<(&crate::corpus::Doc, String, String)> = if corpus.write.is_empty() {
        corpus
            .read
            .iter()
            .take(plan.ops)
            .map(|s| (&s.doc, s.text.clone(), s.doc.xml()))
            .collect()
    } else {
        corpus
            .write
            .iter()
            .flat_map(|w| {
                (0..2).map(move |v| (&w.variants[v], w.texts[v][0].clone(), w.texts[v][1].clone()))
            })
            .collect()
    };
    let (mut nodes, mut bytes) = (0.0, 0.0);
    let (mut xml_ns, mut sexpr_ns, mut self_ns) = (0.0, 0.0, 0.0);
    for (i, (doc, sexpr, xml)) in docs.iter().enumerate() {
        let op = 10_000 + i as u64;
        let mut layers = Samples::default();
        for _ in 0..plan.reps {
            let mut alphabet = DocStore::new().alphabet().clone();
            let (parsed, ns) = sp.time("xml.parse", op, |_| {
                qa_xml::parser::parse_with_alphabet(xml, &mut alphabet)
            });
            out.record(match parsed {
                Ok(d) if d.tree.num_nodes() == doc.len() => Ok(()),
                Ok(_) => Err("XML parse built a different tree".into()),
                Err(e) => Err(format!("XML parse: {e}")),
            });
            layers.add("xml.parse", ns);
            let (parsed, ns) = sp.time("trees.sexpr_parse", op, |_| {
                qa_trees::sexpr::from_sexpr(sexpr, &mut alphabet)
            });
            parsed.map_err(|e| e.to_string())?;
            layers.add("trees.sexpr_parse", ns);
            // Replace a resident document, as a churn PUT does.
            let mut store = DocStore::new();
            store.ingest("d", "(a b)").map_err(|e| e.to_string())?;
            let (receipt, ns) = sp.time("serve.store_ingest", op, |_| store.ingest("d", sexpr));
            out.record(match receipt {
                Ok(r) if r.updated && r.nodes == doc.len() => Ok(()),
                Ok(_) => Err("store ingest did not replace the document".into()),
                Err(e) => Err(format!("store ingest: {e}")),
            });
            layers.add("serve.store_ingest", ns);
        }
        nodes += doc.len() as f64;
        bytes += xml.len() as f64;
        xml_ns += layers.med("xml.parse");
        sexpr_ns += layers.med("trees.sexpr_parse");
        self_ns += layers.extra("serve.store_ingest", "trees.sexpr_parse");
    }
    m.insert("xml.parse_ns_per_byte".into(), xml_ns / bytes);
    m.insert("trees.sexpr_parse_ns_per_node".into(), sexpr_ns / nodes);
    m.insert(
        "serve.store_ingest_self_ns_per_node".into(),
        self_ns / nodes,
    );
    Ok(())
}

/// Cold-query compilation of every churn template at σ = 4: MSO →
/// automaton, then totalization.
fn compile_layers(
    sp: &mut Spans,
    seed: u64,
    plan: &Plan,
    m: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let (mut compile_ms, mut totalize_ms, mut states_total) = (Vec::new(), Vec::new(), 0.0);
    for (i, t) in Template::ALL.into_iter().enumerate() {
        let op = 20_000 + i as u64;
        let label = (mix(&[seed, i as u64, 13]) % 3) as u8;
        let (formula, _) = t.instantiate(0, label);
        let (mut c, mut z, mut states) = (Vec::new(), Vec::new(), 0);
        for _ in 0..plan.reps {
            let mut alphabet = DocStore::new().alphabet().clone();
            for l in crate::corpus::LABELS {
                alphabet.intern(l);
            }
            let parsed = qa_mso::parse(&formula, &mut alphabet).map_err(|e| e.to_string())?;
            let sigma = alphabet.len();
            let (automaton, ns) = sp.time("mso.compile", op, |_| {
                qa_mso::unranked::compile_unary(&parsed, "x0", sigma)
            });
            let automaton = automaton.map_err(|e| e.to_string())?;
            c.push(ns / 1e6);
            states = automaton.num_states();
            let (_, ns) = sp.time("mso.totalize", op, |_| {
                PreparedUnary::new(&automaton, sigma)
            });
            z.push(ns / 1e6);
        }
        m.insert(format!("mso.compile_ms.{}", t.name()), median(&c));
        m.insert(format!("mso.compile_states.{}", t.name()), states as f64);
        compile_ms.push(median(&c));
        totalize_ms.push(median(&z));
        states_total += states as f64;
    }
    m.insert("mso.compile_ms".into(), median(&compile_ms));
    m.insert("mso.totalize_ms".into(), median(&totalize_ms));
    m.insert("mso.compile_states".into(), states_total);
    Ok(())
}

/// One replayed fleet job.
struct Job {
    qi: usize,
    di: usize,
    attributed_ns: f64,
}

/// Layer name of each roster entry's query engine.
const ENGINES: [&str; 4] = [
    "twoway.string_query",
    "core.ranked_query",
    "core.unranked_query",
    "core.sqau_query",
];

/// Replay sampled fleet jobs: generate the document, run the query with
/// no observer, then under the fleet's full observer stack.
fn fleet_layers(
    sp: &mut Spans,
    seed: u64,
    per_kind: usize,
    plan: &Plan,
    out: &mut Outcome,
    m: &mut BTreeMap<String, f64>,
) -> Vec<Job> {
    let bin = fleet::binary_alphabet();
    let circ = fleet::circuit_alphabet();
    let q34 = example_3_4_qa(&bin);
    let q44 = example_4_4(&circ);
    let q59 = example_5_9(&circ);
    let q514 = example_5_14(&bin);
    // Sampling flags are drawn in job order over the whole grid.
    let mut admit = OneInN::new(seed, 8);
    let sampled: Vec<bool> = (0..KINDS.len() * GRID_DOCS)
        .map(|_| admit.admit())
        .collect();
    let mut jobs = Vec::new();
    let (mut gen_ns, mut gen_nodes) = (0.0, 0.0);
    let mut engine = [(0.0, 0.0); 4];
    let (mut stack_ns, mut steps) = (0.0, 0.0);
    for qi in 0..KINDS.len() {
        for di in 0..per_kind.min(GRID_DOCS) {
            let op = 30_000 + (qi * GRID_DOCS + di) as u64;
            let (doc, ns) = sp.time("trees.generate", op, |_| {
                fleet::generate(qi, fleet::DOC_SIZE, fleet::doc_seed(seed, qi, di))
            });
            gen_ns += ns;
            gen_nodes += doc.len() as f64;
            let mut want = fleet::expected(qi, &doc);
            want.sort_unstable();
            let mut layers = Samples::default();
            let mut job_steps = 0;
            for _ in 0..plan.reps {
                let (got, ns) = sp.time(ENGINES[qi], op, |_| match (qi, &doc) {
                    (0, FleetDoc::Word(w)) => q34.query_with(w, &mut NoopObserver),
                    (1, FleetDoc::Tree(t)) => q44.query_with(t, &mut NoopObserver).map(indices),
                    (2, FleetDoc::Tree(t)) => q59.query_with(t, &mut NoopObserver).map(indices),
                    (3, FleetDoc::Tree(t)) => q514.query_with(t, &mut NoopObserver).map(indices),
                    _ => unreachable!("roster entry and document kind disagree"),
                });
                layers.add("engine", ns);
                out.record(match got {
                    Ok(mut got) => {
                        got.sort_unstable();
                        if got == want {
                            Ok(())
                        } else {
                            Err(format!("{} doc {di} differs from the reference", KINDS[qi]))
                        }
                    }
                    Err(e) => Err(format!("{} doc {di}: {e}", KINDS[qi])),
                });
                let (s, start, end) = fleet_stack_query(
                    qi,
                    &doc,
                    sampled[qi * GRID_DOCS + di],
                    [&q34, &q44, &q59, &q514],
                );
                layers.add(
                    "stack",
                    sp.record("flight.fleet_stack_query", op, start, end),
                );
                job_steps = s;
            }
            engine[qi].0 += layers.med("engine");
            engine[qi].1 += doc.len() as f64;
            stack_ns += layers.extra("stack", "engine");
            steps += job_steps as f64;
            // qa-fleet's wall_ns times the query under the stack.
            jobs.push(Job {
                qi,
                di,
                attributed_ns: layers.med("stack"),
            });
        }
    }
    for (qi, layer) in ENGINES.into_iter().enumerate() {
        m.insert(format!("{layer}_ns_per_node"), engine[qi].0 / engine[qi].1);
    }
    m.insert("trees.generate_ns_per_node".into(), gen_ns / gen_nodes);
    m.insert("flight.fleet_stack_ns_per_step".into(), stack_ns / steps);
    jobs
}

fn indices(nodes: Vec<qa_trees::NodeId>) -> Vec<usize> {
    nodes.into_iter().map(|v| v.index()).collect()
}

/// One job under qa-fleet's per-run observer stack: flight recorder,
/// run metrics, sampled trace, span profiler, scope and live arms, all
/// inside a watchdog. Returns the steps counted and when the query call
/// started and ended (the interval qa-fleet reports as `wall_ns`).
fn fleet_stack_query(
    qi: usize,
    doc: &FleetDoc,
    sampled: bool,
    roster: [&dyn FleetQuery; 4],
) -> (u64, Instant, Instant) {
    let run_metrics = Metrics::new();
    let trace_arm = if sampled {
        Sampled::Full(RunTrace::new())
    } else {
        Sampled::Light(NoopObserver)
    };
    let live_arm: Sampled<SharedFlight, NoopObserver> = Sampled::Light(NoopObserver);
    let scope_arm: Sampled<ScopeProfiler, NoopObserver> = Sampled::Light(NoopObserver);
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
        Budget::steps(10_000_000).with_wall(Duration::from_millis(10_000)),
    );
    let start = Instant::now();
    std::hint::black_box(roster[qi].run(doc, &mut obs));
    let end = Instant::now();
    let Tee(_, Tee(_, Tee(_, Tee(profiler, _)))) = obs.into_inner();
    std::hint::black_box(profiler.into_profile());
    run_metrics.count(Counter::Jobs, 1);
    (run_metrics.get(Counter::Steps), start, end)
}

/// The observer stack's concrete type.
type FleetStack<'a> = Watchdog<
    Tee<
        FlightRecorder,
        Tee<
            qa_obs::MetricsObserver<'a>,
            Tee<
                Sampled<RunTrace, NoopObserver>,
                Tee<
                    SpanProfiler,
                    Tee<Sampled<ScopeProfiler, NoopObserver>, Sampled<SharedFlight, NoopObserver>>,
                >,
            >,
        >,
    >,
>;

/// A roster query runnable under the fleet stack.
trait FleetQuery {
    fn run(&self, doc: &FleetDoc, obs: &mut FleetStack<'_>) -> usize;
}

impl FleetQuery for qa_twoway::StringQa {
    fn run(&self, doc: &FleetDoc, obs: &mut FleetStack<'_>) -> usize {
        match doc {
            FleetDoc::Word(w) => self.query_with(w, obs).map_or(0, |s| s.len()),
            FleetDoc::Tree(_) => unreachable!("string query on a tree"),
        }
    }
}

impl FleetQuery for qa_core::ranked::RankedQa {
    fn run(&self, doc: &FleetDoc, obs: &mut FleetStack<'_>) -> usize {
        match doc {
            FleetDoc::Tree(t) => self.query_with(t, obs).map_or(0, |s| s.len()),
            FleetDoc::Word(_) => unreachable!("tree query on a word"),
        }
    }
}

impl FleetQuery for qa_core::unranked::UnrankedQa {
    fn run(&self, doc: &FleetDoc, obs: &mut FleetStack<'_>) -> usize {
        match doc {
            FleetDoc::Tree(t) => self.query_with(t, obs).map_or(0, |s| s.len()),
            FleetDoc::Word(_) => unreachable!("tree query on a word"),
        }
    }
}

/// End-to-end job times from a one-thread qa-fleet run over the sampled
/// grid, paired with the replayed jobs' attributed times.
fn fleet_attribution(
    bins: &Binaries,
    seed: u64,
    jobs: &[Job],
    out_dir: &Path,
    out: &mut Outcome,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let dir = out_dir.join("fleet-trace");
    let done =
        crate::procs::run_sampled(fleet::command(bins, KINDS.len(), GRID_DOCS, 1, seed, &dir))?;
    out.record(fleet::exit_ok(&done.status));
    let events = fleet::read_events(&dir.join("events.jsonl"))?;
    let mut attributed = Vec::new();
    let mut e2e = Vec::new();
    for job in jobs {
        match events
            .iter()
            .find(|e| e.query_index == job.qi && e.doc_index == job.di)
        {
            Some(e) => {
                attributed.push(job.attributed_ns);
                e2e.push(e.wall_ns as f64);
            }
            None => out.record(Err(format!(
                "job ({}, {}) missing from the traced fleet run",
                job.qi, job.di
            ))),
        }
    }
    Ok((attributed, e2e))
}

/// Print the self-time table: spans and self time per layer.
fn print_self_times(sp: &Spans) {
    let table = sp.self_times();
    let total: u64 = table.values().map(|(_, ns)| ns).sum();
    println!(
        "{:<32} {:>7} {:>12} {:>12} {:>7}",
        "layer", "spans", "self ms", "mean us", "share"
    );
    let mut rows: Vec<_> = table.into_iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1 .1));
    for (name, (count, ns)) in rows {
        println!(
            "{:<32} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            count,
            ns as f64 / 1e6,
            ns as f64 / 1e3 / count as f64,
            100.0 * ns as f64 / total.max(1) as f64
        );
    }
}
