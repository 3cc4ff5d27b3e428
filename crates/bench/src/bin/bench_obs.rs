//! Emit `BENCH_obs.json`: step-count metrics for one representative
//! workload per instrumented subsystem, captured through a live
//! [`qa_obs::Metrics`] observer.
//!
//! Unlike the `eN_*` wall-clock benches, every number here is a
//! deterministic event count (steps, head reversals, table lookups,
//! summaries, fixpoint rounds …), so the file is diffable across machines
//! and commits — a regression in an algorithm's *work* shows up even when
//! the wall clock does not move.
//!
//! Usage:
//!
//! ```text
//! bench_obs [out.json]                 # write the report (default BENCH_obs.json)
//! bench_obs --check [--baseline FILE] [--par-baseline FILE] [--tolerance F]
//! bench_obs --overhead [--gate]       # observer overhead self-measurement
//! bench_obs --par [--gate]            # parallel+memoized batch vs sequential
//! ```
//!
//! Both baseline files share one schema: `{"suite": NAME, "scenarios":
//! {…}}` where every scenario holds deterministic `counters`/`series`
//! maps, plus (for the par suite) an ungated `info` block for the
//! machine-dependent wall-clock figures. `--check` regenerates both
//! suites in memory and gates them against the checked-in baselines in a
//! single pass (default `BENCH_obs.json` + `BENCH_obs_par.json`,
//! tolerance 0.05 relative): any gated number drifting beyond tolerance —
//! or appearing / disappearing — fails with exit code 1. CI runs this so
//! a change that silently alters an algorithm's *work* cannot land
//! unnoticed. The par suite gates only the deterministic single-worker
//! cached pass (job count, cache hits/misses); per-worker figures under
//! work stealing are scheduling-dependent and stay in `info`.
//!
//! Both modes print a human-readable summary table (scenario, steps, Δ vs
//! baseline) next to the JSON.
//!
//! `--overhead` times the Example 3.4 string query under each observer
//! (Noop, Metrics, FlightRecorder, Watchdog, the full Tee stack, and the
//! full stack with a live `qa-pulse` server + span profiler attached),
//! interleaved over 21 rounds, and reports ns/step; every ratio is the
//! median over rounds of the ratio within a round. With `--gate` it
//! fails (exit 1) when an instrumented run exceeds *generous* bounds
//! relative to Noop — wall-clock numbers are machine-dependent, so the
//! gate only catches catastrophic regressions
//! (an accidental allocation or syscall per event), not percent-level
//! noise. The pulse row carries its own bound: serving plus profiling must
//! stay within 10% of the plain full stack (or a small absolute ns/step
//! slack on noisy runners). The scope row (full stack plus a per-state
//! [`qa_scope::ScopeProfiler`], the `--scope` / EXPLAIN ANALYZE
//! configuration) is held to the same 10%-over-stack bound. The "serve
//! eval (Figure 6)" row times `qa_serve::evaluate`, the serving daemon's
//! whole per-query evaluation (watchdog, per-job tally, one fold into a
//! registry), against the bare Figure 6 run under `NoopObserver` for
//! `label(v, a)` on a seeded 14 000-node tree over four labels; it must
//! stay within 10% of noop or 10 extra ns/step. The "fleet job" row times
//! `qa_flight::job::Arms::run`, one whole qa-fleet job that records no
//! optional arm (watchdog, flight recorder, per-job tally folded into a
//! registry once, span profiler), on the same word as the other rows, and
//! is held to the noop bounds.
//!
//! `--par` runs a repetition-heavy batch (string queries over a small
//! document pool plus repeated §6 decision calls) two ways — plain
//! sequential engines, then `qa-par` with 4 workers and per-worker
//! [`qa_par::BehaviorCache`]s — asserts the outcomes are identical, and
//! reports the wall-clock speedup and cache hit rate to stdout and
//! `BENCH_obs_par.json`. With `--gate` it writes no file and fails unless
//! the speedup is ≥ 2x and the caches actually hit. The speedup floor is
//! deliberately achievable on a single-core runner: memoization, not the
//! thread count, carries it.

use qa_base::{Alphabet, Symbol};
use qa_obs::json::{object, ObjectWriter, Value};
use qa_obs::Metrics;
use qa_probe::gate::scenarios as report_scenarios;
use qa_strings::Dfa;
use qa_trees::Tree;
use qa_twoway::Bimachine;

// Opt-in heap accounting for the overhead rows: with `--features
// alloc-count` every allocation in this binary updates the qa_heap_*
// tallies, so the measured ns/step price the counting allocator too.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: qa_pulse::CountingAlloc = qa_pulse::CountingAlloc::new();

/// One scenario: run `work` against a fresh metrics registry and serialize
/// the resulting counters/series under `name`.
fn scenario(w: &mut ObjectWriter, name: &str, work: impl FnOnce(&Metrics)) {
    let metrics = Metrics::new();
    work(&metrics);
    w.field_raw(name, &metrics.to_json());
    println!("  {name}: done");
}

/// The e8 bimachine: a merging left DFA (exercises the γ dives of the
/// Lemma 3.10 composition).
fn sample_bimachine() -> Bimachine {
    let sym = Symbol::from_index;
    let mut left = Dfa::new(2);
    let s0 = left.add_state();
    let s1 = left.add_state();
    let s2 = left.add_state();
    left.set_initial(s0);
    for (i, s) in [s0, s1, s2].into_iter().enumerate() {
        left.set_transition(s, sym(0), s0); // merge on 0
        let rot = [s1, s2, s0][i];
        left.set_transition(s, sym(1), rot); // rotate on 1
    }
    let mut right = Dfa::new(2);
    let r0 = right.add_state();
    let r1 = right.add_state();
    right.set_initial(r0);
    for s in [r0, r1] {
        right.set_transition(s, sym(0), r1);
        right.set_transition(s, sym(1), r0);
    }
    Bimachine::new(left, right, 12, |p, q, s| {
        (p.index() * 4 + q.index() * 2 + s.index()) as u32
    })
    .unwrap()
}

/// Wrap a scenario map in the unified baseline schema shared by both
/// bench files. `info` (optional, ungated) carries machine-dependent
/// figures such as wall-clock timings.
fn suite_report(suite: &str, scenarios: &str, info: Option<&str>) -> String {
    object(|w| {
        w.field_str("suite", suite);
        w.field_raw("scenarios", scenarios);
        if let Some(info) = info {
            w.field_raw("info", info);
        }
    })
}

/// Run every scenario and serialize the full `obs` suite report.
fn generate_report() -> String {
    suite_report("obs", &generate_scenarios(), None)
}

/// Run every step-count scenario and serialize the scenario map.
fn generate_scenarios() -> String {
    object(|w| {
        // Example 3.4 string query: the literal two-way run.
        scenario(w, "example_3_4_string_query", |m| {
            let a = Alphabet::from_names(["0", "1"]);
            let qa = qa_twoway::string_qa::example_3_4_qa(&a);
            let word = qa_bench::random_word(512, 34);
            qa.query_with(&word, &mut m.observer()).unwrap();
        });

        // The same query via the Theorem 3.9 behavior recurrences.
        scenario(w, "example_3_4_via_behavior", |m| {
            let a = Alphabet::from_names(["0", "1"]);
            let qa = qa_twoway::string_qa::example_3_4_qa(&a);
            let word = qa_bench::random_word(512, 34);
            qa.query_via_behavior_with(&word, &mut m.observer());
        });

        // Lemma 3.10: Hopcroft–Ullman composition, then a run of the
        // composed machine.
        scenario(w, "lemma_3_10_composition", |m| {
            let bim = sample_bimachine();
            let gsqa = qa_twoway::hopcroft_ullman::compose_with(&bim, &mut m.observer()).unwrap();
            let word = qa_bench::random_word(256, 35);
            gsqa.run_with(&word, &mut m.observer()).unwrap();
        });

        // Example 4.4: ranked circuit query on a random circuit.
        scenario(w, "example_4_4_ranked_query", |m| {
            let sigma = qa_bench::circuit_alphabet();
            let qa = qa_core::ranked::query::example_4_4(&sigma);
            let t = qa_bench::random_circuit(255, 36);
            qa.query_with(&t, &mut m.observer()).unwrap();
        });

        // Example 5.9: unranked circuit query (slender down transitions).
        scenario(w, "example_5_9_unranked_query", |m| {
            let sigma = qa_bench::circuit_alphabet();
            let qa = qa_core::unranked::query::example_5_9(&sigma);
            let or = sigma.symbol("OR");
            let zero = sigma.symbol("0");
            let one = sigma.symbol("1");
            let mut t = Tree::leaf(or);
            for i in 0..256usize {
                t.add_child(t.root(), if i % 2 == 0 { zero } else { one });
            }
            qa.query_with(&t, &mut m.observer()).unwrap();
        });

        // Example 5.14: the SQAu — stay transitions are the metric here.
        scenario(w, "example_5_14_sqau_query", |m| {
            let sigma = qa_bench::binary_alphabet();
            let qa = qa_core::unranked::query::example_5_14(&sigma);
            let one = sigma.symbol("1");
            let zero = sigma.symbol("0");
            let mut t = Tree::leaf(zero);
            for i in 0..256usize {
                t.add_child(t.root(), if i % 3 == 0 { one } else { zero });
            }
            qa.query_with(&t, &mut m.observer()).unwrap();
        });

        // Figure 5: two-pass ranked unary MSO evaluation.
        scenario(w, "fig5_ranked_eval", |m| {
            let mut a = Alphabet::from_names(["s", "t"]);
            let phi = qa_mso::parse("leaf(v) & (ex r. (root(r) & label(r, s)))", &mut a).unwrap();
            let d = qa_mso::compile_ranked::compile_unary(&phi, "v", 2, 2).unwrap();
            let t = qa_trees::generate::complete(a.symbol("s"), 2, 8);
            qa_mso::query_eval::eval_unary_ranked_with(&d, &t, 2, &mut m.observer());
        });

        // Lemma 5.2: NBTAu non-emptiness fixpoint + witness assembly.
        scenario(w, "lemma_5_2_emptiness", |m| {
            let sigma = qa_bench::circuit_alphabet();
            let n = qa_core::unranked::Nbtau::boolean_circuit(&sigma);
            qa_core::unranked::emptiness::is_nonempty_with(&n, &mut m.observer());
            qa_core::unranked::emptiness::witness_with(&n, &mut m.observer());
        });

        // Theorem 6.3: query non-emptiness via the summary fixpoint.
        scenario(w, "thm_6_3_nonemptiness", |m| {
            let sigma = qa_bench::circuit_alphabet();
            let qa = qa_core::ranked::query::example_4_4(&sigma);
            qa_decision::ranked_decisions::non_emptiness_with(
                &qa,
                qa_decision::ranked_decisions::DEFAULT_MAX_ITEMS,
                &mut m.observer(),
            )
            .unwrap();
        });

        // Cached batch evaluation: 8 repeats of one word through a shared
        // CrossingCache — the cache_hits/cache_misses counters are the
        // deterministic fingerprint of the Theorem 3.9 memoization.
        scenario(w, "example_3_4_cached_batch", |m| {
            let a = Alphabet::from_names(["0", "1"]);
            let qa = qa_twoway::string_qa::example_3_4_qa(&a);
            let word = qa_bench::random_word(512, 34);
            let mut cache = qa_twoway::CrossingCache::new();
            for _ in 0..8 {
                qa.query_cached(&word, &mut cache, &mut m.observer());
            }
        });

        // Repeated non-emptiness through a SummaryCache: the second call
        // must answer every subtree summary from the cache.
        scenario(w, "thm_6_3_nonemptiness_cached", |m| {
            let sigma = qa_bench::circuit_alphabet();
            let qa = qa_core::ranked::query::example_4_4(&sigma);
            let mut cache = qa_decision::ranked_decisions::SummaryCache::new();
            for _ in 0..2 {
                qa_decision::ranked_decisions::non_emptiness_cached(
                    &qa,
                    qa_decision::ranked_decisions::DEFAULT_MAX_ITEMS,
                    &mut cache,
                    &mut m.observer(),
                )
                .unwrap();
            }
        });

        // §6 string decisions: equivalence via crossing-sequence NFAs.
        scenario(w, "string_equivalence", |m| {
            let a = Alphabet::from_names(["0", "1"]);
            let qa = qa_twoway::string_qa::example_3_4_qa(&a);
            qa_decision::string_decisions::equivalence_with(&qa, &qa, &mut m.observer()).unwrap();
            qa_decision::string_decisions::non_emptiness_with(&qa, &mut m.observer()).unwrap();
        });

        // Proposition 6.1: tiling reduction size.
        scenario(w, "prop_6_1_tiling_reduction", |m| {
            let inst = qa_decision::tiling::easy_instance(3);
            qa_decision::tiling::to_tree_automaton_with(&inst, &mut m.observer()).unwrap();
        });
    })
}

/// `steps` counter of one scenario in a parsed report (suite-wrapped or
/// legacy flat).
fn steps_of(report: &Value, scenario: &str) -> Option<u64> {
    report_scenarios(report)
        .get(scenario)?
        .get("counters")?
        .get("steps")?
        .as_u64()
}

/// Print the human-readable summary: one row per scenario with its step
/// count and, when a baseline is available, the delta against it.
fn print_summary(current: &Value, baseline: Option<&Value>) {
    let Some(scenarios) = report_scenarios(current).as_obj() else {
        return;
    };
    println!();
    println!("{:<28} {:>10} {:>12}", "scenario", "steps", "Δ baseline");
    for (name, _) in scenarios {
        let steps = steps_of(current, name);
        let steps_text = steps.map_or("-".to_string(), |s| s.to_string());
        let delta = match (steps, baseline.and_then(|b| steps_of(b, name))) {
            (Some(cur), Some(base)) if base == cur => "=".to_string(),
            (Some(cur), Some(base)) => {
                let pct = (cur as f64 - base as f64) / base.max(1) as f64 * 100.0;
                format!("{:+} ({pct:+.1}%)", cur as i64 - base as i64)
            }
            (Some(_), None) => "new".to_string(),
            // Scenario counts no steps (it meters other work).
            (None, _) => "-".to_string(),
        };
        println!("{name:<28} {steps_text:>10} {delta:>12}");
    }
    println!();
}

/// Gate one suite: parse `baseline_path`, compare its scenarios against
/// the freshly generated `current_scenarios`, print drifts. Returns the
/// drift count.
fn check_suite(baseline_path: &str, suite: &str, current_scenarios: &str, tolerance: f64) -> usize {
    let baseline_text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let baseline = qa_obs::json::parse(&baseline_text).expect("parse baseline");
    if let Some(tag) = qa_probe::gate::suite(&baseline) {
        assert_eq!(
            tag, suite,
            "{baseline_path} carries suite {tag:?}, expected {suite:?}"
        );
    }
    let current = qa_obs::json::parse(current_scenarios).expect("parse generated scenarios");
    print_summary(&current, Some(&baseline));
    let drifts = qa_probe::gate::compare_reports(report_scenarios(&baseline), &current, tolerance);
    for d in &drifts {
        println!("gate: DRIFT [{suite}] {}", d.render());
    }
    drifts.len()
}

/// Regenerate both suites and compare them against their baselines in one
/// pass; returns the number of metrics that drifted beyond `tolerance`.
fn check(baseline_path: &str, par_baseline_path: &str, tolerance: f64) -> usize {
    println!(
        "# bench_obs --check (baselines {baseline_path} + {par_baseline_path}, tolerance {tolerance})"
    );
    let mut drifts = check_suite(baseline_path, "obs", &generate_scenarios(), tolerance);
    println!("# suite obs_par (deterministic single-worker cached pass)");
    let par_scen = with_par_batch(|jobs, _| par_scenarios(jobs));
    drifts += check_suite(par_baseline_path, "obs_par", &par_scen, tolerance);
    if drifts == 0 {
        println!("gate: OK — all step counts within tolerance across both suites");
    } else {
        println!(
            "gate: {drifts} metric(s) drifted; regenerate {baseline_path} / {par_baseline_path} if intentional"
        );
    }
    drifts
}

/// Observer overhead self-measurement on the Example 3.4 string query.
///
/// Returns the number of gate violations (0 when `gate` is false). The
/// bounds are deliberately loose — per-step absolute slack OR a large
/// relative multiplier — because wall-clock noise on shared CI runners is
/// real; the gate exists to catch an accidental per-event allocation or
/// syscall, which blows past both bounds at once.
///
/// The rows run interleaved ([`qa_bench::Harness::interleaved`],
/// [`ROUNDS`] rounds), and every row is judged on the median over rounds
/// of its ratio to (and ns/step over) its reference row *in the same
/// round*, so a slow spell on a shared machine moves both sides of each
/// ratio instead of failing whichever row it happened to land on.
fn overhead(gate: bool) -> usize {
    use qa_bench::black_box;
    use qa_flight::{job, Budget, FlightRecorder, Watchdog};
    use qa_obs::{Counter, NoopObserver, Tee};

    /// A scenario passes if EITHER bound holds.
    const MAX_EXTRA_NS_PER_STEP: f64 = 250.0;
    const MAX_RELATIVE: f64 = 50.0;

    let a = Alphabet::from_names(["0", "1"]);
    let qa = qa_twoway::string_qa::example_3_4_qa(&a);
    let word = qa_bench::random_word(512, 34);

    // Work per run, for the ns/step normalization.
    let count_metrics = Metrics::new();
    qa.query_with(&word, &mut count_metrics.observer()).unwrap();
    let steps = count_metrics.get(Counter::Steps).max(1);

    let metrics = Metrics::new();
    let mut recorder = FlightRecorder::with_capacity(256);
    let mut dog = Watchdog::new(NoopObserver, Budget::steps(u64::MAX));
    let mut stack = Watchdog::new(
        Tee(FlightRecorder::with_capacity(256), metrics.observer()),
        Budget::steps(u64::MAX),
    );
    // The --serve configuration: the full stack plus a span profiler, with
    // an idle pulse server bound on loopback for the whole measurement
    // (and, under `--features alloc-count`, the counting allocator priced
    // into every row) — what `qa-fleet --serve` adds per run. The fleet's
    // live /metrics feed is a per-run registry merge, not a per-event tee,
    // so it does not show up here. Gated against the full stack (≤ 10%).
    let live = std::sync::Arc::new(Metrics::new());
    let pulse_state = qa_pulse::PulseState::new(std::sync::Arc::clone(&live), "qa_bench");
    let pulse_server = qa_pulse::PulseServer::serve("127.0.0.1:0", pulse_state)
        .expect("bind loopback pulse server");
    let serve_metrics = Metrics::new();
    let mut serve_stack = Watchdog::new(
        Tee(
            FlightRecorder::with_capacity(256),
            Tee(serve_metrics.observer(), qa_pulse::SpanProfiler::new()),
        ),
        Budget::steps(u64::MAX),
    );
    // The --scope configuration: the full stack plus a per-state
    // ScopeProfiler — what `qa-fleet --scope` and a serving-daemon
    // `"explain": true` request add per run. Gated like pulse: EXPLAIN
    // ANALYZE must cost at most 10% over the plain full stack (or a small
    // absolute ns/step slack).
    let scope_metrics = Metrics::new();
    let mut scope_stack = Watchdog::new(
        Tee(
            FlightRecorder::with_capacity(256),
            Tee(scope_metrics.observer(), qa_scope::ScopeProfiler::new()),
        ),
        Budget::steps(u64::MAX),
    );
    // One whole qa-fleet job on the roster's Example 3.4 entry, as the
    // fleet runs a job that records no optional arm: `job::Arms::run` under
    // the fleet's default budget, its tally folded into a registry once.
    // Held to the noop bounds.
    let fleet_job = job::roster().swap_remove(0);
    let fleet_doc = job::Doc::Word(word.clone());
    let fleet_budget = Budget::steps(job::DEFAULT_MAX_STEPS).with_wall(job::DEFAULT_MAX_WALL);
    let fleet_registry = Metrics::new();
    let (probe, _) =
        job::Arms::default().run(&fleet_job, &fleet_doc, fleet_budget, &fleet_registry);
    assert_eq!(
        probe.tally.get(Counter::Steps),
        steps,
        "the fleet job runs the same steps as the bare query"
    );

    let mut h = qa_bench::Harness::new("obs_overhead");
    let ns = h.interleaved(
        &mut [
            ("noop", &mut || {
                black_box(qa.query_with(&word, &mut NoopObserver).unwrap());
            }),
            ("metrics", &mut || {
                black_box(qa.query_with(&word, &mut metrics.observer()).unwrap());
            }),
            ("flight_recorder", &mut || {
                black_box(qa.query_with(&word, &mut recorder).unwrap());
            }),
            ("watchdog", &mut || {
                black_box(qa.query_with(&word, &mut dog).unwrap());
            }),
            ("watchdog+flight+metrics", &mut || {
                black_box(qa.query_with(&word, &mut stack).unwrap());
            }),
            ("fleet job", &mut || {
                black_box(job::Arms::default().run(
                    &fleet_job,
                    &fleet_doc,
                    fleet_budget,
                    &fleet_registry,
                ));
            }),
            ("stack+pulse(serve,profile)", &mut || {
                black_box(qa.query_with(&word, &mut serve_stack).unwrap());
            }),
            ("stack+scope(explain)", &mut || {
                black_box(qa.query_with(&word, &mut scope_stack).unwrap());
            }),
        ],
        ROUNDS,
    );
    pulse_server.shutdown();
    const NOOP: usize = 0;
    const STACK: usize = 4;

    println!();
    println!(
        "{:<24} {:>12} {:>10} {:>9}",
        "observer", "ns/run", "ns/step", "x noop"
    );
    let mut violations = 0usize;
    let names = [
        "noop",
        "metrics",
        "flight_recorder",
        "watchdog",
        "watchdog+flight+metrics",
        "fleet job",
    ];
    for (row, name) in names.into_iter().enumerate() {
        let (ns_run, rel, extra_per_step) = paired(&ns[row], &ns[NOOP], steps);
        let ok = extra_per_step <= MAX_EXTRA_NS_PER_STEP || rel <= MAX_RELATIVE;
        println!(
            "{name:<24} {ns_run:>12.1} {:>10.2} {rel:>8.1}x{}",
            ns_run / steps as f64,
            if ok { "" } else { "  <-- OVER BUDGET" }
        );
        if gate && !ok {
            violations += 1;
        }
    }
    // The pulse and scope rows have their own budget: serving + profiling,
    // and per-state profiling, must each cost at most 10% over the plain
    // full stack (or a small absolute ns/step slack, for runners where the
    // stack itself is a handful of ns).
    const MAX_PULSE_RELATIVE: f64 = 1.10;
    const MAX_PULSE_EXTRA_NS_PER_STEP: f64 = 25.0;
    const MAX_SCOPE_RELATIVE: f64 = 1.10;
    const MAX_SCOPE_EXTRA_NS_PER_STEP: f64 = 25.0;
    for (row, name, max_rel, max_extra) in [
        (
            6,
            "stack+pulse",
            MAX_PULSE_RELATIVE,
            MAX_PULSE_EXTRA_NS_PER_STEP,
        ),
        (
            7,
            "stack+scope",
            MAX_SCOPE_RELATIVE,
            MAX_SCOPE_EXTRA_NS_PER_STEP,
        ),
    ] {
        let (ns_run, rel_stack, extra_per_step) = paired(&ns[row], &ns[STACK], steps);
        let ok = rel_stack <= max_rel || extra_per_step <= max_extra;
        println!(
            "{name:<24} {ns_run:>12.1} {:>10.2} {rel_stack:>7.2}x stack{}",
            ns_run / steps as f64,
            if ok { "" } else { "  <-- OVER BUDGET" }
        );
        if gate && !ok {
            violations += 1;
        }
    }
    if !serve_eval_within_budget() && gate {
        violations += 1;
    }
    if gate {
        if violations == 0 {
            println!(
                "gate: OK — every observer within {MAX_EXTRA_NS_PER_STEP} extra ns/step or {MAX_RELATIVE}x of noop; pulse and scope within {MAX_PULSE_RELATIVE}x of the full stack; serve eval within {MAX_SERVE_RELATIVE}x or {MAX_SERVE_EXTRA_NS_PER_STEP} extra ns/step of noop"
            );
        } else {
            println!("gate: {violations} observer(s) over budget");
        }
    }
    violations
}

/// Rounds of the interleaved overhead rows.
const ROUNDS: usize = 21;

/// A row against its reference, paired round by round: the row's median
/// ns/run, and the medians over rounds of `row / reference` and of
/// `(row − reference) / steps`.
fn paired(row: &[f64], reference: &[f64], steps: u64) -> (f64, f64, f64) {
    let mut ns = row.to_vec();
    let mut rel: Vec<f64> = row
        .iter()
        .zip(reference)
        .map(|(r, b)| r / b.max(1e-9))
        .collect();
    let mut extra: Vec<f64> = row
        .iter()
        .zip(reference)
        .map(|(r, b)| (r - b) / steps as f64)
        .collect();
    (
        qa_bench::median(&mut ns),
        qa_bench::median(&mut rel),
        qa_bench::median(&mut extra),
    )
}

/// The serve-eval row passes if EITHER bound holds.
const MAX_SERVE_RELATIVE: f64 = 1.10;
const MAX_SERVE_EXTRA_NS_PER_STEP: f64 = 10.0;

/// The "serve eval (Figure 6)" row: `qa_serve::evaluate` under the
/// daemon's default budget against `eval_unranked_with(NoopObserver)`,
/// timed in interleaved single runs and judged like the other rows on the
/// medians of the per-pair ratio and ns/step, so drifting load on a
/// shared machine hits both sides alike. Asserts that both select the
/// same nodes as the ranked Figure 5 run on the explicit
/// first-child/next-sibling encoding; returns whether the row is within
/// its bound.
fn serve_eval_within_budget() -> bool {
    use qa_flight::Budget;
    use qa_mso::{query_eval, unranked};
    use qa_obs::{Counter, NoopObserver, Tally};
    use std::time::{Duration, Instant};

    const REPS: usize = 101;
    let mut alphabet = Alphabet::from_names(["a", "b", "c", "d"]);
    let labels: Vec<Symbol> = (0..4).map(Symbol::from_index).collect();
    let mut rng = qa_base::rng::StdRng::seed_from_u64(14_000);
    let tree = qa_trees::generate::random(&mut rng, &labels, 14_000, None);
    let query = qa_serve::QueryCache::new(1)
        .compile("label(v, a)", &mut alphabet, None)
        .expect("label(v, a) compiles");
    let prepared = &query.prepared;
    let cfg = qa_serve::ServeConfig::default();
    let budget = Budget::steps(cfg.max_steps)
        .with_wall(Duration::from_millis(cfg.max_wall_ms))
        .with_wall_poll_every(64);
    let registry = Metrics::new();
    let serve = || qa_serve::evaluate(prepared, &tree, false, budget, &registry);

    let mut counted = Tally::new();
    let plain = prepared.eval_unranked_with(&tree, &mut counted);
    let steps = counted.get(Counter::Steps).max(1);
    let served: Vec<_> = serve().selected.into_iter().map(|(v, _)| v).collect();
    assert_eq!(served, plain, "serve eval selects what the bare run does");
    let formula = qa_mso::parse("label(v, a)", &mut alphabet).expect("label(v, a) parses");
    let d = unranked::compile_unary(&formula, "v", alphabet.len()).expect("compiles");
    let (enc, map) = qa_trees::fcns::encode_with_map(&tree, unranked::nil_symbol(alphabet.len()));
    let sigma_enc = unranked::encoded_alphabet_len(alphabet.len());
    let mut encoded: Vec<_> = query_eval::eval_unary_ranked(&d, &enc, sigma_enc)
        .into_iter()
        .filter_map(|v| map[v.index()])
        .collect();
    encoded.sort_unstable();
    assert_eq!(
        plain, encoded,
        "serve eval selects what Figure 5 on the encoding does"
    );

    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64() * 1e9
    };
    let (mut ns_noop, mut ns_serve) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for _ in 0..REPS {
        ns_noop.push(time(&mut || {
            qa_bench::black_box(prepared.eval_unranked_with(&tree, &mut NoopObserver));
        }));
        ns_serve.push(time(&mut || {
            qa_bench::black_box(serve());
        }));
    }
    let (ns, rel, extra_per_step) = paired(&ns_serve, &ns_noop, steps);
    let noop = qa_bench::median(&mut ns_noop);
    let ok = rel <= MAX_SERVE_RELATIVE || extra_per_step <= MAX_SERVE_EXTRA_NS_PER_STEP;
    println!(
        "{:<24} {ns:>12.1} {:>10.2} {rel:>8.2}x noop ({extra_per_step:+.2} ns/step over {:.1}){}",
        "serve eval (Figure 6)",
        ns / steps as f64,
        noop / steps as f64,
        if ok { "" } else { "  <-- OVER BUDGET" }
    );
    ok
}

/// A 2DFA that makes `sweeps` full right-then-left passes over the word
/// before accepting, selecting positions labelled `1` on the first
/// leftward sweep.
///
/// Behavior analysis collapses all those sweeps into one crossing-sequence
/// table per word, so the per-word work of `query_via_behavior` grows with
/// `sweeps` while a [`qa_twoway::CrossingCache`] pays it once per distinct
/// word — the workload that makes memoization, not thread count, carry the
/// `--par` gate.
fn zigzag_qa(a: &Alphabet, sweeps: usize) -> qa_twoway::StringQa {
    use qa_twoway::twodfa::{Dir, TwoDfaBuilder};
    use qa_twoway::Tape;
    let mut b = TwoDfaBuilder::new(a.len());
    let rs: Vec<_> = (0..sweeps).map(|_| b.add_state()).collect();
    let ls: Vec<_> = (0..sweeps).map(|_| b.add_state()).collect();
    let f = b.add_state();
    b.set_initial(rs[0]);
    b.set_final(f, true);
    for i in 0..sweeps {
        b.set_action(rs[i], Tape::LeftMarker, Dir::Right, rs[i]);
        b.set_action_all_symbols(rs[i], Dir::Right, rs[i]);
        b.set_action(rs[i], Tape::RightMarker, Dir::Left, ls[i]);
        b.set_action_all_symbols(ls[i], Dir::Left, ls[i]);
        let next = if i + 1 < sweeps { rs[i + 1] } else { f };
        b.set_action(ls[i], Tape::LeftMarker, Dir::Right, next);
    }
    let mut qa = qa_twoway::StringQa::new(b.build().expect("valid zigzag 2DFA"));
    qa.set_selecting(ls[0], a.symbol("1"), true);
    qa
}

/// Build the repetition-heavy `--par` batch and hand it (plus the raw MSO
/// automaton the sequential baseline needs) to `f`. The jobs borrow all
/// the locals constructed here, hence the callback shape.
fn with_par_batch<R>(f: impl FnOnce(&[qa_par::Job<'_>], &qa_core::ranked::Dbta) -> R) -> R {
    use qa_decision::ranked_decisions::DEFAULT_MAX_ITEMS;
    use qa_par::Job;

    let a = Alphabet::from_names(["0", "1"]);
    // 16 sweeps: deep enough that the behavior table dwarfs the shared
    // selection pass, shallow enough that one uncached run stays in the
    // low milliseconds.
    let sqa = zigzag_qa(&a, 16);
    let words: Vec<Vec<Symbol>> = (0..6)
        .map(|i| qa_bench::random_word(1024, 40 + i as u64))
        .collect();
    let circ = qa_bench::circuit_alphabet();
    let rqa = qa_core::ranked::query::example_4_4(&circ);

    // Wide flat trees for the SQAu: every inner node's up/stay decision
    // reads its full children pair-string, so on repeated documents the
    // memoized decision replaces classifier + matcher + GSQA runs.
    let uqa = qa_core::unranked::query::example_5_14(&a);
    let zero = a.symbol("0");
    let one = a.symbol("1");
    let utrees: Vec<Tree> = (0..6)
        .map(|d| {
            let mut t = Tree::leaf(zero);
            for i in 0..512usize {
                t.add_child(t.root(), if (i + d) % 3 == 0 { one } else { zero });
            }
            t
        })
        .collect();

    // A compiled MSO unary query: the prepared form pays totalization once
    // per batch instead of once per document.
    let mut ma = Alphabet::from_names(["s", "t"]);
    let phi = qa_mso::parse("leaf(v) & (ex r. (root(r) & label(r, s)))", &mut ma).unwrap();
    let dbta = qa_mso::compile_ranked::compile_unary(&phi, "v", 2, 2).unwrap();
    let prepared = qa_mso::PreparedUnary::new(&dbta, 2);
    // Small complete trees (heights 2..4): evaluation itself is cheap, so
    // the per-call totalization that `PreparedUnary` amortizes dominates.
    let mtrees: Vec<Tree> = (2..5)
        .map(|h| qa_trees::generate::complete(ma.symbol("s"), 2, h))
        .collect();

    let mut jobs: Vec<Job> = Vec::new();
    for r in 0..40 {
        for w in &words {
            jobs.push(Job::String { qa: &sqa, word: w });
        }
        if r < 4 {
            for t in &utrees {
                jobs.push(Job::Unranked { qa: &uqa, tree: t });
            }
        }
        for t in &mtrees {
            jobs.push(Job::Mso {
                query: &prepared,
                tree: t,
                unranked: false,
            });
        }
    }
    for _ in 0..8 {
        jobs.push(Job::NonEmptiness {
            qa: &rqa,
            max_items: DEFAULT_MAX_ITEMS,
        });
    }
    f(&jobs, &dbta)
}

/// The deterministic, gated face of the par suite: one worker, one cache,
/// jobs in order — the cache hit/miss counts are then exact machine
/// fingerprints of the memoization, unlike the stealing-dependent
/// per-worker figures of the timed 4-worker pass.
fn par_scenarios(jobs: &[qa_par::Job<'_>]) -> String {
    use qa_obs::Counter;
    let det = Metrics::new();
    let _ = qa_par::par_evaluate_with(1, jobs, |_| det.observer());
    object(|w| {
        let counters = object(|c| {
            c.field_u64("jobs", jobs.len() as u64);
            c.field_u64("cache_hits", det.get(Counter::CacheHits));
            c.field_u64("cache_misses", det.get(Counter::CacheMisses));
        });
        w.field_raw(
            "par_cached_batch",
            &object(|s| s.field_raw("counters", &counters)),
        );
    })
}

/// Parallel + memoized batch evaluation vs the plain sequential engines.
///
/// Returns the number of gate violations (0 when `gate` is false). The
/// candidate must produce outcomes identical to the baseline (asserted
/// unconditionally), and under `--gate` must be ≥ 2x faster with a nonzero
/// cache hit count. The batch is repetition-heavy by design — a small
/// document pool and identical decision calls — so the BehaviorCache, not
/// the worker count, supplies the speedup; the gate therefore also passes
/// on single-core CI runners.
fn par_bench(gate: bool) -> usize {
    with_par_batch(|jobs, dbta| par_bench_inner(gate, jobs, dbta))
}

fn par_bench_inner(gate: bool, jobs: &[qa_par::Job<'_>], dbta: &qa_core::ranked::Dbta) -> usize {
    use qa_decision::ranked_decisions::non_emptiness_with;
    use qa_obs::{Counter, Metrics, NoopObserver};
    use qa_par::{par_evaluate, par_evaluate_with, Job, Outcome};

    const WORKERS: usize = 4;

    // Baseline: the plain uncached engines, one job after another (for the
    // MSO jobs that includes the per-call totalization the prepared form
    // amortizes away).
    let seq_run = || -> Vec<Outcome> {
        jobs.iter()
            .map(|job| match *job {
                Job::String { qa, word } => Outcome::Positions(qa.query_via_behavior(word)),
                Job::Unranked { qa, tree } => match qa.query(tree) {
                    Ok(nodes) => Outcome::Nodes(nodes),
                    Err(e) => Outcome::Error(e.to_string()),
                },
                Job::Mso { tree, .. } => {
                    Outcome::Nodes(qa_mso::query_eval::eval_unary_ranked(dbta, tree, 2))
                }
                Job::NonEmptiness { qa, max_items } => {
                    match non_emptiness_with(qa, max_items, &mut NoopObserver) {
                        Ok(w) => Outcome::Witness(w.map(|w| (w.tree.num_nodes(), w.node))),
                        Err(e) => Outcome::Error(e.to_string()),
                    }
                }
                _ => unreachable!("batch contains no ranked/containment jobs"),
            })
            .collect()
    };
    let par_run = || par_evaluate(WORKERS, jobs);

    let time_best_of = |runs: usize, f: &dyn Fn() -> Vec<Outcome>| -> (Vec<Outcome>, f64) {
        let mut best = f64::INFINITY;
        let mut out = Vec::new();
        for _ in 0..runs {
            let t0 = std::time::Instant::now();
            out = f();
            best = best.min(t0.elapsed().as_nanos() as f64);
        }
        (out, best)
    };
    let (seq_out, seq_ns) = time_best_of(3, &seq_run);
    let (par_out, par_ns) = time_best_of(3, &par_run);
    assert_eq!(
        seq_out, par_out,
        "parallel cached outcomes must be identical to sequential uncached"
    );

    // Instrumented pass for the hit rate (not timed).
    let regs: Vec<Metrics> = (0..WORKERS).map(|_| Metrics::new()).collect();
    let instrumented = par_evaluate_with(WORKERS, jobs, |wid| regs[wid].observer());
    assert_eq!(
        instrumented, seq_out,
        "instrumentation must not change results"
    );
    let hits: u64 = regs.iter().map(|m| m.get(Counter::CacheHits)).sum();
    let misses: u64 = regs.iter().map(|m| m.get(Counter::CacheMisses)).sum();
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let speedup = seq_ns / par_ns.max(1.0);

    println!();
    println!("{:<26} {:>14}", "batch", format!("{} job(s)", jobs.len()));
    println!("{:<26} {:>14.2} ms", "sequential uncached", seq_ns / 1e6);
    println!(
        "{:<26} {:>14.2} ms",
        format!("parallel({WORKERS}) cached"),
        par_ns / 1e6
    );
    println!("{:<26} {:>13.2}x", "speedup", speedup);
    println!(
        "{:<26} {:>10} / {:>6} ({:.1}%)",
        "cache hits/misses",
        hits,
        misses,
        hit_rate * 100.0
    );

    let mut violations = 0usize;
    if gate {
        // The gate prints and judges only: rewriting the checked-in
        // report's machine-dependent `info` block on every run would leave
        // the tree dirty.
        if speedup < 2.0 {
            println!("gate: FAIL — speedup {speedup:.2}x < 2.0x");
            violations += 1;
        }
        if hits == 0 {
            println!("gate: FAIL — BehaviorCache never hit");
            violations += 1;
        }
        if violations == 0 {
            println!("gate: OK — {speedup:.2}x speedup, {hits} cache hit(s)");
        }
    } else {
        // Unified-schema export: `scenarios` holds the deterministic gated
        // counters (--check reads them), `info` the machine-dependent
        // wall-clock figures (never gated).
        let info = object(|w| {
            w.field_u64("workers", WORKERS as u64);
            w.field_f64("seq_ns", seq_ns);
            w.field_f64("par_ns", par_ns);
            w.field_f64("speedup", speedup);
            w.field_u64("stealing_cache_hits", hits);
            w.field_u64("stealing_cache_misses", misses);
            w.field_f64("hit_rate", hit_rate);
        });
        let report = suite_report("obs_par", &par_scenarios(jobs), Some(&info));
        std::fs::write("BENCH_obs_par.json", format!("{report}\n"))
            .expect("write BENCH_obs_par.json");
        println!("wrote BENCH_obs_par.json");
    }
    violations
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--overhead") {
        let gate = args.iter().any(|a| a == "--gate");
        if overhead(gate) > 0 {
            std::process::exit(1);
        }
        return;
    }
    if args.iter().any(|a| a == "--par") {
        let gate = args.iter().any(|a| a == "--gate");
        if par_bench(gate) > 0 {
            std::process::exit(1);
        }
        return;
    }
    if args.iter().any(|a| a == "--check") {
        let flag_val = |name: &str| {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1).cloned())
        };
        let baseline = flag_val("--baseline").unwrap_or_else(|| "BENCH_obs.json".to_string());
        let par_baseline =
            flag_val("--par-baseline").unwrap_or_else(|| "BENCH_obs_par.json".to_string());
        let tolerance: f64 = flag_val("--tolerance")
            .map(|t| t.parse().expect("--tolerance takes a number"))
            .unwrap_or(0.05);
        if check(&baseline, &par_baseline, tolerance) > 0 {
            std::process::exit(1);
        }
        return;
    }

    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_obs.json".to_string());
    println!("# bench_obs -> {out_path}");
    // Read any previous report first so the summary can show the delta.
    let previous = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|t| qa_obs::json::parse(&t).ok());
    let report = generate_report();
    let parsed = qa_obs::json::parse(&report).expect("parse generated report");
    print_summary(&parsed, previous.as_ref());
    std::fs::write(&out_path, format!("{report}\n")).expect("write report");
    println!("wrote {out_path}");
}
