//! One `qa-fleet` job: a roster query over a generated document, under
//! the per-job observer stack.
//!
//! The stack is `Watchdog(Tee(FlightRecorder, Tee(Tally, Tee(SpanProfiler,
//! extras))))`. The job counts in a plain [`Tally`] and folds it into the
//! fleet registry once, with [`Metrics::absorb`], so no event pays for an
//! atomic. [`run`] is generic over the `extras` observer: [`Arms::run`]
//! decides once per job whether the trace, scope and live arms record
//! anything, and instantiates [`run`] with [`NoopObserver`] when none
//! does, so the common job pays nothing per event for them.

use std::time::{Duration, Instant};

use qa_base::rng::{Rng, StdRng};
use qa_base::{Alphabet, Error, Symbol};
use qa_core::ranked::query::example_4_4;
use qa_core::ranked::RankedQa;
use qa_core::unranked::query::{example_5_14, example_5_9};
use qa_core::unranked::UnrankedQa;
use qa_obs::{Counter, JobEvent, Metrics, NoopObserver, Observer, RunTrace, Tally, Tee};
use qa_pulse::{SpanProfile, SpanProfiler};
use qa_scope::ScopeProfiler;
use qa_trees::Tree;
use qa_twoway::string_qa::example_3_4_qa;
use qa_twoway::StringQa;

use crate::{Budget, FlightRecorder, Sampled, SharedFlight, Watchdog};

/// qa-fleet's default per-job step budget.
pub const DEFAULT_MAX_STEPS: u64 = 10_000_000;

/// qa-fleet's default per-job wall-clock budget.
pub const DEFAULT_MAX_WALL: Duration = Duration::from_millis(10_000);

/// Events the per-job flight recorder retains for a post-mortem.
const RECORDER_CAPACITY: usize = 256;

/// The document a query runs over.
pub enum Doc {
    /// A word, for the string query.
    Word(Vec<Symbol>),
    /// A tree, for the ranked and unranked queries.
    Tree(Tree),
}

impl Doc {
    /// Word length or tree node count.
    pub fn len(&self) -> usize {
        match self {
            Doc::Word(w) => w.len(),
            Doc::Tree(t) => t.num_nodes(),
        }
    }

    /// Whether the document has no positions (an empty word).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Document height: 0 for words (flat), tree height otherwise.
    pub fn depth(&self) -> usize {
        match self {
            Doc::Word(_) => 0,
            Doc::Tree(t) => t.height(),
        }
    }
}

/// A roster query: one of the paper's machine families.
pub enum Query {
    /// A two-way string query automaton (QAstring).
    String(Box<StringQa>),
    /// A ranked query automaton (QAr).
    Ranked(Box<RankedQa>),
    /// An unranked query automaton (QAu, or SQAu with stay transitions).
    Unranked(Box<UnrankedQa>),
}

/// One roster entry: a named example query. [`generate_doc`] draws its
/// documents.
pub struct Workload {
    /// The roster name, e.g. `example-5-9`.
    pub name: &'static str,
    /// The query automaton.
    pub query: Query,
}

fn binary_alphabet() -> Alphabet {
    Alphabet::from_names(["0", "1"])
}

fn circuit_alphabet() -> Alphabet {
    Alphabet::from_names(["AND", "OR", "0", "1"])
}

/// The paper's running examples, in roster order: Example 3.4 (string),
/// 4.4 (ranked circuit), 5.9 (unranked circuit) and 5.14 (stay
/// transitions).
pub fn roster() -> Vec<Workload> {
    let bin = binary_alphabet();
    let circ = circuit_alphabet();
    vec![
        Workload {
            name: "example-3-4",
            query: Query::String(Box::new(example_3_4_qa(&bin))),
        },
        Workload {
            name: "example-4-4",
            query: Query::Ranked(Box::new(example_4_4(&circ))),
        },
        Workload {
            name: "example-5-9",
            query: Query::Unranked(Box::new(example_5_9(&circ))),
        },
        Workload {
            name: "example-5-14",
            query: Query::Unranked(Box::new(example_5_14(&bin))),
        },
    ]
}

/// The document seed of job `(qi, di)` under the fleet `seed`: distinct
/// per (query index, doc index), stable across invocations.
pub fn doc_seed(seed: u64, qi: usize, di: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((qi as u64) << 32 | di as u64)
}

/// Deterministic document of about `size` positions for the roster entry
/// `name`, drawn from `seed`.
///
/// # Panics
///
/// If `name` is not a roster entry.
pub fn generate_doc(name: &str, size: usize, seed: u64) -> Doc {
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
        other => panic!("unknown workload {other}"),
    }
}

/// What one job measured.
pub struct Job {
    /// The number of positions or nodes selected, or the run's error (a
    /// tripped budget is `Error::RunAborted`).
    pub selected: Result<usize, Error>,
    /// Wall-clock nanoseconds of the query call alone.
    pub wall_ns: u64,
    /// The job's counters and series, `Counter::Jobs` included; already
    /// folded into the fleet registry.
    pub tally: Tally,
    /// The job's black box: its last 256 events.
    pub recorder: FlightRecorder,
    /// The job's span profile.
    pub profile: SpanProfile,
}

impl Job {
    /// Fill the measured fields of the job's wide event: counters,
    /// selection, outcome and latency.
    pub fn record(&self, event: &mut JobEvent) {
        event.wall_ns = self.wall_ns;
        match &self.selected {
            Ok(n) => {
                event.selected = *n;
                event.outcome = "ok".to_string();
            }
            Err(e) => event.outcome = e.to_string(),
        }
        event.steps = self.tally.get(Counter::Steps);
        event.reversals = self.tally.get(Counter::HeadReversals);
        event.cache_hits = self.tally.get(Counter::CacheHits);
        event.cache_misses = self.tally.get(Counter::CacheMisses);
        event.budget_trips = self.tally.get(Counter::BudgetTrips);
    }

    /// The post-mortem of a failed job: the workload, the error and the
    /// flight-recorder dump. `None` when the job completed.
    pub fn postmortem(&self, workload: &str) -> Option<String> {
        let e = self.selected.as_ref().err()?;
        Some(format!(
            "workload: {workload}\nerror: {e}\n\n{}",
            self.recorder.dump()
        ))
    }
}

/// Run `wl` over `doc` under `budget` and the per-job stack, teeing every
/// event to `extras` as well. The job's tally, with one `Counter::Jobs`
/// (aborted runs count too), is folded into `fleet` once, at the end.
/// Returns the job and the `extras` observer, for the caller to take its
/// recordings from.
///
/// # Panics
///
/// If `doc` is a word for a tree query or a tree for the string query.
pub fn run<E: Observer>(
    wl: &Workload,
    doc: &Doc,
    budget: Budget,
    extras: E,
    fleet: &Metrics,
) -> (Job, E) {
    let mut obs = Watchdog::new(
        Tee(
            FlightRecorder::with_capacity(RECORDER_CAPACITY),
            Tee(Tally::new(), Tee(SpanProfiler::new(), extras)),
        ),
        budget,
    );
    let t0 = Instant::now();
    let selected = match (&wl.query, doc) {
        (Query::String(q), Doc::Word(w)) => q.query_with(w, &mut obs).map(|sel| sel.len()),
        (Query::Ranked(q), Doc::Tree(t)) => q.query_with(t, &mut obs).map(|sel| sel.len()),
        (Query::Unranked(q), Doc::Tree(t)) => q.query_with(t, &mut obs).map(|sel| sel.len()),
        _ => panic!("{}: workload/document kind mismatch", wl.name),
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let Tee(recorder, Tee(mut tally, Tee(profiler, extras))) = obs.into_inner();
    // Every run is one job, aborted or not: the denominator burn-rate
    // SLOs divide error counters by.
    tally.count(Counter::Jobs, 1);
    fleet.absorb(&tally);
    let job = Job {
        selected,
        wall_ns,
        tally,
        recorder,
        profile: profiler.into_profile(),
    };
    (job, extras)
}

/// The optional arms of one job. Each one either records or stays idle
/// for the whole job.
#[derive(Clone, Copy, Debug, Default)]
pub struct Arms<'a> {
    /// Record a full [`RunTrace`] (the job won the fleet's reservoir).
    pub trace: bool,
    /// Record a per-state [`ScopeProfiler`] (`--scope`).
    pub scope: bool,
    /// Feed the shared `/flight` ring (`--serve`).
    pub live: Option<&'a SharedFlight>,
}

/// What a job's recording arms produced.
#[derive(Debug, Default)]
pub struct Recorded {
    /// The full trace, when [`Arms::trace`] was set.
    pub trace: Option<RunTrace>,
    /// The scope profile, when [`Arms::scope`] was set.
    pub scope: Option<ScopeProfiler>,
}

impl Arms<'_> {
    /// [`run`] the job with these arms: with [`NoopObserver`] as the extras
    /// when no arm records, so the job pays nothing per event for them,
    /// and with the `Tee` of the three [`Sampled`] arms otherwise.
    pub fn run(
        &self,
        wl: &Workload,
        doc: &Doc,
        budget: Budget,
        fleet: &Metrics,
    ) -> (Job, Recorded) {
        if !(self.trace || self.scope || self.live.is_some()) {
            let (job, NoopObserver) = run(wl, doc, budget, NoopObserver, fleet);
            return (job, Recorded::default());
        }
        let trace = if self.trace {
            Sampled::Full(RunTrace::new())
        } else {
            Sampled::Light(NoopObserver)
        };
        let scope = if self.scope {
            Sampled::Full(ScopeProfiler::new())
        } else {
            Sampled::Light(NoopObserver)
        };
        let live = match self.live {
            Some(shared) => Sampled::Full(shared.clone()),
            None => Sampled::Light(NoopObserver),
        };
        let (job, Tee(trace, Tee(scope, _))) =
            run(wl, doc, budget, Tee(trace, Tee(scope, live)), fleet);
        let recorded = Recorded {
            trace: trace.full(),
            scope: scope.full(),
        };
        (job, recorded)
    }
}
