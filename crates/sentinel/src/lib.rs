//! # qa-sentinel
//!
//! Embedded time-series rings and SLO burn-rate alerting for
//! `query-automata` fleets.
//!
//! Every observability layer before this one is point-in-time: `/metrics`
//! is a snapshot, the flight ring a postmortem, `events.jsonl` per-job.
//! The sentinel watches *rates over time*: a [`SeriesStore`] of
//! fixed-capacity `(tick, value)` rings fed by scrapes, window queries
//! ([`SeriesStore::rate`], [`SeriesStore::delta`],
//! [`SeriesStore::quantile_over_window`]), and an [`AlertEngine`] running
//! declarative [`AlertRule`]s — threshold, absence, and two-window SLO
//! burn-rate — through a pending→firing→resolved state machine with
//! for-duration holdoff.
//!
//! ## Logical clock, two drivers
//!
//! Ticks are injected, never read from a wall clock, so evaluation is a
//! pure function of the sample stream. The two drivers:
//!
//! - **Live** ([`SharedSentinel`]): the fleet's scrape loop and the mesh
//!   coordinator's poll loop tick once per scrape, feeding dashboards via
//!   the pulse `/series` and `/alerts` endpoints. Wall-clock pacing makes
//!   *which tick sees which value* nondeterministic — this path never
//!   decides an exit code.
//! - **Replay** ([`Replay`]): one tick per completed job, in global job
//!   order, from each job's exact counters. Byte-identical across
//!   `--jobs N`, `--mesh N` and reruns; this is what writes `alerts.log`,
//!   names firing alerts in `postmortem.txt`, and sets the fleet's exit
//!   code. `qa-trace analyze slo` reruns the same replay offline from an
//!   `events.jsonl`.
//!
//! The crate depends only on `qa-obs` (registry, JSON, shared quantile
//! rule); scraping remote workers stays in the callers, which convert
//! `qa_pulse::parse_prometheus` scrapes into [`qa_obs::Metrics`] before
//! ingestion.

#![deny(missing_docs)]

pub mod engine;
pub mod replay;
pub mod rules;
pub mod store;

use std::sync::{Arc, Mutex, MutexGuard};

use qa_obs::Metrics;

pub use engine::{AlertEngine, AlertState, Transition};
pub use replay::Replay;
pub use rules::{parse_rules, AlertRule, Cmp, RuleKind};
pub use store::{Labels, SeriesKey, SeriesStore};

/// A store + engine pair behind one lock, shareable across threads — the
/// live sentinel a scrape loop feeds and a pulse server reads.
///
/// Cloning shares the underlying state (`Arc`).
#[derive(Clone, Debug)]
pub struct SharedSentinel {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Debug)]
struct Inner {
    store: SeriesStore,
    engine: AlertEngine,
    next_tick: u64,
}

impl SharedSentinel {
    /// Ring capacity of the live store (samples per series).
    pub const CAPACITY: usize = 512;

    /// Live sentinel evaluating `rules`.
    pub fn new(rules: Vec<AlertRule>) -> SharedSentinel {
        SharedSentinel {
            inner: Arc::new(Mutex::new(Inner {
                store: SeriesStore::new(Self::CAPACITY),
                engine: AlertEngine::new(rules),
                next_tick: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("sentinel lock poisoned")
    }

    /// Ingest one scrape of `metrics` under the next logical tick and
    /// evaluate every rule. `labels` are attached to every sample (empty
    /// for the in-process loop, `worker="wN"` in the coordinator).
    /// Returns the transitions taken.
    pub fn scrape(&self, metrics: &Metrics, prefix: &str, labels: &Labels) -> Vec<Transition> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.next_tick += 1;
        let tick = inner.next_tick;
        inner.store.observe_metrics(metrics, prefix, labels, tick);
        inner.engine.eval(&inner.store, tick)
    }

    /// Ingest samples for one scrape tick *without* evaluating — the mesh
    /// coordinator appends every worker's scrape first, then calls
    /// [`SharedSentinel::eval`] once, so rules see the whole fleet.
    /// Returns the tick used.
    pub fn ingest(&self, metrics: &Metrics, prefix: &str, labels: &Labels, tick: u64) -> u64 {
        let mut inner = self.lock();
        inner.next_tick = inner.next_tick.max(tick);
        inner.store.observe_metrics(metrics, prefix, labels, tick);
        tick
    }

    /// Evaluate every rule at `tick` (after one or more
    /// [`SharedSentinel::ingest`] calls). Returns the transitions taken.
    pub fn eval(&self, tick: u64) -> Vec<Transition> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.next_tick = inner.next_tick.max(tick);
        inner.engine.eval(&inner.store, tick)
    }

    /// Names of the alerts currently firing, in rule order.
    pub fn firing(&self) -> Vec<String> {
        self.lock()
            .engine
            .firing()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// The `/series` endpoint body (see [`SeriesStore::to_json`]).
    pub fn series_json(&self, name: Option<&str>, n: usize) -> String {
        self.lock().store.to_json(name, n)
    }

    /// The `/alerts` endpoint body (see [`AlertEngine::to_json`]).
    pub fn alerts_json(&self) -> String {
        self.lock().engine.to_json()
    }

    /// The live transition log (wall-clock driven — ops-facing, not the
    /// deterministic artifact; that one comes from [`Replay`]).
    pub fn render_log(&self) -> String {
        self.lock().engine.render_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_obs::Counter;

    #[test]
    fn shared_sentinel_scrapes_and_reports() {
        let rules = parse_rules("alert hot threshold qa_steps_total > 10 for 0\n").unwrap();
        let s = SharedSentinel::new(rules);
        let m = Metrics::new();
        m.count(Counter::Steps, 5);
        assert!(s.scrape(&m, "qa", &Vec::new()).is_empty());
        m.count(Counter::Steps, 20);
        let t = s.scrape(&m, "qa", &Vec::new());
        assert_eq!(t.len(), 2, "pending + firing");
        assert_eq!(s.firing(), vec!["hot".to_string()]);
        assert!(s.alerts_json().contains("\"state\":\"firing\""));
        assert!(s
            .series_json(Some("qa_steps_total"), 8)
            .contains("qa_steps_total"));
        assert!(s.render_log().contains("pending -> firing"));
    }

    #[test]
    fn ingest_then_eval_keeps_workers_apart() {
        // Rules read unlabeled series; per-worker samples live under their
        // own label sets, side by side in one store.
        let rules = parse_rules("alert gone absent qa_fleet_jobs_total for 1\n").unwrap();
        let s = SharedSentinel::new(rules);
        let m = Metrics::new();
        m.count(Counter::Steps, 100);
        let w0 = vec![("worker".to_string(), "w0".to_string())];
        let w1 = vec![("worker".to_string(), "w1".to_string())];
        s.ingest(&m, "qa_fleet", &w0, 1);
        s.ingest(&m, "qa_fleet", &w1, 1);
        // The unlabeled family was never fed: the absence rule goes
        // pending on the first eval.
        let t = s.eval(1);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].to, "pending");
        // Both workers' series exist side by side.
        let json = s.series_json(Some("qa_fleet_steps_total"), 4);
        assert!(json.contains("\"worker\":\"w0\""), "{json}");
        assert!(json.contains("\"worker\":\"w1\""), "{json}");
    }
}
