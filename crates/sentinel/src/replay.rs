//! Deterministic job-order replay: the authoritative alert log.
//!
//! The live scrape loop runs on wall clock, so what it sees depends on
//! scheduling — fine for ops dashboards, useless for a reproducible exit
//! code. The replay path instead drives the sentinel with one logical tick
//! per completed job, in global job order, from each job's exact counters.
//! The same fleet seed therefore produces the same cumulative series, the
//! same rule verdicts and the same transition log whatever `--jobs` or
//! `--mesh` topology executed the batch — and `qa-trace analyze slo` can
//! reproduce the log offline from `events.jsonl` alone.

use std::collections::BTreeMap;

use qa_obs::JobEvent;

use crate::engine::{AlertEngine, Transition};
use crate::rules::AlertRule;
use crate::store::{SeriesKey, SeriesStore};

/// One replayed counter family: exposition-name suffix plus the
/// [`JobEvent`] field it accumulates.
type Family = (&'static str, fn(&JobEvent) -> u64);

/// The counter families a replay maintains, as `(suffix, extractor)`.
/// Family names match the live exposition (`<prefix>_<suffix>`), so one
/// rules file works against both the scrape loop and the replay.
const FAMILIES: [Family; 6] = [
    ("jobs_total", |_| 1),
    ("steps_total", |s| s.steps),
    ("head_reversals_total", |s| s.reversals),
    ("cache_hits_total", |s| s.cache_hits),
    ("cache_misses_total", |s| s.cache_misses),
    ("budget_trips_total", |s| s.budget_trips),
];

/// Replays a job stream through a [`SeriesStore`] + [`AlertEngine`] pair,
/// one logical tick per job.
#[derive(Debug)]
pub struct Replay {
    store: SeriesStore,
    engine: AlertEngine,
    totals: BTreeMap<String, u64>,
    prefix: String,
    tick: u64,
}

impl Replay {
    /// Ring capacity of the replay store: enough for any sane slow window.
    pub const CAPACITY: usize = 256;

    /// Replay evaluating `rules`, emitting series under `prefix`
    /// (`qa_fleet` in the fleet binary).
    pub fn new(rules: Vec<AlertRule>, prefix: &str) -> Replay {
        let totals = FAMILIES
            .iter()
            .map(|(suffix, _)| (format!("{prefix}_{suffix}"), 0u64))
            .collect();
        Replay {
            store: SeriesStore::new(Self::CAPACITY),
            engine: AlertEngine::new(rules),
            totals,
            prefix: prefix.to_string(),
            tick: 0,
        }
    }

    /// Account one completed job (tick `n` for the `n`-th call) and
    /// evaluate every rule. Returns the transitions taken this tick.
    pub fn observe_job(&mut self, event: &JobEvent) -> Vec<Transition> {
        self.tick += 1;
        // Accumulate, then append every family so absence rules see a
        // fresh sample per tick.
        for (suffix, extract) in FAMILIES {
            let name = format!("{}_{suffix}", self.prefix);
            let total = self.totals.get_mut(&name).expect("family initialized");
            *total += extract(event);
            let v = *total as f64;
            self.store.append(SeriesKey::new(&name, []), self.tick, v);
        }
        self.engine.eval(&self.store, self.tick)
    }

    /// Ticks replayed so far (= jobs observed).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The engine, for log rendering and firing queries.
    pub fn engine(&self) -> &AlertEngine {
        &self.engine
    }

    /// The store, for series inspection.
    pub fn store(&self) -> &SeriesStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::parse_rules;

    fn clean_job() -> JobEvent {
        JobEvent {
            steps: 100,
            reversals: 3,
            cache_hits: 5,
            cache_misses: 2,
            budget_trips: 0,
            ..JobEvent::default()
        }
    }

    fn tripped_job() -> JobEvent {
        JobEvent {
            budget_trips: 1,
            ..clean_job()
        }
    }

    const BURN_RULE: &str = "alert error-budget-burn burnrate \
        qa_fleet_budget_trips_total / qa_fleet_jobs_total \
        objective 0.001 fast 5 slow 60 for 2\n";

    #[test]
    fn clean_stream_never_alerts() {
        let mut r = Replay::new(parse_rules(BURN_RULE).unwrap(), "qa_fleet");
        for _ in 0..100 {
            assert!(r.observe_job(&clean_job()).is_empty());
        }
        assert!(r.engine().firing().is_empty());
        assert_eq!(r.tick(), 100);
    }

    #[test]
    fn tripped_stream_fires_and_recovery_resolves() {
        let mut r = Replay::new(parse_rules(BURN_RULE).unwrap(), "qa_fleet");
        for _ in 0..10 {
            r.observe_job(&clean_job());
        }
        // A run of budget trips: every job burns 1000x the 0.1% objective.
        let mut fired = false;
        for _ in 0..10 {
            let t = r.observe_job(&tripped_job());
            fired |= t.iter().any(|t| t.to == "firing");
        }
        assert!(fired, "burn rate must fire during the trip streak");
        assert_eq!(r.engine().firing(), vec!["error-budget-burn"]);
        // Recovery: trips stop; once the fast window is clean the alert
        // resolves (the slow window alone cannot hold it firing).
        let mut resolved = false;
        for _ in 0..10 {
            let t = r.observe_job(&clean_job());
            resolved |= t.iter().any(|t| t.from == "firing" && t.to == "inactive");
        }
        assert!(resolved, "alert must resolve after recovery");
        assert!(r.engine().firing().is_empty());
    }

    #[test]
    fn replay_is_deterministic_per_stream() {
        let stream: Vec<JobEvent> = (0..50)
            .map(|i| {
                if i % 7 == 0 {
                    tripped_job()
                } else {
                    clean_job()
                }
            })
            .collect();
        let run = || {
            let mut r = Replay::new(parse_rules(BURN_RULE).unwrap(), "qa_fleet");
            for s in &stream {
                r.observe_job(s);
            }
            r.engine().render_log()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn families_cover_the_replayable_counters() {
        let mut r = Replay::new(Vec::new(), "qa_fleet");
        r.observe_job(&clean_job());
        r.observe_job(&clean_job());
        let key = |n: &str| SeriesKey::new(n, []);
        let s = r.store();
        assert_eq!(s.latest(&key("qa_fleet_jobs_total")), Some((2, 2.0)));
        assert_eq!(s.latest(&key("qa_fleet_steps_total")), Some((2, 200.0)));
        assert_eq!(s.latest(&key("qa_fleet_cache_hits_total")), Some((2, 10.0)));
        assert_eq!(
            s.latest(&key("qa_fleet_budget_trips_total")),
            Some((2, 0.0))
        );
    }
}
