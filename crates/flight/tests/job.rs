//! The qa-fleet job function: its tally against a per-event registry, its
//! two instantiations (no extras, recording arms) against each other, and
//! budget trips under both.

use qa_base::Error;
use qa_flight::job::{self, Arms, Doc, Job, Workload};
use qa_flight::{Budget, SharedFlight};
use qa_obs::{Counter, Metrics, NoopObserver, Series};

/// Every roster entry on a few small seeded documents.
fn cases() -> Vec<(Workload, Doc)> {
    let mut out = Vec::new();
    for qi in 0..job::roster().len() {
        for (di, size) in [24, 48, 64].into_iter().enumerate() {
            let wl = job::roster().swap_remove(qi);
            let doc = job::generate_doc(wl.name, size, job::doc_seed(7, qi, di));
            out.push((wl, doc));
        }
    }
    out
}

fn unlimited() -> Budget {
    Budget::steps(job::DEFAULT_MAX_STEPS).with_wall(job::DEFAULT_MAX_WALL)
}

fn assert_same_counts(a: &Job, b: &Job, what: &str) {
    for c in Counter::ALL {
        assert_eq!(
            a.tally.get(c),
            b.tally.get(c),
            "{what}: counter {}",
            c.name()
        );
    }
    for s in Series::ALL {
        assert_eq!(
            a.tally.histogram(s),
            b.tally.histogram(s),
            "{what}: {}",
            s.name()
        );
    }
}

/// The job's tally holds what a `Metrics` registry fed every event of the
/// same run through `Metrics::observer()` holds, plus the one job count
/// qa-fleet adds per run; the fleet registry it folds into agrees too.
#[test]
fn the_tally_equals_a_registry_fed_per_event() {
    let mut recorded_series = 0;
    for (wl, doc) in cases() {
        let what = format!("{} on {} nodes", wl.name, doc.len());
        let reference = Metrics::new();
        let fleet = Metrics::new();
        let (done, _) = job::run(&wl, &doc, unlimited(), reference.observer(), &fleet);
        assert!(done.selected.is_ok(), "{what}: {:?}", done.selected);
        reference.count(Counter::Jobs, 1);
        assert!(done.tally.get(Counter::Steps) > 0, "{what}: no steps");
        for c in Counter::ALL {
            assert_eq!(done.tally.get(c), reference.get(c), "{what}: {}", c.name());
            assert_eq!(fleet.get(c), reference.get(c), "{what}: fleet {}", c.name());
        }
        for s in Series::ALL {
            let want = reference.histogram(s);
            assert_eq!(done.tally.histogram(s), &want, "{what}: {}", s.name());
            assert_eq!(fleet.histogram(s), want, "{what}: fleet {}", s.name());
            recorded_series += usize::from(want.count > 0);
        }
    }
    assert!(recorded_series > 0, "no run recorded any series sample");
}

/// The no-extras instantiation and the one with every arm recording select
/// the same, count the same and leave the same flight-recorder contents;
/// only the recording one returns a trace and a scope profile.
#[test]
fn both_instantiations_agree() {
    let live = SharedFlight::with_capacity(64);
    for (wl, doc) in cases() {
        let what = format!("{} on {} nodes", wl.name, doc.len());
        let (fleet_bare, fleet_armed) = (Metrics::new(), Metrics::new());
        let (bare, none) = Arms::default().run(&wl, &doc, unlimited(), &fleet_bare);
        let arms = Arms {
            trace: true,
            scope: true,
            live: Some(&live),
        };
        let (armed, recorded) = arms.run(&wl, &doc, unlimited(), &fleet_armed);
        assert_eq!(bare.selected, armed.selected, "{what}");
        assert_same_counts(&bare, &armed, &what);
        assert_eq!(bare.recorder.dump(), armed.recorder.dump(), "{what}");
        assert_eq!(bare.postmortem(wl.name), None, "{what}");
        assert_eq!(fleet_bare.to_json(), fleet_armed.to_json(), "{what}");
        assert!(none.trace.is_none() && none.scope.is_none(), "{what}");
        let trace = recorded.trace.expect("the trace arm records");
        assert_eq!(
            trace.counter(Counter::Steps),
            bare.tally.get(Counter::Steps)
        );
        assert!(recorded.scope.is_some(), "{what}: the scope arm records");
    }
    assert!(live.with(|r| !r.is_empty()), "the live arm fed the ring");
}

/// A step budget of half the job's steps trips at the same step under
/// both instantiations; the job counts one budget trip and one job, and
/// returns its dump.
#[test]
fn a_budget_trips_at_the_same_step_in_both_instantiations() {
    for (wl, doc) in cases() {
        let what = format!("{} on {} nodes", wl.name, doc.len());
        let (full, _) = job::run(&wl, &doc, unlimited(), NoopObserver, &Metrics::new());
        let max_steps = full.tally.get(Counter::Steps) / 2;
        let budget = Budget::steps(max_steps);
        let fleet = Metrics::new();
        let (bare, NoopObserver) = job::run(&wl, &doc, budget, NoopObserver, &fleet);
        let arms = Arms {
            trace: true,
            scope: true,
            live: None,
        };
        let (armed, _) = arms.run(&wl, &doc, budget, &fleet);
        for tripped in [&bare, &armed] {
            match &tripped.selected {
                Err(Error::RunAborted {
                    what: "steps",
                    limit,
                    actual,
                }) => assert_eq!((*limit, *actual), (max_steps, max_steps + 1), "{what}"),
                other => panic!("{what}: expected a step-budget trip, got {other:?}"),
            }
            assert_eq!(tripped.tally.get(Counter::Steps), max_steps + 1, "{what}");
            assert_eq!(tripped.tally.get(Counter::BudgetTrips), 1, "{what}");
            assert_eq!(tripped.tally.get(Counter::Jobs), 1, "{what}");
            let dump = tripped
                .postmortem(wl.name)
                .expect("a failed job has a dump");
            assert!(
                dump.starts_with(&format!("workload: {}\n", wl.name)),
                "{dump}"
            );
            assert!(dump.contains("=== flight recorder dump ==="), "{dump}");
        }
        assert_same_counts(&bare, &armed, &what);
        assert_eq!(
            bare.postmortem(wl.name),
            armed.postmortem(wl.name),
            "{what}"
        );
        assert_eq!(fleet.get(Counter::BudgetTrips), 2, "{what}");
        assert_eq!(fleet.get(Counter::Jobs), 2, "{what}");
    }
}
