//! [`SharedEvents`]: the bounded ring of recent [`JobEvent`]s.
//!
//! The event itself — its fields, its JSONL rendering and its parser —
//! lives in [`qa_obs::event`]; this module only keeps a live tail of
//! finished jobs for the pulse `/events` endpoint.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use qa_obs::JobEvent;

/// A bounded, shareable ring of recent [`JobEvent`]s — the store behind the
/// pulse `/events` endpoint.
///
/// Cloning shares the ring (`Arc`); the fleet pushes an event as each job
/// finishes (completion order — a live tail, not the deterministic file
/// order) and the serve thread reads the tail concurrently.
#[derive(Clone, Debug)]
pub struct SharedEvents {
    ring: Arc<Mutex<Inner>>,
}

#[derive(Debug)]
struct Inner {
    events: VecDeque<JobEvent>,
    cap: usize,
    dropped: u64,
}

impl SharedEvents {
    /// Ring retaining at most `cap` events (`cap ≥ 1`).
    pub fn with_capacity(cap: usize) -> SharedEvents {
        assert!(cap >= 1, "event ring needs capacity >= 1");
        SharedEvents {
            ring: Arc::new(Mutex::new(Inner {
                events: VecDeque::with_capacity(cap.min(4096)),
                cap,
                dropped: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.ring.lock().expect("event ring lock poisoned")
    }

    /// Append one finished job's event, evicting the oldest past capacity.
    pub fn push(&self, event: JobEvent) {
        let mut inner = self.lock();
        if inner.events.len() == inner.cap {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// Events evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Every retained event, sorted by global job index: the
    /// deterministic `events.jsonl` order, whatever order the jobs
    /// finished in.
    pub fn sorted_by_job(&self) -> Vec<JobEvent> {
        let mut events: Vec<JobEvent> = self.lock().events.iter().cloned().collect();
        events.sort_by_key(|e| e.job);
        events
    }

    /// Render the most recent `n` events as JSONL, oldest first — the
    /// `/events?n=K` body. `n` beyond the retained count means everything.
    pub fn tail_jsonl(&self, n: usize) -> String {
        let inner = self.lock();
        let skip = inner.events.len().saturating_sub(n);
        let mut out = String::new();
        for ev in inner.events.iter().skip(skip) {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_obs::parse_events;

    fn sample_event(job: usize) -> JobEvent {
        JobEvent {
            job,
            ..JobEvent::default()
        }
    }

    #[test]
    fn ring_keeps_the_tail_and_counts_drops() {
        let ring = SharedEvents::with_capacity(3);
        for job in 0..5 {
            ring.push(sample_event(job));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let tail = ring.tail_jsonl(2);
        let events = parse_events(&tail).unwrap();
        assert_eq!(
            events.iter().map(|e| e.job).collect::<Vec<_>>(),
            vec![3, 4],
            "tail is the most recent events, oldest first"
        );
        // n beyond the retained count returns everything retained.
        assert_eq!(parse_events(&ring.tail_jsonl(100)).unwrap().len(), 3);
        ring.push(sample_event(1));
        assert_eq!(
            ring.sorted_by_job()
                .iter()
                .map(|e| e.job)
                .collect::<Vec<_>>(),
            vec![1, 3, 4],
            "the sorted view is in job order, not completion order"
        );
    }
}
