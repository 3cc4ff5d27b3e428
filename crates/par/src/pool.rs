//! [`WorkPool`]: a *resident* work-stealing executor for serving daemons.
//!
//! [`par_batch_with`](crate::par_batch_with) is scoped: it spawns workers,
//! drains one batch, and joins — the right shape for `qa-fleet`, the wrong
//! one for a daemon that must answer requests for hours. `WorkPool` keeps
//! the same work-stealing discipline (per-worker deques, owner pops the
//! front, thieves steal the back) but makes the workers resident: jobs are
//! boxed closures submitted from any thread, and the pool drains them until
//! it is dropped.
//!
//! The pool deliberately exposes its backlog: [`WorkPool::queue_depth`] is
//! the number of submitted-but-not-yet-started jobs, which is exactly the
//! signal a serving daemon's admission control needs — when the backlog
//! exceeds the configured depth, shed the request with `429 Retry-After`
//! instead of queueing unbounded work behind a latency SLO.
//!
//! A panicking job is contained to that job: its worker catches the
//! unwind and moves on to the next job, so one bad request cannot shrink
//! the pool until nothing drains the backlog. Whatever the job owned is
//! dropped during the unwind — a reply channel's sender, say — which is
//! how its submitter learns the job was lost.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A unit of pool work: a boxed closure, run exactly once on some worker.
pub type PoolJob = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    /// One deque per worker; submissions round-robin across them, the
    /// owning worker pops the front, idle workers steal the back.
    queues: Vec<Mutex<VecDeque<PoolJob>>>,
    /// Jobs submitted but not yet picked up by any worker.
    depth: AtomicUsize,
    /// Round-robin cursor for submissions.
    next: AtomicUsize,
    /// Cleared when the pool is dropped; workers drain and exit.
    open: AtomicBool,
    /// Parking lot for idle workers.
    idle: Mutex<()>,
    wake: Condvar,
}

/// A resident work-stealing thread pool; see the module docs.
///
/// Dropping the pool closes the intake, drains every already-submitted
/// job, and joins the workers.
pub struct WorkPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkPool {
    /// Spawn a pool with `workers` resident threads (clamped to at least
    /// one), named `qa-pool-0`, `qa-pool-1`, ….
    pub fn new(workers: usize) -> WorkPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            depth: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            open: AtomicBool::new(true),
            idle: Mutex::new(()),
            wake: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qa-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkPool {
            shared,
            workers: handles,
        }
    }

    /// Number of resident workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs submitted but not yet started — the admission-control signal.
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::Acquire)
    }

    /// Queue `job` on the next deque in round-robin order. Returns `false`
    /// (dropping the job) if the pool is already closing.
    pub fn submit(&self, job: PoolJob) -> bool {
        if !self.shared.open.load(Ordering::Acquire) {
            return false;
        }
        let i = self.shared.next.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        self.shared.depth.fetch_add(1, Ordering::AcqRel);
        self.shared.queues[i]
            .lock()
            .expect("pool queue poisoned")
            .push_back(job);
        self.wake_one();
        true
    }

    fn wake_one(&self) {
        let _guard = self.shared.idle.lock().expect("pool idle lock poisoned");
        self.shared.wake.notify_one();
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        self.shared.open.store(false, Ordering::Release);
        {
            let _guard = self.shared.idle.lock().expect("pool idle lock poisoned");
            self.shared.wake.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, me: usize) {
    loop {
        // Own front first, then steal from the back of the others.
        let job = take_job(shared, me);
        match job {
            Some(job) => {
                shared.depth.fetch_sub(1, Ordering::AcqRel);
                // The panic already went to the panic hook; the worker
                // survives for the next job.
                let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
            }
            None => {
                if !shared.open.load(Ordering::Acquire) {
                    // Closing: exit only once every queue is drained.
                    if shared.depth.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    continue;
                }
                let guard = shared.idle.lock().expect("pool idle lock poisoned");
                // Re-check under the lock so a submit between our scan and
                // the park cannot strand its wake-up.
                if shared.depth.load(Ordering::Acquire) == 0 && shared.open.load(Ordering::Acquire)
                {
                    let _ = shared
                        .wake
                        .wait_timeout(guard, Duration::from_millis(50))
                        .expect("pool idle lock poisoned");
                }
            }
        }
    }
}

fn take_job(shared: &PoolShared, me: usize) -> Option<PoolJob> {
    let n = shared.queues.len();
    if let Some(job) = shared.queues[me]
        .lock()
        .expect("pool queue poisoned")
        .pop_front()
    {
        return Some(job);
    }
    for off in 1..n {
        let victim = (me + off) % n;
        if let Some(job) = shared.queues[victim]
            .lock()
            .expect("pool queue poisoned")
            .pop_back()
        {
            return Some(job);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    #[test]
    fn every_submitted_job_runs_exactly_once() {
        let pool = WorkPool::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..500 {
            let hits = Arc::clone(&hits);
            assert!(pool.submit(Box::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })));
        }
        drop(pool); // drains before joining
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn results_come_back_over_channels() {
        let pool = WorkPool::new(2);
        let (tx, rx) = mpsc::channel();
        for i in 0u64..64 {
            let tx = tx.clone();
            assert!(pool.submit(Box::new(move || tx.send(i * i).unwrap())));
        }
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        let want: Vec<u64> = (0..64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn queue_depth_drains_to_zero() {
        let pool = WorkPool::new(2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Arc::new(Mutex::new(gate_rx));
        for _ in 0..8 {
            let gate_rx = Arc::clone(&gate_rx);
            pool.submit(Box::new(move || {
                let _ = gate_rx.lock().unwrap().recv();
            }));
        }
        // Two workers hold two jobs; the rest sit queued.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.queue_depth() > 6 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(pool.queue_depth() >= 1, "backlog must be visible");
        for _ in 0..8 {
            gate_tx.send(()).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.queue_depth() > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let pool = WorkPool::new(1);
        let (lost_tx, lost_rx) = mpsc::channel::<()>();
        assert!(pool.submit(Box::new(move || {
            let _owned = lost_tx;
            panic!("job panics on purpose");
        })));
        let (tx, rx) = mpsc::channel();
        assert!(pool.submit(Box::new(move || tx.send(7u64).unwrap())));
        // The panicked job's sender is dropped unanswered...
        assert_eq!(
            lost_rx.recv_timeout(Duration::from_secs(5)),
            Err(mpsc::RecvTimeoutError::Disconnected)
        );
        // ...and the only worker still runs the job queued behind it.
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn stealing_spreads_one_hot_queue() {
        // One submitter, several workers: round-robin submission plus
        // stealing keeps every worker busy; all jobs complete.
        let pool = WorkPool::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..200 {
            let hits = Arc::clone(&hits);
            pool.submit(Box::new(move || {
                std::thread::sleep(Duration::from_micros(50));
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        drop(pool);
        assert_eq!(hits.load(Ordering::Relaxed), 200);
    }
}
