//! # qa-flight
//!
//! Always-on telemetry for batch workloads: the production layer on top of
//! [`qa_obs`]'s observer stream.
//!
//! [`qa_obs`] gives every engine a zero-cost event stream; this crate makes
//! that stream safe to leave on for fleets of runs:
//!
//! - [`FlightRecorder`] — a fixed-capacity ring retaining the *last* N
//!   events with drop accounting; its [`dump`](FlightRecorder::dump)
//!   renders a post-mortem (exact counters, most-repeated configuration,
//!   retained tail) on panic, watchdog abort, or demand. Memory is bounded
//!   no matter how long the run.
//! - [`Watchdog`] — wraps any observer and answers the engines'
//!   [`checkpoint`](qa_obs::Observer::checkpoint) polls, enforcing step /
//!   head-reversal / wall-clock [`Budget`]s. A tripped budget surfaces as
//!   `Error::RunAborted` from the run — a graceful unwind that leaves the
//!   wrapped recorder intact for the dump.
//! - [`OneInN`] / [`Reservoir`] / [`Sampled`] — deterministic sampling
//!   (seeded from [`qa_base::rng`], never ambient entropy): full fidelity
//!   on a reproducible subset of runs, counters-only elsewhere.
//! - [`SharedEvents`] — the bounded ring of wide [`JobEvent`]s (one per
//!   job, defined in [`qa_obs::event`] and re-exported here) that the
//!   pulse `/events` endpoint serves from.
//! - `qa-fleet` — the batch runner binary: M queries × K generated
//!   documents under watchdogs, merged metrics, latency/step percentiles,
//!   Prometheus and Perfetto exports, post-mortem dumps on failure.
//!
//! The crate adds nothing to unobserved runs: engines still monomorphize
//! [`qa_obs::NoopObserver`] hooks (checkpoints included) to nothing.

pub mod event;
pub mod recorder;
pub mod sampler;
pub mod watchdog;

pub use event::SharedEvents;
pub use qa_obs::event::{identity_projection, parse_events, JobEvent, VOLATILE_FIELDS};
pub use recorder::{with_postmortem, FlightEvent, FlightRecorder, SharedFlight, DEFAULT_CAPACITY};
pub use sampler::{OneInN, Reservoir, Sampled};
pub use watchdog::{Budget, Watchdog, DEFAULT_WALL_POLL};
