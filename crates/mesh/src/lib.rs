//! # qa-mesh
//!
//! The mesh coordinator: shard a fleet's job grid over N worker
//! *processes* and federate their telemetry back into one coherent,
//! deterministic observability surface.
//!
//! `qa-par` scaled a fleet across threads; `qa-pulse` gave one process a
//! live ops surface. This crate is the next rung: the coordinator spawns
//! `qa-fleet --serve` workers on loopback, deals jobs round-robin
//! ([`ShardPlan`]), tracks per-job progress over a tiny stdout protocol,
//! polls each worker's `/healthz`/`/readyz` into liveness [`Timeline`]s,
//! and — once a worker reports completion — scrapes its `/metrics`,
//! `/flight`, `/profile` and `/events` endpoints ([`run_mesh`]).
//!
//! Federation rests on one algebraic fact the workspace has been
//! defending since `qa-par`: [`qa_obs::Metrics::merge`] is commutative
//! and associative. Parsing each worker's scrape back into a registry
//! (`qa_pulse::parse_prometheus`) and merging ([`federate_metrics`])
//! therefore yields output **byte-identical across shard counts** — a
//! 1-worker and a 4-worker mesh over the same corpus render the same
//! `metrics.prom`. Wide events extend the invariant per job: the workers'
//! parsed `/events` tails merge in global job order ([`federate_events`]), so
//! the deterministic fields of the federated `events.jsonl` are also
//! byte-identical across shard counts, and the same inputs assemble into
//! one Chrome trace-event fleet timeline ([`federate_trace`]) with a
//! named process per worker. Profiles and flight dumps federate with
//! worker attribution instead ([`federate_profile`],
//! [`federate_flight`]): every frame and event names the process it came
//! from.
//!
//! Chaos is a first-class input, not an afterthought: a worker that dies
//! mid-batch is reported with its exact in-flight jobs, its shard is
//! reassigned to a fresh worker, and — because workers are only scraped
//! *after* they report completion — the federated metrics remain
//! exactly-once. The run is still marked degraded; see
//! [`coordinator`] for the full discipline.

#![deny(missing_docs)]

pub mod coordinator;
pub mod federate;
pub mod plan;
pub mod timeline;

pub use coordinator::{run_mesh, MeshOptions, MeshOutcome, WorkerReport, WorkerScrape};
pub use federate::{
    federate_events, federate_flight, federate_metrics, federate_profile, federate_trace,
};
pub use plan::ShardPlan;
pub use timeline::{Health, Timeline};
