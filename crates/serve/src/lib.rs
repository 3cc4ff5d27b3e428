//! `qa-serve` — a resident query-serving daemon over the paper's query
//! automata.
//!
//! The rest of the workspace evaluates queries *batch-style*: load a
//! tree, compile a formula, run the Figure 6 two-pass algorithm once,
//! exit. This crate keeps everything resident and puts an HTTP API in
//! front of it:
//!
//! - [`DocStore`] holds parsed documents (arena trees under one shared
//!   alphabet) behind `PUT /doc`, with content fingerprints that make
//!   re-ingests idempotent;
//! - [`QueryCache`] compiles MSO formulas once per `(formula, σ)` and
//!   serves the compiled [`PreparedUnary`](qa_mso::PreparedUnary) to
//!   every subsequent `POST /query`;
//! - [`ServeDaemon`] wires both onto the pulse HTTP server, dispatches
//!   evaluations onto a resident [`WorkPool`](qa_par::WorkPool) under
//!   per-request [`Watchdog`](qa_flight::Watchdog) budgets, sheds with
//!   `429 Retry-After` past a configurable queue depth, and feeds every
//!   counter into the served metrics registry so
//!   [`qa_sentinel`] alerting works out of the box;
//! - [`run_soak`] is the deterministic load harness behind
//!   `qa-serve --soak`, gating correctness (served node sets equal the
//!   batch evaluation), shed behavior, and client-observed p99 latency.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod daemon;
pub mod soak;
pub mod store;

pub use cache::{CompiledQuery, QueryCache};
pub use daemon::{evaluate, Evaluation, ServeConfig, ServeDaemon, DEFAULT_SLO_RULES};
pub use soak::{run_soak, soak_corpus, SoakConfig, SoakReport, SOAK_FORMULAS};
pub use store::{DocStore, IngestReceipt, StoredDoc};
