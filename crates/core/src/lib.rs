//! # qa-core
//!
//! The primary contribution of *Query Automata* (Neven & Schwentick,
//! PODS 1999): query automata over ranked and unranked trees.
//!
//! ## Ranked trees (Section 4)
//!
//! - [`ranked::Dbta`] / [`ranked::Nbta`]: deterministic and nondeterministic
//!   bottom-up ranked tree automata (Definition 2.6) with boolean
//!   operations, determinization and emptiness.
//! - [`ranked::TwoWayRanked`]: two-way deterministic ranked tree automata
//!   (Definition 4.1, after Moriya) with the faithful *cut* configuration
//!   semantics, up/down/leaf/root transitions and confluent runs.
//! - [`ranked::RankedQa`]: ranked query automata (Definition 4.3) — a
//!   two-way automaton plus a selection function; Examples 4.2/4.4 (Boolean
//!   circuits) ship as constructors.
//!
//! ## Unranked trees (Section 5)
//!
//! - [`unranked::Nbtau`] / [`unranked::Dbtau`]: bottom-up unranked tree
//!   automata whose transitions `δ(q, a)` are regular string languages over
//!   states (Definition 5.1), with the PTIME emptiness check of Lemma 5.2.
//! - [`unranked::TwoWayUnranked`]: two-way deterministic unranked tree
//!   automata (Definition 5.7) with slender (`x y* z`) down-transition
//!   languages and regular up-transition languages.
//! - [`unranked::StayRule`] / [`unranked::StrongQa`]: stay transitions
//!   computed by generalized string query automata, and strong query
//!   automata (Definitions 5.11–5.13); plain [`unranked::UnrankedQa`]
//!   remains available to exhibit the Proposition 5.10 weakness.

#![deny(missing_docs)]

mod cut;
pub mod ranked;
pub mod unranked;

pub use qa_strings::StateId;
pub use qa_trees::{NodeId, Tree};
