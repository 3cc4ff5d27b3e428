//! # qa-twoway
//!
//! Two-way deterministic string automata and query automata on strings —
//! Section 3 of *Query Automata* (Neven & Schwentick):
//!
//! - [`TwoDfa`]: two-way deterministic finite automata over endmarked tapes
//!   `⊳ w ⊲` (Definition 3.1), with loop detection; a run records the
//!   `Assumed` set of every position as a bitset ([`AssumedSets`]).
//! - [`StringQa`]: query automata on strings — a 2DFA plus a selection
//!   function (Definition 3.2).
//! - [`Gsqa`]: generalized string query automata that output one symbol of an
//!   output alphabet Γ at every position (Definition 3.5); these compute the
//!   stay transitions of strong unranked query automata (Definition 5.11).
//! - [`behavior`]: the behavior functions `f←`, `first` and `Assumed` of the
//!   Theorem 3.9 proof, computed by the paper's local recurrences.
//! - [`shepherdson`]: exact 2DFA → one-way DFA conversion via extended
//!   behavior summaries (Shepherdson's construction).
//! - [`crossing`]: crossing-sequence NFA constructions — the language of a
//!   2DFA, and the *selection language* `{(w, i) | i ∈ M(w)}` of a string
//!   query automaton over a marked alphabet. These power the decision
//!   procedures of Section 6.
//! - [`hopcroft_ullman`]: Lemma 3.10 — composing a left-to-right and a
//!   right-to-left DFA into a single two-way machine ([`Bimachine`] is the
//!   declarative form, [`hopcroft_ullman::compose`] builds the actual GSQA).

pub mod assumed;
pub mod behavior;
pub mod cache;
pub mod crossing;
pub mod gsqa;
pub mod hopcroft_ullman;
pub mod shepherdson;
pub mod string_qa;
pub mod tape;
pub mod twodfa;

pub use assumed::AssumedSets;
pub use cache::CrossingCache;
pub use gsqa::Gsqa;
pub use hopcroft_ullman::Bimachine;
pub use string_qa::StringQa;
pub use tape::Tape;
pub use twodfa::{Dir, RunRecord, TwoDfa, TwoDfaBuilder};

pub use qa_strings::StateId;
