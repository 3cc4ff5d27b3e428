//! # qa-mso
//!
//! Monadic second-order logic over strings, ranked trees and unranked trees,
//! with the compilation pipelines behind the paper's expressiveness results:
//!
//! - [`ast`] / [`parser`]: MSO formulas (first-order and set variables,
//!   label/edge/order/membership atoms, derived predicates) with a text
//!   syntax.
//! - [`naive`]: direct model-checking semantics (exponential in set
//!   quantifiers) — the ground truth every compilation is property-tested
//!   against.
//! - [`compile`]: the one MSO compiler behind Büchi's construction
//!   (Theorem 2.5) and Doner/Thatcher–Wright's (Theorem 2.8) — formulas to
//!   automata over the bit-extended alphabet `Σ × {0,1}ᵏ`, with
//!   minimization after every operation, generic over the automaton family.
//! - [`compile_string`]: the string family (DFAs; successor and `<`).
//! - [`compile_ranked`]: the ranked-tree family (DBTAs for trees of a fixed
//!   rank; `edge`, sibling `<` and the encoding atoms).
//! - [`unranked`]: unranked MSO via the first-child/next-sibling encoding —
//!   atoms are translated to the binary encoding (Theorem 5.4's
//!   expressiveness, realized constructively).
//! - [`query_eval`]: unary queries `φ(x)`: the naive per-node strategy and
//!   the **two-pass algorithm of Figures 5/6** (bottom-up states, top-down
//!   contexts) computing all selected nodes in one pass each way.
//! - [`to_qa`]: Theorem 3.9, constructive direction — a unary string query
//!   compiled into a literal [`qa_twoway::StringQa`] via the
//!   Hopcroft–Ullman composition (Lemma 3.10).

pub mod ast;
pub mod compile;
pub mod compile_ranked;
pub mod compile_string;
pub mod naive;
pub mod parser;
pub mod query_eval;
pub mod to_qa;
pub mod unranked;

pub use ast::{Formula, Var};
pub use parser::parse;
pub use query_eval::PreparedUnary;
