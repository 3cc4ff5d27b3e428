//! Automata on ranked trees (Sections 2.3 and 4 of the paper).

pub mod dbta;
pub mod ops;
pub mod query;
pub mod twoway;

pub use dbta::{Dbta, Nbta, Tuples};
pub use query::RankedQa;
pub use twoway::{RankedRunRecord, TwoWayRanked, TwoWayRankedBuilder};
