//! Behavior functions `f←`, `first` and `Assumed` (Theorem 3.9).
//!
//! The proof of Theorem 3.9 shows that a two-way run is fully determined by
//! *local* data: for every prefix `⊳ w₁…wᵢ`, the behavior function
//! `f←` (where does the machine re-emerge when it dives left?), the state
//! `first(w, i)` in which position `i` is first reached, and — fixed
//! right-to-left afterwards — the set `Assumed(w, i)` of all states the run
//! ever assumes at `i`. This module computes those objects by the paper's
//! recurrences (items 1–4 in the proof), *without* replaying the two-way
//! run. Agreement with the literal run engine is property-tested; the same
//! summaries power the Shepherdson conversion and the Section 6 decision
//! procedures.

use std::rc::Rc;

use qa_base::{Error, Result, Symbol};
use qa_obs::{Counter, Machine, NoopObserver, Observer, Series};
use qa_strings::StateId;

use crate::cache::CrossingCache;
use crate::tape::Tape;
use crate::twodfa::{Dir, TwoDfa};

/// What happens when the machine stands at a position `i` in a given state,
/// before it ever crosses from `i` to `i + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// It eventually makes a right move at `i`, arriving at `i + 1` in the
    /// given state.
    Exits(StateId),
    /// It halts (no applicable transition) in the given state, at `i` or
    /// strictly left of it. Outcomes are deliberately position-free so that
    /// behavior columns depend only on the cell content and the column to
    /// their left — the property that makes them hash-consable in a
    /// [`CrossingCache`]. The absolute halt position of the *start run* is
    /// recovered separately; see [`BehaviorAnalysis::halt`].
    Halts(StateId),
    /// It loops forever within `[0, i]`.
    Loops,
}

/// One *crossing-behavior column*: the per-state outcomes and excursion
/// state sets at a single tape position. By the Theorem 3.9 recurrences a
/// column is a pure function of the cell's content and the column one cell
/// to the left — which is exactly what makes columns hash-consable in a
/// [`CrossingCache`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Column {
    /// `exit[s]`: outcome of standing at this position in state `s`.
    pub(crate) exit: Vec<Outcome>,
    /// `states[s]`: the states assumed here between arriving in `s` and
    /// exiting right / halting / looping — the paper's `States(f←, s)`.
    pub(crate) states: Vec<Vec<StateId>>,
}

/// Per-position behavior summaries of a 2DFA on one input word.
#[derive(Clone, Debug)]
pub struct BehaviorAnalysis {
    /// `chain[i]`: the crossing-behavior column at tape position `i`
    /// (shared with a [`CrossingCache`] when computed by
    /// [`BehaviorAnalysis::analyze_cached`]).
    chain: Vec<Rc<Column>>,
    /// `first[i]`: the state in which `i` is first reached by the start run,
    /// if it is reached at all.
    pub first: Vec<Option<StateId>>,
    /// Overall outcome of the run.
    pub outcome: Outcome,
    /// `Assumed(w, i)` for every tape position; empty sets when the run does
    /// not halt.
    pub assumed: Vec<Vec<StateId>>,
    /// Absolute tape position of the start run's halt, when it halts.
    halt_pos: Option<usize>,
    num_states: usize,
}

/// Compute one column from the cell content and the column to its left —
/// the items 1–2 recurrence of the Theorem 3.9 proof.
pub(crate) fn compute_column<O: Observer>(
    machine: &TwoDfa,
    cell: Tape,
    prev: Option<&Column>,
    obs: &mut O,
) -> Column {
    let states = machine.num_states();
    let mut exit = vec![Outcome::Loops; states];
    let mut statess: Vec<Vec<StateId>> = vec![Vec::new(); states];
    for s in 0..states {
        let start = StateId::from_index(s);
        let mut cur = start;
        let mut visited = vec![false; states];
        let mut seq = Vec::new();
        let outcome = loop {
            if visited[cur.index()] {
                break Outcome::Loops;
            }
            visited[cur.index()] = true;
            seq.push(cur);
            obs.count(Counter::TableLookups, 1);
            obs.state_visit(Machine::Crossing, cur.index() as u32, cell.encode() as u32);
            match machine.action(cur, cell) {
                None => break Outcome::Halts(cur),
                Some((Dir::Right, s2)) => {
                    obs.transition_fired(
                        Machine::Crossing,
                        cur.index() as u32,
                        cell.encode() as u32,
                        s2.index() as u32,
                    );
                    break Outcome::Exits(s2);
                }
                Some((Dir::Left, s1)) => {
                    obs.transition_fired(
                        Machine::Crossing,
                        cur.index() as u32,
                        cell.encode() as u32,
                        s1.index() as u32,
                    );
                    let prev = prev.expect("left move at ⊳ rejected by builder");
                    // Consult the already-computed summary one cell left.
                    match prev.exit[s1.index()] {
                        Outcome::Exits(s2) => cur = s2,
                        other => break other,
                    }
                }
            }
        };
        exit[s] = outcome;
        statess[s] = seq;
    }
    Column {
        exit,
        states: statess,
    }
}

impl BehaviorAnalysis {
    /// Compute all summaries for `machine` on `word` using the recurrences of
    /// Theorem 3.9 (left-to-right for `f←`/`first`, right-to-left for
    /// `Assumed`).
    pub fn analyze(machine: &TwoDfa, word: &[Symbol]) -> BehaviorAnalysis {
        Self::analyze_with(machine, word, &mut NoopObserver)
    }

    /// [`BehaviorAnalysis::analyze`] with an [`Observer`]: table lookups of
    /// the chain recurrences and the sizes of the resulting `Assumed` sets
    /// are reported to `obs`. With [`NoopObserver`] this monomorphizes to
    /// exactly `analyze`.
    pub fn analyze_with<O: Observer>(
        machine: &TwoDfa,
        word: &[Symbol],
        obs: &mut O,
    ) -> BehaviorAnalysis {
        let tape_len = word.len() + 2;
        let mut chain: Vec<Rc<Column>> = Vec::with_capacity(tape_len);
        for i in 0..tape_len {
            let cell = Tape::at(word, i);
            let prev = chain.last().map(Rc::as_ref);
            chain.push(Rc::new(compute_column(machine, cell, prev, obs)));
        }
        Self::finish(machine, word, chain, obs)
    }

    /// [`BehaviorAnalysis::analyze_with`] with crossing-behavior columns
    /// hash-consed in `cache`: a column whose `(cell, left column)` pair has
    /// been seen before — on this word or any earlier word analyzed through
    /// the same cache — is reused instead of recomputed. Reports
    /// [`Counter::CacheHits`] / [`Counter::CacheMisses`] to `obs`; results
    /// are identical to `analyze_with`.
    pub fn analyze_cached<O: Observer>(
        machine: &TwoDfa,
        word: &[Symbol],
        cache: &mut CrossingCache,
        obs: &mut O,
    ) -> BehaviorAnalysis {
        let tape_len = word.len() + 2;
        let mut chain: Vec<Rc<Column>> = Vec::with_capacity(tape_len);
        let mut prev_id: Option<u32> = None;
        cache.ensure_machine(machine);
        for i in 0..tape_len {
            let cell = Tape::at(word, i);
            let (id, col) = cache.column(machine, cell, prev_id, obs);
            chain.push(col);
            prev_id = Some(id);
        }
        Self::finish(machine, word, chain, obs)
    }

    /// Shared tail of `analyze_with`/`analyze_cached`: derive `first`, the
    /// overall outcome (with its absolute halt position), and the `Assumed`
    /// sets from the column chain.
    fn finish<O: Observer>(
        machine: &TwoDfa,
        word: &[Symbol],
        chain: Vec<Rc<Column>>,
        obs: &mut O,
    ) -> BehaviorAnalysis {
        let tape_len = word.len() + 2;

        // first[i] via the left-to-right chain of exits.
        let mut first: Vec<Option<StateId>> = vec![None; tape_len];
        first[0] = Some(machine.initial());
        let mut outcome = Outcome::Loops;
        for i in 0..tape_len {
            let Some(f) = first[i] else { break };
            match chain[i].exit[f.index()] {
                Outcome::Exits(s2) => {
                    if i + 1 < tape_len {
                        first[i + 1] = Some(s2);
                    } else {
                        unreachable!("right move from ⊲ rejected by builder");
                    }
                }
                other => {
                    outcome = other;
                    break;
                }
            }
        }

        // Columns are position-free, so when the run halts we recover the
        // absolute halt position once by replaying the final (rightmost)
        // excursion through the already-computed columns.
        let halt_pos = matches!(outcome, Outcome::Halts(_))
            .then(|| Self::locate_halt(machine, word, &chain, &first));

        // Assumed sets, right-to-left (paper items 3 and 4). Only meaningful
        // when the run halts. Dedup goes through a reusable bitset so each
        // insertion is O(1) instead of a linear scan of the set built so
        // far; insertion order (and therefore the output) is unchanged.
        let mut assumed: Vec<Vec<StateId>> = vec![Vec::new(); tape_len];
        if matches!(outcome, Outcome::Halts(_)) {
            fn insert_once(mask: &mut [u64], set: &mut Vec<StateId>, s: StateId) {
                let idx = s.index();
                let bit = 1u64 << (idx % 64);
                if mask[idx / 64] & bit == 0 {
                    mask[idx / 64] |= bit;
                    set.push(s);
                }
            }
            // Highest position the start run reaches.
            let top = (0..tape_len).rev().find(|&i| first[i].is_some()).unwrap();
            assumed[top] = chain[top].states[first[top].unwrap().index()].clone();
            let mut mask = vec![0u64; machine.num_states().div_ceil(64)];
            for i in (0..top).rev() {
                mask.fill(0);
                let mut set = Vec::new();
                for &s in &chain[i].states[first[i].unwrap().index()] {
                    insert_once(&mut mask, &mut set, s);
                }
                let cell_right = Tape::at(word, i + 1);
                for &s_up in &assumed[i + 1] {
                    if let Some((Dir::Left, s1)) = machine.action(s_up, cell_right) {
                        for &s in &chain[i].states[s1.index()] {
                            insert_once(&mut mask, &mut set, s);
                        }
                    }
                }
                assumed[i] = set;
            }
        }
        if obs.is_enabled() {
            for set in &assumed {
                obs.record(Series::AssumedStates, set.len() as u64);
            }
        }

        BehaviorAnalysis {
            chain,
            first,
            outcome,
            assumed,
            halt_pos,
            num_states: machine.num_states(),
        }
    }

    /// Replay the halting tail of the start run over the columns to find the
    /// absolute halt position. Starts at the highest position the start run
    /// reaches and only consults summaries the actual run consults, so it
    /// terminates in `O(tape length × states)` steps. Only called when the
    /// overall outcome is `Halts`.
    fn locate_halt(
        machine: &TwoDfa,
        word: &[Symbol],
        chain: &[Rc<Column>],
        first: &[Option<StateId>],
    ) -> usize {
        let tape_len = word.len() + 2;
        let mut i = (0..tape_len).rev().find(|&j| first[j].is_some()).unwrap();
        let mut cur = first[i].unwrap();
        loop {
            match machine.action(cur, Tape::at(word, i)) {
                None => return i,
                Some((Dir::Right, _)) => {
                    unreachable!("right move inside a halting excursion")
                }
                Some((Dir::Left, s1)) => match chain[i - 1].exit[s1.index()] {
                    Outcome::Exits(s2) => cur = s2,
                    Outcome::Halts(_) => {
                        i -= 1;
                        cur = s1;
                    }
                    Outcome::Loops => unreachable!("loop inside a halting excursion"),
                },
            }
        }
    }

    /// The paper's behavior function `f←` for the prefix ending at tape
    /// position `i`: `Some(s)` for right-moving states, the first return
    /// state for left-moving ones, `None` when the excursion never returns.
    pub fn paper_f(
        &self,
        machine: &TwoDfa,
        word: &[Symbol],
        i: usize,
        s: StateId,
    ) -> Option<StateId> {
        match machine.action(s, Tape::at(word, i)) {
            Some((Dir::Right, _)) => Some(s),
            Some((Dir::Left, s1)) => match self.chain[i - 1].exit[s1.index()] {
                Outcome::Exits(s2) => Some(s2),
                _ => None,
            },
            None => None,
        }
    }

    /// Outcome of standing at tape position `i` in state `s`.
    pub fn chain_exit(&self, i: usize, s: StateId) -> Outcome {
        self.chain[i].exit[s.index()]
    }

    /// `States(f←, s)` at position `i`: the states assumed at `i` from an
    /// entry in state `s` until the next right-crossing (or halt/loop).
    pub fn chain_states(&self, i: usize, s: StateId) -> &[StateId] {
        &self.chain[i].states[s.index()]
    }

    /// Whether the run halts and accepts.
    pub fn accepted(&self, machine: &TwoDfa) -> bool {
        matches!(self.outcome, Outcome::Halts(h) if machine.is_final(h))
    }

    /// The halting configuration `(state, tape position)` of the start run.
    ///
    /// Errors instead of panicking when the run never halts, so callers
    /// probing arbitrary machines (equivalence tooling, the trace CLI) can
    /// surface the diagnosis to the user.
    pub fn halt(&self) -> Result<(StateId, usize)> {
        match self.outcome {
            Outcome::Halts(s) => Ok((
                s,
                self.halt_pos
                    .expect("halt position computed for halting runs"),
            )),
            Outcome::Loops => Err(Error::stuck(
                "two-way run never halts: it loops inside the tape",
            )),
            Outcome::Exits(_) => Err(Error::ill_formed(
                "behavior outcome",
                "start run exits past the right endmarker",
            )),
        }
    }

    /// Number of machine states (for table sizing by callers).
    pub fn num_states(&self) -> usize {
        self.num_states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twodfa::TwoDfaBuilder;

    fn sym(i: usize) -> Symbol {
        Symbol::from_index(i)
    }

    /// Example 3.4 machine (walk right, come back alternating s1/s2).
    fn example_3_4() -> TwoDfa {
        let mut b = TwoDfaBuilder::new(2);
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        b.set_initial(s0);
        b.set_final(s1, true);
        b.set_final(s2, true);
        b.set_action(s0, Tape::LeftMarker, Dir::Right, s0);
        b.set_action_all_symbols(s0, Dir::Right, s0);
        b.set_action(s0, Tape::RightMarker, Dir::Left, s1);
        b.set_action_all_symbols(s1, Dir::Left, s2);
        b.set_action_all_symbols(s2, Dir::Left, s1);
        b.build().unwrap()
    }

    /// A zig-zag machine: on each symbol, bounce left once then continue
    /// right — exercises non-trivial excursions.
    fn zigzag() -> TwoDfa {
        let mut b = TwoDfaBuilder::new(2);
        let fwd = b.add_state();
        let back = b.add_state();
        let ret = b.add_state();
        b.set_initial(fwd);
        b.set_final(fwd, true);
        b.set_action(fwd, Tape::LeftMarker, Dir::Right, fwd);
        // at a symbol going forward: dive left in `back`
        b.set_action_all_symbols(fwd, Dir::Left, back);
        // `back` immediately returns right in `ret`
        b.set_action_all_symbols(back, Dir::Right, ret);
        b.set_action(back, Tape::LeftMarker, Dir::Right, ret);
        // `ret` moves right in `fwd`
        b.set_action_all_symbols(ret, Dir::Right, fwd);
        // halt at ⊲ in fwd (accepting)
        b.build().unwrap()
    }

    fn agree_with_run(m: &TwoDfa, w: &[Symbol]) {
        let rec = m.run(w).expect("halting machine");
        let ba = BehaviorAnalysis::analyze(m, w);
        assert_eq!(ba.accepted(m), rec.accepted, "acceptance on {w:?}");
        let halt = ba.halt().expect("halting machine");
        assert_eq!(halt, rec.halt, "halt config on {w:?}");
        assert_eq!(rec.assumed.len(), ba.assumed.len());
        for i in 0..rec.assumed.len() {
            let mut got = ba.assumed[i].clone();
            got.sort_unstable();
            let exp: Vec<StateId> = rec.assumed.states(i).collect();
            assert_eq!(got, exp, "assumed at {i} on {w:?}");
        }
    }

    #[test]
    fn matches_run_on_example_3_4() {
        let m = example_3_4();
        for w in [
            vec![],
            vec![sym(0)],
            vec![sym(1)],
            vec![sym(0), sym(1), sym(1), sym(0)],
            vec![sym(1); 5],
        ] {
            agree_with_run(&m, &w);
        }
    }

    #[test]
    fn matches_run_on_zigzag() {
        let m = zigzag();
        assert!(m.halts_on_all_words_up_to(4));
        for w in [
            vec![],
            vec![sym(0)],
            vec![sym(0), sym(1)],
            vec![sym(1), sym(1), sym(0)],
        ] {
            agree_with_run(&m, &w);
        }
    }

    #[test]
    fn exhaustive_agreement_small_words() {
        for m in [example_3_4(), zigzag()] {
            for len in 0..=4usize {
                for mask in 0..(1usize << len) {
                    let w: Vec<Symbol> = (0..len).map(|i| sym((mask >> i) & 1)).collect();
                    agree_with_run(&m, &w);
                }
            }
        }
    }

    #[test]
    fn loop_is_reported_as_loops() {
        let mut b = TwoDfaBuilder::new(1);
        let q = b.add_state();
        let r = b.add_state();
        b.set_initial(q);
        b.set_action(q, Tape::LeftMarker, Dir::Right, q);
        b.set_action_all_symbols(q, Dir::Right, q);
        b.set_action(q, Tape::RightMarker, Dir::Left, r);
        b.set_action_all_symbols(r, Dir::Right, q);
        b.set_action(r, Tape::LeftMarker, Dir::Right, q);
        let m = b.build().unwrap();
        let ba = BehaviorAnalysis::analyze(&m, &[sym(0)]);
        assert_eq!(ba.outcome, Outcome::Loops);
        assert!(!ba.accepted(&m));
        assert!(ba.halt().is_err(), "looping run has no halt configuration");
    }

    #[test]
    fn paper_f_identity_on_right_movers() {
        let m = example_3_4();
        let w = vec![sym(0), sym(1)];
        let ba = BehaviorAnalysis::analyze(&m, &w);
        // s0 moves right everywhere: f(s0) = s0 at any real position.
        let s0 = StateId::from_index(0);
        assert_eq!(ba.paper_f(&m, &w, 1, s0), Some(s0));
        assert_eq!(ba.paper_f(&m, &w, 2, s0), Some(s0));
    }
}
