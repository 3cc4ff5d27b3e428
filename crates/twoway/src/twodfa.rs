//! Two-way deterministic finite automata (Definition 3.1).

use qa_base::{Error, Result, Symbol};
use qa_obs::{Counter, Machine, NoopObserver, Observer, Series};
use qa_strings::StateId;

use crate::assumed::AssumedSets;
use crate::tape::Tape;

/// Direction of a 2DFA move.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Move the head one cell to the left.
    Left,
    /// Move the head one cell to the right.
    Right,
}

/// A two-way deterministic finite automaton over endmarked tapes `⊳ w ⊲`.
///
/// Per Definition 3.1, the pairs `(state, cell)` are partitioned into
/// left-moving (`L`), right-moving (`R`) and undefined (the run halts).
/// Structural invariants enforced at [`TwoDfaBuilder::build`] time:
/// no left move from `⊳`, no right move from `⊲`.
///
/// The run starts at the left endmarker in the initial state and halts at the
/// first configuration with no applicable transition; it accepts iff the
/// halting state is final. A repeated `(state, position)` configuration means
/// the machine loops; the run engine detects this exactly via a
/// `|S| · (|w| + 2)` step bound and reports [`Error::FuelExhausted`].
#[derive(Clone, Debug)]
pub struct TwoDfa {
    alphabet_len: usize,
    num_states: usize,
    initial: StateId,
    finals: Vec<bool>,
    /// `action[state · cells + cell]`, `cells = |Σ| + 2`: the move, if
    /// defined.
    action: Vec<Option<(Dir, StateId)>>,
}

/// Builder for [`TwoDfa`]; validates invariants in [`TwoDfaBuilder::build`].
#[derive(Clone, Debug)]
pub struct TwoDfaBuilder {
    inner: TwoDfa,
}

impl TwoDfaBuilder {
    /// Start a machine over `alphabet_len` input symbols.
    pub fn new(alphabet_len: usize) -> Self {
        TwoDfaBuilder {
            inner: TwoDfa {
                alphabet_len,
                num_states: 0,
                initial: StateId::from_index(0),
                finals: Vec::new(),
                action: Vec::new(),
            },
        }
    }

    /// Add a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId::from_index(self.inner.num_states);
        self.inner.num_states += 1;
        self.inner.finals.push(false);
        let cells = Tape::table_len(self.inner.alphabet_len);
        self.inner
            .action
            .resize(self.inner.action.len() + cells, None);
        id
    }

    /// Set the initial state.
    pub fn set_initial(&mut self, state: StateId) -> &mut Self {
        self.inner.initial = state;
        self
    }

    /// Mark `state` final.
    pub fn set_final(&mut self, state: StateId, is_final: bool) -> &mut Self {
        self.inner.finals[state.index()] = is_final;
        self
    }

    /// Define the move for `(state, cell)`.
    pub fn set_action(&mut self, state: StateId, cell: Tape, dir: Dir, next: StateId) -> &mut Self {
        let slot = self.inner.slot(state, cell);
        self.inner.action[slot] = Some((dir, next));
        self
    }

    /// Convenience: same move on every *real* symbol.
    pub fn set_action_all_symbols(&mut self, state: StateId, dir: Dir, next: StateId) -> &mut Self {
        for i in 0..self.inner.alphabet_len {
            self.set_action(state, Tape::Sym(Symbol::from_index(i)), dir, next);
        }
        self
    }

    /// Validate and finish.
    pub fn build(self) -> Result<TwoDfa> {
        let m = self.inner;
        if m.num_states == 0 {
            return Err(Error::ill_formed("2DFA", "no states"));
        }
        for s in 0..m.num_states {
            let q = StateId::from_index(s);
            if let Some((Dir::Left, _)) = m.action(q, Tape::LeftMarker) {
                return Err(Error::ill_formed(
                    "2DFA",
                    format!("state q{s} moves left from the left endmarker"),
                ));
            }
            if let Some((Dir::Right, _)) = m.action(q, Tape::RightMarker) {
                return Err(Error::ill_formed(
                    "2DFA",
                    format!("state q{s} moves right from the right endmarker"),
                ));
            }
        }
        Ok(m)
    }
}

/// One configuration of a 2DFA run: a state and a head position on the
/// endmarked tape (`0 = ⊳`, `|w| + 1 = ⊲`).
pub type Config = (StateId, usize);

/// The record of a halting 2DFA run: its verdict, where it halted, the
/// `Assumed` set of every tape position and its length.
///
/// The configuration sequence itself is not kept: an observer that wants
/// it, such as [`qa_obs::RunTrace`], receives every configuration as the
/// run makes it.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Whether the halting state was final.
    pub accepted: bool,
    /// The halting configuration.
    pub halt: Config,
    /// For each tape position (including endmarkers, `0 = ⊳`), the states
    /// assumed there — `Assumed(w, i)` of the paper.
    pub assumed: AssumedSets,
    /// Total number of moves made.
    pub steps: u64,
}

impl TwoDfa {
    /// Alphabet size.
    pub fn alphabet_len(&self) -> usize {
        self.alphabet_len
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Whether `state` is final.
    pub fn is_final(&self, state: StateId) -> bool {
        self.finals[state.index()]
    }

    /// The move for `(state, cell)`, if defined.
    #[inline]
    pub fn action(&self, state: StateId, cell: Tape) -> Option<(Dir, StateId)> {
        self.action[self.slot(state, cell)]
    }

    #[inline]
    fn slot(&self, state: StateId, cell: Tape) -> usize {
        state.index() * Tape::table_len(self.alphabet_len) + cell.encode()
    }

    /// Run on `word`, recording the halting configuration and the states
    /// assumed at each position.
    ///
    /// Errors with [`Error::FuelExhausted`] iff the machine loops on this
    /// input (a deterministic machine that exceeds `|S| · (|w| + 2)` steps
    /// has repeated a configuration).
    pub fn run(&self, word: &[Symbol]) -> Result<RunRecord> {
        self.run_with(word, &mut NoopObserver)
    }

    /// [`TwoDfa::run`] with an [`Observer`]: every transition-table lookup,
    /// move, head reversal and configuration is reported to `obs`. With
    /// [`NoopObserver`] this monomorphizes to exactly `run`.
    ///
    /// `obs.checkpoint()` is polled once per configuration; a failing
    /// checkpoint (a watchdog budget trip) aborts the run with
    /// [`Error::RunAborted`].
    ///
    /// # Examples
    ///
    /// Count the head moves of one run through a [`qa_obs::Metrics`]
    /// registry:
    ///
    /// ```
    /// use qa_base::Symbol;
    /// use qa_obs::{Counter, Metrics};
    /// use qa_twoway::twodfa::{Dir, TwoDfaBuilder};
    /// use qa_twoway::Tape;
    ///
    /// let mut b = TwoDfaBuilder::new(1);
    /// let q = b.add_state();
    /// b.set_initial(q);
    /// b.set_final(q, true);
    /// b.set_action(q, Tape::LeftMarker, Dir::Right, q);
    /// b.set_action_all_symbols(q, Dir::Right, q);
    /// // No action at the right endmarker: the machine halts there in the
    /// // (final) state q.
    /// let machine = b.build()?;
    ///
    /// let metrics = Metrics::new();
    /// let rec = machine.run_with(&[Symbol::from_index(0); 3], &mut metrics.observer())?;
    /// assert!(rec.accepted);
    /// assert_eq!(rec.steps, 4); // over ⊳ and the three symbols
    /// assert_eq!(metrics.get(Counter::Steps), rec.steps);
    /// # Ok::<(), qa_base::Error>(())
    /// ```
    pub fn run_with<O: Observer>(&self, word: &[Symbol], obs: &mut O) -> Result<RunRecord> {
        self.run_noting(word, obs, |_, _| {})
    }

    /// [`TwoDfa::run_with`] that calls `note(pos, state)` the first time
    /// the run assumes `state` at tape position `pos`, so in the order in
    /// which the states of each position are first assumed. Queries note
    /// there what a set alone does not keep, such as the first selecting
    /// state of each position.
    pub(crate) fn run_noting<O: Observer>(
        &self,
        word: &[Symbol],
        obs: &mut O,
        mut note: impl FnMut(usize, StateId),
    ) -> Result<RunRecord> {
        let tape_len = word.len() + 2;
        let fuel = (self.num_states as u64) * (tape_len as u64) + 1;
        let mut state = self.initial;
        let mut pos = 0usize;
        let mut steps = 0u64;
        let mut last_dir: Option<Dir> = None;
        let mut assumed = AssumedSets::new(tape_len, self.num_states);
        loop {
            if let Err(a) = obs.checkpoint() {
                obs.count(Counter::BudgetTrips, 1);
                return Err(Error::aborted(a.what, a.limit, a.actual));
            }
            if assumed.insert(pos, state) {
                note(pos, state);
            }
            obs.count(Counter::TableLookups, 1);
            let cell = Tape::at(word, pos);
            obs.state_visit(Machine::TwoDfa, state.index() as u32, cell.encode() as u32);
            match self.action(state, cell) {
                None => {
                    obs.config(state.index() as u32, pos as u32, 0);
                    obs.record(Series::TraceLength, steps);
                    if obs.is_enabled() {
                        for cell in 0..tape_len {
                            obs.record(Series::AssumedStates, assumed.count(cell) as u64);
                        }
                    }
                    return Ok(RunRecord {
                        accepted: self.is_final(state),
                        halt: (state, pos),
                        assumed,
                        steps,
                    });
                }
                Some((dir, next)) => {
                    obs.transition_fired(
                        Machine::TwoDfa,
                        state.index() as u32,
                        cell.encode() as u32,
                        next.index() as u32,
                    );
                    obs.config(
                        state.index() as u32,
                        pos as u32,
                        match dir {
                            Dir::Left => -1,
                            Dir::Right => 1,
                        },
                    );
                    obs.count(Counter::Steps, 1);
                    if last_dir.is_some_and(|d| d != dir) {
                        obs.count(Counter::HeadReversals, 1);
                    }
                    last_dir = Some(dir);
                    steps += 1;
                    if steps > fuel {
                        obs.count(Counter::BudgetTrips, 1);
                        return Err(Error::FuelExhausted { budget: fuel });
                    }
                    pos = match dir {
                        Dir::Left => pos - 1,
                        Dir::Right => pos + 1,
                    };
                    state = next;
                }
            }
        }
    }

    /// Whether the machine accepts `word` (`Err` if it loops).
    pub fn accepts(&self, word: &[Symbol]) -> Result<bool> {
        Ok(self.run(word)?.accepted)
    }

    /// Whether the machine halts on every word of length `<= max_len`
    /// (exhaustive check, exponential in `max_len`; test helper).
    pub fn halts_on_all_words_up_to(&self, max_len: usize) -> bool {
        let mut stack: Vec<Vec<Symbol>> = vec![Vec::new()];
        while let Some(w) = stack.pop() {
            if self.run(&w).is_err() {
                return false;
            }
            if w.len() < max_len {
                for i in 0..self.alphabet_len {
                    let mut w2 = w.clone();
                    w2.push(Symbol::from_index(i));
                    stack.push(w2);
                }
            }
        }
        true
    }

    /// A one-way left-to-right sweep machine from a [`qa_strings::Dfa`]:
    /// walks right over `⊳ w`, halting on `⊲` in the DFA's state after `w`
    /// (final iff the DFA accepts). The DFA must be total.
    pub fn from_dfa_sweep(dfa: &qa_strings::Dfa) -> Result<TwoDfa> {
        if !dfa.is_total() {
            return Err(Error::ill_formed(
                "2DFA sweep",
                "source DFA must be total (call totalize())",
            ));
        }
        let mut b = TwoDfaBuilder::new(dfa.alphabet_len());
        for _ in 0..dfa.num_states() {
            b.add_state();
        }
        for i in 0..dfa.num_states() {
            let s = StateId::from_index(i);
            b.set_final(s, dfa.is_accepting(s));
            b.set_action(s, Tape::LeftMarker, Dir::Right, s);
            for a in 0..dfa.alphabet_len() {
                let sym = Symbol::from_index(a);
                let t = dfa.next(s, sym).expect("total DFA");
                b.set_action(s, Tape::Sym(sym), Dir::Right, t);
            }
            // no action on ⊲: halt there.
        }
        b.set_initial(dfa.initial());
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_base::Alphabet;
    use qa_obs::RunTrace;

    fn sym(i: usize) -> Symbol {
        Symbol::from_index(i)
    }

    /// The Example 3.4 machine: walk right to ⊲, then walk back alternating
    /// s1/s2 (s1 on odd positions from the right).
    pub(crate) fn example_3_4() -> TwoDfa {
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
        // halts on ⊳ (no action defined there for s1/s2)
        b.build().unwrap()
    }

    #[test]
    fn example_3_4_run_matches_paper() {
        let m = example_3_4();
        // input 0110: the paper's run visits positions 1..6 then walks back,
        // halting at ⊳ in state s1 (positions here are 0-based: 0..=5).
        let w = vec![sym(0), sym(1), sym(1), sym(0)];
        let rec = m.run(&w).unwrap();
        assert!(rec.accepted);
        assert_eq!(rec.halt, (StateId::from_index(1), 0));
        // The paper's position 3 (its tape is 1-based with ⊳ at 1) is our
        // tape position 2, the first `1` of the input; it is visited in s1.
        assert!(rec.assumed.contains(2, StateId::from_index(1)));
        assert!(rec.assumed.contains(3, StateId::from_index(2)));
        // 11 configurations as in the paper's displayed run, read from a
        // RunTrace: the record keeps no configuration sequence
        let mut trace = RunTrace::new();
        m.run_with(&w, &mut trace).unwrap();
        assert_eq!(trace.configs.len(), 11);
    }

    #[test]
    fn builder_rejects_marker_violations() {
        let mut b = TwoDfaBuilder::new(1);
        let q = b.add_state();
        b.set_action(q, Tape::LeftMarker, Dir::Left, q);
        assert!(b.build().is_err());

        let mut b = TwoDfaBuilder::new(1);
        let q = b.add_state();
        b.set_action(q, Tape::RightMarker, Dir::Right, q);
        assert!(b.build().is_err());

        let b = TwoDfaBuilder::new(1);
        assert!(b.build().is_err(), "no states rejected");
    }

    #[test]
    fn loop_is_detected() {
        let mut b = TwoDfaBuilder::new(1);
        let q = b.add_state();
        let r = b.add_state();
        b.set_initial(q);
        b.set_action(q, Tape::LeftMarker, Dir::Right, q);
        b.set_action_all_symbols(q, Dir::Right, q);
        b.set_action(q, Tape::RightMarker, Dir::Left, r);
        b.set_action_all_symbols(r, Dir::Right, q); // ping-pong forever
        b.set_action(r, Tape::LeftMarker, Dir::Right, q);
        let m = b.build().unwrap();
        assert!(matches!(m.run(&[sym(0)]), Err(Error::FuelExhausted { .. })));
        assert!(!m.halts_on_all_words_up_to(2));
    }

    #[test]
    fn sweep_machine_agrees_with_dfa() {
        let mut sigma = Alphabet::new();
        let a = sigma.intern("a");
        let b_ = sigma.intern("b");
        // DFA: odd number of b's
        let mut d = qa_strings::Dfa::new(2);
        let e = d.add_state();
        let o = d.add_state();
        d.set_initial(e);
        d.set_accepting(o, true);
        d.set_transition(e, a, e);
        d.set_transition(o, a, o);
        d.set_transition(e, b_, o);
        d.set_transition(o, b_, e);
        let m = TwoDfa::from_dfa_sweep(&d).unwrap();
        for w in [vec![], vec![b_], vec![a, b_, b_], vec![b_, a, b_, b_]] {
            assert_eq!(m.accepts(&w).unwrap(), d.accepts(&w), "{w:?}");
        }
        let rec = m.run(&[a, b_]).unwrap();
        assert_eq!(rec.halt.1, 3, "halts at the right endmarker");
    }

    #[test]
    fn trace_starts_at_left_marker_in_initial_state() {
        let m = example_3_4();
        let mut trace = RunTrace::new();
        m.run_with(&[sym(1)], &mut trace).unwrap();
        let first = &trace.configs[0];
        assert_eq!((first.state, first.pos), (0, 0));
    }

    #[test]
    fn empty_word_runs_over_markers_only() {
        let m = example_3_4();
        let rec = m.run(&[]).unwrap();
        // s0 at ⊳, s0 at ⊲, then left in s1 halting at ⊳.
        assert!(rec.accepted);
        assert_eq!(rec.halt.1, 0);
    }
}
