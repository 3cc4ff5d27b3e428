//! Two-way deterministic ranked tree automata (Definition 4.1, after
//! Moriya), with the faithful *cut* configuration semantics.

use std::collections::HashMap;

use qa_base::{Error, Result, Symbol};
use qa_obs::{Machine, NoopObserver, Observer};
use qa_strings::StateId;
use qa_trees::{NodeId, Tree};
use qa_twoway::AssumedSets;

use crate::cut::{self, CutRules, Fold, Table};

/// Whether a `(state, label)` pair takes part in up or down transitions.
///
/// The disjointness of `U` and `D` is what makes runs confluent: a node
/// holding a state can never choose between moving up and moving down, so
/// every maximal run visits each node in the same state sequence
/// (the paper's justification for calling these automata deterministic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Polarity {
    /// Member of `U`: participates in up/root transitions.
    Up,
    /// Member of `D`: participates in down/leaf transitions.
    Down,
}

/// A two-way deterministic ranked tree automaton.
///
/// Transitions (Definition 4.1):
/// - `δ↓ : D × {1..m} → Q*` — a node in a down state hands a state to each
///   of its children (the cut replaces the node by its children);
/// - `δ_leaf : D → Q` — a leaf in a down state changes state in place;
/// - `δ↑ : U* → Q` — when all children of a node hold up states, they fold
///   into the parent (the transition sees each child's `(state, label)`
///   pair);
/// - `δ_root : U → Q` — the root alone in the cut changes state in place.
///
/// A run starts with the cut `{root}` in the initial state, is *maximal*
/// when no transition applies, and accepts iff it is maximal with the root
/// holding a final state.
#[derive(Clone, Debug)]
pub struct TwoWayRanked {
    /// Each cell's `down` lists the defined `δ↓` tuples, whose lengths are
    /// their arities.
    table: Table<Vec<Vec<StateId>>>,
    max_rank: usize,
    /// Keyed by the children's pairs: `decision/tiling.rs` folds a fan of
    /// `|T|` children, which a dense tuple table would need
    /// `(|Q|·|Σ|)^|T|` slots for.
    delta_up: HashMap<Vec<(StateId, Symbol)>, StateId>,
}

/// Builder validating Definition 4.1's side conditions.
#[derive(Clone, Debug)]
pub struct TwoWayRankedBuilder {
    inner: TwoWayRanked,
}

impl TwoWayRankedBuilder {
    /// Start a machine over `alphabet_len` symbols and rank `max_rank`.
    pub fn new(alphabet_len: usize, max_rank: usize) -> Self {
        TwoWayRankedBuilder {
            inner: TwoWayRanked {
                table: Table::new(alphabet_len),
                max_rank,
                delta_up: HashMap::new(),
            },
        }
    }

    /// Add a fresh state.
    pub fn add_state(&mut self) -> StateId {
        self.inner.table.add_state()
    }

    /// Set the initial state.
    pub fn set_initial(&mut self, state: StateId) -> &mut Self {
        self.inner.table.initial = state;
        self
    }

    /// Mark `state` final.
    pub fn set_final(&mut self, state: StateId, is_final: bool) -> &mut Self {
        self.inner.table.finals[state.index()] = is_final;
        self
    }

    /// Put `(state, label)` into `U` or `D`.
    pub fn set_polarity(&mut self, state: StateId, label: Symbol, p: Polarity) -> &mut Self {
        self.inner.table.cell_mut(state, label).polarity = Some(p);
        self
    }

    /// Put `(state, ·)` into `U` or `D` for every label.
    pub fn set_polarity_all(&mut self, state: StateId, p: Polarity) -> &mut Self {
        self.inner.table.set_polarity_all(state, p);
        self
    }

    /// Define `δ↓(state, label, arity) = children_states`.
    pub fn set_down(
        &mut self,
        state: StateId,
        label: Symbol,
        children_states: &[StateId],
    ) -> &mut Self {
        let down = &mut self.inner.table.cell_mut(state, label).down;
        match down.iter_mut().find(|v| v.len() == children_states.len()) {
            Some(v) => v.copy_from_slice(children_states),
            None => down.push(children_states.to_vec()),
        }
        self
    }

    /// Define `δ_leaf(state, label) = next`.
    pub fn set_leaf(&mut self, state: StateId, label: Symbol, next: StateId) -> &mut Self {
        self.inner.table.cell_mut(state, label).leaf = Some(next);
        self
    }

    /// Define `δ_root(state, label) = next`.
    pub fn set_root(&mut self, state: StateId, label: Symbol, next: StateId) -> &mut Self {
        self.inner.table.cell_mut(state, label).root = Some(next);
        self
    }

    /// Define `δ↑((q₁,σ₁)…(qₙ,σₙ)) = next`.
    pub fn set_up(&mut self, children: &[(StateId, Symbol)], next: StateId) -> &mut Self {
        self.inner.delta_up.insert(children.to_vec(), next);
        self
    }

    /// Validate and finish.
    pub fn build(self) -> Result<TwoWayRanked> {
        let m = self.inner;
        if m.table.num_states == 0 {
            return Err(Error::ill_formed("2DTAr", "no states"));
        }
        for (q, s, c) in m.table.pairs() {
            let (down, up) = (Some(Polarity::Down), Some(Polarity::Up));
            let misplaced = if c.leaf.is_some() && c.polarity != down {
                "δ_leaf defined on non-D pair"
            } else if !c.down.is_empty() && c.polarity != down {
                "δ↓ defined on non-D pair"
            } else if c.root.is_some() && c.polarity != up {
                "δ_root defined on non-U pair"
            } else {
                continue;
            };
            return Err(Error::ill_formed(
                "2DTAr",
                format!("{misplaced} ({q:?}, {s:?})"),
            ));
        }
        // Sorted so that, when several δ↑ entries are ill-formed, the
        // reported one does not depend on HashMap order.
        let mut ups: Vec<&Vec<(StateId, Symbol)>> = m.delta_up.keys().collect();
        ups.sort();
        for seq in ups {
            if seq.is_empty() || seq.len() > m.max_rank {
                return Err(Error::ill_formed(
                    "2DTAr",
                    format!("δ↑ arity {} out of range", seq.len()),
                ));
            }
            for &(q, s) in seq {
                if m.polarity(q, s) != Some(Polarity::Up) {
                    return Err(Error::ill_formed(
                        "2DTAr",
                        format!("δ↑ mentions non-U pair ({q:?}, {s:?})"),
                    ));
                }
            }
        }
        for v in m.table.cells.iter().flat_map(|c| &c.down) {
            let n = v.len();
            if n == 0 || n > m.max_rank {
                return Err(Error::ill_formed(
                    "2DTAr",
                    format!("δ↓ must emit exactly the arity many states (got {n} for arity {n})"),
                ));
            }
        }
        Ok(m)
    }
}

/// Record of a maximal run: its verdict, the `Assumed` set of every node
/// and the work it took. The configurations themselves are not kept; an
/// observer such as [`qa_obs::RunTrace`] receives each one as the run
/// makes it.
#[derive(Clone, Debug)]
pub struct RankedRunRecord {
    /// Whether the final configuration was accepting (cut = {root}, final
    /// state).
    pub accepted: bool,
    /// For each node (by index), the states it assumed across the run —
    /// `Assumed^A(t, v)` of Section 4.2.
    pub assumed: AssumedSets,
    /// Work performed: [`TwoWayRanked::run_scheduled`] counts transitions
    /// fired; the worklist [`TwoWayRanked::run`] counts node examinations
    /// (an upper bound on transitions). Both are capped by the fuel budget.
    pub steps: u64,
}

impl TwoWayRanked {
    /// Alphabet size.
    pub fn alphabet_len(&self) -> usize {
        self.table.alphabet_len
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.table.num_states
    }

    /// Maximum rank.
    pub fn max_rank(&self) -> usize {
        self.max_rank
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.table.initial
    }

    /// Whether `state` is final.
    pub fn is_final(&self, state: StateId) -> bool {
        self.table.finals[state.index()]
    }

    /// The polarity of `(state, label)`.
    #[inline]
    pub fn polarity(&self, state: StateId, label: Symbol) -> Option<Polarity> {
        self.table.cell(state, label).polarity
    }

    /// `δ↓(state, label, arity)`.
    #[inline]
    pub fn down(&self, state: StateId, label: Symbol, arity: usize) -> Option<&[StateId]> {
        self.table
            .cell(state, label)
            .down
            .iter()
            .find(|v| v.len() == arity)
            .map(Vec::as_slice)
    }

    /// `δ_leaf(state, label)`.
    #[inline]
    pub fn leaf(&self, state: StateId, label: Symbol) -> Option<StateId> {
        self.table.cell(state, label).leaf
    }

    /// `δ_root(state, label)`.
    #[inline]
    pub fn root(&self, state: StateId, label: Symbol) -> Option<StateId> {
        self.table.cell(state, label).root
    }

    /// `δ↑(children pairs)`.
    pub fn up(&self, children: &[(StateId, Symbol)]) -> Option<StateId> {
        self.delta_up.get(children).copied()
    }

    /// Default run fuel for `tree`: generous but finite, so genuine loops
    /// surface as [`Error::FuelExhausted`] rather than hangs.
    pub fn default_fuel(&self, tree: &Tree) -> u64 {
        self.table.default_fuel(tree)
    }

    /// Run to a maximal configuration with a worklist engine: after a
    /// transition fires only the affected nodes are re-examined, so typical
    /// runs cost O(steps + nodes) instead of a full rescan per step.
    /// Confluence (Section 4.1) makes the result identical to any schedule
    /// of [`TwoWayRanked::run_scheduled`] — property-tested.
    pub fn run(&self, tree: &Tree) -> Result<RankedRunRecord> {
        self.run_with(tree, &mut NoopObserver)
    }

    /// [`TwoWayRanked::run`] with an [`Observer`]: each node examination is
    /// a [`Counter::CutRecomputations`], each fired transition a
    /// [`Counter::Steps`], and the total step count is recorded under
    /// [`Series::RunSteps`]. Every state assignment is also reported as a
    /// configuration event `(state, node, dir)` with dir +1 for δ↓ hand-offs
    /// to children, −1 for δ↑ folds into the parent, and 0 for in-place
    /// changes (initial placement, δ_leaf, δ_root), giving tree runs a
    /// replayable trace. With [`NoopObserver`] this monomorphizes to
    /// exactly `run`.
    ///
    /// [`Counter::CutRecomputations`]: qa_obs::Counter::CutRecomputations
    /// [`Counter::Steps`]: qa_obs::Counter::Steps
    /// [`Series::RunSteps`]: qa_obs::Series::RunSteps
    pub fn run_with<O: Observer>(&self, tree: &Tree, obs: &mut O) -> Result<RankedRunRecord> {
        self.run_noting(tree, obs, |_, _| {})
    }

    /// [`TwoWayRanked::run_with`] that calls `note(v, q)` the first time
    /// node `v` assumes state `q`, so in the order in which each node's
    /// states are first assumed.
    pub(crate) fn run_noting<O: Observer>(
        &self,
        tree: &Tree,
        obs: &mut O,
        note: impl FnMut(NodeId, StateId),
    ) -> Result<RankedRunRecord> {
        self.check_rank(tree)?;
        let (accepted, assumed, steps) = cut::run(self, tree, &mut (), obs, note)?;
        Ok(RankedRunRecord {
            accepted,
            assumed,
            steps,
        })
    }

    /// Run with an explicit fuel bound and a *schedule*: when several
    /// transitions are enabled, `pick(n)` chooses which of the `n` enabled
    /// ones fires. Confluence (Section 4.1) means the choice cannot affect
    /// per-node state sequences; the property tests exercise exactly this.
    pub fn run_scheduled(
        &self,
        tree: &Tree,
        fuel: u64,
        pick: impl FnMut(usize) -> usize,
    ) -> Result<RankedRunRecord> {
        self.check_rank(tree)?;
        let ((accepted, assumed, steps), _) = cut::run_scheduled(self, tree, fuel, pick)?;
        Ok(RankedRunRecord {
            accepted,
            assumed,
            steps,
        })
    }

    fn check_rank(&self, tree: &Tree) -> Result<()> {
        if tree.rank() > self.max_rank {
            return Err(Error::domain(format!(
                "tree rank {} exceeds automaton rank {}",
                tree.rank(),
                self.max_rank
            )));
        }
        Ok(())
    }

    /// Whether the automaton accepts `tree`.
    pub fn accepts(&self, tree: &Tree) -> Result<bool> {
        Ok(self.run(tree)?.accepted)
    }
}

impl CutRules for TwoWayRanked {
    const MACHINE: Machine = Machine::Qar;
    type Down = Vec<Vec<StateId>>;
    type Folds<'r> = ();

    fn table(&self) -> &Table<Self::Down> {
        &self.table
    }

    fn down_states(
        &self,
        state: StateId,
        label: Symbol,
        arity: usize,
    ) -> Option<impl Iterator<Item = StateId> + '_> {
        Some(self.down(state, label, arity)?.iter().copied())
    }

    fn fold<'f, O: Observer>(
        &self,
        _: &'f mut (),
        _: NodeId,
        pairs: &[(StateId, Symbol)],
        _: &mut O,
    ) -> Result<Fold<&'f [StateId]>> {
        Ok(self.up(pairs).map_or(Fold::Stuck, Fold::Up))
    }

    fn fold_at(&self, pairs: &[(StateId, Symbol)], _: u32) -> Result<Fold<Vec<StateId>>> {
        Ok(self.up(pairs).map_or(Fold::Stuck, Fold::Up))
    }
}

/// Example 4.2: the two-way Boolean-circuit automaton over
/// `{AND, OR, 0, 1}` accepting full binary circuits that evaluate to 1.
///
/// States: `s` (descend), `u` (leaf evaluated), value pairs `(i, j)`, and
/// two verdict states `v0`/`v1` at the root (`F = {v1}`). The paper's
/// transition listing is completed with the mixed leaf/inner-child up
/// transitions it elides.
pub fn example_4_2(alphabet: &qa_base::Alphabet) -> TwoWayRanked {
    build_circuit_machine(alphabet, false).0
}

/// The state inventory of [`example_4_2`], for reuse by Example 4.4.
pub(crate) fn build_circuit_machine(
    alphabet: &qa_base::Alphabet,
    all_final: bool,
) -> (TwoWayRanked, CircuitStates) {
    let and = alphabet.symbol("AND");
    let or = alphabet.symbol("OR");
    let zero = alphabet.symbol("0");
    let one = alphabet.symbol("1");
    let mut b = TwoWayRankedBuilder::new(alphabet.len(), 2);
    let s = b.add_state();
    let u = b.add_state();
    let pair = |i: usize, j: usize| StateId::from_index(2 + 2 * i + j);
    for _ in 0..4 {
        b.add_state();
    }
    let v0 = b.add_state();
    let v1 = b.add_state();
    b.set_initial(s);
    if all_final {
        for i in 0..b.inner.num_states() {
            b.set_final(StateId::from_index(i), true);
        }
    } else {
        b.set_final(v1, true);
    }

    b.set_polarity_all(s, Polarity::Down);
    b.set_polarity_all(u, Polarity::Up);
    for i in 0..2 {
        for j in 0..2 {
            b.set_polarity_all(pair(i, j), Polarity::Up);
        }
    }
    b.set_polarity_all(v0, Polarity::Up);
    b.set_polarity_all(v1, Polarity::Up);

    // (1) descend
    for op in [and, or] {
        b.set_down(s, op, &[s, s]);
    }
    // (2) leaves flip to u
    for leaf in [zero, one] {
        b.set_leaf(s, leaf, u);
    }
    // value of a child from its (state, label) pair
    let val = |q: StateId, l: Symbol| -> Option<usize> {
        if q == u {
            Some(if l == one { 1 } else { 0 })
        } else if q.index() >= 2 && q.index() < 6 {
            let (i, j) = ((q.index() - 2) / 2, (q.index() - 2) % 2);
            Some(if l == and {
                i & j
            } else if l == or {
                i | j
            } else {
                return None;
            })
        } else {
            None
        }
    };
    // (3)+(4) with the mixed cases: fold children values into the parent
    let child_pairs: Vec<(StateId, Symbol)> = {
        let mut v = vec![(u, zero), (u, one)];
        for i in 0..2 {
            for j in 0..2 {
                for op in [and, or] {
                    v.push((pair(i, j), op));
                }
            }
        }
        v
    };
    let mut ups: Vec<(Vec<(StateId, Symbol)>, StateId)> = Vec::new();
    for &c1 in &child_pairs {
        for &c2 in &child_pairs {
            if let (Some(i), Some(j)) = (val(c1.0, c1.1), val(c2.0, c2.1)) {
                ups.push((vec![c1, c2], pair(i, j)));
            }
        }
    }
    for (seq, q) in ups {
        b.set_up(&seq, q);
    }
    // (5) root verdict
    for i in 0..2 {
        for j in 0..2 {
            b.set_root(pair(i, j), and, if i & j == 1 { v1 } else { v0 });
            b.set_root(pair(i, j), or, if i | j == 1 { v1 } else { v0 });
        }
    }
    // single-leaf circuits: u at the root
    b.set_root(u, zero, v0);
    b.set_root(u, one, v1);

    let machine = b.build().expect("example 4.2 is well-formed");
    (
        machine,
        CircuitStates {
            u,
            v1,
            pair_base: 2,
        },
    )
}

/// State handles of the Example 4.2 machine.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CircuitStates {
    pub u: StateId,
    pub v1: StateId,
    pub pair_base: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_base::Alphabet;
    use qa_trees::sexpr::from_sexpr;

    fn alpha() -> Alphabet {
        Alphabet::from_names(["AND", "OR", "0", "1"])
    }

    #[test]
    fn example_4_2_accepts_true_circuits() {
        let mut a = alpha();
        let m = example_4_2(&a);
        for (s, val) in [
            ("1", true),
            ("0", false),
            ("(AND 1 1)", true),
            ("(AND 1 0)", false),
            ("(OR 0 1)", true),
            ("(OR (AND 1 1) (AND 0 0))", true),
            ("(AND (OR 1 0) (AND (OR 0 0) 1))", false),
            ("(AND (AND 1 1) (OR 0 (AND 1 1)))", true),
        ] {
            let t = from_sexpr(s, &mut a).unwrap();
            assert_eq!(m.accepts(&t).unwrap(), val, "{s}");
        }
    }

    #[test]
    fn run_matches_one_way_circuit_on_random_trees() {
        use qa_base::rng::StdRng;
        let a = alpha();
        let m = example_4_2(&a);
        let one_way = super::super::Dbta::boolean_circuit(&a);
        let inner = [a.symbol("AND"), a.symbol("OR")];
        let leaves = [a.symbol("0"), a.symbol("1")];
        let mut rng = StdRng::seed_from_u64(5);
        for size in [0usize, 1, 3, 8, 20] {
            for _ in 0..5 {
                let t = qa_trees::generate::random_full_binary(&mut rng, &inner, &leaves, size);
                assert_eq!(
                    m.accepts(&t).unwrap(),
                    one_way.accepts(&t),
                    "{}",
                    t.render(&a)
                );
            }
        }
    }

    #[test]
    fn assumed_states_record_the_evaluation() {
        let mut a = alpha();
        let m = example_4_2(&a);
        let t = from_sexpr("(AND 1 0)", &mut a).unwrap();
        let rec = m.run(&t).unwrap();
        // root assumed: s, then pair(1,0) = index 2+2*1+0 = 4, then v0 = 6
        let root_states: Vec<usize> = rec
            .assumed
            .states(t.root().index())
            .map(|q| q.index())
            .collect();
        assert_eq!(root_states, vec![0, 4, 6]);
        // each leaf assumed s then u
        for &leaf in t.children(t.root()) {
            let states: Vec<usize> = rec
                .assumed
                .states(leaf.index())
                .map(|q| q.index())
                .collect();
            assert_eq!(states, vec![0, 1]);
        }
    }

    #[test]
    fn confluence_under_random_schedules() {
        use qa_base::rng::Rng;
        use qa_base::rng::StdRng;
        let mut a = alpha();
        let m = example_4_2(&a);
        let t = from_sexpr("(OR (AND 1 0) (OR 1 1))", &mut a).unwrap();
        let reference = m.run(&t).unwrap();
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let rec = m
                .run_scheduled(&t, m.default_fuel(&t), |n| rng.gen_range(0..n))
                .unwrap();
            assert_eq!(rec.accepted, reference.accepted);
            assert_eq!(rec.assumed, reference.assumed, "seed {seed}");
        }
    }

    #[test]
    fn rank_mismatch_is_a_domain_error() {
        let mut a = alpha();
        let m = example_4_2(&a);
        let t = from_sexpr("(AND 1 1 1)", &mut a).unwrap();
        assert!(matches!(m.run(&t), Err(Error::Domain { .. })));
    }

    #[test]
    fn builder_validates_polarities() {
        let a = alpha();
        let mut b = TwoWayRankedBuilder::new(a.len(), 2);
        let q = b.add_state();
        // δ_leaf on a pair not in D
        b.set_leaf(q, a.symbol("0"), q);
        assert!(b.build().is_err());

        let mut b = TwoWayRankedBuilder::new(a.len(), 2);
        let q = b.add_state();
        b.set_polarity_all(q, Polarity::Down);
        // δ↓ arity mismatch
        b.set_down(q, a.symbol("AND"), &[q]);
        let m = b.build().unwrap();
        assert!(m.down(q, a.symbol("AND"), 1).is_some());

        let mut b = TwoWayRankedBuilder::new(a.len(), 2);
        let q = b.add_state();
        b.set_polarity_all(q, Polarity::Up);
        b.set_up(&[], q);
        assert!(b.build().is_err(), "empty δ↑ sequence rejected");

        // Two ill-formed entries: the scan goes pair by pair, state-major,
        // and names the first pair holding any misplaced transition.
        let mut b = TwoWayRankedBuilder::new(a.len(), 2);
        let q0 = b.add_state();
        let q1 = b.add_state();
        b.set_polarity_all(q0, Polarity::Down);
        b.set_leaf(q1, a.symbol("0"), q1);
        b.set_root(q0, a.symbol("1"), q0);
        assert_eq!(
            b.build().unwrap_err().to_string(),
            "ill-formed automaton (2DTAr): δ_root defined on non-U pair (q0, s3)"
        );
    }

    #[test]
    fn rows_agree_with_a_reference_map_while_they_grow() {
        use qa_base::rng::{Rng, StdRng};
        use std::collections::BTreeMap;
        let mut rng = StdRng::seed_from_u64(0x2da7);
        let (mut overwrites, mut two_arities) = (0, 0);
        for round in 0..60 {
            let sigma = rng.gen_range(1..=3);
            let mut b = TwoWayRankedBuilder::new(sigma, 3);
            let mut polarity = BTreeMap::new();
            let mut leaf = BTreeMap::new();
            let mut root = BTreeMap::new();
            let mut down: BTreeMap<(usize, usize, usize), Vec<StateId>> = BTreeMap::new();
            let mut states = 0;
            // add_state interleaved with writes, so rows grow after they
            // already hold transitions
            for _ in 0..rng.gen_range(1..64) {
                if states == 0 || (states < 5 && rng.gen_bool(0.15)) {
                    b.add_state();
                    states += 1;
                    continue;
                }
                let (q, s) = (rng.gen_range(0..states), rng.gen_range(0..sigma));
                let (qs, ss) = (StateId::from_index(q), Symbol::from_index(s));
                let next = StateId::from_index(rng.gen_range(0..states));
                let replaced = match rng.gen_range(0..4) {
                    0 => {
                        let p = [Polarity::Up, Polarity::Down][rng.gen_range(0..2)];
                        b.set_polarity(qs, ss, p);
                        polarity.insert((q, s), p).is_some()
                    }
                    1 => {
                        b.set_leaf(qs, ss, next);
                        leaf.insert((q, s), next).is_some()
                    }
                    2 => {
                        b.set_root(qs, ss, next);
                        root.insert((q, s), next).is_some()
                    }
                    _ => {
                        let arity = rng.gen_range(1..=2);
                        let kids: Vec<StateId> = (0..arity)
                            .map(|_| StateId::from_index(rng.gen_range(0..states)))
                            .collect();
                        b.set_down(qs, ss, &kids);
                        if down.contains_key(&(q, s, 3 - arity)) {
                            two_arities += 1;
                        }
                        down.insert((q, s, arity), kids).is_some()
                    }
                };
                overwrites += usize::from(replaced);
            }
            let m = &b.inner;
            for (q, s) in (0..states).flat_map(|q| (0..sigma).map(move |s| (q, s))) {
                let (qs, ss) = (StateId::from_index(q), Symbol::from_index(s));
                let at = format!("round {round}: ({q}, {s})");
                assert_eq!(m.polarity(qs, ss), polarity.get(&(q, s)).copied(), "{at}");
                assert_eq!(m.leaf(qs, ss), leaf.get(&(q, s)).copied(), "{at}");
                assert_eq!(m.root(qs, ss), root.get(&(q, s)).copied(), "{at}");
                for arity in 0..=3 {
                    let want = down.get(&(q, s, arity)).map(Vec::as_slice);
                    assert_eq!(m.down(qs, ss, arity), want, "{at} arity {arity}");
                }
            }
        }
        assert!(overwrites > 0 && two_arities > 0);
    }

    #[test]
    fn non_maximal_cut_rejects() {
        // a machine that descends and stops at the leaves: cut != {root}.
        let a = alpha();
        let mut b = TwoWayRankedBuilder::new(a.len(), 2);
        let s = b.add_state();
        b.set_initial(s);
        b.set_final(s, true);
        b.set_polarity_all(s, Polarity::Down);
        for op in [a.symbol("AND"), a.symbol("OR")] {
            b.set_down(s, op, &[s, s]);
        }
        let m = b.build().unwrap();
        let mut a2 = a.clone();
        let t = from_sexpr("(AND 1 0)", &mut a2).unwrap();
        // leaves hold s (a D pair) but δ_leaf is undefined: maximal, but the
        // root is not in the cut → reject.
        assert!(!m.accepts(&t).unwrap());
    }
}
