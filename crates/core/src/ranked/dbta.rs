//! Bottom-up ranked tree automata (Definition 2.6), their flat transition
//! table and the tuple enumerator every ranked construction walks.

use qa_base::idvec::Id;
use qa_base::Symbol;
use qa_obs::{Counter, Machine, NoopObserver, Observer, Series};
use qa_strings::StateId;
use qa_trees::Tree;

/// Every tuple of the box `0..bounds[0] × … × 0..bounds[k−1]`, in odometer
/// order with coordinate 0 turning fastest: the one order in which ranked
/// constructions walk child-state tuples. `determinize` numbers its subsets
/// in it, so every compiled state number depends on it. The cursor lends
/// out its current tuple instead of allocating one per step.
///
/// ```
/// use qa_core::ranked::Tuples;
/// let mut tuples = Tuples::<usize>::new(2, 2);
/// let mut seen = Vec::new();
/// while let Some(t) = tuples.next_tuple() {
///     seen.push(t.to_vec());
/// }
/// assert_eq!(seen, [[0, 0], [1, 0], [0, 1], [1, 1]]);
/// ```
#[derive(Debug)]
pub struct Tuples<T> {
    bounds: Vec<usize>,
    tuple: Vec<T>,
    started: bool,
    done: bool,
}

impl<T: Id> Tuples<T> {
    /// Every `arity`-tuple over `0..bound`.
    pub fn new(arity: usize, bound: usize) -> Self {
        Self::mixed(vec![bound; arity])
    }

    /// Every tuple whose coordinate `i` lies in `0..bounds[i]`.
    pub fn mixed(bounds: Vec<usize>) -> Self {
        Tuples {
            tuple: vec![T::from_index(0); bounds.len()],
            done: bounds.contains(&0),
            bounds,
            started: false,
        }
    }

    /// The next tuple, or `None` once all were handed out. Arity 0 has
    /// exactly one tuple, `[]`; a zero bound has none.
    pub fn next_tuple(&mut self) -> Option<&[T]> {
        if self.started && !self.done {
            self.done = true;
            for (c, &bound) in self.tuple.iter_mut().zip(&self.bounds) {
                if c.index() + 1 < bound {
                    *c = T::from_index(c.index() + 1);
                    self.done = false;
                    break;
                }
                *c = T::from_index(0);
            }
        }
        self.started = true;
        (!self.done).then_some(self.tuple.as_slice())
    }
}

/// `δ` as one flat vector with a slot per `(arity, child-state tuple,
/// label)`, arity ≤ `max_rank`, so a lookup is index arithmetic.
///
/// Arity `k`'s block starts at `offsets[k]` and holds a row of
/// `alphabet_len` slots per tuple; `(c₀, …, cₖ₋₁)` is row `Σ cᵢ·strideⁱ`,
/// so rows run in [`Tuples`] order. The table is allocated at its first
/// write with `stride = num_states`; a state added past `stride` re-lays
/// it out at twice the stride, so constructions that add states while
/// they fill (`determinize`, `product`) move each slot O(1) times on
/// average.
#[derive(Clone, Debug)]
struct Table<T> {
    alphabet_len: usize,
    max_rank: usize,
    num_states: usize,
    stride: usize,
    /// Start of each arity's block; empty until the first write.
    offsets: Vec<usize>,
    slots: Vec<T>,
    /// The value of an undefined slot.
    empty: T,
    /// Every `max_rank`-tuple over `0..stride`, row after row, so
    /// `entries` can lend out child tuples: row `r` of arity `k` is
    /// `tuples[r·max_rank..][..k]`.
    tuples: Vec<StateId>,
}

impl<T: Clone> Table<T> {
    fn new(alphabet_len: usize, max_rank: usize, empty: T) -> Self {
        Table {
            alphabet_len,
            max_rank,
            num_states: 0,
            stride: 0,
            offsets: Vec::new(),
            slots: Vec::new(),
            empty,
            tuples: Vec::new(),
        }
    }

    fn add_state(&mut self) -> StateId {
        let id = StateId::from_index(self.num_states);
        self.num_states += 1;
        if !self.offsets.is_empty() && self.num_states > self.stride {
            self.relayout((2 * self.stride).max(self.num_states));
        }
        id
    }

    /// The slot of `δ(children, label)`, or `None` when the arity, the
    /// label or a child is out of range.
    #[inline]
    fn slot(&self, children: &[StateId], label: Symbol) -> Option<usize> {
        if label.index() >= self.alphabet_len {
            return None;
        }
        let offset = *self.offsets.get(children.len())?;
        let mut row = 0;
        for c in children.iter().rev() {
            if c.index() >= self.num_states {
                return None;
            }
            row = row * self.stride + c.index();
        }
        Some(offset + row * self.alphabet_len + label.index())
    }

    #[inline]
    fn get(&self, children: &[StateId], label: Symbol) -> Option<&T> {
        self.slot(children, label).map(|i| &self.slots[i])
    }

    fn get_mut(&mut self, children: &[StateId], label: Symbol) -> &mut T {
        if self.offsets.is_empty() {
            self.relayout(self.num_states);
        }
        let i = self.slot(children, label);
        &mut self.slots[i.expect("transition arity, label or child state out of range")]
    }

    /// Lay the table out for `stride` states per coordinate, moving every
    /// row to its new place.
    fn relayout(&mut self, stride: usize) {
        let (sigma, rank) = (self.alphabet_len, self.max_rank);
        let mut offsets = Vec::with_capacity(rank + 1);
        let mut len = 0usize;
        for k in 0..=rank {
            offsets.push(len);
            len = stride
                .checked_pow(k as u32)
                .and_then(|rows| rows.checked_mul(sigma))
                .and_then(|block| block.checked_add(len))
                .expect("transition table size overflows usize");
        }
        let mut slots = vec![self.empty.clone(); len];
        for (k, &start) in self.offsets.iter().enumerate() {
            let mut rows = Tuples::<usize>::new(k, self.stride);
            let mut from = start;
            while let Some(tuple) = rows.next_tuple() {
                let to = offsets[k] + tuple.iter().rev().fold(0, |r, &c| r * stride + c) * sigma;
                slots[to..to + sigma].swap_with_slice(&mut self.slots[from..from + sigma]);
                from += sigma;
            }
        }
        let mut tuples = Vec::new();
        let mut all = Tuples::<StateId>::new(rank, stride);
        while let Some(tuple) = all.next_tuple() {
            tuples.extend_from_slice(tuple);
        }
        self.stride = stride;
        self.offsets = offsets;
        self.slots = slots;
        self.tuples = tuples;
    }

    /// Every slot over the current states as `(children, label, value)`:
    /// children in lexicographic order, so a tuple comes right before its
    /// extensions, then labels. It walks the `max_rank`-tuples with
    /// coordinate 0 slowest, each one standing in for itself and for its
    /// prefixes that drop only trailing zeros (they share its row).
    fn entries(&self) -> impl Iterator<Item = (&[StateId], Symbol, &T)> + '_ {
        let rank = self.max_rank;
        // a reversed tuple of `Tuples` turns coordinate 0 slowest
        let mut reversed =
            (!self.offsets.is_empty()).then(|| Tuples::<usize>::new(rank, self.num_states));
        std::iter::from_fn(move || {
            let t = reversed.as_mut()?.next_tuple()?;
            let zeros = t.iter().take_while(|&&c| c == 0).count();
            let row = t.iter().fold(0, |r, &c| r * self.stride + c);
            Some((rank - zeros..=rank).map(move |k| (k, row)))
        })
        .flatten()
        .flat_map(move |(k, row)| {
            let children = &self.tuples[row * rank..][..k];
            let start = self.offsets[k] + row * self.alphabet_len;
            self.slots[start..start + self.alphabet_len]
                .iter()
                .enumerate()
                .map(move |(a, v)| (children, Symbol::from_index(a), v))
        })
    }
}

/// Marks an undefined slot of a [`Dbta`]'s table.
const UNDEFINED: StateId = StateId(u32::MAX);

/// A deterministic bottom-up ranked tree automaton `(Q, Σ, δ, F)`.
///
/// The transition function maps `(q₁…qₙ, σ)` — the children's states and the
/// node's label — to a state, for `n ≤ m` (the rank). Leaves use the `n = 0`
/// case `δ(σ)`. Missing transitions reject.
///
/// ```
/// use qa_base::Alphabet;
/// use qa_core::ranked::Dbta;
/// use qa_trees::sexpr::from_sexpr;
/// let mut sigma = Alphabet::new();
/// let (and, or, zero, one) = (sigma.intern("AND"), sigma.intern("OR"),
///                             sigma.intern("0"), sigma.intern("1"));
/// let circuit = Dbta::boolean_circuit(&sigma);
/// let t = from_sexpr("(OR (AND 1 0) 1)", &mut sigma).unwrap();
/// assert!(circuit.accepts(&t));
/// let t = from_sexpr("(AND (OR 0 0) 1)", &mut sigma).unwrap();
/// assert!(!circuit.accepts(&t));
/// ```
#[derive(Clone, Debug)]
pub struct Dbta {
    /// `(children states, label) → state`, [`UNDEFINED`] where missing.
    delta: Table<StateId>,
    finals: Vec<bool>,
}

impl Dbta {
    /// An automaton with no states/transitions (rejects everything).
    pub fn new(alphabet_len: usize, max_rank: usize) -> Self {
        Dbta {
            delta: Table::new(alphabet_len, max_rank, UNDEFINED),
            finals: Vec::new(),
        }
    }

    /// Add a fresh state.
    pub fn add_state(&mut self) -> StateId {
        self.finals.push(false);
        self.delta.add_state()
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.finals.len()
    }

    /// Alphabet size.
    pub fn alphabet_len(&self) -> usize {
        self.delta.alphabet_len
    }

    /// Maximum rank `m`.
    pub fn max_rank(&self) -> usize {
        self.delta.max_rank
    }

    /// Mark `state` final.
    pub fn set_final(&mut self, state: StateId, is_final: bool) {
        self.finals[state.index()] = is_final;
    }

    /// Whether `state` is final.
    pub fn is_final(&self, state: StateId) -> bool {
        self.finals[state.index()]
    }

    /// Define `δ(children, label) = state` (overwrites). Panics on an arity
    /// above the rank, a label outside the alphabet or an unknown child.
    pub fn set_transition(&mut self, children: &[StateId], label: Symbol, state: StateId) {
        *self.delta.get_mut(children, label) = state;
    }

    /// Shorthand for the leaf case `δ(σ)`.
    pub fn set_leaf(&mut self, label: Symbol, state: StateId) {
        self.set_transition(&[], label, state);
    }

    /// `δ(children, label)`, if defined; `None` as well for an arity above
    /// the rank, a label outside the alphabet or an unknown child state.
    #[inline]
    pub fn transition(&self, children: &[StateId], label: Symbol) -> Option<StateId> {
        self.delta
            .get(children, label)
            .copied()
            .filter(|&q| q != UNDEFINED)
    }

    /// Iterate over all defined transitions, in `(children, label)` order
    /// (children compared lexicographically) — deterministic so witness
    /// shapes, trimmed/minimized state numbering and compiled-query layouts
    /// are reproducible across runs (the bench_obs regression gate depends
    /// on this).
    pub fn transitions(&self) -> impl Iterator<Item = (&[StateId], Symbol, StateId)> + '_ {
        self.delta
            .entries()
            .filter(|&(_, _, &q)| q != UNDEFINED)
            .map(|(c, s, &q)| (c, s, q))
    }

    /// `δ*(t)`: the state at the root, if every transition is defined.
    /// Iterative (postorder).
    pub fn run(&self, tree: &Tree) -> Option<StateId> {
        let table = self.run_table(tree)?;
        Some(table[tree.root().index()])
    }

    /// [`Dbta::run`] with an [`Observer`] (see [`Dbta::run_table_with`]).
    pub fn run_with<O: Observer>(&self, tree: &Tree, obs: &mut O) -> Option<StateId> {
        let table = self.run_table_with(tree, obs)?;
        Some(table[tree.root().index()])
    }

    /// The per-node state table `δ*(t_v)`, if the run completes.
    pub fn run_table(&self, tree: &Tree) -> Option<Vec<StateId>> {
        self.run_table_with(tree, &mut NoopObserver)
    }

    /// [`Dbta::run_table`] with an [`Observer`]: each node fold is a
    /// [`Counter::TableLookups`], each defined transition a
    /// [`Counter::Steps`] plus a [`Machine::Dbtar`]
    /// [`Observer::state_visit`] of the reached state and one
    /// [`Observer::transition_fired`] per folded child; the total work is
    /// recorded under [`Series::RunSteps`]. With [`NoopObserver`] this
    /// monomorphizes to exactly `run_table`.
    pub fn run_table_with<O: Observer>(&self, tree: &Tree, obs: &mut O) -> Option<Vec<StateId>> {
        let mut table: Vec<Option<StateId>> = vec![None; tree.num_nodes()];
        let mut children: Vec<StateId> = Vec::new();
        let mut steps = 0u64;
        for v in tree.postorder() {
            children.clear();
            for c in tree.children(v) {
                children.push(table[c.index()]?);
            }
            if children.len() > self.max_rank() {
                return None;
            }
            let label = tree.label(v);
            obs.count(Counter::TableLookups, 1);
            let q2 = self.transition(&children, label);
            if let Some(q2) = q2 {
                steps += 1;
                obs.count(Counter::Steps, 1);
                obs.state_visit(Machine::Dbtar, q2.index() as u32, label.index() as u32);
                if obs.is_enabled() {
                    for &c in &children {
                        obs.transition_fired(
                            Machine::Dbtar,
                            c.index() as u32,
                            label.index() as u32,
                            q2.index() as u32,
                        );
                    }
                }
            }
            table[v.index()] = q2;
            table[v.index()]?;
        }
        obs.record(Series::RunSteps, steps);
        table.into_iter().collect()
    }

    /// Whether the automaton accepts `tree`.
    pub fn accepts(&self, tree: &Tree) -> bool {
        self.run(tree).is_some_and(|q| self.is_final(q))
    }

    /// Example 4.2's one-way core: evaluate Boolean circuits over
    /// `{AND, OR, 0, 1}` and accept those evaluating to 1. States: 0, 1.
    ///
    /// The alphabet must contain symbols named `AND`, `OR`, `0`, `1`.
    pub fn boolean_circuit(alphabet: &qa_base::Alphabet) -> Dbta {
        let and = alphabet.symbol("AND");
        let or = alphabet.symbol("OR");
        let zero = alphabet.symbol("0");
        let one = alphabet.symbol("1");
        let mut b = Dbta::new(alphabet.len(), 2);
        let q0 = b.add_state();
        let q1 = b.add_state();
        b.set_final(q1, true);
        b.set_leaf(zero, q0);
        b.set_leaf(one, q1);
        for (x, qx) in [(false, q0), (true, q1)] {
            for (y, qy) in [(false, q0), (true, q1)] {
                b.set_transition(&[qx, qy], and, if x && y { q1 } else { q0 });
                b.set_transition(&[qx, qy], or, if x || y { q1 } else { q0 });
            }
        }
        b
    }
}

/// A nondeterministic bottom-up ranked tree automaton.
///
/// `δ(q₁…qₙ, σ)` is a *set* of states. Acceptance via the standard
/// reachable-state-sets computation (no backtracking).
#[derive(Clone, Debug)]
pub struct Nbta {
    /// `(children states, label) → target set`, empty where missing.
    delta: Table<Vec<StateId>>,
    finals: Vec<bool>,
}

impl Nbta {
    /// An automaton with no states/transitions (rejects everything).
    pub fn new(alphabet_len: usize, max_rank: usize) -> Self {
        Nbta {
            delta: Table::new(alphabet_len, max_rank, Vec::new()),
            finals: Vec::new(),
        }
    }

    /// Add a fresh state.
    pub fn add_state(&mut self) -> StateId {
        self.finals.push(false);
        self.delta.add_state()
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.finals.len()
    }

    /// Alphabet size.
    pub fn alphabet_len(&self) -> usize {
        self.delta.alphabet_len
    }

    /// Maximum rank.
    pub fn max_rank(&self) -> usize {
        self.delta.max_rank
    }

    /// Mark `state` final.
    pub fn set_final(&mut self, state: StateId, is_final: bool) {
        self.finals[state.index()] = is_final;
    }

    /// Whether `state` is final.
    pub fn is_final(&self, state: StateId) -> bool {
        self.finals[state.index()]
    }

    /// Add `state` to `δ(children, label)`. Panics on an arity above the
    /// rank, a label outside the alphabet or an unknown child.
    pub fn add_transition(&mut self, children: &[StateId], label: Symbol, state: StateId) {
        let targets = self.delta.get_mut(children, label);
        if !targets.contains(&state) {
            targets.push(state);
        }
    }

    /// The target set of `δ(children, label)`; empty as well for an arity
    /// above the rank, a label outside the alphabet or an unknown child.
    pub fn targets(&self, children: &[StateId], label: Symbol) -> &[StateId] {
        self.delta.get(children, label).map_or(&[], Vec::as_slice)
    }

    /// Iterate over all transitions, in the order of
    /// [`Dbta::transitions`].
    pub fn transitions(&self) -> impl Iterator<Item = (&[StateId], Symbol, &[StateId])> + '_ {
        self.delta
            .entries()
            .filter(|(_, _, qs)| !qs.is_empty())
            .map(|(c, s, qs)| (c, s, qs.as_slice()))
    }

    /// `δ*(t)`: the set of states reachable at the root (sorted).
    pub fn run(&self, tree: &Tree) -> Vec<StateId> {
        self.run_with(tree, &mut NoopObserver)
    }

    /// [`Nbta::run`] with an [`Observer`]: each children-tuple lookup is a
    /// [`Counter::TableLookups`], each fresh state reached at a node a
    /// [`Counter::Steps`] plus a [`Machine::Dbtar`]
    /// [`Observer::state_visit`]. With [`NoopObserver`] this monomorphizes
    /// to exactly `run`.
    pub fn run_with<O: Observer>(&self, tree: &Tree, obs: &mut O) -> Vec<StateId> {
        let mut table: Vec<Vec<StateId>> = vec![Vec::new(); tree.num_nodes()];
        let mut children: Vec<StateId> = Vec::new();
        for v in tree.postorder() {
            let kids = tree.children(v);
            if kids.len() > self.max_rank() {
                continue; // no transition possible: empty state set
            }
            let label = tree.label(v);
            let mut acc: Vec<StateId> = Vec::new();
            // one lookup per tuple drawn from the children's state sets
            let mut picks =
                Tuples::<usize>::mixed(kids.iter().map(|c| table[c.index()].len()).collect());
            while let Some(pick) = picks.next_tuple() {
                children.clear();
                children.extend(kids.iter().zip(pick).map(|(c, &i)| table[c.index()][i]));
                obs.count(Counter::TableLookups, 1);
                for &q in self.targets(&children, label) {
                    if !acc.contains(&q) {
                        acc.push(q);
                        obs.count(Counter::Steps, 1);
                        obs.state_visit(Machine::Dbtar, q.index() as u32, label.index() as u32);
                    }
                }
            }
            acc.sort_unstable();
            table[v.index()] = acc;
        }
        table[tree.root().index()].clone()
    }

    /// Whether the automaton accepts `tree`.
    pub fn accepts(&self, tree: &Tree) -> bool {
        self.run(tree).iter().any(|&q| self.is_final(q))
    }
}

impl From<&Dbta> for Nbta {
    fn from(d: &Dbta) -> Nbta {
        let mut n = Nbta::new(d.alphabet_len(), d.max_rank());
        for _ in 0..d.num_states() {
            let s = n.add_state();
            n.set_final(s, d.is_final(s));
        }
        for (children, label, q) in d.transitions() {
            n.add_transition(children, label, q);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_base::rng::{Rng, StdRng};
    use qa_base::Alphabet;
    use qa_trees::sexpr::from_sexpr;
    use std::collections::{BTreeMap, BTreeSet};

    fn circuit_alpha() -> Alphabet {
        Alphabet::from_names(["AND", "OR", "0", "1"])
    }

    #[test]
    fn transitions_iterate_in_sorted_order() {
        // `transitions()` feeds witness assembly, trim/minimize numbering
        // and MSO compilation; its order must not depend on HashMap state.
        let a = circuit_alpha();
        let b = Dbta::boolean_circuit(&a);
        let keys: Vec<(Vec<StateId>, Symbol)> =
            b.transitions().map(|(c, s, _)| (c.to_vec(), s)).collect();
        let mut sorted = keys.clone();
        sorted.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.index().cmp(&y.1.index())));
        assert_eq!(keys, sorted, "transitions() must yield sorted entries");
        assert!(!keys.is_empty());

        // Two identically built machines agree entry-for-entry, which a raw
        // HashMap iteration (per-instance RandomState) does not guarantee.
        let b2 = Dbta::boolean_circuit(&a);
        let keys2: Vec<(Vec<StateId>, Symbol)> =
            b2.transitions().map(|(c, s, _)| (c.to_vec(), s)).collect();
        assert_eq!(keys, keys2);
    }

    #[test]
    fn boolean_circuit_evaluation() {
        let mut a = circuit_alpha();
        let b = Dbta::boolean_circuit(&a);
        for (s, val) in [
            ("1", true),
            ("0", false),
            ("(AND 1 1)", true),
            ("(AND 1 0)", false),
            ("(OR 0 0)", false),
            ("(OR (AND 1 1) 0)", true),
            ("(AND (OR 0 1) (OR 1 0))", true),
            ("(AND (OR 0 1) (AND 1 0))", false),
        ] {
            let t = from_sexpr(s, &mut a).unwrap();
            assert_eq!(b.accepts(&t), val, "{s}");
        }
    }

    #[test]
    fn missing_transition_rejects() {
        let mut a = circuit_alpha();
        let b = Dbta::boolean_circuit(&a);
        // a unary AND node has no transition
        let t = from_sexpr("(AND 1)", &mut a).unwrap();
        assert_eq!(b.run(&t), None);
        assert!(!b.accepts(&t));
        // rank exceeded
        let t = from_sexpr("(AND 1 1 1)", &mut a).unwrap();
        assert!(!b.accepts(&t));
    }

    #[test]
    fn run_table_exposes_subtree_states() {
        let mut a = circuit_alpha();
        let b = Dbta::boolean_circuit(&a);
        let t = from_sexpr("(OR (AND 1 0) 1)", &mut a).unwrap();
        let table = b.run_table(&t).unwrap();
        let and_node = t.child(t.root(), 0);
        assert_eq!(table[and_node.index()], StateId::from_index(0)); // evaluates to 0
        assert_eq!(table[t.root().index()], StateId::from_index(1));
    }

    #[test]
    fn nbta_from_dbta_agrees() {
        let mut a = circuit_alpha();
        let d = Dbta::boolean_circuit(&a);
        let n = Nbta::from(&d);
        for s in ["1", "(AND 1 0)", "(OR (AND 1 1) 0)", "(AND 1)"] {
            let t = from_sexpr(s, &mut a).unwrap();
            assert_eq!(d.accepts(&t), n.accepts(&t), "{s}");
        }
    }

    #[test]
    fn nbta_genuine_nondeterminism() {
        // Accepts unary chains over {a} whose height is >= 1, by guessing at
        // the leaf whether the chain is even or odd and verifying at the root.
        let mut a = Alphabet::new();
        let sym = a.intern("a");
        let mut n = Nbta::new(1, 1);
        let even = n.add_state();
        let odd = n.add_state();
        n.set_final(odd, true);
        n.add_transition(&[], sym, even); // leaf counts as height 0: even
        n.add_transition(&[even], sym, odd);
        n.add_transition(&[odd], sym, even);
        let mut t = qa_trees::Tree::leaf(sym);
        let mut cur = t.root();
        assert!(!n.accepts(&t)); // height 0
        for h in 1..=5 {
            cur = t.add_child(cur, sym);
            assert_eq!(n.accepts(&t), h % 2 == 1, "height {h}");
        }
    }

    #[test]
    fn tuples_cover_mixed_boxes_and_the_empty_tuple() {
        let mut empty = Tuples::<usize>::new(0, 5);
        assert_eq!(empty.next_tuple(), Some(&[][..]));
        assert_eq!(empty.next_tuple(), None);
        assert_eq!(empty.next_tuple(), None);
        assert_eq!(Tuples::<usize>::mixed(vec![2, 0, 3]).next_tuple(), None);
        let mut mixed = Tuples::<usize>::mixed(vec![3, 1, 2]);
        let mut seen = Vec::new();
        while let Some(t) = mixed.next_tuple() {
            seen.push(t.to_vec());
        }
        let expect: Vec<Vec<usize>> = (0..2)
            .flat_map(|z| (0..3).map(move |x| vec![x, 0, z]))
            .collect();
        assert_eq!(seen, expect);
    }

    /// The table's reference: a sorted map, whose key order is the
    /// documented `transitions()` order.
    type Model<V> = BTreeMap<(Vec<StateId>, usize), V>;

    /// Every child tuple of arity up to `rank + 1` over `0..=states`, with
    /// every label in `0..=sigma`: one arity, one state and one label past
    /// the automaton's.
    fn probes(rank: usize, states: usize, sigma: usize) -> Vec<(Vec<StateId>, Symbol)> {
        let mut out = Vec::new();
        for k in 0..=rank + 1 {
            let mut tuples = Tuples::<StateId>::new(k, states + 1);
            while let Some(t) = tuples.next_tuple() {
                for a in 0..=sigma {
                    out.push((t.to_vec(), Symbol::from_index(a)));
                }
            }
        }
        out
    }

    /// The states the model reaches at the root (sorted), matching model
    /// entries against the children's state sets node by node.
    fn model_run(model: &Model<Vec<StateId>>, tree: &Tree) -> Vec<StateId> {
        let mut at: Vec<BTreeSet<StateId>> = vec![BTreeSet::new(); tree.num_nodes()];
        for v in tree.postorder() {
            let kids = tree.children(v);
            let mut reached = BTreeSet::new();
            for ((children, label), targets) in model {
                if *label == tree.label(v).index()
                    && children.len() == kids.len()
                    && children
                        .iter()
                        .zip(kids)
                        .all(|(q, c)| at[c.index()].contains(q))
                {
                    reached.extend(targets.iter().copied());
                }
            }
            at[v.index()] = reached;
        }
        at[tree.root().index()].iter().copied().collect()
    }

    #[test]
    fn table_agrees_with_a_reference_map_while_it_grows() {
        let mut rng = StdRng::seed_from_u64(0x7ab1e);
        for round in 0..80 {
            let sigma = rng.gen_range(1..=3);
            let rank = rng.gen_range(0..=3);
            let mut d = Dbta::new(sigma, rank);
            let mut n = Nbta::new(sigma, rank);
            let mut dm: Model<StateId> = BTreeMap::new();
            let mut nm: Model<Vec<StateId>> = BTreeMap::new();
            let mut states = 0;
            // add_state interleaved with writes, so the table re-lays out
            // after it already holds transitions
            for _ in 0..rng.gen_range(1..48) {
                if states == 0 || (states < 6 && rng.gen_bool(0.2)) {
                    d.add_state();
                    n.add_state();
                    states += 1;
                    continue;
                }
                let k = rng.gen_range(0..=rank);
                let children: Vec<StateId> = (0..k)
                    .map(|_| StateId::from_index(rng.gen_range(0..states)))
                    .collect();
                let label = rng.gen_range(0..sigma);
                let q = StateId::from_index(rng.gen_range(0..states));
                d.set_transition(&children, Symbol::from_index(label), q);
                n.add_transition(&children, Symbol::from_index(label), q);
                dm.insert((children.clone(), label), q);
                let targets = nm.entry((children, label)).or_default();
                if !targets.contains(&q) {
                    targets.push(q);
                }
            }
            let finals: Vec<bool> = (0..states).map(|_| rng.gen_bool(0.5)).collect();
            for (i, &f) in finals.iter().enumerate() {
                d.set_final(StateId::from_index(i), f);
                n.set_final(StateId::from_index(i), f);
            }

            for (children, label) in probes(rank, states, sigma) {
                let key = (children.clone(), label.index());
                let want = dm.get(&key).copied();
                assert_eq!(
                    d.transition(&children, label),
                    want,
                    "round {round}: {key:?}"
                );
                let want = nm.get(&key).map_or(&[][..], Vec::as_slice);
                assert_eq!(n.targets(&children, label), want, "round {round}: {key:?}");
            }

            let listed: Vec<_> = d
                .transitions()
                .map(|(c, s, q)| ((c.to_vec(), s.index()), q))
                .collect();
            let want: Vec<_> = dm.iter().map(|(k, &q)| (k.clone(), q)).collect();
            assert_eq!(listed, want, "round {round}");
            let listed: Vec<_> = n
                .transitions()
                .map(|(c, s, qs)| ((c.to_vec(), s.index()), qs.to_vec()))
                .collect();
            let want: Vec<_> = nm.iter().map(|(k, qs)| (k.clone(), qs.clone())).collect();
            assert_eq!(listed, want, "round {round}");

            // trees with a label outside the alphabet and nodes above the rank
            let deterministic: Model<Vec<StateId>> =
                dm.iter().map(|(k, &q)| (k.clone(), vec![q])).collect();
            let labels: Vec<Symbol> = (0..=sigma).map(Symbol::from_index).collect();
            for size in [1, 2, 3, 5, 8] {
                let t = qa_trees::generate::random(&mut rng, &labels, size, Some(rank + 1));
                let want = model_run(&deterministic, &t).first().copied();
                assert_eq!(d.run(&t), want, "round {round}: {t:?}");
                assert_eq!(d.accepts(&t), want.is_some_and(|q| finals[q.index()]));
                let want = model_run(&nm, &t);
                assert_eq!(n.run(&t), want, "round {round}: {t:?}");
                assert_eq!(n.accepts(&t), want.iter().any(|q| finals[q.index()]));
            }
        }
    }
}
