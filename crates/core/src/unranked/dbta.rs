//! Bottom-up unranked tree automata (Definition 5.1).

use qa_base::{Error, Result, Symbol};
use qa_obs::{Counter, Machine, NoopObserver, Observer, Series};
use qa_strings::{Dfa, Nfa, StateId};
use qa_trees::Tree;

/// A nondeterministic bottom-up unranked tree automaton `(Q, Σ, F, δ)`:
/// each transition `δ(q, a)` is a *regular language* over `Q`, represented
/// by an [`Nfa`] whose alphabet is the automaton's own state set.
///
/// `q ∈ δ*(σ(t₁…tₙ))` iff some choice of `qᵢ ∈ δ*(tᵢ)` spells a word of
/// `δ(q, σ)`. Leaves use the ε-membership case.
///
/// ```
/// use qa_base::Alphabet;
/// use qa_core::unranked::Nbtau;
/// use qa_trees::sexpr::from_sexpr;
/// let mut sigma = Alphabet::new();
/// sigma.intern("AND"); sigma.intern("OR"); sigma.intern("0"); sigma.intern("1");
/// let circuit = Nbtau::boolean_circuit(&sigma);
/// let t = from_sexpr("(OR (AND 1 1 0) 1 0)", &mut sigma).unwrap();
/// assert!(circuit.accepts(&t));
/// ```
#[derive(Clone, Debug)]
pub struct Nbtau {
    alphabet_len: usize,
    num_states: usize,
    finals: Vec<bool>,
    /// `delta[q][a]`: `δ(q, a)` as an NFA over the state alphabet; `None`
    /// = ∅.
    delta: Vec<Vec<Option<Nfa>>>,
}

impl Nbtau {
    /// An automaton with no states (rejects everything).
    pub fn new(alphabet_len: usize) -> Self {
        Nbtau {
            alphabet_len,
            num_states: 0,
            finals: Vec::new(),
            delta: Vec::new(),
        }
    }

    /// Add a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId::from_index(self.num_states);
        self.num_states += 1;
        self.finals.push(false);
        self.delta.push(vec![None; self.alphabet_len]);
        id
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Alphabet size.
    pub fn alphabet_len(&self) -> usize {
        self.alphabet_len
    }

    /// Mark `state` final.
    pub fn set_final(&mut self, state: StateId, is_final: bool) {
        self.finals[state.index()] = is_final;
    }

    /// Whether `state` is final.
    pub fn is_final(&self, state: StateId) -> bool {
        self.finals[state.index()]
    }

    /// Define `δ(state, label)` as the language of `nfa` (over the state
    /// alphabet). Errors if the NFA's alphabet size differs from the current
    /// number of states — add all states first.
    pub fn set_language(&mut self, state: StateId, label: Symbol, nfa: Nfa) -> Result<()> {
        if nfa.alphabet_len() != self.num_states {
            return Err(Error::ill_formed(
                "NBTAu",
                format!(
                    "transition NFA alphabet {} != state count {}",
                    nfa.alphabet_len(),
                    self.num_states
                ),
            ));
        }
        self.delta[state.index()][label.index()] = Some(nfa);
        Ok(())
    }

    /// The transition language `δ(state, label)`, if non-empty.
    pub fn language(&self, state: StateId, label: Symbol) -> Option<&Nfa> {
        self.delta[state.index()][label.index()].as_ref()
    }

    /// Iterate over all defined transition languages, in `(state, label)`
    /// order: the rows are walked in place, so fixpoint step counts and
    /// witness shapes are reproducible across runs (the bench_obs
    /// regression gate depends on this).
    pub fn languages(&self) -> impl Iterator<Item = (StateId, Symbol, &Nfa)> + '_ {
        self.delta.iter().enumerate().flat_map(|(q, row)| {
            row.iter().enumerate().filter_map(move |(a, nfa)| {
                Some((StateId::from_index(q), Symbol::from_index(a), nfa.as_ref()?))
            })
        })
    }

    /// `δ*(t)` at every node: `table[v]` is the sorted set of states
    /// assignable to the subtree rooted at `v`.
    pub fn run_table(&self, tree: &Tree) -> Vec<Vec<StateId>> {
        self.run_table_with(tree, &mut NoopObserver)
    }

    /// [`Nbtau::run_table`] with an [`Observer`]: each candidate-state NFA
    /// simulation is a [`Counter::TableLookups`], each state admitted at a
    /// node a [`Counter::Steps`] plus a [`Machine::Nbtau`]
    /// [`Observer::state_visit`]; the total admitted-state count lands in
    /// [`Series::RunSteps`]. With [`NoopObserver`] this monomorphizes to
    /// exactly `run_table`.
    pub fn run_table_with<O: Observer>(&self, tree: &Tree, obs: &mut O) -> Vec<Vec<StateId>> {
        let mut table: Vec<Vec<StateId>> = vec![Vec::new(); tree.num_nodes()];
        let mut steps = 0u64;
        for v in tree.postorder() {
            let label = tree.label(v);
            let mut acc = Vec::new();
            for q_idx in 0..self.num_states {
                let q = StateId::from_index(q_idx);
                let Some(nfa) = self.language(q, label) else {
                    continue;
                };
                obs.count(Counter::TableLookups, 1);
                // Does δ(q, label) contain a word w with wᵢ ∈ table[childᵢ]?
                // Simulate the NFA set-wise over the children's state sets.
                let mut cur = nfa.epsilon_closure(nfa.initial_states());
                let mut dead = false;
                for &c in tree.children(v) {
                    let mut next: Vec<StateId> = Vec::new();
                    for &sym_state in &table[c.index()] {
                        for s in nfa.step(&cur, Symbol::from_index(sym_state.index())) {
                            if !next.contains(&s) {
                                next.push(s);
                            }
                        }
                    }
                    if next.is_empty() {
                        dead = true;
                        break;
                    }
                    next.sort_unstable();
                    cur = next;
                }
                if !dead && cur.iter().any(|&s| nfa.is_accepting(s)) {
                    steps += 1;
                    obs.count(Counter::Steps, 1);
                    obs.state_visit(Machine::Nbtau, q.index() as u32, label.index() as u32);
                    acc.push(q);
                }
            }
            table[v.index()] = acc;
        }
        obs.record(Series::RunSteps, steps);
        table
    }

    /// `δ*(t)` at the root.
    pub fn run(&self, tree: &Tree) -> Vec<StateId> {
        self.run_table(tree).swap_remove(tree.root().index())
    }

    /// Whether the automaton accepts `tree`.
    pub fn accepts(&self, tree: &Tree) -> bool {
        self.run(tree).iter().any(|&q| self.is_final(q))
    }

    /// Whether the automaton is deterministic: `δ(q, a) ∩ δ(q', a) = ∅` for
    /// all `q ≠ q'` (checked by product emptiness).
    pub fn is_deterministic(&self) -> bool {
        for a_idx in 0..self.alphabet_len {
            let a = Symbol::from_index(a_idx);
            let langs: Vec<(StateId, &Nfa)> = (0..self.num_states)
                .map(StateId::from_index)
                .filter_map(|q| self.language(q, a).map(|n| (q, n)))
                .collect();
            for i in 0..langs.len() {
                for j in i + 1..langs.len() {
                    if !langs[i].1.intersect(langs[j].1).is_empty() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Example 5.9's evaluation core as a one-way automaton: Boolean
    /// circuits with arbitrary fan-in over `{AND, OR, 0, 1}`, accepting
    /// those evaluating to 1. States: `q0` (evaluates 0), `q1` (evaluates 1).
    ///
    /// The alphabet must contain symbols named `AND`, `OR`, `0`, `1`.
    pub fn boolean_circuit(alphabet: &qa_base::Alphabet) -> Nbtau {
        use qa_strings::Regex;
        let and = alphabet.symbol("AND");
        let or = alphabet.symbol("OR");
        let zero = alphabet.symbol("0");
        let one = alphabet.symbol("1");
        let mut n = Nbtau::new(alphabet.len());
        let q0 = n.add_state();
        let q1 = n.add_state();
        n.set_final(q1, true);
        let s0 = Regex::Sym(Symbol::from_index(q0.index()));
        let s1 = Regex::Sym(Symbol::from_index(q1.index()));
        let any = s0.clone().alt(s1.clone());
        // leaves: ε ∈ δ(q_b, b)
        n.set_language(q0, zero, Regex::Epsilon.to_nfa(2)).unwrap();
        n.set_language(q1, one, Regex::Epsilon.to_nfa(2)).unwrap();
        // AND: all ones → 1; at least one zero → 0
        n.set_language(q1, and, s1.clone().plus().to_nfa(2))
            .unwrap();
        n.set_language(
            q0,
            and,
            Regex::seq([any.clone().star(), s0.clone(), any.clone().star()]).to_nfa(2),
        )
        .unwrap();
        // OR: at least one one → 1; all zeros → 0
        n.set_language(
            q1,
            or,
            Regex::seq([any.clone().star(), s1, any.star()]).to_nfa(2),
        )
        .unwrap();
        n.set_language(q0, or, s0.plus().to_nfa(2)).unwrap();
        n
    }
}

/// A deterministic bottom-up unranked tree automaton.
///
/// Determinism is guaranteed *by construction*: each symbol `a` has one
/// total classifier DFA over the state alphabet, and an assignment from its
/// accepting classifier states to automaton states. `δ(q, a)` is then the
/// set of words the classifier maps to `q` — automatically pairwise
/// disjoint, as Definition 5.1 requires.
#[derive(Clone, Debug)]
pub struct Dbtau {
    alphabet_len: usize,
    num_states: usize,
    finals: Vec<bool>,
    /// One classifier per symbol, with the automaton state assigned to
    /// each classifier state.
    classifiers: Vec<Option<(Dfa, Vec<Option<StateId>>)>>,
}

impl Dbtau {
    /// An automaton with no states.
    pub fn new(alphabet_len: usize) -> Self {
        Dbtau {
            alphabet_len,
            num_states: 0,
            finals: Vec::new(),
            classifiers: vec![None; alphabet_len],
        }
    }

    /// Add a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId::from_index(self.num_states);
        self.num_states += 1;
        self.finals.push(false);
        id
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Alphabet size.
    pub fn alphabet_len(&self) -> usize {
        self.alphabet_len
    }

    /// Mark `state` final.
    pub fn set_final(&mut self, state: StateId, is_final: bool) {
        self.finals[state.index()] = is_final;
    }

    /// Whether `state` is final.
    pub fn is_final(&self, state: StateId) -> bool {
        self.finals[state.index()]
    }

    /// Install the classifier for `label`: a DFA over the state alphabet
    /// plus the mapping from classifier states to assigned automaton states.
    /// Errors if a mapped classifier state is not a state of `dfa`.
    pub fn set_classifier(
        &mut self,
        label: Symbol,
        dfa: Dfa,
        assign: impl IntoIterator<Item = (StateId, StateId)>,
    ) -> Result<()> {
        if dfa.alphabet_len() != self.num_states {
            return Err(Error::ill_formed(
                "DBTAu",
                "classifier alphabet must equal the state count",
            ));
        }
        let mut table = vec![None; dfa.num_states()];
        for (cs, q) in assign {
            let Some(slot) = table.get_mut(cs.index()) else {
                return Err(Error::ill_formed(
                    "DBTAu",
                    format!("classifier state {cs:?} is not a state of the classifier"),
                ));
            };
            *slot = Some(q);
        }
        self.classifiers[label.index()] = Some((dfa, table));
        Ok(())
    }

    /// `δ*(t_v)` for every node, if defined everywhere.
    pub fn run_table(&self, tree: &Tree) -> Option<Vec<StateId>> {
        self.run_table_with(tree, &mut NoopObserver)
    }

    /// [`Dbtau::run_table`] with an [`Observer`]: each classifier step over
    /// a child is a [`Counter::TableLookups`], each assigned node state a
    /// [`Counter::Steps`] plus a [`Machine::Dbtau`]
    /// [`Observer::state_visit`] and one [`Observer::transition_fired`] per
    /// folded child; assigned nodes land in [`Series::RunSteps`]. With
    /// [`NoopObserver`] this monomorphizes to exactly `run_table`.
    pub fn run_table_with<O: Observer>(&self, tree: &Tree, obs: &mut O) -> Option<Vec<StateId>> {
        let mut table: Vec<Option<StateId>> = vec![None; tree.num_nodes()];
        let mut steps = 0u64;
        for v in tree.postorder() {
            let label = tree.label(v);
            let (dfa, assign) = self.classifiers[label.index()].as_ref()?;
            let mut cs = dfa.initial();
            for &c in tree.children(v) {
                let q = table[c.index()]?;
                obs.count(Counter::TableLookups, 1);
                cs = dfa.next(cs, Symbol::from_index(q.index()))?;
            }
            let q2 = assign[cs.index()];
            if let Some(q2) = q2 {
                steps += 1;
                obs.count(Counter::Steps, 1);
                obs.state_visit(Machine::Dbtau, q2.index() as u32, label.index() as u32);
                if obs.is_enabled() {
                    for &c in tree.children(v) {
                        if let Some(q) = table[c.index()] {
                            obs.transition_fired(
                                Machine::Dbtau,
                                q.index() as u32,
                                label.index() as u32,
                                q2.index() as u32,
                            );
                        }
                    }
                }
            }
            table[v.index()] = q2;
            table[v.index()]?;
        }
        obs.record(Series::RunSteps, steps);
        table.into_iter().collect()
    }

    /// `δ*(t)` at the root.
    pub fn run(&self, tree: &Tree) -> Option<StateId> {
        self.run_table(tree).map(|t| t[tree.root().index()])
    }

    /// Whether the automaton accepts `tree`.
    pub fn accepts(&self, tree: &Tree) -> bool {
        self.run(tree).is_some_and(|q| self.is_final(q))
    }

    /// View as an [`Nbtau`] (each `δ(q, a)` = classifier words assigned to
    /// `q`).
    pub fn to_nbtau(&self) -> Nbtau {
        let mut n = Nbtau::new(self.alphabet_len);
        for _ in 0..self.num_states {
            n.add_state();
        }
        for i in 0..self.num_states {
            let s = StateId::from_index(i);
            n.set_final(s, self.is_final(s));
        }
        for (a_idx, c) in self.classifiers.iter().enumerate() {
            let Some((dfa, assign)) = c else { continue };
            let label = Symbol::from_index(a_idx);
            for q_idx in 0..self.num_states {
                let q = StateId::from_index(q_idx);
                // language: words whose classifier state maps to q
                let mut d = dfa.clone();
                for (cs_idx, &owner) in assign.iter().enumerate() {
                    d.set_accepting(StateId::from_index(cs_idx), owner == Some(q));
                }
                if !d.is_empty() {
                    n.set_language(q, label, d.to_nfa())
                        .expect("same state count");
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_base::Alphabet;
    use qa_trees::sexpr::from_sexpr;

    fn alpha() -> Alphabet {
        Alphabet::from_names(["AND", "OR", "0", "1"])
    }

    /// Reference evaluator for variadic circuits.
    fn eval(t: &Tree, a: &Alphabet) -> bool {
        let one = a.symbol("1");
        let and = a.symbol("AND");
        let vals = qa_trees::traverse::fold_bottom_up(t, |t, v, kids: &[bool]| {
            if t.is_leaf(v) {
                t.label(v) == one
            } else if t.label(v) == and {
                kids.iter().all(|&b| b)
            } else {
                kids.iter().any(|&b| b)
            }
        });
        vals[t.root().index()]
    }

    #[test]
    fn variadic_circuit_evaluation() {
        let mut a = alpha();
        let n = Nbtau::boolean_circuit(&a);
        for s in [
            "1",
            "0",
            "(AND 1 1 1 1)",
            "(AND 1 1 0 1)",
            "(OR 0 0 0)",
            "(OR 0 (AND 1 1) 0)",
            "(AND (OR 0 1) (OR 1) (AND 1 1 1))",
            "(OR (AND 1 0) (AND 0) (OR 0 0 0))",
        ] {
            let t = from_sexpr(s, &mut a).unwrap();
            assert_eq!(n.accepts(&t), eval(&t, &a), "{s}");
        }
    }

    #[test]
    fn circuit_is_deterministic() {
        let a = alpha();
        let n = Nbtau::boolean_circuit(&a);
        assert!(n.is_deterministic());
    }

    #[test]
    fn nondeterministic_overlap_is_detected() {
        let mut a = Alphabet::new();
        let x = a.intern("x");
        let mut n = Nbtau::new(1);
        let q0 = n.add_state();
        let q1 = n.add_state();
        // both δ(q0, x) and δ(q1, x) contain ε
        n.set_language(q0, x, qa_strings::Regex::Epsilon.to_nfa(2))
            .unwrap();
        n.set_language(q1, x, qa_strings::Regex::Epsilon.to_nfa(2))
            .unwrap();
        assert!(!n.is_deterministic());
    }

    #[test]
    fn run_table_exposes_subtree_states() {
        let mut a = alpha();
        let n = Nbtau::boolean_circuit(&a);
        let t = from_sexpr("(OR (AND 1 0) 1)", &mut a).unwrap();
        let table = n.run_table(&t);
        let and_node = t.child(t.root(), 0);
        assert_eq!(table[and_node.index()], vec![StateId::from_index(0)]);
        assert_eq!(table[t.root().index()], vec![StateId::from_index(1)]);
    }

    #[test]
    fn dbtau_classifier_form_agrees() {
        // Deterministic circuit evaluator in classifier form.
        let mut a = alpha();
        let mut d = Dbtau::new(a.len());
        let q0 = d.add_state();
        let q1 = d.add_state();
        d.set_final(q1, true);
        // classifier for AND: all-ones vs any-zero (and ε = all-ones… but a
        // leaf labeled AND is not a circuit; assign ε → none by giving the
        // empty word the all-ones class only for ops with children — for
        // simplicity accept it as q1 (vacuous AND).
        let mut and_dfa = Dfa::new(2);
        let all1 = and_dfa.add_state();
        let any0 = and_dfa.add_state();
        and_dfa.set_initial(all1);
        and_dfa.set_transition(all1, Symbol::from_index(1), all1);
        and_dfa.set_transition(all1, Symbol::from_index(0), any0);
        and_dfa.set_transition(any0, Symbol::from_index(0), any0);
        and_dfa.set_transition(any0, Symbol::from_index(1), any0);
        d.set_classifier(a.symbol("AND"), and_dfa.clone(), [(all1, q1), (any0, q0)])
            .unwrap();
        // OR: dual
        let mut or_dfa = Dfa::new(2);
        let all0 = or_dfa.add_state();
        let any1 = or_dfa.add_state();
        or_dfa.set_initial(all0);
        or_dfa.set_transition(all0, Symbol::from_index(0), all0);
        or_dfa.set_transition(all0, Symbol::from_index(1), any1);
        or_dfa.set_transition(any1, Symbol::from_index(0), any1);
        or_dfa.set_transition(any1, Symbol::from_index(1), any1);
        d.set_classifier(a.symbol("OR"), or_dfa, [(all0, q0), (any1, q1)])
            .unwrap();
        // leaves: 0 → q0, 1 → q1 (classifier on the empty child word)
        let mut leaf0 = Dfa::new(2);
        let z = leaf0.add_state();
        leaf0.set_initial(z);
        d.set_classifier(a.symbol("0"), leaf0.clone(), [(z, q0)])
            .unwrap();
        let mut leaf1 = Dfa::new(2);
        let o = leaf1.add_state();
        leaf1.set_initial(o);
        d.set_classifier(a.symbol("1"), leaf1.clone(), [(o, q1)])
            .unwrap();
        // a classifier state outside the DFA is rejected, and the
        // installed classifier stays
        let outside = StateId::from_index(1);
        assert!(matches!(
            d.set_classifier(a.symbol("1"), leaf1, [(outside, q0)]),
            Err(Error::IllFormed { .. })
        ));

        let n = Nbtau::boolean_circuit(&a);
        for s in [
            "1",
            "0",
            "(AND 1 1 0)",
            "(OR 0 0 1)",
            "(AND (OR 0 1) (AND 1 1))",
        ] {
            let t = from_sexpr(s, &mut a).unwrap();
            assert_eq!(d.accepts(&t), n.accepts(&t), "{s}");
            assert_eq!(d.accepts(&t), eval(&t, &a), "{s}");
        }
        // round-trip through Nbtau
        let view = d.to_nbtau();
        assert!(view.is_deterministic());
        let t = from_sexpr("(AND 1 (OR 0 1))", &mut a).unwrap();
        assert_eq!(view.accepts(&t), d.accepts(&t));
    }
}
