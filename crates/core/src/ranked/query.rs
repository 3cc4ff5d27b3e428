//! Ranked query automata (Definition 4.3) and Example 4.4.

use qa_base::{Result, Symbol};
use qa_obs::{Counter, NoopObserver, Observer};
use qa_strings::StateId;
use qa_trees::{NodeId, Tree};
use qa_twoway::AssumedSets;

use super::twoway::{build_circuit_machine, TwoWayRanked};

/// A ranked query automaton: a two-way deterministic ranked tree automaton
/// plus a selection function `λ : Q × Σ → {⊥, 1}`.
///
/// Node `v` is *selected* iff the run is accepting and `v` is visited in
/// some configuration in a state `q` with `λ(q, lab(v)) = 1`
/// (Definition 4.3's semantics — selection at any visit suffices).
#[derive(Clone, Debug)]
pub struct RankedQa {
    machine: TwoWayRanked,
    /// `select[state · |Σ| + symbol]`.
    select: Vec<bool>,
}

impl RankedQa {
    /// Wrap a machine with an all-`⊥` selection function.
    pub fn new(machine: TwoWayRanked) -> Self {
        let select = vec![false; machine.num_states() * machine.alphabet_len()];
        RankedQa { machine, select }
    }

    /// Mark `λ(state, sym) = 1`.
    pub fn set_selecting(&mut self, state: StateId, sym: Symbol, selecting: bool) {
        let slot = state.index() * self.machine.alphabet_len() + sym.index();
        self.select[slot] = selecting;
    }

    /// Whether `λ(state, sym) = 1`.
    pub fn is_selecting(&self, state: StateId, sym: Symbol) -> bool {
        self.select[state.index() * self.machine.alphabet_len() + sym.index()]
    }

    /// The underlying two-way automaton.
    pub fn machine(&self) -> &TwoWayRanked {
        &self.machine
    }

    /// The query `A(t)`: the selected nodes (empty for rejecting runs).
    pub fn query(&self, tree: &Tree) -> Result<Vec<NodeId>> {
        self.query_with(tree, &mut NoopObserver)
    }

    /// [`RankedQa::query`] with an [`Observer`]: the underlying run and the
    /// selection scan are reported to `obs`. With [`NoopObserver`] this
    /// monomorphizes to exactly `query`.
    pub fn query_with<O: Observer>(&self, tree: &Tree, obs: &mut O) -> Result<Vec<NodeId>> {
        let mut first =
            FirstSelecting::new(&self.select, self.machine.alphabet_len(), tree.num_nodes());
        obs.phase_start("run");
        let rec = self
            .machine
            .run_noting(tree, obs, |v, q| first.note(v.index(), tree.label(v), q));
        obs.phase_end("run");
        let rec = rec?;
        if !rec.accepted {
            return Ok(Vec::new());
        }
        Ok(first.scan(tree, &rec.assumed, obs))
    }

    /// Whether the underlying machine accepts `tree`.
    pub fn accepts(&self, tree: &Tree) -> Result<bool> {
        self.machine.accepts(tree)
    }
}

/// The first selecting state each node assumes: the one the selection
/// scans of [`RankedQa`] and [`crate::unranked::UnrankedQa`] report. `select` is a
/// `[state · |Σ| + label]` table of `λ`; a run notes every state a node
/// assumes for the first time through [`FirstSelecting::note`].
pub(crate) struct FirstSelecting<'a> {
    select: &'a [bool],
    alphabet_len: usize,
    first: Vec<Option<StateId>>,
}

impl<'a> FirstSelecting<'a> {
    pub(crate) fn new(select: &'a [bool], alphabet_len: usize, nodes: usize) -> Self {
        FirstSelecting {
            select,
            alphabet_len,
            first: vec![None; nodes],
        }
    }

    /// `v`, labelled `label`, has just assumed `q` for the first time.
    #[inline]
    pub(crate) fn note(&mut self, v: usize, label: Symbol, q: StateId) {
        if self.first[v].is_none() && self.select[q.index() * self.alphabet_len + label.index()] {
            self.first[v] = Some(q);
        }
    }

    /// The selection scan of Definitions 4.3 and 5.8: every node of an
    /// accepting run that assumed a selecting state, in document order,
    /// reporting each node's assumed-set size and first selecting state.
    pub(crate) fn scan<O: Observer>(
        self,
        tree: &Tree,
        assumed: &AssumedSets,
        obs: &mut O,
    ) -> Vec<NodeId> {
        obs.phase_start("selection scan");
        let mut out = Vec::new();
        for v in tree.nodes() {
            obs.count(Counter::SelectionChecks, assumed.count(v.index()) as u64);
            if let Some(q) = self.first[v.index()] {
                let label = tree.label(v);
                obs.selected(v.index() as u32, q.index() as u32, label.index() as u32);
                out.push(v);
            }
        }
        obs.phase_end("selection scan");
        out
    }
}

/// Example 4.4: select every node of a Boolean circuit that evaluates to 1.
///
/// Built from the Example 4.2 machine with `F = Q` and
/// `λ((i, j), op) = 1` iff `i op j = 1`; completed with the leaf and root
/// verdict cases so literally *every* node evaluating to 1 is selected.
pub fn example_4_4(alphabet: &qa_base::Alphabet) -> RankedQa {
    let (machine, st) = build_circuit_machine(alphabet, true);
    let and = alphabet.symbol("AND");
    let or = alphabet.symbol("OR");
    let one = alphabet.symbol("1");
    let mut qa = RankedQa::new(machine);
    for i in 0..2usize {
        for j in 0..2usize {
            let pair = StateId::from_index(st.pair_base + 2 * i + j);
            if i & j == 1 {
                qa.set_selecting(pair, and, true);
            }
            if i | j == 1 {
                qa.set_selecting(pair, or, true);
            }
        }
    }
    // leaves labeled 1 evaluate to 1
    qa.set_selecting(st.u, one, true);
    // root verdict state (covers the single-leaf circuit `1`)
    for s in 0..alphabet.len() {
        qa.set_selecting(st.v1, Symbol::from_index(s), true);
    }
    qa
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_base::Alphabet;
    use qa_trees::sexpr::from_sexpr;

    fn alpha() -> Alphabet {
        Alphabet::from_names(["AND", "OR", "0", "1"])
    }

    /// Reference: evaluate the circuit bottom-up and list 1-valued nodes.
    fn eval_nodes(t: &Tree, a: &Alphabet) -> Vec<NodeId> {
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
        t.nodes().filter(|v| vals[v.index()]).collect()
    }

    #[test]
    fn example_4_4_selects_true_gates() {
        let mut a = alpha();
        let qa = example_4_4(&a);
        for s in [
            "1",
            "0",
            "(AND 1 0)",
            "(OR (AND 1 1) 0)",
            "(AND (OR 1 0) (OR 0 0))",
            "(OR (OR 0 0) (AND (OR 1 1) 1))",
        ] {
            let t = from_sexpr(s, &mut a).unwrap();
            let mut got = qa.query(&t).unwrap();
            let mut want = eval_nodes(&t, &a);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{s}");
        }
    }

    #[test]
    fn example_4_4_on_random_circuits() {
        use qa_base::rng::StdRng;
        let a = alpha();
        let qa = example_4_4(&a);
        let inner = [a.symbol("AND"), a.symbol("OR")];
        let leaves = [a.symbol("0"), a.symbol("1")];
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let t = qa_trees::generate::random_full_binary(&mut rng, &inner, &leaves, 12);
            let mut got = qa.query(&t).unwrap();
            let mut want = eval_nodes(&t, &a);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{}", t.render(&a));
        }
    }

    #[test]
    fn remark_4_5_two_sided_query() {
        // Remark 4.5: "select the root if there is a leaf labeled σ, and
        // select all leaves if the root is labeled σ" needs two-way travel.
        // Here: σ = OR for the root condition, σ = 1 for the leaf condition.
        // We verify the Example 4.4 machine's information flow indirectly:
        // the root's verdict state depends on all leaves (bottom-up), and
        // leaf selection under a root condition appears in the unranked
        // Example 5.14 test; this test pins the root-depends-on-leaves half.
        let mut a = alpha();
        let qa = example_4_4(&a);
        let t1 = from_sexpr("(OR 0 1)", &mut a).unwrap();
        let t0 = from_sexpr("(OR 0 0)", &mut a).unwrap();
        assert!(qa.query(&t1).unwrap().contains(&t1.root()));
        assert!(!qa.query(&t0).unwrap().contains(&t0.root()));
    }

    #[test]
    fn rejecting_machine_selects_nothing() {
        let mut a = alpha();
        // Example 4.2 machine (F = {v1}) with Example 4.4's λ: on circuits
        // evaluating to 0 the run rejects, so nothing is selected even
        // though inner gates may evaluate to 1.
        let machine = super::super::twoway::example_4_2(&a);
        let mut qa = RankedQa::new(machine);
        let or = a.symbol("OR");
        for i in 2..6 {
            qa.set_selecting(StateId::from_index(i), or, true);
        }
        let t = from_sexpr("(AND (OR 1 1) 0)", &mut a).unwrap();
        assert_eq!(qa.query(&t).unwrap(), Vec::<NodeId>::new());
        let t = from_sexpr("(OR (OR 1 1) 0)", &mut a).unwrap();
        assert!(!qa.query(&t).unwrap().is_empty());
    }
}
