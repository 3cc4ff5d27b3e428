//! Unranked query automata (Definitions 5.8 and 5.13) and the paper's
//! Examples 5.9 and 5.14.

use qa_base::{Result, Symbol};
use qa_obs::{NoopObserver, Observer};
use qa_strings::{Dfa, SlenderLang, StateId};
use qa_trees::{NodeId, Tree};

use super::stay::{pair_alphabet_len, pair_symbol, StayRule};
use super::twoway::{StayBlock, TwoWayUnranked, TwoWayUnrankedBuilder};
use crate::ranked::query::FirstSelecting;
use crate::ranked::twoway::Polarity;

/// A query automaton over unranked trees: a two-way machine plus a
/// selection function `λ : Q × Σ → {⊥, 1}`.
///
/// Without stay transitions this is a `QAu` (Definition 5.8) — strictly
/// weaker than MSO (Proposition 5.10). With a stay block of budget 1 it is
/// a *strong* query automaton `SQAu` (Definition 5.13), capturing exactly
/// the unary MSO queries (Theorem 5.17).
#[derive(Clone, Debug)]
pub struct UnrankedQa {
    machine: TwoWayUnranked,
    /// `select[state · |Σ| + symbol]`.
    select: Vec<bool>,
}

/// A strong query automaton is an [`UnrankedQa`] whose machine carries a
/// stay block ([`UnrankedQa::is_strong`]).
pub type StrongQa = UnrankedQa;

impl UnrankedQa {
    /// Wrap a machine with an all-`⊥` selection function.
    pub fn new(machine: TwoWayUnranked) -> Self {
        let select = vec![false; machine.num_states() * machine.alphabet_len()];
        UnrankedQa { machine, select }
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

    /// The underlying two-way machine.
    pub fn machine(&self) -> &TwoWayUnranked {
        &self.machine
    }

    /// Whether this is a strong query automaton (has stay transitions).
    pub fn is_strong(&self) -> bool {
        self.machine.is_strong()
    }

    /// The query `A(t)`: selected nodes; empty for rejecting runs.
    pub fn query(&self, tree: &Tree) -> Result<Vec<NodeId>> {
        self.query_with(tree, &mut NoopObserver)
    }

    /// [`UnrankedQa::query`] with an [`Observer`]: the underlying run and
    /// the selection scan are reported to `obs`. With [`NoopObserver`] this
    /// monomorphizes to exactly `query`.
    pub fn query_with<O: Observer>(&self, tree: &Tree, obs: &mut O) -> Result<Vec<NodeId>> {
        self.query_impl(tree, None, obs)
    }

    /// [`UnrankedQa::query`] with up/stay decisions memoized in `cache`
    /// (see [`super::UpCache`]): across a document batch, repeated children
    /// pair-strings — the dominant cost of SQAu evaluation — are answered by
    /// hash lookups instead of classifier/matcher/GSQA runs. Results are
    /// identical to [`UnrankedQa::query`]; cache hits and misses are
    /// reported to `obs`.
    pub fn query_cached<O: Observer>(
        &self,
        tree: &Tree,
        cache: &mut super::UpCache,
        obs: &mut O,
    ) -> Result<Vec<NodeId>> {
        cache.ensure_machine(&self.machine);
        self.query_impl(tree, Some(cache), obs)
    }

    /// The run, noting each node's first selecting state, then the
    /// selection scan.
    fn query_impl<O: Observer>(
        &self,
        tree: &Tree,
        cache: Option<&mut super::UpCache>,
        obs: &mut O,
    ) -> Result<Vec<NodeId>> {
        let mut first =
            FirstSelecting::new(&self.select, self.machine.alphabet_len(), tree.num_nodes());
        obs.phase_start("run");
        let rec = self.machine.run_impl(tree, cache, obs, |v, q| {
            first.note(v.index(), tree.label(v), q)
        });
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

/// Example 5.9: a `QAu` (no stay transitions) selecting all nodes of a
/// variadic Boolean circuit that evaluate to 1.
///
/// States `{s, u, all_one, all_zero, mixed}`; the paper's `λ` is completed
/// with the leaf case (`λ(u, 1) = 1`) so that literally every node
/// evaluating to 1 is selected. Alphabet must contain `AND, OR, 0, 1`.
pub fn example_5_9(alphabet: &qa_base::Alphabet) -> UnrankedQa {
    let and = alphabet.symbol("AND");
    let or = alphabet.symbol("OR");
    let zero = alphabet.symbol("0");
    let one = alphabet.symbol("1");
    let sigma = alphabet.len();

    let mut b = TwoWayUnrankedBuilder::new(sigma);
    let s = b.add_state();
    let u = b.add_state();
    let all_one = b.add_state();
    let all_zero = b.add_state();
    let mixed = b.add_state();
    let num_states = 5;
    b.set_initial(s);
    for q in [s, u, all_one, all_zero, mixed] {
        b.set_final(q, true); // F = Q
    }
    b.set_polarity_all(s, Polarity::Down);
    for q in [u, all_one, all_zero, mixed] {
        b.set_polarity_all(q, Polarity::Up);
    }
    // (1) δ↓(s, σ, n) = sⁿ
    for op in [and, or] {
        b.set_down(s, op, SlenderLang::uniform(Symbol::from_index(s.index())));
    }
    // (2) leaves flip to u
    for leaf in [zero, one] {
        b.set_leaf(s, leaf, u);
    }
    // A child pair "evaluates to one" iff (u,1) | (AND, all_one) |
    // (OR, all_one) | (OR, mixed); to zero iff (u,0) | (OR, all_zero) |
    // (AND, all_zero) | (AND, mixed).
    let pal = pair_alphabet_len(num_states, sigma);
    let p = |q: StateId, l: Symbol| pair_symbol(q, l, sigma);
    let ones = [p(u, one), p(all_one, and), p(all_one, or), p(mixed, or)];
    let zeros = [p(u, zero), p(all_zero, or), p(all_zero, and), p(mixed, and)];
    // L↑(all_one) = ones⁺ ; L↑(all_zero) = zeros⁺ (ε excluded: inner nodes
    // have children, and excluding it keeps the three languages disjoint);
    // L↑(mixed) = strings over ones ∪ zeros containing at least one of each.
    let plus_dfa = |allowed: &[Symbol]| {
        let mut d = Dfa::new(pal);
        let q0 = d.add_state();
        let q1 = d.add_state();
        d.set_initial(q0);
        d.set_accepting(q1, true);
        for &sym in allowed {
            d.set_transition(q0, sym, q1);
            d.set_transition(q1, sym, q1);
        }
        d
    };
    b.add_up_language(all_one, plus_dfa(&ones));
    b.add_up_language(all_zero, plus_dfa(&zeros));
    let mut mixed_dfa = Dfa::new(pal);
    // states: (seen one?, seen zero?)
    let q00 = mixed_dfa.add_state();
    let q10 = mixed_dfa.add_state();
    let q01 = mixed_dfa.add_state();
    let q11 = mixed_dfa.add_state();
    mixed_dfa.set_initial(q00);
    mixed_dfa.set_accepting(q11, true);
    for &sym in &ones {
        mixed_dfa.set_transition(q00, sym, q10);
        mixed_dfa.set_transition(q10, sym, q10);
        mixed_dfa.set_transition(q01, sym, q11);
        mixed_dfa.set_transition(q11, sym, q11);
    }
    for &sym in &zeros {
        mixed_dfa.set_transition(q00, sym, q01);
        mixed_dfa.set_transition(q01, sym, q01);
        mixed_dfa.set_transition(q10, sym, q11);
        mixed_dfa.set_transition(q11, sym, q11);
    }
    b.add_up_language(mixed, mixed_dfa);

    let machine = b.build().expect("example 5.9 is well-formed");
    let mut qa = UnrankedQa::new(machine);
    // λ: gates evaluating to 1, plus the completed leaf case.
    qa.set_selecting(all_one, and, true);
    qa.set_selecting(all_one, or, true);
    qa.set_selecting(mixed, or, true);
    qa.set_selecting(u, one, true);
    qa
}

/// Example 5.14: the `SQAu` for the Proposition 5.10 query — *select every
/// 1-labeled leaf with no 1-labeled node among its left siblings* — which
/// no stay-free `QAu` can compute.
///
/// States `{s, stay, up, one}` over alphabet `{0, 1}`; one stay transition
/// per node assigns `one` to the first 1-labeled leaf child without an
/// earlier 1-labeled sibling, `up` to the rest.
pub fn example_5_14(alphabet: &qa_base::Alphabet) -> StrongQa {
    let zero = alphabet.symbol("0");
    let one_l = alphabet.symbol("1");
    let sigma = alphabet.len();

    let mut b = TwoWayUnrankedBuilder::new(sigma);
    let s = b.add_state();
    let stay = b.add_state();
    let up = b.add_state();
    let one = b.add_state();
    let num_states = 4;
    b.set_initial(s);
    for q in [s, stay, up, one] {
        b.set_final(q, true);
    }
    b.set_polarity_all(s, Polarity::Down);
    for q in [stay, up, one] {
        b.set_polarity_all(q, Polarity::Up);
    }
    for l in [zero, one_l] {
        b.set_down(s, l, SlenderLang::uniform(Symbol::from_index(s.index())));
        b.set_leaf(s, l, stay);
        // a single-node tree: the root is a leaf; resolve via δ_root.
        b.set_root(stay, l, if l == one_l { one } else { up });
    }

    let pal = pair_alphabet_len(num_states, sigma);
    let p = |q: StateId, l: Symbol| pair_symbol(q, l, sigma);
    let settled: Vec<Symbol> = [up, one]
        .into_iter()
        .flat_map(|q| [p(q, zero), p(q, one_l)])
        .collect();
    let pending: Vec<Symbol> = vec![p(stay, zero), p(stay, one_l)];

    // U_stay: strings over settled ∪ pending containing at least one pending
    // pair (some leaf child still awaits its verdict).
    let mut stay_matcher = Dfa::new(pal);
    let m0 = stay_matcher.add_state();
    let m1 = stay_matcher.add_state();
    stay_matcher.set_initial(m0);
    stay_matcher.set_accepting(m1, true);
    for &sym in &settled {
        stay_matcher.set_transition(m0, sym, m0);
        stay_matcher.set_transition(m1, sym, m1);
    }
    for &sym in &pending {
        stay_matcher.set_transition(m0, sym, m1);
        stay_matcher.set_transition(m1, sym, m1);
    }

    // L↑(up): settled* (including ε — but inner nodes always have children,
    // and disjointness from U_stay holds since settled strings contain no
    // pending pair).
    let mut up_dfa = Dfa::new(pal);
    let u0 = up_dfa.add_state();
    up_dfa.set_initial(u0);
    up_dfa.set_accepting(u0, true);
    for &sym in &settled {
        up_dfa.set_transition(u0, sym, u0);
    }
    b.add_up_language(up, up_dfa);

    // δ_stay as a bimachine (the Lemma 3.10 form of the paper's GSQA):
    // output: a pending 1-labeled leaf with no 1-labeled sibling strictly
    // before it becomes `one`, everything else becomes `up`. The left DFA
    // sees the state AFTER reading position i, so it delays the "1 seen"
    // flip by one step to expose "1 seen strictly before i".
    let mut right = Dfa::new(pal);
    let r = right.add_state();
    right.set_initial(r);
    for s_idx in 0..pal {
        right.set_transition(r, Symbol::from_index(s_idx), r);
    }
    let mut left_delayed = Dfa::new(pal);
    let d_no = left_delayed.add_state(); // no 1 before, previous was not 1
    let d_no_last1 = left_delayed.add_state(); // no 1 before, previous was 1
    let d_yes = left_delayed.add_state(); // a 1 occurred strictly before
    left_delayed.set_initial(d_no);
    for q_idx in 0..num_states {
        let q = StateId::from_index(q_idx);
        left_delayed.set_transition(d_no, p(q, zero), d_no);
        left_delayed.set_transition(d_no, p(q, one_l), d_no_last1);
        left_delayed.set_transition(d_no_last1, p(q, zero), d_yes);
        left_delayed.set_transition(d_no_last1, p(q, one_l), d_yes);
        left_delayed.set_transition(d_yes, p(q, zero), d_yes);
        left_delayed.set_transition(d_yes, p(q, one_l), d_yes);
    }
    let stay_pair_one = p(stay, one_l);
    let bim = qa_twoway::Bimachine::new(left_delayed, right, num_states, move |pl, _q, sym| {
        // `pl` is the left state AFTER reading position i. For a 1-labeled
        // position the flip has just happened (d_no_last1) or happened
        // earlier (d_yes). "No 1 strictly before i" ⟺ pl == d_no_last1
        // (for 1-labeled) — and the selected child must be a pending leaf.
        if sym == stay_pair_one && pl == d_no_last1 {
            one.index() as u32
        } else {
            up.index() as u32
        }
    })
    .expect("total components");

    b.set_stay(StayBlock {
        matcher: stay_matcher,
        rule: StayRule::Bimachine(bim),
        max_stays_per_node: 1,
    });

    let machine = b.build().expect("example 5.14 is well-formed");
    let mut qa = UnrankedQa::new(machine);
    qa.set_selecting(one, one_l, true);
    qa
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_base::Alphabet;
    use qa_trees::sexpr::from_sexpr;

    fn circuit_alpha() -> Alphabet {
        Alphabet::from_names(["AND", "OR", "0", "1"])
    }

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
    fn example_5_9_selects_true_nodes() {
        let mut a = circuit_alpha();
        let qa = example_5_9(&a);
        assert!(!qa.is_strong());
        for s in [
            "1",
            "0",
            "(AND 1 1 1)",
            "(OR 0 0 1 0)",
            "(AND (OR 0 0 1) (AND 1 1) 1)",
            "(OR (AND 1 0 1) (OR 0 0) (AND 1))",
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
    fn example_5_9_matches_one_way_acceptance() {
        let mut a = circuit_alpha();
        let qa = example_5_9(&a);
        let one_way = super::super::Nbtau::boolean_circuit(&a);
        for s in ["(AND 1 0)", "(OR 1 0 0)", "(AND (OR 1) (OR 0))"] {
            let t = from_sexpr(s, &mut a).unwrap();
            // F = Q: the two-way machine accepts every circuit; the query
            // content (selection) matches evaluation, and the root is
            // selected exactly when the one-way automaton accepts.
            let sel = qa.query(&t).unwrap();
            assert_eq!(sel.contains(&t.root()), one_way.accepts(&t), "{s}");
        }
    }

    fn leaves_alpha() -> Alphabet {
        Alphabet::from_names(["0", "1"])
    }

    /// Reference for the Proposition 5.10 query.
    fn first_one_leaves(t: &Tree, a: &Alphabet) -> Vec<NodeId> {
        let one = a.symbol("1");
        t.nodes()
            .filter(|&v| {
                t.is_leaf(v) && t.label(v) == one && {
                    match t.parent(v) {
                        None => true,
                        Some(p) => {
                            let idx = t.child_index(v);
                            t.children(p)[..idx].iter().all(|&w| t.label(w) != one)
                        }
                    }
                }
            })
            .collect()
    }

    #[test]
    fn example_5_14_selects_first_one_leaves() {
        let mut a = leaves_alpha();
        let qa = example_5_14(&a);
        assert!(qa.is_strong());
        for s in [
            "1",
            "0",
            "(0 1 1 0 1)",
            "(0 0 0)",
            "(1 0 1)",
            "(0 (0 0 1) 1 (1 1) 0)",
            "(0 (1 1 1) (0 1 0 1))",
        ] {
            let t = from_sexpr(s, &mut a).unwrap();
            let mut got = qa.query(&t).unwrap();
            let mut want = first_one_leaves(&t, &a);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{s}");
        }
    }

    #[test]
    fn example_5_14_on_random_trees() {
        use qa_base::rng::StdRng;
        let a = leaves_alpha();
        let qa = example_5_14(&a);
        let labels = [a.symbol("0"), a.symbol("1")];
        let mut rng = StdRng::seed_from_u64(31);
        for n in [1usize, 3, 8, 25, 60] {
            for _ in 0..8 {
                let t = qa_trees::generate::random(&mut rng, &labels, n, None);
                let mut got = qa.query(&t).unwrap();
                let mut want = first_one_leaves(&t, &a);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{}", t.render(&a));
            }
        }
    }

    #[test]
    fn stay_budget_is_respected() {
        let a = leaves_alpha();
        let qa = example_5_14(&a);
        let mut al = a.clone();
        let t = from_sexpr("(0 1 1 0)", &mut al).unwrap();
        let rec = qa.machine().run(&t).unwrap();
        assert_eq!(rec.stays.iter().sum::<u32>(), 1, "exactly one stay");
    }

    #[test]
    fn confluence_of_unranked_runs() {
        use qa_base::rng::Rng;
        use qa_base::rng::StdRng;
        let mut a = leaves_alpha();
        let qa = example_5_14(&a);
        let t = from_sexpr("(0 (0 1 1) (1 0) 1)", &mut a).unwrap();
        let reference = qa.machine().run(&t).unwrap();
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let rec = qa
                .machine()
                .run_scheduled(&t, qa.machine().default_fuel(&t), |n| rng.gen_range(0..n))
                .unwrap();
            assert_eq!(rec.accepted, reference.accepted);
            assert_eq!(rec.assumed, reference.assumed, "seed {seed}");
        }
    }
}
