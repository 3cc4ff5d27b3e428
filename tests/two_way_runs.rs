//! The run loops of the two-way engines: which selecting state a query
//! reports when a position or node assumes several, and `Assumed` sets of
//! machines with more than 64 states.

use query_automata::base::rng::{Rng, StdRng};
use query_automata::core::ranked::twoway::Polarity;
use query_automata::core::unranked::stay::{pair_alphabet_len, pair_symbol};
use query_automata::core::unranked::twoway::StayBlock;
use query_automata::core::unranked::UpCache;
use query_automata::obs::{Abort, Counter, Machine, Metrics, Series};
use query_automata::prelude::*;
use query_automata::strings::{Dfa, SlenderLang, StateId};
use query_automata::trees::generate;
use query_automata::twoway::behavior::BehaviorAnalysis;
use query_automata::twoway::twodfa::Dir;
use query_automata::twoway::Tape;

fn q(i: usize) -> StateId {
    StateId::from_index(i)
}

/// Every `selected` event of a run, as `(pos, state, sym)`.
#[derive(Default)]
struct Selections(Vec<(u32, u32, u32)>);

impl Observer for Selections {
    fn selected(&mut self, pos: u32, state: u32, sym: u32) {
        self.0.push((pos, state, sym));
    }
}

/// `q0` walks right over `⊳` into `q2`, `q2` walks right to `⊲`, and `q1`
/// walks back and halts on `⊳`: every symbol is assumed in `q2` first and
/// in `q1` after it.
fn right_then_left() -> TwoDfa {
    let mut b = TwoDfaBuilder::new(1);
    let (q0, q1, q2) = (b.add_state(), b.add_state(), b.add_state());
    b.set_initial(q0);
    b.set_final(q1, true);
    b.set_action(q0, Tape::LeftMarker, Dir::Right, q2);
    b.set_action_all_symbols(q2, Dir::Right, q2);
    b.set_action(q2, Tape::RightMarker, Dir::Left, q1);
    b.set_action_all_symbols(q1, Dir::Left, q1);
    b.build().unwrap()
}

/// Assert that the query's `selected` events and its `why_selected`
/// certificates name `want` at every position in `positions`.
fn assert_selected_in(sel: &Selections, prov: &ProvenanceObserver, positions: &[u32], want: u32) {
    let got: Vec<(u32, u32)> = sel.0.iter().map(|&(p, s, _)| (p, s)).collect();
    let expect: Vec<(u32, u32)> = positions.iter().map(|&p| (p, want)).collect();
    assert_eq!(got, expect, "selected events");
    for &p in positions {
        let why = prov
            .why_selected(p)
            .expect("selected positions are certified");
        assert_eq!(why.state, want, "certificate at {p}");
    }
}

#[test]
fn string_qa_reports_the_first_assumed_selecting_state() {
    let mut qa = StringQa::new(right_then_left());
    let a = Symbol::from_index(0);
    qa.set_selecting(q(1), a, true);
    qa.set_selecting(q(2), a, true);
    let word = vec![a; 3];
    let (mut sel, mut prov) = (Selections::default(), ProvenanceObserver::new());
    let out = qa
        .query_with(&word, &mut query_automata::obs::Tee(&mut sel, &mut prov))
        .unwrap();
    assert_eq!(out, vec![0, 1, 2]);
    // q2, not the lower-index q1, is the first selecting state each
    // tape position 1..=3 assumed
    assert_selected_in(&sel, &prov, &[1, 2, 3], 2);
}

#[test]
fn gsqa_clash_names_the_first_assumed_output_first() {
    let mut g = Gsqa::new(right_then_left(), 2);
    let a = Symbol::from_index(0);
    g.set_output(q(2), a, 1);
    g.set_output(q(1), a, 0);
    // Both positions clash; the scan reports the leftmost, and the output
    // of the state assumed there first (q2's 1) before the other.
    assert_eq!(
        g.run(&[a, a]).unwrap_err().to_string(),
        "ill-formed automaton (GSQA output): two distinct outputs (1 and 0) at position 0"
    );
    g.set_output(q(1), a, 1);
    assert_eq!(g.run(&[a, a]).unwrap(), vec![1, 1]);
}

#[test]
fn ranked_qa_reports_the_first_assumed_selecting_state() {
    // (a a a): the root descends in q0, the leaves turn q2 and fold into
    // q2 at the root, which δ_root turns into q1. The root assumes
    // q0, q2, q1 in that order.
    let mut b = TwoWayRankedBuilder::new(1, 2);
    let (q0, q1, q2) = (b.add_state(), b.add_state(), b.add_state());
    let a = Symbol::from_index(0);
    b.set_initial(q0);
    b.set_final(q1, true);
    b.set_polarity_all(q0, Polarity::Down);
    b.set_polarity_all(q1, Polarity::Up);
    b.set_polarity_all(q2, Polarity::Up);
    b.set_down(q0, a, &[q0, q0]);
    b.set_leaf(q0, a, q2);
    b.set_up(&[(q2, a), (q2, a)], q2);
    b.set_root(q2, a, q1);
    let mut qa = RankedQa::new(b.build().unwrap());
    qa.set_selecting(q1, a, true);
    qa.set_selecting(q2, a, true);
    let mut names = Alphabet::from_names(["a"]);
    let t = from_sexpr("(a a a)", &mut names).unwrap();
    let (mut sel, mut prov) = (Selections::default(), ProvenanceObserver::new());
    let out = qa
        .query_with(&t, &mut query_automata::obs::Tee(&mut sel, &mut prov))
        .unwrap();
    assert_eq!(out.len(), 3);
    assert_selected_in(&sel, &prov, &[0, 1, 2], 2);
}

#[test]
fn unranked_qa_reports_the_first_assumed_selecting_state() {
    // The unranked form of the ranked machine above, over any fan-out.
    let mut b = TwoWayUnrankedBuilder::new(1);
    let (q0, q1, q2) = (b.add_state(), b.add_state(), b.add_state());
    let a = Symbol::from_index(0);
    b.set_initial(q0);
    b.set_final(q1, true);
    b.set_polarity_all(q0, Polarity::Down);
    b.set_polarity_all(q1, Polarity::Up);
    b.set_polarity_all(q2, Polarity::Up);
    b.set_down(q0, a, SlenderLang::uniform(Symbol::from_index(q0.index())));
    b.set_leaf(q0, a, q2);
    b.set_root(q2, a, q1);
    b.add_up_language(q2, plus(pair_alphabet_len(3, 1), pair_symbol(q2, a, 1)));
    let mut qa = UnrankedQa::new(b.build().unwrap());
    qa.set_selecting(q1, a, true);
    qa.set_selecting(q2, a, true);
    let mut names = Alphabet::from_names(["a"]);
    let t = from_sexpr("(a a a a)", &mut names).unwrap();
    let (mut sel, mut prov) = (Selections::default(), ProvenanceObserver::new());
    let out = qa
        .query_with(&t, &mut query_automata::obs::Tee(&mut sel, &mut prov))
        .unwrap();
    assert_eq!(out.len(), 4);
    assert_selected_in(&sel, &prov, &[0, 1, 2, 3], 2);
}

/// `sym⁺` over an alphabet of `len` symbols.
fn plus(len: usize, sym: Symbol) -> Dfa {
    let mut d = Dfa::new(len);
    let (s0, s1) = (d.add_state(), d.add_state());
    d.set_initial(s0);
    d.set_accepting(s1, true);
    d.set_transition(s0, sym, s1);
    d.set_transition(s1, sym, s1);
    d
}

/// States of the wide machines: past one `u64` word of `Assumed` bits.
const WIDE: usize = 70;

#[test]
fn string_machine_over_64_states_agrees_with_behavior_analysis() {
    // A sweep over a counter DFA: symbol i adds i + 1 modulo 70, so long
    // words reach states on both sides of the word boundary at 64.
    let mut dfa = Dfa::new(2);
    for _ in 0..WIDE {
        dfa.add_state();
    }
    dfa.set_initial(q(0));
    for s in 0..WIDE {
        dfa.set_accepting(q(s), s % 5 != 4);
        for i in 0..2 {
            dfa.set_transition(q(s), Symbol::from_index(i), q((s + i + 1) % WIDE));
        }
    }
    let machine = TwoDfa::from_dfa_sweep(&dfa).unwrap();
    let mut qa = StringQa::new(machine.clone());
    for s in (0..WIDE).filter(|s| s % 3 == 0 || *s >= 64) {
        qa.set_selecting(q(s), Symbol::from_index(s % 2), true);
    }
    let mut rng = StdRng::seed_from_u64(0x70);
    let mut wide_selections = 0;
    for case in 0..40 {
        let len = rng.gen_range(0..160);
        let w: Vec<Symbol> = (0..len)
            .map(|_| Symbol::from_index(rng.gen_range(0..2)))
            .collect();
        let metrics = Metrics::new();
        let rec = machine.run_with(&w, &mut metrics.observer()).unwrap();
        let ba = BehaviorAnalysis::analyze(&machine, &w);
        assert_eq!(rec.accepted, ba.accepted(&machine), "case {case}");
        assert_eq!(rec.halt, ba.halt().unwrap(), "case {case}");
        assert_eq!(rec.steps, len as u64 + 1, "case {case}: one move per cell");
        assert_eq!(metrics.get(Counter::Steps), rec.steps, "case {case}");
        assert_eq!(rec.assumed.len(), ba.assumed.len());
        for i in 0..rec.assumed.len() {
            let mut want = ba.assumed[i].clone();
            want.sort_unstable();
            let got: Vec<StateId> = rec.assumed.states(i).collect();
            assert_eq!(got, want, "case {case} @ {i}");
            assert_eq!(rec.assumed.count(i), want.len());
        }
        let got = qa.query(&w).unwrap();
        assert_eq!(got, qa.query_via_behavior(&w), "case {case}");
        wide_selections += got
            .iter()
            .filter(|&&i| rec.assumed.states(i + 1).any(|s| s.index() >= 64))
            .count();
    }
    assert!(
        wide_selections > 0,
        "some selection is made in a state ≥ 64"
    );
}

/// A chain of `len` `a` nodes with a second `a` leaf hanging off every
/// fifth node, so the machines meet both arities.
fn comb(len: usize) -> Tree {
    let mut s = String::new();
    for i in 0..len {
        s.push_str(if i % 5 == 4 { "(a a " } else { "(a " });
    }
    s.push('a');
    s.push_str(&")".repeat(len));
    from_sexpr(&s, &mut Alphabet::from_names(["a"])).unwrap()
}

/// Trees deep enough to reach states past 64: combs and random trees.
fn wide_trees(seed: u64, max_rank: Option<usize>) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trees: Vec<Tree> = [0, 1, 63, 64, 65, 69, 70, 71, 150].map(comb).into();
    for n in [1, 5, 40, 200] {
        trees.push(generate::random(
            &mut rng,
            &[Symbol::from_index(0)],
            n,
            max_rank,
        ));
    }
    trees
}

/// The nodes whose `Assumed` set holds a selecting state, as the selection
/// scan of an accepting run reports them.
fn selected_from(
    assumed: &query_automata::twoway::AssumedSets,
    t: &Tree,
    selecting: impl Fn(StateId) -> bool,
) -> Vec<NodeId> {
    t.nodes()
        .filter(|v| assumed.states(v.index()).any(&selecting))
        .collect()
}

/// Whether a state of the wide machines selects.
fn wide_selecting(s: StateId) -> bool {
    s.index().is_multiple_of(7) || (65..WIDE).contains(&s.index())
}

/// `d_i` descends handing `d_{i+1 mod 70}` to every child; leaves turn
/// `u`, and `u` folds up to the root.
fn wide_ranked_qa() -> RankedQa {
    let a = Symbol::from_index(0);
    let mut b = TwoWayRankedBuilder::new(1, 2);
    for _ in 0..=WIDE {
        b.add_state();
    }
    let u = q(WIDE);
    b.set_initial(q(0));
    b.set_final(u, true);
    b.set_polarity_all(u, Polarity::Up);
    for i in 0..WIDE {
        let next = q((i + 1) % WIDE);
        b.set_polarity_all(q(i), Polarity::Down);
        b.set_down(q(i), a, &[next]);
        b.set_down(q(i), a, &[next, next]);
        b.set_leaf(q(i), a, u);
    }
    b.set_up(&[(u, a)], u);
    b.set_up(&[(u, a), (u, a)], u);
    let mut qa = RankedQa::new(b.build().unwrap());
    for s in (0..=WIDE).map(q).filter(|&s| wide_selecting(s)) {
        qa.set_selecting(s, a, true);
    }
    qa
}

/// The unranked form of [`wide_ranked_qa`], over any fan-out.
fn wide_unranked_qa() -> UnrankedQa {
    let a = Symbol::from_index(0);
    let mut b = TwoWayUnrankedBuilder::new(1);
    for _ in 0..=WIDE {
        b.add_state();
    }
    let u = q(WIDE);
    b.set_initial(q(0));
    b.set_final(u, true);
    b.set_polarity_all(u, Polarity::Up);
    for i in 0..WIDE {
        let next = Symbol::from_index((i + 1) % WIDE);
        b.set_polarity_all(q(i), Polarity::Down);
        b.set_down(q(i), a, SlenderLang::uniform(next));
        b.set_leaf(q(i), a, u);
    }
    b.add_up_language(
        u,
        plus(pair_alphabet_len(WIDE + 1, 1), pair_symbol(u, a, 1)),
    );
    let mut qa = UnrankedQa::new(b.build().unwrap());
    for s in (0..=WIDE).map(q).filter(|&s| wide_selecting(s)) {
        qa.set_selecting(s, a, true);
    }
    qa
}

#[test]
fn ranked_machine_over_64_states_agrees_with_scheduled_runs() {
    let qa = wide_ranked_qa();
    let m = qa.machine();
    let mut rng = StdRng::seed_from_u64(0x71);
    for (case, t) in wide_trees(0x72, Some(2)).iter().enumerate() {
        let metrics = Metrics::new();
        let rec = m.run_with(t, &mut metrics.observer()).unwrap();
        let reference = m
            .run_scheduled(t, m.default_fuel(t), |n| rng.gen_range(0..n))
            .unwrap();
        assert!(rec.accepted && reference.accepted, "case {case}");
        assert_eq!(rec.assumed, reference.assumed, "case {case}");
        assert_eq!(metrics.get(Counter::Steps), reference.steps, "case {case}");
        assert_eq!(
            qa.query(t).unwrap(),
            selected_from(&reference.assumed, t, wide_selecting),
            "case {case}"
        );
    }
}

#[test]
fn unranked_machine_over_64_states_agrees_with_scheduled_runs() {
    let qa = wide_unranked_qa();
    let m = qa.machine();
    let mut rng = StdRng::seed_from_u64(0x73);
    for (case, t) in wide_trees(0x74, None).iter().enumerate() {
        let metrics = Metrics::new();
        let rec = m.run_with(t, &mut metrics.observer()).unwrap();
        let reference = m
            .run_scheduled(t, m.default_fuel(t), |n| rng.gen_range(0..n))
            .unwrap();
        assert!(rec.accepted && reference.accepted, "case {case}");
        assert_eq!(rec.assumed, reference.assumed, "case {case}");
        assert_eq!(metrics.get(Counter::Steps), reference.steps, "case {case}");
        assert_eq!(
            qa.query(t).unwrap(),
            selected_from(&reference.assumed, t, wide_selecting),
            "case {case}"
        );
    }
}

/// FNV-1a over every observer hook, in call order and with its arguments,
/// so two runs fold to one value only if they report the same events.
struct HookHash(u64);

impl HookHash {
    fn new() -> Self {
        HookHash(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, words: &[u64]) {
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn fold_str(&mut self, s: &str) {
        self.fold(&[s.len() as u64]);
        for b in s.bytes() {
            self.fold(&[u64::from(b)]);
        }
    }

    /// A query's answer: the selected nodes, or the error's message.
    fn fold_answer(&mut self, answer: Result<Vec<NodeId>>) {
        match answer {
            Ok(nodes) => {
                self.fold(&[0, nodes.len() as u64]);
                for v in nodes {
                    self.fold(&[v.index() as u64]);
                }
            }
            Err(e) => {
                self.fold(&[1]);
                self.fold_str(&e.to_string());
            }
        }
    }
}

impl Observer for HookHash {
    fn count(&mut self, counter: Counter, n: u64) {
        self.fold(&[1, counter.index() as u64, n]);
    }
    fn record(&mut self, series: Series, value: u64) {
        self.fold(&[2, series.index() as u64, value]);
    }
    fn config(&mut self, state: u32, pos: u32, dir: i8) {
        self.fold(&[3, state.into(), pos.into(), dir as u8 as u64]);
    }
    fn phase_start(&mut self, name: &'static str) {
        self.fold(&[4]);
        self.fold_str(name);
    }
    fn phase_end(&mut self, name: &'static str) {
        self.fold(&[5]);
        self.fold_str(name);
    }
    fn selected(&mut self, pos: u32, state: u32, sym: u32) {
        self.fold(&[6, pos.into(), state.into(), sym.into()]);
    }
    fn stay_assign(&mut self, parent: u32, child: u32, state: u32) {
        self.fold(&[7, parent.into(), child.into(), state.into()]);
    }
    fn state_visit(&mut self, machine: Machine, state: u32, sym: u32) {
        self.fold(&[8, machine.index() as u64, state.into(), sym.into()]);
    }
    fn transition_fired(&mut self, machine: Machine, from: u32, sym: u32, to: u32) {
        self.fold(&[
            9,
            machine.index() as u64,
            from.into(),
            sym.into(),
            to.into(),
        ]);
    }
    fn checkpoint(&mut self) -> std::result::Result<(), Abort> {
        self.fold(&[10]);
        Ok(())
    }
}

/// The hook hash of `query_with` over every tree.
fn ranked_hash(qa: &RankedQa, trees: &[Tree]) -> u64 {
    let mut h = HookHash::new();
    for t in trees {
        let answer = qa.query_with(t, &mut h);
        h.fold_answer(answer);
    }
    h.0
}

/// The hook hashes of `query_with` and of `query_cached` (one cache across
/// all trees) over every tree.
fn unranked_hashes(qa: &UnrankedQa, trees: &[Tree]) -> (u64, u64) {
    let (mut plain, mut cached) = (HookHash::new(), HookHash::new());
    let mut cache = UpCache::new();
    for t in trees {
        let answer = qa.query_with(t, &mut plain);
        plain.fold_answer(answer);
        let answer = qa.query_cached(t, &mut cache, &mut cached);
        cached.fold_answer(answer);
    }
    (plain.0, cached.0)
}

/// 40 seeded trees over `inner` labels, whose leaves are relabelled from
/// `leaves`.
fn circuits(seed: u64, inner: &[Symbol], leaves: &[Symbol], max_rank: Option<usize>) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..40)
        .map(|i| {
            let mut t = generate::random(&mut rng, inner, 1 + i % 23, max_rank);
            for v in t.leaves().collect::<Vec<_>>() {
                t.set_label(v, leaves[rng.gen_range(0..leaves.len())]);
            }
            t
        })
        .collect()
}

#[test]
fn run_hooks_are_pinned() {
    // One hash over every hook the runs report, per machine and entry
    // point. A change to the run loops that moves, drops or reorders any
    // event, or changes an answer, changes a hash.
    let circuit = Alphabet::from_names(["AND", "OR", "0", "1"]);
    let (gates, bits) = (
        [circuit.symbol("AND"), circuit.symbol("OR")],
        [circuit.symbol("0"), circuit.symbol("1")],
    );
    let mut rng = StdRng::seed_from_u64(0x44);
    let full_binary: Vec<Tree> = (0..40)
        .map(|i| generate::random_full_binary(&mut rng, &gates, &bits, i % 17))
        .collect();
    let variadic = circuits(0x59, &gates, &bits, None);
    let bits_only = Alphabet::from_names(["0", "1"]);
    let zero_one = [bits_only.symbol("0"), bits_only.symbol("1")];
    let sibling_groups = circuits(0x514, &zero_one, &zero_one, None);

    let (e59, e59_cached) = unranked_hashes(&example_5_9(&circuit), &variadic);
    let (e514, e514_cached) = unranked_hashes(&example_5_14(&bits_only), &sibling_groups);
    let (wide, wide_cached) = unranked_hashes(&wide_unranked_qa(), &wide_trees(0x74, None));
    let got = [
        (
            "example 4.4",
            ranked_hash(&example_4_4(&circuit), &full_binary),
        ),
        ("example 5.9", e59),
        ("example 5.9 cached", e59_cached),
        ("example 5.14", e514),
        ("example 5.14 cached", e514_cached),
        (
            "wide ranked",
            ranked_hash(&wide_ranked_qa(), &wide_trees(0x72, Some(2))),
        ),
        ("wide unranked", wide),
        ("wide unranked cached", wide_cached),
    ];
    let want: [(&str, u64); 8] = [
        ("example 4.4", 0x30fb_fab3_f4c6_c251),
        ("example 5.9", 0xe500_e57b_1654_a1d4),
        ("example 5.9 cached", 0xd318_fca3_4e2e_121f),
        ("example 5.14", 0xa157_587b_8867_d6d9),
        ("example 5.14 cached", 0xe634_2f5f_6d13_f818),
        ("wide ranked", 0x7687_8178_6332_0df7),
        ("wide unranked", 0x67a7_1e50_2ece_74ab),
        ("wide unranked cached", 0x7d04_6217_deec_fb7c),
    ];
    assert_eq!(got, want);
}

#[test]
fn cached_and_uncached_runs_fail_alike_on_an_exhausted_stay_budget() {
    // s descends and turns u at the leaves. Any string of u and w pairs is
    // in U_stay; the stay rule's GSQA turns every u into w and halts in a
    // non-final state on a w. The root's second stay round, on w w, is
    // over the budget of 1: both paths report that before the rule runs.
    let a = Symbol::from_index(0);
    let mut b = TwoWayUnrankedBuilder::new(1);
    let (s, u, w) = (b.add_state(), b.add_state(), b.add_state());
    b.set_initial(s);
    b.set_polarity_all(s, Polarity::Down);
    b.set_polarity_all(u, Polarity::Up);
    b.set_polarity_all(w, Polarity::Up);
    b.set_down(s, a, SlenderLang::uniform(Symbol::from_index(s.index())));
    b.set_leaf(s, a, u);
    let (pu, pw) = (pair_symbol(u, a, 1), pair_symbol(w, a, 1));
    let mut matcher = Dfa::new(pair_alphabet_len(3, 1));
    let (m0, m1) = (matcher.add_state(), matcher.add_state());
    matcher.set_initial(m0);
    matcher.set_accepting(m1, true);
    for p in [pu, pw] {
        matcher.set_transition(m0, p, m1);
        matcher.set_transition(m1, p, m1);
    }
    let mut sweep = TwoDfaBuilder::new(pair_alphabet_len(3, 1));
    let (g0, g1, done) = (sweep.add_state(), sweep.add_state(), sweep.add_state());
    sweep.set_initial(g0);
    sweep.set_final(done, true);
    sweep.set_action(g0, Tape::LeftMarker, Dir::Right, g1);
    sweep.set_action(g1, Tape::Sym(pu), Dir::Right, g1);
    sweep.set_action(g1, Tape::RightMarker, Dir::Left, done);
    let mut rule = Gsqa::new(sweep.build().unwrap(), 3);
    rule.set_output(g1, pu, w.index() as u32);
    b.set_stay(StayBlock {
        matcher,
        rule: StayRule::Machine(rule),
        max_stays_per_node: 1,
    });
    let qa = UnrankedQa::new(b.build().unwrap());
    let t = from_sexpr("(a a a)", &mut Alphabet::from_names(["a"])).unwrap();
    let uncached = qa.query_with(&t, &mut NoopObserver).unwrap_err();
    let cached = qa
        .query_cached(&t, &mut UpCache::new(), &mut NoopObserver)
        .unwrap_err();
    assert_eq!(
        uncached.to_string(),
        "ill-formed automaton (S2DTAu): stay budget (1) exhausted at a node — \
         the machine is not strong"
    );
    assert_eq!(cached.to_string(), uncached.to_string());
}
