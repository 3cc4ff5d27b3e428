//! Figure 6 on unranked trees: the two passes over the implicit
//! first-child/next-sibling encoding agree with the ranked Figure 5 run on
//! the explicit encoding (for automata of any width), report unranked node
//! ids in their events, return selections in ascending id order, count the
//! encoded run's steps, and perform one table lookup per child plus `|Q|`
//! per distinct good-set memo key.

use std::collections::HashSet;

use query_automata::base::rng::{Rng, StdRng};
use query_automata::core::ranked::{ops, Dbta};
use query_automata::mso::compile_string::ext_symbol;
use query_automata::mso::query_eval::{
    eval_unary_ranked_with, eval_unary_unranked, eval_unary_unranked_naive,
};
use query_automata::mso::{unranked, PreparedUnary};
use query_automata::obs::{Counter, Machine, Tally};
use query_automata::prelude::*;
use query_automata::strings::StateId;
use query_automata::trees::{fcns, generate};

/// qa-serve's soak formulas and the five churn templates of the serving
/// benchmark, compiled as the daemon compiles them (σ = 4).
const FORMULAS: [&str; 9] = [
    "label(v, a)",
    "label(v, b)",
    "leaf(v) & label(v, c)",
    "label(v, a) & (ex r. (root(r) & label(r, a)))",
    "label(x7, c)",
    "leaf(x7) & label(x7, a)",
    "ex w7. (edge(w7, x7) & label(w7, a))",
    "ex w7. (edge(x7, w7) & label(w7, b))",
    "!(ex w7. (w7 < x7 & label(w7, c)))",
];

const SIGMA: usize = 4;

fn served_alphabet() -> Alphabet {
    Alphabet::from_names(["#PCDATA", "a", "b", "c"])
}

fn compile(src: &str, alphabet: &mut Alphabet) -> Dbta {
    let f = parse_mso(src, alphabet).unwrap();
    let var = f.free_vars().first().expect("one free variable").clone();
    unranked::compile_unary(&f, &var, alphabet.len()).unwrap()
}

/// What a run reported: `(pos, state)` of every `selected` event, every
/// `config` position, and the marked state of each verdict in order.
#[derive(Default)]
struct Verdicts {
    in_verdicts: bool,
    selected: Vec<(u32, u32)>,
    configs: Vec<u32>,
    marked: Vec<u32>,
}

impl Observer for Verdicts {
    fn phase_start(&mut self, name: &'static str) {
        self.in_verdicts = name == "verdicts";
    }
    fn phase_end(&mut self, _name: &'static str) {
        self.in_verdicts = false;
    }
    fn state_visit(&mut self, _machine: Machine, state: u32, _sym: u32) {
        if self.in_verdicts {
            self.marked.push(state);
        }
    }
    fn config(&mut self, _state: u32, pos: u32, _dir: i8) {
        self.configs.push(pos);
    }
    fn selected(&mut self, pos: u32, state: u32, _sym: u32) {
        self.selected.push((pos, state));
    }
}

/// The oracle: the ranked Figure 5 run on the explicit encoding, mapped
/// back. Returns the selected `(node, marked state)` pairs in ascending
/// node order and every node's marked state.
fn encoded_run(d: &Dbta, tree: &Tree, sigma: usize) -> (Vec<(NodeId, u32)>, Vec<u32>) {
    let (enc, map) = fcns::encode_with_map(tree, unranked::nil_symbol(sigma));
    let mut seen = Verdicts::default();
    let selected =
        eval_unary_ranked_with(d, &enc, unranked::encoded_alphabet_len(sigma), &mut seen);
    assert_eq!(selected.len(), seen.selected.len());
    let mut picks: Vec<(NodeId, u32)> = seen
        .selected
        .iter()
        .map(|&(pos, q)| (map[pos as usize].expect("nil leaves are never selected"), q))
        .collect();
    picks.sort_unstable();
    let mut marked = vec![u32::MAX; tree.num_nodes()];
    for (e, &q) in seen.marked.iter().enumerate() {
        if let Some(v) = map[e] {
            marked[v.index()] = q;
        }
    }
    (picks, marked)
}

fn chain(labels: &[Symbol], n: usize) -> Tree {
    let mut t = Tree::leaf(labels[0]);
    let mut v = t.root();
    for i in 1..n {
        v = t.add_child(v, labels[i % labels.len()]);
    }
    t
}

fn star(labels: &[Symbol], n: usize) -> Tree {
    let mut t = Tree::leaf(labels[0]);
    for i in 1..n {
        t.add_child(t.root(), labels[i % labels.len()]);
    }
    t
}

/// Random trees of 1–300 nodes (their arenas interleave `add_child` calls
/// under different parents, so ids are not in preorder), each also grafted
/// under a fresh root (a preorder arena), small random trees for the naive
/// check, a 100 000-deep chain and a 100 000-wide star.
fn shapes(seed: u64) -> Vec<Tree> {
    let labels: Vec<Symbol> = (0..SIGMA).map(Symbol::from_index).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trees = Vec::new();
    for _ in 0..24 {
        let n = rng.gen_range(1..=300);
        let arity = [None, Some(1), Some(2), Some(5)][rng.gen_range(0..4)];
        let t = generate::random(&mut rng, &labels, n, arity);
        trees.push(Tree::node(t.label(t.root()), vec![t.subtree(t.root())]));
        trees.push(t);
    }
    for n in [1, 2, 3, 5, 8, 12] {
        trees.push(generate::random(&mut rng, &labels, n, None));
    }
    trees.push(chain(&labels, 100_000));
    trees.push(star(&labels, 100_000));
    trees
}

#[test]
fn implicit_fcns_agrees_with_the_encoded_run() {
    let trees = shapes(61);
    for src in FORMULAS {
        let mut alphabet = served_alphabet();
        let d = compile(src, &mut alphabet);
        let prepared = PreparedUnary::new(&d, SIGMA);
        for t in &trees {
            let (want, want_marked) = encoded_run(&d, t, SIGMA);
            let mut seen = Verdicts::default();
            let got = prepared.eval_unranked_explained(t, &mut seen);
            let shape = || format!("{src} on a {}-node tree", t.num_nodes());
            assert_eq!(got, want, "{}", shape());
            assert_eq!(seen.marked, want_marked, "marked states, {}", shape());
            let plain: Vec<NodeId> = got.iter().map(|&(v, _)| v).collect();
            assert_eq!(prepared.eval_unranked(t), plain, "{}", shape());
            if t.num_nodes() <= 12 {
                assert_eq!(
                    plain,
                    eval_unary_unranked_naive(&d, t, SIGMA),
                    "{}",
                    shape()
                );
            }
        }
    }
}

#[test]
fn selected_events_name_unranked_nodes() {
    let mut alphabet = Alphabet::from_names(["a", "b", "c", "d", "e"]);
    let t = from_sexpr("(a (b d e) c)", &mut alphabet).unwrap();
    let d = compile("label(v, e)", &mut alphabet);
    let prepared = PreparedUnary::new(&d, alphabet.len());
    let mut seen = Verdicts::default();
    let selected = prepared.eval_unranked_with(&t, &mut seen);
    assert_eq!(selected, [NodeId::from_index(3)]);
    assert_eq!(seen.selected.len(), 1);
    assert_eq!(seen.selected[0].0, 3, "the selected event names node 3");
    assert_eq!(seen.configs, [3]);

    let trees = shapes(67);
    for src in FORMULAS {
        let mut alphabet = served_alphabet();
        let prepared = PreparedUnary::new(&compile(src, &mut alphabet), SIGMA);
        for t in &trees[..20] {
            let explained = prepared.eval_unranked_explained(t, &mut NoopObserver);
            let mut seen = Verdicts::default();
            let selected = prepared.eval_unranked_with(t, &mut seen);
            let events: Vec<(NodeId, u32)> = seen
                .selected
                .iter()
                .map(|&(pos, q)| (NodeId::from_index(pos as usize), q))
                .collect();
            assert_eq!(events, explained, "{src}");
            let nodes: Vec<NodeId> = explained.iter().map(|&(v, _)| v).collect();
            assert_eq!(selected, nodes, "{src}");
            let configs: Vec<u32> = nodes.iter().map(|v| v.index() as u32).collect();
            assert_eq!(seen.configs, configs, "{src}");
        }
    }
}

#[test]
fn selections_come_back_in_ascending_node_order() {
    let mut alphabet = Alphabet::from_names(["a", "b", "c", "d", "e"]);
    // encoding order visits c before e; document order is e before c
    let t = from_sexpr("(a (b d e) c)", &mut alphabet).unwrap();
    let d = compile("leaf(v)", &mut alphabet);
    let ids = |v: Vec<NodeId>| v.into_iter().map(NodeId::index).collect::<Vec<_>>();
    assert_eq!(ids(eval_unary_unranked(&d, &t, alphabet.len())), [2, 3, 4]);

    let doc = parse_document("<a><b><c/><b/><a><c/></a></b><c><a/><b><c/></b></c></a>").unwrap();
    let mut alphabet = doc.alphabet.clone();
    let d = compile("leaf(v)", &mut alphabet);
    let selected = eval_unary_unranked(&d, &doc.tree, alphabet.len());
    assert!(selected.windows(2).all(|w| w[0] < w[1]), "{selected:?}");
    assert_eq!(
        selected,
        eval_unary_unranked_naive(&d, &doc.tree, alphabet.len())
    );
    assert_eq!(selected, doc.tree.leaves().collect::<Vec<_>>());
}

#[test]
fn steps_are_those_of_the_encoded_run_and_budgets_bind_exactly() {
    let mut alphabet = served_alphabet();
    let d = compile("label(v, a)", &mut alphabet);
    let prepared = PreparedUnary::new(&d, SIGMA);
    for t in &shapes(71) {
        let full = 3 * (2 * t.num_nodes() as u64 + 1);
        let mut tally = Tally::new();
        let plain = prepared.eval_unranked_with(t, &mut tally);
        assert_eq!(
            tally.get(Counter::Steps),
            full,
            "{}-node tree",
            t.num_nodes()
        );

        let mut dog = Watchdog::new(NoopObserver, Budget::steps(full - 1));
        assert!(prepared.eval_unranked_with(t, &mut dog).is_empty());
        assert!(dog.tripped().is_some(), "{full} - 1 steps trip");

        let mut dog = Watchdog::new(NoopObserver, Budget::steps(full));
        assert_eq!(prepared.eval_unranked_with(t, &mut dog), plain);
        assert!(dog.tripped().is_none(), "{full} steps do not trip");
    }
}

/// A random automaton over the marked encoded alphabet with `states`
/// states. State 0 is a non-final sink that a marked `nil` leaf enters,
/// so, as for a compiled query, no `nil` leaf is ever selected; every
/// other leaf and binary transition is drawn uniformly from the rest, and
/// about half of them are final.
fn random_dbta(rng: &mut StdRng, states: usize, sigma: usize) -> Dbta {
    let enc = unranked::encoded_alphabet_len(sigma);
    let mut d = Dbta::new(2 * enc, 2);
    let qs: Vec<StateId> = (0..states).map(|_| d.add_state()).collect();
    let (sink, live) = (qs[0], &qs[1..]);
    let draw = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
    for a in (0..2 * enc).map(Symbol::from_index) {
        d.set_leaf(a, draw(rng));
        for &l in &qs {
            for &r in &qs {
                let to = if l == sink || r == sink {
                    sink
                } else {
                    draw(rng)
                };
                d.set_transition(&[l, r], a, to);
            }
        }
    }
    d.set_leaf(ext_symbol(unranked::nil_symbol(sigma), 1, enc), sink);
    for &q in live {
        d.set_final(q, rng.gen_bool(0.5));
    }
    d
}

#[test]
fn sets_wider_than_a_word_agree_with_the_encoded_run() {
    let mut rng = StdRng::seed_from_u64(73);
    let trees: Vec<Tree> = shapes(79)
        .into_iter()
        .filter(|t| t.num_nodes() <= 301)
        .collect();
    // 65 and 130 states: good sets of two and three words
    for states in [65, 130] {
        let d = random_dbta(&mut rng, states, SIGMA);
        let prepared = PreparedUnary::new(&d, SIGMA);
        let mut selections = 0;
        for t in &trees {
            let (want, want_marked) = encoded_run(&d, t, SIGMA);
            let mut seen = Verdicts::default();
            let got = prepared.eval_unranked_explained(t, &mut seen);
            let shape = || format!("{states} states on a {}-node tree", t.num_nodes());
            assert_eq!(got, want, "{}", shape());
            assert_eq!(seen.marked, want_marked, "marked states, {}", shape());
            let plain: Vec<NodeId> = got.iter().map(|&(v, _)| v).collect();
            assert_eq!(prepared.eval_unranked(t), plain, "{}", shape());
            selections += got.len();
        }
        assert!(selections > 0, "{states} states select something");
    }
}

/// The top-down pass walked with explicit state sets: the number of
/// distinct memo keys `(G, slot, other child's state, label)` over the
/// encoded edges of `tree`, each of which costs the pass `|Q|` lookups.
fn distinct_memo_keys(total: &Dbta, tree: &Tree, sigma: usize) -> usize {
    let enc = unranked::encoded_alphabet_len(sigma);
    let ext = |v: NodeId| ext_symbol(tree.label(v), 0, enc);
    let nil_leaf = ext_symbol(unranked::nil_symbol(sigma), 0, enc);
    let nil = total.transition(&[], nil_leaf).unwrap();
    let n = tree.num_nodes();
    let (mut left, mut right) = (vec![nil; n], vec![nil; n]);
    for v in tree.postorder() {
        let mut chain = nil;
        for &c in tree.children(v).iter().rev() {
            right[c.index()] = chain;
            chain = total.transition(&[left[c.index()], chain], ext(c)).unwrap();
        }
        left[v.index()] = chain;
    }
    let q = total.num_states();
    let mut good = vec![Vec::new(); n];
    good[tree.root().index()] = (0..q)
        .map(|i| total.is_final(StateId::from_index(i)))
        .collect::<Vec<bool>>();
    let mut keys = HashSet::new();
    for v in tree.preorder() {
        let mut from = v;
        for &c in tree.children(v) {
            let first = from == v;
            let other = if first {
                right[v.index()]
            } else {
                left[from.index()]
            };
            let outer = &good[from.index()];
            let set = (0..q)
                .map(|i| {
                    let s = StateId::from_index(i);
                    let pair = if first { [s, other] } else { [other, s] };
                    outer[total.transition(&pair, ext(from)).unwrap().index()]
                })
                .collect();
            keys.insert((outer.clone(), first, other, ext(from)));
            good[c.index()] = set;
            from = c;
        }
    }
    keys.len()
}

fn lookups(prepared: &PreparedUnary, tree: &Tree) -> u64 {
    let mut tally = Tally::new();
    prepared.eval_unranked_with(tree, &mut tally);
    tally.get(Counter::TableLookups)
}

#[test]
fn lookups_are_one_per_child_plus_q_per_memo_key() {
    let labels: Vec<Symbol> = (0..SIGMA).map(Symbol::from_index).collect();
    let mut rng = StdRng::seed_from_u64(83);
    let random = generate::random(&mut rng, &labels, 5_000, None);
    for src in FORMULAS {
        let mut alphabet = served_alphabet();
        let d = compile(src, &mut alphabet);
        let total = ops::totalize(&d);
        let q = total.num_states() as u64;
        let prepared = PreparedUnary::new(&d, SIGMA);
        let formula = |t: &Tree| {
            let n = t.num_nodes() as u64;
            (n - 1) + q * distinct_memo_keys(&total, t, SIGMA) as u64
        };
        for t in [&random, &chain(&labels, 1_000), &star(&labels, 1_000)] {
            assert_eq!(
                lookups(&prepared, t),
                formula(t),
                "{src} on a {}-node tree",
                t.num_nodes()
            );
        }
        // a chain and a star meet the same keys at any length, so their
        // pass 2 costs a constant number of lookups
        for shape in [chain, star] {
            let (small, large) = (shape(&labels, 1_000), shape(&labels, 20_000));
            assert_eq!(
                distinct_memo_keys(&total, &small, SIGMA),
                distinct_memo_keys(&total, &large, SIGMA),
                "{src}"
            );
            assert_eq!(lookups(&prepared, &large), formula(&large), "{src}");
        }
    }
}

#[test]
fn warm_formulas_read_at_most_three_and_a_quarter_lookups_per_node() {
    let labels: Vec<Symbol> = (0..SIGMA).map(Symbol::from_index).collect();
    let mut rng = StdRng::seed_from_u64(14_000);
    let t = generate::random(&mut rng, &labels, 14_000, None);
    for src in &FORMULAS[..4] {
        let mut alphabet = served_alphabet();
        let prepared = PreparedUnary::new(&compile(src, &mut alphabet), SIGMA);
        let per_node = lookups(&prepared, &t) as f64 / t.num_nodes() as f64;
        assert!(per_node <= 3.25, "{src}: {per_node:.3} lookups per node");
    }
}
