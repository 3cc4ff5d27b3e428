//! Randomized property tests for the workspace invariants listed in
//! DESIGN.md §6, driven by the deterministic `qa_base::rng` generator so
//! every failure reproduces from its printed seed.

use query_automata::base::rng::{Rng, StdRng};
use query_automata::mso::{compile_ranked, compile_string, naive, query_eval, unranked};
use query_automata::prelude::*;
use query_automata::strings::{ops, Regex, StateId};
use query_automata::trees::generate;
use query_automata::twoway::{behavior::BehaviorAnalysis, crossing, shepherdson};

fn sym(i: usize) -> Symbol {
    Symbol::from_index(i)
}

/// Random regex AST over a 2-symbol alphabet.
fn random_regex(rng: &mut StdRng, depth: u32) -> Regex {
    if depth == 0 || rng.gen_bool(0.3) {
        match rng.gen_range(0..3) {
            0 => Regex::Epsilon,
            1 => Regex::Sym(sym(0)),
            _ => Regex::Sym(sym(1)),
        }
    } else {
        match rng.gen_range(0..3) {
            0 => Regex::Concat(
                Box::new(random_regex(rng, depth - 1)),
                Box::new(random_regex(rng, depth - 1)),
            ),
            1 => Regex::Alt(
                Box::new(random_regex(rng, depth - 1)),
                Box::new(random_regex(rng, depth - 1)),
            ),
            _ => Regex::Star(Box::new(random_regex(rng, depth - 1))),
        }
    }
}

fn random_word(rng: &mut StdRng, max_len: usize) -> Vec<Symbol> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| sym(rng.gen_range(0..2))).collect()
}

/// Random unranked tree over a 2-symbol alphabet, 1..=max_nodes nodes.
fn random_tree(rng: &mut StdRng, max_nodes: usize) -> Tree {
    let n = rng.gen_range(1..=max_nodes);
    query_automata::trees::generate::random(rng, &[sym(0), sym(1)], n, None)
}

/// regex → NFA → DFA → minimized DFA all agree on membership.
#[test]
fn regex_pipeline_agrees() {
    let mut rng = StdRng::seed_from_u64(101);
    for case in 0..64 {
        let r = random_regex(&mut rng, 3);
        let w = random_word(&mut rng, 8);
        let nfa = r.to_nfa(2);
        let dfa = nfa.determinize();
        let min = dfa.minimize();
        let via_nfa = nfa.accepts(&w);
        assert_eq!(via_nfa, dfa.accepts(&w), "case {case}: {r:?} on {w:?}");
        assert_eq!(via_nfa, min.accepts(&w), "case {case}: {r:?} on {w:?}");
        assert!(min.num_states() <= dfa.num_states(), "case {case}");
    }
}

/// complement really complements; intersection with the complement is
/// empty.
#[test]
fn complement_laws() {
    let mut rng = StdRng::seed_from_u64(102);
    for case in 0..64 {
        let r = random_regex(&mut rng, 3);
        let w = random_word(&mut rng, 6);
        let nfa = r.to_nfa(2);
        let comp = ops::complement(&nfa);
        assert_eq!(nfa.accepts(&w), !comp.accepts(&w), "case {case}: {r:?}");
        assert!(nfa.intersect(&comp.to_nfa()).is_empty(), "case {case}");
    }
}

/// Example 3.4 QA: direct run, behavior-function evaluation, the
/// Shepherdson DFA and the crossing-sequence NFAs all agree.
#[test]
fn string_qa_strategies_agree() {
    let qa = query_automata::twoway::string_qa::example_3_4_qa(&Alphabet::from_names(["0", "1"]));
    let shep = shepherdson::to_dfa(qa.machine());
    let cross = crossing::acceptance_nfa(qa.machine());
    let sel = crossing::selection_nfa(&qa);
    let mut rng = StdRng::seed_from_u64(103);
    for case in 0..64 {
        let w = random_word(&mut rng, 10);
        let via_run = qa.query(&w).unwrap();
        let via_beh = qa.query_via_behavior(&w);
        assert_eq!(via_run, via_beh, "case {case}: {w:?}");

        // acceptance: 2DFA vs Shepherdson vs crossing NFA
        let accepts = qa.machine().accepts(&w).unwrap();
        assert_eq!(accepts, shep.accepts(&w), "case {case}: {w:?}");
        assert_eq!(accepts, cross.accepts(&w), "case {case}: {w:?}");

        // selection NFA agrees position by position
        for pos in 0..w.len() {
            let marked = crossing::mark(&w, pos, 2);
            assert_eq!(
                via_run.contains(&pos),
                sel.accepts(&marked),
                "case {case}: {w:?} @ {pos}"
            );
        }
    }
}

/// Behavior analysis reproduces the literal run on random words.
#[test]
fn behavior_analysis_matches_run() {
    let qa = query_automata::twoway::string_qa::example_3_4_qa(&Alphabet::from_names(["0", "1"]));
    let m = qa.machine();
    let mut rng = StdRng::seed_from_u64(104);
    for case in 0..64 {
        let w = random_word(&mut rng, 12);
        let rec = m.run(&w).unwrap();
        let ba = BehaviorAnalysis::analyze(m, &w);
        assert_eq!(ba.accepted(m), rec.accepted, "case {case}: {w:?}");
        assert_eq!(rec.assumed.len(), ba.assumed.len(), "case {case}: {w:?}");
        for i in 0..rec.assumed.len() {
            let mut got = ba.assumed[i].clone();
            got.sort_unstable();
            let want: Vec<_> = rec.assumed.states(i).collect();
            assert_eq!(got, want, "case {case}: {w:?} @ {i}");
        }
    }
}

/// Compiled MSO sentences agree with the naive semantics on strings.
#[test]
fn mso_string_sentences_agree() {
    let mut a = Alphabet::from_names(["0", "1"]);
    let corpus: Vec<(Formula, query_automata::strings::Dfa)> = [
        "ex x. label(x, 1)",
        "all x. all y. (edge(x, y) -> !(label(x, 1) & label(y, 1)))",
        "ex x. ex y. (x < y & label(x, 1) & label(y, 0))",
        "ex2 X. ((all x. (root(x) -> x in X)) \
         & (all x. all y. (edge(x, y) -> (y in X <-> !(x in X)))) \
         & (all x. (leaf(x) -> !(x in X))))",
    ]
    .iter()
    .map(|src| {
        let f = parse_mso(src, &mut a).unwrap();
        let d = compile_string::compile_sentence(&f, 2).unwrap();
        (f, d)
    })
    .collect();
    let mut rng = StdRng::seed_from_u64(105);
    for case in 0..64 {
        let w = random_word(&mut rng, 7);
        let (f, d) = &corpus[rng.gen_range(0..corpus.len())];
        let naive_verdict = naive::check(naive::Structure::Word(&w), f).unwrap();
        assert_eq!(d.accepts(&w), naive_verdict, "case {case}: {w:?}");
    }
}

/// FCNS round trip on random trees.
#[test]
fn fcns_round_trip() {
    let nil = sym(2);
    let mut rng = StdRng::seed_from_u64(106);
    for case in 0..48 {
        let t = random_tree(&mut rng, 40);
        let enc = query_automata::trees::fcns::encode(&t, nil);
        assert!(enc.is_ranked(2), "case {case}");
        assert_eq!(
            query_automata::trees::fcns::decode(&enc, nil),
            t,
            "case {case}"
        );
    }
}

/// Example 5.14 SQAu ≡ compiled MSO ≡ reference predicate on random
/// trees — Theorem 5.17 in action.
#[test]
fn example_5_14_equals_mso_query() {
    let sigma = Alphabet::from_names(["0", "1"]);
    let sqa = example_5_14(&sigma);
    let mut a = sigma.clone();
    let phi = parse_mso(
        "label(v, 1) & leaf(v) & !(ex w. (w < v & label(w, 1)))",
        &mut a,
    )
    .unwrap();
    let automaton = unranked::compile_unary(&phi, "v", 2).unwrap();
    let mut rng = StdRng::seed_from_u64(107);
    for case in 0..48 {
        let t = random_tree(&mut rng, 24);
        let mut via_sqa = sqa.query(&t).unwrap();
        let mut via_mso = query_eval::eval_unary_unranked(&automaton, &t, 2);
        via_sqa.sort_unstable();
        via_mso.sort_unstable();
        assert_eq!(via_sqa, via_mso, "case {case}");
    }
}

/// Two-pass evaluation ≡ naive per-node evaluation (Figure 6).
#[test]
fn two_pass_matches_naive() {
    let mut a = Alphabet::from_names(["0", "1"]);
    let phi = parse_mso("leaf(v) & (ex r. (root(r) & label(r, 1)))", &mut a).unwrap();
    let d = unranked::compile_unary(&phi, "v", 2).unwrap();
    let mut rng = StdRng::seed_from_u64(108);
    for case in 0..48 {
        let t = random_tree(&mut rng, 20);
        let mut fast = query_eval::eval_unary_unranked(&d, &t, 2);
        let mut slow = query_eval::eval_unary_unranked_naive(&d, &t, 2);
        fast.sort_unstable();
        slow.sort_unstable();
        assert_eq!(fast, slow, "case {case}");
    }
}

/// Random MSO formulas in the parser's text syntax, over labels `0` and `1`
/// with the free first-order variable `v`: at most `size` atoms and
/// quantifiers nested at most `depth` deep, at most one of them a set
/// quantifier (the naive semantics enumerates every subset). Atoms are
/// `label`, `edge`, `<`, `leaf`, `root` and, under a set quantifier, `in`;
/// quantifiers are first-order (`ex`, `all`) and set (`ex2`, `all2`).
struct FormulaGen {
    rng: StdRng,
    /// Variables in scope, innermost last: first-order, then set.
    fo: Vec<String>,
    sets: Vec<String>,
    /// Variables named so far, to keep every bound name fresh.
    named: usize,
    set_quantified: bool,
}

impl FormulaGen {
    fn new(seed: u64) -> Self {
        FormulaGen {
            rng: StdRng::seed_from_u64(seed),
            fo: vec!["v".to_string()],
            sets: Vec::new(),
            named: 0,
            set_quantified: false,
        }
    }

    fn formula(&mut self, size: usize, depth: usize) -> String {
        let kinds = match (size, depth) {
            (0 | 1, _) => 0..1,
            (_, 0) => 1..3,
            _ => 1..5,
        };
        match self.rng.gen_range(kinds) {
            0 => self.atom(),
            1 => format!("!{}", self.formula(size - 1, depth)),
            2 => {
                let left = self.rng.gen_range(1..size);
                let op = ["&", "|"][self.rng.gen_range(0..2)];
                let l = self.formula(left, depth);
                format!("({l} {op} {})", self.formula(size - left, depth))
            }
            4 if !self.set_quantified => {
                self.set_quantified = true;
                let name = self.fresh("S");
                self.sets.push(name.clone());
                let body = self.formula(size - 1, depth - 1);
                self.sets.pop();
                let quantifier = ["ex2", "all2"][self.rng.gen_range(0..2)];
                format!("({quantifier} {name}. {body})")
            }
            _ => {
                let name = self.fresh("x");
                self.fo.push(name.clone());
                let body = self.formula(size - 1, depth - 1);
                self.fo.pop();
                let quantifier = ["ex", "all"][self.rng.gen_range(0..2)];
                format!("({quantifier} {name}. {body})")
            }
        }
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.named += 1;
        format!("{prefix}{}", self.named)
    }

    /// An atom over the innermost first-order variable half the time (so
    /// quantified variables get used), any in scope otherwise.
    fn atom(&mut self) -> String {
        let rng = &mut self.rng;
        let innermost = self.fo.len() - 1;
        let pick_innermost = rng.gen_bool(0.5);
        let x = match pick_innermost {
            true => &self.fo[innermost],
            false => &self.fo[rng.gen_range(0..=innermost)],
        };
        let y = &self.fo[rng.gen_range(0..=innermost)];
        let kinds = if self.sets.is_empty() { 5 } else { 6 };
        match rng.gen_range(0..kinds) {
            0 => format!("label({x}, {})", rng.gen_range(0..2)),
            1 => format!("edge({x}, {y})"),
            2 => format!("{x} < {y}"),
            3 => format!("leaf({x})"),
            4 => format!("root({x})"),
            _ => format!("{x} in {}", self.sets[rng.gen_range(0..self.sets.len())]),
        }
    }
}

/// Every word over `{0, 1}` of length at most `max_len`, shortest first.
fn all_words(max_len: usize) -> Vec<Vec<Symbol>> {
    let mut words = vec![Vec::new()];
    let mut start = 0;
    for _ in 0..max_len {
        let end = words.len();
        for i in start..end {
            for s in 0..2 {
                let mut w = words[i].clone();
                w.push(sym(s));
                words.push(w);
            }
        }
        start = end;
    }
    words
}

/// Figure 5 (rank 2), Figure 6 and the string compiler agree with the naive
/// MSO semantics on random formulas: on random trees of at most 8 nodes,
/// and at every position of every word of length at most 5. Compiling is
/// the cost (`leaf` and `root` hide a quantifier each), so formulas keep to
/// four atoms and one explicit quantifier level: about 5 s in a debug
/// build. The compiled automata are also pinned: one FNV-1a per family
/// (string, rank 2, unranked) over the listings of all 16.
#[test]
fn random_formulas_agree_with_naive_on_figures_5_and_6() {
    const PINNED: [(&str, u64); 3] = [
        ("string", 0x645799883fd62581),
        ("rank 2", 0xe885be867a03ea28),
        ("unranked", 0x86125f12231b14b4),
    ];
    let mut listings = [String::new(), String::new(), String::new()];
    let words = all_words(5);
    for seed in 0..16 {
        let mut alphabet = Alphabet::from_names(["0", "1"]);
        let src = FormulaGen::new(seed).formula(4, 1);
        let why = |e: Error| format!("seed {seed}: {src}: {e}");
        let phi = parse_mso(&src, &mut alphabet).map_err(why).unwrap();
        let ranked = compile_ranked::compile_unary(&phi, "v", 2, 2)
            .map_err(why)
            .unwrap();
        let unranked = unranked::compile_unary(&phi, "v", 2).map_err(why).unwrap();
        let string = compile_string::compile_unary(&phi, "v", 2)
            .map_err(why)
            .unwrap();
        dfa_listing(&mut listings[0], &string);
        dbta_listing(&mut listings[1], &ranked);
        dbta_listing(&mut listings[2], &unranked);
        for w in &words {
            let want = naive::query(naive::Structure::Word(w), &phi, "v").unwrap();
            let got: Vec<usize> = (0..w.len())
                .filter(|&i| string.accepts(&compile_string::mark_word(w, i, 2)))
                .collect();
            let word = alphabet.render(w);
            assert_eq!(got, want, "seed {seed}: {src} on {word}");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..6 {
            let n = rng.gen_range(1..=8);
            let binary = generate::random(&mut rng, &[sym(0), sym(1)], n, Some(2));
            let any = random_tree(&mut rng, 8);
            let cases = [
                (&binary, query_eval::eval_unary_ranked(&ranked, &binary, 2)),
                (&any, query_eval::eval_unary_unranked(&unranked, &any, 2)),
            ];
            for (t, got) in cases {
                let want = naive::query(naive::Structure::Tree(t), &phi, "v").unwrap();
                let got: Vec<usize> = got.into_iter().map(NodeId::index).collect();
                assert_eq!(got, want, "seed {seed}: {src} on {}", t.render(&alphabet));
            }
        }
    }
    let got: Vec<(&str, u64)> = PINNED
        .iter()
        .zip(&listings)
        .map(|(&(family, _), listing)| (family, query_automata::obs::fnv1a64(listing.as_bytes())))
        .collect();
    assert_eq!(got, PINNED, "compiled automata changed; now: {got:#x?}");
}

/// Append a DFA's state count, initial state, every `(state, symbol) →
/// next` and its accepting states to `out`.
fn dfa_listing(out: &mut String, d: &query_automata::strings::Dfa) {
    use std::fmt::Write;
    let _ = writeln!(out, "{} states, initial {:?}", d.num_states(), d.initial());
    for i in 0..d.num_states() {
        let q = StateId::from_index(i);
        for e in 0..d.alphabet_len() {
            let _ = writeln!(out, "{q:?} {e} -> {:?}", d.next(q, sym(e)));
        }
        if d.is_accepting(q) {
            let _ = writeln!(out, "accepting {q:?}");
        }
    }
}

/// Append a DBTA's state count, `transitions()` listing and final states
/// to `out`.
fn dbta_listing(out: &mut String, d: &Dbta) {
    use std::fmt::Write;
    let _ = writeln!(out, "{} states", d.num_states());
    for (children, label, q) in d.transitions() {
        let _ = writeln!(out, "{children:?} {} -> {q:?}", label.index());
    }
    for i in 0..d.num_states() {
        let q = StateId::from_index(i);
        if d.is_final(q) {
            let _ = writeln!(out, "final {q:?}");
        }
    }
}

/// Unranked run confluence: random schedules select the same nodes.
#[test]
fn unranked_runs_are_confluent() {
    let qa = example_5_14(&Alphabet::from_names(["0", "1"]));
    let mut rng = StdRng::seed_from_u64(109);
    for case in 0..48 {
        let t = random_tree(&mut rng, 16);
        let reference = qa.machine().run(&t).unwrap();
        let rec = qa
            .machine()
            .run_scheduled(&t, qa.machine().default_fuel(&t), |n| rng.gen_range(0..n))
            .unwrap();
        assert_eq!(rec.accepted, reference.accepted, "case {case}");
        assert_eq!(rec.assumed, reference.assumed, "case {case}");
    }
}

/// Random metrics registry: arbitrary counter bumps and series samples.
fn random_metrics(rng: &mut StdRng) -> query_automata::obs::Metrics {
    use query_automata::obs::{Counter, Observer, Series};
    let m = query_automata::obs::Metrics::new();
    {
        let mut o = m.observer();
        for _ in 0..rng.gen_range(0..40) {
            let c = Counter::ALL[rng.gen_range(0..Counter::ALL.len())];
            o.count(c, rng.gen_range(0..1000) as u64);
        }
        for _ in 0..rng.gen_range(0..40) {
            let s = Series::ALL[rng.gen_range(0..Series::ALL.len())];
            // Spread samples across the full bucket range, including 0.
            let v = (rng.gen_range(0..1024) as u64) << rng.gen_range(0..50);
            o.record(s, v);
        }
    }
    m
}

/// `Metrics::merge` is commutative and associative — the algebraic fact
/// the mesh's shard-invariant federation rests on: any grouping and any
/// order of worker registries must fold to the same exposition.
#[test]
fn metrics_merge_is_commutative_and_associative() {
    use query_automata::probe::export::prometheus_text;
    let mut rng = StdRng::seed_from_u64(110);
    for case in 0..32 {
        let (a, b, c) = (
            random_metrics(&mut rng),
            random_metrics(&mut rng),
            random_metrics(&mut rng),
        );
        let render = |parts: &[&query_automata::obs::Metrics]| {
            let acc = query_automata::obs::Metrics::new();
            for p in parts {
                acc.merge(p);
            }
            prometheus_text(&acc, "qa_prop")
        };
        // Commutativity: a+b == b+a.
        assert_eq!(render(&[&a, &b]), render(&[&b, &a]), "case {case}");
        // Associativity: (a+b)+c == a+(b+c), via the flat fold and the
        // explicitly grouped fold.
        let ab = query_automata::obs::Metrics::new();
        ab.merge(&a);
        ab.merge(&b);
        let bc = query_automata::obs::Metrics::new();
        bc.merge(&b);
        bc.merge(&c);
        assert_eq!(render(&[&ab, &c]), render(&[&a, &bc]), "case {case}");
        assert_eq!(render(&[&ab, &c]), render(&[&a, &b, &c]), "case {case}");
    }
}

/// The exposition round-trip survives random registries: parsing a render
/// and re-rendering is the identity at the text level, so a mesh scrape
/// loses nothing a federated render would show.
#[test]
fn prometheus_round_trip_is_lossless_on_random_registries() {
    use query_automata::probe::export::prometheus_text;
    use query_automata::pulse::parse_prometheus;
    let mut rng = StdRng::seed_from_u64(111);
    for case in 0..32 {
        let m = random_metrics(&mut rng);
        let rendered = prometheus_text(&m, "qa_prop");
        let rebuilt = parse_prometheus(&rendered)
            .unwrap_or_else(|e| panic!("case {case}: own render must parse: {e}"))
            .to_metrics("qa_prop")
            .unwrap_or_else(|e| panic!("case {case}: scrape must map onto Metrics: {e}"));
        assert_eq!(
            prometheus_text(&rebuilt, "qa_prop"),
            rendered,
            "case {case}"
        );
    }
}
