//! Every numbered example in the paper, exercised through the public API.
//!
//! These double as executable documentation: each test's comment cites the
//! example it reproduces and the behavior the paper describes for it.

use query_automata::mso::{compile_string, naive, unranked};
use query_automata::prelude::*;

/// Example 2.1/2.2: the MSO sentence defining chains of even length
/// (min/max expressed via root/leaf).
#[test]
fn example_2_2_even_chains() {
    let mut a = Alphabet::from_names(["c"]);
    let phi = parse_mso(
        "ex2 X. ( (all x. (root(x) -> x in X)) \
         & (all x. all y. ((x in X & edge(x, y)) -> !(y in X))) \
         & (all x. all y. ((!(x in X) & edge(x, y)) -> y in X)) \
         & (all x. (leaf(x) -> !(x in X))) )",
        &mut a,
    )
    .unwrap();
    let dfa = compile_string::compile_sentence(&phi, 1).unwrap();
    for len in 1..=9usize {
        let w = vec![a.symbol("c"); len];
        assert_eq!(dfa.accepts(&w), len % 2 == 0, "length {len}");
        assert_eq!(
            naive::check(naive::Structure::Word(&w), &phi).unwrap(),
            len % 2 == 0
        );
    }
}

/// Example 3.4: the displayed run on ⊳0110⊲ — 11 configurations, halting
/// at the left endmarker in s₁, selecting exactly the paper's position 3
/// (our 0-based input index 1).
#[test]
fn example_3_4_run_and_selection() {
    let sigma = Alphabet::from_names(["0", "1"]);
    let qa = query_automata::twoway::string_qa::example_3_4_qa(&sigma);
    let w = sigma.word("0110");
    // The run record keeps no configuration sequence; a RunTrace observer
    // receives every configuration as the run makes it.
    let mut trace = RunTrace::new();
    let rec = qa.machine().run_with(&w, &mut trace).unwrap();
    assert!(rec.accepted);
    assert_eq!(
        trace.configs.len(),
        11,
        "the paper's run has 11 configurations"
    );
    assert_eq!(rec.halt.1, 0, "halts at ⊳");
    assert_eq!(qa.query(&w).unwrap(), vec![1]);
}

/// Example 3.6: the generalized query automaton rewriting ⊳0110⊲ to 0*10.
#[test]
fn example_3_6_gsqa_output() {
    let sigma = Alphabet::from_names(["0", "1"]);
    let g = query_automata::twoway::gsqa::example_3_6_gsqa(&sigma);
    // output alphabet: 0 ↦ 0, 1 ↦ 1, 2 ↦ *
    assert_eq!(g.run(&sigma.word("0110")).unwrap(), vec![0, 2, 1, 0]);
}

/// Example 4.2: the two-way circuit evaluator accepts exactly the circuits
/// evaluating to 1 (F = {v₁}).
#[test]
fn example_4_2_circuit_acceptance() {
    let sigma = Alphabet::from_names(["AND", "OR", "0", "1"]);
    let m = example_4_2(&sigma);
    let mut names = sigma.clone();
    for (src, val) in [
        ("(AND (OR 0 1) (OR 1 0))", true),
        ("(OR (AND 1 0) (AND 0 1))", false),
        ("1", true),
    ] {
        let t = from_sexpr(src, &mut names).unwrap();
        assert_eq!(m.accepts(&t).unwrap(), val, "{src}");
    }
}

/// Example 4.4: with F = Q and the evaluating λ, every node computing 1 is
/// selected — including on circuits whose overall value is 0.
#[test]
fn example_4_4_selects_under_global_zero() {
    let sigma = Alphabet::from_names(["AND", "OR", "0", "1"]);
    let qa = example_4_4(&sigma);
    let mut names = sigma.clone();
    let t = from_sexpr("(AND (OR 1 0) 0)", &mut names).unwrap();
    // overall value 0, but the OR gate and its 1-leaf are selected
    let selected = qa.query(&t).unwrap();
    assert_eq!(selected.len(), 2);
    assert!(!selected.contains(&t.root()));
}

/// Example 5.9: the stay-free unranked query automaton on variadic
/// circuits; λ as in the paper selects exactly the 1-evaluating nodes.
#[test]
fn example_5_9_variadic_circuits() {
    let sigma = Alphabet::from_names(["AND", "OR", "0", "1"]);
    let qa = example_5_9(&sigma);
    assert!(!qa.is_strong(), "no stay transitions");
    let mut names = sigma.clone();
    let t = from_sexpr("(OR (AND 1 1 1) (OR 0 0 0 0) 0)", &mut names).unwrap();
    let selected = qa.query(&t).unwrap();
    // root (OR with a true disjunct), the AND gate, and its three 1-leaves
    assert_eq!(selected.len(), 5);
    assert!(selected.contains(&t.root()));
}

/// Example 5.14 / Proposition 5.10: the stay transition resolves the
/// "first 1-labeled leaf per sibling group" query in one pass; it agrees
/// with both the naive MSO semantics and the compiled automaton.
#[test]
fn example_5_14_three_way_agreement() {
    let sigma = Alphabet::from_names(["0", "1"]);
    let sqa = example_5_14(&sigma);
    let mut names = sigma.clone();
    let mut a2 = sigma.clone();
    let phi = parse_mso(
        "label(v, 1) & leaf(v) & !(ex w. (w < v & label(w, 1)))",
        &mut a2,
    )
    .unwrap();
    let compiled = unranked::compile_unary(&phi, "v", 2).unwrap();
    for src in [
        "1",
        "(0 1 0 1)",
        "(1 (0 1 1) (1 0) 1)",
        "(0 (0 (0 1 1) 1) 1)",
    ] {
        let t = from_sexpr(src, &mut names).unwrap();
        let mut via_sqa = sqa.query(&t).unwrap();
        let mut via_naive: Vec<NodeId> = naive::query(naive::Structure::Tree(&t), &phi, "v")
            .unwrap()
            .into_iter()
            .map(NodeId::from_index)
            .collect();
        let mut via_auto = query_automata::mso::query_eval::eval_unary_unranked(&compiled, &t, 2);
        via_sqa.sort_unstable();
        via_naive.sort_unstable();
        via_auto.sort_unstable();
        assert_eq!(via_sqa, via_naive, "{src}");
        assert_eq!(via_sqa, via_auto, "{src}");
    }
}

/// Remark 3.3: "select first and last position if the word contains σ" —
/// not computable one-way, synthesized here as a genuine two-way machine
/// from its MSO definition.
#[test]
fn remark_3_3_needs_two_way() {
    let sigma = Alphabet::from_names(["a", "b"]);
    let mut a = sigma.clone();
    let phi = parse_mso("(root(v) | leaf(v)) & (ex x. label(x, b))", &mut a).unwrap();
    let d = compile_string::compile_unary(&phi, "v", 2).unwrap();
    let qa = query_automata::mso::to_qa::string_query_to_qa(&d, 2).unwrap();
    assert_eq!(qa.query(&sigma.word("aba")).unwrap(), vec![0, 2]);
    assert_eq!(qa.query(&sigma.word("aaa")).unwrap(), Vec::<usize>::new());
    assert_eq!(qa.query(&sigma.word("b")).unwrap(), vec![0]);
}

/// Remark 4.5: "select the root if some leaf is labeled σ, and all leaves
/// if the root is labeled σ" — the query that separates two-way from
/// one-way tree query automata; via the ranked MSO pipeline.
#[test]
fn remark_4_5_two_sided_query() {
    let mut a = Alphabet::from_names(["s", "t"]);
    let phi = parse_mso(
        "(root(v) & ex l. (leaf(l) & label(l, s))) \
         | (leaf(v) & ex r. (root(r) & label(r, s)))",
        &mut a,
    )
    .unwrap();
    let d = query_automata::mso::compile_ranked::compile_unary(&phi, "v", 2, 2).unwrap();
    let mut names = a.clone();
    // root labeled s: all leaves selected (and the root too: it has an
    // s-leaf below iff some leaf is s).
    let t = from_sexpr("(s (t s t) t)", &mut names).unwrap();
    let selected = query_automata::mso::query_eval::eval_unary_ranked(&d, &t, 2);
    let leaves: Vec<NodeId> = t.leaves().collect();
    for l in &leaves {
        assert!(selected.contains(l));
    }
    assert!(selected.contains(&t.root()), "s-leaf exists");
    // root not s, no s leaves: nothing selected
    let t2 = from_sexpr("(t (t t) t)", &mut names).unwrap();
    assert!(query_automata::mso::query_eval::eval_unary_ranked(&d, &t2, 2).is_empty());
}

/// Section 1's flagship: "select all leaves if the root is labeled σ" —
/// the query a bottom-up automaton cannot compute (it cannot know the root
/// label at the leaves).
#[test]
fn flagship_root_conditional_leaf_selection() {
    let mut a = Alphabet::from_names(["sig", "tau"]);
    let phi = parse_mso("leaf(v) & (ex r. (root(r) & label(r, sig)))", &mut a).unwrap();
    let d = unranked::compile_unary(&phi, "v", 2).unwrap();
    let mut names = a.clone();
    let yes = from_sexpr("(sig tau (tau sig) tau)", &mut names).unwrap();
    let sel = query_automata::mso::query_eval::eval_unary_unranked(&d, &yes, 2);
    assert_eq!(sel.len(), yes.leaves().count());
    let no = from_sexpr("(tau sig sig)", &mut names).unwrap();
    assert!(query_automata::mso::query_eval::eval_unary_unranked(&d, &no, 2).is_empty());
}
