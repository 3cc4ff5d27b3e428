//! Pins the automata that the serving formulas compile to.
//!
//! State numbering falls out of the order in which `determinize`,
//! `product` and the ranked `local` builder enumerate child-state tuples,
//! and the order of `Dbta::transitions()` feeds `witness`, `trim` and the
//! NBTA built by projection. A change to the transition table or to the tuple
//! enumerator that renumbers a single state changes one of the hashes
//! below. The unary formulas are qa-serve's soak formulas and the five
//! templates of qa-benchmark's churn workload, compiled as the daemon
//! compiles them: unranked, with `#PCDATA`, `a`, `b`, `c` interned, so
//! σ = 4. Two ranked sentences add a set quantifier and rank 3. The string
//! formulas pin Büchi's construction, which shares the compiler.

use std::fmt::Write;

use qa_base::Alphabet;
use qa_core::ranked::{ops, Dbta, Nbta};
use qa_mso::compile::base_symbol;
use qa_mso::{compile_ranked, compile_string, parse, unranked};
use qa_strings::{Dfa, StateId};

/// `(formula, states, hash of the compiled listing, hash of the
/// totalized listing)`.
type Pin = (&'static str, usize, u64, u64);

const UNARY: [Pin; 9] = [
    // qa-serve's SOAK_FORMULAS
    ("label(v, a)", 3, 0xaddcfd413c491fee, 0xfe97acacada592c2),
    ("label(v, b)", 3, 0xeb55ad8f118f2738, 0xfe3602408e0b1944),
    (
        "leaf(v) & label(v, c)",
        4,
        0x9548988da3068b8e,
        0xe67674e2294eb7dc,
    ),
    (
        "label(v, a) & (ex r. (root(r) & label(r, a)))",
        7,
        0x93f190a85480cce6,
        0x99f58b332ae10246,
    ),
    // qa-benchmark's churn templates (`Template::instantiate`)
    ("label(x7, c)", 3, 0x3eef1e4ce93fb4ea, 0xacabd3de1614a6be),
    (
        "leaf(x7) & label(x7, a)",
        4,
        0x542654af05e395ba,
        0xbbbe26afb41f9080,
    ),
    (
        "ex w7. (edge(w7, x7) & label(w7, a))",
        4,
        0xb1c67ca5ccf6f595,
        0xbabc5ff7254732ef,
    ),
    (
        "ex w7. (edge(x7, w7) & label(w7, b))",
        4,
        0x8b7393a8aa132ce6,
        0x6272106ac3e498c4,
    ),
    (
        "!(ex w7. (w7 < x7 & label(w7, c)))",
        4,
        0x97edb45217e02f4b,
        0x3a3bbf18b21f4b55,
    ),
];

/// Ranked sentences over `{a, b}`, with their rank.
const RANKED: [(Pin, usize); 2] = [
    (
        (
            "ex2 X. ((ex r. (root(r) & r in X)) \
             & (all x. (x in X -> (leaf(x) | ex y. (edge(x, y) & y in X)))) \
             & (ex l. (l in X & leaf(l) & label(l, b))))",
            3,
            0xfa41171d7e36220f,
            0x62ab52c7f6adc997,
        ),
        2,
    ),
    (
        (
            "ex x. ex y. (x < y & label(x, b) & label(y, b))",
            4,
            0x0408bc2f8a6d79fd,
            0xd51f3eaf44975436,
        ),
        3,
    ),
];

/// FNV-1a of the `transitions()` listing, in iteration order, followed by
/// the final states.
fn listing_hash(d: &Dbta) -> u64 {
    let mut listing = String::new();
    for (children, label, q) in d.transitions() {
        let _ = writeln!(listing, "{children:?} {} -> {q:?}", label.index());
    }
    for i in 0..d.num_states() {
        let q = qa_strings::StateId::from_index(i);
        if d.is_final(q) {
            let _ = writeln!(listing, "final {q:?}");
        }
    }
    qa_obs::fnv1a64(listing.as_bytes())
}

/// Compile a unary formula as qa-serve does, at σ = 4.
fn compile_served(src: &str) -> Dbta {
    let mut alphabet = Alphabet::from_names(["#PCDATA", "a", "b", "c"]);
    let f = parse(src, &mut alphabet).unwrap();
    assert_eq!(alphabet.len(), 4, "{src} must not grow the alphabet");
    let var = f.free_vars().first().expect("one free variable").clone();
    unranked::compile_unary(&f, &var, alphabet.len()).unwrap()
}

/// Compare `d` against its pin; on a mismatch, append the actual line.
fn check(pin: Pin, d: &Dbta, actual: &mut String) -> bool {
    let (src, states, hash, total_hash) = pin;
    let got = (
        d.num_states(),
        listing_hash(d),
        listing_hash(&ops::totalize(d)),
    );
    let _ = writeln!(
        actual,
        "    ({src:?}, {}, {:#018x}, {:#018x}),",
        got.0, got.1, got.2
    );
    got == (states, hash, total_hash)
}

#[test]
fn served_formulas_compile_to_the_pinned_automata() {
    let mut actual = String::new();
    let mut mismatches = 0;
    for pin in UNARY {
        mismatches += usize::from(!check(pin, &compile_served(pin.0), &mut actual));
    }
    for (pin, rank) in RANKED {
        let mut alphabet = Alphabet::from_names(["a", "b"]);
        let f = parse(pin.0, &mut alphabet).unwrap();
        let d = compile_ranked::compile_sentence(&f, alphabet.len(), rank).unwrap();
        mismatches += usize::from(!check(pin, &d, &mut actual));
    }
    assert_eq!(mismatches, 0, "compiled automata changed; now:\n{actual}");
}

/// Products and subset constructions before minimization, which number
/// their states in tuple-enumeration order.
const UNMINIMIZED: [Pin; 3] = [
    ("intersect", 14, 0x1d8f077dd1c348eb, 0x0e666bb6f78246ed),
    ("union", 8, 0xf4bddeb91a4767f0, 0xefcb913ec3317aaa),
    ("determinize", 5, 0xc4a9e00aa1135bb5, 0x2407b1cce8a78153),
];

#[test]
fn products_and_subset_constructions_keep_their_numbering() {
    let rooted = compile_served(UNARY[3].0);
    let parent = compile_served(UNARY[6].0);
    let leaf = compile_served(UNARY[2].0);
    // Forget the mark: "some node of the tree satisfies φ", nondeterministic.
    let sigma = unranked::encoded_alphabet_len(4);
    let mut guess = Nbta::new(sigma, 2);
    for _ in 0..parent.num_states() {
        let q = guess.add_state();
        guess.set_final(q, parent.is_final(q));
    }
    for (children, e, q) in parent.transitions() {
        guess.add_transition(children, base_symbol(e, sigma), q);
    }
    let built = [
        ops::intersect(&rooted, &parent),
        ops::union(&leaf, &parent),
        ops::determinize(&guess),
    ];
    let mut actual = String::new();
    let mut mismatches = 0;
    for (pin, d) in UNMINIMIZED.into_iter().zip(&built) {
        mismatches += usize::from(!check(pin, d, &mut actual));
    }
    assert_eq!(
        mismatches, 0,
        "construction numbering changed; now:\n{actual}"
    );
}

/// String formulas over `{0, 1}`, each a sentence or a unary query over its
/// one free variable: `(formula, states, hash of the listing)`.
const STRING: [(&str, usize, u64); 6] = [
    // the sentences of `tests/properties.rs::mso_string_sentences_agree`;
    // the second is also E7's sentence
    ("ex x. label(x, 1)", 2, 0x7d99a88c4792b1e7),
    (
        "all x. all y. (edge(x, y) -> !(label(x, 1) & label(y, 1)))",
        3,
        0x53409c8e1e0d8167,
    ),
    (
        "ex x. ex y. (x < y & label(x, 1) & label(y, 0))",
        3,
        0x3c315efc2bd60822,
    ),
    (
        "ex2 X. ((all x. (root(x) -> x in X)) \
         & (all x. all y. (edge(x, y) -> (y in X <-> !(x in X)))) \
         & (all x. (leaf(x) -> !(x in X))))",
        2,
        0x0c80521df6de52e7,
    ),
    // E7's query
    (
        "label(v, 1) & !(ex w. (w < v & label(w, 1)))",
        3,
        0xc9b1c05594ee52cb,
    ),
    // Example 3.4's query
    (
        "label(v, 1) & (ex2 X. ( (all x. (leaf(x) -> x in X)) \
         & (all x. all y. (edge(x, y) -> (y in X <-> !(x in X)))) \
         & v in X ))",
        4,
        0xc065c36ad2f7c54e,
    ),
];

/// FNV-1a of a DFA: its initial state, every `(state, symbol) → next` in
/// state-then-symbol order, and its accepting states.
fn dfa_listing_hash(d: &Dfa) -> u64 {
    let mut listing = format!("initial {:?}\n", d.initial());
    for i in 0..d.num_states() {
        let q = StateId::from_index(i);
        for e in 0..d.alphabet_len() {
            let next = d.next(q, qa_base::Symbol::from_index(e));
            let _ = writeln!(listing, "{q:?} {e} -> {next:?}");
        }
    }
    for i in 0..d.num_states() {
        let q = StateId::from_index(i);
        if d.is_accepting(q) {
            let _ = writeln!(listing, "accepting {q:?}");
        }
    }
    qa_obs::fnv1a64(listing.as_bytes())
}

#[test]
fn string_formulas_compile_to_the_pinned_automata() {
    let mut actual = String::new();
    let mut mismatches = 0;
    for (src, states, hash) in STRING {
        let mut alphabet = Alphabet::from_names(["0", "1"]);
        let f = parse(src, &mut alphabet).unwrap();
        let d = match f.free_vars().first() {
            None => compile_string::compile_sentence(&f, 2),
            Some(var) => compile_string::compile_unary(&f, var, 2),
        }
        .unwrap();
        let got = (d.num_states(), dfa_listing_hash(&d));
        let _ = writeln!(actual, "    ({src:?}, {}, {:#018x}),", got.0, got.1);
        mismatches += usize::from(got != (states, hash));
    }
    assert_eq!(mismatches, 0, "compiled DFAs changed; now:\n{actual}");
}
