//! Theorem 3.9, constructive direction: every unary MSO query over strings
//! is computed by an actual query automaton.
//!
//! Given the deterministic automaton `D` over `Σ × {0,1}` for `φ(x)`
//! (from [`crate::compile_string::compile_unary`]):
//!
//! - a left-to-right DFA `M₁` tracks `(p_{i−1}, p_i)` — `D`'s state on the
//!   unmarked prefix before and after each position;
//! - a right-to-left DFA `M₂` tracks `B_i = {q | reading the unmarked
//!   suffix w_i…w_n from q accepts}` (and its one-step-delayed copy);
//! - position `i` is selected iff `δ_D(p_{i−1}, (w_i, 1)) ∈ B_{i+1}`.
//!
//! That decision is a [`qa_twoway::Bimachine`] with output alphabet
//! `{⊥, 1}`, which Lemma 3.10 ([`qa_twoway::hopcroft_ullman::compose`])
//! turns into a single two-way machine; wiring its outputs into a selection
//! function yields a literal [`StringQa`]. The machine accepts every input
//! (the query `φ(x)` has no acceptance gate) and selects exactly
//! `{i | w ⊨ φ[i]}`.

use std::collections::HashMap;

use qa_base::{Result, Symbol};
use qa_strings::{Dfa, StateId};
use qa_twoway::{hopcroft_ullman, Bimachine, StringQa};

use crate::compile::ext_symbol;

/// Build the bimachine deciding per-position selection (see module docs).
pub fn selection_bimachine(d: &Dfa, sigma: usize) -> Result<Bimachine> {
    let d = d.totalize();
    // M1: states are pairs (prev, cur) of D-states on the unmarked prefix.
    // Lazily reachable pairs only.
    let mut m1 = Dfa::new(sigma);
    let mut idx1: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let mut pairs: Vec<(StateId, StateId)> = Vec::new();
    let start = (d.initial(), d.initial());
    let id = m1.add_state();
    idx1.insert(start, id);
    pairs.push(start);
    m1.set_initial(id);
    let mut i = 0;
    while i < pairs.len() {
        let (_, cur) = pairs[i];
        let from = idx1[&pairs[i]];
        for a in 0..sigma {
            let sym = Symbol::from_index(a);
            let nxt = d.next(cur, ext_symbol(sym, 0, sigma)).expect("totalized");
            let key = (cur, nxt);
            let to = match idx1.get(&key) {
                Some(&t) => t,
                None => {
                    let t = m1.add_state();
                    idx1.insert(key, t);
                    pairs.push(key);
                    t
                }
            };
            m1.set_transition(from, sym, to);
        }
        i += 1;
    }

    // M2 (right-to-left): states are pairs (B_next, B_here) of accepting-set
    // masks; B over all D-states, lazily reachable.
    let nq = d.num_states();
    let accepting_mask: Vec<bool> = (0..nq)
        .map(|q| d.is_accepting(StateId::from_index(q)))
        .collect();
    let mut m2 = Dfa::new(sigma);
    let mut idx2: HashMap<(Vec<bool>, Vec<bool>), StateId> = HashMap::new();
    let mut sets: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
    let start2 = (accepting_mask.clone(), accepting_mask.clone());
    let id2 = m2.add_state();
    idx2.insert(start2.clone(), id2);
    sets.push(start2);
    m2.set_initial(id2);
    let mut j = 0;
    while j < sets.len() {
        let (_, here) = sets[j].clone();
        let from = idx2[&sets[j]];
        for a in 0..sigma {
            let sym = Symbol::from_index(a);
            // reading sym (unmarked) before the current suffix:
            // B' = {q | δ(q, sym₀) ∈ here}
            let mut b2 = vec![false; nq];
            for (q, slot) in b2.iter_mut().enumerate() {
                let t = d
                    .next(StateId::from_index(q), ext_symbol(sym, 0, sigma))
                    .expect("totalized");
                *slot = here[t.index()];
            }
            let key = (here.clone(), b2);
            let to = match idx2.get(&key) {
                Some(&t) => t,
                None => {
                    let t = m2.add_state();
                    idx2.insert(key.clone(), t);
                    sets.push(key);
                    t
                }
            };
            m2.set_transition(from, sym, to);
        }
        j += 1;
    }

    // Output: position i selected iff δ_D(p_{i−1}, (w_i, 1)) ∈ B_{i+1}.
    // M1's state at i is (p_{i−1}, p_i); M2's state at i is (B_{i+1}, B_i).
    let pairs_by_id: Vec<(StateId, StateId)> = {
        let mut v = vec![(StateId::from_index(0), StateId::from_index(0)); idx1.len()];
        for (pair, id) in &idx1 {
            v[id.index()] = *pair;
        }
        v
    };
    let sets_by_id: Vec<Vec<bool>> = {
        let mut v = vec![Vec::new(); idx2.len()];
        for ((next, _here), id) in &idx2 {
            v[id.index()] = next.clone();
        }
        v
    };
    Bimachine::new(m1, m2, 2, move |p, q, sym| {
        let (prev, _) = pairs_by_id[p.index()];
        let b_next = &sets_by_id[q.index()];
        let hit = d
            .next(prev, ext_symbol(sym, 1, sigma))
            .is_some_and(|t| b_next[t.index()]);
        u32::from(hit)
    })
}

/// Compile a unary string query automaton `D` (over `Σ × {0,1}`) into a
/// literal two-way [`StringQa`] via Lemma 3.10.
pub fn string_query_to_qa(d: &Dfa, sigma: usize) -> Result<StringQa> {
    let bim = selection_bimachine(d, sigma)?;
    let gsqa = hopcroft_ullman::compose(&bim)?;
    let machine = gsqa.machine().clone();
    let mut qa = StringQa::new(machine);
    for s_idx in 0..gsqa.machine().num_states() {
        let s = StateId::from_index(s_idx);
        for a in 0..sigma {
            let sym = Symbol::from_index(a);
            if gsqa.output_of(s, sym) == Some(1) {
                qa.set_selecting(s, sym, true);
            }
        }
    }
    Ok(qa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_string::{compile_unary, mark_word};
    use crate::parser::parse;
    use qa_base::Alphabet;

    fn all_words(sigma: usize, max_len: usize) -> Vec<Vec<Symbol>> {
        let mut out = vec![Vec::new()];
        let mut frontier = vec![Vec::new()];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for w in frontier {
                for s in 0..sigma {
                    let mut w2: Vec<Symbol> = w.clone();
                    w2.push(Symbol::from_index(s));
                    out.push(w2.clone());
                    next.push(w2);
                }
            }
            frontier = next;
        }
        out
    }

    fn check_query(src: &str, names: &[&str], max_len: usize) {
        let mut a = Alphabet::from_names(names.to_vec());
        let sigma = a.len();
        let f = parse(src, &mut a).unwrap();
        let d = compile_unary(&f, "v", sigma).unwrap();
        let qa = string_query_to_qa(&d, sigma).unwrap();
        for w in all_words(sigma, max_len) {
            let selected = qa.query(&w).unwrap();
            for pos in 0..w.len() {
                let want = d.accepts(&mark_word(&w, pos, sigma));
                assert_eq!(
                    selected.contains(&pos),
                    want,
                    "{src}: pos {pos} of {:?}",
                    a.render(&w)
                );
            }
        }
    }

    #[test]
    fn simple_label_query() {
        check_query("label(v, b)", &["a", "b"], 5);
    }

    #[test]
    fn first_and_last_queries() {
        check_query("root(v)", &["a", "b"], 5);
        check_query("leaf(v)", &["a", "b"], 5);
    }

    #[test]
    fn remark_3_3_query() {
        // select first and last position if the word contains a `b`
        check_query("(root(v) | leaf(v)) & (ex x. label(x, b))", &["a", "b"], 5);
    }

    #[test]
    fn example_3_4_query_as_synthesized_machine() {
        // odd position from the right, labeled 1 — matches the hand-built
        // Example 3.4 QA.
        let mut a = Alphabet::from_names(["0", "1"]);
        let hand = qa_twoway::string_qa::example_3_4_qa(&a);
        let src = "label(v, 1) & (ex2 X. ( (all x. (leaf(x) -> x in X)) \
                   & (all x. all y. (edge(x, y) -> (y in X <-> !(x in X)))) \
                   & v in X ))";
        let f = parse(src, &mut a).unwrap();
        let d = compile_unary(&f, "v", 2).unwrap();
        let synth = string_query_to_qa(&d, 2).unwrap();
        for w in all_words(2, 6) {
            assert_eq!(
                synth.query(&w).unwrap(),
                hand.query(&w).unwrap(),
                "{:?}",
                a.render(&w)
            );
        }
    }

    #[test]
    fn positional_context_query() {
        // select positions whose predecessor is `a` and successor is `b`
        check_query(
            "ex x. ex y. (edge(x, v) & edge(v, y) & label(x, a) & label(y, b))",
            &["a", "b"],
            5,
        );
    }
}
