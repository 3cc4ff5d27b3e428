//! Büchi's theorem, constructive direction (Theorem 2.5): MSO over strings
//! compiles to finite automata.
//!
//! The compiler is [`crate::compile`]'s, over DFAs: a local rule reads the
//! previous position's state. This module adds the marking of words and
//! the string navigation atoms, successor and `<`.

use qa_base::{Error, Result, Symbol};
use qa_strings::{Dfa, Nfa, StateId};

use crate::ast::Formula;
use crate::compile::{self, base_symbol, bit, ext_alphabet_len, ext_mask, ext_symbol, Ctx, Family};

/// Encode a word with one marked position over `Σ × {0,1}` — the input
/// format of unary-query automata ([`compile_unary`]).
pub fn mark_word(word: &[Symbol], pos: usize, sigma: usize) -> Vec<Symbol> {
    word.iter()
        .enumerate()
        .map(|(i, &s)| ext_symbol(s, usize::from(i == pos), sigma))
        .collect()
}

/// Strings over a base alphabet of `sigma` symbols.
struct Strings {
    sigma: usize,
}

impl Family for Strings {
    type Automaton = Dfa;

    fn local(
        &self,
        k: usize,
        n: usize,
        finals: &[usize],
        step: impl Fn(&[usize], Symbol, usize) -> Option<usize>,
    ) -> Dfa {
        let mut d = Dfa::new(ext_alphabet_len(self.sigma, k));
        for _ in 0..=n {
            d.add_state();
        }
        let dead = StateId::from_index(n);
        d.set_initial(StateId::from_index(0));
        for &f in finals {
            d.set_accepting(StateId::from_index(f), true);
        }
        for e_idx in 0..d.alphabet_len() {
            let e = Symbol::from_index(e_idx);
            let (base, mask) = (base_symbol(e, self.sigma), ext_mask(e, self.sigma));
            for q in 0..n {
                let next = step(&[q], base, mask).map_or(dead, StateId::from_index);
                d.set_transition(StateId::from_index(q), e, next);
            }
            d.set_transition(dead, e, dead);
        }
        d
    }

    fn intersect(&self, a: &Dfa, b: &Dfa) -> Dfa {
        a.intersect(b)
    }

    fn union(&self, a: &Dfa, b: &Dfa) -> Dfa {
        a.union(b)
    }

    fn difference(&self, a: &Dfa, b: &Dfa) -> Dfa {
        a.difference(b)
    }

    fn minimize(&self, a: &Dfa) -> Dfa {
        a.minimize()
    }

    fn project_top_bit(&self, d: &Dfa, k_with: usize) -> Dfa {
        let sigma = self.sigma;
        let small = ext_alphabet_len(sigma, k_with - 1);
        let top = 1usize << (k_with - 1);
        let mut n = Nfa::new(small);
        for _ in 0..d.num_states() {
            n.add_state();
        }
        for s_idx in 0..d.num_states() {
            let s = StateId::from_index(s_idx);
            n.set_accepting(s, d.is_accepting(s));
            for e_idx in 0..d.alphabet_len() {
                let e = Symbol::from_index(e_idx);
                if let Some(t) = d.next(s, e) {
                    let mask = ext_mask(e, sigma);
                    let low = mask & !top;
                    let proj = ext_symbol(base_symbol(e, sigma), low, sigma);
                    n.add_transition(s, proj, t);
                }
            }
        }
        n.set_initial(d.initial());
        n.determinize().minimize()
    }

    fn navigation(&self, atom: &Formula, ctx: &Ctx) -> Result<Dfa> {
        let (x, y) = match atom {
            Formula::Edge(x, y) | Formula::Less(x, y) => (x, y),
            _ => {
                return Err(Error::domain(
                    "first_child/second_child/chain2 are tree atoms; strings have edge/<",
                ))
            }
        };
        let bx = ctx.fo_bit(x)?;
        let by = ctx.fo_bit(y)?;
        let at = |mask| (bit(mask, bx), bit(mask, by));
        Ok(if matches!(atom, Formula::Edge(_, _)) {
            // y = x + 1. States: 0 the last position had no x-bit, 1 it had
            // the x-bit, so this one must carry the y-bit.
            self.local(ctx.len(), 2, &[0], |prev, _, mask| {
                match (prev[0], at(mask)) {
                    (0, (hx, false)) => Some(usize::from(hx)),
                    (1, (false, true)) => Some(0),
                    _ => None, // y not right after x, or x not right before y
                }
            })
        } else {
            // States: 0 x not yet seen, 1 x seen and y not yet, 2 both, in
            // order.
            self.local(ctx.len(), 3, &[2], |prev, _, mask| {
                match (prev[0], at(mask)) {
                    (q, (false, false)) => Some(q),
                    (0, (true, false)) => Some(1),
                    (1, (false, true)) => Some(2),
                    _ => None, // y first, same position, or a second x or y
                }
            })
        })
    }
}

/// Compile a sentence to a minimized total DFA over Σ.
pub fn compile_sentence(f: &Formula, sigma: usize) -> Result<Dfa> {
    compile::compile_sentence(&Strings { sigma }, f)
}

/// Compile a unary query `φ(x)` to a minimized total DFA over `Σ × {0,1}`
/// (bit = "this is the position bound to `x`"); feed it words produced by
/// [`mark_word`].
pub fn compile_unary(f: &Formula, var: &str, sigma: usize) -> Result<Dfa> {
    compile::compile_unary(&Strings { sigma }, f, var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{check, query, Structure};
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

    fn agree_sentence(src: &str, sigma_names: &[&str], max_len: usize) {
        let mut a = Alphabet::from_names(sigma_names.to_vec());
        let f = parse(src, &mut a).unwrap();
        let d = compile_sentence(&f, a.len()).unwrap();
        for w in all_words(a.len(), max_len) {
            let naive = check(Structure::Word(&w), &f).unwrap();
            assert_eq!(d.accepts(&w), naive, "{src} on {:?}", a.render(&w));
        }
    }

    #[test]
    fn label_existence() {
        agree_sentence("ex x. label(x, b)", &["a", "b"], 5);
    }

    #[test]
    fn order_and_edge() {
        agree_sentence(
            "ex x. ex y. (edge(x, y) & label(x, a) & label(y, b))",
            &["a", "b"],
            5,
        );
        agree_sentence(
            "ex x. ex y. (x < y & label(x, b) & label(y, a))",
            &["a", "b"],
            5,
        );
        agree_sentence(
            "all x. all y. (edge(x, y) -> !(label(x, a) & label(y, a)))",
            &["a", "b"],
            5,
        );
    }

    #[test]
    fn set_quantification_even_length() {
        // even length via alternating set
        agree_sentence(
            "ex2 X. ( (all x. (root(x) -> x in X)) \
             & (all x. all y. (edge(x, y) -> ((x in X -> !(y in X)) & (!(x in X) -> y in X)))) \
             & (all x. (leaf(x) -> !(x in X))) ) | (all x. !(x = x))",
            &["a"],
            8,
        );
    }

    #[test]
    fn equality_and_root_leaf() {
        agree_sentence("all x. all y. (x = y)", &["a", "b"], 3);
        agree_sentence(
            "ex x. (root(x) & label(x, a)) & ex y. (leaf(y) & label(y, b))",
            &["a", "b"],
            4,
        );
    }

    #[test]
    fn unary_query_agrees_with_naive() {
        let mut a = Alphabet::from_names(["0", "1"]);
        // Example 3.4's query: 1-labeled positions at odd distance from the
        // right end: v is selected iff the suffix strictly after v has even
        // size — expressible with a set alternating from the right end.
        let src = "label(v, 1) & (ex2 X. ( (all x. (leaf(x) -> x in X)) \
                   & (all x. all y. (edge(x, y) -> (y in X <-> !(x in X)))) \
                   & v in X ))";
        let f = parse(src, &mut a).unwrap();
        let d = compile_unary(&f, "v", a.len()).unwrap();
        for w in all_words(2, 6) {
            let naive = query(Structure::Word(&w), &f, "v").unwrap();
            for pos in 0..w.len() {
                let marked = mark_word(&w, pos, 2);
                assert_eq!(
                    d.accepts(&marked),
                    naive.contains(&pos),
                    "pos {pos} of {:?}",
                    a.render(&w)
                );
            }
            // unmarked words never accepted (validity requires one bit)
            assert!(!d.accepts(&w) || w.is_empty());
        }
    }

    #[test]
    fn unary_query_matches_example_3_4_machine() {
        let mut a = Alphabet::from_names(["0", "1"]);
        let qa = qa_twoway::string_qa::example_3_4_qa(&a);
        let src = "label(v, 1) & (ex2 X. ( (all x. (leaf(x) -> x in X)) \
                   & (all x. all y. (edge(x, y) -> (y in X <-> !(x in X)))) \
                   & v in X ))";
        let f = parse(src, &mut a).unwrap();
        let d = compile_unary(&f, "v", a.len()).unwrap();
        for w in all_words(2, 6) {
            let selected = qa.query(&w).unwrap();
            for pos in 0..w.len() {
                let marked = mark_word(&w, pos, 2);
                assert_eq!(
                    d.accepts(&marked),
                    selected.contains(&pos),
                    "pos {pos} of {:?}",
                    a.render(&w)
                );
            }
        }
    }

    #[test]
    fn sentences_reject_free_variables() {
        let mut a = Alphabet::new();
        let f = parse("label(x, a)", &mut a).unwrap();
        assert!(compile_sentence(&f, a.len()).is_err());
        assert!(compile_unary(&f, "y", a.len()).is_err());
    }

    #[test]
    fn compiled_automata_are_small() {
        let mut a = Alphabet::from_names(["a", "b"]);
        let f = parse("ex x. label(x, b)", &mut a).unwrap();
        let d = compile_sentence(&f, 2).unwrap();
        assert!(
            d.num_states() <= 3,
            "minimization keeps it tiny: {}",
            d.num_states()
        );
    }
}
