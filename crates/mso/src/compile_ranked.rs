//! Doner/Thatcher–Wright (Theorem 2.8), constructive: MSO over ranked trees
//! compiles to bottom-up tree automata.
//!
//! The compiler is [`crate::compile`]'s, over DBTAs: a local rule reads the
//! children's states. This module adds the marking of trees and the tree
//! navigation atoms: `edge`, sibling `<`, and the encoding atoms
//! `first_child`/`second_child`/`chain2` that [`crate::unranked`]
//! translates to.

use qa_base::{Result, Symbol};
use qa_core::ranked::{ops, Dbta, Nbta, Tuples};
use qa_strings::StateId;
use qa_trees::Tree;

use crate::ast::Formula;
use crate::compile::{self, base_symbol, bit, ext_alphabet_len, ext_mask, ext_symbol, Ctx, Family};

/// Encode a tree with one marked node over `Σ × {0,1}`.
pub fn mark_tree(tree: &Tree, node: qa_trees::NodeId, sigma: usize) -> Tree {
    let mut t = tree.clone();
    for v in tree.nodes() {
        let m = usize::from(v == node);
        t.set_label(v, ext_symbol(tree.label(v), m, sigma));
    }
    t
}

/// Trees of rank at most `rank` over a base alphabet of `sigma` symbols.
struct Ranked {
    sigma: usize,
    rank: usize,
}

impl Family for Ranked {
    type Automaton = Dbta;

    fn local(
        &self,
        k: usize,
        n: usize,
        finals: &[usize],
        step: impl Fn(&[usize], Symbol, usize) -> Option<usize>,
    ) -> Dbta {
        let ext = ext_alphabet_len(self.sigma, k);
        let mut d = Dbta::new(ext, self.rank);
        for _ in 0..n {
            d.add_state();
        }
        let dead = d.add_state();
        for &f in finals {
            d.set_final(StateId::from_index(f), true);
        }
        // enumerate all tuples of states (incl. dead) up to the rank
        let mut ids: Vec<StateId> = Vec::new();
        for e_idx in 0..ext {
            let e = Symbol::from_index(e_idx);
            let base = base_symbol(e, self.sigma);
            let mask = ext_mask(e, self.sigma);
            for arity in 0..=self.rank {
                let mut tuples = Tuples::<usize>::new(arity, n + 1);
                while let Some(tuple) = tuples.next_tuple() {
                    let target = if tuple.contains(&n) {
                        dead
                    } else {
                        match step(tuple, base, mask) {
                            Some(q) => {
                                debug_assert!(q < n);
                                StateId::from_index(q)
                            }
                            None => dead,
                        }
                    };
                    ids.clear();
                    ids.extend(tuple.iter().map(|&i| StateId::from_index(i)));
                    d.set_transition(&ids, e, target);
                }
            }
        }
        d
    }

    fn intersect(&self, a: &Dbta, b: &Dbta) -> Dbta {
        ops::intersect(a, b)
    }

    fn union(&self, a: &Dbta, b: &Dbta) -> Dbta {
        ops::union(a, b)
    }

    fn difference(&self, a: &Dbta, b: &Dbta) -> Dbta {
        ops::difference(a, b)
    }

    fn minimize(&self, a: &Dbta) -> Dbta {
        ops::minimize(a)
    }

    fn project_top_bit(&self, d: &Dbta, k_with: usize) -> Dbta {
        let sigma = self.sigma;
        let top = 1usize << (k_with - 1);
        let mut n = Nbta::new(ext_alphabet_len(sigma, k_with - 1), d.max_rank());
        for _ in 0..d.num_states() {
            let s = n.add_state();
            n.set_final(s, d.is_final(s));
        }
        for (children, e, q) in d.transitions() {
            let mask = ext_mask(e, sigma);
            let proj = ext_symbol(base_symbol(e, sigma), mask & !top, sigma);
            n.add_transition(children, proj, q);
        }
        ops::minimize(&ops::determinize(&n))
    }

    fn navigation(&self, atom: &Formula, ctx: &Ctx) -> Result<Dbta> {
        let (x, y) = match atom {
            Formula::Edge(x, y)
            | Formula::Less(x, y)
            | Formula::FirstChild(x, y)
            | Formula::SecondChild(x, y)
            | Formula::Chain2(x, y) => (x, y),
            _ => unreachable!("{atom:?} is not a navigation atom"),
        };
        let bx = ctx.fo_bit(x)?;
        let by = ctx.fo_bit(y)?;
        let k = ctx.len();
        Ok(match atom {
            Formula::Edge(_, _) => {
                // E(x, y): the y-bit node's parent carries the x-bit.
                // states: 0 plain, 1 "y was this node" (must be consumed by the
                // immediate parent), 2 satisfied.
                self.local(k, 3, &[0, 2], move |kids, _base, mask| {
                    let yjust = kids.iter().filter(|&&c| c == 1).count();
                    let sat = kids.contains(&2);
                    let (hx, hy) = (bit(mask, bx), bit(mask, by));
                    if hy {
                        // y here: its parent must carry x; y cannot also consume
                        // a pending y below (validity kills duplicates anyway).
                        if yjust > 0 {
                            return None;
                        }
                        return Some(1);
                    }
                    if yjust > 1 {
                        return None;
                    }
                    if yjust == 1 {
                        if hx {
                            return Some(2);
                        }
                        return None;
                    }
                    if sat {
                        return Some(2);
                    }
                    Some(0)
                })
            }
            Formula::Less(_, _) => {
                // sibling order: x-bit node and y-bit node share a parent, x
                // strictly earlier.
                // states: 0 plain, 1 "x was this node", 2 "y was this node",
                // 3 satisfied.
                self.local(k, 4, &[3], move |kids, _base, mask| {
                    let sat_below = kids.contains(&3);
                    let xpos = kids.iter().position(|&c| c == 1);
                    let ypos = kids.iter().position(|&c| c == 2);
                    let (hx, hy) = (bit(mask, bx), bit(mask, by));
                    if hx && hy {
                        return None; // same node: not strictly ordered
                    }
                    match (xpos, ypos) {
                        (Some(i), Some(j)) => {
                            if i < j && !hx && !hy && !sat_below {
                                Some(3)
                            } else {
                                None
                            }
                        }
                        (Some(_), None) | (None, Some(_)) => None, // unmatched
                        (None, None) => {
                            if hx {
                                Some(1)
                            } else if hy {
                                Some(2)
                            } else if sat_below {
                                Some(3)
                            } else {
                                Some(0)
                            }
                        }
                    }
                })
            }
            Formula::FirstChild(_, _) | Formula::SecondChild(_, _) => {
                // y is x's child at a fixed index.
                let want = usize::from(matches!(atom, Formula::SecondChild(_, _)));
                // states: 0 plain, 1 "y was this node", 2 satisfied.
                self.local(k, 3, &[0, 2], move |kids, _base, mask| {
                    let ypos = kids.iter().position(|&c| c == 1);
                    let sat = kids.contains(&2);
                    let (hx, hy) = (bit(mask, bx), bit(mask, by));
                    if hy {
                        if hx || ypos.is_some() {
                            return None; // same node / duplicate y
                        }
                        return Some(1);
                    }
                    match ypos {
                        Some(i) => {
                            if i == want && hx {
                                Some(2)
                            } else {
                                None
                            }
                        }
                        None => {
                            if hx {
                                None // x here but y is not its index-`want` child
                            } else if sat {
                                Some(2)
                            } else {
                                Some(0)
                            }
                        }
                    }
                })
            }
            _ => {
                // Chain2: y reachable from x via 0+ second-child steps.
                // states: 0 plain, 1 pending chain (y at/below via second-child
                // links, x not yet met), 2 satisfied.
                self.local(k, 3, &[2], move |kids, _base, mask| {
                    let pending = kids.iter().position(|&c| c == 1);
                    let sat = kids.contains(&2);
                    let (hx, hy) = (bit(mask, bx), bit(mask, by));
                    if hy {
                        if pending.is_some() {
                            return None; // duplicate y
                        }
                        return if hx { Some(2) } else { Some(1) };
                    }
                    match pending {
                        Some(i) => {
                            if i != 1 {
                                return None; // chain broken by a non-second edge
                            }
                            if hx {
                                Some(2)
                            } else {
                                Some(1)
                            }
                        }
                        None => {
                            if hx {
                                None // x off the chain
                            } else if sat {
                                Some(2)
                            } else {
                                Some(0)
                            }
                        }
                    }
                })
            }
        })
    }
}

/// Compile a sentence over ranked trees (rank ≤ `m`) to a minimized DBTAʳ.
pub fn compile_sentence(f: &Formula, sigma: usize, m: usize) -> Result<Dbta> {
    compile::compile_sentence(&Ranked { sigma, rank: m }, f)
}

/// Compile a unary query `φ(x)` to a minimized DBTAʳ over `Σ × {0,1}`;
/// feed it trees produced by [`mark_tree`].
pub fn compile_unary(f: &Formula, var: &str, sigma: usize, m: usize) -> Result<Dbta> {
    compile::compile_unary(&Ranked { sigma, rank: m }, f, var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{check, query, Structure};
    use crate::parser::parse;
    use qa_base::rng::StdRng;
    use qa_base::Alphabet;

    fn random_trees(sigma: usize, m: usize, count: usize, seed: u64) -> Vec<Tree> {
        let labels: Vec<Symbol> = (0..sigma).map(Symbol::from_index).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for n in [1usize, 2, 3, 5, 8] {
            for _ in 0..count {
                out.push(qa_trees::generate::random(&mut rng, &labels, n, Some(m)));
            }
        }
        out
    }

    fn agree_sentence(src: &str, sigma_names: &[&str], m: usize, seed: u64) {
        let mut a = Alphabet::from_names(sigma_names.to_vec());
        let f = parse(src, &mut a).unwrap();
        let d = compile_sentence(&f, a.len(), m).unwrap();
        for t in random_trees(a.len(), m, 4, seed) {
            let naive = check(Structure::Tree(&t), &f).unwrap();
            assert_eq!(d.accepts(&t), naive, "{src} on {}", t.render(&a));
        }
    }

    #[test]
    fn label_and_root() {
        agree_sentence("ex x. (root(x) & label(x, b))", &["a", "b"], 2, 1);
        agree_sentence("all x. (leaf(x) -> label(x, a))", &["a", "b"], 2, 2);
    }

    #[test]
    fn edge_and_sibling_order() {
        agree_sentence(
            "ex x. ex y. (edge(x, y) & label(x, a) & label(y, b))",
            &["a", "b"],
            2,
            3,
        );
        agree_sentence(
            "ex x. ex y. (x < y & label(x, b) & label(y, b))",
            &["a", "b"],
            3,
            4,
        );
    }

    #[test]
    fn set_quantifier_on_trees() {
        // "the b-labeled nodes form exactly the leaves"
        agree_sentence("all x. (label(x, b) <-> leaf(x))", &["a", "b"], 2, 5);
        // even depth of some leaf via alternating set along a path is heavy;
        // use a simpler genuine SO property: there is a set containing the
        // root and closed under taking one child, ending at a b-leaf
        agree_sentence(
            "ex2 X. ( (ex r. (root(r) & r in X)) \
             & (all x. (x in X -> (leaf(x) | ex y. (edge(x, y) & y in X)))) \
             & (ex l. (l in X & leaf(l) & label(l, b))) )",
            &["a", "b"],
            2,
            6,
        );
    }

    #[test]
    fn unary_query_agrees_with_naive() {
        let mut a = Alphabet::from_names(["s", "t"]);
        // the Section 1 flagship: select all leaves if the root is labeled s
        let f = parse("leaf(v) & (ex r. (root(r) & label(r, s)))", &mut a).unwrap();
        let d = compile_unary(&f, "v", a.len(), 2).unwrap();
        for t in random_trees(2, 2, 4, 7) {
            let naive = query(Structure::Tree(&t), &f, "v").unwrap();
            for v in t.nodes() {
                let marked = mark_tree(&t, v, 2);
                assert_eq!(
                    d.accepts(&marked),
                    naive.contains(&v.index()),
                    "node {v:?} of {}",
                    t.render(&a)
                );
            }
        }
    }

    #[test]
    fn sentences_reject_free_variables() {
        let mut a = Alphabet::new();
        let f = parse("label(x, a)", &mut a).unwrap();
        assert!(compile_sentence(&f, a.len(), 2).is_err());
    }
}
