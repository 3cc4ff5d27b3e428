//! Doner/Thatcher–Wright (Theorem 2.8), constructive: MSO over ranked trees
//! compiles to bottom-up tree automata.
//!
//! Same discipline as [`crate::compile_string`]: formulas compile over the
//! bit-extended alphabet `Σ × {0,1}ᵏ`, every intermediate automaton accepts
//! only valid encodings (each first-order bit exactly once in the tree),
//! negation is difference against validity, quantification projects the top
//! bit, and the deterministic automaton is trimmed/minimized after every
//! step.

use qa_base::{Error, Result, Symbol};
use qa_core::ranked::{ops, Dbta, Nbta, Tuples};
use qa_strings::StateId;
use qa_trees::Tree;

use crate::ast::{Formula, Var};
use crate::compile_string::{base_symbol, ext_alphabet_len, ext_mask, ext_symbol};

/// Encode a tree with one marked node over `Σ × {0,1}`.
pub fn mark_tree(tree: &Tree, node: qa_trees::NodeId, sigma: usize) -> Tree {
    let mut t = tree.clone();
    for v in tree.nodes() {
        let m = usize::from(v == node);
        t.set_label(v, ext_symbol(tree.label(v), m, sigma));
    }
    t
}

#[derive(Clone, Debug, Default)]
struct Ctx {
    vars: Vec<(Var, bool)>,
}

impl Ctx {
    fn bit_of(&self, v: &Var) -> Option<(usize, bool)> {
        self.vars
            .iter()
            .enumerate()
            .rev()
            .find(|(_, (name, _))| name == v)
            .map(|(i, (_, is_set))| (i, *is_set))
    }
    fn len(&self) -> usize {
        self.vars.len()
    }
}

fn bit(mask: usize, b: usize) -> bool {
    (mask >> b) & 1 == 1
}

/// Build a deterministic bottom-up automaton from a *local rule*: the state
/// at a node is `step(children states, base symbol, mask)`; `None` = dead.
/// States are dense `0..num_states`; `finals` marks accepting root states.
/// A dead sink is added automatically.
fn local_dbta(
    sigma: usize,
    k: usize,
    m: usize,
    num_states: usize,
    finals: &[usize],
    step: impl Fn(&[usize], Symbol, usize) -> Option<usize>,
) -> Dbta {
    let ext = ext_alphabet_len(sigma, k);
    let mut d = Dbta::new(ext, m);
    for _ in 0..num_states {
        d.add_state();
    }
    let dead = d.add_state();
    for &f in finals {
        d.set_final(StateId::from_index(f), true);
    }
    // enumerate all tuples of states (incl. dead) up to rank m
    let mut ids: Vec<StateId> = Vec::new();
    for e_idx in 0..ext {
        let e = Symbol::from_index(e_idx);
        let base = base_symbol(e, sigma);
        let mask = ext_mask(e, sigma);
        for arity in 0..=m {
            let mut tuples = Tuples::<usize>::new(arity, num_states + 1);
            while let Some(tuple) = tuples.next_tuple() {
                let target = if tuple.contains(&num_states) {
                    dead
                } else {
                    match step(tuple, base, mask) {
                        Some(q) => {
                            debug_assert!(q < num_states);
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

/// Validity: each first-order bit occurs exactly once in the tree.
fn valid_dbta(sigma: usize, m: usize, ctx: &Ctx) -> Dbta {
    let fo_bits: Vec<usize> = ctx
        .vars
        .iter()
        .enumerate()
        .filter(|(_, (_, is_set))| !is_set)
        .map(|(i, _)| i)
        .collect();
    let nfo = fo_bits.len();
    // state = subset of fo vars seen in the subtree
    let num = 1usize << nfo;
    local_dbta(sigma, ctx.len(), m, num, &[num - 1], |kids, _base, mask| {
        let mut seen = 0usize;
        for &c in kids {
            if c & seen != 0 {
                return None;
            }
            seen |= c;
        }
        let mut own = 0usize;
        for (j, &b) in fo_bits.iter().enumerate() {
            if bit(mask, b) {
                own |= 1 << j;
            }
        }
        if own & seen != 0 {
            return None;
        }
        Some(seen | own)
    })
}

fn compile_inner(f: &Formula, sigma: usize, m: usize, ctx: &Ctx) -> Result<Dbta> {
    let valid = || valid_dbta(sigma, m, ctx);
    let k = ctx.len();
    let fo_bit = |v: &Var| -> Result<usize> {
        match ctx.bit_of(v) {
            Some((b, false)) => Ok(b),
            Some((_, true)) => Err(Error::domain(format!(
                "variable `{v}` used first-order but bound as a set"
            ))),
            None => Err(Error::domain(format!("unbound variable `{v}`"))),
        }
    };
    let set_bit = |v: &Var| -> Result<usize> {
        match ctx.bit_of(v) {
            Some((b, true)) => Ok(b),
            Some((_, false)) => Err(Error::domain(format!(
                "variable `{v}` used as a set but bound first-order"
            ))),
            None => Err(Error::domain(format!("unbound set variable `{v}`"))),
        }
    };
    // simple per-node condition automaton: 1 state, rule must hold at every
    // node.
    let per_node = |ok: Box<dyn Fn(Symbol, usize) -> bool>| -> Dbta {
        local_dbta(sigma, k, m, 1, &[0], move |_kids, base, mask| {
            if ok(base, mask) {
                Some(0)
            } else {
                None
            }
        })
    };
    let out = match f {
        Formula::True => valid(),
        Formula::False => Dbta::new(ext_alphabet_len(sigma, k), m),
        Formula::Label(x, a) => {
            let b = fo_bit(x)?;
            let a = *a;
            ops::intersect(
                &per_node(Box::new(move |base, mask| !bit(mask, b) || base == a)),
                &valid(),
            )
        }
        Formula::Eq(x, y) => {
            let bx = fo_bit(x)?;
            let by = fo_bit(y)?;
            ops::intersect(
                &per_node(Box::new(move |_, mask| bit(mask, bx) == bit(mask, by))),
                &valid(),
            )
        }
        Formula::In(x, s) => {
            let bx = fo_bit(x)?;
            let bs = set_bit(s)?;
            ops::intersect(
                &per_node(Box::new(move |_, mask| !bit(mask, bx) || bit(mask, bs))),
                &valid(),
            )
        }
        Formula::Edge(x, y) => {
            // E(x, y): the y-bit node's parent carries the x-bit.
            // states: 0 plain, 1 "y was this node" (must be consumed by the
            // immediate parent), 2 satisfied.
            let bx = fo_bit(x)?;
            let by = fo_bit(y)?;
            let cond = local_dbta(sigma, k, m, 3, &[0, 2], move |kids, _base, mask| {
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
            });
            ops::intersect(&cond, &valid())
        }
        Formula::Less(x, y) => {
            // sibling order: x-bit node and y-bit node share a parent, x
            // strictly earlier.
            // states: 0 plain, 1 "x was this node", 2 "y was this node",
            // 3 satisfied.
            let bx = fo_bit(x)?;
            let by = fo_bit(y)?;
            let cond = local_dbta(sigma, k, m, 4, &[3], move |kids, _base, mask| {
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
            });
            ops::intersect(&cond, &valid())
        }
        Formula::FirstChild(x, y) | Formula::SecondChild(x, y) => {
            // y is x's child at a fixed index.
            let want = usize::from(matches!(f, Formula::SecondChild(_, _)));
            let bx = fo_bit(x)?;
            let by = fo_bit(y)?;
            // states: 0 plain, 1 "y was this node", 2 satisfied.
            let cond = local_dbta(sigma, k, m, 3, &[0, 2], move |kids, _base, mask| {
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
            });
            ops::intersect(&cond, &valid())
        }
        Formula::Chain2(x, y) => {
            // y reachable from x via 0+ second-child steps.
            let bx = fo_bit(x)?;
            let by = fo_bit(y)?;
            // states: 0 plain, 1 pending chain (y at/below via second-child
            // links, x not yet met), 2 satisfied.
            let cond = local_dbta(sigma, k, m, 3, &[2], move |kids, _base, mask| {
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
            });
            ops::intersect(&cond, &valid())
        }
        Formula::Not(p) => {
            let a = compile_inner(p, sigma, m, ctx)?;
            ops::difference(&valid(), &a)
        }
        Formula::And(p, q) => {
            let a = compile_inner(p, sigma, m, ctx)?;
            let b = compile_inner(q, sigma, m, ctx)?;
            ops::intersect(&a, &b)
        }
        Formula::Or(p, q) => {
            let a = compile_inner(p, sigma, m, ctx)?;
            let b = compile_inner(q, sigma, m, ctx)?;
            ops::union(&a, &b)
        }
        Formula::Exists(v, p) => {
            let mut ctx2 = ctx.clone();
            ctx2.vars.push((v.clone(), false));
            let a = compile_inner(p, sigma, m, &ctx2)?;
            project_top_bit(&a, sigma, ctx2.len())
        }
        Formula::ExistsSet(v, p) => {
            let mut ctx2 = ctx.clone();
            ctx2.vars.push((v.clone(), true));
            let a = compile_inner(p, sigma, m, &ctx2)?;
            project_top_bit(&a, sigma, ctx2.len())
        }
        Formula::Forall(v, p) => {
            let inner = Formula::Exists(v.clone(), Box::new(Formula::Not(p.clone())));
            let a = compile_inner(&inner, sigma, m, ctx)?;
            ops::difference(&valid(), &a)
        }
        Formula::ForallSet(v, p) => {
            let inner = Formula::ExistsSet(v.clone(), Box::new(Formula::Not(p.clone())));
            let a = compile_inner(&inner, sigma, m, ctx)?;
            ops::difference(&valid(), &a)
        }
    };
    Ok(ops::minimize(&out))
}

/// Project away the top variable bit (NBTA relabeling, then determinize and
/// minimize).
fn project_top_bit(d: &Dbta, sigma: usize, k_with: usize) -> Dbta {
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

/// Compile a sentence over ranked trees (rank ≤ `m`) to a minimized DBTAʳ.
pub fn compile_sentence(f: &Formula, sigma: usize, m: usize) -> Result<Dbta> {
    let free = f.free_vars();
    if !free.is_empty() {
        return Err(Error::domain(format!(
            "sentence expected, found free variables {free:?}"
        )));
    }
    compile_inner(f, sigma, m, &Ctx::default())
}

/// Compile a unary query `φ(x)` to a minimized DBTAʳ over `Σ × {0,1}`;
/// feed it trees produced by [`mark_tree`].
pub fn compile_unary(f: &Formula, var: &str, sigma: usize, m: usize) -> Result<Dbta> {
    let free = f.free_vars();
    if free.iter().any(|v| v != var) {
        return Err(Error::domain(format!(
            "unary query over `{var}` expected, found free variables {free:?}"
        )));
    }
    let ctx = Ctx {
        vars: vec![(var.to_string(), false)],
    };
    compile_inner(f, sigma, m, &ctx)
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
