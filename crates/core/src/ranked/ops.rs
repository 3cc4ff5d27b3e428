//! Boolean operations, determinization and emptiness for ranked tree
//! automata — the closure properties behind Theorem 2.8.

use std::collections::HashMap;

use qa_base::Symbol;
use qa_strings::StateId;

use super::{Dbta, Nbta, Tuples};

/// Subset-construction determinization of an NBTAʳ.
///
/// Only reachable subsets are built; the result is total over tuples of
/// reachable subsets (the empty subset acts as the dead state).
pub fn determinize(n: &Nbta) -> Dbta {
    let mut d = Dbta::new(n.alphabet_len(), n.max_rank());
    let mut index: HashMap<Vec<StateId>, StateId> = HashMap::new();
    let mut subsets: Vec<Vec<StateId>> = Vec::new();

    let intern = |d: &mut Dbta,
                  subsets: &mut Vec<Vec<StateId>>,
                  index: &mut HashMap<Vec<StateId>, StateId>,
                  set: Vec<StateId>| {
        match index.get(&set) {
            Some(&id) => id,
            None => {
                let id = d.add_state();
                debug_assert_eq!(id.index(), subsets.len());
                d.set_final(id, set.iter().any(|&q| n.is_final(q)));
                subsets.push(set.clone());
                index.insert(set, id);
                id
            }
        }
    };

    // Leaf subsets first.
    for a in 0..n.alphabet_len() {
        let label = Symbol::from_index(a);
        let mut set: Vec<StateId> = n.targets(&[], label).to_vec();
        set.sort_unstable();
        let id = intern(&mut d, &mut subsets, &mut index, set);
        d.set_leaf(label, id);
    }

    // Saturate: for every arity/tuple over known subsets, compute the image.
    // Iterate to a fixpoint because new subsets enable new tuples; a
    // defined slot is a tuple an earlier round already processed.
    let mut children: Vec<StateId> = Vec::new();
    loop {
        let num_known = subsets.len();
        for arity in 1..=n.max_rank() {
            let mut tuples = Tuples::<StateId>::new(arity, num_known);
            while let Some(ids) = tuples.next_tuple() {
                for a in 0..n.alphabet_len() {
                    let label = Symbol::from_index(a);
                    if d.transition(ids, label).is_some() {
                        continue;
                    }
                    // image subset: union over member tuples
                    let mut img: Vec<StateId> = Vec::new();
                    let mut members = Tuples::<usize>::mixed(
                        ids.iter().map(|i| subsets[i.index()].len()).collect(),
                    );
                    while let Some(pick) = members.next_tuple() {
                        children.clear();
                        children.extend(ids.iter().zip(pick).map(|(i, &p)| subsets[i.index()][p]));
                        for &q in n.targets(&children, label) {
                            if !img.contains(&q) {
                                img.push(q);
                            }
                        }
                    }
                    img.sort_unstable();
                    let target = intern(&mut d, &mut subsets, &mut index, img);
                    d.set_transition(ids, label, target);
                }
            }
        }
        if subsets.len() == num_known {
            break;
        }
    }
    d
}

/// Make a DBTAʳ total by adding a dead state (if not already total over the
/// full tuple space).
pub fn totalize(d: &Dbta) -> Dbta {
    let mut out = d.clone();
    let dead = out.add_state();
    for arity in 0..=out.max_rank() {
        let mut tuples = Tuples::<StateId>::new(arity, out.num_states());
        while let Some(ids) = tuples.next_tuple() {
            for a in 0..out.alphabet_len() {
                let label = Symbol::from_index(a);
                if out.transition(ids, label).is_none() {
                    out.set_transition(ids, label, dead);
                }
            }
        }
    }
    out
}

/// Complement of a DBTAʳ (totalize, then flip finals).
pub fn complement(d: &Dbta) -> Dbta {
    let mut out = totalize(d);
    for i in 0..out.num_states() {
        let s = StateId::from_index(i);
        let f = out.is_final(s);
        out.set_final(s, !f);
    }
    out
}

/// Product of two DBTAʳs; `combine` decides finality. Lazy over reachable
/// pairs.
pub fn product(a: &Dbta, b: &Dbta, combine: impl Fn(bool, bool) -> bool) -> Dbta {
    assert_eq!(a.alphabet_len(), b.alphabet_len());
    let rank = a.max_rank().max(b.max_rank());
    let at = totalize(a);
    let bt = totalize(b);
    let mut out = Dbta::new(a.alphabet_len(), rank);
    let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let mut pairs: Vec<(StateId, StateId)> = Vec::new();

    let intern = |out: &mut Dbta,
                  pairs: &mut Vec<(StateId, StateId)>,
                  index: &mut HashMap<(StateId, StateId), StateId>,
                  p: (StateId, StateId)| {
        match index.get(&p) {
            Some(&id) => id,
            None => {
                let id = out.add_state();
                out.set_final(id, combine(at.is_final(p.0), bt.is_final(p.1)));
                index.insert(p, id);
                pairs.push(p);
                id
            }
        }
    };

    // saturate reachable pairs
    for a_idx in 0..out.alphabet_len() {
        let label = Symbol::from_index(a_idx);
        if let (Some(qa), Some(qb)) = (at.transition(&[], label), bt.transition(&[], label)) {
            let id = intern(&mut out, &mut pairs, &mut index, (qa, qb));
            out.set_leaf(label, id);
        }
    }
    let (mut left, mut right) = (Vec::new(), Vec::new());
    loop {
        let known = pairs.len();
        for arity in 1..=rank {
            let mut tuples = Tuples::<StateId>::new(arity, known);
            while let Some(ids) = tuples.next_tuple() {
                left.clear();
                left.extend(ids.iter().map(|i| pairs[i.index()].0));
                right.clear();
                right.extend(ids.iter().map(|i| pairs[i.index()].1));
                for s_idx in 0..out.alphabet_len() {
                    let label = Symbol::from_index(s_idx);
                    let qa = at.transition(&left, label);
                    let qb = bt.transition(&right, label);
                    if let (Some(qa), Some(qb)) = (qa, qb) {
                        let id = intern(&mut out, &mut pairs, &mut index, (qa, qb));
                        out.set_transition(ids, label, id);
                    }
                }
            }
        }
        if pairs.len() == known {
            break;
        }
    }
    out
}

/// Intersection of two DBTAʳ languages.
pub fn intersect(a: &Dbta, b: &Dbta) -> Dbta {
    product(a, b, |x, y| x && y)
}

/// Union of two DBTAʳ languages.
pub fn union(a: &Dbta, b: &Dbta) -> Dbta {
    product(a, b, |x, y| x || y)
}

/// Difference `L(a) \ L(b)`.
pub fn difference(a: &Dbta, b: &Dbta) -> Dbta {
    product(a, b, |x, y| x && !y)
}

/// Whether the language of a DBTAʳ is empty (reachable-states fixpoint).
pub fn is_empty(d: &Dbta) -> bool {
    witness(d).is_none()
}

/// A smallest-ish witness tree, if the language is non-empty.
///
/// Computes reachable states with representative trees attached. Among
/// equally small witnesses, the one of the smallest final state wins.
pub fn witness(d: &Dbta) -> Option<qa_trees::Tree> {
    let mut reached: Vec<Option<qa_trees::Tree>> = vec![None; d.num_states()];
    loop {
        let mut added = false;
        for (children, label, q) in d.transitions() {
            if reached[q.index()].is_some() {
                continue;
            }
            if let Some(kids) = children
                .iter()
                .map(|c| reached[c.index()].clone())
                .collect::<Option<Vec<_>>>()
            {
                reached[q.index()] = Some(qa_trees::Tree::node(label, kids));
                added = true;
            }
        }
        if !added {
            break;
        }
    }
    reached
        .into_iter()
        .enumerate()
        .filter(|&(q, _)| d.is_final(StateId::from_index(q)))
        .filter_map(|(_, t)| t)
        .min_by_key(|t| t.num_nodes())
}

/// Whether `L(a) ⊆ L(b)`.
pub fn is_subset(a: &Dbta, b: &Dbta) -> bool {
    is_empty(&difference(a, b))
}

/// Whether `L(a) = L(b)`.
pub fn equivalent(a: &Dbta, b: &Dbta) -> bool {
    is_subset(a, b) && is_subset(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_base::Alphabet;
    use qa_trees::sexpr::from_sexpr;
    use qa_trees::Tree;

    fn circuit_alpha() -> Alphabet {
        Alphabet::from_names(["AND", "OR", "0", "1"])
    }

    /// NBTA accepting trees with at least one `1` leaf (nondeterministically
    /// guesses a path to it).
    fn has_one_leaf(a: &Alphabet) -> Nbta {
        let one = a.symbol("1");
        let mut n = Nbta::new(a.len(), 2);
        let any = n.add_state();
        let hit = n.add_state();
        n.set_final(hit, true);
        for s in 0..a.len() {
            let label = Symbol::from_index(s);
            n.add_transition(&[], label, any);
            if label == one {
                n.add_transition(&[], label, hit);
            }
            for (l, r, q) in [
                (any, any, any),
                (hit, any, hit),
                (any, hit, hit),
                (hit, hit, hit),
            ] {
                n.add_transition(&[l, r], label, q);
            }
        }
        n
    }

    #[test]
    fn determinize_preserves_language() {
        let mut a = circuit_alpha();
        let n = has_one_leaf(&a);
        let d = determinize(&n);
        for s in [
            "0",
            "1",
            "(AND 0 0)",
            "(AND 0 1)",
            "(AND (OR 0 0) (OR 0 0))",
            "(AND (OR 0 1) (OR 0 0))",
        ] {
            let t = from_sexpr(s, &mut a).unwrap();
            assert_eq!(n.accepts(&t), d.accepts(&t), "{s}");
        }
    }

    #[test]
    fn complement_flips() {
        let mut a = circuit_alpha();
        let d = determinize(&has_one_leaf(&a));
        let c = complement(&d);
        for s in ["0", "1", "(AND 0 1)", "(OR 0 0)"] {
            let t = from_sexpr(s, &mut a).unwrap();
            assert_eq!(d.accepts(&t), !c.accepts(&t), "{s}");
        }
    }

    #[test]
    fn boolean_products() {
        let mut a = circuit_alpha();
        let circuit = Dbta::boolean_circuit(&a);
        let one_leaf = determinize(&has_one_leaf(&a));
        let both = intersect(&circuit, &one_leaf);
        let t = from_sexpr("(OR 0 1)", &mut a).unwrap();
        assert!(both.accepts(&t));
        let t = from_sexpr("(OR 0 0)", &mut a).unwrap();
        assert!(!both.accepts(&t));

        let either = union(&circuit, &one_leaf);
        assert!(either.accepts(&from_sexpr("(AND 1 0)", &mut a).unwrap()));
        assert!(!either.accepts(&from_sexpr("(AND 0 0)", &mut a).unwrap()));

        // circuits evaluating to 1 with no 1-leaf: impossible
        let weird = difference(&circuit, &one_leaf);
        assert!(is_empty(&weird));
    }

    #[test]
    fn emptiness_and_witness() {
        let a = circuit_alpha();
        let circuit = Dbta::boolean_circuit(&a);
        assert!(!is_empty(&circuit));
        let w = witness(&circuit).unwrap();
        assert!(circuit.accepts(&w));
        assert_eq!(w.num_nodes(), 1, "smallest witness is the leaf `1`");

        let empty = Dbta::new(a.len(), 2);
        assert!(is_empty(&empty));
        assert!(witness(&empty).is_none());
    }

    #[test]
    fn witness_ties_go_to_the_smallest_final_state() {
        let a = Alphabet::from_names(["a", "b"]);
        let mut d = Dbta::new(a.len(), 0);
        let qa = d.add_state();
        let qb = d.add_state();
        d.set_final(qa, true);
        d.set_final(qb, true);
        d.set_leaf(a.symbol("a"), qa);
        d.set_leaf(a.symbol("b"), qb);
        for _ in 0..64 {
            let w = witness(&d).unwrap();
            assert_eq!(w.num_nodes(), 1);
            assert_eq!(w.label(w.root()), a.symbol("a"));
        }
    }

    #[test]
    fn subset_and_equivalence() {
        let a = circuit_alpha();
        let circuit = Dbta::boolean_circuit(&a);
        let one_leaf = determinize(&has_one_leaf(&a));
        assert!(is_subset(&circuit, &one_leaf));
        assert!(!is_subset(&one_leaf, &circuit));
        assert!(equivalent(&circuit, &circuit.clone()));
        assert!(!equivalent(&circuit, &one_leaf));
    }

    #[test]
    fn totalize_keeps_language() {
        let a = circuit_alpha();
        let circuit = Dbta::boolean_circuit(&a);
        let total = totalize(&circuit);
        let one = a.symbol("1");
        let and = a.symbol("AND");
        let t = Tree::node(and, vec![Tree::leaf(one), Tree::leaf(one)]);
        assert_eq!(circuit.accepts(&t), total.accepts(&t));
        // the unary AND now has a (dead) transition but still rejects
        let t2 = Tree::node(and, vec![Tree::leaf(one)]);
        assert!(total.run(&t2).is_some());
        assert!(!total.accepts(&t2));
    }
}

/// Trim to *productive* states: those reachable bottom-up by some tree AND
/// able to reach a final state in some context. Transitions mentioning
/// pruned states are dropped; the language is unchanged.
pub fn trim(d: &Dbta) -> Dbta {
    // bottom-up reachable
    let mut reach = vec![false; d.num_states()];
    loop {
        let mut changed = false;
        for (children, _l, q) in d.transitions() {
            if !reach[q.index()] && children.iter().all(|c| reach[c.index()]) {
                reach[q.index()] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // co-reachable (can appear under an accepting run): final states, plus
    // states occurring as a child in a transition whose target is
    // co-reachable and whose sibling slots are bottom-up reachable.
    let mut co = vec![false; d.num_states()];
    for (i, slot) in co.iter_mut().enumerate() {
        *slot = d.is_final(StateId::from_index(i));
    }
    loop {
        let mut changed = false;
        for (children, _l, q) in d.transitions() {
            if !co[q.index()] {
                continue;
            }
            for (i, c) in children.iter().enumerate() {
                if !co[c.index()]
                    && children
                        .iter()
                        .enumerate()
                        .all(|(j, cc)| j == i || reach[cc.index()])
                {
                    co[c.index()] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let keep: Vec<bool> = (0..d.num_states()).map(|i| reach[i] && co[i]).collect();
    let mut map: Vec<Option<StateId>> = vec![None; d.num_states()];
    let mut out = Dbta::new(d.alphabet_len(), d.max_rank());
    for (i, &k) in keep.iter().enumerate() {
        if k {
            let id = out.add_state();
            out.set_final(id, d.is_final(StateId::from_index(i)));
            map[i] = Some(id);
        }
    }
    for (children, l, q) in d.transitions() {
        let Some(nq) = map[q.index()] else { continue };
        if let Some(nc) = children
            .iter()
            .map(|c| map[c.index()])
            .collect::<Option<Vec<_>>>()
        {
            out.set_transition(&nc, l, nq);
        }
    }
    out
}

/// Minimize a DBTAʳ: trim, totalize, then Moore-refine state classes until
/// stable and rebuild on representatives.
///
/// The signature of a state under a partition is, for every transition
/// tuple over class representatives with the state substituted at each
/// argument position, the class of the target. Cost is
/// `O(passes · classes^rank · |Σ|)` — fine for the rank-2 automata the MSO
/// compiler produces.
pub fn minimize(d: &Dbta) -> Dbta {
    let t = totalize(&trim(d));
    let n = t.num_states();
    if n == 0 {
        return t;
    }
    let mut class: Vec<usize> = (0..n)
        .map(|i| usize::from(t.is_final(StateId::from_index(i))))
        .collect();
    let mut num_classes = 1 + class.iter().max().copied().unwrap_or(0);
    loop {
        // Signature of a state: for every label/arity/position and every
        // CONCRETE tuple of sibling states, the target's class. Concrete
        // siblings (not class representatives) keep each refinement step
        // sound before the partition is a congruence.
        let mut sig_index: HashMap<(usize, Vec<usize>), usize> = HashMap::new();
        let mut new_class = vec![0usize; n];
        let mut children: Vec<StateId> = Vec::new();
        for s_idx in 0..n {
            let s = StateId::from_index(s_idx);
            let mut sig: Vec<usize> = Vec::new();
            for a in 0..t.alphabet_len() {
                let label = Symbol::from_index(a);
                for arity in 1..=t.max_rank() {
                    for pos in 0..arity {
                        let mut others = Tuples::<StateId>::new(arity - 1, n);
                        while let Some(o) = others.next_tuple() {
                            children.clear();
                            children.extend_from_slice(&o[..pos]);
                            children.push(s);
                            children.extend_from_slice(&o[pos..]);
                            let tclass = t
                                .transition(&children, label)
                                .map(|q| class[q.index()])
                                .unwrap_or(usize::MAX);
                            sig.push(tclass);
                        }
                    }
                }
            }
            let key = (class[s_idx], sig);
            let next = sig_index.len();
            new_class[s_idx] = *sig_index.entry(key).or_insert(next);
        }
        let new_count = sig_index.len();
        class = new_class;
        if new_count == num_classes {
            break;
        }
        num_classes = new_count;
    }
    // rebuild on classes
    let mut out = Dbta::new(t.alphabet_len(), t.max_rank());
    for _ in 0..num_classes {
        out.add_state();
    }
    for (i, &ci) in class.iter().enumerate().take(n) {
        let c = StateId::from_index(ci);
        if t.is_final(StateId::from_index(i)) {
            out.set_final(c, true);
        }
    }
    for (children, l, q) in t.transitions() {
        let nc: Vec<StateId> = children
            .iter()
            .map(|c| StateId::from_index(class[c.index()]))
            .collect();
        out.set_transition(&nc, l, StateId::from_index(class[q.index()]));
    }
    out
}

#[cfg(test)]
mod minimize_tests {
    use super::*;
    use qa_base::Alphabet;
    use qa_trees::sexpr::from_sexpr;

    #[test]
    fn minimize_preserves_language_and_shrinks() {
        let mut a = Alphabet::from_names(["AND", "OR", "0", "1"]);
        let circuit = Dbta::boolean_circuit(&a);
        // inflate: duplicate through a product with itself
        let inflated = intersect(&circuit, &circuit);
        let min = minimize(&inflated);
        assert!(min.num_states() <= inflated.num_states());
        assert!(equivalent(&min, &circuit));
        for s in ["1", "(AND 1 0)", "(OR (AND 1 1) 0)"] {
            let t = from_sexpr(s, &mut a).unwrap();
            assert_eq!(min.accepts(&t), circuit.accepts(&t), "{s}");
        }
    }

    #[test]
    fn trim_drops_useless_states() {
        let a = Alphabet::from_names(["x"]);
        let mut d = Dbta::new(1, 2);
        let q0 = d.add_state();
        let junk = d.add_state();
        d.set_final(q0, true);
        d.set_leaf(a.symbol("x"), q0);
        d.set_transition(&[junk, junk], a.symbol("x"), junk);
        let t = trim(&d);
        assert_eq!(t.num_states(), 1);
        assert!(!is_empty(&t));
    }

    #[test]
    fn minimize_empty_language() {
        let d = Dbta::new(2, 2);
        let m = minimize(&d);
        assert!(is_empty(&m));
    }
}
