//! First-child/next-sibling encoding: unranked ⇄ binary ranked trees.
//!
//! `encode` maps an unranked Σ-tree to a binary tree over `Σ ⊎ {nil}` where
//! every Σ-node has exactly two children: its first child's encoding (or a
//! `nil` leaf) on the left, and its next sibling's encoding (or `nil`) on
//! the right. This classical bijection lets the unranked automata of
//! Section 5 borrow closure properties (most importantly complementation,
//! which needs determinization) from the ranked automata of Section 4.

use qa_base::Symbol;

use crate::{NodeId, Tree};

/// Encode `t` into its binary first-child/next-sibling form, using `nil` as
/// the padding leaf label (must not occur in `t`). Iterative.
pub fn encode(t: &Tree, nil: Symbol) -> Tree {
    encode_with_map(t, nil).0
}

/// [`encode`], also returning the correspondence between encoded and source
/// nodes: `map[encoded.index()] = Some(source)` for Σ-nodes, `None` for the
/// `nil` padding leaves.
pub fn encode_with_map(t: &Tree, nil: Symbol) -> (Tree, Vec<Option<NodeId>>) {
    let mut out = Tree::leaf(t.label(t.root()));
    let mut map: Vec<Option<NodeId>> = vec![Some(t.root())];
    let record = |map: &mut Vec<Option<NodeId>>, enc: NodeId, src: Option<NodeId>| {
        if map.len() <= enc.index() {
            map.resize(enc.index() + 1, None);
        }
        map[enc.index()] = src;
    };
    // stack of (source node, its position among its siblings, encoded
    // node) whose two children remain to add
    let mut stack = vec![(t.root(), 0, out.root())];
    while let Some((src, pos, dst)) = stack.pop() {
        debug_assert!(t.label(src) != nil, "nil label occurs in the source tree");
        // left = first child
        match t.children(src).first() {
            Some(&fc) => {
                let d = out.add_child(dst, t.label(fc));
                record(&mut map, d, Some(fc));
                stack.push((fc, 0, d));
            }
            None => {
                let d = out.add_child(dst, nil);
                record(&mut map, d, None);
            }
        }
        // right = next sibling
        let siblings = t.parent(src).map_or(&[][..], |p| t.children(p));
        match siblings.get(pos + 1) {
            Some(&ns) => {
                let d = out.add_child(dst, t.label(ns));
                record(&mut map, d, Some(ns));
                stack.push((ns, pos + 1, d));
            }
            None => {
                let d = out.add_child(dst, nil);
                record(&mut map, d, None);
            }
        }
    }
    (out, map)
}

/// Decode a binary first-child/next-sibling tree back into unranked form.
/// Inverse of [`encode`]. Iterative.
///
/// Panics if `enc` is not a well-formed encoding (every non-`nil` node must
/// have exactly two children; the root must not be `nil` and must have a
/// `nil` right child).
pub fn decode(enc: &Tree, nil: Symbol) -> Tree {
    assert_ne!(enc.label(enc.root()), nil, "root is nil");
    let mut out = Tree::leaf(enc.label(enc.root()));
    // stack of (encoded node, decoded parent of its first-child chain,
    //           decoded node it corresponds to)
    let mut stack = vec![(enc.root(), out.root())];
    while let Some((src, dst)) = stack.pop() {
        assert_eq!(enc.arity(src), 2, "non-nil node without two children");
        let left = enc.child(src, 0);
        let right = enc.child(src, 1);
        // right = next sibling of src: belongs under dst's parent
        if enc.label(right) != nil {
            let parent = out.parent(dst).expect("sibling of a non-root");
            let d = out.add_child(parent, enc.label(right));
            stack.push((right, d));
        }
        // left = first child of src
        if enc.label(left) != nil {
            let d = out.add_child(dst, enc.label(left));
            stack.push((left, d));
        }
    }
    out
}

/// The next sibling of `v` in `t`, if any.
pub fn next_sibling(t: &Tree, v: NodeId) -> Option<NodeId> {
    let p = t.parent(v)?;
    let idx = t.child_index(v);
    t.children(p).get(idx + 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_base::rng::StdRng;
    use qa_base::Alphabet;

    fn setup() -> (Alphabet, Symbol) {
        let mut a = Alphabet::new();
        a.intern("a");
        a.intern("b");
        a.intern("c");
        let nil = a.intern("#nil");
        (a, nil)
    }

    #[test]
    fn encode_shape() {
        let (mut a, nil) = setup();
        let t = crate::sexpr::from_sexpr("(a b c)", &mut a).unwrap();
        let enc = encode(&t, nil);
        // a(b(nil, c(nil, nil)), nil)
        assert_eq!(enc.render(&a), "(a (b #nil (c #nil #nil)) #nil)");
    }

    #[test]
    fn decode_inverts_encode() {
        let (mut a, nil) = setup();
        for s in [
            "a",
            "(a b)",
            "(a b c)",
            "(a (b c) (c a b) b)",
            "(a (a (a a a a) a) (a a))",
        ] {
            let t = crate::sexpr::from_sexpr(s, &mut a).unwrap();
            let back = decode(&encode(&t, nil), nil);
            assert_eq!(back, t, "{s}");
        }
    }

    #[test]
    fn round_trip_random_trees() {
        let (a, nil) = setup();
        let labels: Vec<Symbol> = (0..3).map(Symbol::from_index).collect();
        let mut rng = StdRng::seed_from_u64(99);
        for n in [1usize, 2, 5, 17, 60] {
            let t = crate::generate::random(&mut rng, &labels, n, None);
            let enc = encode(&t, nil);
            assert!(enc.is_ranked(2));
            // every non-nil node has exactly 2 children; nil nodes are leaves
            for v in enc.nodes() {
                if enc.label(v) == nil {
                    assert!(enc.is_leaf(v));
                } else {
                    assert_eq!(enc.arity(v), 2);
                }
            }
            assert_eq!(decode(&enc, nil), t);
            let _ = a;
        }
    }

    #[test]
    fn encoded_size_is_2n_plus_1() {
        let (mut a, nil) = setup();
        let t = crate::sexpr::from_sexpr("(a (b c) b)", &mut a).unwrap();
        let enc = encode(&t, nil);
        assert_eq!(enc.num_nodes(), 2 * t.num_nodes() + 1);
    }

    #[test]
    fn encode_with_map_is_a_bijection_on_sigma_nodes() {
        let (mut a, nil) = setup();
        let t = crate::sexpr::from_sexpr("(a (b c) b)", &mut a).unwrap();
        let (enc, map) = encode_with_map(&t, nil);
        assert_eq!(map.len(), enc.num_nodes());
        let mut sources: Vec<NodeId> = map.iter().flatten().copied().collect();
        sources.sort_unstable();
        let mut all: Vec<NodeId> = t.nodes().collect();
        all.sort_unstable();
        assert_eq!(sources, all);
        for v in enc.nodes() {
            match map[v.index()] {
                Some(src) => assert_eq!(enc.label(v), t.label(src)),
                None => assert_eq!(enc.label(v), nil),
            }
        }
    }

    #[test]
    fn next_sibling_navigation() {
        let (mut a, _) = setup();
        let t = crate::sexpr::from_sexpr("(a b c)", &mut a).unwrap();
        let b = t.child(t.root(), 0);
        let c = t.child(t.root(), 1);
        assert_eq!(next_sibling(&t, b), Some(c));
        assert_eq!(next_sibling(&t, c), None);
        assert_eq!(next_sibling(&t, t.root()), None);
    }
}
