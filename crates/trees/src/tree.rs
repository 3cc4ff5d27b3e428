//! Arena-based ordered labeled trees.

use qa_base::Symbol;

qa_base::define_id!(pub NodeId, "n");

#[derive(Clone, Debug, PartialEq, Eq)]
struct Node {
    label: Symbol,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// An ordered, Σ-labeled tree in a flat arena.
///
/// The root is always node `0`. Children are ordered; `vi` in the paper's
/// notation is `tree.child(v, i - 1)`. Construction is either incremental
/// ([`Tree::leaf`] + [`Tree::add_child`]) or compositional
/// ([`Tree::node`], grafting subtree arenas — the paper's `σ(t₁, …, tₙ)`).
/// Either way nodes are only ever appended, so a node's id is larger than
/// its parent's and its earlier siblings': ascending ids visit parents
/// before children, descending ids children before parents.
///
/// ```
/// use qa_base::Alphabet;
/// use qa_trees::Tree;
/// let mut sigma = Alphabet::new();
/// let (f, a, b) = (sigma.intern("f"), sigma.intern("a"), sigma.intern("b"));
/// // f(a, b)
/// let t = Tree::node(f, vec![Tree::leaf(a), Tree::leaf(b)]);
/// assert_eq!(t.num_nodes(), 3);
/// assert_eq!(t.arity(t.root()), 2);
/// assert_eq!(t.label(t.child(t.root(), 1)), b);
/// ```
#[derive(Clone, Debug)]
pub struct Tree {
    nodes: Vec<Node>,
}

/// Structural equality: same shape and labels, regardless of arena layout.
impl PartialEq for Tree {
    fn eq(&self, other: &Tree) -> bool {
        let mut stack = vec![(self.root(), other.root())];
        while let Some((a, b)) = stack.pop() {
            if self.label(a) != other.label(b) || self.arity(a) != other.arity(b) {
                return false;
            }
            stack.extend(
                self.children(a)
                    .iter()
                    .copied()
                    .zip(other.children(b).iter().copied()),
            );
        }
        true
    }
}

impl Eq for Tree {}

impl Tree {
    /// A single-node tree — the paper's `t(σ)`.
    pub fn leaf(label: Symbol) -> Tree {
        Tree {
            nodes: vec![Node {
                label,
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// `σ(t₁, …, tₙ)`: a fresh root labeled `label` above the given
    /// subtrees (their arenas are merged iteratively).
    pub fn node(label: Symbol, subtrees: Vec<Tree>) -> Tree {
        let mut t = Tree::leaf(label);
        for sub in subtrees {
            t.graft(t.root(), &sub);
        }
        t
    }

    /// The root node (always id 0).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::from_index(0)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The label of `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> Symbol {
        self.nodes[v.index()].label
    }

    /// Relabel `v`.
    pub fn set_label(&mut self, v: NodeId, label: Symbol) {
        self.nodes[v.index()].label = label;
    }

    /// The parent of `v` (`None` for the root).
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.nodes[v.index()].parent
    }

    /// The ordered children of `v`.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.nodes[v.index()].children
    }

    /// The `i`-th (0-based) child of `v`.
    #[inline]
    pub fn child(&self, v: NodeId, i: usize) -> NodeId {
        self.nodes[v.index()].children[i]
    }

    /// Number of children of `v` — the paper's `arity(v)`.
    #[inline]
    pub fn arity(&self, v: NodeId) -> usize {
        self.nodes[v.index()].children.len()
    }

    /// Whether `v` is a leaf.
    #[inline]
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.nodes[v.index()].children.is_empty()
    }

    /// The position of `v` among its siblings (0-based); 0 for the root.
    pub fn child_index(&self, v: NodeId) -> usize {
        match self.parent(v) {
            None => 0,
            Some(p) => self
                .children(p)
                .iter()
                .position(|&c| c == v)
                .expect("child lists are consistent"),
        }
    }

    /// Append a fresh leaf child under `parent`, returning its id.
    pub fn add_child(&mut self, parent: NodeId, label: Symbol) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node {
            label,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Graft a copy of `sub` as the new last child of `parent`; returns the
    /// id of the copied root. Iterative — safe for deep subtrees.
    pub fn graft(&mut self, parent: NodeId, sub: &Tree) -> NodeId {
        let offset = self.nodes.len();
        let shift = |v: NodeId| NodeId::from_index(v.index() + offset);
        for (i, n) in sub.nodes.iter().enumerate() {
            self.nodes.push(Node {
                label: n.label,
                parent: Some(n.parent.map(&shift).unwrap_or(parent)),
                children: n.children.iter().copied().map(&shift).collect(),
            });
            if i == 0 {
                let new_root = NodeId::from_index(offset);
                self.nodes[parent.index()].children.push(new_root);
            }
        }
        NodeId::from_index(offset)
    }

    /// All node ids (arena order, root first).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// All leaves, in arena order.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&v| self.is_leaf(v))
    }

    /// The depth of `v` (root has depth 0).
    pub fn depth(&self, v: NodeId) -> usize {
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the whole tree (a single node has height 0). Iterative.
    pub fn height(&self) -> usize {
        let mut h = vec![0usize; self.nodes.len()];
        for v in self.postorder() {
            h[v.index()] = self
                .children(v)
                .iter()
                .map(|c| h[c.index()] + 1)
                .max()
                .unwrap_or(0);
        }
        h[self.root().index()]
    }

    /// Maximum arity over all nodes (0 for a single leaf) — the paper's
    /// *rank* of the tree.
    pub fn rank(&self) -> usize {
        self.nodes().map(|v| self.arity(v)).max().unwrap_or(0)
    }

    /// Whether every node has arity `<= m`.
    pub fn is_ranked(&self, m: usize) -> bool {
        self.rank() <= m
    }

    /// Preorder traversal (root, then subtrees left to right). Iterative.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root()];
        while let Some(v) = stack.pop() {
            out.push(v);
            for &c in self.children(v).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Postorder traversal (subtrees left to right, then root). Iterative.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut out = self.preorder_mirrored();
        out.reverse();
        out
    }

    /// Preorder with children visited right to left (helper for postorder).
    fn preorder_mirrored(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root()];
        while let Some(v) = stack.pop() {
            out.push(v);
            for &c in self.children(v) {
                stack.push(c);
            }
        }
        out
    }

    /// Node ids grouped by depth (level 0 = root) — the *cuts by level* the
    /// Figure 5/6 algorithms proceed along.
    pub fn levels(&self) -> Vec<Vec<NodeId>> {
        let mut levels: Vec<Vec<NodeId>> = Vec::new();
        let mut current = vec![self.root()];
        while !current.is_empty() {
            let mut next = Vec::new();
            for &v in &current {
                next.extend_from_slice(self.children(v));
            }
            levels.push(std::mem::take(&mut current));
            current = next;
        }
        levels
    }

    /// The number of nodes in the subtree rooted at `v`. Iterative.
    pub fn subtree_size(&self, v: NodeId) -> usize {
        let mut n = 0;
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            n += 1;
            stack.extend_from_slice(self.children(u));
        }
        n
    }

    /// A fresh tree that is a copy of the subtree rooted at `v` — the
    /// paper's `t_v`.
    pub fn subtree(&self, v: NodeId) -> Tree {
        let mut map = std::collections::HashMap::new();
        let mut out = Tree::leaf(self.label(v));
        map.insert(v, out.root());
        // preorder so parents are mapped before children
        let mut stack: Vec<NodeId> = self.children(v).iter().rev().copied().collect();
        while let Some(u) = stack.pop() {
            let p = self.parent(u).expect("non-root in subtree");
            let np = map[&p];
            let nu = out.add_child(np, self.label(u));
            map.insert(u, nu);
            for &c in self.children(u).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The *envelope* `t̄_v`: the tree with the subtrees rooted at `v`'s
    /// children removed (`v` itself remains, as in the paper). Returns the
    /// envelope tree and the id of `v`'s copy in it.
    pub fn envelope(&self, v: NodeId) -> (Tree, NodeId) {
        let mut keep = vec![false; self.nodes.len()];
        // keep everything except strict descendants of v
        let mut stack = vec![self.root()];
        while let Some(u) = stack.pop() {
            keep[u.index()] = true;
            if u != v {
                stack.extend_from_slice(self.children(u));
            }
        }
        let mut map = std::collections::HashMap::new();
        let mut out = Tree::leaf(self.label(self.root()));
        map.insert(self.root(), out.root());
        // preorder over kept nodes
        let mut stack: Vec<NodeId> = if v == self.root() {
            Vec::new()
        } else {
            self.children(self.root()).iter().rev().copied().collect()
        };
        while let Some(u) = stack.pop() {
            if !keep[u.index()] {
                continue;
            }
            let p = self.parent(u).expect("non-root");
            let np = map[&p];
            let nu = out.add_child(np, self.label(u));
            map.insert(u, nu);
            if u != v {
                for &c in self.children(u).iter().rev() {
                    stack.push(c);
                }
            }
        }
        (out, map[&v])
    }

    /// Render as an s-expression with an alphabet for names.
    pub fn render(&self, alphabet: &qa_base::Alphabet) -> String {
        crate::sexpr::to_sexpr(self, alphabet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_base::Alphabet;

    fn sample() -> (Tree, Alphabet) {
        let mut a = Alphabet::new();
        let (f, g, x, y) = (a.intern("f"), a.intern("g"), a.intern("x"), a.intern("y"));
        // f(g(x, y), y)
        let t = Tree::node(
            f,
            vec![
                Tree::node(g, vec![Tree::leaf(x), Tree::leaf(y)]),
                Tree::leaf(y),
            ],
        );
        (t, a)
    }

    #[test]
    fn structure_queries() {
        let (t, a) = sample();
        let r = t.root();
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.arity(r), 2);
        assert_eq!(a.name(t.label(r)), "f");
        let g = t.child(r, 0);
        assert_eq!(a.name(t.label(g)), "g");
        assert_eq!(t.arity(g), 2);
        assert!(t.is_leaf(t.child(g, 1)));
        assert_eq!(t.parent(g), Some(r));
        assert_eq!(t.parent(r), None);
        assert_eq!(t.child_index(t.child(g, 1)), 1);
        assert_eq!(t.depth(t.child(g, 0)), 2);
        assert_eq!(t.height(), 2);
        assert_eq!(t.rank(), 2);
        assert!(t.is_ranked(2));
        assert!(!t.is_ranked(1));
        assert_eq!(t.subtree_size(g), 3);
        assert_eq!(t.leaves().count(), 3);
    }

    #[test]
    fn traversal_orders() {
        let (t, a) = sample();
        let pre: Vec<&str> = t.preorder().iter().map(|&v| a.name(t.label(v))).collect();
        assert_eq!(pre, vec!["f", "g", "x", "y", "y"]);
        let post: Vec<&str> = t.postorder().iter().map(|&v| a.name(t.label(v))).collect();
        assert_eq!(post, vec!["x", "y", "g", "y", "f"]);
    }

    #[test]
    fn ids_grow_from_parents_and_earlier_siblings() {
        let (mut t, a) = sample();
        // interleave appends under different parents, then graft
        let g = t.child(t.root(), 0);
        t.add_child(t.root(), a.symbol("x"));
        t.add_child(g, a.symbol("y"));
        let sub = t.clone();
        t.graft(g, &sub);
        for v in t.nodes() {
            let kids = t.children(v);
            assert!(kids.iter().all(|&c| c > v));
            assert!(kids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn levels_group_by_depth() {
        let (t, _) = sample();
        let levels = t.levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec![t.root()]);
        assert_eq!(levels[1].len(), 2);
        assert_eq!(levels[2].len(), 2);
    }

    #[test]
    fn subtree_extraction() {
        let (t, a) = sample();
        let g = t.child(t.root(), 0);
        let sub = t.subtree(g);
        assert_eq!(sub.render(&a), "(g x y)");
    }

    #[test]
    fn envelope_removes_descendants_keeps_v() {
        let (t, a) = sample();
        let g = t.child(t.root(), 0);
        let (env, gv) = t.envelope(g);
        assert_eq!(env.render(&a), "(f g y)");
        assert_eq!(a.name(env.label(gv)), "g");
        assert!(env.is_leaf(gv));
        // envelope of the root keeps only the root's other structure
        let (env, rv) = t.envelope(t.root());
        assert_eq!(env.num_nodes(), 1);
        assert_eq!(rv, env.root());
    }

    #[test]
    fn graft_preserves_child_order() {
        let mut a = Alphabet::new();
        let (f, x, y) = (a.intern("f"), a.intern("x"), a.intern("y"));
        let mut t = Tree::leaf(f);
        t.graft(t.root(), &Tree::leaf(x));
        t.graft(t.root(), &Tree::leaf(y));
        assert_eq!(t.render(&a), "(f x y)");
    }

    #[test]
    fn deep_tree_does_not_overflow() {
        let mut a = Alphabet::new();
        let c = a.intern("c");
        let mut t = Tree::leaf(c);
        let mut cur = t.root();
        for _ in 0..200_000 {
            cur = t.add_child(cur, c);
        }
        assert_eq!(t.height(), 200_000);
        assert_eq!(t.postorder().len(), 200_001);
        assert_eq!(t.depth(cur), 200_000);
    }
}
