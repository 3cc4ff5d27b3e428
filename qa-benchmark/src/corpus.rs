//! Seeded inputs: document trees, their upload texts, and the formulas
//! the serve workloads send.
//!
//! Documents are generated here rather than by `qa_trees::generate`, so
//! the reference answers in [`crate::reference`] share no code with the
//! program under test.

use qa_base::rng::{Rng, StdRng};

use crate::reference::Query;

/// Label names of the served corpus. With the `#PCDATA` symbol the
/// daemon's store interns up front they make the alphabet size σ = 4.
pub const LABELS: [&str; 3] = ["a", "b", "c"];

/// The alphabet size every served query must report.
pub const SIGMA: u64 = 4;

/// Widest fan-out of a generated document.
const MAX_ARITY: usize = 4;

/// An ordered tree in preorder numbering, which is the numbering the
/// daemon's s-expression and XML parsers assign, so node ids in answers
/// line up with the reference.
#[derive(Clone, Debug)]
pub struct Doc {
    /// Label index into [`LABELS`], per node.
    pub labels: Vec<u8>,
    /// Parent of each node; `None` for the root (node 0).
    pub parent: Vec<Option<u32>>,
    /// Children of each node, left to right.
    pub children: Vec<Vec<u32>>,
}

impl Doc {
    /// A random tree of `nodes` nodes: each new node hangs under a
    /// uniformly chosen node that still has fewer than four children.
    pub fn random(rng: &mut StdRng, nodes: usize) -> Doc {
        let nodes = nodes.max(1);
        let mut labels = Vec::with_capacity(nodes);
        let mut kids: Vec<Vec<u32>> = Vec::with_capacity(nodes);
        let mut open: Vec<u32> = vec![0];
        labels.push(rng.gen_range(0..LABELS.len()) as u8);
        kids.push(Vec::new());
        for id in 1..nodes as u32 {
            let slot = rng.gen_range(0..open.len());
            let parent = open[slot] as usize;
            kids[parent].push(id);
            if kids[parent].len() >= MAX_ARITY {
                open.swap_remove(slot);
            }
            labels.push(rng.gen_range(0..LABELS.len()) as u8);
            kids.push(Vec::new());
            open.push(id);
        }
        // Renumber in preorder.
        let mut order = Vec::with_capacity(nodes);
        let mut stack = vec![0u32];
        while let Some(v) = stack.pop() {
            order.push(v);
            stack.extend(kids[v as usize].iter().rev());
        }
        let mut new_id = vec![0u32; nodes];
        for (i, &old) in order.iter().enumerate() {
            new_id[old as usize] = i as u32;
        }
        let mut doc = Doc {
            labels: order.iter().map(|&old| labels[old as usize]).collect(),
            parent: vec![None; nodes],
            children: order
                .iter()
                .map(|&old| {
                    kids[old as usize]
                        .iter()
                        .map(|&c| new_id[c as usize])
                        .collect()
                })
                .collect(),
        };
        for v in 0..nodes {
            for i in 0..doc.children[v].len() {
                let c = doc.children[v][i] as usize;
                doc.parent[c] = Some(v as u32);
            }
        }
        doc
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether node `v` has no children.
    pub fn is_leaf(&self, v: usize) -> bool {
        self.children[v].is_empty()
    }

    /// The s-expression upload text: leaves bare, inner nodes
    /// parenthesized.
    pub fn sexpr(&self) -> String {
        let mut out = String::with_capacity(self.len() * 3);
        self.walk(|v, enter| {
            let name = LABELS[self.labels[v] as usize];
            match (enter, self.is_leaf(v)) {
                (true, leaf) => {
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    if !leaf {
                        out.push('(');
                    }
                    out.push_str(name);
                }
                (false, _) => out.push(')'),
            }
        });
        out
    }

    /// The XML upload text: one element per node, leaves self-closing.
    pub fn xml(&self) -> String {
        let mut out = String::with_capacity(self.len() * 7);
        self.walk(|v, enter| {
            let name = LABELS[self.labels[v] as usize];
            match (enter, self.is_leaf(v)) {
                (true, true) => {
                    out.push('<');
                    out.push_str(name);
                    out.push_str("/>");
                }
                (true, false) => {
                    out.push('<');
                    out.push_str(name);
                    out.push('>');
                }
                (false, _) => {
                    out.push_str("</");
                    out.push_str(name);
                    out.push('>');
                }
            }
        });
        out
    }

    /// Iterative preorder walk: `visit(v, true)` on entering every node,
    /// `visit(v, false)` on leaving an inner node.
    fn walk(&self, mut visit: impl FnMut(usize, bool)) {
        let mut stack = vec![(0usize, true)];
        while let Some((v, enter)) = stack.pop() {
            visit(v, enter);
            if enter && !self.is_leaf(v) {
                stack.push((v, false));
                stack.extend(self.children[v].iter().rev().map(|&c| (c as usize, true)));
            }
        }
    }

    /// This tree as a `qa_trees::Tree` over the alphabet `LABELS`
    /// (symbol `i` = `LABELS[i]`), with the same node ids.
    #[cfg(test)]
    pub fn to_tree(&self) -> qa_trees::Tree {
        use qa_base::Symbol;
        use qa_trees::NodeId;
        let mut t = qa_trees::Tree::leaf(Symbol::from_index(self.labels[0] as usize));
        for v in 1..self.len() {
            let p = self.parent[v].expect("only the root lacks a parent");
            t.add_child(
                NodeId::from_index(p as usize),
                Symbol::from_index(self.labels[v] as usize),
            );
        }
        t
    }
}

/// The warm query set every serve workload cycles through, with the
/// query each formula means. The same four formulas as the daemon's own
/// soak harness, copied so the workload cannot drift with it.
pub fn warm_formulas() -> Vec<(&'static str, Query)> {
    vec![
        ("label(v, a)", Query::Label(0)),
        ("label(v, b)", Query::Label(1)),
        ("leaf(v) & label(v, c)", Query::LeafLabel(2)),
        (
            "label(v, a) & (ex r. (root(r) & label(r, a)))",
            Query::RootLabel { label: 0, root: 0 },
        ),
    ]
}

/// The formula templates of the churn workload's cold queries. Their
/// compile times at σ = 4 span two orders of magnitude.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Template {
    /// `label(x, L)`
    Label,
    /// `leaf(x) & label(x, L)`
    LeafLabel,
    /// The parent is labeled `L`, via `edge`.
    ParentLabel,
    /// Some child is labeled `L`, via `edge`.
    ChildLabel,
    /// No left sibling is labeled `L`, via `<`.
    NoLeftSibling,
}

impl Template {
    /// Every template, in cycle order.
    pub const ALL: [Template; 5] = [
        Template::Label,
        Template::LeafLabel,
        Template::ParentLabel,
        Template::ChildLabel,
        Template::NoLeftSibling,
    ];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Template::Label => "label",
            Template::LeafLabel => "leaf_label",
            Template::ParentLabel => "parent_label",
            Template::ChildLabel => "child_label",
            Template::NoLeftSibling => "no_left_sibling",
        }
    }

    /// The formula text with its free variable renamed `x{k}` and its
    /// bound variable `w{k}`, so every `k` is a formula the daemon has
    /// never compiled; plus the query it means.
    pub fn instantiate(self, k: u64, label: u8) -> (String, Query) {
        let l = LABELS[label as usize];
        match self {
            Template::Label => (format!("label(x{k}, {l})"), Query::Label(label)),
            Template::LeafLabel => (
                format!("leaf(x{k}) & label(x{k}, {l})"),
                Query::LeafLabel(label),
            ),
            Template::ParentLabel => (
                format!("ex w{k}. (edge(w{k}, x{k}) & label(w{k}, {l}))"),
                Query::ParentLabel(label),
            ),
            Template::ChildLabel => (
                format!("ex w{k}. (edge(x{k}, w{k}) & label(w{k}, {l}))"),
                Query::ChildLabel(label),
            ),
            Template::NoLeftSibling => (
                format!("!(ex w{k}. (w{k} < x{k} & label(w{k}, {l})))"),
                Query::NoLeftSibling(label),
            ),
        }
    }
}

/// A well-mixed 64-bit hash of `parts`, for seeded choices that must not
/// depend on call order.
pub fn mix(parts: &[u64]) -> u64 {
    let mut h: u64 = 0x243f_6a88_85a3_08d3;
    for &p in parts {
        h ^= p;
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_round_trip_through_the_program_parsers() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1, 2, 7, 40] {
            let doc = Doc::random(&mut rng, n);
            let tree = doc.to_tree();
            for text in [doc.sexpr(), doc.xml()] {
                let mut store = qa_serve::DocStore::new();
                let receipt = store.ingest("d", &text).expect(&text);
                assert_eq!(receipt.nodes, n, "{text}");
                let parsed = &store.get("d").expect("ingested").tree;
                for v in 0..n {
                    let id = qa_trees::NodeId::from_index(v);
                    assert_eq!(
                        store.alphabet().name(parsed.label(id)),
                        LABELS[doc.labels[v] as usize],
                        "{text}"
                    );
                    assert_eq!(parsed.parent(id), tree.parent(id), "{text}");
                }
            }
        }
    }

    #[test]
    fn small_trees_render_as_expected() {
        let doc = Doc {
            labels: vec![0, 1, 2, 0],
            parent: vec![None, Some(0), Some(1), Some(0)],
            children: vec![vec![1, 3], vec![2], vec![], vec![]],
        };
        assert_eq!(doc.sexpr(), "(a (b c) a)");
        assert_eq!(doc.xml(), "<a><b><c/></b><a/></a>");
    }

    #[test]
    fn generation_is_seeded() {
        let a = Doc::random(&mut StdRng::seed_from_u64(9), 300);
        let b = Doc::random(&mut StdRng::seed_from_u64(9), 300);
        assert_eq!(a.sexpr(), b.sexpr());
        assert!(a.children.iter().all(|c| c.len() <= MAX_ARITY));
    }
}
