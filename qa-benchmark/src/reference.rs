//! Independent reference answers: direct tree walks, one per query the
//! benchmark sends, sharing no code with the automata under test.

use qa_base::Symbol;
use qa_trees::{NodeId, Tree};

use crate::corpus::Doc;

/// What a served formula selects, as a label-level description.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// Nodes labeled `l`.
    Label(u8),
    /// Leaves labeled `l`.
    LeafLabel(u8),
    /// Nodes labeled `label`, when the root is labeled `root`.
    RootLabel {
        /// Label of the selected nodes.
        label: u8,
        /// Label the root must carry.
        root: u8,
    },
    /// Nodes whose parent is labeled `l`.
    ParentLabel(u8),
    /// Nodes with a child labeled `l`.
    ChildLabel(u8),
    /// Nodes with no left sibling labeled `l` (the root included).
    NoLeftSibling(u8),
}

/// The nodes of `doc` that `q` selects, ascending.
pub fn select(doc: &Doc, q: Query) -> Vec<u32> {
    let label = |v: usize| doc.labels[v];
    let keep = |v: usize| match q {
        Query::Label(l) => label(v) == l,
        Query::LeafLabel(l) => doc.is_leaf(v) && label(v) == l,
        Query::RootLabel { label: l, root } => label(0) == root && label(v) == l,
        Query::ParentLabel(l) => doc.parent[v].is_some_and(|p| label(p as usize) == l),
        Query::ChildLabel(l) => doc.children[v].iter().any(|&c| label(c as usize) == l),
        Query::NoLeftSibling(l) => match doc.parent[v] {
            None => true,
            Some(p) => doc.children[p as usize]
                .iter()
                .take_while(|&&c| c as usize != v)
                .all(|&c| label(c as usize) != l),
        },
    };
    (0..doc.len())
        .filter(|&v| keep(v))
        .map(|v| v as u32)
        .collect()
}

/// Example 3.4: positions holding `1` at an odd position counted from
/// the right end (the last position is 1).
pub fn odd_ones_from_right(word: &[Symbol], one: Symbol) -> Vec<usize> {
    let n = word.len();
    (0..n)
        .filter(|&i| word[i] == one && (n - i) % 2 == 1)
        .collect()
}

/// Examples 4.4 and 5.9: the nodes of a Boolean circuit (ranked or
/// variadic) that evaluate to 1. Leaves are literals; inner nodes are
/// `AND` or, otherwise, `OR`.
pub fn true_gates(t: &Tree, and: Symbol, one: Symbol) -> Vec<usize> {
    let mut value = vec![false; t.num_nodes()];
    for v in t.postorder() {
        let kids = t.children(v);
        value[v.index()] = if kids.is_empty() {
            t.label(v) == one
        } else if t.label(v) == and {
            kids.iter().all(|c| value[c.index()])
        } else {
            kids.iter().any(|c| value[c.index()])
        };
    }
    (0..t.num_nodes()).filter(|&v| value[v]).collect()
}

/// Example 5.14: leaves labeled 1 with no 1-labeled left sibling.
pub fn first_one_leaves(t: &Tree, one: Symbol) -> Vec<usize> {
    (0..t.num_nodes())
        .filter(|&i| {
            let v = NodeId::from_index(i);
            t.is_leaf(v)
                && t.label(v) == one
                && match t.parent(v) {
                    None => true,
                    Some(p) => t.children(p)[..t.child_index(v)]
                        .iter()
                        .all(|&w| t.label(w) != one),
                }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{warm_formulas, Template, LABELS};
    use qa_base::rng::{Rng, StdRng};
    use qa_base::Alphabet;

    /// Every served formula against the naive MSO semantics on 240
    /// random trees of at most 12 nodes.
    #[test]
    fn served_references_agree_with_naive_mso() {
        let mut rng = StdRng::seed_from_u64(2024);
        let mut formulas: Vec<(String, Query, String)> = warm_formulas()
            .into_iter()
            .map(|(f, q)| (f.to_string(), q, "v".to_string()))
            .collect();
        for t in Template::ALL {
            for label in 0..LABELS.len() as u8 {
                let (f, q) = t.instantiate(7, label);
                formulas.push((f, q, "x7".to_string()));
            }
        }
        let mut alphabet = Alphabet::from_names(LABELS);
        let parsed: Vec<_> = formulas
            .iter()
            .map(|(f, _, _)| qa_mso::parse(f, &mut alphabet).expect("formula parses"))
            .collect();
        assert_eq!(
            alphabet.len(),
            LABELS.len(),
            "formulas use corpus labels only"
        );
        for _ in 0..240 {
            let n = rng.gen_range(1..13);
            let doc = Doc::random(&mut rng, n);
            let tree = doc.to_tree();
            for ((text, q, var), f) in formulas.iter().zip(&parsed) {
                let naive = qa_mso::naive::query(qa_mso::naive::Structure::Tree(&tree), f, var)
                    .expect("naive evaluation");
                let want: Vec<u32> = naive.into_iter().map(|v| v as u32).collect();
                assert_eq!(select(&doc, *q), want, "{text} on {}", doc.sexpr());
            }
        }
    }

    #[test]
    fn fleet_references_match_the_paper_examples() {
        let bin = Alphabet::from_names(["0", "1"]);
        let (zero, one) = (bin.symbol("0"), bin.symbol("1"));
        // w = 0110: from the right, positions 4,3,2,1 → index 1 is odd.
        assert_eq!(odd_ones_from_right(&[zero, one, one, zero], one), vec![1]);

        let mut circ = Alphabet::from_names(["AND", "OR", "0", "1"]);
        let t = qa_trees::sexpr::from_sexpr("(OR (AND 1 0) (AND 1 1) 0)", &mut circ).unwrap();
        // OR=1, AND(1,0)=0, 1, 0, AND(1,1)=1, 1, 1, 0
        assert_eq!(
            true_gates(&t, circ.symbol("AND"), circ.symbol("1")),
            vec![0, 2, 4, 5, 6]
        );

        let mut b = bin.clone();
        let t = qa_trees::sexpr::from_sexpr("(0 (0 0 1) 1 (1 1) 0)", &mut b).unwrap();
        // Preorder: 0 root, 1 = (0 …), 2 = 0, 3 = 1, 4 = 1, 5 = (1 …),
        // 6 = 1, 7 = 0. First-1 leaves: 3 (after a 0), 4 (after the
        // 0-labeled inner node), 6 (an only child).
        assert_eq!(first_one_leaves(&t, one), vec![3, 4, 6]);
        let single = qa_trees::sexpr::from_sexpr("1", &mut b).unwrap();
        assert_eq!(first_one_leaves(&single, one), vec![0]);
    }
}
