//! [`DocStore`]: the resident, arena-backed document store behind
//! `PUT /doc`.
//!
//! Documents arrive as s-expressions or XML, parse into the workspace's
//! arena [`Tree`] (every node a `u32` index into flat vectors — no
//! per-node allocation), and stay resident under one *shared*
//! [`Alphabet`]. Sharing the alphabet across every document is the
//! store's load-bearing decision: compiled query automata are functions
//! of the alphabet size `σ`, so a single growing alphabet gives the
//! query cache one coherent `σ` axis to key on — ingesting a document
//! with fresh labels bumps `σ`, and the cache recompiles affected
//! queries instead of ever applying a stale automaton to symbols it has
//! never seen.
//!
//! Every document gets a content fingerprint: FNV-1a 64 over its
//! *canonical s-expression* rendering, so the same tree ingested as XML
//! or as an s-expression — or re-ingested byte-differently but
//! structurally identically — fingerprints identically, and re-ingests
//! of unchanged content are cheap idempotent no-ops.
//!
//! Ingest comes in two halves so that a daemon can parse with no lock
//! held. `DocStore::parse` parses and fingerprints against a *copy* of
//! the alphabet; `DocStore::insert` interns the labels the copy lacked
//! and swaps the tree in, relabelling it when a concurrent insert took
//! those ids first. A text that fails to parse never reaches the shared
//! alphabet, so garbage cannot grow `σ`.

use std::collections::BTreeMap;
use std::sync::Arc;

use qa_base::{Alphabet, Error, Result, Symbol};
use qa_trees::sexpr::{from_sexpr, to_sexpr};
use qa_trees::{NodeId, Tree};
use qa_xml::parser::{parse_with_alphabet, PCDATA};

/// One resident document.
#[derive(Clone, Debug)]
pub struct StoredDoc {
    /// The name it was ingested under (`PUT /doc?name=…`).
    pub name: String,
    /// The parsed tree, shared with in-flight evaluations.
    pub tree: Arc<Tree>,
    /// FNV-1a 64 over the canonical s-expression rendering.
    pub fingerprint: u64,
    /// Node count.
    pub nodes: usize,
    /// Tree height (root-to-deepest-leaf edges).
    pub height: usize,
}

/// Receipt returned by [`DocStore::ingest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Dense document id (stable across re-ingests of the same name).
    pub id: usize,
    /// Content fingerprint of the ingested tree.
    pub fingerprint: u64,
    /// Node count of the ingested tree.
    pub nodes: usize,
    /// Height of the ingested tree.
    pub height: usize,
    /// Whether the store changed — `false` when re-ingesting a document
    /// whose fingerprint matches what is already resident.
    pub updated: bool,
}

/// A document parsed against a copy of the store's alphabet, not yet
/// stored: the output of [`DocStore::parse`], the input of
/// [`DocStore::insert`].
#[derive(Debug)]
pub(crate) struct ParsedDoc {
    tree: Tree,
    fingerprint: u64,
    nodes: usize,
    height: usize,
    /// Length of the alphabet copy before the parse.
    known: usize,
    /// Labels the parse added to the copy, in id order from `known`.
    fresh: Vec<String>,
}

/// The resident document store; see the module docs.
#[derive(Debug, Default)]
pub struct DocStore {
    alphabet: Alphabet,
    docs: Vec<StoredDoc>,
    by_name: BTreeMap<String, usize>,
}

impl DocStore {
    /// An empty store. Its shared alphabet pre-interns
    /// [`PCDATA`] so XML and s-expression ingests
    /// agree on symbol ids from the first document on.
    pub fn new() -> DocStore {
        let mut alphabet = Alphabet::new();
        alphabet.intern(PCDATA);
        DocStore {
            alphabet,
            docs: Vec::new(),
            by_name: BTreeMap::new(),
        }
    }

    /// Parse `text` (XML if it starts with `<`, an s-expression
    /// otherwise) and store it under `name`, extending the shared
    /// alphabet with any fresh labels. Re-ingesting a name with
    /// fingerprint-identical content is an idempotent no-op; different
    /// content replaces the document in place, keeping its id. A rejected
    /// text leaves the store, alphabet included, as it was.
    ///
    /// This is `DocStore::parse` against a copy of the alphabet followed
    /// by `DocStore::insert`; the daemon runs the two halves under
    /// different locks.
    ///
    /// ```
    /// use qa_serve::DocStore;
    ///
    /// let mut store = DocStore::new();
    /// let receipt = store.ingest("pair", "(a (b) (b))").unwrap();
    /// assert_eq!((receipt.nodes, receipt.height), (3, 1));
    /// assert!(receipt.updated);
    ///
    /// // Re-ingesting identical content changes nothing.
    /// let again = store.ingest("pair", "(a b b)").unwrap();
    /// assert_eq!(again.fingerprint, receipt.fingerprint);
    /// assert!(!again.updated);
    ///
    /// // XML and s-expression ingests share one alphabet.
    /// let xml = store.ingest("solo", "<a><b/></a>").unwrap();
    /// assert_eq!(xml.nodes, 2);
    /// ```
    pub fn ingest(&mut self, name: &str, text: &str) -> Result<IngestReceipt> {
        check_name(name)?;
        let parsed = DocStore::parse(text, self.alphabet.clone())?;
        self.insert(name, parsed).map(|(receipt, _)| receipt)
    }

    /// The parse half of [`DocStore::ingest`]: parse `text` against
    /// `alphabet`, a copy of the store's, and fingerprint it. Touches no
    /// store, so it can run with no lock held; labels the copy lacks are
    /// recorded for [`DocStore::insert`] to intern.
    pub(crate) fn parse(text: &str, mut alphabet: Alphabet) -> Result<ParsedDoc> {
        let known = alphabet.len();
        let trimmed = text.trim();
        let tree = if trimmed.starts_with('<') {
            // A no-op on the store's alphabets, which start with it.
            alphabet.intern(PCDATA);
            parse_with_alphabet(trimmed, &mut alphabet)?.tree
        } else {
            from_sexpr(trimmed, &mut alphabet)?
        };
        let canonical = to_sexpr(&tree, &alphabet);
        Ok(ParsedDoc {
            fingerprint: qa_obs::fnv1a64(canonical.as_bytes()),
            nodes: tree.num_nodes(),
            height: tree.height(),
            tree,
            known,
            fresh: alphabet
                .iter()
                .skip(known)
                .map(|(_, n)| n.to_string())
                .collect(),
        })
    }

    /// The insert half of [`DocStore::ingest`]: intern `doc`'s fresh
    /// labels and store it under `name`. When another insert interned
    /// labels since `doc`'s alphabet copy was taken, the fresh labels get
    /// other ids here, and the tree is relabelled to match; fingerprints
    /// are over label names, so they do not change.
    ///
    /// Also returns the tree this insert let go of (the replaced
    /// document's, or `doc`'s own on a no-op re-ingest), so a caller
    /// holding a lock can free it after releasing the lock.
    pub(crate) fn insert(
        &mut self,
        name: &str,
        doc: ParsedDoc,
    ) -> Result<(IngestReceipt, Option<Arc<Tree>>)> {
        check_name(name)?;
        let ParsedDoc {
            mut tree,
            fingerprint,
            nodes,
            height,
            known,
            fresh,
        } = doc;
        let receipt = |id, updated| IngestReceipt {
            id,
            fingerprint,
            nodes,
            height,
            updated,
        };
        let existing = self.by_name.get(name).copied();
        if let Some(id) = existing {
            if self.docs[id].fingerprint == fingerprint {
                return Ok((receipt(id, false), Some(Arc::new(tree))));
            }
        }
        let ids: Vec<Symbol> = fresh.iter().map(|n| self.alphabet.intern(n)).collect();
        if ids.iter().enumerate().any(|(i, s)| s.index() != known + i) {
            for v in (0..nodes).map(NodeId::from_index) {
                let label = tree.label(v).index();
                if label >= known {
                    tree.set_label(v, ids[label - known]);
                }
            }
        }
        let stored = StoredDoc {
            name: name.to_string(),
            tree: Arc::new(tree),
            fingerprint,
            nodes,
            height,
        };
        Ok(match existing {
            Some(id) => {
                let replaced = std::mem::replace(&mut self.docs[id], stored);
                (receipt(id, true), Some(replaced.tree))
            }
            None => {
                let id = self.docs.len();
                self.docs.push(stored);
                self.by_name.insert(name.to_string(), id);
                (receipt(id, true), None)
            }
        })
    }

    /// Look a document up by name.
    pub fn get(&self, name: &str) -> Option<&StoredDoc> {
        self.by_name.get(name).map(|&id| &self.docs[id])
    }

    /// The dense id a name was assigned at first ingest (stable across
    /// content replacements; also the document's index in [`docs`]).
    ///
    /// [`docs`]: DocStore::docs
    pub fn id_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// The shared alphabet (usable mutably for query compilation, which
    /// may intern labels documents never carried).
    pub fn alphabet_mut(&mut self) -> &mut Alphabet {
        &mut self.alphabet
    }

    /// The shared alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of resident documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the store holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// All resident documents in ingest order.
    pub fn docs(&self) -> &[StoredDoc] {
        &self.docs
    }
}

fn check_name(name: &str) -> Result<()> {
    if name.is_empty() {
        return Err(Error::parse("doc", "empty document name".to_string()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xml_and_sexpr_of_the_same_tree_fingerprint_identically() {
        let mut store = DocStore::new();
        let a = store
            .ingest("s", "(bibliography (book author title))")
            .unwrap();
        let b = store
            .ingest(
                "x",
                "<bibliography><book><author/><title/></book></bibliography>",
            )
            .unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.id, b.id, "distinct names are distinct documents");
    }

    #[test]
    fn replacing_content_keeps_the_id_and_reports_updated() {
        let mut store = DocStore::new();
        let first = store.ingest("d", "(a b)").unwrap();
        let second = store.ingest("d", "(a b c)").unwrap();
        assert_eq!(first.id, second.id);
        assert!(second.updated);
        assert_ne!(first.fingerprint, second.fingerprint);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get("d").unwrap().nodes, 3);
    }

    #[test]
    fn garbage_is_rejected() {
        let mut store = DocStore::new();
        let sigma = store.alphabet().len();
        assert!(store.ingest("bad", "(unclosed fresh").is_err());
        assert!(store.ingest("bad", "<unclosed><fresh>").is_err());
        assert!(store.ingest("", "(a)").is_err());
        assert!(store.is_empty());
        assert_eq!(store.alphabet().len(), sigma);
    }

    #[test]
    fn inserts_parsed_from_one_snapshot_relabel_in_either_order() {
        let texts = [("x", "(a (x b) x)"), ("y", "<a><y/><b>hi</b></a>")];
        let mut batch = DocStore::new();
        let want: Vec<u64> = texts
            .iter()
            .map(|(name, text)| batch.ingest(name, text).unwrap().fingerprint)
            .collect();
        for order in [[0, 1], [1, 0]] {
            let mut store = DocStore::new();
            store.ingest("seed", "(a b)").unwrap();
            let snapshot = store.alphabet().clone();
            let mut parsed: Vec<Option<ParsedDoc>> = texts
                .iter()
                .map(|(_, text)| Some(DocStore::parse(text, snapshot.clone()).unwrap()))
                .collect();
            for i in order {
                let doc = parsed[i].take().unwrap();
                let (receipt, _) = store.insert(texts[i].0, doc).unwrap();
                assert_eq!(receipt.fingerprint, want[i], "{order:?}");
            }
            let render = |name| to_sexpr(&store.get(name).unwrap().tree, store.alphabet());
            assert_eq!(render("x"), "(a (x b) x)", "{order:?}");
            assert_eq!(render("y"), "(a y (b #pcdata))", "{order:?}");
            assert_eq!(store.alphabet().len(), snapshot.len() + 2);
        }
    }
}
