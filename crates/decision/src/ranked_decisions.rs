//! Exact decision procedures for ranked query automata — the Theorem 6.3
//! construction on cut semantics.
//!
//! A subtree's entire interaction with its context is captured by a
//! *summary*: its root label, whether it contains the marked node, whether
//! its root is the marked node, and — per machine under consideration — a
//! *behavior function* mapping each entry state to either `Settles(q',
//! sel)` (the subtree eventually folds back to its root in the up-state
//! `q'`, having visited the marked node in a selecting state iff `sel`) or
//! `Never` (it gets stuck or loops inside). These summaries are exactly
//! the `(f, d, s, σ)` states of the paper's bottom-up automaton `B`,
//! extended with the `Σ × {1}` mark of the query reduction; we enumerate
//! only the *realizable* ones by a lazy fixpoint, keeping a witness tree
//! per summary.
//!
//! Non-emptiness, containment and equivalence all run the same fixpoint —
//! containment simply tracks the behavior of both machines on the shared
//! witness space.

use std::collections::HashMap;

use qa_base::{Error, Result, Symbol};
use qa_core::ranked::twoway::Polarity;
use qa_core::ranked::{RankedQa, Tuples};
use qa_obs::{Counter, Machine, NoopObserver, Observer, Series};
use qa_strings::StateId;
use qa_trees::{NodeId, Tree};

/// Behavior of a subtree on one entry state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Beh {
    /// Folds back to its root in this up-state; `sel` = the marked node was
    /// assumed in a selecting state during the excursion.
    Settles { state: StateId, sel: bool },
    /// Gets stuck or loops inside; the global run can never accept.
    Never,
}

/// A realizable subtree summary for a family of machines.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Key {
    label: Symbol,
    root_marked: bool,
    has_mark: bool,
    /// `behs[machine][entry state]`.
    behs: Vec<Vec<Beh>>,
}

/// A summary with a *derivation* — which children items produced it — so a
/// representative tree can be materialized on demand without storing (and
/// exponentially duplicating) trees during saturation.
#[derive(Clone, Debug)]
struct Item {
    key: Key,
    /// indices of the child items this summary was first derived from
    /// (empty for leaves).
    children_idx: Vec<usize>,
}

/// A witness for a query-level decision: the tree and the node in question.
#[derive(Clone, Debug)]
pub struct RankedWitness {
    /// The input tree.
    pub tree: Tree,
    /// The node selected (by the left automaton, for containment
    /// violations).
    pub node: NodeId,
}

/// Budget for the summary fixpoint (the paper's EXPTIME bound is real:
/// summaries can be exponential in the state count).
pub const DEFAULT_MAX_ITEMS: usize = 50_000;

/// Interned subtree summaries reused across decision calls (the qa-par
/// `BehaviorCache` layer for the §6 fixpoints).
///
/// Summaries are pure functions of `(label, marked, children summaries)`
/// and the machine family, so the cache interns every summary it computes
/// and keys derived summaries by the *ids* of their children: repeated
/// decision calls on the same machines (the common case in batch traffic —
/// the same query checked against many documents' schemas, or the same
/// containment probed under different budgets) skip the behavior-function
/// recomputation entirely. Used by [`non_emptiness_cached`] and
/// [`containment_cached`]; results are identical to the uncached calls.
///
/// The cache records a fingerprint of each machine's enumerable structure
/// (states, polarity, leaf/root/down tables, finals, selection function)
/// and resets itself when handed a different family. Up transitions are not
/// publicly enumerable and are excluded from the fingerprint, so reuse the
/// cache only across calls on the *same* machine values.
#[derive(Debug, Default)]
pub struct SummaryCache {
    /// Interned summary keys by id.
    keys: Vec<Key>,
    /// Leaf summaries: `(label, marked)` → key id.
    leaves: HashMap<(Symbol, bool), u32>,
    /// Derived summaries: `(label, marked, children key ids)` → key id.
    inners: HashMap<(Symbol, bool, Box<[u32]>), u32>,
    /// Fingerprint of the machine family the summaries belong to.
    fingerprint: Option<u64>,
    hits: u64,
    misses: u64,
}

impl SummaryCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct summaries interned so far.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no summaries are interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Lookups answered from the cache since creation (or last [`clear`]).
    ///
    /// [`clear`]: SummaryCache::clear
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to compute a fresh summary.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drop all interned summaries and reset the statistics.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.leaves.clear();
        self.inners.clear();
        self.fingerprint = None;
        self.hits = 0;
        self.misses = 0;
    }

    /// Reset the cache if `machines` differ from the family the interned
    /// summaries were computed for. Called once per decision call.
    fn ensure_family(&mut self, machines: &[&RankedQa]) {
        let fp = family_fingerprint(machines);
        if self.fingerprint != Some(fp) {
            self.clear();
            self.fingerprint = Some(fp);
        }
    }

    fn intern(&mut self, key: &Key) -> u32 {
        let id = self.keys.len() as u32;
        self.keys.push(key.clone());
        id
    }

    /// The leaf summary for `(label, marked)`, interned.
    fn leaf<O: Observer>(
        &mut self,
        machines: &[&RankedQa],
        label: Symbol,
        marked: bool,
        obs: &mut O,
    ) -> (Key, u32) {
        if let Some(&id) = self.leaves.get(&(label, marked)) {
            self.hits += 1;
            obs.count(Counter::CacheHits, 1);
            return (self.keys[id as usize].clone(), id);
        }
        self.misses += 1;
        obs.count(Counter::CacheMisses, 1);
        let key = leaf_item(machines, label, marked).key;
        let id = self.intern(&key);
        self.leaves.insert((label, marked), id);
        (key, id)
    }

    /// The derived summary for `(label, marked, children)`, interned. The
    /// children are given both as cache ids (the lookup key) and as keys
    /// (to compute the summary on a miss).
    fn inner<O: Observer>(
        &mut self,
        machines: &[&RankedQa],
        label: Symbol,
        marked: bool,
        child_ids: &[u32],
        children: &[&Key],
        obs: &mut O,
    ) -> (Key, u32) {
        let lookup = (label, marked, child_ids.into());
        if let Some(&id) = self.inners.get(&lookup) {
            self.hits += 1;
            obs.count(Counter::CacheHits, 1);
            return (self.keys[id as usize].clone(), id);
        }
        self.misses += 1;
        obs.count(Counter::CacheMisses, 1);
        let key = inner_key(machines, label, marked, children);
        let id = self.intern(&key);
        self.inners.insert(lookup, id);
        (key, id)
    }
}

/// Fingerprint of the enumerable structure of a machine family (see
/// [`SummaryCache`] for what is and is not covered).
fn family_fingerprint(machines: &[&RankedQa]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    machines.len().hash(&mut h);
    for qa in machines {
        let m = qa.machine();
        m.num_states().hash(&mut h);
        m.alphabet_len().hash(&mut h);
        m.max_rank().hash(&mut h);
        m.initial().index().hash(&mut h);
        for s in 0..m.num_states() {
            let q = StateId::from_index(s);
            m.is_final(q).hash(&mut h);
            for a in 0..m.alphabet_len() {
                let sym = Symbol::from_index(a);
                qa.is_selecting(q, sym).hash(&mut h);
                (m.polarity(q, sym) == Some(Polarity::Down)).hash(&mut h);
                m.leaf(q, sym).map(|t| t.index()).hash(&mut h);
                m.root(q, sym).map(|t| t.index()).hash(&mut h);
                for n in 1..=m.max_rank() {
                    match m.down(q, sym, n) {
                        None => 0usize.hash(&mut h),
                        Some(states) => {
                            for st in states {
                                (st.index() + 1).hash(&mut h);
                            }
                        }
                    }
                }
            }
        }
    }
    h.finish()
}

fn leaf_item(machines: &[&RankedQa], label: Symbol, marked: bool) -> Item {
    let behs = machines
        .iter()
        .map(|qa| {
            let m = qa.machine();
            (0..m.num_states())
                .map(|q_idx| {
                    let mut cur = StateId::from_index(q_idx);
                    let mut visited = vec![false; m.num_states()];
                    let mut sel = marked && qa.is_selecting(cur, label);
                    loop {
                        if visited[cur.index()] {
                            break Beh::Never;
                        }
                        visited[cur.index()] = true;
                        match m.polarity(cur, label) {
                            Some(Polarity::Up) => {
                                break Beh::Settles { state: cur, sel };
                            }
                            Some(Polarity::Down) => match m.leaf(cur, label) {
                                Some(q2) => {
                                    sel = sel || (marked && qa.is_selecting(q2, label));
                                    cur = q2;
                                }
                                None => break Beh::Never,
                            },
                            None => break Beh::Never,
                        }
                    }
                })
                .collect()
        })
        .collect();
    Item {
        key: Key {
            label,
            root_marked: marked,
            has_mark: marked,
            behs,
        },
        children_idx: Vec::new(),
    }
}

/// Compute the summary key of an inner node from its children's keys only
/// (no witness work — this is the hot path of the fixpoint).
fn inner_key(machines: &[&RankedQa], label: Symbol, marked: bool, children: &[&Key]) -> Key {
    let n = children.len();
    let behs: Vec<Vec<Beh>> = machines
        .iter()
        .enumerate()
        .map(|(mi, qa)| {
            let m = qa.machine();
            (0..m.num_states())
                .map(|q_idx| {
                    let mut cur = StateId::from_index(q_idx);
                    let mut visited = vec![false; m.num_states()];
                    let mut sel = marked && qa.is_selecting(cur, label);
                    loop {
                        if visited[cur.index()] {
                            break Beh::Never;
                        }
                        visited[cur.index()] = true;
                        match m.polarity(cur, label) {
                            Some(Polarity::Up) => {
                                break Beh::Settles { state: cur, sel };
                            }
                            Some(Polarity::Down) => {
                                let Some(down) = m.down(cur, label, n) else {
                                    break Beh::Never;
                                };
                                let down = down.to_vec();
                                let mut pairs = Vec::with_capacity(n);
                                let mut dead = false;
                                for (i, child) in children.iter().enumerate() {
                                    match child.behs[mi][down[i].index()] {
                                        Beh::Settles { state, sel: csel } => {
                                            sel = sel || csel;
                                            pairs.push((state, child.label));
                                        }
                                        Beh::Never => {
                                            dead = true;
                                            break;
                                        }
                                    }
                                }
                                if dead {
                                    break Beh::Never;
                                }
                                match m.up(&pairs) {
                                    Some(q2) => {
                                        sel = sel || (marked && qa.is_selecting(q2, label));
                                        cur = q2;
                                    }
                                    None => break Beh::Never,
                                }
                            }
                            None => break Beh::Never,
                        }
                    }
                })
                .collect()
        })
        .collect();
    Key {
        label,
        root_marked: marked,
        has_mark: marked || children.iter().any(|c| c.has_mark),
        behs,
    }
}

/// Materialize the representative tree of `items[idx]` from the derivation
/// chain, returning the tree and its marked node (if any). Recursion depth
/// equals derivation depth, which the fixpoint keeps modest (items are
/// discovered smallest-derivation-first).
fn materialize(items: &[Item], idx: usize) -> (Tree, Option<NodeId>) {
    let it = &items[idx];
    if it.children_idx.is_empty() {
        let t = Tree::leaf(it.key.label);
        let mark = it.key.root_marked.then(|| t.root());
        return (t, mark);
    }
    let mut subtrees = Vec::with_capacity(it.children_idx.len());
    let mut child_marks = Vec::with_capacity(it.children_idx.len());
    for &c in &it.children_idx {
        let (t, m) = materialize(items, c);
        child_marks.push(m.map(|mk| (t.clone(), mk)));
        subtrees.push(t);
    }
    let tree = Tree::node(it.key.label, subtrees);
    let mark = if it.key.root_marked {
        Some(tree.root())
    } else {
        child_marks.iter().enumerate().find_map(|(i, cm)| {
            cm.as_ref().map(|(small, mk)| {
                find_corresponding(&tree, tree.child(tree.root(), i), small, *mk)
            })
        })
    };
    (tree, mark)
}

/// Find the node in `big` (rooted at `big_root`) corresponding to `node` in
/// `small` under the structural isomorphism of the grafted copy.
fn find_corresponding(big: &Tree, big_root: NodeId, small: &Tree, node: NodeId) -> NodeId {
    // path from small's root to node
    let mut path = Vec::new();
    let mut cur = node;
    while let Some(p) = small.parent(cur) {
        path.push(small.child_index(cur));
        cur = p;
    }
    path.reverse();
    let mut cur = big_root;
    for idx in path {
        cur = big.child(cur, idx);
    }
    cur
}

/// Run the lazy fixpoint, returning all realizable summaries (≤ arity
/// `max_rank`, alphabet of the first machine). When `stop_when` matches a
/// freshly discovered summary, exploration ends early with the items found
/// so far (the matching item last) — this is what makes witness searches
/// fast even when full saturation would be exponential.
fn explore<O: Observer>(
    machines: &[&RankedQa],
    max_items: usize,
    stop_when: Option<&dyn Fn(&Item) -> bool>,
    mut cache: Option<&mut SummaryCache>,
    obs: &mut O,
) -> Result<Vec<Item>> {
    let sigma = machines[0].machine().alphabet_len();
    let rank = machines[0].machine().max_rank();
    for qa in machines {
        assert_eq!(qa.machine().alphabet_len(), sigma, "mismatched alphabets");
    }
    if let Some(c) = cache.as_deref_mut() {
        c.ensure_family(machines);
    }
    let mut items: Vec<Item> = Vec::new();
    // cache key id per item; parallel to `items`, only written with a cache.
    let mut item_cids: Vec<u32> = Vec::new();
    let mut seen: HashMap<Key, usize> = HashMap::new();
    let push = |items: &mut Vec<Item>,
                item_cids: &mut Vec<u32>,
                seen: &mut HashMap<Key, usize>,
                obs: &mut O,
                it: Item,
                cid: u32|
     -> bool {
        if seen.contains_key(&it.key) {
            return false;
        }
        seen.insert(it.key.clone(), items.len());
        items.push(it);
        item_cids.push(cid);
        obs.count(Counter::SummariesExplored, 1);
        obs.count(Counter::BudgetConsumed, 1);
        obs.state_visit(Machine::Decision, (items.len() - 1) as u32, u32::MAX);
        true
    };
    for a in 0..sigma {
        for marked in [false, true] {
            let (it, cid) = match cache.as_deref_mut() {
                Some(c) => {
                    let (key, cid) = c.leaf(machines, Symbol::from_index(a), marked, obs);
                    (
                        Item {
                            key,
                            children_idx: Vec::new(),
                        },
                        cid,
                    )
                }
                None => (leaf_item(machines, Symbol::from_index(a), marked), 0),
            };
            let hit = stop_when.is_some_and(|p| p(&it));
            push(&mut items, &mut item_cids, &mut seen, obs, it, cid);
            if hit {
                return Ok(items);
            }
        }
    }
    // Saturate. Frontier optimization: a tuple all of whose components were
    // known in a previous round has already been processed, so each round
    // only enumerates tuples containing at least one fresh item.
    let mut old_count = 0usize;
    loop {
        if let Err(a) = obs.checkpoint() {
            obs.count(Counter::BudgetTrips, 1);
            return Err(Error::aborted(a.what, a.limit, a.actual));
        }
        obs.count(Counter::FixpointIterations, 1);
        let known = items.len();
        if known > max_items {
            obs.count(Counter::BudgetTrips, 1);
            return Err(Error::FuelExhausted {
                budget: max_items as u64,
            });
        }
        let mut added = false;
        for arity in 1..=rank {
            let mut tuples = Tuples::<usize>::new(arity, known);
            while let Some(tuple) = tuples.next_tuple() {
                let fresh = tuple.iter().any(|&i| i >= old_count);
                let marks_below = tuple.iter().filter(|&&i| items[i].key.has_mark).count();
                if fresh && marks_below <= 1 {
                    for a in 0..sigma {
                        for marked in [false, true] {
                            if marked && marks_below > 0 {
                                continue;
                            }
                            let child_keys: Vec<&Key> =
                                tuple.iter().map(|&i| &items[i].key).collect();
                            let (key, cid) = match cache.as_deref_mut() {
                                Some(c) => {
                                    let child_cids: Vec<u32> =
                                        tuple.iter().map(|&i| item_cids[i]).collect();
                                    c.inner(
                                        machines,
                                        Symbol::from_index(a),
                                        marked,
                                        &child_cids,
                                        &child_keys,
                                        obs,
                                    )
                                }
                                None => (
                                    inner_key(machines, Symbol::from_index(a), marked, &child_keys),
                                    0,
                                ),
                            };
                            if seen.contains_key(&key) {
                                continue;
                            }
                            let it = Item {
                                key,
                                children_idx: tuple.to_vec(),
                            };
                            let hit = stop_when.is_some_and(|p| p(&it));
                            if push(&mut items, &mut item_cids, &mut seen, obs, it, cid) {
                                added = true;
                            }
                            if hit {
                                return Ok(items);
                            }
                            if items.len() > max_items {
                                obs.count(Counter::BudgetTrips, 1);
                                return Err(Error::FuelExhausted {
                                    budget: max_items as u64,
                                });
                            }
                        }
                    }
                }
            }
        }
        old_count = known;
        if !added {
            break;
        }
    }
    Ok(items)
}

/// The global verdict of machine `mi` on a summary: `Some((accepts,
/// mark_selected))`, or `None` when the run never reaches a maximal
/// root-only configuration.
fn root_verdict(qa: &RankedQa, item: &Item, mi: usize) -> Option<(bool, bool)> {
    let m = qa.machine();
    let label = item.key.label;
    let mut cur = m.initial();
    let mut visited = vec![false; m.num_states()];
    let mut sel = false;
    loop {
        match item.key.behs[mi][cur.index()] {
            Beh::Never => return None,
            Beh::Settles { state, sel: s } => {
                sel = sel || s;
                match m.root(state, label) {
                    Some(q2) => {
                        if visited[q2.index()] {
                            return None; // root-transition loop
                        }
                        visited[q2.index()] = true;
                        sel = sel || (item.key.root_marked && qa.is_selecting(q2, label));
                        cur = q2;
                    }
                    None => return Some((m.is_final(state), sel)),
                }
            }
        }
    }
}

/// Non-emptiness (Theorem 6.3, ranked case): is there a tree on which `qa`
/// selects some node? Returns a witness.
pub fn non_emptiness(qa: &RankedQa) -> Result<Option<RankedWitness>> {
    non_emptiness_with_budget(qa, DEFAULT_MAX_ITEMS)
}

/// [`non_emptiness`] with an explicit summary budget.
pub fn non_emptiness_with_budget(qa: &RankedQa, max_items: usize) -> Result<Option<RankedWitness>> {
    non_emptiness_with(qa, max_items, &mut NoopObserver)
}

/// [`non_emptiness_with_budget`] with an [`Observer`]: every summary
/// discovered by the fixpoint is a [`Counter::SummariesExplored`] (and one
/// unit of [`Counter::BudgetConsumed`]), outer rounds are
/// [`Counter::FixpointIterations`], and the witness size (when non-empty)
/// lands in [`Series::WitnessSize`]. With [`NoopObserver`] this
/// monomorphizes to exactly `non_emptiness_with_budget`.
pub fn non_emptiness_with<O: Observer>(
    qa: &RankedQa,
    max_items: usize,
    obs: &mut O,
) -> Result<Option<RankedWitness>> {
    non_emptiness_impl(qa, max_items, None, obs)
}

/// [`non_emptiness_with`] with subtree summaries interned in `cache` (see
/// [`SummaryCache`]): a repeated call on the same machine answers every
/// summary from the cache. Results are identical to the uncached call;
/// cache hits and misses are reported to `obs`.
pub fn non_emptiness_cached<O: Observer>(
    qa: &RankedQa,
    max_items: usize,
    cache: &mut SummaryCache,
    obs: &mut O,
) -> Result<Option<RankedWitness>> {
    non_emptiness_impl(qa, max_items, Some(cache), obs)
}

fn non_emptiness_impl<O: Observer>(
    qa: &RankedQa,
    max_items: usize,
    cache: Option<&mut SummaryCache>,
    obs: &mut O,
) -> Result<Option<RankedWitness>> {
    let hit = |it: &Item| it.key.has_mark && matches!(root_verdict(qa, it, 0), Some((true, true)));
    obs.phase_start("summary fixpoint");
    let items = explore(&[qa], max_items, Some(&hit), cache, obs);
    obs.phase_end("summary fixpoint");
    let items = items?;
    match items.last() {
        Some(it) if hit(it) => {
            obs.phase_start("witness materialization");
            let (tree, mark) = materialize(&items, items.len() - 1);
            obs.record(Series::WitnessSize, tree.num_nodes() as u64);
            obs.phase_end("witness materialization");
            Ok(Some(RankedWitness {
                tree,
                node: mark.expect("has_mark"),
            }))
        }
        _ => Ok(None),
    }
}

/// Containment: `A₁(t) ⊆ A₂(t)` for every ranked tree? `Ok(None)` when
/// contained; `Ok(Some(w))` gives a violation (selected by `A₁`, not `A₂`).
pub fn containment(a1: &RankedQa, a2: &RankedQa) -> Result<Option<RankedWitness>> {
    containment_with_budget(a1, a2, DEFAULT_MAX_ITEMS)
}

/// [`containment`] with an explicit budget.
pub fn containment_with_budget(
    a1: &RankedQa,
    a2: &RankedQa,
    max_items: usize,
) -> Result<Option<RankedWitness>> {
    containment_with(a1, a2, max_items, &mut NoopObserver)
}

/// [`containment_with_budget`] with an [`Observer`] (same event vocabulary
/// as [`non_emptiness_with`]).
pub fn containment_with<O: Observer>(
    a1: &RankedQa,
    a2: &RankedQa,
    max_items: usize,
    obs: &mut O,
) -> Result<Option<RankedWitness>> {
    containment_impl(a1, a2, max_items, None, obs)
}

/// [`containment_with`] with subtree summaries interned in `cache` (see
/// [`SummaryCache`]): repeated calls on the same machine pair answer every
/// summary from the cache. Results are identical to the uncached call.
pub fn containment_cached<O: Observer>(
    a1: &RankedQa,
    a2: &RankedQa,
    max_items: usize,
    cache: &mut SummaryCache,
    obs: &mut O,
) -> Result<Option<RankedWitness>> {
    containment_impl(a1, a2, max_items, Some(cache), obs)
}

fn containment_impl<O: Observer>(
    a1: &RankedQa,
    a2: &RankedQa,
    max_items: usize,
    cache: Option<&mut SummaryCache>,
    obs: &mut O,
) -> Result<Option<RankedWitness>> {
    let hit = |it: &Item| {
        it.key.has_mark
            && matches!(root_verdict(a1, it, 0), Some((true, true)))
            && !matches!(root_verdict(a2, it, 1), Some((true, true)))
    };
    obs.phase_start("summary fixpoint");
    let items = explore(&[a1, a2], max_items, Some(&hit), cache, obs);
    obs.phase_end("summary fixpoint");
    let items = items?;
    match items.last() {
        Some(it) if hit(it) => {
            obs.phase_start("witness materialization");
            let (tree, mark) = materialize(&items, items.len() - 1);
            obs.record(Series::WitnessSize, tree.num_nodes() as u64);
            obs.phase_end("witness materialization");
            Ok(Some(RankedWitness {
                tree,
                node: mark.expect("has_mark"),
            }))
        }
        _ => Ok(None),
    }
}

/// Equivalence: same query? `Ok(None)` when equivalent; otherwise the
/// violation and whether the left side selected it.
pub fn equivalence(a1: &RankedQa, a2: &RankedQa) -> Result<Option<(RankedWitness, bool)>> {
    if let Some(w) = containment(a1, a2)? {
        return Ok(Some((w, true)));
    }
    if let Some(w) = containment(a2, a1)? {
        return Ok(Some((w, false)));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_base::Alphabet;
    use qa_core::ranked::query::example_4_4;
    use qa_core::ranked::RankedQa;

    fn alpha() -> Alphabet {
        Alphabet::from_names(["AND", "OR", "0", "1"])
    }

    #[test]
    fn example_4_4_is_nonempty() {
        let a = alpha();
        let qa = example_4_4(&a);
        let w = non_emptiness(&qa).unwrap().expect("non-empty");
        // verify against the run semantics
        let selected = qa.query(&w.tree).unwrap();
        assert!(selected.contains(&w.node), "{}", w.tree.render(&a));
    }

    #[test]
    fn deselected_automaton_is_empty() {
        let a = alpha();
        let machine = qa_core::ranked::twoway::example_4_2(&a);
        let qa = RankedQa::new(machine); // no selections at all
        assert!(non_emptiness(&qa).unwrap().is_none());
    }

    #[test]
    fn containment_detects_strictness() {
        let a = alpha();
        let full = example_4_4(&a);
        // restricted: only select AND gates evaluating to 1
        let mut restricted = example_4_4(&a);
        let or = a.symbol("OR");
        for i in 0..restricted.machine().num_states() {
            restricted.set_selecting(StateId::from_index(i), or, false);
        }
        assert!(containment(&restricted, &full).unwrap().is_none());
        let w = containment(&full, &restricted).unwrap().expect("violation");
        assert!(full.query(&w.tree).unwrap().contains(&w.node));
        assert!(!restricted.query(&w.tree).unwrap().contains(&w.node));
    }

    #[test]
    fn equivalence_is_reflexive() {
        let a = alpha();
        let qa = example_4_4(&a);
        assert!(equivalence(&qa, &qa.clone()).unwrap().is_none());
    }

    #[test]
    fn fixpoint_agrees_with_bounded_oracle() {
        let a = alpha();
        let qa = example_4_4(&a);
        // brute-force: smallest selected (tree, node) pairs over tiny trees
        let brute = crate::bounded::non_emptiness_bounded(
            &|t| qa.query(t).unwrap_or_default(),
            a.len(),
            2,
            5,
        );
        let exact = non_emptiness(&qa).unwrap();
        assert_eq!(brute.is_some(), exact.is_some());
    }

    #[test]
    fn cached_non_emptiness_matches_and_hits_on_repeat() {
        let a = alpha();
        let qa = example_4_4(&a);
        let plain = non_emptiness(&qa).unwrap().expect("non-empty");
        let mut cache = SummaryCache::new();
        let mut obs = qa_obs::NoopObserver;
        let first = non_emptiness_cached(&qa, DEFAULT_MAX_ITEMS, &mut cache, &mut obs)
            .unwrap()
            .expect("non-empty");
        assert_eq!(plain.tree.render(&a), first.tree.render(&a));
        assert_eq!(plain.node, first.node);
        let misses_after_first = cache.misses();
        let second = non_emptiness_cached(&qa, DEFAULT_MAX_ITEMS, &mut cache, &mut obs)
            .unwrap()
            .expect("non-empty");
        assert_eq!(plain.node, second.node);
        assert_eq!(
            cache.misses(),
            misses_after_first,
            "repeat call computes no new summaries"
        );
        assert!(cache.hits() > 0);
    }

    #[test]
    fn cached_containment_matches_uncached() {
        let a = alpha();
        let full = example_4_4(&a);
        let mut restricted = example_4_4(&a);
        let or = a.symbol("OR");
        for i in 0..restricted.machine().num_states() {
            restricted.set_selecting(StateId::from_index(i), or, false);
        }
        let mut cache = SummaryCache::new();
        let mut obs = qa_obs::NoopObserver;
        assert!(
            containment_cached(&restricted, &full, DEFAULT_MAX_ITEMS, &mut cache, &mut obs)
                .unwrap()
                .is_none()
        );
        // Different machine order = different family: the cache must reset,
        // not reuse the (restricted, full) summaries.
        let w = containment_cached(&full, &restricted, DEFAULT_MAX_ITEMS, &mut cache, &mut obs)
            .unwrap()
            .expect("violation");
        let plain = containment(&full, &restricted).unwrap().expect("violation");
        assert_eq!(w.tree.render(&a), plain.tree.render(&a));
        assert_eq!(w.node, plain.node);
    }

    #[test]
    fn budget_overflow_is_reported() {
        // An empty query can never exit early, so saturation must hit the
        // budget.
        let a = alpha();
        let machine = qa_core::ranked::twoway::example_4_2(&a);
        let qa = RankedQa::new(machine); // selects nothing
        assert!(matches!(
            non_emptiness_with_budget(&qa, 3),
            Err(Error::FuelExhausted { .. })
        ));
    }
}
