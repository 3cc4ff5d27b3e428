//! Unary-query evaluation: naive re-runs vs the Figure 5/6 two-pass
//! algorithm.
//!
//! Given the compiled deterministic automaton `D` over `Σ × {0,1}` for a
//! unary query `φ(x)`, node `v` is selected iff `D` accepts the tree with
//! `v` marked. The naive strategy re-runs `D` per node — `O(n²)`. The
//! paper's Figure 5 (ranked) / Figure 6 (unranked) algorithm computes every
//! node's verdict in one bottom-up pass (subtree states, the
//! `τ(t_v, v)` analogue) and one top-down pass (contexts, the
//! `τ(t̄_v, v)` analogue).
//!
//! Figure 6 is Figure 5 run on the first-child/next-sibling (FCNS)
//! encoding (see [`crate::unranked`]), so the two share one top-down pass
//! and one verdict loop; only their bottom-up passes differ. Each of those
//! hands the shared pass, per node, its parent and its slot there, the
//! tuple of its children's states and its label.
//! [`PreparedUnary::eval_unranked_with`] runs Figure 6 on the encoding
//! *implicitly*: it walks the unranked tree itself, keeping per node the
//! states of its child chain and of its later-sibling chain (the two
//! children of its encoded node) and its encoded parent, and never builds
//! the `2n + 1`-node encoded tree or a context for its `n + 1` `nil`
//! leaves.
//!
//! The top-down pass keeps no context table: a node's context is the set
//! `G_v ⊆ Q` of *good* states, those under which the context reaches a
//! final root, with `G_root = F` and, for the child in slot `i` of a parent
//! `p` labeled `e_p` whose children are in states `q_0 … q_{k-1}`,
//! `G_c = {q : δ(q_0 … q_{i-1} q q_{i+1} … q_{k-1}, e_p) ∈ G_p}`. `v` is
//! selected iff its marked state lies in `G_v`. Each distinct set gets a
//! dense id and each `(G_p, the other children's states, i, k, e_p)` is
//! memoized, so the pass is one memo probe per node plus `|Q|` lookups per
//! distinct key: `O(n + |Q| · keys)` time, with `keys < n`.
//! Selections come back in ascending [`NodeId`] order (document order for
//! parsed documents), and every event names the evaluated tree's node ids.
//! [`qa_trees::fcns::encode_with_map`] remains for the naive reference,
//! which marks encoded nodes.

use std::collections::HashMap;

use qa_base::Symbol;
use qa_core::ranked::{ops, Dbta};
use qa_obs::{Counter, Machine, NoopObserver, Observer, Series};
use qa_strings::StateId;
use qa_trees::{NodeId, Tree};

use crate::compile::ext_symbol;
use crate::compile_ranked::mark_tree;
use crate::unranked::{encoded_alphabet_len, nil_symbol};

/// Naive evaluation: re-run the automaton once per node. `O(n²)`.
pub fn eval_unary_ranked_naive(d: &Dbta, tree: &Tree, sigma: usize) -> Vec<NodeId> {
    tree.nodes()
        .filter(|&v| d.accepts(&mark_tree(tree, v, sigma)))
        .collect()
}

/// The Figure 5 algorithm on the compiled automaton: one bottom-up pass
/// computing the all-unmarked subtree state of every node, one top-down
/// pass computing every node's set of good states (see the module doc),
/// then a per-node verdict. `O(n + |Q| · keys)` after totalizing `d`.
pub fn eval_unary_ranked(d: &Dbta, tree: &Tree, sigma: usize) -> Vec<NodeId> {
    eval_unary_ranked_with(d, tree, sigma, &mut NoopObserver)
}

/// [`eval_unary_ranked`] with an [`Observer`]: the two passes and the
/// verdict scan run as named phases, every deterministic transition lookup
/// is a [`Counter::TableLookups`], and the machine's (totalized) state
/// count lands in [`Series::MachineStates`]. With [`NoopObserver`] this
/// monomorphizes to exactly `eval_unary_ranked`.
pub fn eval_unary_ranked_with<O: Observer>(
    d: &Dbta,
    tree: &Tree,
    sigma: usize,
    obs: &mut O,
) -> Vec<NodeId> {
    eval_total(&ops::totalize(d), tree, sigma, obs)
}

/// A unary query prepared for batch evaluation: the compiled automaton is
/// totalized **once** instead of per document. `eval_unary_ranked` pays the
/// `O(|Q|^rank · |Σ×{0,1}|)` totalization (one slot per child-state tuple
/// and label) on every call; across a 10k document batch that fixed cost
/// dominates small-tree evaluation, so batch drivers (qa-par, qa-fleet)
/// evaluate through a `PreparedUnary`.
#[derive(Clone, Debug)]
pub struct PreparedUnary {
    total: Dbta,
    sigma: usize,
    /// The state of a `nil` leaf of the first-child/next-sibling encoding
    /// (`None` if the automaton has no such leaf transition).
    nil: Option<StateId>,
}

impl PreparedUnary {
    /// Prepare `d` (compiled over `Σ × {0,1}` for a base alphabet of
    /// `sigma` symbols) by totalizing it now.
    pub fn new(d: &Dbta, sigma: usize) -> Self {
        let total = ops::totalize(d);
        let nil = ext_symbol(nil_symbol(sigma), 0, encoded_alphabet_len(sigma));
        PreparedUnary {
            nil: total.transition(&[], nil),
            total,
            sigma,
        }
    }

    /// Base alphabet size the query was compiled over.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// [`eval_unary_ranked`] against the pre-totalized automaton.
    pub fn eval_ranked(&self, tree: &Tree) -> Vec<NodeId> {
        self.eval_ranked_with(tree, &mut NoopObserver)
    }

    /// [`eval_unary_ranked_with`] against the pre-totalized automaton.
    pub fn eval_ranked_with<O: Observer>(&self, tree: &Tree, obs: &mut O) -> Vec<NodeId> {
        eval_total(&self.total, tree, self.sigma, obs)
    }

    /// [`eval_unary_unranked`] against the pre-totalized automaton.
    pub fn eval_unranked(&self, tree: &Tree) -> Vec<NodeId> {
        self.eval_unranked_with(tree, &mut NoopObserver)
    }

    /// [`eval_unary_unranked_with`] against the pre-totalized automaton.
    pub fn eval_unranked_with<O: Observer>(&self, tree: &Tree, obs: &mut O) -> Vec<NodeId> {
        self.fig6(tree, obs, |v, _| v).unwrap_or_default()
    }

    /// Like [`eval_unranked_with`](Self::eval_unranked_with), but pairs
    /// every selected node with its Figure 6 certificate: the state the
    /// bottom-up run reaches on the *marked* node, whose context maps it
    /// to an accepting root. The same run yields both, so the node list
    /// (and its order) is identical to `eval_unranked_with`. A serving
    /// daemon uses this for `why_selected` provenance.
    pub fn eval_unranked_explained<O: Observer>(
        &self,
        tree: &Tree,
        obs: &mut O,
    ) -> Vec<(NodeId, u32)> {
        self.fig6(tree, obs, |v, q| (v, q.index() as u32))
            .unwrap_or_default()
    }

    /// The Figure 6 bottom-up pass on the *implicit* first-child/
    /// next-sibling encoding of `tree`, then [`top_down`]: the encoded node
    /// of `v` has `[left, right]` as its child tuple, `left` the state of
    /// `v`'s child chain and `right` that of the chain of `v`'s later
    /// siblings, either one the `nil`-leaf state when the chain is empty.
    /// Nothing is encoded and `nil` leaves get no context. Each selected
    /// node `v` in ascending id order, with its marked state, goes through
    /// `pick`.
    ///
    /// The pass folds each node's children right to left and counts one
    /// [`Counter::TableLookups`] per child; `state_visit` fires once per
    /// lookup performed, so a profile is the same for every run of one
    /// query on one document. Each child's encoded parent is its parent
    /// (left slot) if it is a first child and its previous sibling (right
    /// slot) otherwise.
    ///
    /// Each pass counts `2` [`Counter::Steps`] per node and `1` more at
    /// the root, then polls [`Observer::checkpoint`]: a node stands for
    /// itself and the `nil` leaf closing its child chain (its own left
    /// `nil` if it is a leaf, its last child's right `nil` otherwise); the
    /// root also for its own right `nil`. That is the `2n + 1` nodes of
    /// the encoding per pass, so budgets read as for the encoded run.
    /// `None` when a budget trips or a transition is missing.
    fn fig6<O: Observer, T>(
        &self,
        tree: &Tree,
        obs: &mut O,
        pick: impl FnMut(NodeId, StateId) -> T,
    ) -> Option<Vec<T>> {
        let d = &self.total;
        obs.record(Series::MachineStates, d.num_states() as u64);
        let nil = self.nil?;
        let enc_sigma = encoded_alphabet_len(self.sigma);
        let n = tree.num_nodes();
        let weight = |v: NodeId| if v == tree.root() { 3 } else { 2 };

        let mut kids = vec![[nil; 2]; n];
        let mut up = vec![(tree.root(), 0); n];
        phase(obs, "bottom-up pass", |obs| {
            for v in (0..n).rev().map(NodeId::from_index) {
                step(obs, weight(v))?;
                let children = tree.children(v);
                obs.count(Counter::TableLookups, children.len() as u64);
                let mut chain = nil;
                for (i, &c) in children.iter().enumerate().rev() {
                    kids[c.index()][1] = chain;
                    up[c.index()] = match i {
                        0 => (v, 0),
                        _ => (children[i - 1], 1),
                    };
                    let ext = ext_symbol(tree.label(c), 0, enc_sigma);
                    chain = d.transition(&kids[c.index()], ext)?;
                    fired(obs, &kids[c.index()], ext, chain);
                }
                kids[v.index()][0] = chain;
            }
            Some(())
        })?;
        let sets = GoodSets::new(d, enc_sigma);
        top_down(sets, tree, obs, weight, &up, |v| &kids[v.index()], pick)
    }
}

/// The Figure 5 bottom-up pass on an already-total automaton of rank `m`,
/// then [`top_down`]: node `v`'s child tuple is `kids[v·m..][..arity(v)]`,
/// and each child's parent and slot are its tree parent and child index.
///
/// Each pass counts one [`Counter::Steps`] per node and polls
/// [`Observer::checkpoint`]; a budget-enforcing observer (a serving
/// daemon's per-request watchdog) can therefore abort a runaway
/// evaluation early. An aborted evaluation returns an empty selection —
/// the caller distinguishes "nothing selected" from "budget tripped" by
/// inspecting its watchdog. A tree of higher rank than the automaton
/// selects nothing either.
fn eval_total<O: Observer>(d: &Dbta, tree: &Tree, sigma: usize, obs: &mut O) -> Vec<NodeId> {
    obs.record(Series::MachineStates, d.num_states() as u64);
    let (n, m) = (tree.num_nodes(), d.max_rank());
    let mut state = vec![StateId::from_index(0); n];
    let mut kids = vec![StateId::from_index(0); n * m];
    let mut up = vec![(tree.root(), 0); n];
    let tuple = |v: NodeId| v.index() * m..v.index() * m + tree.arity(v);
    phase(obs, "bottom-up pass", |obs| {
        for v in (0..n).rev().map(NodeId::from_index) {
            step(obs, 1)?;
            obs.count(Counter::TableLookups, 1);
            // a row longer than the rank fails here or in the lookup
            let row = kids.get_mut(tuple(v))?;
            for ((i, &c), q) in tree.children(v).iter().enumerate().zip(row.iter_mut()) {
                up[c.index()] = (v, i as u32);
                *q = state[c.index()];
            }
            let ext = ext_symbol(tree.label(v), 0, sigma);
            state[v.index()] = d.transition(row, ext)?;
            fired(obs, row, ext, state[v.index()]);
        }
        Some(())
    })
    .and_then(|()| {
        let sets = GoodSets::new(d, sigma);
        top_down(sets, tree, obs, |_| 1, &up, |v| &kids[tuple(v)], |v, _| v)
    })
    .unwrap_or_default()
}

/// Count `weight` [`Counter::Steps`] and poll the budget.
#[inline]
fn step<O: Observer>(obs: &mut O, weight: u64) -> Option<()> {
    obs.count(Counter::Steps, weight);
    obs.checkpoint().ok()
}

/// Report a bottom-up transition `δ(kids, ext) = q`: a `state_visit` of
/// `q`, and one `transition_fired` per child when the observer listens.
#[inline]
fn fired<O: Observer>(obs: &mut O, kids: &[StateId], ext: Symbol, q: StateId) {
    obs.state_visit(Machine::Dbtar, q.index() as u32, ext.index() as u32);
    if obs.is_enabled() {
        for from in kids {
            obs.transition_fired(
                Machine::Dbtar,
                from.index() as u32,
                ext.index() as u32,
                q.index() as u32,
            );
        }
    }
}

/// The top-down pass and the verdicts of Figures 5 and 6, over the tuples
/// a bottom-up pass left: `up[v]` is `v`'s parent and slot (unused at the
/// root) and `kids(v)` the states of `v`'s children. In ascending id
/// order, a node's good set comes from that of its parent (of smaller id)
/// through the [`GoodSets`] memo; the verdict then replaces `v`'s state by
/// its marked variant `δ(kids(v), marked e_v)` and tests its bit. Each
/// node counts `weight(v)` [`Counter::Steps`] per pass and polls the
/// budget; each verdict counts a [`Counter::SelectionChecks`]. Each
/// selected node, with its marked state, goes through `pick`.
fn top_down<'k, O: Observer, T>(
    mut sets: GoodSets<'_>,
    tree: &Tree,
    obs: &mut O,
    weight: impl Fn(NodeId) -> u64,
    up: &[(NodeId, u32)],
    kids: impl Fn(NodeId) -> &'k [StateId],
    mut pick: impl FnMut(NodeId, StateId) -> T,
) -> Option<Vec<T>> {
    let n = tree.num_nodes();
    let mut good = vec![sets.finals(); n];
    phase(obs, "top-down pass", |obs| {
        for v in (0..n).map(NodeId::from_index) {
            step(obs, weight(v))?;
            if v == tree.root() {
                continue;
            }
            let (p, hole) = up[v.index()];
            let ext = ext_symbol(tree.label(p), 0, sets.alpha);
            good[v.index()] = sets.child(obs, good[p.index()], kids(p), hole as usize, ext)?;
        }
        Some(())
    })?;
    phase(obs, "verdicts", |obs| {
        let mut out = Vec::new();
        for v in (0..n).map(NodeId::from_index) {
            step(obs, weight(v))?;
            obs.count(Counter::SelectionChecks, 1);
            let ext = ext_symbol(tree.label(v), 1, sets.alpha);
            let Some(q) = sets.d.transition(kids(v), ext) else {
                continue;
            };
            obs.state_visit(Machine::Dbtar, q.index() as u32, ext.index() as u32);
            if sets.contains(good[v.index()], q) {
                // certificate: marking v drives the bottom-up run into q,
                // and v's context maps that to an accepting root.
                obs.config(q.index() as u32, v.index() as u32, 0);
                obs.selected(
                    v.index() as u32,
                    q.index() as u32,
                    tree.label(v).index() as u32,
                );
                out.push(pick(v, q));
            }
        }
        Some(out)
    })
}

/// The sets of good states of one run, each interned under a dense id, and
/// the memo `(G, the parent's other children's states, slot, arity, label)
/// → G'` that makes the top-down pass deterministic, the way on-the-fly
/// subset construction memoizes subsets. Built per run, so a
/// [`PreparedUnary`] shared between threads holds no mutable state; it
/// grows with the number of distinct keys met, at most one per edge.
struct GoodSets<'d> {
    d: &'d Dbta,
    /// Labels of the (marked) alphabet the run reads.
    alpha: usize,
    /// `|Q|^i` for every slot `i`, to take a slot's digit out of a row.
    pow: Vec<u64>,
    /// `u64` words per set, `⌈|Q| / 64⌉`: one layout for every `|Q|`.
    words: usize,
    /// Set `g` is `bits[g·words..][..words]`, bit `q` standing for state `q`.
    bits: Vec<u64>,
    ids: HashMap<Box<[u64]>, u32>,
    memo: Memo,
    /// The set and the child tuple being built on a memo miss.
    scratch: Vec<u64>,
    tuple: Vec<StateId>,
}

impl<'d> GoodSets<'d> {
    fn new(d: &'d Dbta, alpha: usize) -> Self {
        let words = d.num_states().div_ceil(64);
        let nq = d.num_states() as u64;
        GoodSets {
            d,
            alpha,
            pow: std::iter::successors(Some(1), |p| Some(p * nq))
                .take(d.max_rank())
                .collect(),
            words,
            bits: Vec::new(),
            ids: HashMap::new(),
            memo: Memo::new(),
            scratch: vec![0; words],
            tuple: Vec::new(),
        }
    }

    #[inline]
    fn contains(&self, g: u32, q: StateId) -> bool {
        let q = q.index();
        self.bits[g as usize * self.words + q / 64] >> (q % 64) & 1 == 1
    }

    /// The id of the set in `scratch`, interning it if it is new.
    fn intern(&mut self) -> u32 {
        if let Some(&g) = self.ids.get(&self.scratch[..]) {
            return g;
        }
        let g = self.ids.len() as u32;
        self.bits.extend_from_slice(&self.scratch);
        self.ids.insert(self.scratch.clone().into_boxed_slice(), g);
        g
    }

    /// `G_root = F`.
    fn finals(&mut self) -> u32 {
        self.scratch.fill(0);
        for q in 0..self.d.num_states() {
            if self.d.is_final(StateId::from_index(q)) {
                self.scratch[q / 64] |= 1 << (q % 64);
            }
        }
        self.intern()
    }

    /// The good set of the child in slot `hole` of a parent with good set
    /// `g`, child tuple `tuple` and label `ext`: `{q : δ(tuple[hole ↦ q],
    /// ext) ∈ G}`. The memo key packs the tuple in base `|Q|` with the
    /// hole's digit subtracted, so it is computed without a branch per
    /// slot; with the slot, the arity and the label it stays below
    /// `(rank + 1)²` times the size of the materialized total table, and
    /// so fits in a `u64`. A memo hit costs no lookup; a miss performs
    /// (and counts) `|Q|` of them. `None` when a transition is missing.
    #[inline]
    fn child<O: Observer>(
        &mut self,
        obs: &mut O,
        g: u32,
        tuple: &[StateId],
        hole: usize,
        ext: Symbol,
    ) -> Option<u32> {
        let nq = self.d.num_states() as u64;
        let row = tuple.iter().rev().fold(0, |r, q| r * nq + q.index() as u64);
        let row = row - tuple[hole].index() as u64 * self.pow[hole];
        let arities = self.pow.len() as u64 + 1;
        let key = ((row * arities + hole as u64) * arities + tuple.len() as u64)
            * self.alpha as u64
            + ext.index() as u64;
        match self.memo.get(g, key) {
            Ok(child) => Some(child),
            Err(at) => {
                let child = self.refine(obs, g, tuple, hole, ext)?;
                self.memo.insert(at, g, key, child);
                Some(child)
            }
        }
    }

    /// A memo miss of [`child`](Self::child): `|Q|` lookups.
    #[cold]
    fn refine<O: Observer>(
        &mut self,
        obs: &mut O,
        g: u32,
        tuple: &[StateId],
        hole: usize,
        ext: Symbol,
    ) -> Option<u32> {
        obs.count(Counter::TableLookups, self.d.num_states() as u64);
        self.scratch.fill(0);
        self.tuple.clear();
        self.tuple.extend_from_slice(tuple);
        for q in 0..self.d.num_states() {
            self.tuple[hole] = StateId::from_index(q);
            let here = self.d.transition(&self.tuple, ext)?;
            obs.state_visit(Machine::Dbtar, here.index() as u32, ext.index() as u32);
            if self.contains(g, here) {
                self.scratch[q / 64] |= 1 << (q % 64);
            }
        }
        Some(self.intern())
    }
}

/// The memo of [`GoodSets`]: `(g, key) → g'` by open addressing with
/// linear probing, in a power-of-two table at most half full. Its keys
/// are dense ids assigned by the run, the automaton and the alphabet's
/// interning order, not values a document picks, so a fixed
/// multiplicative hash serves. (On 14 000-node documents on a 2-vCPU
/// container, a std `HashMap` with SipHash made the top-down pass ~24
/// ns/node, against ~5 ns/node with this table.)
struct Memo {
    /// `(key, g, g')`, [`Memo::EMPTY`] in `g'` for a free slot.
    slots: Vec<(u64, u32, u32)>,
    len: usize,
}

impl Memo {
    const EMPTY: u32 = u32::MAX;

    fn new() -> Self {
        Memo {
            slots: vec![(0, 0, Self::EMPTY); 64],
            len: 0,
        }
    }

    /// `g'` for `(g, key)`, or the free slot where it belongs.
    #[inline]
    fn get(&self, g: u32, key: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = Self::home(g, key) & mask;
        loop {
            let (c, h, child) = self.slots[i];
            if child == Self::EMPTY {
                return Err(i);
            }
            if c == key && h == g {
                return Ok(child);
            }
            i = (i + 1) & mask;
        }
    }

    /// Store `(g, key) → child` in the free slot `at` that `get` returned.
    fn insert(&mut self, at: usize, g: u32, key: u64, child: u32) {
        self.slots[at] = (key, g, child);
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            let grown = vec![(0, 0, Self::EMPTY); 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            for (key, g, child) in old.into_iter().filter(|e| e.2 != Self::EMPTY) {
                if let Err(at) = self.get(g, key) {
                    self.slots[at] = (key, g, child);
                }
            }
        }
    }

    #[inline]
    fn home(g: u32, key: u64) -> usize {
        let mix = (key ^ (g as u64).rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (mix >> 32) as usize
    }
}

/// Run `body` as the phase `name`, closing the phase on every exit.
fn phase<O: Observer, T>(
    obs: &mut O,
    name: &'static str,
    body: impl FnOnce(&mut O) -> Option<T>,
) -> Option<T> {
    obs.phase_start(name);
    let out = body(obs);
    obs.phase_end(name);
    out
}

/// Figure 6 for unranked trees: the two passes on the implicit
/// first-child/next-sibling encoding (see [`PreparedUnary`]).
pub fn eval_unary_unranked(d: &Dbta, tree: &Tree, sigma: usize) -> Vec<NodeId> {
    eval_unary_unranked_with(d, tree, sigma, &mut NoopObserver)
}

/// [`eval_unary_unranked`] with an [`Observer`]: totalizes `d`, then runs
/// [`PreparedUnary::eval_unranked_with`].
pub fn eval_unary_unranked_with<O: Observer>(
    d: &Dbta,
    tree: &Tree,
    sigma: usize,
    obs: &mut O,
) -> Vec<NodeId> {
    PreparedUnary::new(d, sigma).eval_unranked_with(tree, obs)
}

/// Naive per-node evaluation for unranked trees. `O(n²)`.
pub fn eval_unary_unranked_naive(d: &Dbta, tree: &Tree, sigma: usize) -> Vec<NodeId> {
    tree.nodes()
        .filter(|&v| crate::unranked::selects_unranked(d, tree, v, sigma))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::{compile_ranked, unranked};
    use qa_base::rng::StdRng;
    use qa_base::Alphabet;

    #[test]
    fn two_pass_matches_naive_on_ranked_trees() {
        let mut a = Alphabet::from_names(["s", "t"]);
        let f = parse("leaf(v) & (ex r. (root(r) & label(r, s)))", &mut a).unwrap();
        let d = compile_ranked::compile_unary(&f, "v", 2, 2).unwrap();
        let labels = [a.symbol("s"), a.symbol("t")];
        let mut rng = StdRng::seed_from_u64(23);
        for n in [1usize, 3, 7, 15, 40] {
            let t = qa_trees::generate::random(&mut rng, &labels, n, Some(2));
            let mut fast = eval_unary_ranked(&d, &t, 2);
            let mut naive = eval_unary_ranked_naive(&d, &t, 2);
            fast.sort_unstable();
            naive.sort_unstable();
            assert_eq!(fast, naive, "{}", t.render(&a));
        }
    }

    #[test]
    fn two_pass_matches_naive_on_unranked_trees() {
        let mut a = Alphabet::from_names(["0", "1"]);
        let src = "label(v, 1) & leaf(v) & !(ex w. (w < v & label(w, 1)))";
        let f = parse(src, &mut a).unwrap();
        let d = unranked::compile_unary(&f, "v", 2).unwrap();
        let labels = [a.symbol("0"), a.symbol("1")];
        let mut rng = StdRng::seed_from_u64(29);
        for n in [1usize, 4, 9, 20] {
            let t = qa_trees::generate::random(&mut rng, &labels, n, None);
            let mut fast = eval_unary_unranked(&d, &t, 2);
            let mut naive = eval_unary_unranked_naive(&d, &t, 2);
            fast.sort_unstable();
            naive.sort_unstable();
            assert_eq!(fast, naive, "{}", t.render(&a));
        }
    }

    #[test]
    fn prepared_matches_per_call_evaluation() {
        let mut a = Alphabet::from_names(["s", "t"]);
        let f = parse("leaf(v) & (ex r. (root(r) & label(r, s)))", &mut a).unwrap();
        let d = compile_ranked::compile_unary(&f, "v", 2, 2).unwrap();
        let prepared = PreparedUnary::new(&d, 2);
        let labels = [a.symbol("s"), a.symbol("t")];
        let mut rng = StdRng::seed_from_u64(41);
        for n in [1usize, 5, 17, 33] {
            let t = qa_trees::generate::random(&mut rng, &labels, n, Some(2));
            assert_eq!(prepared.eval_ranked(&t), eval_unary_ranked(&d, &t, 2));
        }

        let mut a2 = Alphabet::from_names(["0", "1"]);
        let src = "label(v, 1) & leaf(v) & !(ex w. (w < v & label(w, 1)))";
        let f2 = parse(src, &mut a2).unwrap();
        let d2 = unranked::compile_unary(&f2, "v", 2).unwrap();
        let prepared2 = PreparedUnary::new(&d2, 2);
        let labels2 = [a2.symbol("0"), a2.symbol("1")];
        for n in [1usize, 6, 14] {
            let t = qa_trees::generate::random(&mut rng, &labels2, n, None);
            assert_eq!(prepared2.eval_unranked(&t), eval_unary_unranked(&d2, &t, 2));
        }
    }

    #[test]
    fn two_pass_scales_to_large_trees() {
        // the point of Figure 5: linear evaluation; run on a tree far beyond
        // naive's comfort zone.
        let mut a = Alphabet::from_names(["s", "t"]);
        let f = parse("leaf(v) & (ex r. (root(r) & label(r, s)))", &mut a).unwrap();
        let d = compile_ranked::compile_unary(&f, "v", 2, 2).unwrap();
        let t = qa_trees::generate::complete(a.symbol("s"), 2, 12); // 8191 nodes
        let selected = eval_unary_ranked(&d, &t, 2);
        assert_eq!(selected.len(), 4096, "all leaves selected");
    }
}
