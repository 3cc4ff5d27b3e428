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
//! Unranked queries are compiled over the first-child/next-sibling (FCNS)
//! encoding (see [`crate::unranked`]). [`PreparedUnary::eval_unranked_with`]
//! runs Figure 6 on that encoding *implicitly*: it walks the unranked tree
//! itself, keeping per node the states of its child chain and of its
//! later-sibling chain and its encoded parent, and never builds the
//! `2n + 1`-node encoded tree or a context for its `n + 1` `nil` leaves.
//! Its top-down pass keeps no context table either: a node's context is
//! the set `G_v ⊆ Q` of *good* states, those under which the context
//! reaches a final root, with
//! `G_root = F` and, for a child in the left (right) slot of an encoded
//! parent `p` whose other child is in state `r` (`l`),
//! `G_c = {q : δ(q, r, e_p) ∈ G_p}` (`{q : δ(l, q, e_p) ∈ G_p}`). `v` is
//! selected iff its marked state lies in `G_v`. Each distinct set gets a
//! dense id and each `(G_p, slot, other state, e_p)` is memoized, so the
//! pass is one memo probe per node plus `|Q|` lookups per distinct key:
//! `O(n + |Q| · keys)`, where the Figure 5 pass costs `O(n · |Q|)`.
//! Selections come back in ascending [`NodeId`] order (document order for
//! parsed documents), and every event names unranked node ids.
//! [`qa_trees::fcns::encode_with_map`] remains for the naive reference,
//! which marks encoded nodes.

use std::collections::HashMap;

use qa_base::Symbol;
use qa_core::ranked::{ops, Dbta};
use qa_obs::{Counter, Machine, NoopObserver, Observer, Series};
use qa_strings::StateId;
use qa_trees::{NodeId, Tree};

use crate::compile_ranked::mark_tree;
use crate::compile_string::ext_symbol;
use crate::unranked::{encoded_alphabet_len, nil_symbol};

/// Naive evaluation: re-run the automaton once per node. `O(n²)`.
pub fn eval_unary_ranked_naive(d: &Dbta, tree: &Tree, sigma: usize) -> Vec<NodeId> {
    tree.nodes()
        .filter(|&v| d.accepts(&mark_tree(tree, v, sigma)))
        .collect()
}

/// The Figure 5 algorithm on the compiled automaton: one bottom-up pass
/// computing the all-unmarked subtree state of every node, one top-down
/// pass computing every node's *context table* (the function "state at `v`
/// ↦ state at the root"), then a per-node verdict. `O(n · |Q|)`.
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

    /// The Figure 6 two-pass algorithm on the *implicit* first-child/
    /// next-sibling encoding of `tree`: the encoded node of `v` has
    /// `left[v]` (the state of `v`'s child chain) and `right[v]` (the
    /// state of the chain of `v`'s later siblings) as its two children,
    /// either one the `nil`-leaf state when the chain is empty. Nothing is
    /// encoded and `nil` leaves get no context. Each selected node `v` in
    /// ascending id order, with its marked state, goes through `pick`.
    ///
    /// It relies on [`Tree`]'s arena order: a node's id is larger than its
    /// parent's and its earlier siblings', so descending ids visit
    /// children first and ascending ids visit parents first.
    ///
    /// The top-down pass carries one good-set id per node (see the module
    /// doc): in ascending id order, a node's set comes from that of its
    /// encoded parent (recorded by the bottom-up pass, and of smaller id)
    /// through the per-run [`GoodSets`] memo, and the verdict tests the
    /// marked state's bit. [`Counter::TableLookups`] counts the lookups
    /// performed: one per child in the bottom-up pass and `|Q|` per memo
    /// miss in the top-down pass (the verdicts count
    /// [`Counter::SelectionChecks`]).
    /// `state_visit` fires once per lookup performed, so a profile is the
    /// same for every run of one query on one document.
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
        mut pick: impl FnMut(NodeId, StateId) -> T,
    ) -> Option<Vec<T>> {
        let d = &self.total;
        obs.record(Series::MachineStates, d.num_states() as u64);
        let nil = self.nil?;
        let enc_sigma = encoded_alphabet_len(self.sigma);
        let unmarked = |v: NodeId| ext_symbol(tree.label(v), 0, enc_sigma);
        let n = tree.num_nodes();
        let step = |obs: &mut O, v: NodeId| {
            obs.count(Counter::Steps, if v == tree.root() { 3 } else { 2 });
            obs.checkpoint().ok()
        };

        // Pass 1 (bottom-up): fold each node's children right to left, and
        // note each child's encoded parent for pass 2: its parent in whose
        // left slot a first child sits, or the previous sibling in whose
        // right slot a later child sits.
        let mut left = vec![nil; n];
        let mut right = vec![nil; n];
        let mut up = vec![Slot::Left(tree.root()); n];
        phase(obs, "bottom-up pass", |obs| {
            for v in (0..n).rev().map(NodeId::from_index) {
                step(obs, v)?;
                let kids = tree.children(v);
                obs.count(Counter::TableLookups, kids.len() as u64);
                let mut chain = nil;
                for (i, &c) in kids.iter().enumerate().rev() {
                    right[c.index()] = chain;
                    up[c.index()] = match i {
                        0 => Slot::Left(v),
                        _ => Slot::Right(kids[i - 1]),
                    };
                    let ext = unmarked(c);
                    chain = d.transition(&[left[c.index()], right[c.index()]], ext)?;
                    obs.state_visit(Machine::Dbtar, chain.index() as u32, ext.index() as u32);
                    if obs.is_enabled() {
                        for from in [left[c.index()], right[c.index()]] {
                            obs.transition_fired(
                                Machine::Dbtar,
                                from.index() as u32,
                                ext.index() as u32,
                                chain.index() as u32,
                            );
                        }
                    }
                }
                left[v.index()] = chain;
            }
            Some(())
        })?;

        // Pass 2 (top-down): good[v] is the id of G_v, the states of v's
        // encoded subtree under which its context reaches a final root,
        // derived from its encoded parent's set, whose id is smaller.
        let mut sets = GoodSets::new(d, enc_sigma);
        let mut good = vec![sets.finals(d); n];
        phase(obs, "top-down pass", |obs| {
            for v in (0..n).map(NodeId::from_index) {
                step(obs, v)?;
                if v == tree.root() {
                    continue;
                }
                let (from, slot) = match up[v.index()] {
                    Slot::Left(p) => (p, Slot::Left(right[p.index()])),
                    Slot::Right(p) => (p, Slot::Right(left[p.index()])),
                };
                good[v.index()] = sets.child(d, obs, good[from.index()], slot, unmarked(from))?;
            }
            Some(())
        })?;

        // Verdicts: replace v's encoded subtree state by its marked variant.
        phase(obs, "verdicts", |obs| {
            let mut out = Vec::new();
            for v in (0..n).map(NodeId::from_index) {
                step(obs, v)?;
                obs.count(Counter::SelectionChecks, 1);
                let ext = ext_symbol(tree.label(v), 1, enc_sigma);
                let Some(q) = d.transition(&[left[v.index()], right[v.index()]], ext) else {
                    continue;
                };
                obs.state_visit(Machine::Dbtar, q.index() as u32, ext.index() as u32);
                if sets.contains(good[v.index()], q) {
                    // certificate: marking v drives the encoded run into
                    // q, and v's context maps that to an accepting root.
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
}

/// The slot a node sits in under its encoded parent: the left one for a
/// first child (under its parent), the right one for a later child (under
/// its previous sibling). Pass 1 records the encoded parent; pass 2 hands
/// [`GoodSets::child`] the state of the parent's other child.
#[derive(Clone, Copy)]
enum Slot<T> {
    Left(T),
    Right(T),
}

/// The sets of good states of one Figure 6 run, each interned under a
/// dense id, and the memo `(G, slot and other child's state, label) → G'`
/// that makes the top-down pass deterministic, the way on-the-fly subset
/// construction memoizes subsets. Built per run, so a [`PreparedUnary`]
/// shared between threads holds no mutable state; it grows with the
/// number of distinct keys met, at most one per encoded edge.
struct GoodSets {
    num_states: usize,
    /// Labels of the encoded alphabet, to pack a memo key.
    enc_sigma: u64,
    /// `u64` words per set, `⌈|Q| / 64⌉`: one layout for every `|Q|`.
    words: usize,
    /// Set `g` is `bits[g·words..][..words]`, bit `q` standing for state `q`.
    bits: Vec<u64>,
    ids: HashMap<Box<[u64]>, u32>,
    memo: Memo,
    /// The set being built on a memo miss.
    scratch: Vec<u64>,
}

impl GoodSets {
    fn new(d: &Dbta, enc_sigma: usize) -> Self {
        let num_states = d.num_states();
        let words = num_states.div_ceil(64);
        GoodSets {
            num_states,
            enc_sigma: enc_sigma as u64,
            words,
            bits: Vec::new(),
            ids: HashMap::new(),
            memo: Memo::new(),
            scratch: vec![0; words],
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
    fn finals(&mut self, d: &Dbta) -> u32 {
        self.scratch.fill(0);
        for q in (0..self.num_states).filter(|&q| d.is_final(StateId::from_index(q))) {
            self.scratch[q / 64] |= 1 << (q % 64);
        }
        self.intern()
    }

    /// The good set of a child in `slot` under an encoded parent with good
    /// set `g` and label `ext`: `{q : δ(q, r, ext) ∈ G}` in the left slot,
    /// `{q : δ(l, q, ext) ∈ G}` in the right one. A memo hit costs no
    /// lookup; a miss performs (and counts) `|Q|` of them. `None` when a
    /// transition is missing.
    #[inline]
    fn child<O: Observer>(
        &mut self,
        d: &Dbta,
        obs: &mut O,
        g: u32,
        slot: Slot<StateId>,
        ext: Symbol,
    ) -> Option<u32> {
        let (other, side) = match slot {
            Slot::Left(r) => (r, 0),
            Slot::Right(l) => (l, 1),
        };
        let ctx = (other.index() as u64 * self.enc_sigma + ext.index() as u64) << 1 | side;
        match self.memo.get(g, ctx) {
            Ok(child) => Some(child),
            Err(at) => {
                let child = self.refine(d, obs, g, slot, ext)?;
                self.memo.insert(at, g, ctx, child);
                Some(child)
            }
        }
    }

    /// A memo miss of [`child`](Self::child): `|Q|` lookups.
    #[cold]
    fn refine<O: Observer>(
        &mut self,
        d: &Dbta,
        obs: &mut O,
        g: u32,
        slot: Slot<StateId>,
        ext: Symbol,
    ) -> Option<u32> {
        obs.count(Counter::TableLookups, self.num_states as u64);
        self.scratch.fill(0);
        for q in 0..self.num_states {
            let pair = match slot {
                Slot::Left(r) => [StateId::from_index(q), r],
                Slot::Right(l) => [l, StateId::from_index(q)],
            };
            let here = d.transition(&pair, ext)?;
            obs.state_visit(Machine::Dbtar, here.index() as u32, ext.index() as u32);
            if self.contains(g, here) {
                self.scratch[q / 64] |= 1 << (q % 64);
            }
        }
        Some(self.intern())
    }
}

/// The memo of [`GoodSets`]: `(g, ctx) → g'` by open addressing with
/// linear probing, in a power-of-two table at most half full. Its keys
/// are dense ids assigned by the run, the automaton and the alphabet's
/// interning order, not values a document picks, so a fixed
/// multiplicative hash serves. (On 14 000-node documents on a 2-vCPU
/// container, a std `HashMap` with SipHash made the top-down pass ~24
/// ns/node, against ~5 ns/node with this table.)
struct Memo {
    /// `(ctx, g, g')`, [`Memo::EMPTY`] in `g'` for a free slot.
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

    /// `g'` for `(g, ctx)`, or the free slot where it belongs.
    #[inline]
    fn get(&self, g: u32, ctx: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = Self::home(g, ctx) & mask;
        loop {
            let (c, h, child) = self.slots[i];
            if child == Self::EMPTY {
                return Err(i);
            }
            if c == ctx && h == g {
                return Ok(child);
            }
            i = (i + 1) & mask;
        }
    }

    /// Store `(g, ctx) → child` in the free slot `at` that `get` returned.
    fn insert(&mut self, at: usize, g: u32, ctx: u64, child: u32) {
        self.slots[at] = (ctx, g, child);
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            let grown = vec![(0, 0, Self::EMPTY); 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            for (ctx, g, child) in old.into_iter().filter(|e| e.2 != Self::EMPTY) {
                if let Err(at) = self.get(g, ctx) {
                    self.slots[at] = (ctx, g, child);
                }
            }
        }
    }

    #[inline]
    fn home(g: u32, ctx: u64) -> usize {
        let mix = (ctx ^ (g as u64).rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
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

/// The Figure 5 two-pass algorithm on an already-total automaton.
///
/// Every node processed counts one `Counter::Steps` and polls
/// [`Observer::checkpoint`]; a budget-enforcing observer (a serving
/// daemon's per-request watchdog) can therefore abort a runaway
/// evaluation early. An aborted evaluation returns an empty selection —
/// the caller distinguishes "nothing selected" from "budget tripped" by
/// inspecting its watchdog.
fn eval_total<O: Observer>(d: &Dbta, tree: &Tree, sigma: usize, obs: &mut O) -> Vec<NodeId> {
    obs.record(Series::MachineStates, d.num_states() as u64);
    let unmarked = |s: Symbol| ext_symbol(s, 0, sigma);
    let marked = |s: Symbol| ext_symbol(s, 1, sigma);

    // Pass 1 (bottom-up): b[v] = state of the unmarked subtree t_v.
    obs.phase_start("bottom-up pass");
    let mut b: Vec<StateId> = vec![StateId::from_index(0); tree.num_nodes()];
    let mut children: Vec<StateId> = Vec::new();
    for v in tree.postorder() {
        obs.count(Counter::Steps, 1);
        if obs.checkpoint().is_err() {
            obs.phase_end("bottom-up pass");
            return Vec::new();
        }
        children.clear();
        children.extend(tree.children(v).iter().map(|c| b[c.index()]));
        obs.count(Counter::TableLookups, 1);
        let ext = unmarked(tree.label(v));
        let Some(q) = d.transition(&children, ext) else {
            // total automaton ⇒ only possible if the tree's rank exceeds
            // the automaton's; nothing is selected then.
            obs.phase_end("bottom-up pass");
            return Vec::new();
        };
        b[v.index()] = q;
        obs.state_visit(Machine::Dbtar, q.index() as u32, ext.index() as u32);
        if obs.is_enabled() {
            for &c in &children {
                obs.transition_fired(
                    Machine::Dbtar,
                    c.index() as u32,
                    ext.index() as u32,
                    q.index() as u32,
                );
            }
        }
    }
    obs.phase_end("bottom-up pass");

    // Pass 2 (top-down): ctx[v·|Q| + q] = root state if v's subtree
    // evaluated to q (everything outside v unmarked).
    obs.phase_start("top-down pass");
    let nq = d.num_states();
    let mut ctx: Vec<StateId> = vec![StateId::from_index(0); tree.num_nodes() * nq];
    let root = tree.root().index() * nq;
    for (q, slot) in ctx[root..root + nq].iter_mut().enumerate() {
        *slot = StateId::from_index(q);
    }
    let mut table: Vec<StateId> = Vec::with_capacity(nq);
    for v in tree.preorder() {
        obs.count(Counter::Steps, 1);
        if obs.checkpoint().is_err() {
            obs.phase_end("top-down pass");
            return Vec::new();
        }
        table.clear();
        table.extend_from_slice(&ctx[v.index() * nq..][..nq]);
        let kids = tree.children(v);
        children.clear();
        children.extend(kids.iter().map(|c| b[c.index()]));
        let ext = unmarked(tree.label(v));
        for (i, &c) in kids.iter().enumerate() {
            for q_idx in 0..nq {
                children[i] = StateId::from_index(q_idx);
                obs.count(Counter::TableLookups, 1);
                let here = d.transition(&children, ext).expect("totalized");
                obs.state_visit(Machine::Dbtar, here.index() as u32, ext.index() as u32);
                ctx[c.index() * nq + q_idx] = table[here.index()];
            }
            children[i] = b[c.index()];
        }
    }
    obs.phase_end("top-down pass");

    // Verdicts: replace v's subtree state by its marked variant.
    obs.phase_start("verdicts");
    let mut out = Vec::new();
    for v in tree.nodes() {
        obs.count(Counter::Steps, 1);
        if obs.checkpoint().is_err() {
            obs.phase_end("verdicts");
            return Vec::new();
        }
        children.clear();
        children.extend(tree.children(v).iter().map(|c| b[c.index()]));
        obs.count(Counter::SelectionChecks, 1);
        let ext = marked(tree.label(v));
        if let Some(q_marked) = d.transition(&children, ext) {
            obs.state_visit(Machine::Dbtar, q_marked.index() as u32, ext.index() as u32);
            let root_state = ctx[v.index() * nq + q_marked.index()];
            if d.is_final(root_state) {
                // certificate: marking v drives the bottom-up run
                // into q_marked, and v's context maps that to an
                // accepting root state.
                obs.config(q_marked.index() as u32, v.index() as u32, 0);
                obs.selected(
                    v.index() as u32,
                    q_marked.index() as u32,
                    tree.label(v).index() as u32,
                );
                out.push(v);
            }
        }
    }
    obs.phase_end("verdicts");
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
