//! Runs on cuts: the configuration semantics that two-way ranked
//! (Definition 4.1, after Moriya) and unranked (Definitions 5.7 and 5.11)
//! tree automata share.
//!
//! A configuration is a cut of the tree with a state at each member. A
//! member in a down state hands a state to each child (`δ↓`) or, at a
//! leaf, changes state in place (`δ_leaf`); the root alone in the cut
//! changes state in place (`δ_root`); and a node whose children all hold up
//! pairs folds them into itself (`δ↑`) or, unranked only, reassigns them
//! with a stay transition. The families differ only in how `δ↓` and the
//! fold are given, which is what [`CutRules`] supplies: [`run`] is the
//! worklist engine and [`run_scheduled`] the naive reference both run.

use std::collections::VecDeque;

use qa_base::{Error, Result, Symbol};
use qa_obs::{Counter, Machine, Observer, Series};
use qa_strings::StateId;
use qa_trees::{NodeId, Tree};
use qa_twoway::AssumedSets;

use crate::ranked::twoway::Polarity;

/// The transitions of one `(state, label)` pair: one slot of a [`Table`].
/// `down` is the ranked machine's defined `δ↓` tuples (one per arity) or
/// the unranked machine's `L↓`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Cell<D> {
    /// `None`: the pair is in neither `U` nor `D`.
    pub(crate) polarity: Option<Polarity>,
    pub(crate) leaf: Option<StateId>,
    pub(crate) root: Option<StateId>,
    pub(crate) down: D,
}

/// The states and per-pair transitions both two-way machines keep.
#[derive(Clone, Debug)]
pub(crate) struct Table<D> {
    pub(crate) alphabet_len: usize,
    pub(crate) num_states: usize,
    pub(crate) initial: StateId,
    pub(crate) finals: Vec<bool>,
    /// `cells[state · |Σ| + label]`, grown by `|Σ|` slots per added state.
    pub(crate) cells: Vec<Cell<D>>,
}

impl<D: Clone + Default> Table<D> {
    pub(crate) fn new(alphabet_len: usize) -> Self {
        Table {
            alphabet_len,
            num_states: 0,
            initial: StateId::from_index(0),
            finals: Vec::new(),
            cells: Vec::new(),
        }
    }

    pub(crate) fn add_state(&mut self) -> StateId {
        let id = StateId::from_index(self.num_states);
        self.num_states += 1;
        self.finals.push(false);
        self.cells
            .resize(self.cells.len() + self.alphabet_len, Cell::default());
        id
    }

    pub(crate) fn cell_mut(&mut self, state: StateId, label: Symbol) -> &mut Cell<D> {
        &mut self.cells[state.index() * self.alphabet_len + label.index()]
    }

    pub(crate) fn set_polarity_all(&mut self, state: StateId, p: Polarity) {
        let sigma = self.alphabet_len;
        for cell in &mut self.cells[state.index() * sigma..][..sigma] {
            cell.polarity = Some(p);
        }
    }
}

impl<D> Table<D> {
    #[inline]
    pub(crate) fn cell(&self, state: StateId, label: Symbol) -> &Cell<D> {
        &self.cells[state.index() * self.alphabet_len + label.index()]
    }

    /// Every cell with its pair, state-major.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (StateId, Symbol, &Cell<D>)> {
        let sigma = self.alphabet_len;
        self.cells.iter().enumerate().map(move |(i, c)| {
            (
                StateId::from_index(i / sigma),
                Symbol::from_index(i % sigma),
                c,
            )
        })
    }

    /// Generous but finite run fuel for `tree`, so genuine loops surface as
    /// [`Error::FuelExhausted`] rather than hangs.
    pub(crate) fn default_fuel(&self, tree: &Tree) -> u64 {
        64 * (self.num_states as u64) * (tree.num_nodes() as u64) + 1024
    }

    /// Whether a maximal cut accepts: the root alone, in a final state.
    fn accepts(&self, state: &[Option<StateId>], root: NodeId) -> bool {
        state[root.index()].is_some_and(|q| self.finals[q.index()])
            && state.iter().filter(|s| s.is_some()).count() == 1
    }
}

/// What a node whose children all hold up pairs does with them.
#[derive(Debug)]
pub(crate) enum Fold<S> {
    /// Fold the children into this state at the parent (`δ↑`, `L↑`).
    Up(StateId),
    /// Reassign the children these states, one per child (`δ_stay`).
    Stay(S),
    /// Neither applies.
    Stuck,
}

impl<S> Fold<S> {
    pub(crate) fn map<T>(self, f: impl FnOnce(S) -> T) -> Fold<T> {
        match self {
            Fold::Up(q) => Fold::Up(q),
            Fold::Stay(s) => Fold::Stay(f(s)),
            Fold::Stuck => Fold::Stuck,
        }
    }
}

/// What a family of two-way tree automata gives the cut runs: its table,
/// how `δ↓` names the children's states, and how the children's
/// `(state, label)` string folds.
pub(crate) trait CutRules {
    /// The tag of the run's profile events.
    const MACHINE: Machine;
    /// The `down` part of a [`Cell`].
    type Down;
    /// What one worklist run keeps for its folds.
    type Folds<'r>;

    fn table(&self) -> &Table<Self::Down>;

    /// `δ↓(state, label)` at a node of `arity` children: their states, in
    /// order, if the transition is defined for that arity.
    fn down_states(
        &self,
        state: StateId,
        label: Symbol,
        arity: usize,
    ) -> Option<impl Iterator<Item = StateId> + '_>;

    /// The worklist's fold at `v`, whose children hold `pairs`; a stay
    /// counts against `v`'s budget.
    fn fold<'f, O: Observer>(
        &self,
        folds: &'f mut Self::Folds<'_>,
        v: NodeId,
        pairs: &[(StateId, Symbol)],
        obs: &mut O,
    ) -> Result<Fold<&'f [StateId]>>;

    /// The scheduled reference's fold, uncached, at a node that has taken
    /// `stays` stay transitions.
    fn fold_at(&self, pairs: &[(StateId, Symbol)], stays: u32) -> Result<Fold<Vec<StateId>>>;
}

/// A maximal run's verdict, `Assumed` sets and step count.
pub(crate) type Outcome = (bool, AssumedSets, u64);

/// Report `from --label--> to` as a fired transition of `M`.
#[inline]
fn fired<M: CutRules, O: Observer>(obs: &mut O, from: u32, label: Symbol, to: StateId) {
    obs.transition_fired(M::MACHINE, from, label.index() as u32, to.index() as u32);
}

/// Run `m` on `tree` to a maximal configuration with a worklist engine:
/// after a transition fires only the affected nodes are re-examined, so a
/// run costs O(steps + nodes) instead of a full rescan per step.
/// Confluence makes the result that of any schedule of [`run_scheduled`].
///
/// Each node examination is a [`Counter::CutRecomputations`] and counts as
/// a step against the fuel; each fired transition is a [`Counter::Steps`]
/// and each state assignment a configuration event (dir +1 for `δ↓`
/// hand-offs, −1 for folds into the parent, 0 in place). `note(v, q)` is
/// called the first time node `v` assumes state `q`.
pub(crate) fn run<M: CutRules, O: Observer>(
    m: &M,
    tree: &Tree,
    folds: &mut M::Folds<'_>,
    obs: &mut O,
    mut note: impl FnMut(NodeId, StateId),
) -> Result<Outcome> {
    let t = m.table();
    let fuel = t.default_fuel(tree);
    let n = tree.num_nodes();
    let mut state: Vec<Option<StateId>> = vec![None; n];
    let mut assumed = AssumedSets::new(n, t.num_states);
    let root = tree.root();
    state[root.index()] = Some(t.initial);
    let mut assume = |assumed: &mut AssumedSets, v: NodeId, q: StateId| {
        if assumed.insert(v.index(), q) {
            note(v, q);
        }
    };
    assume(&mut assumed, root, t.initial);
    obs.config(t.initial.index() as u32, root.index() as u32, 0);
    let mut steps = 0u64;
    // the children's (state, label) pairs of a fold attempt
    let mut pairs: Vec<(StateId, Symbol)> = Vec::new();

    // worklist of nodes to examine; in-queue flags prevent duplicates
    let mut queue: VecDeque<NodeId> = tree.nodes().collect();
    let mut queued = vec![true; n];
    let enqueue = |queue: &mut VecDeque<NodeId>, queued: &mut Vec<bool>, v: NodeId| {
        if !queued[v.index()] {
            queued[v.index()] = true;
            queue.push_back(v);
        }
    };

    while let Some(v) = queue.pop_front() {
        queued[v.index()] = false;
        // keep firing at `v` until nothing applies here
        loop {
            if let Err(a) = obs.checkpoint() {
                obs.count(Counter::BudgetTrips, 1);
                return Err(Error::aborted(a.what, a.limit, a.actual));
            }
            steps += 1;
            if steps > fuel {
                obs.count(Counter::BudgetTrips, 1);
                return Err(Error::FuelExhausted { budget: fuel });
            }
            obs.count(Counter::CutRecomputations, 1);
            let label = tree.label(v);
            // moves of a cut member at v
            if let Some(q) = state[v.index()] {
                obs.state_visit(M::MACHINE, q.index() as u32, label.index() as u32);
                let cell = t.cell(q, label);
                match cell.polarity {
                    Some(Polarity::Down) if tree.is_leaf(v) => {
                        if let Some(q2) = cell.leaf {
                            obs.count(Counter::Steps, 1);
                            fired::<M, O>(obs, q.index() as u32, label, q2);
                            obs.config(q2.index() as u32, v.index() as u32, 0);
                            state[v.index()] = Some(q2);
                            assume(&mut assumed, v, q2);
                            if let Some(p) = tree.parent(v) {
                                enqueue(&mut queue, &mut queued, p);
                            }
                            continue;
                        }
                    }
                    Some(Polarity::Down) => {
                        if let Some(down) = m.down_states(q, label, tree.arity(v)) {
                            obs.count(Counter::Steps, 1);
                            state[v.index()] = None;
                            for (&c, q2) in tree.children(v).iter().zip(down) {
                                fired::<M, O>(obs, q.index() as u32, label, q2);
                                obs.config(q2.index() as u32, c.index() as u32, 1);
                                state[c.index()] = Some(q2);
                                assume(&mut assumed, c, q2);
                                enqueue(&mut queue, &mut queued, c);
                            }
                            // children that settle later wake v through
                            // their folds; re-queue v now for the case
                            // where they all already hold up pairs.
                            enqueue(&mut queue, &mut queued, v);
                            break;
                        }
                    }
                    Some(Polarity::Up) if v == root => {
                        if let Some(q2) = cell.root {
                            obs.count(Counter::Steps, 1);
                            fired::<M, O>(obs, q.index() as u32, label, q2);
                            obs.config(q2.index() as u32, root.index() as u32, 0);
                            state[root.index()] = Some(q2);
                            assume(&mut assumed, root, q2);
                            continue;
                        }
                    }
                    _ => {}
                }
            }
            // a fold at v (children all in the cut holding U pairs)
            if !tree.is_leaf(v) && state[v.index()].is_none() {
                pairs.clear();
                let ok = tree.children(v).iter().all(|&c| match state[c.index()] {
                    Some(q) if t.cell(q, tree.label(c)).polarity == Some(Polarity::Up) => {
                        pairs.push((q, tree.label(c)));
                        true
                    }
                    _ => false,
                });
                if ok {
                    match m.fold(folds, v, &pairs, obs)? {
                        Fold::Up(q2) => {
                            obs.count(Counter::Steps, 1);
                            if obs.is_enabled() {
                                for &(q, l) in &pairs {
                                    fired::<M, O>(obs, q.index() as u32, l, q2);
                                }
                            }
                            obs.config(q2.index() as u32, v.index() as u32, -1);
                            for &c in tree.children(v) {
                                state[c.index()] = None;
                            }
                            state[v.index()] = Some(q2);
                            assume(&mut assumed, v, q2);
                            if let Some(p) = tree.parent(v) {
                                enqueue(&mut queue, &mut queued, p);
                            }
                            continue;
                        }
                        Fold::Stay(new_states) => {
                            obs.count(Counter::Steps, 1);
                            obs.count(Counter::StayRounds, 1);
                            for (&c, &q2) in tree.children(v).iter().zip(new_states) {
                                let from = state[c.index()].map_or(u32::MAX, |q| q.index() as u32);
                                fired::<M, O>(obs, from, tree.label(c), q2);
                                obs.stay_assign(
                                    v.index() as u32,
                                    c.index() as u32,
                                    q2.index() as u32,
                                );
                                obs.config(q2.index() as u32, c.index() as u32, 0);
                                state[c.index()] = Some(q2);
                                assume(&mut assumed, c, q2);
                                enqueue(&mut queue, &mut queued, c);
                            }
                            continue;
                        }
                        Fold::Stuck => {}
                    }
                }
            }
            break;
        }
    }
    obs.record(Series::RunSteps, steps);
    Ok((t.accepts(&state, root), assumed, steps))
}

/// Run `m` on `tree` with an explicit fuel bound and a *schedule*: when
/// several transitions are enabled, `pick(n)` chooses which of the `n`
/// enabled ones fires. Every round rescans the whole tree, so this is the
/// naive reference for [`run`]; confluence means the choice cannot affect
/// per-node state sequences. Steps count fired transitions. Also returns
/// the stay transitions taken per node.
pub(crate) fn run_scheduled<M: CutRules>(
    m: &M,
    tree: &Tree,
    fuel: u64,
    mut pick: impl FnMut(usize) -> usize,
) -> Result<(Outcome, Vec<u32>)> {
    let t = m.table();
    let n = tree.num_nodes();
    let mut state: Vec<Option<StateId>> = vec![None; n];
    let mut assumed = AssumedSets::new(n, t.num_states);
    let mut stays: Vec<u32> = vec![0; n];
    let root = tree.root();
    state[root.index()] = Some(t.initial);
    assumed.insert(root.index(), t.initial);
    let mut steps = 0u64;

    /// An enabled transition at a node.
    enum Move {
        /// `δ_leaf` or `δ_root` into this state.
        InPlace(StateId),
        Down,
        Fold(Fold<Vec<StateId>>),
    }
    // the children's pairs at `v`, if all of them hold up pairs
    let up_pairs = |state: &[Option<StateId>], v: NodeId| -> Option<Vec<(StateId, Symbol)>> {
        let pair = |&c: &NodeId| {
            let q = state[c.index()]?;
            (t.cell(q, tree.label(c)).polarity == Some(Polarity::Up)).then_some((q, tree.label(c)))
        };
        tree.children(v).iter().map(pair).collect()
    };

    loop {
        let mut enabled: Vec<(NodeId, Move)> = Vec::new();
        for v in tree.nodes() {
            let Some(q) = state[v.index()] else { continue };
            let (label, cell) = (tree.label(v), t.cell(q, tree.label(v)));
            match cell.polarity {
                Some(Polarity::Down) if tree.is_leaf(v) => {
                    enabled.extend(cell.leaf.map(|q2| (v, Move::InPlace(q2))));
                }
                Some(Polarity::Down) if m.down_states(q, label, tree.arity(v)).is_some() => {
                    enabled.push((v, Move::Down));
                }
                Some(Polarity::Up) if v == root => {
                    enabled.extend(cell.root.map(|q2| (v, Move::InPlace(q2))));
                }
                _ => {}
            }
        }
        for v in tree.nodes() {
            if tree.is_leaf(v) || state[v.index()].is_some() {
                continue;
            }
            let Some(pairs) = up_pairs(&state, v) else {
                continue;
            };
            match m.fold_at(&pairs, stays[v.index()])? {
                Fold::Stuck => {}
                fold => enabled.push((v, Move::Fold(fold))),
            }
        }

        if enabled.is_empty() {
            return Ok(((t.accepts(&state, root), assumed, steps), stays));
        }
        steps += 1;
        if steps > fuel {
            return Err(Error::FuelExhausted { budget: fuel });
        }
        let (v, mv) = enabled.swap_remove(pick(enabled.len()) % enabled.len());
        match mv {
            Move::InPlace(q2) => {
                state[v.index()] = Some(q2);
                assumed.insert(v.index(), q2);
            }
            Move::Down => {
                let q = state[v.index()].expect("enabled");
                let down = m.down_states(q, tree.label(v), tree.arity(v));
                state[v.index()] = None;
                for (&c, q2) in tree.children(v).iter().zip(down.expect("enabled")) {
                    state[c.index()] = Some(q2);
                    assumed.insert(c.index(), q2);
                }
            }
            Move::Fold(Fold::Up(q2)) => {
                for &c in tree.children(v) {
                    state[c.index()] = None;
                }
                state[v.index()] = Some(q2);
                assumed.insert(v.index(), q2);
            }
            Move::Fold(Fold::Stay(new_states)) => {
                stays[v.index()] += 1;
                for (&c, q2) in tree.children(v).iter().zip(new_states) {
                    state[c.index()] = Some(q2);
                    assumed.insert(c.index(), q2);
                }
            }
            Move::Fold(Fold::Stuck) => unreachable!("a stuck fold is never enabled"),
        }
    }
}
