//! Two-way deterministic unranked tree automata (Definitions 5.7 and 5.11).

use std::collections::HashMap;

use qa_base::{Error, Result, Symbol};
use qa_obs::{Counter, Machine, NoopObserver, Observer, Series};
use qa_strings::{Dfa, SlenderLang, StateId};
use qa_trees::{NodeId, Tree};
use qa_twoway::AssumedSets;

use super::cache::UpCache;
use super::stay::{pair_alphabet_len, pair_symbol, StayRule, StayScratch};
use crate::cut::{self, CutRules, Fold, Table};
use crate::ranked::twoway::Polarity;

/// A two-way deterministic unranked tree automaton, optionally *generalized*
/// with stay transitions (Definition 5.11) and *strong* when the per-node
/// stay budget is a constant (Definition 5.12).
///
/// Differences from the ranked machine (Definition 5.7):
/// - down transitions hand states to arbitrarily many children, so
///   `L↓(q, a)` is a **slender** language (one string per length, Shallit
///   `x y* z` form) — the run looks up the string of length `arity`;
/// - up transitions read the *string* of children `(state, label)` pairs;
///   determinism (`L↑(q) ∩ L↑(q') = ∅`) is guaranteed by construction: one
///   total classifier DFA per machine assigns at most one target state per
///   pair-string;
/// - an optional stay block: a matcher DFA recognizing `U_stay` (validated
///   disjoint from every `L↑(q)`) and a [`StayRule`] computing the new
///   child states.
#[derive(Clone, Debug)]
pub struct TwoWayUnranked {
    /// `L↓` is each cell's `down`.
    table: Table<Option<SlenderLang>>,
    /// Total classifier over the pair alphabet.
    up_classifier: Option<Dfa>,
    /// `up_assign[classifier state]`: the assigned automaton state.
    up_assign: Vec<Option<StateId>>,
    stay: Option<StayBlock>,
}

/// The stay-transition block of a generalized machine.
#[derive(Clone, Debug)]
pub struct StayBlock {
    /// DFA over the pair alphabet recognizing `U_stay`.
    pub matcher: Dfa,
    /// The `δ_stay` computation.
    pub rule: StayRule,
    /// Maximum stay transitions per node's children (1 = strong; any
    /// constant keeps MSO expressiveness, Remark 5.18).
    pub max_stays_per_node: u32,
}

/// Builder for [`TwoWayUnranked`].
pub struct TwoWayUnrankedBuilder {
    inner: TwoWayUnranked,
    /// user-supplied per-state up languages, folded into the classifier at
    /// build time.
    up_langs: Vec<(StateId, Dfa)>,
}

impl TwoWayUnrankedBuilder {
    /// Start a machine over `alphabet_len` symbols.
    pub fn new(alphabet_len: usize) -> Self {
        TwoWayUnrankedBuilder {
            inner: TwoWayUnranked {
                table: Table::new(alphabet_len),
                up_classifier: None,
                up_assign: Vec::new(),
                stay: None,
            },
            up_langs: Vec::new(),
        }
    }

    /// Add a fresh state.
    pub fn add_state(&mut self) -> StateId {
        self.inner.table.add_state()
    }

    /// Set the initial state.
    pub fn set_initial(&mut self, state: StateId) -> &mut Self {
        self.inner.table.initial = state;
        self
    }

    /// Mark `state` final.
    pub fn set_final(&mut self, state: StateId, is_final: bool) -> &mut Self {
        self.inner.table.finals[state.index()] = is_final;
        self
    }

    /// Put `(state, label)` into `U` or `D`.
    pub fn set_polarity(&mut self, state: StateId, label: Symbol, p: Polarity) -> &mut Self {
        self.inner.table.cell_mut(state, label).polarity = Some(p);
        self
    }

    /// Put `(state, ·)` into `U` or `D` for every label.
    pub fn set_polarity_all(&mut self, state: StateId, p: Polarity) -> &mut Self {
        self.inner.table.set_polarity_all(state, p);
        self
    }

    /// Define `L↓(state, label)` as a slender language over the *state*
    /// alphabet (symbol `i` = state `i`).
    pub fn set_down(&mut self, state: StateId, label: Symbol, lang: SlenderLang) -> &mut Self {
        self.inner.table.cell_mut(state, label).down = Some(lang);
        self
    }

    /// Define `δ_leaf(state, label) = next`.
    pub fn set_leaf(&mut self, state: StateId, label: Symbol, next: StateId) -> &mut Self {
        self.inner.table.cell_mut(state, label).leaf = Some(next);
        self
    }

    /// Define `δ_root(state, label) = next`.
    pub fn set_root(&mut self, state: StateId, label: Symbol, next: StateId) -> &mut Self {
        self.inner.table.cell_mut(state, label).root = Some(next);
        self
    }

    /// Add the up language `L↑(state)` as a DFA over the pair alphabet
    /// (encode pairs with [`pair_symbol`]).
    pub fn add_up_language(&mut self, state: StateId, dfa: Dfa) -> &mut Self {
        self.up_langs.push((state, dfa));
        self
    }

    /// Install the stay block.
    pub fn set_stay(&mut self, block: StayBlock) -> &mut Self {
        self.inner.stay = Some(block);
        self
    }

    /// Validate and finish.
    pub fn build(mut self) -> Result<TwoWayUnranked> {
        let m = &mut self.inner;
        if m.table.num_states == 0 {
            return Err(Error::ill_formed("2DTAu", "no states"));
        }
        for (q, s, c) in m.table.pairs() {
            let (down, up) = (Some(Polarity::Down), Some(Polarity::Up));
            let misplaced = if c.leaf.is_some() && c.polarity != down {
                "δ_leaf on non-D pair"
            } else if c.down.is_some() && c.polarity != down {
                "L↓ on non-D pair"
            } else if c.root.is_some() && c.polarity != up {
                "δ_root on non-U pair"
            } else {
                continue;
            };
            return Err(Error::ill_formed(
                "2DTAu",
                format!("{misplaced} ({q:?}, {s:?})"),
            ));
        }
        let pal = pair_alphabet_len(m.table.num_states, m.table.alphabet_len);
        // Fold the up languages into one classifier, checking disjointness.
        let mut classifier: Option<Dfa> = None;
        let mut assign: Vec<Option<StateId>> = Vec::new();
        for (q, dfa) in &self.up_langs {
            if dfa.alphabet_len() != pal {
                return Err(Error::ill_formed(
                    "2DTAu",
                    "up language DFA must use the pair alphabet",
                ));
            }
            match classifier {
                None => {
                    let total = dfa.totalize();
                    assign = (0..total.num_states())
                        .map(|i| total.is_accepting(StateId::from_index(i)).then_some(*q))
                        .collect();
                    // classifier acceptance flags are irrelevant; assignment
                    // carries the information.
                    classifier = Some(total);
                }
                Some(old) => {
                    // product: track (old classifier state, new DFA state)
                    let new_total = dfa.totalize();
                    let mut prod = Dfa::new(pal);
                    let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
                    let mut queue = std::collections::VecDeque::new();
                    let mut new_assign: Vec<Option<StateId>> = Vec::new();
                    let start = (old.initial(), new_total.initial());
                    let id = prod.add_state();
                    index.insert(start, id);
                    prod.set_initial(id);
                    queue.push_back(start);
                    while let Some((a, b)) = queue.pop_front() {
                        let from = index[&(a, b)];
                        // FIFO order pops product states in the order they
                        // were added, so `from` is the next assignment slot.
                        debug_assert_eq!(from.index(), new_assign.len());
                        match (assign[a.index()], new_total.is_accepting(b).then_some(*q)) {
                            (Some(x), Some(y)) if x != y => {
                                return Err(Error::ill_formed(
                                    "2DTAu",
                                    format!("up languages overlap: L↑({x:?}) ∩ L↑({y:?}) ≠ ∅"),
                                ));
                            }
                            (x, y) => new_assign.push(x.or(y)),
                        }
                        for sym_idx in 0..pal {
                            let sym = Symbol::from_index(sym_idx);
                            let ta = old.next(a, sym).expect("totalized");
                            let tb = new_total.next(b, sym).expect("totalized");
                            let to = *index.entry((ta, tb)).or_insert_with(|| {
                                queue.push_back((ta, tb));
                                prod.add_state()
                            });
                            prod.set_transition(from, sym, to);
                        }
                    }
                    assign = new_assign;
                    classifier = Some(prod);
                }
            }
        }
        m.up_classifier = classifier;
        m.up_assign = assign;

        // Stay matcher must be disjoint from every up language.
        if let Some(stay) = &m.stay {
            if stay.matcher.alphabet_len() != pal {
                return Err(Error::ill_formed(
                    "2DTAu",
                    "stay matcher must use the pair alphabet",
                ));
            }
            if let Some(classifier) = &m.up_classifier {
                // classify-accepting = any product state with an assignment
                let mut up_accepting = classifier.clone();
                for i in 0..up_accepting.num_states() {
                    up_accepting.set_accepting(StateId::from_index(i), m.up_assign[i].is_some());
                }
                if !up_accepting.intersect(&stay.matcher).is_empty() {
                    return Err(Error::ill_formed("2DTAu", "U_stay overlaps an up language"));
                }
            }
        }
        Ok(self.inner)
    }
}

/// Record of a maximal run of a [`TwoWayUnranked`] machine: its verdict,
/// the `Assumed` set of every node, the work it took and the stay
/// transitions fired at each node. The configurations themselves are not
/// kept; an observer such as [`qa_obs::RunTrace`] receives each one as the
/// run makes it.
#[derive(Clone, Debug)]
pub struct UnrankedRunRecord {
    /// Whether the final configuration was accepting.
    pub accepted: bool,
    /// States assumed per node (by index).
    pub assumed: AssumedSets,
    /// Work performed: [`TwoWayUnranked::run_scheduled`] counts transitions
    /// fired; the worklist [`TwoWayUnranked::run`] counts node examinations
    /// (an upper bound on transitions). Both are capped by the fuel budget.
    pub steps: u64,
    /// Stay transitions fired per node.
    pub stays: Vec<u32>,
}

impl TwoWayUnranked {
    /// Alphabet size.
    pub fn alphabet_len(&self) -> usize {
        self.table.alphabet_len
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.table.num_states
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.table.initial
    }

    /// Whether `state` is final.
    pub fn is_final(&self, state: StateId) -> bool {
        self.table.finals[state.index()]
    }

    /// The polarity of `(state, label)`.
    #[inline]
    pub fn polarity(&self, state: StateId, label: Symbol) -> Option<Polarity> {
        self.table.cell(state, label).polarity
    }

    /// `L↓(state, label)`.
    #[inline]
    pub fn down(&self, state: StateId, label: Symbol) -> Option<&SlenderLang> {
        self.table.cell(state, label).down.as_ref()
    }

    /// `δ_leaf(state, label)`.
    #[inline]
    pub fn leaf(&self, state: StateId, label: Symbol) -> Option<StateId> {
        self.table.cell(state, label).leaf
    }

    /// `δ_root(state, label)`.
    #[inline]
    pub fn root(&self, state: StateId, label: Symbol) -> Option<StateId> {
        self.table.cell(state, label).root
    }

    /// The stay block, if the machine is generalized.
    pub fn stay(&self) -> Option<&StayBlock> {
        self.stay.as_ref()
    }

    /// Whether the machine has stay transitions with a per-node budget
    /// (an S2DTAu, Definition 5.12).
    pub fn is_strong(&self) -> bool {
        self.stay.is_some()
    }

    /// Fingerprint of the structure an [`UpCache`] decision depends on: the
    /// up classifier table and its assignment, the stay matcher table and
    /// budget, and the basic shape. Computed once per cached run.
    pub(crate) fn cache_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.num_states().hash(&mut h);
        self.alphabet_len().hash(&mut h);
        let pal = pair_alphabet_len(self.num_states(), self.alphabet_len());
        let hash_dfa = |dfa: &Dfa, h: &mut std::collections::hash_map::DefaultHasher| {
            dfa.num_states().hash(h);
            dfa.initial().index().hash(h);
            for i in 0..dfa.num_states() {
                let s = StateId::from_index(i);
                dfa.is_accepting(s).hash(h);
                for a in 0..pal {
                    match dfa.next(s, Symbol::from_index(a)) {
                        None => usize::MAX.hash(h),
                        Some(t) => t.index().hash(h),
                    }
                }
            }
        };
        match &self.up_classifier {
            None => 0u8.hash(&mut h),
            Some(c) => {
                1u8.hash(&mut h);
                hash_dfa(c, &mut h);
            }
        }
        self.up_assign.hash(&mut h);
        match &self.stay {
            None => 0u8.hash(&mut h),
            Some(s) => {
                1u8.hash(&mut h);
                s.max_stays_per_node.hash(&mut h);
                hash_dfa(&s.matcher, &mut h);
            }
        }
        h.finish()
    }

    /// Classify a children pair-string: `Some(q)` if it lies in `L↑(q)`.
    pub fn classify_up(&self, pairs: &[(StateId, Symbol)]) -> Option<StateId> {
        let classifier = self.up_classifier.as_ref()?;
        let mut cs = classifier.initial();
        for &(q, l) in pairs {
            cs = classifier.next(cs, pair_symbol(q, l, self.alphabet_len()))?;
        }
        self.up_assign[cs.index()]
    }

    /// Whether a children pair-string lies in `U_stay`.
    pub fn matches_stay(&self, pairs: &[(StateId, Symbol)]) -> bool {
        let Some(stay) = &self.stay else { return false };
        let mut cs = stay.matcher.initial();
        for &(q, l) in pairs {
            match stay
                .matcher
                .next(cs, pair_symbol(q, l, self.alphabet_len()))
            {
                Some(next) => cs = next,
                None => return false,
            }
        }
        stay.matcher.is_accepting(cs)
    }

    /// Generous default fuel (loops surface as [`Error::FuelExhausted`]).
    pub fn default_fuel(&self, tree: &Tree) -> u64 {
        self.table.default_fuel(tree)
    }

    /// Run to a maximal configuration with a worklist engine: after a
    /// transition fires only the affected nodes are re-examined, so typical
    /// runs cost O(steps + nodes) instead of the naive rescan's
    /// O(steps · nodes). Confluence (Section 5.1) makes the result identical
    /// to any schedule of [`TwoWayUnranked::run_scheduled`] — property-tested.
    pub fn run(&self, tree: &Tree) -> Result<UnrankedRunRecord> {
        self.run_with(tree, &mut NoopObserver)
    }

    /// [`TwoWayUnranked::run`] with an [`Observer`]: node examinations are
    /// [`Counter::CutRecomputations`], fired transitions [`Counter::Steps`],
    /// stay transitions additionally [`Counter::StayRounds`]; the total step
    /// count lands in [`Series::RunSteps`] and per-node stay tallies in
    /// [`Series::StaysPerNode`]. Every state assignment is also reported as
    /// a configuration event (dir +1 down, −1 up, 0 in place), and each
    /// stay-rule output as an [`Observer::stay_assign`] — the GSQA child-run
    /// certificate behind the assignment. With [`NoopObserver`] this
    /// monomorphizes to exactly `run`.
    pub fn run_with<O: Observer>(&self, tree: &Tree, obs: &mut O) -> Result<UnrankedRunRecord> {
        self.run_impl(tree, None, obs, |_, _| {})
    }

    /// [`TwoWayUnranked::run_with`] with up/stay decisions memoized in
    /// `cache` (see [`UpCache`]): every distinct children pair-string runs
    /// the classifier, stay matcher and stay rule exactly once — on this
    /// tree or any earlier tree run through the same cache. Results are
    /// identical to the uncached run; cache hits and misses are reported to
    /// `obs`.
    pub fn run_cached<O: Observer>(
        &self,
        tree: &Tree,
        cache: &mut UpCache,
        obs: &mut O,
    ) -> Result<UnrankedRunRecord> {
        cache.ensure_machine(self);
        self.run_impl(tree, Some(cache), obs, |_, _| {})
    }

    /// The worklist run behind [`TwoWayUnranked::run_with`] and
    /// [`TwoWayUnranked::run_cached`]. It calls `note(v, q)` the first time
    /// node `v` assumes state `q`, so in the order in which each node's
    /// states are first assumed.
    pub(crate) fn run_impl<O: Observer>(
        &self,
        tree: &Tree,
        cache: Option<&mut UpCache>,
        obs: &mut O,
        note: impl FnMut(NodeId, StateId),
    ) -> Result<UnrankedRunRecord> {
        let mut folds = Folds {
            cache,
            stays: vec![0; tree.num_nodes()],
            scratch: StayScratch::default(),
        };
        let (accepted, assumed, steps) = cut::run(self, tree, &mut folds, obs, note)?;
        if obs.is_enabled() {
            for &s in &folds.stays {
                obs.record(Series::StaysPerNode, s as u64);
            }
        }
        Ok(UnrankedRunRecord {
            accepted,
            assumed,
            steps,
            stays: folds.stays,
        })
    }

    /// Run with an explicit schedule (see the ranked counterpart): when
    /// several transitions are enabled, `pick(n)` selects one. Confluence
    /// makes the choice observationally irrelevant.
    pub fn run_scheduled(
        &self,
        tree: &Tree,
        fuel: u64,
        pick: impl FnMut(usize) -> usize,
    ) -> Result<UnrankedRunRecord> {
        let ((accepted, assumed, steps), stays) = cut::run_scheduled(self, tree, fuel, pick)?;
        Ok(UnrankedRunRecord {
            accepted,
            assumed,
            steps,
            stays,
        })
    }

    /// The fold of the children's `pairs` at a node that has taken `stays`
    /// stay transitions, with a stay's states left in `scratch.out`. The
    /// stay budget is checked before the stay rule runs.
    pub(crate) fn fold_into(
        &self,
        pairs: &[(StateId, Symbol)],
        stays: u32,
        scratch: &mut StayScratch,
    ) -> Result<Fold<()>> {
        if let Some(q) = self.classify_up(pairs) {
            return Ok(Fold::Up(q));
        }
        if !self.matches_stay(pairs) {
            return Ok(Fold::Stuck);
        }
        self.check_stays(stays)?;
        let rule = &self.stay.as_ref().expect("matched U_stay").rule;
        rule.apply_into(pairs, self.alphabet_len(), scratch)?;
        if scratch.out.len() != pairs.len() {
            return Err(Error::ill_formed(
                "S2DTAu",
                "stay rule must emit one state per child",
            ));
        }
        Ok(Fold::Stay(()))
    }

    /// Fail unless a node that has taken `stays` stay transitions may take
    /// another.
    pub(crate) fn check_stays(&self, stays: u32) -> Result<()> {
        let budget = self.stay.as_ref().map_or(0, |s| s.max_stays_per_node);
        if stays < budget {
            return Ok(());
        }
        Err(Error::ill_formed(
            "S2DTAu",
            format!("stay budget ({budget}) exhausted at a node — the machine is not strong"),
        ))
    }

    /// Whether the machine accepts `tree`.
    pub fn accepts(&self, tree: &Tree) -> Result<bool> {
        Ok(self.run(tree)?.accepted)
    }
}

/// What an unranked worklist run keeps for its folds.
pub(crate) struct Folds<'c> {
    cache: Option<&'c mut UpCache>,
    /// Stay transitions taken per node.
    stays: Vec<u32>,
    scratch: StayScratch,
}

impl CutRules for TwoWayUnranked {
    const MACHINE: Machine = Machine::Qau;
    type Down = Option<SlenderLang>;
    type Folds<'c> = Folds<'c>;

    fn table(&self) -> &Table<Self::Down> {
        &self.table
    }

    fn down_states(
        &self,
        state: StateId,
        label: Symbol,
        arity: usize,
    ) -> Option<impl Iterator<Item = StateId> + '_> {
        let lang = self.down(state, label).filter(|l| l.has_length(arity))?;
        Some((0..arity).map(move |i| {
            let s = lang.symbol_at(arity, i).expect("length present");
            StateId::from_index(s.index())
        }))
    }

    /// One decision per pair-string: from the cache when the run has one,
    /// else computed in place.
    fn fold<'f, O: Observer>(
        &self,
        folds: &'f mut Folds<'_>,
        v: NodeId,
        pairs: &[(StateId, Symbol)],
        obs: &mut O,
    ) -> Result<Fold<&'f [StateId]>> {
        obs.count(Counter::TableLookups, 1);
        let stays = folds.stays[v.index()];
        let fold = match &mut folds.cache {
            Some(cache) => cache.decide(self, pairs, stays, &mut folds.scratch, obs)?,
            None => {
                let scratch = &mut folds.scratch;
                self.fold_into(pairs, stays, scratch)?
                    .map(|()| scratch.out.as_slice())
            }
        };
        if let Fold::Stay(_) = fold {
            folds.stays[v.index()] += 1;
        }
        Ok(fold)
    }

    fn fold_at(&self, pairs: &[(StateId, Symbol)], stays: u32) -> Result<Fold<Vec<StateId>>> {
        let mut scratch = StayScratch::default();
        Ok(self
            .fold_into(pairs, stays, &mut scratch)?
            .map(|()| scratch.out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_base::Alphabet;
    use qa_strings::XyzPattern;

    fn sym(i: usize) -> Symbol {
        Symbol::from_index(i)
    }

    /// A trivial descend-and-count machine over a single-letter alphabet:
    /// accepts every tree (descends, folds back up in one state).
    fn up_down(alpha_len: usize) -> TwoWayUnranked {
        let mut b = TwoWayUnrankedBuilder::new(alpha_len);
        let s = b.add_state();
        let u = b.add_state();
        b.set_initial(s);
        b.set_final(u, true);
        b.set_polarity_all(s, Polarity::Down);
        b.set_polarity_all(u, Polarity::Up);
        for a in 0..alpha_len {
            b.set_down(
                s,
                sym(a),
                SlenderLang::uniform(Symbol::from_index(s.index())),
            );
            b.set_leaf(s, sym(a), u);
        }
        // L↑(u) = (u-pairs)+
        let pal = pair_alphabet_len(2, alpha_len);
        let mut dfa = Dfa::new(pal);
        let start = dfa.add_state();
        let seen = dfa.add_state();
        dfa.set_initial(start);
        dfa.set_accepting(seen, true);
        for a in 0..alpha_len {
            let p = pair_symbol(StateId::from_index(1), sym(a), alpha_len);
            dfa.set_transition(start, p, seen);
            dfa.set_transition(seen, p, seen);
        }
        b.add_up_language(StateId::from_index(1), dfa);
        b.build().unwrap()
    }

    #[test]
    fn up_down_accepts_everything() {
        let mut a = Alphabet::new();
        a.intern("x");
        let m = up_down(1);
        for s in ["x", "(x x)", "(x (x x x) x)", "(x (x (x x)))"] {
            let t = qa_trees::sexpr::from_sexpr(s, &mut a).unwrap();
            assert!(m.accepts(&t).unwrap(), "{s}");
        }
    }

    #[test]
    fn slender_down_assigns_positionally() {
        // Machine whose down transition marks first and last child with a
        // special state m, others with s; then folds up only if fanout >= 2.
        let mut a = Alphabet::new();
        a.intern("x");
        let mut b = TwoWayUnrankedBuilder::new(1);
        let s = b.add_state(); // descend plain
        let m = b.add_state(); // descend marked
        let u = b.add_state(); // folded
        b.set_initial(s);
        b.set_final(u, true);
        b.set_polarity_all(s, Polarity::Down);
        b.set_polarity_all(m, Polarity::Down);
        b.set_polarity_all(u, Polarity::Up);
        let sm = Symbol::from_index(m.index());
        let ss = Symbol::from_index(s.index());
        // m s* m for fanout >= 2, single m for fanout 1
        let lang = SlenderLang::new(vec![
            XyzPattern::new(vec![sm], vec![ss], vec![sm]),
            XyzPattern::word(vec![sm]),
        ])
        .unwrap();
        b.set_down(s, sym(0), lang.clone());
        b.set_down(m, sym(0), lang);
        b.set_leaf(s, sym(0), u);
        b.set_leaf(m, sym(0), u);
        let pal = pair_alphabet_len(3, 1);
        let mut dfa = Dfa::new(pal);
        let q0 = dfa.add_state();
        let q1 = dfa.add_state();
        dfa.set_initial(q0);
        dfa.set_accepting(q1, true);
        let pu = pair_symbol(u, sym(0), 1);
        dfa.set_transition(q0, pu, q1);
        dfa.set_transition(q1, pu, q1);
        b.add_up_language(u, dfa);
        let machine = b.build().unwrap();

        let mut al = Alphabet::new();
        al.intern("x");
        let t = qa_trees::sexpr::from_sexpr("(x x x x x)", &mut al).unwrap();
        let rec = machine.run(&t).unwrap();
        assert!(rec.accepted);
        let kids = t.children(t.root());
        // first and last got m (index 1), middles got s (index 0); every
        // leaf then flips to u
        for (i, want) in [m, s, s, m].into_iter().enumerate() {
            let got: Vec<StateId> = rec.assumed.states(kids[i].index()).collect();
            assert_eq!(got, [want, u], "child {i}");
        }
    }

    #[test]
    fn overlapping_up_languages_rejected() {
        let mut b = TwoWayUnrankedBuilder::new(1);
        let q0 = b.add_state();
        let q1 = b.add_state();
        b.set_polarity_all(q0, Polarity::Up);
        b.set_polarity_all(q1, Polarity::Up);
        let pal = pair_alphabet_len(2, 1);
        let mk = || {
            let mut d = Dfa::new(pal);
            let s0 = d.add_state();
            let s1 = d.add_state();
            d.set_initial(s0);
            d.set_accepting(s1, true);
            d.set_transition(s0, Symbol::from_index(0), s1);
            d
        };
        b.add_up_language(q0, mk());
        b.add_up_language(q1, mk());
        assert_eq!(
            b.build().unwrap_err().to_string(),
            "ill-formed automaton (2DTAu): up languages overlap: L↑(q0) ∩ L↑(q1) ≠ ∅"
        );

        // Two ill-formed entries: the scan goes pair by pair, state-major,
        // and names the first pair holding any misplaced transition.
        let mut b = TwoWayUnrankedBuilder::new(2);
        let q0 = b.add_state();
        let q1 = b.add_state();
        b.set_polarity_all(q0, Polarity::Up);
        b.set_leaf(q1, sym(0), q1);
        b.set_down(q0, sym(1), SlenderLang::uniform(sym(0)));
        assert_eq!(
            b.build().unwrap_err().to_string(),
            "ill-formed automaton (2DTAu): L↓ on non-D pair (q0, s1)"
        );
    }

    #[test]
    fn rows_agree_with_a_reference_map_while_they_grow() {
        use qa_base::rng::{Rng, StdRng};
        use std::collections::BTreeMap;
        let mut rng = StdRng::seed_from_u64(0x2da8);
        let mut overwrites = 0;
        for round in 0..60 {
            let sigma = rng.gen_range(1..=3);
            let mut b = TwoWayUnrankedBuilder::new(sigma);
            let mut polarity = BTreeMap::new();
            let mut leaf = BTreeMap::new();
            let mut root = BTreeMap::new();
            let mut down = BTreeMap::new();
            let mut states = 0;
            // add_state interleaved with writes, so rows grow after they
            // already hold transitions
            for _ in 0..rng.gen_range(1..64) {
                if states == 0 || (states < 5 && rng.gen_bool(0.15)) {
                    b.add_state();
                    states += 1;
                    continue;
                }
                let (q, s) = (rng.gen_range(0..states), rng.gen_range(0..sigma));
                let (qs, ss) = (StateId::from_index(q), sym(s));
                let next = StateId::from_index(rng.gen_range(0..states));
                let replaced = match rng.gen_range(0..4) {
                    0 => {
                        let p = [Polarity::Up, Polarity::Down][rng.gen_range(0..2)];
                        b.set_polarity(qs, ss, p);
                        polarity.insert((q, s), p).is_some()
                    }
                    1 => {
                        b.set_leaf(qs, ss, next);
                        leaf.insert((q, s), next).is_some()
                    }
                    2 => {
                        b.set_root(qs, ss, next);
                        root.insert((q, s), next).is_some()
                    }
                    _ => {
                        // L↓ = next⁺, told apart by the state it repeats
                        b.set_down(qs, ss, SlenderLang::uniform(sym(next.index())));
                        down.insert((q, s), sym(next.index())).is_some()
                    }
                };
                overwrites += usize::from(replaced);
            }
            let m = &b.inner;
            for (q, s) in (0..states).flat_map(|q| (0..sigma).map(move |s| (q, s))) {
                let (qs, ss) = (StateId::from_index(q), sym(s));
                let at = format!("round {round}: ({q}, {s})");
                assert_eq!(m.polarity(qs, ss), polarity.get(&(q, s)).copied(), "{at}");
                assert_eq!(m.leaf(qs, ss), leaf.get(&(q, s)).copied(), "{at}");
                assert_eq!(m.root(qs, ss), root.get(&(q, s)).copied(), "{at}");
                let got = m.down(qs, ss).map(|l| l.string_of_length(2));
                let want = down.get(&(q, s)).map(|&x| Some(vec![x, x]));
                assert_eq!(got, want, "{at}");
            }
        }
        assert!(overwrites > 0);
    }

    #[test]
    fn missing_slender_length_gets_stuck() {
        // down language = single string of length 2: fanout 3 has no image.
        let mut a = Alphabet::new();
        a.intern("x");
        let mut b = TwoWayUnrankedBuilder::new(1);
        let s = b.add_state();
        let u = b.add_state();
        b.set_initial(s);
        b.set_final(u, true);
        b.set_polarity_all(s, Polarity::Down);
        b.set_polarity_all(u, Polarity::Up);
        let ss = Symbol::from_index(s.index());
        b.set_down(s, sym(0), SlenderLang::single(vec![ss, ss]));
        b.set_leaf(s, sym(0), u);
        let pal = pair_alphabet_len(2, 1);
        let mut dfa = Dfa::new(pal);
        let d0 = dfa.add_state();
        let d1 = dfa.add_state();
        dfa.set_initial(d0);
        dfa.set_accepting(d1, true);
        let pu = pair_symbol(u, sym(0), 1);
        dfa.set_transition(d0, pu, d1);
        dfa.set_transition(d1, pu, d1);
        b.add_up_language(u, dfa);
        let machine = b.build().unwrap();

        let mut al = Alphabet::new();
        al.intern("x");
        let ok = qa_trees::sexpr::from_sexpr("(x x x)", &mut al).unwrap();
        assert!(machine.accepts(&ok).unwrap());
        let stuck = qa_trees::sexpr::from_sexpr("(x x x x)", &mut al).unwrap();
        assert!(!machine.accepts(&stuck).unwrap(), "no length-3 down string");
    }
}
