//! Memoized up/stay decisions for unranked machines (the qa-par
//! `BehaviorCache` layer for SQAu evaluation).
//!
//! In an unranked run every inner node folds by reading its children's
//! `(state, label)` pair string: through the up classifier (`L↑`), the stay
//! matcher (`U_stay`) and — for stay transitions — a full GSQA run
//! (Definition 5.11). All three are pure functions of the pair string and
//! the machine, so an [`UpCache`] interns the final decision per distinct
//! pair string. Boiret et al. and Piao & Salomaa both observe that unranked
//! evaluation cost is dominated by exactly this horizontal recomputation:
//! across a document batch the same child strings (e.g. `1 1 0 1` under an
//! `OR`) recur constantly, and each repeat becomes a single hash lookup
//! instead of three automaton runs.

use std::collections::HashMap;

use qa_base::{Result, Symbol};
use qa_obs::{Counter, Observer};
use qa_strings::StateId;

use super::stay::{pair_symbol, StayScratch};
use super::twoway::TwoWayUnranked;
use crate::cut::Fold;

/// Interns up/stay decisions keyed by hash-consed children pair-strings.
///
/// Used by [`TwoWayUnranked::run_cached`] and [`UnrankedQa::query_cached`];
/// results are identical to the uncached run. Reports
/// [`Counter::CacheHits`] / [`Counter::CacheMisses`] to the observer passed
/// to each run. The cache is keyed to one machine: it records a fingerprint
/// of the machine's up/stay structure and transparently resets itself when
/// handed a different machine.
///
/// Failed stay applications (GSQA errors, wrong output arity, an exhausted
/// stay budget) are *not* cached, so errors surface identically on every
/// run.
///
/// [`TwoWayUnranked::run_cached`]: super::TwoWayUnranked::run_cached
/// [`UnrankedQa::query_cached`]: super::UnrankedQa::query_cached
#[derive(Debug, Default)]
pub struct UpCache {
    /// encoded pair-string → its decision's slot in `decisions`.
    index: HashMap<Box<[u32]>, usize>,
    /// A stay's states are validated to be one per child.
    decisions: Vec<Fold<Box<[StateId]>>>,
    /// The encoded pair-string of the current lookup.
    key: Vec<u32>,
    /// Fingerprint of the machine the decisions belong to.
    fingerprint: Option<u64>,
    hits: u64,
    misses: u64,
}

impl UpCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct pair-strings interned so far.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no decisions are interned.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Lookups answered from the cache since creation (or last [`clear`]).
    ///
    /// [`clear`]: UpCache::clear
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to run the classifier/matcher/stay rule.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drop all interned decisions and reset the statistics.
    pub fn clear(&mut self) {
        self.index.clear();
        self.decisions.clear();
        self.fingerprint = None;
        self.hits = 0;
        self.misses = 0;
    }

    /// Reset the cache if `machine` differs from the one the interned
    /// decisions were computed for. Called once per run.
    pub(crate) fn ensure_machine(&mut self, machine: &TwoWayUnranked) {
        let fp = machine.cache_fingerprint();
        if self.fingerprint != Some(fp) {
            self.clear();
            self.fingerprint = Some(fp);
        }
    }

    /// The memoized fold of `pairs` at a node that has taken `stays` stay
    /// transitions. As on the uncached path, a stay's budget is checked
    /// before its states are computed or handed out; `scratch` holds a
    /// computed stay's states until they are interned.
    pub(crate) fn decide<O: Observer>(
        &mut self,
        machine: &TwoWayUnranked,
        pairs: &[(StateId, Symbol)],
        stays: u32,
        scratch: &mut StayScratch,
        obs: &mut O,
    ) -> Result<Fold<&[StateId]>> {
        let sigma = machine.alphabet_len();
        self.key.clear();
        self.key.extend(
            pairs
                .iter()
                .map(|&(q, l)| pair_symbol(q, l, sigma).index() as u32),
        );
        let slot = match self.index.get(self.key.as_slice()) {
            Some(&slot) => {
                self.hits += 1;
                obs.count(Counter::CacheHits, 1);
                if let Fold::Stay(_) = self.decisions[slot] {
                    machine.check_stays(stays)?;
                }
                slot
            }
            None => {
                self.misses += 1;
                obs.count(Counter::CacheMisses, 1);
                let fold = machine.fold_into(pairs, stays, scratch)?;
                self.decisions
                    .push(fold.map(|()| scratch.out.as_slice().into()));
                self.index
                    .insert(self.key.as_slice().into(), self.decisions.len() - 1);
                self.decisions.len() - 1
            }
        };
        Ok(match &self.decisions[slot] {
            Fold::Up(q) => Fold::Up(*q),
            Fold::Stay(states) => Fold::Stay(states),
            Fold::Stuck => Fold::Stuck,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::query::{example_5_14, example_5_9};
    use super::*;
    use qa_base::Alphabet;
    use qa_obs::NoopObserver;

    #[test]
    fn cached_queries_match_uncached_and_hit() {
        let a = Alphabet::from_names(["0", "1"]);
        let qa = example_5_14(&a);
        let mut cache = UpCache::new();
        let labels = [a.symbol("0"), a.symbol("1")];
        let mut rng = qa_base::rng::StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let t = qa_trees::generate::random(&mut rng, &labels, 12, None);
            let plain = qa.query(&t).unwrap();
            let cached = qa.query_cached(&t, &mut cache, &mut NoopObserver).unwrap();
            assert_eq!(plain, cached, "{}", t.render(&a));
        }
        assert!(cache.hits() > 0, "repeated pair-strings must hit");
        assert!(cache.misses() > 0);
    }

    #[test]
    fn switching_machines_resets_the_cache() {
        let leaves = Alphabet::from_names(["0", "1"]);
        let circuits = Alphabet::from_names(["AND", "OR", "0", "1"]);
        let qa1 = example_5_14(&leaves);
        let qa2 = example_5_9(&circuits);
        let mut cache = UpCache::new();
        let mut a = leaves.clone();
        let t1 = qa_trees::sexpr::from_sexpr("(0 1 1 0)", &mut a).unwrap();
        qa1.query_cached(&t1, &mut cache, &mut NoopObserver)
            .unwrap();
        assert!(!cache.is_empty());
        let mut c = circuits.clone();
        let t2 = qa_trees::sexpr::from_sexpr("(AND 1 (OR 0 1))", &mut c).unwrap();
        let got = qa2
            .query_cached(&t2, &mut cache, &mut NoopObserver)
            .unwrap();
        assert_eq!(got, qa2.query(&t2).unwrap());
        assert_eq!(cache.hits(), 0, "fingerprint change cleared statistics");
    }
}
