//! [`QueryCache`]: compile-once caching of MSO queries, keyed by formula
//! hash and alphabet size.
//!
//! Compiling an MSO formula to a query automaton is the expensive,
//! non-elementary direction of the paper's equivalence; evaluating the
//! compiled automaton is linear per document (Figure 6). A serving
//! daemon therefore compiles once and evaluates many times: the cache
//! key is `(FNV-1a(formula), σ)` where `σ` is the size of the alphabet
//! the formula was parsed against. The `σ` component is what keeps a
//! growing document store sound — ingesting a document with fresh
//! labels bumps `σ`, old entries stop matching, and the next request
//! recompiles against the larger alphabet instead of running an
//! automaton that has never seen the new symbols.
//!
//! [`QueryCache::compile`] is four steps, which the daemon calls one by
//! one so that it holds the cache mutex only for the bookkeeping:
//! `ParsedQuery::parse` and `ParsedQuery::compile` touch no cache,
//! `QueryCache::lookup` and `QueryCache::insert` do nothing else. Two
//! requests that miss on the same key at once both compile; the first
//! insert stays resident and the second gets it back, so every caller
//! shares one automaton per key.
//!
//! Compilation is deterministic, so a recompile after eviction (or a
//! cold restart) yields the same automaton and byte-identical query
//! results — the cache changes latency, never answers.

use std::collections::BTreeMap;
use std::sync::Arc;

use qa_base::{Alphabet, Error, Result};
use qa_mso::{parse, Formula, PreparedUnary};
use qa_obs::{Counter, Metrics};

/// One compiled query, shared between the cache and in-flight requests.
#[derive(Debug)]
pub struct CompiledQuery {
    /// The formula text the query was compiled from (trimmed).
    pub formula: String,
    /// FNV-1a 64 of the trimmed formula text.
    pub hash: u64,
    /// The free node variable the query selects.
    pub var: String,
    /// Alphabet size the automaton was compiled over.
    pub sigma: usize,
    /// States of the compiled (pre-totalization) automaton.
    pub states: usize,
    /// The totalized evaluator (Figure 6 two-pass on the implicit FCNS
    /// encoding).
    pub prepared: PreparedUnary,
}

/// A formula parsed against an alphabet, not yet compiled: the output of
/// [`ParsedQuery::parse`], the input of [`ParsedQuery::compile`] and the
/// key of [`QueryCache::lookup`].
#[derive(Debug)]
pub(crate) struct ParsedQuery {
    text: String,
    hash: u64,
    /// Alphabet size after parsing: the σ the automaton must cover.
    sigma: usize,
    var: String,
    formula: Formula,
}

impl ParsedQuery {
    /// Parse `formula` against `alphabet`, interning the labels it names,
    /// and check that it has exactly one free variable, a node variable.
    pub(crate) fn parse(formula: &str, alphabet: &mut Alphabet) -> Result<ParsedQuery> {
        let text = formula.trim();
        let parsed = parse(text, alphabet)?;
        let free = parsed.free_vars();
        let var = match free.as_slice() {
            [v] if v.chars().next().is_some_and(|c| c.is_lowercase()) => v.clone(),
            _ => {
                let msg = format!(
                    "a unary query needs exactly one free node variable, found {free:?} in `{text}`"
                );
                return Err(Error::parse("query", msg));
            }
        };
        Ok(ParsedQuery {
            text: text.to_string(),
            hash: qa_obs::fnv1a64(text.as_bytes()),
            sigma: alphabet.len(),
            var,
            formula: parsed,
        })
    }

    /// Compile to the totalized Figure 6 evaluator over σ labels, counting
    /// one `query_compiles` on `metrics` when attached. Touches no cache,
    /// so it can run with no lock held.
    pub(crate) fn compile(self, metrics: Option<&Metrics>) -> Result<CompiledQuery> {
        let automaton = qa_mso::unranked::compile_unary(&self.formula, &self.var, self.sigma)?;
        if let Some(m) = metrics {
            m.count(Counter::QueryCompiles, 1);
        }
        Ok(CompiledQuery {
            states: automaton.num_states(),
            prepared: PreparedUnary::new(&automaton, self.sigma),
            formula: self.text,
            hash: self.hash,
            var: self.var,
            sigma: self.sigma,
        })
    }
}

#[derive(Debug)]
struct Entry {
    query: Arc<CompiledQuery>,
    last_used: u64,
    hits: u64,
}

/// Bounded LRU cache of [`CompiledQuery`]s; see the module docs.
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    entries: BTreeMap<(u64, usize), Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl QueryCache {
    /// A cache holding at most `capacity` compiled queries (clamped to at
    /// least one); the least-recently-used entry is evicted beyond that.
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Compile `formula` against the current `alphabet`, or answer from
    /// the cache when the same formula was already compiled against an
    /// alphabet of the same size. Parsing interns any labels the formula
    /// mentions, so compilation and the documents agree on symbol ids.
    ///
    /// This is `ParsedQuery::parse`, `QueryCache::lookup`, and on a miss
    /// `ParsedQuery::compile` then `QueryCache::insert`; the daemon runs
    /// the parse and the compile with no lock held.
    ///
    /// Cache traffic is counted on `metrics` when attached:
    /// `cache_hits` / `cache_misses` per lookup, `query_compiles` per
    /// compile paid, `cache_evictions` per LRU eviction.
    ///
    /// ```
    /// use qa_base::Alphabet;
    /// use qa_serve::QueryCache;
    ///
    /// let mut cache = QueryCache::new(8);
    /// let mut alphabet = Alphabet::from_names(["book", "author"]);
    /// let q = cache.compile("label(v, author)", &mut alphabet, None).unwrap();
    /// assert!(q.states > 0);
    ///
    /// // Same formula, same alphabet: answered from the cache, and the
    /// // compiled automaton is literally the same object.
    /// let again = cache.compile("label(v, author)", &mut alphabet, None).unwrap();
    /// assert_eq!(cache.stats(), (1, 1, 0)); // hits, misses, evictions
    /// assert_eq!(q.hash, again.hash);
    /// ```
    pub fn compile(
        &mut self,
        formula: &str,
        alphabet: &mut Alphabet,
        metrics: Option<&Metrics>,
    ) -> Result<Arc<CompiledQuery>> {
        let parsed = ParsedQuery::parse(formula, alphabet)?;
        if let Some(hit) = self.lookup(&parsed, metrics) {
            return Ok(hit);
        }
        let compiled = parsed.compile(metrics)?;
        Ok(self.insert(compiled, metrics))
    }

    /// The resident compilation of `query`'s `(hash, σ)` key, if any,
    /// counted as a hit or a miss.
    pub(crate) fn lookup(
        &mut self,
        query: &ParsedQuery,
        metrics: Option<&Metrics>,
    ) -> Option<Arc<CompiledQuery>> {
        self.tick += 1;
        let Some(entry) = self.entries.get_mut(&(query.hash, query.sigma)) else {
            self.misses += 1;
            if let Some(m) = metrics {
                m.count(Counter::CacheMisses, 1);
            }
            return None;
        };
        entry.last_used = self.tick;
        entry.hits += 1;
        self.hits += 1;
        if let Some(m) = metrics {
            m.count(Counter::CacheHits, 1);
        }
        Some(Arc::clone(&entry.query))
    }

    /// Make `query` resident, evicting the least-recently-used entry when
    /// the cache is full, and return the shared copy. When a concurrent
    /// compile already inserted the same key, that entry stays and is
    /// returned instead.
    pub(crate) fn insert(
        &mut self,
        query: CompiledQuery,
        metrics: Option<&Metrics>,
    ) -> Arc<CompiledQuery> {
        self.tick += 1;
        let key = (query.hash, query.sigma);
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_used = self.tick;
            return Arc::clone(&entry.query);
        }
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty cache at capacity");
            self.entries.remove(&lru);
            self.evictions += 1;
            if let Some(m) = metrics {
                m.count(Counter::CacheEvictions, 1);
            }
        }
        let query = Arc::new(query);
        self.entries.insert(
            key,
            Entry {
                query: Arc::clone(&query),
                last_used: self.tick,
                hits: 0,
            },
        );
        query
    }

    /// `(hits, misses, evictions)` since construction.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Number of resident compiled queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resident queries with their per-entry hit counts, in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&Arc<CompiledQuery>, u64)> + '_ {
        self.entries.values().map(|e| (&e.query, e.hits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alphabet() -> Alphabet {
        Alphabet::from_names(["a", "b", "c"])
    }

    #[test]
    fn recompile_after_eviction_is_idempotent() {
        // Capacity-one cache: compiling a second formula evicts the
        // first; recompiling the first must rebuild the identical
        // automaton and answer queries byte-identically.
        let mut a = alphabet();
        let mut cache = QueryCache::new(1);
        let t = qa_trees::sexpr::from_sexpr("(a (b c) (b b))", &mut a).unwrap();

        let q1 = cache.compile("label(v, b)", &mut a, None).unwrap();
        let cold: Vec<_> = q1.prepared.eval_unranked(&t);
        let states_cold = q1.states;

        cache.compile("label(v, c)", &mut a, None).unwrap();
        assert_eq!(cache.len(), 1, "capacity 1 evicts");
        assert_eq!(cache.stats().2, 1, "one eviction");

        let q1_again = cache.compile("label(v, b)", &mut a, None).unwrap();
        assert_eq!(q1_again.states, states_cold, "same compiled automaton");
        assert_eq!(q1_again.hash, q1.hash);
        let warm: Vec<_> = q1_again.prepared.eval_unranked(&t);
        assert_eq!(cold, warm, "byte-identical results across recompile");
    }

    #[test]
    fn alphabet_growth_misses_and_recompiles() {
        let mut a = alphabet();
        let mut cache = QueryCache::new(8);
        let q = cache.compile("label(v, a)", &mut a, None).unwrap();
        assert_eq!(q.sigma, 3);
        // A new document label grows the alphabet; the old entry no
        // longer matches and the query recompiles over the larger σ.
        a.intern("d");
        let grown = cache.compile("label(v, a)", &mut a, None).unwrap();
        assert_eq!(grown.sigma, 4);
        assert_eq!(cache.stats(), (0, 2, 0), "growth is a miss, not a hit");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn formulas_without_a_single_free_node_variable_are_rejected() {
        let mut a = alphabet();
        let mut cache = QueryCache::new(8);
        // Sentence: no free variable at all.
        assert!(cache
            .compile("ex r. (root(r) & label(r, a))", &mut a, None)
            .is_err());
        // Two free node variables.
        assert!(cache.compile("edge(v, w)", &mut a, None).is_err());
    }

    #[test]
    fn concurrent_cold_compiles_of_one_formula_share_the_first_insert() {
        let mut a = alphabet();
        let t = qa_trees::sexpr::from_sexpr("(a (b c) (b b) c)", &mut a).unwrap();
        let formula = "leaf(v) & label(v, b)";
        let batch = QueryCache::new(1)
            .compile(formula, &mut a.clone(), None)
            .unwrap()
            .prepared
            .eval_unranked(&t);
        let cache = std::sync::Mutex::new(QueryCache::new(8));
        let both_missed = std::sync::Barrier::new(2);
        let served: Vec<Arc<CompiledQuery>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (cache, both_missed, mut a) = (&cache, &both_missed, a.clone());
                    s.spawn(move || {
                        let query = ParsedQuery::parse(formula, &mut a).unwrap();
                        assert!(cache.lock().unwrap().lookup(&query, None).is_none());
                        both_missed.wait();
                        let compiled = query.compile(None).unwrap();
                        cache.lock().unwrap().insert(compiled, None)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let cache = cache.into_inner().unwrap();
        assert_eq!((cache.len(), cache.stats()), (1, (0, 2, 0)));
        assert!(Arc::ptr_eq(&served[0], &served[1]), "one resident entry");
        for q in &served {
            assert_eq!(q.prepared.eval_unranked(&t), batch);
        }
    }

    #[test]
    fn metrics_see_hits_misses_compiles_and_evictions() {
        let mut a = alphabet();
        let m = Metrics::new();
        let mut cache = QueryCache::new(1);
        cache.compile("label(v, a)", &mut a, Some(&m)).unwrap();
        cache.compile("label(v, a)", &mut a, Some(&m)).unwrap();
        cache.compile("label(v, b)", &mut a, Some(&m)).unwrap();
        assert_eq!(m.get(Counter::CacheHits), 1);
        assert_eq!(m.get(Counter::CacheMisses), 2);
        assert_eq!(m.get(Counter::QueryCompiles), 2);
        assert_eq!(m.get(Counter::CacheEvictions), 1);
    }
}
