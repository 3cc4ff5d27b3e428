//! [`QueryCache`]: compile-once caching of MSO queries, keyed by formula
//! hash and alphabet size.
//!
//! Compiling an MSO formula to a query automaton is the expensive,
//! non-elementary direction of the paper's equivalence; evaluating the
//! compiled automaton is linear per document (Figure 6). A serving
//! daemon therefore compiles once and evaluates many times: the cache
//! key is `(FNV-1a(formula), σ)` where `σ` is the shared alphabet size
//! *after* parsing the formula. The `σ` component is what keeps a
//! growing document store sound — ingesting a document with fresh
//! labels bumps `σ`, old entries stop matching, and the next request
//! recompiles against the larger alphabet instead of running an
//! automaton that has never seen the new symbols.
//!
//! Compilation is deterministic, so a recompile after eviction (or a
//! cold restart) yields the same automaton and byte-identical query
//! results — the cache changes latency, never answers.

use std::collections::BTreeMap;
use std::sync::Arc;

use qa_base::{Alphabet, Error, Result};
use qa_mso::{parse, PreparedUnary};
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
        let text = formula.trim();
        let hash = qa_obs::fnv1a64(text.as_bytes());
        // Parse first: it interns the formula's labels, fixing the σ the
        // compiled automaton must cover. Parsing is linear in the formula
        // and idempotent on the alphabet, so paying it on hits too keeps
        // the key exact.
        let parsed = parse(text, alphabet)?;
        let sigma = alphabet.len();
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&(hash, sigma)) {
            entry.last_used = self.tick;
            entry.hits += 1;
            self.hits += 1;
            if let Some(m) = metrics {
                m.count(Counter::CacheHits, 1);
            }
            return Ok(Arc::clone(&entry.query));
        }
        self.misses += 1;
        if let Some(m) = metrics {
            m.count(Counter::CacheMisses, 1);
        }
        let free = parsed.free_vars();
        let node_vars: Vec<&String> = free
            .iter()
            .filter(|v| v.chars().next().is_some_and(|c| c.is_lowercase()))
            .collect();
        let var = match (node_vars.as_slice(), free.len()) {
            ([v], 1) => (*v).clone(),
            _ => {
                let msg = format!(
                    "a unary query needs exactly one free node variable, found {free:?} in `{text}`"
                );
                return Err(Error::parse("query", msg));
            }
        };
        let automaton = qa_mso::unranked::compile_unary(&parsed, &var, sigma)?;
        let states = automaton.num_states();
        let prepared = PreparedUnary::new(&automaton, sigma);
        if let Some(m) = metrics {
            m.count(Counter::QueryCompiles, 1);
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
        let query = Arc::new(CompiledQuery {
            formula: text.to_string(),
            hash,
            var,
            sigma,
            states,
            prepared,
        });
        self.entries.insert(
            (hash, sigma),
            Entry {
                query: Arc::clone(&query),
                last_used: self.tick,
                hits: 0,
            },
        );
        Ok(query)
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
