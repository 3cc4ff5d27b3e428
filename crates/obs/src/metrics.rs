//! The shared [`Metrics`] registry: atomic counters plus fixed-bucket
//! histograms, serializable to JSON by hand.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::{self, ObjectWriter};
use crate::observer::{Counter, Observer, Series};

/// Label set of one info metric: sorted `key → value` pairs.
pub type InfoLabels = BTreeMap<String, String>;

/// Buckets per histogram: bucket 0 holds the value 0, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)`, and the last bucket absorbs the tail.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A lock-free power-of-two histogram.
///
/// All updates use relaxed atomics: the registry tracks aggregate workload
/// statistics, not synchronization-sensitive state, and relaxed increments
/// keep the observed hot loops cheap.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for `value` under the power-of-two scheme.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        let i = 64 - value.leading_zeros() as usize;
        i.min(HISTOGRAM_BUCKETS - 1)
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Fold a snapshot's samples into this histogram, as if every sample it
    /// aggregates had been [`Histogram::record`]ed here.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        if snap.count == 0 {
            return;
        }
        for (b, &n) in self.buckets.iter().zip(snap.buckets.iter()) {
            if n != 0 {
                b.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.min.fetch_min(snap.min, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the current totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`]; the default is
/// [`HistogramSnapshot::empty`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sample counts per power-of-two bucket (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Empty snapshot — the identity of [`HistogramSnapshot::merge`].
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    /// Combine two snapshots into the snapshot that one histogram fed with
    /// both sample sets would produce. Associative and commutative, with
    /// [`HistogramSnapshot::empty`] as identity.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        if self.count == 0 {
            return other.clone();
        }
        if other.count == 0 {
            return self.clone();
        }
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            count: self.count + other.count,
            sum: self.sum + other.sum,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Record one sample, exactly as [`Histogram::record`] would.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
        // Wrapping, like the registry's relaxed `fetch_add`s.
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// Arithmetic mean of the samples, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn write_json(&self, w: &mut ObjectWriter) {
        w.field_u64("count", self.count);
        w.field_u64("sum", self.sum);
        w.field_u64("min", self.min);
        w.field_u64("max", self.max);
        w.field_f64("mean", self.mean());
        // Drop the empty tail so reports stay short.
        let used = HISTOGRAM_BUCKETS - self.buckets.iter().rev().take_while(|&&b| b == 0).count();
        w.field_u64_array("buckets", self.buckets[..used].iter().copied());
    }
}

/// Registry of every [`Counter`] and [`Series`] histogram, shareable across
/// threads (all interior mutability is relaxed atomics).
#[derive(Debug, Default)]
pub struct Metrics {
    counters: [AtomicU64; Counter::COUNT],
    series: [Histogram; Series::COUNT],
    /// Labeled info metrics (`name{k="v",…} 1` in Prometheus renderings):
    /// constant-`1` gauges whose payload lives in their labels, the idiom
    /// `qa_build_info` uses for build metadata and mesh workers use for
    /// `shard`/`worker_id` correlation. Keyed by metric name; merge unions.
    infos: Mutex<BTreeMap<String, InfoLabels>>,
}

impl Metrics {
    /// Fresh registry with everything at zero.
    pub fn new() -> Self {
        Metrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            series: std::array::from_fn(|_| Histogram::default()),
            infos: Mutex::new(BTreeMap::new()),
        }
    }

    /// Bump `counter` by `n`.
    #[inline]
    pub fn count(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Record one sample into `series`.
    #[inline]
    pub fn record(&self, series: Series, value: u64) {
        self.series[series.index()].record(value);
    }

    /// Snapshot of the histogram behind `series`.
    pub fn histogram(&self, series: Series) -> HistogramSnapshot {
        self.series[series.index()].snapshot()
    }

    /// Fold a whole snapshot into the histogram behind `series`, as if
    /// every sample it aggregates had been recorded here — the entry point
    /// for rebuilding a registry from a parsed scrape.
    pub fn absorb_series(&self, series: Series, snap: &HistogramSnapshot) {
        self.series[series.index()].absorb(snap);
    }

    /// Set (or replace) the labeled info metric `name`. Rendered by the
    /// Prometheus exporter as a constant-`1` gauge carrying `labels`;
    /// label order is canonicalized by key, so renders are deterministic.
    pub fn set_info(&self, name: &str, labels: impl IntoIterator<Item = (String, String)>) {
        self.infos
            .lock()
            .expect("infos lock poisoned")
            .insert(name.to_string(), labels.into_iter().collect());
    }

    /// All info metrics, sorted by name.
    pub fn infos(&self) -> Vec<(String, InfoLabels)> {
        self.infos
            .lock()
            .expect("infos lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Borrow an [`Observer`] that feeds this registry.
    pub fn observer(&self) -> MetricsObserver<'_> {
        MetricsObserver { metrics: self }
    }

    /// Fold `other`'s totals into this registry, so per-run or per-thread
    /// registries can be combined into one multi-run profile. Counters add;
    /// histograms merge sample-exactly (same result as recording every
    /// sample here); info metrics union (last write wins per name, so the
    /// union commutes whenever the names or the label sets agree).
    /// Associative and commutative up to snapshot timing.
    pub fn merge(&self, other: &Metrics) {
        for c in Counter::ALL {
            let v = other.get(c);
            if v != 0 {
                self.count(c, v);
            }
        }
        for s in Series::ALL {
            self.series[s.index()].absorb(&other.histogram(s));
        }
        for (name, labels) in other.infos() {
            self.infos
                .lock()
                .expect("infos lock poisoned")
                .insert(name, labels);
        }
    }

    /// Fold a per-job [`Tally`] into this registry, with the same result as
    /// if every event it counted had been sent here directly.
    pub fn absorb(&self, tally: &Tally) {
        for c in Counter::ALL {
            let v = tally.get(c);
            if v != 0 {
                self.count(c, v);
            }
        }
        for s in Series::ALL {
            self.series[s.index()].absorb(tally.histogram(s));
        }
    }

    /// Reset every counter and histogram to zero.
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for h in &self.series {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
            h.min.store(u64::MAX, Ordering::Relaxed);
            h.max.store(0, Ordering::Relaxed);
        }
        self.infos.lock().expect("infos lock poisoned").clear();
    }

    /// Serialize the registry:
    /// `{"counters": {name: value, …}, "series": {name: {count, sum, min,
    /// max, mean, buckets}, …}}`. Counters at zero and empty series are
    /// omitted; an `"infos"` object is appended only when info metrics are
    /// set, so reports without them keep the historical two-field shape.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            let counters = json::object(|cw| {
                for c in Counter::ALL {
                    let v = self.get(c);
                    if v != 0 {
                        cw.field_u64(c.name(), v);
                    }
                }
            });
            w.field_raw("counters", &counters);
            let series = json::object(|sw| {
                for s in Series::ALL {
                    let snap = self.histogram(s);
                    if snap.count != 0 {
                        sw.field_raw(s.name(), &json::object(|hw| snap.write_json(hw)));
                    }
                }
            });
            w.field_raw("series", &series);
            let infos = self.infos();
            if !infos.is_empty() {
                let rendered = json::object(|iw| {
                    for (name, labels) in &infos {
                        iw.field_raw(
                            name,
                            &json::object(|lw| {
                                for (k, v) in labels {
                                    lw.field_str(k, v);
                                }
                            }),
                        );
                    }
                });
                w.field_raw("infos", &rendered);
            }
        })
    }
}

/// [`Observer`] adapter writing into a shared [`Metrics`] registry.
#[derive(Debug)]
pub struct MetricsObserver<'a> {
    metrics: &'a Metrics,
}

impl Observer for MetricsObserver<'_> {
    #[inline]
    fn count(&mut self, counter: Counter, n: u64) {
        self.metrics.count(counter, n);
    }

    #[inline]
    fn record(&mut self, series: Series, value: u64) {
        self.metrics.record(series, value);
    }
}

/// Plain single-threaded [`Observer`] counting one job: one `u64` per
/// [`Counter`] and one [`HistogramSnapshot`] per [`Series`], with no atomics.
/// A job counts here and folds into a shared registry once, with
/// [`Metrics::absorb`], instead of paying an atomic per event.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    counters: [u64; Counter::COUNT],
    series: [HistogramSnapshot; Series::COUNT],
}

impl Tally {
    /// Fresh tally with everything at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// The samples recorded into `series`.
    pub fn histogram(&self, series: Series) -> &HistogramSnapshot {
        &self.series[series.index()]
    }
}

impl Observer for Tally {
    #[inline]
    fn count(&mut self, counter: Counter, n: u64) {
        let slot = &mut self.counters[counter.index()];
        *slot = slot.wrapping_add(n);
    }

    #[inline]
    fn record(&mut self, series: Series, value: u64) {
        self.series[series.index()].record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn counter_arithmetic() {
        let m = Metrics::new();
        m.count(Counter::Steps, 3);
        m.count(Counter::Steps, 4);
        m.count(Counter::BudgetTrips, 1);
        assert_eq!(m.get(Counter::Steps), 7);
        assert_eq!(m.get(Counter::BudgetTrips), 1);
        assert_eq!(m.get(Counter::HeadReversals), 0);
        m.reset();
        assert_eq!(m.get(Counter::Steps), 0);
    }

    #[test]
    fn histogram_arithmetic() {
        let m = Metrics::new();
        for v in [0u64, 1, 1, 5, 16] {
            m.record(Series::TraceLength, v);
        }
        let h = m.histogram(Series::TraceLength);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 23);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 16);
        assert!((h.mean() - 4.6).abs() < 1e-9);
        assert_eq!(h.buckets[0], 1); // the 0
        assert_eq!(h.buckets[1], 2); // the two 1s
        assert_eq!(h.buckets[3], 1); // 5 ∈ [4, 8)
        assert_eq!(h.buckets[5], 1); // 16 ∈ [16, 32)
    }

    #[test]
    fn empty_histogram_min_is_zero() {
        let h = Metrics::new().histogram(Series::RunSteps);
        assert_eq!((h.count, h.min, h.max), (0, 0, 0));
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn json_shape_omits_zeroes() {
        let m = Metrics::new();
        assert_eq!(m.to_json(), r#"{"counters":{},"series":{}}"#);
        m.count(Counter::Steps, 11);
        m.record(Series::TraceLength, 1);
        m.record(Series::TraceLength, 3);
        let j = m.to_json();
        assert_eq!(
            j,
            concat!(
                r#"{"counters":{"steps":11},"#,
                r#""series":{"trace_length":{"count":2,"sum":4,"min":1,"max":3,"#,
                r#""mean":2.0,"buckets":[0,1,1]}}}"#
            )
        );
    }

    /// A registry fed with a deterministic workload derived from `seed`.
    fn workload(seed: u64) -> Metrics {
        let m = Metrics::new();
        let mut x = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        for _ in 0..20 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let c = Counter::ALL[(x >> 32) as usize % Counter::COUNT];
            m.count(c, x % 100);
            let s = Series::ALL[(x >> 48) as usize % Series::COUNT];
            m.record(s, x % 1000);
        }
        m
    }

    fn full_snapshot(m: &Metrics) -> (Vec<u64>, Vec<HistogramSnapshot>) {
        (
            Counter::ALL.iter().map(|&c| m.get(c)).collect(),
            Series::ALL.iter().map(|&s| m.histogram(s)).collect(),
        )
    }

    #[test]
    fn merge_is_associative() {
        let (a, b, c) = (workload(1), workload(2), workload(3));

        // (a ⊕ b) ⊕ c
        let left = Metrics::new();
        left.merge(&a);
        left.merge(&b);
        let left_outer = Metrics::new();
        left_outer.merge(&left);
        left_outer.merge(&c);

        // a ⊕ (b ⊕ c)
        let right = Metrics::new();
        right.merge(&b);
        right.merge(&c);
        let right_outer = Metrics::new();
        right_outer.merge(&a);
        right_outer.merge(&right);

        assert_eq!(full_snapshot(&left_outer), full_snapshot(&right_outer));
    }

    #[test]
    fn merge_matches_direct_recording() {
        // Recording samples into two registries and merging them must be
        // indistinguishable from recording everything into one registry.
        let direct = Metrics::new();
        let (a, b) = (Metrics::new(), Metrics::new());
        for (i, v) in [0u64, 1, 1, 5, 16, 300, 7, 7].iter().enumerate() {
            let side = if i % 2 == 0 { &a } else { &b };
            side.record(Series::MachineStates, *v);
            side.count(Counter::Steps, *v);
            direct.record(Series::MachineStates, *v);
            direct.count(Counter::Steps, *v);
        }
        let merged = Metrics::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(full_snapshot(&merged), full_snapshot(&direct));
    }

    #[test]
    fn absorbed_tallies_match_direct_recording() {
        // A seeded random stream of count/record calls: one copy feeds a
        // registry event by event, the other is split over two tallies
        // folded in at the end, the second on top of the first's totals.
        for seed in 0..16u64 {
            let direct = Metrics::new();
            let mut tallies = [Tally::new(), Tally::new()];
            let mut x = seed.wrapping_mul(2862933555777941757) ^ 0x9e37_79b9_7f4a_7c15;
            for _ in 0..500 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Small values, power-of-two edges and the occasional
                // huge sample, so every bucket and the tail get traffic.
                let v = match x >> 61 {
                    0 => 0,
                    1 => 1u64 << ((x >> 8) % 64),
                    2 => u64::MAX - (x >> 40) % 3,
                    _ => (x >> 16) % 10_000,
                };
                let tally = &mut tallies[(x >> 32) as usize & 1];
                if (x >> 33) & 1 == 0 {
                    let c = Counter::ALL[(x >> 34) as usize % Counter::COUNT];
                    direct.observer().count(c, v);
                    tally.count(c, v);
                } else {
                    let s = Series::ALL[(x >> 34) as usize % Series::COUNT];
                    direct.observer().record(s, v);
                    tally.record(s, v);
                }
            }
            let absorbed = Metrics::new();
            for tally in &tallies {
                absorbed.absorb(tally);
            }
            assert_eq!(
                full_snapshot(&absorbed),
                full_snapshot(&direct),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn snapshot_merge_associative_with_identity() {
        let snap = |m: &Metrics| m.histogram(Series::TraceLength);
        let (a, b, c) = (workload(4), workload(5), workload(6));
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));
        assert_eq!(sa.merge(&sb).merge(&sc), sa.merge(&sb.merge(&sc)));
        assert_eq!(sa.merge(&HistogramSnapshot::empty()), sa);
        assert_eq!(HistogramSnapshot::empty().merge(&sa), sa);
        // min survives the empty-identity special case
        let m = Metrics::new();
        m.record(Series::TraceLength, 9);
        let s = snap(&m);
        assert_eq!(s.merge(&HistogramSnapshot::empty()).min, 9);
    }

    #[test]
    fn info_metrics_union_on_merge_and_clear_on_reset() {
        let a = Metrics::new();
        a.set_info(
            "qa_worker_info",
            [("worker_id".to_string(), "w0".to_string())],
        );
        let b = Metrics::new();
        b.set_info("qa_run_info", [("run_id".to_string(), "r1".to_string())]);
        a.merge(&b);
        let names: Vec<String> = a.infos().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["qa_run_info", "qa_worker_info"]);
        let j = a.to_json();
        assert!(
            j.contains(r#""infos":{"qa_run_info":{"run_id":"r1"}"#),
            "{j}"
        );
        a.reset();
        assert!(a.infos().is_empty());
        assert!(!a.to_json().contains("infos"));
    }

    #[test]
    fn absorb_series_rebuilds_a_snapshot() {
        let src = Metrics::new();
        for v in [1u64, 5, 16] {
            src.record(Series::RunSteps, v);
        }
        let dst = Metrics::new();
        dst.absorb_series(Series::RunSteps, &src.histogram(Series::RunSteps));
        assert_eq!(
            dst.histogram(Series::RunSteps),
            src.histogram(Series::RunSteps)
        );
    }

    #[test]
    fn observer_feeds_registry() {
        let m = Metrics::new();
        {
            let mut o = m.observer();
            o.count(Counter::StayRounds, 2);
            o.record(Series::StaysPerNode, 9);
        }
        assert_eq!(m.get(Counter::StayRounds), 2);
        assert_eq!(m.histogram(Series::StaysPerNode).max, 9);
    }
}
