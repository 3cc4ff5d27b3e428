//! Prometheus text exposition *parser* — the inverse of
//! [`metrics_text`](crate::metrics_text) / `qa_probe::export::prometheus_text`.
//!
//! The mesh coordinator scrapes each worker's `/metrics` and needs the
//! numbers back as a [`Metrics`] registry so that federation is literally
//! `Metrics::merge` — the same commutative operation that already makes
//! `--jobs N` byte-identical inside one process. [`parse_prometheus`]
//! parses the exposition into [`Scrape`] samples (names, label sets,
//! values); [`Scrape::to_metrics`] maps the `<prefix>_*` families back
//! onto [`Counter`]/[`Series`] and rebuilds the histograms from their
//! cumulative `le` buckets.
//!
//! The exposition does not carry a histogram's exact min/max (only
//! buckets, sum and count), so the rebuilt snapshot approximates them by
//! the occupied-bucket bounds. Renders never read min/max, which is what
//! makes the round trip exact at the exposition level:
//! `render(parse(render(m))) == render(m)`.

use qa_obs::metrics::HISTOGRAM_BUCKETS;
use qa_obs::stats::bucket_le;
use qa_obs::{Counter, HistogramSnapshot, Metrics, Series};

/// One sample line of an exposition: `name{labels} value`.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name (histogram samples keep their `_bucket`/`_sum`/`_count`
    /// suffix).
    pub name: String,
    /// Label pairs in appearance order (empty for unlabeled samples).
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
    /// Exact integer payload when the literal was a plain decimal `u64`.
    /// `f64` cannot represent integers above 2^53 exactly, but the
    /// workspace renderer emits registry counters and histogram sums as
    /// exact `u64` decimals — federation reads this field so the round
    /// trip stays lossless at any magnitude.
    pub exact: Option<u64>,
}

impl Sample {
    /// Value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The sample as an exact `u64`: the preserved decimal literal, or the
    /// float if it happens to be a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.exact.or_else(|| {
            (self.value >= 0.0 && self.value.fract() == 0.0 && self.value <= u64::MAX as f64)
                .then_some(self.value as u64)
        })
    }
}

/// A parsed exposition: every sample line, in document order. `# HELP` and
/// `# TYPE` comments are validated for shape but not retained — the sample
/// values are the payload federation needs.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    /// All samples, in document order.
    pub samples: Vec<Sample>,
}

impl Scrape {
    /// First sample named `name` (any labels).
    pub fn sample(&self, name: &str) -> Option<&Sample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Value of the unlabeled sample `name`, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.unlabeled(name).map(|s| s.value)
    }

    fn unlabeled(&self, name: &str) -> Option<&Sample> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
    }

    /// Rebuild a [`Metrics`] registry from the `<prefix>_*` families of
    /// this scrape: counters from `<prefix>_<name>_total`, histograms from
    /// `<prefix>_<series>_bucket`/`_sum`/`_count`. Families outside the
    /// prefix (build info, heap gauges, worker info metrics) are left
    /// behind — the coordinator reads those straight off the scrape, and
    /// keeping them out of the merged registry is what keeps the federated
    /// render independent of worker count.
    pub fn to_metrics(&self, prefix: &str) -> Result<Metrics, String> {
        let m = Metrics::new();
        for c in Counter::ALL {
            if let Some(s) = self.unlabeled(&format!("{prefix}_{}_total", c.name())) {
                let v = s.as_u64().ok_or_else(|| {
                    format!("counter {} has non-integer value {}", c.name(), s.value)
                })?;
                if v > 0 {
                    m.count(c, v);
                }
            }
        }
        for s in Series::ALL {
            if let Some(snap) = self.histogram(&format!("{prefix}_{}", s.name()))? {
                m.absorb_series(s, &snap);
            }
        }
        Ok(m)
    }

    /// Reassemble the histogram family `name` (no suffix) from its
    /// cumulative buckets, or `None` if the family has no samples (empty
    /// series are omitted from renders).
    fn histogram(&self, name: &str) -> Result<Option<HistogramSnapshot>, String> {
        let bucket_name = format!("{name}_bucket");
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let mut last_cumulative = 0u64;
        let mut saw_bucket = false;
        let mut inf = None;
        for s in self.samples.iter().filter(|s| s.name == bucket_name) {
            let le = s
                .label("le")
                .ok_or_else(|| format!("{bucket_name} sample without le label"))?;
            let cumulative = s
                .as_u64()
                .ok_or_else(|| format!("{bucket_name}{{le=\"{le}\"}} is not a u64"))?;
            if le == "+Inf" {
                inf = Some(cumulative);
                continue;
            }
            let idx = le_to_bucket_index(le)
                .ok_or_else(|| format!("{bucket_name} has non-canonical le {le:?}"))?;
            if cumulative < last_cumulative {
                return Err(format!("{bucket_name} buckets are not cumulative"));
            }
            buckets[idx] = cumulative - last_cumulative;
            last_cumulative = cumulative;
            saw_bucket = true;
        }
        let count = self
            .unlabeled(&format!("{name}_count"))
            .and_then(Sample::as_u64);
        let sum = self
            .unlabeled(&format!("{name}_sum"))
            .and_then(Sample::as_u64);
        let (count, sum) = match (count, sum) {
            (Some(c), Some(s)) => (c, s),
            (None, None) if !saw_bucket => return Ok(None),
            _ => return Err(format!("histogram {name} is missing _sum/_count")),
        };
        if let Some(inf) = inf {
            if inf != count {
                return Err(format!(
                    "histogram {name}: le=\"+Inf\" bucket {inf} != count {count}"
                ));
            }
        }
        // The tail above the last rendered bucket: renders drop empty
        // trailing buckets, so anything between the last cumulative value
        // and the count belongs past the rendered range — impossible for
        // our own renderer, so reject it rather than guess a bucket.
        if last_cumulative != count {
            return Err(format!(
                "histogram {name}: buckets cover {last_cumulative} of {count} samples"
            ));
        }
        // min/max are not part of the exposition; approximate them by the
        // bounds of the occupied buckets (render-invisible, see module doc).
        let first = buckets.iter().position(|&b| b != 0);
        let last = buckets.iter().rposition(|&b| b != 0);
        let (min, max) = match (first, last) {
            (Some(f), Some(l)) => (bucket_lower_bound(f), bucket_le(l)),
            _ => (0, 0),
        };
        Ok(Some(HistogramSnapshot {
            buckets,
            count,
            sum,
            min,
            max,
        }))
    }
}

/// Inverse of the renderer's `bucket_le`: `"0"` → bucket 0, `"2^i - 1"` →
/// bucket `i`. Returns `None` for any other boundary.
fn le_to_bucket_index(le: &str) -> Option<usize> {
    let v: u64 = le.parse().ok()?;
    if v == 0 {
        return Some(0);
    }
    let succ = v.checked_add(1)?;
    if !succ.is_power_of_two() {
        return None;
    }
    let idx = succ.trailing_zeros() as usize;
    (idx < HISTOGRAM_BUCKETS).then_some(idx)
}

/// Smallest value mapped to bucket `i` (0, then `2^(i-1)`).
fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Parse Prometheus text exposition into a [`Scrape`].
///
/// Accepts exactly the dialect the workspace renders (and
/// [`validate_prometheus`](crate::validate_prometheus) checks): `# HELP` /
/// `# TYPE` comments, and `name{labels} value` samples with the three
/// standard label escapes (`\\`, `\"`, `\n`).
pub fn parse_prometheus(text: &str) -> Result<Scrape, String> {
    let mut samples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.trim_start().splitn(2, ' ');
            let kind = parts.next().unwrap_or("");
            if kind != "TYPE" && kind != "HELP" {
                return Err(format!("line {lineno}: unknown comment kind {kind:?}"));
            }
            continue;
        }
        samples.push(parse_sample(line).map_err(|e| format!("line {lineno}: {e}"))?);
    }
    Ok(Scrape { samples })
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => (&line[..brace], &line[brace..]),
        None => {
            let (name, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| "sample has no value".to_string())?;
            let (value, exact) = parse_value(value)?;
            return Ok(Sample {
                name: name.to_string(),
                labels: Vec::new(),
                value,
                exact,
            });
        }
    };
    let (labels, after) = parse_labels(rest)?;
    let (value, exact) = parse_value(after.trim_start())?;
    Ok(Sample {
        name: name_part.to_string(),
        labels,
        value,
        exact,
    })
}

fn parse_value(v: &str) -> Result<(f64, Option<u64>), String> {
    match v {
        "+Inf" => return Ok((f64::INFINITY, None)),
        "-Inf" => return Ok((f64::NEG_INFINITY, None)),
        _ => {}
    }
    if let Ok(exact) = v.parse::<u64>() {
        return Ok((exact as f64, Some(exact)));
    }
    v.parse::<f64>()
        .map(|f| (f, None))
        .map_err(|_| format!("bad value {v:?}"))
}

/// Label pairs in appearance order.
type Labels = Vec<(String, String)>;

/// Parse `{k="v",…}` (with exposition escapes) at the start of `s`;
/// returns the pairs and the remainder after the closing brace.
fn parse_labels(s: &str) -> Result<(Labels, &str), String> {
    let mut chars = s.char_indices();
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err("labels must start with '{'".to_string()),
    }
    let mut labels = Vec::new();
    let mut rest = &s[1..];
    loop {
        rest = rest.trim_start_matches(',');
        if let Some(after) = rest.strip_prefix('}') {
            return Ok((labels, after));
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| "label without '='".to_string())?;
        let key = rest[..eq].to_string();
        if key.is_empty() {
            return Err("empty label name".to_string());
        }
        let mut value = String::new();
        let mut it = rest[eq + 1..].char_indices();
        match it.next() {
            Some((_, '"')) => {}
            _ => return Err(format!("label {key} value is not quoted")),
        }
        let consumed = loop {
            match it.next() {
                None => return Err(format!("label {key} value is unterminated")),
                Some((j, '"')) => break eq + 1 + j + 1,
                Some((_, '\\')) => match it.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => return Err(format!("bad escape in label {key}: {other:?}")),
                },
                Some((_, c)) => value.push(c),
            }
        };
        labels.push((key, value));
        rest = &rest[consumed..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_obs::Observer;

    #[test]
    fn parses_samples_labels_and_escapes() {
        let text = "# HELP x help text here\n\
                    # TYPE x counter\n\
                    x 41\n\
                    y{a=\"1\",b=\"q\\\"uo\\\\te\\n\"} 2.5\n\
                    z{le=\"+Inf\"} +Inf\n";
        let scrape = parse_prometheus(text).expect("parses");
        assert_eq!(scrape.value("x"), Some(41.0));
        let y = scrape.sample("y").unwrap();
        assert_eq!(y.label("a"), Some("1"));
        assert_eq!(y.label("b"), Some("q\"uo\\te\n"));
        assert_eq!(y.value, 2.5);
        assert!(scrape.sample("z").unwrap().value.is_infinite());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_prometheus("novalue\n").is_err());
        assert!(parse_prometheus("x{a=\"unterminated} 1\n").is_err());
        assert!(parse_prometheus("x{a=1} 1\n").is_err());
        assert!(parse_prometheus("x nan?\n").is_err());
        assert!(parse_prometheus("# WAT x\n").is_err());
    }

    #[test]
    fn le_boundaries_invert_the_renderer() {
        assert_eq!(le_to_bucket_index("0"), Some(0));
        assert_eq!(le_to_bucket_index("1"), Some(1));
        assert_eq!(le_to_bucket_index("3"), Some(2));
        assert_eq!(le_to_bucket_index("7"), Some(3));
        assert_eq!(le_to_bucket_index("2"), None);
        assert_eq!(le_to_bucket_index("x"), None);
    }

    fn workload() -> Metrics {
        let m = Metrics::new();
        let mut o = m.observer();
        o.count(Counter::Steps, 1234);
        o.count(Counter::CacheHits, 9);
        for v in [0u64, 1, 1, 5, 16, 300, 301, 40_000] {
            o.record(Series::TraceLength, v);
            o.record(Series::RunSteps, v * 3);
        }
        m
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let m = workload();
        let rendered = qa_probe::export::prometheus_text(&m, "qa_fleet");
        let scrape = parse_prometheus(&rendered).expect("own render parses");
        let rebuilt = scrape.to_metrics("qa_fleet").expect("maps onto Metrics");
        assert_eq!(
            qa_probe::export::prometheus_text(&rebuilt, "qa_fleet"),
            rendered,
            "render(parse(render(m))) must equal render(m)"
        );
        // And the parsed totals are the original totals.
        assert_eq!(rebuilt.get(Counter::Steps), 1234);
        let h = rebuilt.histogram(Series::TraceLength);
        assert_eq!((h.count, h.sum), (8, 40_624));
    }

    #[test]
    fn merge_of_parsed_scrapes_equals_parse_of_merged_registry() {
        // Federation correctness in one assertion: scraping two workers
        // and merging the parsed registries gives the same exposition as
        // one registry that saw both workloads.
        let (a, b) = (workload(), workload());
        b.count(Counter::Steps, 766); // make the shards unequal
        b.record(Series::WitnessSize, 12);

        let direct = Metrics::new();
        direct.merge(&a);
        direct.merge(&b);

        let federated = Metrics::new();
        for w in [&a, &b] {
            let text = qa_probe::export::prometheus_text(w, "qa_fleet");
            let parsed = parse_prometheus(&text)
                .unwrap()
                .to_metrics("qa_fleet")
                .unwrap();
            federated.merge(&parsed);
        }
        assert_eq!(
            qa_probe::export::prometheus_text(&federated, "qa_fleet"),
            qa_probe::export::prometheus_text(&direct, "qa_fleet"),
        );
    }

    #[test]
    fn foreign_families_stay_out_of_the_registry() {
        let text = "# TYPE qa_build_info gauge\n\
                    qa_build_info{version=\"0.1.0\",rustc=\"x\"} 1\n\
                    # TYPE qa_fleet_worker_info gauge\n\
                    qa_fleet_worker_info{shard=\"0/2\",worker_id=\"w0\"} 1\n\
                    # TYPE qa_fleet_steps_total counter\n\
                    qa_fleet_steps_total 7\n";
        let scrape = parse_prometheus(text).unwrap();
        let m = scrape.to_metrics("qa_fleet").unwrap();
        assert_eq!(m.get(Counter::Steps), 7);
        assert!(m.infos().is_empty(), "info gauges are not merged");
        // …but the coordinator can still read the worker labels off the scrape.
        let info = scrape.sample("qa_fleet_worker_info").unwrap();
        assert_eq!(info.label("shard"), Some("0/2"));
    }

    #[test]
    fn inconsistent_histograms_are_rejected() {
        let bad_count = "qa_x_run_steps_bucket{le=\"0\"} 2\n\
                         qa_x_run_steps_bucket{le=\"+Inf\"} 2\n\
                         qa_x_run_steps_sum 0\n\
                         qa_x_run_steps_count 3\n";
        assert!(parse_prometheus(bad_count)
            .unwrap()
            .to_metrics("qa_x")
            .is_err());
        let not_cumulative = "qa_x_run_steps_bucket{le=\"0\"} 2\n\
                              qa_x_run_steps_bucket{le=\"1\"} 1\n\
                              qa_x_run_steps_sum 0\n\
                              qa_x_run_steps_count 2\n";
        assert!(parse_prometheus(not_cumulative)
            .unwrap()
            .to_metrics("qa_x")
            .is_err());
    }
}
