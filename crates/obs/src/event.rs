//! [`JobEvent`]: one wide, structured event per (query, document) job.
//!
//! The metrics registry answers "how much work did the fleet do"; a flight
//! ring answers "what happened right before this process died". Neither
//! answers the serving question — *which query on which document was
//! slow, and why*. The wide event does: every job emits exactly one JSON
//! line into `events.jsonl` carrying its identity (run/trace/span ids),
//! its placement (worker, shard), its document's shape, its exact work
//! counters, and its outcome.
//!
//! This module is the only place that knows the event's schema: the fleet
//! and the serving daemon write it, and the mesh federation, the offline
//! analyses and the SLO replay all read it back through
//! [`JobEvent::from_json`].
//!
//! ## The determinism discipline
//!
//! Following the `metrics.prom` discipline, every field is deterministic —
//! byte-identical across reruns, `--jobs N` and `--mesh N` — **except** the
//! trailing *volatile* fields ([`VOLATILE_FIELDS`]): `worker` and `shard`
//! (placement facts that legitimately differ across fleet topologies) and
//! `start_ns` / `wall_ns` (wall-clock). Volatile fields are always written
//! last, so the deterministic prefix of each line is stable, and
//! [`identity_projection`] strips them for the byte-identity gates.

use crate::json::{self, Value};

/// The trailing per-line fields excluded from the determinism contract:
/// placement (`worker`, `shard`) and wall-clock (`start_ns`, `wall_ns`).
pub const VOLATILE_FIELDS: [&str; 4] = ["worker", "shard", "start_ns", "wall_ns"];

/// One job's wide event — the unit of `events.jsonl`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobEvent {
    /// Fleet run id (shared by every process of one logical run).
    pub run: String,
    /// Trace id, 16 hex digits ([`crate::TraceContext::mint`] on
    /// `(run, job)`).
    pub trace: String,
    /// Span id of this evaluation, 16 hex digits.
    pub span: String,
    /// Global job index in the (query × doc) grid.
    pub job: usize,
    /// Workload (query) name, e.g. `example-5-9`.
    pub query: String,
    /// Query index into the roster.
    pub query_index: usize,
    /// Document index within the query's corpus slice.
    pub doc_index: usize,
    /// Document size: word length or tree node count.
    pub doc_nodes: usize,
    /// Document height: 0 for words, tree height otherwise.
    pub doc_depth: usize,
    /// Engine steps the job consumed.
    pub steps: u64,
    /// Two-way head reversals.
    pub reversals: u64,
    /// Behavior-cache hits.
    pub cache_hits: u64,
    /// Behavior-cache misses.
    pub cache_misses: u64,
    /// Watchdog budget trips (0 on a clean run).
    pub budget_trips: u64,
    /// Positions/nodes the query selected.
    pub selected: usize,
    /// Whether the fleet's `OneInN` sampler admitted this job. The
    /// fleet's reservoir then picks which admitted jobs record a full
    /// trace, so an admitted job is not necessarily a traced one.
    pub sampled: bool,
    /// `"ok"`, or the run error rendering (e.g. a budget abort).
    pub outcome: String,
    /// Worker id that executed the job (volatile; `local` in-process).
    pub worker: String,
    /// Shard spec `i/n` (volatile; `0/1` in-process).
    pub shard: String,
    /// Job start, nanoseconds since this worker's fleet started (volatile).
    pub start_ns: u64,
    /// Job latency in nanoseconds (volatile).
    pub wall_ns: u64,
}

impl JobEvent {
    /// Whether the job ended in an error rather than `"ok"`.
    pub fn failed(&self) -> bool {
        self.outcome != "ok"
    }

    /// Serialize the full event as one JSON object (one JSONL line, no
    /// trailing newline). Deterministic fields first, volatile fields last.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            self.write_identity(w);
            w.field_str("worker", &self.worker);
            w.field_str("shard", &self.shard);
            w.field_u64("start_ns", self.start_ns);
            w.field_u64("wall_ns", self.wall_ns);
        })
    }

    /// Serialize only the deterministic fields — the identity the
    /// byte-identity gates compare across `--jobs N` and `--mesh N`.
    pub fn identity_json(&self) -> String {
        json::object(|w| self.write_identity(w))
    }

    fn write_identity(&self, w: &mut json::ObjectWriter) {
        w.field_u64("v", 1);
        w.field_str("run", &self.run);
        w.field_str("trace", &self.trace);
        w.field_str("span", &self.span);
        w.field_u64("job", self.job as u64);
        w.field_str("query", &self.query);
        w.field_u64("query_index", self.query_index as u64);
        w.field_u64("doc_index", self.doc_index as u64);
        w.field_u64("doc_nodes", self.doc_nodes as u64);
        w.field_u64("doc_depth", self.doc_depth as u64);
        w.field_u64("steps", self.steps);
        w.field_u64("reversals", self.reversals);
        w.field_u64("cache_hits", self.cache_hits);
        w.field_u64("cache_misses", self.cache_misses);
        w.field_u64("budget_trips", self.budget_trips);
        w.field_u64("selected", self.selected as u64);
        w.field_bool("sampled", self.sampled);
        w.field_str("outcome", &self.outcome);
    }

    /// Parse one event back from its parsed JSON document — the inverse of
    /// [`JobEvent::to_json`]. Volatile fields default (`local`, `0/1`, 0)
    /// when absent, so identity projections parse too.
    pub fn from_json(v: &Value) -> Result<JobEvent, String> {
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("event missing string field `{key}`"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("event missing integer field `{key}`"))
        };
        let version = u64_field("v")?;
        if version != 1 {
            return Err(format!("unsupported event version {version}"));
        }
        Ok(JobEvent {
            run: str_field("run")?,
            trace: str_field("trace")?,
            span: str_field("span")?,
            job: u64_field("job")? as usize,
            query: str_field("query")?,
            query_index: u64_field("query_index")? as usize,
            doc_index: u64_field("doc_index")? as usize,
            doc_nodes: u64_field("doc_nodes")? as usize,
            doc_depth: u64_field("doc_depth")? as usize,
            steps: u64_field("steps")?,
            reversals: u64_field("reversals")?,
            cache_hits: u64_field("cache_hits")?,
            cache_misses: u64_field("cache_misses")?,
            budget_trips: u64_field("budget_trips")?,
            selected: u64_field("selected")? as usize,
            sampled: match v.get("sampled") {
                Some(Value::Bool(b)) => *b,
                _ => return Err("event missing boolean field `sampled`".to_string()),
            },
            outcome: str_field("outcome")?,
            worker: opt_str(v, "worker", "local"),
            shard: opt_str(v, "shard", "0/1"),
            start_ns: v.get("start_ns").and_then(Value::as_u64).unwrap_or(0),
            wall_ns: v.get("wall_ns").and_then(Value::as_u64).unwrap_or(0),
        })
    }

    /// Parse one `events.jsonl` line.
    pub fn from_jsonl_line(line: &str) -> Result<JobEvent, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        JobEvent::from_json(&v)
    }
}

fn opt_str(v: &Value, key: &str, default: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or(default)
        .to_string()
}

/// Parse a whole `events.jsonl` document (one event per non-empty line).
/// A malformed line fails with its 1-based line number.
pub fn parse_events(jsonl: &str) -> Result<Vec<JobEvent>, String> {
    jsonl
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| JobEvent::from_jsonl_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Render events as an `events.jsonl` document: one [`JobEvent::to_json`]
/// line each, newline-terminated, in the given order.
pub fn render_events(events: &[JobEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    out
}

/// Project an `events.jsonl` document onto its deterministic fields: parse
/// every line, drop the volatile tail, and re-render. Two fleets over the
/// same corpus must agree on this projection byte for byte, whatever their
/// `--jobs` or `--mesh` topology.
pub fn identity_projection(jsonl: &str) -> Result<String, String> {
    let mut out = String::new();
    for ev in parse_events(jsonl)? {
        out.push_str(&ev.identity_json());
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceContext;
    use qa_base::rng::{Rng, StdRng};

    fn sample_event(job: usize) -> JobEvent {
        let ctx = TraceContext::mint("fleet-s7-q4x4-z48", job);
        JobEvent {
            run: "fleet-s7-q4x4-z48".to_string(),
            trace: ctx.trace_hex(),
            span: ctx.span_hex(),
            job,
            query: "example-5-9".to_string(),
            query_index: 2,
            doc_index: job % 4,
            doc_nodes: 48,
            doc_depth: 6,
            steps: 1234,
            reversals: 7,
            cache_hits: 3,
            cache_misses: 9,
            budget_trips: 0,
            selected: 11,
            sampled: job.is_multiple_of(2),
            outcome: "ok".to_string(),
            worker: "w1".to_string(),
            shard: "1/2".to_string(),
            start_ns: 55,
            wall_ns: 777,
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let ev = sample_event(3);
        let back = JobEvent::from_jsonl_line(&ev.to_json()).expect("parses");
        assert_eq!(back, ev);
    }

    #[test]
    fn volatile_fields_are_the_trailing_fields() {
        let line = sample_event(0).to_json();
        let parsed = json::parse(&line).expect("valid JSON");
        let fields = parsed.as_obj().expect("object");
        let tail: Vec<&str> = fields
            .iter()
            .rev()
            .take(VOLATILE_FIELDS.len())
            .map(|(k, _)| k.as_str())
            .collect();
        let mut expected: Vec<&str> = VOLATILE_FIELDS.to_vec();
        expected.reverse();
        assert_eq!(tail, expected, "volatile fields must close every line");
    }

    #[test]
    fn identity_projection_strips_exactly_the_volatile_fields() {
        let mut a = sample_event(5);
        let mut b = sample_event(5);
        a.worker = "w0".to_string();
        b.worker = "w3r1".to_string();
        a.shard = "0/4".to_string();
        b.shard = "3/4".to_string();
        a.wall_ns = 1;
        b.wall_ns = 999_999;
        b.start_ns = 123_456;
        let ja = render_events(&[a.clone()]);
        let jb = render_events(&[b]);
        assert_ne!(ja, jb);
        assert_eq!(
            identity_projection(&ja).unwrap(),
            identity_projection(&jb).unwrap(),
            "placement and wall-clock must not survive the projection"
        );
        // The projection itself still parses (volatile fields default).
        let back = parse_events(&identity_projection(&ja).unwrap()).unwrap();
        assert_eq!(back[0].steps, a.steps);
        assert_eq!(back[0].worker, "local");
        assert_eq!(back[0].wall_ns, 0);
    }

    /// Property test: random events survive JSONL round trips unchanged.
    #[test]
    fn random_events_round_trip_through_jsonl() {
        let mut rng = StdRng::seed_from_u64(0x1e45);
        for case in 0..200 {
            let job = rng.gen_range(0..10_000);
            let ctx = TraceContext::mint("prop-run", job);
            let queries = ["example-3-4", "example-4-4", "weird \"query\"\\name"];
            let outcomes = ["ok", "aborted: steps = 10 exceeded budget 5", "π-path"];
            let ev = JobEvent {
                run: format!("prop-run-{}", rng.gen_range(0..3)),
                trace: ctx.trace_hex(),
                span: ctx.span_hex(),
                job,
                query: queries[rng.gen_range(0..queries.len())].to_string(),
                query_index: rng.gen_range(0..8),
                doc_index: rng.gen_range(0..100),
                doc_nodes: rng.gen_range(0..1_000_000),
                doc_depth: rng.gen_range(0..64),
                steps: rng.next_u64() >> 32,
                reversals: rng.gen_range(0..100_000) as u64,
                cache_hits: rng.gen_range(0..100_000) as u64,
                cache_misses: rng.gen_range(0..100_000) as u64,
                budget_trips: rng.gen_range(0..3) as u64,
                selected: rng.gen_range(0..10_000),
                sampled: rng.gen_bool(0.5),
                outcome: outcomes[rng.gen_range(0..outcomes.len())].to_string(),
                worker: format!("w{}", rng.gen_range(0..9)),
                shard: format!("{}/{}", rng.gen_range(0..4), 4),
                start_ns: rng.next_u64() >> 32,
                wall_ns: rng.next_u64() >> 32,
            };
            let back = JobEvent::from_jsonl_line(&ev.to_json())
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(back, ev, "case {case}");
        }
    }

    #[test]
    fn parse_events_reports_the_offending_line() {
        let good = sample_event(1).to_json();
        let err = parse_events(&format!("{good}\nnot json\n")).expect_err("bad line");
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse_events("{\"v\":1}\n").expect_err("missing fields");
        assert!(err.starts_with("line 1:"), "{err}");
    }
}
