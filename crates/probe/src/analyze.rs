//! Slow-query analysis over `events.jsonl` wide-event logs.
//!
//! `qa-fleet` writes one [wide event] per (query, doc) job; this module
//! turns that log into answers: which jobs were the heavy hitters
//! ([`top`]), which runs are percentile outliers within their query
//! ([`slow`]), and how each query's step count grows with document size
//! ([`growth`] — the empirical side of the polynomial-growth classes the
//! tree-automata literature predicts per query). [`top_states`] drops a
//! level below jobs: it ranks individual automaton states by visit count
//! from a `qa-scope` profile (`scope.json`), answering *where inside the
//! machines* the step mass went.
//!
//! Every analysis takes the log as parsed [`JobEvent`]s
//! ([`qa_obs::parse_events`]), the same record and parser the fleet and
//! the serving daemon write with. Every report renders as fixed-precision
//! text or JSON; both renderings are deterministic functions of the input
//! log.
//!
//! [wide event]: https://jeremymorrell.dev/blog/a-practitioners-guide-to-wide-events/

use qa_obs::json;
use qa_obs::{percentile_sorted, JobEvent};

/// First-seen order of query names — reports group per query in the
/// stable order the log introduces them (= roster order for fleet logs).
fn query_order(rows: &[JobEvent]) -> Vec<String> {
    let mut order: Vec<String> = Vec::new();
    for r in rows {
        if !order.contains(&r.query) {
            order.push(r.query.clone());
        }
    }
    order
}

// ---------------------------------------------------------------- top --

/// One heavy hitter: a job and its share of the fleet's total steps.
#[derive(Clone, Debug)]
pub struct TopEntry {
    /// Global job index.
    pub job: u64,
    /// Trace id, for jumping to the fleet timeline.
    pub trace: String,
    /// Query name.
    pub query: String,
    /// Document size.
    pub doc_nodes: u64,
    /// Steps this job consumed.
    pub steps: u64,
    /// Job latency (volatile; 0 in identity projections).
    pub wall_ns: u64,
    /// `steps / total_steps` over the whole log, in `[0, 1]`.
    pub share: f64,
    /// Run outcome.
    pub outcome: String,
}

/// The `analyze top` report: jobs ranked by step count.
#[derive(Clone, Debug)]
pub struct TopReport {
    /// Total steps across every job in the log.
    pub total_steps: u64,
    /// Number of jobs in the log.
    pub jobs: usize,
    /// The top entries, heaviest first (ties broken by job index).
    pub entries: Vec<TopEntry>,
}

/// Rank the `k` heaviest jobs by steps — the fleet's heavy hitters.
pub fn top(rows: &[JobEvent], k: usize) -> TopReport {
    let total_steps: u64 = rows.iter().map(|r| r.steps).sum();
    let mut ranked: Vec<&JobEvent> = rows.iter().collect();
    ranked.sort_by_key(|r| (std::cmp::Reverse(r.steps), r.job));
    let entries = ranked
        .into_iter()
        .take(k)
        .map(|r| TopEntry {
            job: r.job as u64,
            trace: r.trace.clone(),
            query: r.query.clone(),
            doc_nodes: r.doc_nodes as u64,
            steps: r.steps,
            wall_ns: r.wall_ns,
            share: if total_steps == 0 {
                0.0
            } else {
                r.steps as f64 / total_steps as f64
            },
            outcome: r.outcome.clone(),
        })
        .collect();
    TopReport {
        total_steps,
        jobs: rows.len(),
        entries,
    }
}

impl TopReport {
    /// Fixed-width text table.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "top {} of {} job(s) by steps ({} total steps)",
            self.entries.len(),
            self.jobs,
            self.total_steps
        );
        let _ = writeln!(
            out,
            "{:<5} {:<14} {:>9} {:>10} {:>6}  {:<16} outcome",
            "job", "query", "nodes", "steps", "share", "trace"
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{:<5} {:<14} {:>9} {:>10} {:>5.1}%  {:<16} {}",
                e.job,
                e.query,
                e.doc_nodes,
                e.steps,
                e.share * 100.0,
                e.trace,
                e.outcome
            );
        }
        out
    }

    /// JSON rendering.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.field_str("report", "top");
            w.field_u64("total_steps", self.total_steps);
            w.field_u64("jobs", self.jobs as u64);
            let entries: Vec<String> = self
                .entries
                .iter()
                .map(|e| {
                    json::object(|w| {
                        w.field_u64("job", e.job);
                        w.field_str("trace", &e.trace);
                        w.field_str("query", &e.query);
                        w.field_u64("doc_nodes", e.doc_nodes);
                        w.field_u64("steps", e.steps);
                        w.field_u64("wall_ns", e.wall_ns);
                        w.field_f64("share", e.share);
                        w.field_str("outcome", &e.outcome);
                    })
                })
                .collect();
            w.field_raw("entries", &json::array(entries));
        })
    }
}

// --------------------------------------------------------------- slow --

/// One outlier run within its query's step distribution.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// Global job index.
    pub job: u64,
    /// Trace id.
    pub trace: String,
    /// Document size.
    pub doc_nodes: u64,
    /// Steps this job consumed.
    pub steps: u64,
    /// `steps / p50(steps)` for the job's query (how many medians).
    pub vs_median: f64,
    /// Run outcome.
    pub outcome: String,
}

/// Per-query step distribution plus its outliers.
#[derive(Clone, Debug)]
pub struct QuerySlow {
    /// Query name.
    pub query: String,
    /// Runs of this query in the log.
    pub runs: usize,
    /// Median steps.
    pub p50: u64,
    /// 90th percentile steps.
    pub p90: u64,
    /// 99th percentile steps.
    pub p99: u64,
    /// Maximum steps.
    pub max: u64,
    /// Jobs at or above the query's p99, heaviest first.
    pub outliers: Vec<SlowEntry>,
}

/// The `analyze slow` report: percentile outliers per query.
#[derive(Clone, Debug)]
pub struct SlowReport {
    /// Per-query distributions, in the log's first-seen query order.
    pub queries: Vec<QuerySlow>,
}

/// Find each query's percentile outliers: jobs at or above the query's
/// p99 step count (at most `k` per query, heaviest first). A fleet where
/// every run costs the same produces no interesting outliers — `vs_median`
/// near 1 says so; a heavy tail shows up as `vs_median >> 1`.
pub fn slow(rows: &[JobEvent], k: usize) -> SlowReport {
    let mut queries = Vec::new();
    for q in query_order(rows) {
        let runs: Vec<&JobEvent> = rows.iter().filter(|r| r.query == q).collect();
        let mut steps: Vec<u64> = runs.iter().map(|r| r.steps).collect();
        steps.sort_unstable();
        let (p50, p90, p99) = (
            percentile_sorted(&steps, 0.50),
            percentile_sorted(&steps, 0.90),
            percentile_sorted(&steps, 0.99),
        );
        let max = steps.last().copied().unwrap_or(0);
        let mut outliers: Vec<&&JobEvent> = runs.iter().filter(|r| r.steps >= p99).collect();
        outliers.sort_by_key(|r| (std::cmp::Reverse(r.steps), r.job));
        let outliers = outliers
            .into_iter()
            .take(k)
            .map(|r| SlowEntry {
                job: r.job as u64,
                trace: r.trace.clone(),
                doc_nodes: r.doc_nodes as u64,
                steps: r.steps,
                vs_median: if p50 == 0 {
                    0.0
                } else {
                    r.steps as f64 / p50 as f64
                },
                outcome: r.outcome.clone(),
            })
            .collect();
        queries.push(QuerySlow {
            query: q,
            runs: runs.len(),
            p50,
            p90,
            p99,
            max,
            outliers,
        });
    }
    SlowReport { queries }
}

impl SlowReport {
    /// Fixed-width text table.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>5} {:>10} {:>10} {:>10} {:>10}",
            "query", "runs", "p50", "p90", "p99", "max"
        );
        for q in &self.queries {
            let _ = writeln!(
                out,
                "{:<14} {:>5} {:>10} {:>10} {:>10} {:>10}",
                q.query, q.runs, q.p50, q.p90, q.p99, q.max
            );
            for o in &q.outliers {
                let _ = writeln!(
                    out,
                    "  job {:<4} {:>9} nodes {:>10} steps  {:>6.2}x median  {:<16} {}",
                    o.job, o.doc_nodes, o.steps, o.vs_median, o.trace, o.outcome
                );
            }
        }
        out
    }

    /// JSON rendering.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.field_str("report", "slow");
            let queries: Vec<String> = self
                .queries
                .iter()
                .map(|q| {
                    json::object(|w| {
                        w.field_str("query", &q.query);
                        w.field_u64("runs", q.runs as u64);
                        w.field_u64("p50", q.p50);
                        w.field_u64("p90", q.p90);
                        w.field_u64("p99", q.p99);
                        w.field_u64("max", q.max);
                        let outliers: Vec<String> = q
                            .outliers
                            .iter()
                            .map(|o| {
                                json::object(|w| {
                                    w.field_u64("job", o.job);
                                    w.field_str("trace", &o.trace);
                                    w.field_u64("doc_nodes", o.doc_nodes);
                                    w.field_u64("steps", o.steps);
                                    w.field_f64("vs_median", o.vs_median);
                                    w.field_str("outcome", &o.outcome);
                                })
                            })
                            .collect();
                        w.field_raw("outliers", &json::array(outliers));
                    })
                })
                .collect();
            w.field_raw("queries", &json::array(queries));
        })
    }
}

// --------------------------------------------------------- top states --

/// One hot state: a `(machine, state)` pair and its visit mass.
#[derive(Clone, Debug)]
pub struct TopStateEntry {
    /// Engine name ([`qa_obs::Machine::name`]).
    pub machine: &'static str,
    /// Dense state index within that machine.
    pub state: u32,
    /// Times the engine resolved this state.
    pub visits: u64,
    /// `visits / total_visits` of the state's machine, in `[0, 1]`.
    pub share: f64,
    /// Behavior-cache hits attributed to this state.
    pub cache_hits: u64,
    /// Behavior-cache misses attributed to this state.
    pub cache_misses: u64,
}

/// The `analyze top --by state` report: states ranked by visit count
/// across every machine in a `scope.json` profile.
#[derive(Clone, Debug)]
pub struct TopStatesReport {
    /// Total state visits across all machines (evicted mass included).
    pub total_visits: u64,
    /// Machines with any profile mass.
    pub machines: usize,
    /// Visit mass evicted by the profiler's heavy-hitter cap — nonzero
    /// means the ranking below is approximate beyond the retained states.
    pub dropped_visits: u64,
    /// The top entries, most-visited first (ties by machine, then state).
    pub entries: Vec<TopStateEntry>,
}

/// Rank the `k` most-visited states across a [`ScopeProfiler`]'s
/// machines — the per-state heavy hitters of `analyze top --by state`.
/// Shares are per machine (a 2DFA state competes with its own automaton,
/// not with an unrelated tree run's).
///
/// [`ScopeProfiler`]: qa_scope::ScopeProfiler
pub fn top_states(scope: &qa_scope::ScopeProfiler, k: usize) -> TopStatesReport {
    let mut total_visits = 0u64;
    let mut dropped_visits = 0u64;
    let mut machines = 0usize;
    let mut all: Vec<TopStateEntry> = Vec::new();
    for m in qa_obs::Machine::ALL {
        let t = scope.machine(m);
        if t.is_empty() {
            continue;
        }
        machines += 1;
        let machine_total = t.total_visits();
        total_visits += machine_total;
        dropped_visits += t.dropped_visits;
        for (&state, &visits) in &t.visits {
            all.push(TopStateEntry {
                machine: m.name(),
                state,
                visits,
                share: if machine_total == 0 {
                    0.0
                } else {
                    visits as f64 / machine_total as f64
                },
                cache_hits: t.cache_hits.get(&state).copied().unwrap_or(0),
                cache_misses: t.cache_misses.get(&state).copied().unwrap_or(0),
            });
        }
    }
    all.sort_by(|a, b| {
        b.visits
            .cmp(&a.visits)
            .then_with(|| a.machine.cmp(b.machine))
            .then_with(|| a.state.cmp(&b.state))
    });
    all.truncate(k);
    TopStatesReport {
        total_visits,
        machines,
        dropped_visits,
        entries: all,
    }
}

impl TopStatesReport {
    /// Fixed-width text table.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "top {} state(s) across {} machine(s) ({} total visits{})",
            self.entries.len(),
            self.machines,
            self.total_visits,
            if self.dropped_visits > 0 {
                format!(", {} visits evicted by cap", self.dropped_visits)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "{:<12} {:<7} {:>12} {:>6} {:>10} {:>10}",
            "machine", "state", "visits", "share", "cache-hit", "cache-miss"
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{:<12} q{:<6} {:>12} {:>5.1}% {:>10} {:>10}",
                e.machine,
                e.state,
                e.visits,
                e.share * 100.0,
                e.cache_hits,
                e.cache_misses
            );
        }
        out
    }

    /// JSON rendering.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.field_str("report", "top-states");
            w.field_u64("total_visits", self.total_visits);
            w.field_u64("machines", self.machines as u64);
            w.field_u64("dropped_visits", self.dropped_visits);
            let entries: Vec<String> = self
                .entries
                .iter()
                .map(|e| {
                    json::object(|w| {
                        w.field_str("machine", e.machine);
                        w.field_u64("state", u64::from(e.state));
                        w.field_u64("visits", e.visits);
                        w.field_f64("share", e.share);
                        w.field_u64("cache_hits", e.cache_hits);
                        w.field_u64("cache_misses", e.cache_misses);
                    })
                })
                .collect();
            w.field_raw("entries", &json::array(entries));
        })
    }
}

// ------------------------------------------------------------- growth --

/// One query's fitted steps-vs-size growth law.
#[derive(Clone, Debug)]
pub struct GrowthFit {
    /// Query name.
    pub query: String,
    /// Runs of this query in the log.
    pub runs: usize,
    /// Distinct document sizes observed (a fit needs at least 2).
    pub sizes: usize,
    /// Fitted exponent `b` of `steps ≈ c·n^b` (log-log least squares),
    /// absent when the log has fewer than 2 distinct sizes.
    pub exponent: Option<f64>,
    /// Fitted coefficient `c`.
    pub coefficient: Option<f64>,
    /// Coefficient of determination of the log-log fit, in `[0, 1]`.
    pub r2: Option<f64>,
    /// Human name of the growth class the exponent lands in.
    pub class: String,
}

/// The `analyze growth` report: one fit per query.
#[derive(Clone, Debug)]
pub struct GrowthReport {
    /// Per-query fits, in the log's first-seen query order.
    pub fits: Vec<GrowthFit>,
}

/// Bucket a fitted exponent into a growth-class name. The boundaries are
/// deliberately coarse — the point is to tell constant from linear from
/// quadratic, the step-count classes the query-automata results predict.
fn growth_class(b: f64) -> String {
    if b < 0.25 {
        "constant".to_string()
    } else if b < 0.75 {
        "sublinear".to_string()
    } else if b < 1.25 {
        "linear".to_string()
    } else if b < 1.75 {
        "superlinear".to_string()
    } else if b < 2.25 {
        "quadratic".to_string()
    } else {
        format!("poly(~{b:.1})")
    }
}

/// Fit `steps ≈ c·n^b` per query by least squares on `(ln n, ln steps)`.
///
/// Jobs with `steps = 0` or `doc_nodes = 0` are skipped (logs of zero);
/// a query needs at least two distinct document sizes to fit — run
/// `qa-fleet --sweep` to produce such a log.
pub fn growth(rows: &[JobEvent]) -> GrowthReport {
    let mut fits = Vec::new();
    for q in query_order(rows) {
        let runs: Vec<&JobEvent> = rows.iter().filter(|r| r.query == q).collect();
        let pts: Vec<(f64, f64)> = runs
            .iter()
            .filter(|r| r.doc_nodes > 0 && r.steps > 0)
            .map(|r| ((r.doc_nodes as f64).ln(), (r.steps as f64).ln()))
            .collect();
        let mut sizes: Vec<usize> = runs.iter().map(|r| r.doc_nodes).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let fit = if sizes.len() >= 2 && pts.len() >= 2 {
            let n = pts.len() as f64;
            let (sx, sy): (f64, f64) = pts.iter().fold((0.0, 0.0), |(a, b), p| (a + p.0, b + p.1));
            let (mx, my) = (sx / n, sy / n);
            let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
            let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
            if sxx == 0.0 {
                None
            } else {
                let b = sxy / sxx;
                let a = my - b * mx;
                let ss_tot: f64 = pts.iter().map(|p| (p.1 - my) * (p.1 - my)).sum();
                let ss_res: f64 = pts
                    .iter()
                    .map(|p| {
                        let e = p.1 - (a + b * p.0);
                        e * e
                    })
                    .sum();
                let r2 = if ss_tot == 0.0 {
                    1.0
                } else {
                    1.0 - ss_res / ss_tot
                };
                Some((b, a.exp(), r2))
            }
        } else {
            None
        };
        fits.push(match fit {
            Some((b, c, r2)) => GrowthFit {
                query: q,
                runs: runs.len(),
                sizes: sizes.len(),
                exponent: Some(b),
                coefficient: Some(c),
                r2: Some(r2),
                class: growth_class(b),
            },
            None => GrowthFit {
                query: q,
                runs: runs.len(),
                sizes: sizes.len(),
                exponent: None,
                coefficient: None,
                r2: None,
                class: "unfit (need >= 2 distinct sizes; try --sweep)".to_string(),
            },
        });
    }
    GrowthReport { fits }
}

impl GrowthReport {
    /// Fixed-width text table.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>5} {:>6} {:>9} {:>11} {:>6}  class",
            "query", "runs", "sizes", "exponent", "coeff", "r2"
        );
        for f in &self.fits {
            match (f.exponent, f.coefficient, f.r2) {
                (Some(b), Some(c), Some(r2)) => {
                    let _ = writeln!(
                        out,
                        "{:<14} {:>5} {:>6} {:>9.3} {:>11.3} {:>6.3}  {}",
                        f.query, f.runs, f.sizes, b, c, r2, f.class
                    );
                }
                _ => {
                    let _ = writeln!(
                        out,
                        "{:<14} {:>5} {:>6} {:>9} {:>11} {:>6}  {}",
                        f.query, f.runs, f.sizes, "-", "-", "-", f.class
                    );
                }
            }
        }
        out
    }

    /// JSON rendering (`exponent`/`coefficient`/`r2` omitted when unfit).
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.field_str("report", "growth");
            let fits: Vec<String> = self
                .fits
                .iter()
                .map(|f| {
                    json::object(|w| {
                        w.field_str("query", &f.query);
                        w.field_u64("runs", f.runs as u64);
                        w.field_u64("sizes", f.sizes as u64);
                        if let (Some(b), Some(c), Some(r2)) = (f.exponent, f.coefficient, f.r2) {
                            w.field_f64("exponent", b);
                            w.field_f64("coefficient", c);
                            w.field_f64("r2", r2);
                        }
                        w.field_str("class", &f.class);
                    })
                })
                .collect();
            w.field_raw("fits", &json::array(fits));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_obs::json::Value;

    fn row(job: usize, query: &str, nodes: usize, steps: u64) -> JobEvent {
        JobEvent {
            trace: format!("{:016x}", job + 1),
            job,
            query: query.to_string(),
            doc_nodes: nodes,
            steps,
            outcome: "ok".to_string(),
            wall_ns: 100 + job as u64,
            ..JobEvent::default()
        }
    }

    #[test]
    fn top_ranks_by_steps_with_share() {
        let rows = [
            row(0, "a", 10, 100),
            row(1, "b", 10, 700),
            row(2, "a", 10, 200),
        ];
        let t = top(&rows, 2);
        assert_eq!(t.total_steps, 1000);
        assert_eq!(t.entries.len(), 2);
        assert_eq!(t.entries[0].job, 1);
        assert!((t.entries[0].share - 0.7).abs() < 1e-12);
        assert_eq!(t.entries[1].job, 2);
        let text = t.render_text();
        assert!(text.contains("top 2 of 3 job(s)"), "{text}");
        let v = json::parse(&t.to_json()).unwrap();
        assert_eq!(v.get("total_steps").and_then(Value::as_u64), Some(1000));
    }

    #[test]
    fn slow_finds_per_query_outliers() {
        let mut rows: Vec<JobEvent> = (0..10).map(|j| row(j, "a", 10, 100)).collect();
        rows.push(row(10, "a", 10, 1000)); // the heavy tail
        rows.push(row(11, "b", 10, 5));
        let s = slow(&rows, 3);
        assert_eq!(s.queries.len(), 2);
        let a = &s.queries[0];
        assert_eq!(a.query, "a");
        assert_eq!(a.p50, 100);
        assert_eq!(a.max, 1000);
        assert_eq!(a.outliers[0].job, 10);
        assert!((a.outliers[0].vs_median - 10.0).abs() < 1e-12);
        let v = json::parse(&s.to_json()).unwrap();
        let queries = v.get("queries").and_then(Value::as_arr).unwrap();
        assert_eq!(queries.len(), 2);
    }

    #[test]
    fn growth_fits_exact_power_laws() {
        // steps = 3·n² exactly: exponent 2, r² 1.
        let quad = (1..=5usize).map(|i| row(i, "quad", 10 * i, 3 * (10 * i as u64).pow(2)));
        // steps = 7·n exactly: exponent 1.
        let lin = (1..=5usize).map(|i| row(10 + i, "lin", 10 * i, 7 * 10 * i as u64));
        let rows: Vec<JobEvent> = quad.chain(lin).collect();
        let g = growth(&rows);
        assert_eq!(g.fits.len(), 2);
        let q = &g.fits[0];
        assert!((q.exponent.unwrap() - 2.0).abs() < 1e-9, "{q:?}");
        assert!((q.coefficient.unwrap() - 3.0).abs() < 1e-6, "{q:?}");
        assert!((q.r2.unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(q.class, "quadratic");
        let l = &g.fits[1];
        assert!((l.exponent.unwrap() - 1.0).abs() < 1e-9, "{l:?}");
        assert_eq!(l.class, "linear");
    }

    #[test]
    fn growth_reports_unfittable_single_size_logs() {
        let rows = [row(0, "a", 10, 50), row(1, "a", 10, 60)];
        let g = growth(&rows);
        assert_eq!(g.fits[0].exponent, None);
        assert!(g.fits[0].class.contains("--sweep"), "{}", g.fits[0].class);
        let text = g.render_text();
        assert!(text.contains('-'), "{text}");
        // JSON omits the unfit fields entirely
        let v = json::parse(&g.to_json()).unwrap();
        let fit = &v.get("fits").and_then(Value::as_arr).unwrap()[0];
        assert!(fit.get("exponent").is_none());
    }

    #[test]
    fn top_states_ranks_across_machines_with_per_machine_shares() {
        use qa_obs::{Machine, Observer};
        let mut scope = qa_scope::ScopeProfiler::new();
        for _ in 0..30 {
            scope.state_visit(Machine::TwoDfa, 0, 1);
        }
        for _ in 0..10 {
            scope.state_visit(Machine::TwoDfa, 1, 1);
        }
        for _ in 0..25 {
            scope.state_visit(Machine::Dbtar, 4, 0);
        }
        let r = top_states(&scope, 2);
        assert_eq!(r.total_visits, 65);
        assert_eq!(r.machines, 2);
        assert_eq!(r.entries.len(), 2);
        assert_eq!((r.entries[0].machine, r.entries[0].state), ("twodfa", 0));
        assert!((r.entries[0].share - 0.75).abs() < 1e-12, "30 of 40");
        assert_eq!((r.entries[1].machine, r.entries[1].state), ("dbtar", 4));
        assert!((r.entries[1].share - 1.0).abs() < 1e-12, "25 of 25");
        let text = r.render_text();
        assert!(
            text.contains("top 2 state(s) across 2 machine(s)"),
            "{text}"
        );
        let v = json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("total_visits").and_then(Value::as_u64), Some(65));
        // The report round-trips through the profiler's own JSON.
        let back = qa_scope::ScopeProfiler::from_json(&scope.to_json()).unwrap();
        assert_eq!(top_states(&back, 2).total_visits, 65);
    }

    #[test]
    fn growth_class_boundaries() {
        assert_eq!(growth_class(0.1), "constant");
        assert_eq!(growth_class(0.5), "sublinear");
        assert_eq!(growth_class(1.0), "linear");
        assert_eq!(growth_class(1.5), "superlinear");
        assert_eq!(growth_class(2.0), "quadratic");
        assert_eq!(growth_class(3.2), "poly(~3.2)");
    }
}
