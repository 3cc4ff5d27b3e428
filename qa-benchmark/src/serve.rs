//! The three `qa-serve` workloads, driven over HTTP from outside the
//! daemon: closed loops of two clients, each with one connection open.

use std::time::{Duration, Instant};

use qa_base::rng::StdRng;

use crate::corpus::{mix, warm_formulas, Doc, Template, SIGMA};
use crate::http;
use crate::procs::{Binaries, Daemon};
use crate::reference::{select, Query};
use crate::report::{Outcome, Run};
use crate::stats;

/// Which serve workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Few large documents: evaluation dominates every request.
    Large,
    /// Many tiny documents: per-request overhead dominates.
    Small,
    /// Warm reads next to document writes and cold compiles.
    Churn,
}

/// Writer-owned documents of the churn workload.
const CHURN_WRITE_DOCS: usize = 8;
/// Nodes per writer-owned document.
const CHURN_WRITE_NODES: usize = 20_000;

/// One document the daemon holds, with its upload text.
pub struct Stored {
    /// Name under `PUT /doc?name=`.
    pub name: String,
    /// The tree.
    pub doc: Doc,
    /// Upload text (s-expression).
    pub text: String,
}

/// A churn writer document: two content variants, each in both formats.
pub struct Versioned {
    /// Name under `PUT /doc?name=`.
    pub name: String,
    /// Variant trees.
    pub variants: [Doc; 2],
    /// `[variant][0 = s-expression, 1 = XML]` upload texts.
    pub texts: [[String; 2]; 2],
}

/// Everything a serve workload sends, generated from the seed.
pub struct Corpus {
    /// Documents the warm queries read.
    pub read: Vec<Stored>,
    /// Churn only: documents the writer replaces.
    pub write: Vec<Versioned>,
    /// Warm formulas and what they mean.
    pub warm: Vec<(&'static str, Query)>,
    /// `expected[formula][doc]`: the reference answer of every warm query.
    pub expected: Vec<Vec<Vec<u32>>>,
    /// Send `"why": true` on every n-th warm request (0 = never).
    pub why_every: usize,
}

impl Kind {
    /// Build this workload's corpus from `seed`.
    pub fn corpus(self, seed: u64) -> Corpus {
        let (prefix, docs, nodes, why_every) = match self {
            // 14 000 nodes, not more, so that a run collects over 1 000
            // answers even when the machine runs slow and p99 keeps ten
            // samples beyond it.
            Kind::Large => ("doc", 8, 14_000, 0),
            Kind::Small => ("doc", 256, 32, 5),
            Kind::Churn => ("r", 32, 2_000, 0),
        };
        let mut rng = StdRng::seed_from_u64(mix(&[seed, self as u64, 1]));
        let read: Vec<Stored> = (0..docs)
            .map(|i| {
                let doc = Doc::random(&mut rng, nodes);
                Stored {
                    name: format!("{prefix}-{i}"),
                    text: doc.sexpr(),
                    doc,
                }
            })
            .collect();
        let write = if self == Kind::Churn {
            (0..CHURN_WRITE_DOCS)
                .map(|i| {
                    let variants = [
                        Doc::random(&mut rng, CHURN_WRITE_NODES),
                        Doc::random(&mut rng, CHURN_WRITE_NODES),
                    ];
                    let texts = [
                        [variants[0].sexpr(), variants[0].xml()],
                        [variants[1].sexpr(), variants[1].xml()],
                    ];
                    Versioned {
                        name: format!("w-{i}"),
                        variants,
                        texts,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let warm = warm_formulas();
        let expected = warm
            .iter()
            .map(|&(_, q)| read.iter().map(|s| select(&s.doc, q)).collect())
            .collect();
        Corpus {
            read,
            write,
            warm,
            expected,
            why_every,
        }
    }
}

/// Check one `POST /query` answer against the reference.
fn check_answer(resp: &http::Response, want: &[u32]) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.body.trim()));
    }
    if http::u64_field(&resp.body, "sigma") != Some(SIGMA) {
        return Err(format!(
            "sigma is not {SIGMA}: {}",
            &resp.body[..resp.body.len().min(120)]
        ));
    }
    // The daemon lists nodes in its encoding's order; compare as sets.
    let selected = http::u32_array(&resp.body, "selected").map(|mut got| {
        got.sort_unstable();
        got
    });
    match selected {
        Some(got) if got == want => Ok(()),
        Some(got) => Err(format!(
            "answer differs from the reference ({} nodes, expected {})",
            got.len(),
            want.len()
        )),
        None => Err("answer has no `selected` array".into()),
    }
}

/// `POST /query` for `formula` on `doc`, checked against `want`.
/// Returns the client-observed latency in nanoseconds.
pub fn query(
    daemon: &Daemon,
    formula: &str,
    doc: &str,
    why: bool,
    want: &[u32],
) -> (u64, Result<(), String>) {
    let body = format!(r#"{{"formula":"{formula}","doc":"{doc}","why":{why}}}"#);
    let sent = Instant::now();
    let resp = http::request(daemon.addr, "POST", "/query", &body);
    let ns = sent.elapsed().as_nanos() as u64;
    let verdict = resp
        .map_err(|e| format!("transport: {e}"))
        .and_then(|r| check_answer(&r, want))
        .map_err(|e| format!("{formula} on {doc}: {e}"));
    (ns, verdict)
}

/// `PUT /doc?name=` with `text`, checked to have stored `nodes` nodes.
/// Returns the client-observed latency in nanoseconds.
pub fn put_doc(daemon: &Daemon, name: &str, text: &str, nodes: usize) -> (u64, Result<(), String>) {
    let sent = Instant::now();
    let resp = http::request(daemon.addr, "PUT", &format!("/doc?name={name}"), text);
    let ns = sent.elapsed().as_nanos() as u64;
    let verdict = match resp {
        Err(e) => Err(format!("PUT {name}: transport: {e}")),
        Ok(r) if r.status != 200 => Err(format!(
            "PUT {name}: status {}: {}",
            r.status,
            r.body.trim()
        )),
        Ok(r) if http::u64_field(&r.body, "nodes") != Some(nodes as u64) => Err(format!(
            "PUT {name}: stored a different tree: {}",
            r.body.trim()
        )),
        Ok(_) => Ok(()),
    };
    (ns, verdict)
}

/// Start a fresh daemon, ingest the corpus over `PUT /doc` and answer
/// every warm formula once. Returns the daemon and the seconds it took.
pub fn setup(bins: &Binaries, corpus: &Corpus, out: &mut Outcome) -> Result<(Daemon, f64), String> {
    let started = Instant::now();
    let daemon = Daemon::spawn(&bins.serve)?;
    for s in &corpus.read {
        out.record(put_doc(&daemon, &s.name, &s.text, s.doc.len()).1);
    }
    for w in &corpus.write {
        out.record(put_doc(&daemon, &w.name, &w.texts[0][0], w.variants[0].len()).1);
    }
    for (fi, (formula, _)) in corpus.warm.iter().enumerate() {
        let (_, verdict) = query(
            &daemon,
            formula,
            &corpus.read[0].name,
            false,
            &corpus.expected[fi][0],
        );
        out.record(verdict);
    }
    Ok((daemon, started.elapsed().as_secs_f64()))
}

/// One client thread's measured ops: when each completed, and its
/// latency in nanoseconds.
#[derive(Default)]
struct Lane(Vec<(Instant, u64)>);

impl Lane {
    fn push(&mut self, ns: u64) {
        self.0.push((Instant::now(), ns));
    }

    /// Latencies in milliseconds, ascending.
    fn sorted_ms(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self.0.iter().map(|&(_, ns)| ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        ms
    }
}

/// The warm-read client: cycles the warm formulas over seeded documents
/// until `end`, recording ops sent at or after `measure_from`.
fn reader(
    daemon: &Daemon,
    corpus: &Corpus,
    seed: u64,
    client: u64,
    measure_from: Instant,
    end: Instant,
) -> (Lane, Outcome) {
    let mut lane = Lane::default();
    let mut out = Outcome::default();
    let mut i = 0u64;
    while Instant::now() < end {
        let fi = ((i + client) % corpus.warm.len() as u64) as usize;
        let di = (mix(&[seed, client, i]) % corpus.read.len() as u64) as usize;
        let why = corpus.why_every > 0 && i.is_multiple_of(corpus.why_every as u64);
        let measured = Instant::now() >= measure_from;
        let (ns, verdict) = query(
            daemon,
            corpus.warm[fi].0,
            &corpus.read[di].name,
            why,
            &corpus.expected[fi][di],
        );
        if measured && verdict.is_ok() {
            lane.push(ns);
        }
        out.record(verdict);
        i += 1;
    }
    (lane, out)
}

/// What the churn writer measured.
#[derive(Default)]
struct Writes {
    ingest: Lane,
    cold: Lane,
}

/// The churn writer: replace every writer document, send one never-seen
/// formula, then repeat it on another writer document.
fn writer(
    daemon: &Daemon,
    corpus: &Corpus,
    seed: u64,
    measure_from: Instant,
    end: Instant,
) -> (Writes, Outcome) {
    let mut writes = Writes::default();
    let mut out = Outcome::default();
    let offset = (mix(&[seed, 7]) % Template::ALL.len() as u64) as usize;
    let mut cycle = 0usize;
    while Instant::now() < end {
        // Setup uploaded variant 0, so the first cycle writes variant 1
        // and every later PUT flips the content again.
        let variant = (cycle + 1) % 2;
        let measured = Instant::now() >= measure_from;
        for (j, w) in corpus.write.iter().enumerate() {
            let text = &w.texts[variant][(cycle + j) % 2];
            let (ns, verdict) = put_doc(daemon, &w.name, text, w.variants[variant].len());
            if measured && verdict.is_ok() {
                writes.ingest.push(ns);
            }
            out.record(verdict);
        }
        let template = Template::ALL[(cycle + offset) % Template::ALL.len()];
        let label = (mix(&[seed, cycle as u64, 11]) % 3) as u8;
        let (formula, q) = template.instantiate(cycle as u64, label);
        let target = cycle % corpus.write.len();
        let want = select(&corpus.write[target].variants[variant], q);
        let (ns, verdict) = query(daemon, &formula, &corpus.write[target].name, false, &want);
        if measured && verdict.is_ok() {
            writes.cold.push(ns);
        }
        out.record(verdict);
        let other = (cycle + 1) % corpus.write.len();
        let want = select(&corpus.write[other].variants[variant], q);
        out.record(query(daemon, &formula, &corpus.write[other].name, false, &want).1);
        cycle += 1;
    }
    (writes, out)
}

/// Settings of one end-to-end run.
pub struct Plan {
    /// Fresh daemon starts; the last one serves the measured window.
    pub setups: usize,
    /// Unmeasured load before the window.
    pub warmup: Duration,
    /// The measured window.
    pub window: Duration,
}

/// Run one serve workload end to end.
pub fn run(kind: Kind, bins: &Binaries, seed: u64, plan: &Plan) -> Result<Run, String> {
    let corpus = kind.corpus(seed);
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for i in 0..plan.setups.max(1) {
        let (d, secs) = setup(bins, &corpus, &mut out)?;
        setup_s.push(secs);
        if i + 1 == plan.setups.max(1) {
            daemon = Some(d);
        } else {
            d.stop()?;
        }
    }
    let daemon = daemon.expect("at least one setup");
    let measure_from = Instant::now() + plan.warmup;
    let end = measure_from + plan.window;
    let (reads, writes) = std::thread::scope(|scope| {
        let first = scope.spawn(|| reader(&daemon, &corpus, seed, 0, measure_from, end));
        let second = scope.spawn(|| match kind {
            Kind::Churn => {
                let (w, o) = writer(&daemon, &corpus, seed, measure_from, end);
                (None, Some(w), o)
            }
            _ => {
                let (lane, o) = reader(&daemon, &corpus, seed, 1, measure_from, end);
                (Some(lane), None, o)
            }
        });
        let (lane0, out0) = first.join().expect("reader thread");
        let (lane1, writes, out1) = second.join().expect("second client thread");
        out.merge(out0);
        out.merge(out1);
        (
            vec![Some(lane0), lane1]
                .into_iter()
                .flatten()
                .collect::<Vec<_>>(),
            writes,
        )
    });
    // The alphabet must not have grown: every formula and document uses
    // the corpus labels only.
    match http::request(daemon.addr, "GET", "/queries", "") {
        Ok(r) if http::u64_field(&r.body, "sigma") == Some(SIGMA) => out.record(Ok(())),
        Ok(r) => out.record(Err(format!(
            "GET /queries: sigma is not {SIGMA}: {}",
            r.body.len()
        ))),
        Err(e) => out.record(Err(format!("GET /queries: {e}"))),
    }
    let peak_rss = daemon
        .peak_rss_mb()
        .ok_or("cannot read the daemon's VmHWM")?;
    daemon.stop()?;

    let mut run = Run::new(out);
    // Throughput and median come from the quieter half of the window;
    // the tail takes every op, so stalls that hit some requests count.
    let ops: Vec<(f64, f64)> = reads
        .iter()
        .flat_map(|l| {
            l.0.iter().map(|&(done, ns)| {
                (
                    done.duration_since(measure_from).as_secs_f64(),
                    ns as f64 / 1e6,
                )
            })
        })
        .collect();
    let (ops_per_s, p50) = stats::quieter_half(&ops, plan.window.as_secs_f64());
    let mut sorted: Vec<f64> = ops.iter().map(|&(_, ms)| ms).collect();
    sorted.sort_by(f64::total_cmp);
    run.metric("setup_s", stats::median(&setup_s));
    run.metric("ops_per_s", ops_per_s);
    run.metric("op_p50_ms", p50);
    run.metric("op_p99_ms", stats::percentile(&sorted, 0.99));
    run.metric("peak_rss_mb", peak_rss);
    run.info("ops", sorted.len() as f64, "count");
    if let Some(w) = writes {
        // 850-1 250 PUTs and 105-155 cold queries a run: p95 and p90 are
        // the highest percentiles with ten samples beyond them.
        for (name, lane, tail) in [("ingest", &w.ingest, 95), ("cold_query", &w.cold, 90)] {
            let ms = lane.sorted_ms();
            run.info(&format!("{name}_count"), ms.len() as f64, "count");
            run.info(&format!("{name}_p50_ms"), stats::percentile(&ms, 0.5), "ms");
            run.info(
                &format!("{name}_p{tail}_ms"),
                stats::percentile(&ms, f64::from(tail) / 100.0),
                "ms",
            );
        }
    }
    Ok(run)
}
