//! The `qa-fleet` batch workload, driven as a subprocess, and a copy of
//! the fleet's corpus recipe so every job's answer can be checked.

use std::path::Path;
use std::process::Command;

use qa_base::rng::{Rng, StdRng};
use qa_base::{Alphabet, Symbol};
use qa_obs::json::{self, Value};
use qa_trees::Tree;

use crate::procs::{run_sampled, Binaries};
use crate::reference;
use crate::report::{Outcome, Run};
use crate::stats;

/// The fleet roster in `--queries` order: the paper's QAstring, QAr, QAu
/// and SQAu examples.
pub const KINDS: [&str; 4] = ["example-3-4", "example-4-4", "example-5-9", "example-5-14"];

/// Nodes (or symbols) per generated document.
pub const DOC_SIZE: usize = 8_000;

/// A generated fleet document.
pub enum FleetDoc {
    /// Example 3.4's input word.
    Word(Vec<Symbol>),
    /// Every other example's input tree.
    Tree(Tree),
}

impl FleetDoc {
    /// Word length or node count.
    pub fn len(&self) -> usize {
        match self {
            FleetDoc::Word(w) => w.len(),
            FleetDoc::Tree(t) => t.num_nodes(),
        }
    }
}

/// `{0, 1}`, the alphabet of Examples 3.4 and 5.14.
pub fn binary_alphabet() -> Alphabet {
    Alphabet::from_names(["0", "1"])
}

/// `{AND, OR, 0, 1}`, the alphabet of the circuit examples.
pub fn circuit_alphabet() -> Alphabet {
    Alphabet::from_names(["AND", "OR", "0", "1"])
}

/// The per-job document seed qa-fleet derives from `--seed`.
pub fn doc_seed(seed: u64, qi: usize, di: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((qi as u64) << 32 | di as u64)
}

/// The document qa-fleet generates for roster entry `qi` (a copy of its
/// recipe).
pub fn generate(qi: usize, size: usize, seed: u64) -> FleetDoc {
    let mut rng = StdRng::seed_from_u64(seed);
    match KINDS[qi % KINDS.len()] {
        "example-3-4" => FleetDoc::Word(
            (0..size)
                .map(|_| Symbol::from_index(rng.gen_range(0..2)))
                .collect(),
        ),
        "example-4-4" => {
            let a = circuit_alphabet();
            FleetDoc::Tree(qa_trees::generate::random_full_binary(
                &mut rng,
                &[a.symbol("AND"), a.symbol("OR")],
                &[a.symbol("0"), a.symbol("1")],
                size / 2,
            ))
        }
        "example-5-9" => {
            let a = circuit_alphabet();
            let mut t = qa_trees::generate::random(&mut rng, &[a.symbol("0")], size, None);
            for v in t.nodes().collect::<Vec<_>>() {
                let label = if t.is_leaf(v) {
                    if rng.gen_bool(0.5) {
                        a.symbol("0")
                    } else {
                        a.symbol("1")
                    }
                } else if rng.gen_bool(0.5) {
                    a.symbol("AND")
                } else {
                    a.symbol("OR")
                };
                t.set_label(v, label);
            }
            FleetDoc::Tree(t)
        }
        _ => FleetDoc::Tree(qa_trees::generate::random(
            &mut rng,
            &[Symbol::from_index(0), Symbol::from_index(1)],
            size,
            None,
        )),
    }
}

/// The reference answer of roster entry `qi` on `doc`.
pub fn expected(qi: usize, doc: &FleetDoc) -> Vec<usize> {
    let bin = binary_alphabet();
    let circ = circuit_alphabet();
    match (qi % KINDS.len(), doc) {
        (0, FleetDoc::Word(w)) => reference::odd_ones_from_right(w, bin.symbol("1")),
        (1 | 2, FleetDoc::Tree(t)) => {
            reference::true_gates(t, circ.symbol("AND"), circ.symbol("1"))
        }
        (3, FleetDoc::Tree(t)) => reference::first_one_leaves(t, bin.symbol("1")),
        _ => unreachable!("roster entry and document kind disagree"),
    }
}

/// One job line of `events.jsonl`.
pub struct JobLine {
    /// Roster index.
    pub query_index: usize,
    /// Document index.
    pub doc_index: usize,
    /// Selected node count.
    pub selected: usize,
    /// `"ok"` or the error.
    pub outcome: String,
    /// The job's wall time as the fleet measured it.
    pub wall_ns: u64,
}

/// Parse `events.jsonl`.
pub fn read_events(path: &Path) -> Result<Vec<JobLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let v = json::parse(line).map_err(|e| format!("events.jsonl: {e}"))?;
            let num = |k: &str| {
                v.get(k)
                    .and_then(Value::as_u64)
                    .ok_or(format!("event without {k}"))
            };
            Ok(JobLine {
                query_index: num("query_index")? as usize,
                doc_index: num("doc_index")? as usize,
                selected: num("selected")? as usize,
                outcome: v
                    .get("outcome")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                wall_ns: num("wall_ns")?,
            })
        })
        .collect()
}

/// The `qa-fleet` command line for a `queries × docs` batch.
pub fn command(
    bins: &Binaries,
    queries: usize,
    docs: usize,
    jobs: usize,
    seed: u64,
    out_dir: &Path,
) -> Command {
    let mut cmd = Command::new(&bins.fleet);
    cmd.args(["--queries", &queries.to_string()])
        .args(["--docs", &docs.to_string()])
        .args(["--size", &DOC_SIZE.to_string()])
        .args(["--jobs", &jobs.to_string()])
        .args(["--seed", &seed.to_string()])
        .arg("--out-dir")
        .arg(out_dir);
    cmd
}

/// Check a finished batch's `events.jsonl` against `want[qi][di]`
/// (reference selected counts), one operation per expected job.
pub fn check_events(events: &[JobLine], want: &[Vec<usize>], out: &mut Outcome) {
    let mut seen = vec![vec![false; want.first().map_or(0, Vec::len)]; want.len()];
    for e in events {
        let verdict = match want.get(e.query_index).and_then(|row| row.get(e.doc_index)) {
            None => Err(format!(
                "unexpected job ({}, {})",
                e.query_index, e.doc_index
            )),
            Some(_) if e.outcome != "ok" => Err(format!("job failed: {}", e.outcome)),
            Some(&n) if n != e.selected => Err(format!(
                "{} doc {} selected {} nodes, reference {n}",
                KINDS[e.query_index % 4],
                e.doc_index,
                e.selected
            )),
            Some(_) => Ok(()),
        };
        if verdict.is_ok() {
            seen[e.query_index][e.doc_index] = true;
        }
        out.record(verdict);
    }
    let missing = seen.iter().flatten().filter(|s| !**s).count();
    for _ in 0..missing {
        out.record(Err("a job is missing from events.jsonl".into()));
    }
}

/// Run the batch workload end to end: `setups` one-job starts, then one
/// batch of `docs` documents per roster entry.
pub fn run(
    bins: &Binaries,
    seed: u64,
    docs: usize,
    setups: usize,
    out_dir: &Path,
) -> Result<Run, String> {
    let mut out = Outcome::default();
    let batch_dir = out_dir.join("fleet-batch");
    let setup_dir = out_dir.join("fleet-setup");

    // Set-up: a one-job batch, from spawn to exit. Each start gets its
    // own seed: the seed decides whether that one job is traced in full,
    // which makes the start two to three times slower, and a median over
    // many seeds keeps that draw from deciding the set-up time.
    let mut setup_s = Vec::new();
    for i in 0..setups.max(1) {
        let start_seed = seed.wrapping_mul(1_000).wrapping_add(i as u64);
        let doc = generate(0, DOC_SIZE, doc_seed(start_seed, 0, 0));
        let done = run_sampled(command(bins, 1, 1, 2, start_seed, &setup_dir))?;
        out.record(exit_ok(&done.status));
        setup_s.push(done.wall_s);
        check_events(
            &read_events(&setup_dir.join("events.jsonl"))?,
            &[vec![expected(0, &doc).len()]],
            &mut out,
        );
    }

    // Reference counts for the whole grid, before the batch starts; one
    // thread per roster half, since the grid is 16k documents.
    let want: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let halves: Vec<_> = [0..KINDS.len() / 2, KINDS.len() / 2..KINDS.len()]
            .into_iter()
            .map(|kinds| {
                scope.spawn(move || {
                    kinds
                        .map(|qi| {
                            (0..docs)
                                .map(|di| {
                                    let doc = generate(qi, DOC_SIZE, doc_seed(seed, qi, di));
                                    expected(qi, &doc).len()
                                })
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    });

    // One batch, not several smaller ones: the fleet's peak memory grows
    // with the batch (11.5 MiB at 256 documents per entry, 113.6 MiB at
    // 4 096).
    let done = run_sampled(command(bins, KINDS.len(), docs, 2, seed, &batch_dir))?;
    out.record(exit_ok(&done.status));
    let events = read_events(&batch_dir.join("events.jsonl"))?;
    check_events(&events, &want, &mut out);
    let mut job_ms: Vec<f64> = events.iter().map(|e| e.wall_ns as f64 / 1e6).collect();
    job_ms.sort_by(f64::total_cmp);
    let mut run = Run::new(out);
    run.metric("setup_s", stats::median(&setup_s));
    run.metric("ops_per_s", (KINDS.len() * docs) as f64 / done.wall_s);
    run.metric("op_p50_ms", stats::percentile(&job_ms, 0.50));
    run.metric("op_p99_ms", stats::percentile(&job_ms, 0.99));
    run.metric("peak_rss_mb", done.peak_rss_mb);
    run.info("ops", job_ms.len() as f64, "count");
    run.info("batch_s", done.wall_s, "s");
    Ok(run)
}

/// A zero exit status, as an operation verdict.
pub fn exit_ok(status: &std::process::ExitStatus) -> Result<(), String> {
    if status.success() {
        Ok(())
    } else {
        Err(format!("qa-fleet exited with {status}"))
    }
}
