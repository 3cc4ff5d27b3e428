//! `qa-benchmark`: the end-to-end and per-layer wall-clock benchmark of
//! the query-automata serving daemon (`qa-serve`) and batch runner
//! (`qa-fleet`).
//!
//! Run it from the repository root; it builds both binaries in release
//! mode first. See `qa-benchmark/README.md` for the workloads, metrics
//! and how to compare two commits.

mod catalog;
mod compare;
mod corpus;
mod fleet;
mod http;
mod procs;
mod reference;
mod report;
mod serve;
mod stats;
mod trace;

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use report::Run;

const USAGE: &str = "usage:
  qa-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  qa-benchmark compare <base-runs.jsonl…> -- <head-runs.jsonl…>

run builds qa-serve and qa-fleet from the current directory (the
repository root), runs one workload (all four, end to end then traced,
without --workload), prints every metric BENCHMARK.json declares with its
unit, and ends with one JSON result line. Each run except a --smoke run is
also appended to qa-benchmark/out/results.jsonl, the input compare reads.

workloads: serve-large serve-small serve-churn fleet-batch
--seconds  measured window of a serve run (default 25)
--trace 1  the traced run: per-layer metrics instead of end-to-end ones
--smoke    a 2 s window and the smallest settings, for tests";

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 8 documents of 14 000 nodes; evaluation dominates.
    ServeLarge,
    /// 256 documents of 32 nodes; request overhead dominates.
    ServeSmall,
    /// Warm reads beside document replacement and cold compiles.
    ServeChurn,
    /// qa-fleet over the paper's four example queries.
    FleetBatch,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeLarge,
        Workload::ServeSmall,
        Workload::ServeChurn,
        Workload::FleetBatch,
    ];

    /// The name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeLarge => "serve-large",
            Workload::ServeSmall => "serve-small",
            Workload::ServeChurn => "serve-churn",
            Workload::FleetBatch => "fleet-batch",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed `run` arguments.
struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut opts = RunArgs {
        workload: None,
        seed: 1,
        seconds: 25,
        trace: None,
        smoke: false,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                opts.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    opts.seconds = seconds.unwrap_or(if opts.smoke { 2 } else { 25 }).max(1);
    Ok(opts)
}

/// Run one workload, end to end or traced.
fn execute(
    w: Workload,
    trace: bool,
    opts: &RunArgs,
    bins: &procs::Binaries,
    out_dir: &Path,
) -> Result<Run, String> {
    if trace {
        let plan = trace::Plan {
            reps: if opts.smoke { 1 } else { 5 },
            ops: match (w, opts.smoke) {
                (_, true) => 4,
                (Workload::ServeSmall, false) => 64,
                (Workload::ServeLarge, false) => 16,
                _ => 32,
            },
            jobs_per_kind: if opts.smoke { 1 } else { 16 },
        };
        return trace::run(w, bins, opts.seed, &plan, out_dir);
    }
    let plan = serve::Plan {
        setups: if opts.smoke { 1 } else { 7 },
        warmup: Duration::from_millis(if opts.smoke { 200 } else { 1_000 }),
        window: Duration::from_secs(opts.seconds),
    };
    match w {
        Workload::ServeLarge => serve::run(serve::Kind::Large, bins, opts.seed, &plan),
        Workload::ServeSmall => serve::run(serve::Kind::Small, bins, opts.seed, &plan),
        Workload::ServeChurn => serve::run(serve::Kind::Churn, bins, opts.seed, &plan),
        Workload::FleetBatch => {
            // 4 096 documents per roster entry: 16 384 jobs, 14-21 s on a
            // 2-vCPU virtual machine, so the batch fits the default window.
            // A one-job start takes milliseconds, so its median needs
            // more starts than a daemon's.
            let (docs, setups) = if opts.smoke { (8, 3) } else { (4_096, 31) };
            fleet::run(bins, opts.seed, docs, setups, out_dir)
        }
    }
}

/// Print a run's metrics and failures, append its record to
/// `results.jsonl` unless it is a smoke run, and print the result line
/// last.
fn report(w: Workload, trace: bool, opts: &RunArgs, run: &Run, out_dir: &Path) {
    println!(
        "== {} seed {} ({})",
        w.name(),
        opts.seed,
        if trace { "traced" } else { "end to end" }
    );
    for (name, value, unit) in &run.metrics {
        println!("{name:<40} {:>16} {unit}", report::number(*value));
    }
    for (name, value, unit) in &run.info {
        println!("{name:<40} {:>16} {unit}  (info)", report::number(*value));
    }
    let rate = run.outcome.failed as f64 / run.outcome.attempted.max(1) as f64;
    println!(
        "{:<40} {:>16} ({} of {} operations failed)",
        "error_rate", rate, run.outcome.failed, run.outcome.attempted
    );
    for msg in run.outcome.failures.iter().chain(&run.violations) {
        eprintln!("{}: {msg}", w.name());
    }
    let result = run.result_json();
    if !opts.smoke {
        let info = run
            .info
            .iter()
            .map(|(name, value, _)| format!(r#""{name}":{}"#, report::number(*value)))
            .collect::<Vec<_>>()
            .join(",");
        let record = format!(
            r#"{{"workload":"{}","seed":{},"trace":{},"seconds":{},"result":{result},"info":{{{info}}}}}"#,
            w.name(),
            opts.seed,
            u8::from(trace),
            opts.seconds
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out_dir.join("results.jsonl"))
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("cannot record the run in results.jsonl: {e}");
        }
    }
    println!("{result}");
}

fn run_command(args: &[String]) -> ExitCode {
    let opts = match parse_run(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("no current directory: {e}");
            return ExitCode::from(2);
        }
    };
    let catalog = match catalog::Catalog::load(&root.join("BENCHMARK.json")) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("qa-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let bins = match procs::build(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("qa-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = root.join("qa-benchmark").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let runs: Vec<(Workload, bool)> = match opts.workload {
        Some(w) => vec![(w, opts.trace.unwrap_or(false))],
        None => [false, true]
            .into_iter()
            .filter(|t| opts.trace.is_none_or(|only| only == *t))
            .flat_map(|t| Workload::ALL.into_iter().map(move |w| (w, t)))
            .collect(),
    };
    let mut all_correct = true;
    for (w, trace) in runs {
        match execute(w, trace, &opts, &bins, &out_dir) {
            Ok(mut run) => {
                run.conform(catalog.reported(trace));
                all_correct &= run.correct();
                report(w, trace, &opts, &run, &out_dir);
            }
            Err(e) => {
                eprintln!("qa-benchmark: {}: {e}", w.name());
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
