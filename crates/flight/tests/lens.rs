//! End-to-end tests of the qa-lens wide-event layer: `events.jsonl`
//! identity byte-identity across `--jobs` and `--mesh` topologies, and the
//! assembled fleet timeline covering every job from every worker.

use std::path::PathBuf;
use std::process::{Command, Output};

use qa_flight::{identity_projection, parse_events};
use qa_obs::json::{self, Value};
use qa_obs::TraceContext;

fn qa_fleet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qa-fleet"))
        .args(args)
        .output()
        .expect("spawn qa-fleet")
}

fn tmp(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(name);
    p.to_str().unwrap().to_string()
}

fn read(dir: &str, name: &str) -> String {
    let path = PathBuf::from(dir).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

const CORPUS: &[&str] = &[
    "--queries",
    "4",
    "--docs",
    "4",
    "--size",
    "48",
    "--seed",
    "7",
];

const RUN_ID: &str = "fleet-s7-q4x4-z48";

fn run_fleet(extra: &[&str], dir: &str) -> String {
    let out = qa_fleet(&[CORPUS, extra, &["--out-dir", dir]].concat());
    assert!(
        out.status.success(),
        "qa-fleet {extra:?} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    read(dir, "events.jsonl")
}

#[test]
fn events_identity_is_byte_identical_across_jobs_and_mesh() {
    let baseline = run_fleet(&["--jobs", "1"], &tmp("lens-j1"));
    let base_identity = identity_projection(&baseline).expect("baseline parses");
    assert!(!base_identity.is_empty());
    for (label, extra) in [
        ("--jobs 4", &["--jobs", "4"] as &[&str]),
        ("--mesh 1", &["--mesh", "1"]),
        ("--mesh 2", &["--mesh", "2"]),
    ] {
        let dir = tmp(&format!("lens-{}", label.replace([' ', '-'], "")));
        let jsonl = run_fleet(extra, &dir);
        assert_eq!(
            identity_projection(&jsonl).expect("events parse"),
            base_identity,
            "identity projection for {label} diverged from --jobs 1"
        );
    }
}

#[test]
fn events_lines_are_in_job_order_with_derived_trace_ids() {
    let jsonl = run_fleet(&["--jobs", "4"], &tmp("lens-order"));
    let events = parse_events(&jsonl).expect("events parse");
    assert_eq!(events.len(), 16, "one event per (query, doc) job");
    for (i, ev) in events.iter().enumerate() {
        assert_eq!(ev.job, i, "events.jsonl is written in global job order");
        assert_eq!(ev.run, RUN_ID);
        let ctx = TraceContext::mint(RUN_ID, ev.job);
        assert_eq!(ev.trace, ctx.trace_hex(), "job {i} trace id is derived");
        assert_eq!(ev.span, ctx.span_hex(), "job {i} span id is derived");
        assert_eq!(ev.worker, "local");
        assert_eq!(ev.shard, "0/1");
        assert_eq!(ev.outcome, "ok");
        assert!(ev.steps > 0, "job {i} did work");
        assert!(ev.doc_nodes > 0);
    }
}

#[test]
fn mesh_events_carry_worker_placement_in_the_volatile_tail() {
    let jsonl = run_fleet(&["--mesh", "2"], &tmp("lens-placement"));
    let events = parse_events(&jsonl).expect("mesh events parse");
    assert_eq!(events.len(), 16);
    // Round-robin dealing: even jobs on shard 0, odd jobs on shard 1.
    for ev in &events {
        let expect_worker = if ev.job % 2 == 0 { "w0" } else { "w1" };
        assert_eq!(ev.worker, expect_worker, "job {}", ev.job);
        assert_eq!(ev.shard, format!("{}/2", ev.job % 2), "job {}", ev.job);
    }
}

/// The assembled fleet timeline: parses as Chrome trace JSON, names every
/// worker process, and its span tree covers every job from every worker.
#[test]
fn fleet_trace_covers_every_job_from_every_worker() {
    let dir = tmp("lens-trace");
    run_fleet(&["--mesh", "2"], &dir);
    let trace = read(&dir, "fleet-trace.json");
    let v = json::parse(&trace).expect("fleet trace is valid JSON");
    assert_eq!(
        v.get("otherData")
            .and_then(|d| d.get("run_id"))
            .and_then(Value::as_str),
        Some(RUN_ID)
    );
    let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();

    // Metadata names both worker processes.
    let process_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
        })
        .collect();
    assert_eq!(process_names, vec!["w0", "w1"], "{trace}");

    // Every job appears exactly once as a span, with its derived ids.
    let mut jobs: Vec<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .map(|e| {
            let args = e.get("args").expect("span args");
            let job = args.get("job").and_then(Value::as_u64).expect("job arg");
            let ctx = TraceContext::mint(RUN_ID, job as usize);
            assert_eq!(
                args.get("trace").and_then(Value::as_str),
                Some(ctx.trace_hex().as_str()),
                "job {job}"
            );
            assert!(
                e.get("dur").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0,
                "job {job} span has visible duration"
            );
            job
        })
        .collect();
    jobs.sort_unstable();
    assert_eq!(jobs, (0..16).collect::<Vec<u64>>(), "{trace}");

    // The in-process fleet writes the same timeline shape with one
    // "local" process.
    let solo_dir = tmp("lens-trace-solo");
    run_fleet(&[], &solo_dir);
    let solo = json::parse(&read(&solo_dir, "fleet-trace.json")).expect("solo trace parses");
    let solo_events = solo.get("traceEvents").and_then(Value::as_arr).unwrap();
    let solo_spans = solo_events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .count();
    assert_eq!(solo_spans, 16);
    assert!(
        solo_events.iter().any(|e| {
            e.get("name").and_then(Value::as_str) == Some("process_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    == Some("local")
        }),
        "in-process timeline names its single process"
    );
}

/// `--sweep` scales doc `di` to `size × (di + 1)` nodes, so the log spans
/// six document sizes. Every roster query is a two-pass linear-time
/// evaluation, so each fitted steps-vs-size exponent lands in the linear
/// class.
#[test]
fn sweep_fleet_growth_fits_are_linear() {
    let dir = tmp("lens-sweep");
    let out = qa_fleet(&[
        "--queries",
        "4",
        "--docs",
        "6",
        "--size",
        "32",
        "--sweep",
        "--seed",
        "3",
        "--out-dir",
        &dir,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let events = parse_events(&read(&dir, "events.jsonl")).expect("events parse");
    let report = qa_probe::analyze::growth(&events);
    assert_eq!(report.fits.len(), 4, "one fit per query");
    for fit in &report.fits {
        assert_eq!(fit.class, "linear", "{fit:?}");
    }
}
