//! End-to-end tests of `qa-fleet --slo`: the deterministic alert replay
//! (exit code, alerts.log, postmortem naming), byte-identity of the alert
//! artifacts across `--jobs` settings, mesh topologies and the offline
//! replay of `events.jsonl`, and the live `--scrape-every-ms` loop behind
//! `/series` and `/alerts`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

use qa_base::rng::{Rng, StdRng};
use qa_flight::parse_events;
use qa_sentinel::{parse_rules, Replay};

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

fn write_rules(name: &str, rules: &str) -> String {
    let path = tmp(name);
    std::fs::write(&path, rules).expect("write rules file");
    path
}

fn read(dir: &str, name: &str) -> String {
    std::fs::read_to_string(PathBuf::from(dir).join(name))
        .unwrap_or_else(|e| panic!("{dir}/{name}: {e}"))
}

/// A rule every real fleet trips immediately: total steps exceed 10.
const HOT_RULES: &str = "alert steps-high threshold qa_fleet_steps_total > 10 for 0\n";
/// A rule no test-sized fleet can trip.
const COLD_RULES: &str = "alert steps-high threshold qa_fleet_steps_total > 1000000000000 for 0\n";
/// The SLO drill: any budget trip burns error budget at 1000x objective.
const BURN_RULES: &str = "alert error-budget-burn burnrate \
    qa_fleet_budget_trips_total / qa_fleet_jobs_total \
    objective 0.001 fast 2 slow 4 for 1\n";

#[test]
fn firing_alert_fails_a_clean_fleet_and_is_named_in_the_postmortem() {
    // Every run succeeds, but the SLO verdict still fails the fleet: the
    // alert path is an independent exit-1 source, not a failure echo.
    let dir = tmp("slo-hot");
    let rules = write_rules("slo-hot.rules", HOT_RULES);
    let out = qa_fleet(&[
        "--queries",
        "2",
        "--docs",
        "2",
        "--size",
        "64",
        "--out-dir",
        &dir,
        "--slo",
        &rules,
    ]);
    assert_eq!(out.status.code(), Some(1), "firing alert must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("slo: 1 alert(s) firing"), "{stderr}");
    assert!(stderr.contains("steps-high"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 failed"), "{stdout}");

    let log = read(&dir, "alerts.log");
    assert!(log.contains("steps-high"), "{log}");
    assert!(log.contains("-> firing"), "{log}");
    let post = read(&dir, "postmortem.txt");
    assert!(
        post.contains("=== slo alerts firing at batch end ==="),
        "{post}"
    );
    assert!(
        post.contains("alert steps-high threshold qa_fleet_steps_total > 10"),
        "{post}"
    );
    // The replay's transition count lands in the deterministic registry.
    let prom = read(&dir, "metrics.prom");
    assert!(
        prom.contains("qa_fleet_alert_transitions_total 2"),
        "{prom}"
    );
}

#[test]
fn quiet_rules_leave_a_clean_exit_and_an_empty_log() {
    let dir = tmp("slo-cold");
    let rules = write_rules("slo-cold.rules", COLD_RULES);
    let out = qa_fleet(&[
        "--queries",
        "2",
        "--docs",
        "2",
        "--size",
        "64",
        "--out-dir",
        &dir,
        "--slo",
        &rules,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = read(&dir, "alerts.log");
    assert!(!log.contains("firing"), "{log}");
    assert!(
        !PathBuf::from(&dir).join("postmortem.txt").exists(),
        "clean run must not leave a post-mortem"
    );
    let prom = read(&dir, "metrics.prom");
    assert!(
        prom.contains("qa_fleet_alert_transitions_total 0"),
        "{prom}"
    );
}

#[test]
fn bad_rules_files_are_usage_errors() {
    let dir = tmp("slo-bad");
    let rules = write_rules("slo-bad.rules", "alert broken threshold\n");
    let out = qa_fleet(&["--smoke", "--out-dir", &dir, "--slo", &rules]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--slo"), "{stderr}");
    assert!(stderr.contains("line 1"), "{stderr}");

    let out = qa_fleet(&["--smoke", "--out-dir", &dir, "--slo", "/nonexistent.rules"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn alert_log_is_byte_identical_across_jobs_and_reruns() {
    // The burn-rate drill: --max-steps trips every budget, so the burn
    // alert fires during the replay. The transition log depends only on
    // (seed, rules), never on thread count or wall clock.
    let rules = write_rules("slo-burn.rules", BURN_RULES);
    let run = |dir: &str, jobs: &str| {
        let out = qa_fleet(&[
            "--queries",
            "1",
            "--docs",
            "8",
            "--size",
            "64",
            "--seed",
            "9",
            "--max-steps",
            "20",
            "--jobs",
            jobs,
            "--out-dir",
            dir,
            "--slo",
            &rules,
        ]);
        assert_eq!(out.status.code(), Some(1));
        out
    };
    let (a, b, c) = (tmp("slo-det-a"), tmp("slo-det-b"), tmp("slo-det-c"));
    run(&a, "1");
    run(&b, "4");
    run(&c, "4"); // rerun: same bytes again
    let log = read(&a, "alerts.log");
    assert!(log.contains("error-budget-burn"), "{log}");
    assert!(log.contains("-> firing"), "{log}");
    assert_eq!(log, read(&b, "alerts.log"));
    assert_eq!(log, read(&c, "alerts.log"));
    let post = read(&a, "postmortem.txt");
    assert!(post.contains("error-budget-burn"), "{post}");

    // The offline path `qa-trace analyze slo` takes — parse the fleet's own
    // events.jsonl, sort by job, replay — reproduces alerts.log byte for
    // byte, also from a completion-ordered (shuffled) copy of the log.
    let events = read(&a, "events.jsonl");
    let mut lines: Vec<&str> = events.lines().collect();
    let mut rng = StdRng::seed_from_u64(12);
    for i in (1..lines.len()).rev() {
        lines.swap(i, rng.gen_range(0..i + 1));
    }
    let shuffled = lines.join("\n");
    assert_ne!(
        shuffled.trim_end(),
        events.trim_end(),
        "the shuffle moved lines"
    );
    for jsonl in [events.as_str(), shuffled.as_str()] {
        let mut events = parse_events(jsonl).expect("events parse");
        events.sort_by_key(|e| e.job);
        let mut replay = Replay::new(parse_rules(BURN_RULES).unwrap(), "qa_fleet");
        for ev in &events {
            replay.observe_job(ev);
        }
        assert_eq!(replay.engine().render_log(), log);
    }
}

#[test]
fn mesh_replay_of_federated_events_matches_the_in_process_log() {
    // The coordinator replays the federated events.jsonl through the same
    // Replay, so a sharded fleet writes the same alerts.log bytes as an
    // unsharded one over the same corpus.
    let rules = write_rules("slo-mesh.rules", BURN_RULES);
    let flat = tmp("slo-mesh-flat");
    let out = qa_fleet(&[
        "--queries",
        "1",
        "--docs",
        "6",
        "--size",
        "64",
        "--seed",
        "5",
        "--max-steps",
        "20",
        "--out-dir",
        &flat,
        "--slo",
        &rules,
    ]);
    assert_eq!(out.status.code(), Some(1));

    let meshed = tmp("slo-mesh-2");
    let out = qa_fleet(&[
        "--queries",
        "1",
        "--docs",
        "6",
        "--size",
        "64",
        "--seed",
        "5",
        "--max-steps",
        "20",
        "--mesh",
        "2",
        "--out-dir",
        &meshed,
        "--slo",
        &rules,
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "degraded workers + firing alert"
    );
    assert_eq!(read(&flat, "alerts.log"), read(&meshed, "alerts.log"));
    let post = read(&meshed, "postmortem.txt");
    assert!(post.contains("error-budget-burn"), "{post}");
}

/// Minimal HTTP/1.1 GET against the fleet's pulse server.
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to pulse server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_ascii_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn scrape_loop_feeds_live_series_and_alerts_endpoints() {
    // A paced fleet with a fast scrape loop: mid-run, /series serves the
    // accumulating rings and /alerts the engine state. Cold rules keep the
    // exit clean — the live loop never decides the exit code.
    let dir = tmp("slo-serve");
    let rules = write_rules("slo-serve.rules", COLD_RULES);
    let mut child = Command::new(env!("CARGO_BIN_EXE_qa-fleet"))
        .args([
            "--smoke",
            "--out-dir",
            &dir,
            "--serve",
            "127.0.0.1:0",
            "--pace-ms",
            "30",
            "--linger-ms",
            "30000",
            "--slo",
            &rules,
            "--scrape-every-ms",
            "5",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn qa-fleet --serve");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("child printed the serving line")
            .expect("read child stdout");
        if let Some(a) = line.strip_prefix("pulse: serving on ") {
            break a.to_string();
        }
    };

    // The scrape loop ticks every 5 ms; well before the paced batch ends,
    // the steps ring must hold samples and the alert engine must answer.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let (status, body) = http_get(&addr, "/series?name=qa_fleet_steps_total&n=4");
        assert_eq!(status, 200);
        if body.contains("qa_fleet_steps_total") && body.contains("\"samples\"") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no series showed up in /series: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, alerts) = http_get(&addr, "/alerts");
    assert_eq!(status, 200);
    assert!(alerts.contains("steps-high"), "{alerts}");
    assert!(!alerts.contains("\"state\":\"firing\""), "{alerts}");

    for line in lines.by_ref() {
        if line.expect("read child stdout") == "pulse: run complete" {
            break;
        }
    }
    let (status, _) = http_get(&addr, "/quit");
    assert_eq!(status, 200);
    let out = child.wait().expect("child exits");
    assert!(out.success(), "cold rules keep the fleet green");
}
