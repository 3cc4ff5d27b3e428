//! Runs every workload with `--smoke`, end to end and traced, through the
//! real binary from the repository root, so a change to the program that
//! breaks the benchmark fails `cargo test` here.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["serve-large", "serve-small", "serve-churn", "fleet-batch"];

/// One run's last stdout line, checked to be a correct result.
fn run(root: &Path, workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_qa-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "3",
            "--smoke",
            "--trace",
            trace,
        ])
        .current_dir(root)
        .output()
        .expect("qa-benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default().to_string();
    assert!(
        last.starts_with(r#"{"correct": true"#),
        "{workload}: {last}"
    );
    last
}

#[test]
fn every_workload_runs_correctly() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // Sequential on purpose: the workloads share two cores.
    for workload in WORKLOADS {
        let e2e = run(&root, workload, "0");
        for metric in [
            "setup_s",
            "ops_per_s",
            "op_p50_ms",
            "op_p99_ms",
            "peak_rss_mb",
        ] {
            assert!(
                e2e.contains(&format!(r#""{metric}": {{"value": "#)),
                "{workload}: {e2e}"
            );
        }
        let traced = run(&root, workload, "1");
        assert!(
            traced.contains(r#""attributed_pct": {"value": "#),
            "{workload}: {traced}"
        );
        assert!(!traced.contains("null"), "{workload}: {traced}");
        let spans = root
            .join("qa-benchmark/out")
            .join(format!("{workload}.spans.jsonl"));
        assert!(
            std::fs::metadata(&spans)
                .map(|m| m.len() > 0)
                .unwrap_or(false),
            "{}",
            spans.display()
        );
    }
}
