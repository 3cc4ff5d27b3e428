//! `qa-benchmark compare <base-runs…> -- <head-runs…>`: judge a change
//! against its parent from two sets of recorded runs.
//!
//! The rules: a metric whose run-to-run spread is wider than its bound
//! is *unresolved* unless every head run beats every base run; a head
//! median worse than the base median by more than the bound is a
//! *regression*; a gain needs the head to win at least nine of every ten
//! (base, head) pairs, ties counting for neither, and the medians to
//! differ by more than the base's quartile distance. Everything else is
//! *unchanged*.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;

use qa_obs::json::{self, Value};

use crate::catalog::{Better, Catalog, Def};
use crate::stats::quartiles;

/// The judgement of one workload × metric row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change reliably reads better.
    Improved,
    /// Within the bound, and no reliable gain.
    Unchanged,
    /// The head median is worse than the base median by more than the
    /// bound.
    Regressed,
    /// The runs spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Whether `a` reads strictly better than `b`.
fn beats(a: f64, b: f64, better: Better) -> bool {
    match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Judge head runs against base runs. Runs are paired in the order
/// given (run them alternating), `bound` is the share of the base median
/// the metric may worsen by.
pub fn judge(base: &[f64], head: &[f64], better: Better, bound: f64) -> Verdict {
    if base.is_empty() || head.is_empty() {
        return Verdict::Unresolved;
    }
    let (bq1, bmed, bq3) = quartiles(base);
    let (hq1, hmed, hq3) = quartiles(head);
    let spread = ((bq3 - bq1) / bmed.abs()).max((hq3 - hq1) / hmed.abs());
    let every_head_wins = head
        .iter()
        .all(|&h| base.iter().all(|&b| beats(h, b, better)));
    // A NaN spread (zero median) is unresolved too.
    if spread.is_nan() || spread > bound {
        return if every_head_wins {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = match better {
        Better::Lower => (hmed - bmed) / bmed.abs(),
        Better::Higher => (bmed - hmed) / bmed.abs(),
    };
    if worsening > bound {
        return Verdict::Regressed;
    }
    let pairs = base.len().min(head.len());
    let wins = base
        .iter()
        .zip(head)
        .filter(|&(&b, &h)| beats(h, b, better))
        .count();
    if wins * 10 >= pairs * 9 && beats(hmed, bmed, better) && (hmed - bmed).abs() > bq3 - bq1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Values runs record under `info` that `compare` judges like the
/// end-to-end metric named beside each (same direction and bound): the
/// churn writer's latencies. `BENCHMARK.json` cannot list them, because
/// every workload must report every end-to-end metric and only
/// `serve-churn` has a writer.
const JUDGED_INFO: [(&str, &str); 4] = [
    ("ingest_p50_ms", "op_p50_ms"),
    ("ingest_p95_ms", "op_p99_ms"),
    ("cold_query_p50_ms", "op_p50_ms"),
    ("cold_query_p90_ms", "op_p99_ms"),
];

/// The rows `compare` prints, in order: end-to-end metrics, the judged
/// informational values, then per-layer metrics (which carry no bound).
fn rows(catalog: &Catalog) -> Vec<Def> {
    let judged_info = JUDGED_INFO.iter().filter_map(|&(name, like)| {
        let like = catalog.end_to_end.iter().find(|d| d.name == like)?;
        Some(Def {
            name: name.to_string(),
            ..like.clone()
        })
    });
    catalog
        .end_to_end
        .iter()
        .cloned()
        .chain(judged_info)
        .chain(catalog.per_layer.iter().cloned())
        .collect()
}

/// Recorded values: workload → metric → values in run order.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Read `results.jsonl` files written by `qa-benchmark run`: every metric
/// and informational value, and the window length of each record.
fn load(paths: &[String], seconds: &mut BTreeSet<u64>) -> Result<Table, String> {
    let mut table = Table::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let at = format!("{path}:{}", i + 1);
            let v = json::parse(line).map_err(|e| format!("{at}: {e}"))?;
            let workload = v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or(format!("{at}: no workload"))?;
            seconds.insert(
                v.get("seconds")
                    .and_then(Value::as_u64)
                    .ok_or(format!("{at}: no seconds"))?,
            );
            let metrics = v
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Value::as_obj)
                .ok_or(format!("{at}: no result metrics"))?;
            let row = table.entry(workload.to_string()).or_default();
            for (name, m) in metrics {
                if let Some(x) = m.get("value").and_then(Value::as_f64) {
                    row.entry(name.clone()).or_default().push(x);
                }
            }
            for (name, x) in v.get("info").and_then(Value::as_obj).unwrap_or(&[]) {
                if let Some(x) = x.as_f64() {
                    row.entry(name.clone()).or_default().push(x);
                }
            }
        }
    }
    Ok(table)
}

/// Render the comparison: one row per workload × metric, and whether any
/// judged metric regressed.
fn render(decl: &[Def], base: &Table, head: &Table) -> (String, bool) {
    use std::fmt::Write as _;
    let mut text = String::new();
    let mut regressed = false;
    let _ = writeln!(
        text,
        "{:<12} {:<36} {:>26} {:>26} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change"
    );
    let workloads: Vec<&String> = base.keys().filter(|w| head.contains_key(*w)).collect();
    for w in workloads {
        for d in decl {
            let (Some(b), Some(h)) = (base[w].get(&d.name), head[w].get(&d.name)) else {
                continue;
            };
            let (bq1, bmed, bq3) = quartiles(b);
            let (hq1, hmed, hq3) = quartiles(h);
            let verdict = match d.bound {
                Some(bound) => {
                    let v = judge(b, h, d.better, bound);
                    regressed |= v == Verdict::Regressed;
                    v.name()
                }
                None => "-",
            };
            let _ = writeln!(
                text,
                "{:<12} {:<36} {:>26} {:>26} {:>+7.1}%  {verdict}",
                w,
                d.name,
                format!("{bmed:.4} [{bq1:.4}, {bq3:.4}]"),
                format!("{hmed:.4} [{hq1:.4}, {hq3:.4}]"),
                100.0 * (hmed - bmed) / bmed.abs()
            );
            if b.len().min(h.len()) < 10 && d.bound.is_some() {
                let _ = writeln!(
                    text,
                    "{:<12} {:<36} only {} pair(s); the rules want 10",
                    "",
                    "",
                    b.len().min(h.len())
                );
            }
        }
    }
    (text, regressed)
}

/// Load both sides and the declarations. Runs made with different
/// `--seconds` measure different amounts of work, so mixing them is an
/// error.
fn prepare(args: &[String], split: usize) -> Result<(Vec<Def>, Table, Table), String> {
    let catalog = Catalog::load(Path::new("BENCHMARK.json"))?;
    let mut seconds = BTreeSet::new();
    let base = load(&args[..split], &mut seconds)?;
    let head = load(&args[split + 1..], &mut seconds)?;
    if seconds.len() > 1 {
        return Err(format!(
            "the runs used different --seconds ({seconds:?}); compare runs of one length"
        ));
    }
    Ok((rows(&catalog), base, head))
}

/// `compare <base-runs…> -- <head-runs…>`, bounds from `./BENCHMARK.json`.
/// Exits 1 when any judged metric regressed.
pub fn main(args: &[String]) -> ExitCode {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: qa-benchmark compare <base-runs…> -- <head-runs…>");
        return ExitCode::from(2);
    };
    match prepare(args, split) {
        Ok((decl, base, head)) => {
            let (text, regressed) = render(&decl, &base, &head);
            print!("{text}");
            if regressed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("qa-benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        // Ten runs spread symmetrically around `center`.
        (0..10)
            .map(|i| center * (1.0 + jitter * (i as f64 - 4.5) / 4.5))
            .collect()
    }

    #[test]
    fn identical_runs_are_unchanged() {
        let base = runs(100.0, 0.01);
        assert_eq!(judge(&base, &base, Better::Lower, 0.10), Verdict::Unchanged);
        assert_eq!(
            judge(&base, &base, Better::Higher, 0.10),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_clear_reliable_gain_is_improved() {
        let base = runs(100.0, 0.01);
        let head = runs(80.0, 0.01);
        assert_eq!(judge(&base, &head, Better::Lower, 0.10), Verdict::Improved);
        // The same numbers read as throughput are a regression.
        assert_eq!(
            judge(&base, &head, Better::Higher, 0.10),
            Verdict::Regressed
        );
    }

    #[test]
    fn worse_within_the_bound_is_unchanged_beyond_it_regressed() {
        let base = runs(100.0, 0.01);
        assert_eq!(
            judge(&base, &runs(105.0, 0.01), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&base, &runs(115.0, 0.01), Better::Lower, 0.10),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_small_gain_inside_the_base_spread_is_not_claimed() {
        // Head wins every pair, but by less than the base's quartile
        // distance.
        let base = runs(100.0, 0.04);
        let head: Vec<f64> = base.iter().map(|b| b - 0.5).collect();
        assert_eq!(judge(&base, &head, Better::Lower, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn fewer_than_nine_in_ten_wins_is_not_a_gain() {
        let base = vec![100.0; 10];
        let mut head = vec![90.0; 10];
        head[0] = 101.0;
        head[1] = 101.0;
        assert_eq!(judge(&base, &head, Better::Lower, 0.15), Verdict::Unchanged);
        head[1] = 90.0;
        assert_eq!(judge(&base, &head, Better::Lower, 0.15), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_head_run_wins() {
        let base = runs(100.0, 0.5);
        assert_eq!(
            judge(&base, &runs(100.0, 0.5), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        let head: Vec<f64> = base.iter().map(|b| b / 100.0).collect();
        assert_eq!(judge(&base, &head, Better::Lower, 0.10), Verdict::Improved);
    }

    #[test]
    fn compares_synthetic_result_files() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/compare-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Ten runs of `seconds` each: throughput `rps`, median 1000/rps
        // ms, and a churn writer cold-query median of `cold` ms.
        let write = |name: &str, rps: &[f64], cold: f64, seconds: u64| {
            let lines: Vec<String> = rps
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    format!(
                        r#"{{"workload":"serve-churn","seed":{i},"trace":0,"seconds":{seconds},"result":{{"correct":true,"attempted":1,"failed":0,"metrics":{{"ops_per_s":{{"value":{r},"unit":"1/s"}},"op_p50_ms":{{"value":{},"unit":"ms"}}}}}},"info":{{"cold_query_count":100,"cold_query_p50_ms":{}}}}}"#,
                        1000.0 / r,
                        cold + i as f64 * 0.01
                    )
                })
                .collect();
            let path = dir.join(name);
            std::fs::write(&path, lines.join("\n")).unwrap();
            vec![path.to_string_lossy().into_owned()]
        };
        let catalog = Catalog::parse(
            r#"{"end_to_end": [
                 {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                 {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
               "per_layer": []}"#,
        )
        .unwrap();
        let decl = rows(&catalog);
        let table = |paths: &[String]| load(paths, &mut BTreeSet::new()).unwrap();
        let base = write("base.jsonl", &runs(50.0, 0.01), 100.0, 25);

        let slower = write("slower.jsonl", &runs(40.0, 0.01), 100.0, 25);
        let (text, regressed) = render(&decl, &table(&base), &table(&slower));
        assert!(regressed, "{text}");
        assert!(text
            .lines()
            .any(|l| l.contains("ops_per_s") && l.ends_with("regressed")));

        let (text, regressed) = render(&decl, &table(&base), &table(&base));
        assert!(!regressed, "{text}");
        // Both end-to-end metrics and the writer's cold-query median,
        // judged with op_p50_ms's bound; the count is not judged.
        assert_eq!(text.matches("unchanged").count(), 3, "{text}");
        assert!(!text.contains("cold_query_count"), "{text}");

        let cold = write("cold.jsonl", &runs(50.0, 0.01), 130.0, 25);
        let (text, regressed) = render(&decl, &table(&base), &table(&cold));
        assert!(regressed, "{text}");
        assert!(text
            .lines()
            .any(|l| l.contains("cold_query_p50_ms") && l.ends_with("regressed")));

        let longer = write("longer.jsonl", &runs(50.0, 0.01), 100.0, 30);
        let mut seconds = BTreeSet::new();
        load(&base, &mut seconds).unwrap();
        load(&longer, &mut seconds).unwrap();
        assert_eq!(seconds.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
