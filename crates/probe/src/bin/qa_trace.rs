//! `qa-trace`: record, replay, explain, diff, and export instrumented runs.
//!
//! ```text
//! qa-trace record <workload> [input] [--out FILE] [--metrics-out FILE]
//! qa-trace replay <trace.json>
//! qa-trace why <workload> [input] [--pos P] [--json]
//! qa-trace explain <workload> [input] [--json] [--collapsed] [--scope-out FILE]
//! qa-trace diff <a.json> <b.json>
//! qa-trace export chrome <trace.json> [--out FILE]
//! qa-trace export prom <metrics.json> [--out FILE]
//! qa-trace analyze top    <events.jsonl> [--k K] [--json] [--out FILE]
//! qa-trace analyze top    <scope.json> --by state [--k K] [--json] [--out FILE]
//! qa-trace analyze slow   <events.jsonl> [--k K] [--json] [--out FILE]
//! qa-trace analyze growth <events.jsonl> [--json] [--out FILE]
//! qa-trace analyze slo    <events.jsonl> --rules FILE [--json] [--out FILE]
//! ```
//!
//! `explain` is EXPLAIN ANALYZE for a workload run: it executes the
//! workload with a `qa-scope` profiler attached and prints the per-state
//! profile — hot/cold/dead states, the state×symbol transition heatmap,
//! per-phase transition counts, per-state cache attribution — as text,
//! JSON (`--json`), or a flamegraph-ready collapsed stack
//! (`--collapsed`). `--scope-out FILE` additionally writes the raw
//! profile in `scope.json` form, which `analyze top --by state` reads.
//!
//! `analyze` reads a `qa-fleet` wide-event log (`events.jsonl`) and
//! reports heavy hitters (`top`), per-query percentile outliers (`slow`),
//! or per-query steps-vs-size growth fits (`growth` — feed it a
//! `qa-fleet --sweep` log so document sizes vary). `analyze top --by
//! state` reads a `scope.json` (from `qa-fleet --scope`, `--scope-out`
//! here, or a serve daemon's `/explain`) instead and ranks individual
//! automaton states by visit count. `analyze slo` replays
//! the log through the `qa-sentinel` alert engine offline — one logical
//! tick per job, in job order, exactly like `qa-fleet --slo` — printing
//! the deterministic transition log; it exits 1 when any alert is still
//! firing after the last job, so the fleet's alerting verdict can be
//! re-derived (or a new rules file trialled) from an archived log alone.
//!
//! Workloads are the paper's running examples, deterministic by
//! construction so two invocations on the same input produce byte-identical
//! traces:
//!
//! - `example-3-4 [word]` — Example 3.4 string QA ("select every 1 at an
//!   odd position from the right"), default word `0110`.
//! - `example-3-4-variant [word]` — the same machine with one transition
//!   changed (the first left move enters the *even* parity state), for
//!   exercising `diff`.
//! - `example-4-4 [sexpr]` — Example 4.4 ranked circuit QA, default
//!   `(OR (AND 1 0) 1)`.
//! - `example-5-14 [sexpr]` — Example 5.14 strong unranked QA with stay
//!   transitions, default `(0 1 0 0 1 0)`.
//! - `fig5` — the Figure 5 two-pass ranked unary MSO evaluation.

use std::process::ExitCode;

use qa_base::Alphabet;
use qa_obs::json::Value;
use qa_obs::{Metrics, RunTrace, Tee};
use qa_probe::export::parse_json;
use qa_probe::{
    chrome_from_trace_json, counter_drift, first_divergence, prometheus_from_metrics_json,
    ProvenanceObserver,
};

const USAGE: &str = "usage:
  qa-trace record <workload> [input] [--out FILE] [--metrics-out FILE]
  qa-trace replay <trace.json>
  qa-trace why <workload> [input] [--pos P] [--json]
  qa-trace explain <workload> [input] [--json] [--collapsed] [--scope-out FILE]
  qa-trace diff <a.json> <b.json>
  qa-trace export chrome <trace.json> [--out FILE]
  qa-trace export prom <metrics.json> [--out FILE]
  qa-trace analyze top    <events.jsonl> [--k K] [--json] [--out FILE]
  qa-trace analyze top    <scope.json> --by state [--k K] [--json] [--out FILE]
  qa-trace analyze slow   <events.jsonl> [--k K] [--json] [--out FILE]
  qa-trace analyze growth <events.jsonl> [--json] [--out FILE]
  qa-trace analyze slo    <events.jsonl> --rules FILE [--json] [--out FILE]

workloads: example-3-4, example-3-4-variant, example-4-4, example-5-14, fig5";

/// One recorded workload run: full trace, metrics, provenance, per-state
/// profile, results.
struct Recorded {
    trace: RunTrace,
    metrics: Metrics,
    prov: ProvenanceObserver,
    /// Per-state execution profile (`qa-trace explain`).
    scope: qa_scope::ScopeProfiler,
    /// Selected positions in the workload's result coordinates (word
    /// indices for strings, node indices for trees).
    selected: Vec<usize>,
    /// Whether results are word indices (tape position − 1).
    word_coords: bool,
}

/// Example 3.4 with the first left move rewired into the even-parity state
/// — selects 1s at *even* positions from the right, so its trace diverges
/// from the original exactly one step after the head reaches `⊲`.
fn example_3_4_variant(alphabet: &Alphabet) -> qa_twoway::StringQa {
    use qa_twoway::{Dir, Tape, TwoDfaBuilder};
    let one = alphabet.symbol("1");
    let mut b = TwoDfaBuilder::new(alphabet.len());
    let s0 = b.add_state();
    let s1 = b.add_state();
    let s2 = b.add_state();
    b.set_initial(s0);
    b.set_final(s1, true);
    b.set_final(s2, true);
    b.set_action(s0, Tape::LeftMarker, Dir::Right, s0);
    b.set_action_all_symbols(s0, Dir::Right, s0);
    b.set_action(s0, Tape::RightMarker, Dir::Left, s2); // original enters s1
    b.set_action_all_symbols(s1, Dir::Left, s2);
    b.set_action_all_symbols(s2, Dir::Left, s1);
    let mut qa = qa_twoway::StringQa::new(b.build().expect("valid machine"));
    qa.set_selecting(s1, one, true);
    qa
}

fn run_workload(name: &str, input: Option<&str>) -> Result<Recorded, String> {
    let mut trace = RunTrace::new();
    let metrics = Metrics::new();
    let mut prov = ProvenanceObserver::new();
    let mut scope = qa_scope::ScopeProfiler::new();
    let mut word_coords = false;
    let selected: Vec<usize> = {
        let mut obs = Tee(
            &mut trace,
            Tee(metrics.observer(), Tee(&mut prov, &mut scope)),
        );
        match name {
            "example-3-4" | "example-3-4-variant" => {
                word_coords = true;
                let a = Alphabet::from_names(["0", "1"]);
                let text = input.unwrap_or("0110");
                if text.chars().any(|c| c != '0' && c != '1') {
                    return Err(format!("word must be over {{0,1}}, got {text:?}"));
                }
                let word = a.word(text);
                let qa = if name == "example-3-4" {
                    qa_twoway::string_qa::example_3_4_qa(&a)
                } else {
                    example_3_4_variant(&a)
                };
                qa.query_with(&word, &mut obs).map_err(|e| e.to_string())?
            }
            "example-4-4" => {
                let mut a = Alphabet::from_names(["AND", "OR", "0", "1"]);
                let t = qa_trees::sexpr::from_sexpr(input.unwrap_or("(OR (AND 1 0) 1)"), &mut a)
                    .map_err(|e| e.to_string())?;
                let qa = qa_core::ranked::query::example_4_4(&a);
                qa.query_with(&t, &mut obs)
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .map(|n| n.index())
                    .collect()
            }
            "example-5-14" => {
                let mut a = Alphabet::from_names(["0", "1"]);
                let t = qa_trees::sexpr::from_sexpr(input.unwrap_or("(0 1 0 0 1 0)"), &mut a)
                    .map_err(|e| e.to_string())?;
                let qa = qa_core::unranked::query::example_5_14(&a);
                qa.query_with(&t, &mut obs)
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .map(|n| n.index())
                    .collect()
            }
            "fig5" => {
                let mut a = Alphabet::from_names(["s", "t"]);
                let phi = qa_mso::parse("leaf(v) & (ex r. (root(r) & label(r, s)))", &mut a)
                    .map_err(|e| e.to_string())?;
                let d = qa_mso::compile_ranked::compile_unary(&phi, "v", 2, 2)
                    .map_err(|e| e.to_string())?;
                let t = qa_trees::generate::complete(a.symbol("s"), 2, 4);
                qa_mso::query_eval::eval_unary_ranked_with(&d, &t, 2, &mut obs)
                    .into_iter()
                    .map(|n| n.index())
                    .collect()
            }
            other => return Err(format!("unknown workload `{other}` — {USAGE}")),
        }
    };
    Ok(Recorded {
        trace,
        metrics,
        prov,
        scope,
        selected,
        word_coords,
    })
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn emit(out: Option<&str>, content: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
            Ok(())
        }
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

/// Pull `--flag VALUE` out of `args`, returning the value.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) if i + 1 < args.len() => {
            args.remove(i);
            Ok(Some(args.remove(i)))
        }
        Some(_) => Err(format!("{flag} needs a value")),
        None => Ok(None),
    }
}

fn cmd_record(mut args: Vec<String>) -> Result<ExitCode, String> {
    let out = take_flag(&mut args, "--out")?;
    let metrics_out = take_flag(&mut args, "--metrics-out")?;
    let workload = args.first().ok_or(USAGE)?;
    let rec = run_workload(workload, args.get(1).map(String::as_str))?;
    eprintln!(
        "{workload}: {} configs, selected {:?}",
        rec.trace.configs.len(),
        rec.selected
    );
    emit(out.as_deref(), &format!("{}\n", rec.trace.to_json()))?;
    if let Some(path) = metrics_out {
        emit(Some(&path), &format!("{}\n", rec.metrics.to_json()))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(args: Vec<String>) -> Result<ExitCode, String> {
    let path = args.first().ok_or(USAGE)?;
    let v = read_json(path)?;
    let configs = v
        .get("configs")
        .and_then(Value::as_arr)
        .ok_or("trace has no \"configs\" array")?;
    for (i, c) in configs.iter().enumerate() {
        let state = c.get("state").and_then(Value::as_u64).unwrap_or(0);
        let pos = c.get("pos").and_then(Value::as_u64).unwrap_or(0);
        let dir = c.get("dir").and_then(Value::as_f64).unwrap_or(0.0);
        let arrow = if dir < 0.0 {
            "<-"
        } else if dir > 0.0 {
            "->"
        } else {
            "--"
        };
        println!("{i:4}  q{state} @ {pos} {arrow}");
    }
    if v.get("truncated") == Some(&Value::Bool(true)) {
        println!("      ... (truncated)");
    }
    if let Some(counters) = v.get("counters").and_then(Value::as_obj) {
        for (k, n) in counters {
            if let Some(n) = n.as_u64() {
                println!("{k}: {n}");
            }
        }
    }
    if let Some(phases) = v.get("phases").and_then(Value::as_arr) {
        for p in phases {
            let name = p.get("name").and_then(Value::as_str).unwrap_or("?");
            let depth = p.get("depth").and_then(Value::as_u64).unwrap_or(0) as usize;
            let ms = p.get("ms").and_then(Value::as_f64).unwrap_or(0.0);
            println!("{}[{name}] {ms:.3} ms", "  ".repeat(depth));
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_why(mut args: Vec<String>) -> Result<ExitCode, String> {
    let pos = take_flag(&mut args, "--pos")?
        .map(|p| p.parse::<u32>().map_err(|_| format!("bad --pos `{p}`")))
        .transpose()?;
    let json = match args.iter().position(|a| a == "--json") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    let workload = args.first().ok_or(USAGE)?;
    let rec = run_workload(workload, args.get(1).map(String::as_str))?;
    let explanations = match pos {
        Some(p) => match rec.prov.why_selected(p) {
            Some(e) => vec![e],
            None => {
                eprintln!("position {p} was not selected");
                return Ok(ExitCode::FAILURE);
            }
        },
        None => rec.prov.explanations(),
    };
    if explanations.is_empty() {
        println!("no positions selected");
        return Ok(ExitCode::SUCCESS);
    }
    for e in &explanations {
        if json {
            println!("{}", e.to_json());
        } else {
            if rec.word_coords && e.pos > 0 {
                println!("(word index {})", e.pos - 1);
            }
            print!("{}", e.render_text());
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_explain(mut args: Vec<String>) -> Result<ExitCode, String> {
    let scope_out = take_flag(&mut args, "--scope-out")?;
    let json = take_switch(&mut args, "--json");
    let collapsed = take_switch(&mut args, "--collapsed");
    let workload = args.first().ok_or(USAGE)?;
    let rec = run_workload(workload, args.get(1).map(String::as_str))?;
    eprintln!(
        "{workload}: {} steps, selected {:?}",
        rec.metrics.get(qa_obs::Counter::Steps),
        rec.selected
    );
    if let Some(path) = scope_out {
        emit(Some(&path), &format!("{}\n", rec.scope.to_json()))?;
    }
    let content = if collapsed {
        rec.scope.to_collapsed()
    } else if json {
        format!("{}\n", rec.scope.explain_run().to_json())
    } else {
        rec.scope.explain_run().render_text()
    };
    print!("{content}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: Vec<String>) -> Result<ExitCode, String> {
    let (pa, pb) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(USAGE.to_string()),
    };
    let (a, b) = (read_json(pa)?, read_json(pb)?);
    let mut diverged = false;
    match first_divergence(&a, &b)? {
        None => println!("configs: identical"),
        Some(d) => {
            diverged = true;
            let show = |c: &Option<qa_obs::TraceConfig>| match c {
                Some(c) => format!("q{} @ {} dir {}", c.state, c.pos, c.dir),
                None => "(run ended)".to_string(),
            };
            println!("configs: first divergence at step {}", d.index);
            println!("  {pa}: {}", show(&d.a));
            println!("  {pb}: {}", show(&d.b));
        }
    }
    let drift = counter_drift(&a, &b);
    for (k, va, vb) in &drift {
        diverged = true;
        println!("counter {k}: {va} vs {vb}");
    }
    Ok(if diverged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_export(mut args: Vec<String>) -> Result<ExitCode, String> {
    let out = take_flag(&mut args, "--out")?;
    let (format, path) = match (args.first(), args.get(1)) {
        (Some(f), Some(p)) => (f.as_str(), p),
        _ => return Err(USAGE.to_string()),
    };
    let v = read_json(path)?;
    let content = match format {
        "chrome" => format!("{}\n", chrome_from_trace_json(&v)?),
        "prom" => prometheus_from_metrics_json(&v, "qa")?,
        other => return Err(format!("unknown export format `{other}` — {USAGE}")),
    };
    emit(out.as_deref(), &content)?;
    Ok(ExitCode::SUCCESS)
}

/// Pull a bare `--flag` (no value) out of `args`, returning presence.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn cmd_analyze(mut args: Vec<String>) -> Result<ExitCode, String> {
    let out = take_flag(&mut args, "--out")?;
    let json = take_switch(&mut args, "--json");
    let k = take_flag(&mut args, "--k")?
        .map(|k| k.parse::<usize>().map_err(|_| format!("bad --k `{k}`")))
        .transpose()?
        .unwrap_or(10);
    let rules_path = take_flag(&mut args, "--rules")?;
    let by = take_flag(&mut args, "--by")?;
    let (report, path) = match (args.first(), args.get(1)) {
        (Some(r), Some(p)) => (r.as_str(), p),
        _ => return Err(USAGE.to_string()),
    };
    match by.as_deref() {
        Some("state") if report == "top" => {
            // --by state reads a scope.json profile, not an event log.
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let scope =
                qa_scope::ScopeProfiler::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            let r = qa_probe::analyze::top_states(&scope, k);
            let content = if json {
                format!("{}\n", r.to_json())
            } else {
                r.render_text()
            };
            emit(out.as_deref(), &content)?;
            return Ok(ExitCode::SUCCESS);
        }
        Some("state") => return Err(format!("--by state only applies to `top` — {USAGE}")),
        Some(other) => return Err(format!("unknown --by dimension `{other}` — {USAGE}")),
        None => {}
    }
    let jsonl = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut rows = qa_obs::parse_events(&jsonl).map_err(|e| format!("{path}: {e}"))?;
    let mut slo_firing = false;
    let content = match report {
        "top" => {
            let r = qa_probe::analyze::top(&rows, k);
            if json {
                format!("{}\n", r.to_json())
            } else {
                r.render_text()
            }
        }
        "slow" => {
            let r = qa_probe::analyze::slow(&rows, k);
            if json {
                format!("{}\n", r.to_json())
            } else {
                r.render_text()
            }
        }
        "growth" => {
            let r = qa_probe::analyze::growth(&rows);
            if json {
                format!("{}\n", r.to_json())
            } else {
                r.render_text()
            }
        }
        "slo" => {
            let rules_path = rules_path.ok_or("analyze slo needs --rules FILE")?;
            let text =
                std::fs::read_to_string(&rules_path).map_err(|e| format!("{rules_path}: {e}"))?;
            let rules =
                qa_sentinel::parse_rules(&text).map_err(|e| format!("{rules_path}: {e}"))?;
            // Replay in global job order, whatever order the log arrived
            // in (a scraped /events tail is completion-ordered): the
            // replay must match the fleet's own byte for byte.
            rows.sort_by_key(|r| r.job);
            let mut replay = qa_sentinel::Replay::new(rules, "qa_fleet");
            for r in &rows {
                replay.observe_job(r);
            }
            let firing = replay.engine().firing();
            slo_firing = !firing.is_empty();
            if json {
                format!(
                    "{}\n",
                    qa_obs::json::object(|w| {
                        w.field_u64("ticks", replay.tick());
                        w.field_raw("alerts", &replay.engine().to_json());
                    })
                )
            } else {
                use std::fmt::Write;
                let mut text = String::new();
                let _ = writeln!(
                    text,
                    "slo replay: {} job(s), {} alert(s) firing at end",
                    replay.tick(),
                    firing.len()
                );
                text.push_str(&replay.engine().render_log());
                for name in &firing {
                    let _ = writeln!(text, "firing: {name}");
                }
                text
            }
        }
        other => return Err(format!("unknown analyze report `{other}` — {USAGE}")),
    };
    emit(out.as_deref(), &content)?;
    Ok(if slo_firing {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "record" => cmd_record(args),
        "replay" => cmd_replay(args),
        "why" => cmd_why(args),
        "explain" => cmd_explain(args),
        "diff" => cmd_diff(args),
        "export" => cmd_export(args),
        "analyze" => cmd_analyze(args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("qa-trace: {msg}");
            ExitCode::from(2)
        }
    }
}
