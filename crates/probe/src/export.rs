//! Standard-format exports: Chrome trace-event JSON (Perfetto-loadable)
//! for [`RunTrace`] phase timings, and Prometheus text exposition for
//! [`Metrics`] registries.

use qa_obs::json::{self, ParseError, Value};
use qa_obs::stats::bucket_le;
use qa_obs::{Counter, Metrics, RunTrace, Series};

/// Serialize a trace's phase spans to Chrome trace-event JSON.
///
/// Each completed phase becomes one complete (`"ph": "X"`) event with
/// microsecond `ts`/`dur` on a `tid` equal to its nesting depth + 1, and
/// the trace's counters ride along as one counter (`"ph": "C"`) event.
/// Metadata (`"ph": "M"`) events name the process and each depth track,
/// so Perfetto labels them instead of showing bare pids.
/// Load the output in <https://ui.perfetto.dev> or `chrome://tracing`.
pub fn chrome_trace(trace: &RunTrace) -> String {
    let parsed = json::parse(&trace.to_json()).expect("RunTrace emits valid JSON");
    chrome_from_trace_json(&parsed).expect("RunTrace emits a well-shaped report")
}

/// [`chrome_trace`] from an already-parsed `RunTrace::to_json` document —
/// the entry point the `qa-trace` CLI uses on recorded trace files.
pub fn chrome_from_trace_json(trace: &Value) -> Result<String, String> {
    let phases = trace
        .get("phases")
        .and_then(Value::as_arr)
        .ok_or("trace report has no \"phases\" array")?;
    let mut events: Vec<String> = Vec::with_capacity(phases.len() + 4);
    // Metadata first: name the process and every depth track, so viewers
    // show "qa-run" and "depth 0/1/…" instead of bare pid/tid numbers.
    events.push(metadata_event("process_name", 1, None, "qa-run"));
    let mut depths: Vec<u64> = phases
        .iter()
        .map(|p| p.get("depth").and_then(Value::as_u64).unwrap_or(0))
        .collect();
    depths.sort_unstable();
    depths.dedup();
    for d in depths {
        events.push(metadata_event(
            "thread_name",
            1,
            Some(d + 1),
            &format!("depth {d}"),
        ));
    }
    for p in phases {
        let name = p
            .get("name")
            .and_then(Value::as_str)
            .ok_or("phase without a name")?;
        let depth = p.get("depth").and_then(Value::as_u64).unwrap_or(0);
        let start_ms = p.get("start_ms").and_then(Value::as_f64).unwrap_or(0.0);
        let dur_ms = p.get("ms").and_then(Value::as_f64).unwrap_or(0.0);
        events.push(json::object(|w| {
            w.field_str("name", name);
            w.field_str("cat", "phase");
            w.field_str("ph", "X");
            w.field_f64("ts", start_ms * 1e3);
            w.field_f64("dur", dur_ms * 1e3);
            w.field_u64("pid", 1);
            w.field_u64("tid", depth + 1);
        }));
    }
    if let Some(counters) = trace.get("counters").and_then(Value::as_obj) {
        if !counters.is_empty() {
            events.push(json::object(|w| {
                w.field_str("name", "counters");
                w.field_str("ph", "C");
                w.field_u64("ts", 0);
                w.field_u64("pid", 1);
                w.field_raw(
                    "args",
                    &json::object(|aw| {
                        for (k, v) in counters {
                            if let Some(n) = v.as_u64() {
                                aw.field_u64(k, n);
                            }
                        }
                    }),
                );
            }));
        }
    }
    Ok(json::object(|w| {
        w.field_raw("traceEvents", &json::array(events));
        w.field_str("displayTimeUnit", "ms");
    }))
}

/// One Chrome metadata (`"ph": "M"`) event: `process_name` /
/// `thread_name` entries that make viewers label tracks.
fn metadata_event(kind: &str, pid: u64, tid: Option<u64>, name: &str) -> String {
    json::object(|w| {
        w.field_str("name", kind);
        w.field_str("ph", "M");
        w.field_u64("pid", pid);
        if let Some(tid) = tid {
            w.field_u64("tid", tid);
        }
        w.field_raw("args", &json::object(|aw| aw.field_str("name", name)));
    })
}

/// Escape a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n` (the three escapes the exposition format defines).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Serialize a metrics registry to the Prometheus text exposition format.
///
/// Counters become `<prefix>_<name>_total` counters; every non-empty series
/// becomes a `<prefix>_<name>` histogram with cumulative power-of-two `le`
/// buckets; every [`Metrics::set_info`] entry becomes a constant-`1` info
/// gauge under its own (unprefixed) name with labels sorted by key.
/// `prefix` is typically `"qa"`.
pub fn prometheus_text(metrics: &Metrics, prefix: &str) -> String {
    let mut out = String::new();
    for c in Counter::ALL {
        let name = format!("{prefix}_{}_total", c.name());
        out.push_str(&format!(
            "# TYPE {name} counter\n{name} {}\n",
            metrics.get(c)
        ));
    }
    for s in Series::ALL {
        let snap = metrics.histogram(s);
        if snap.count == 0 {
            continue;
        }
        let name = format!("{prefix}_{}", s.name());
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let used = snap.buckets.len() - snap.buckets.iter().rev().take_while(|&&b| b == 0).count();
        let mut cumulative = 0u64;
        for (i, &b) in snap.buckets[..used].iter().enumerate() {
            cumulative += b;
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                bucket_le(i)
            ));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
        out.push_str(&format!("{name}_sum {}\n", snap.sum));
        out.push_str(&format!("{name}_count {}\n", snap.count));
    }
    for (name, labels) in metrics.infos() {
        out.push_str(&format!("# TYPE {name} gauge\n{name}{{"));
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{k}=\"{}\"", escape_label_value(v)));
        }
        out.push_str("} 1\n");
    }
    out
}

/// [`prometheus_text`] from a parsed `Metrics::to_json` document — the
/// entry point the `qa-trace` CLI uses on recorded metrics files. Only the
/// counters and the histogram totals survive the JSON round trip, so the
/// bucket lines are reconstructed from the serialized bucket array.
pub fn prometheus_from_metrics_json(report: &Value, prefix: &str) -> Result<String, String> {
    let counters = report
        .get("counters")
        .and_then(Value::as_obj)
        .ok_or("metrics report has no \"counters\" object")?;
    let mut out = String::new();
    for (k, v) in counters {
        let n = v.as_u64().ok_or("non-integer counter")?;
        let name = format!("{prefix}_{k}_total");
        out.push_str(&format!("# TYPE {name} counter\n{name} {n}\n"));
    }
    let series = report
        .get("series")
        .and_then(Value::as_obj)
        .ok_or("metrics report has no \"series\" object")?;
    for (k, h) in series {
        let name = format!("{prefix}_{k}");
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let buckets = h.get("buckets").and_then(Value::as_arr).unwrap_or(&[]);
        let count = h.get("count").and_then(Value::as_u64).unwrap_or(0);
        let sum = h.get("sum").and_then(Value::as_u64).unwrap_or(0);
        let mut cumulative = 0u64;
        for (i, b) in buckets.iter().enumerate() {
            cumulative += b.as_u64().unwrap_or(0);
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                bucket_le(i)
            ));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
        out.push_str(&format!("{name}_sum {sum}\n"));
        out.push_str(&format!("{name}_count {count}\n"));
    }
    Ok(out)
}

/// Convenience: parse a JSON document, mapping the error to a string (the
/// CLI's error currency).
pub fn parse_json(text: &str) -> Result<Value, String> {
    json::parse(text).map_err(|e: ParseError| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_obs::Observer;

    #[test]
    fn chrome_export_contains_phase_events() {
        let mut t = RunTrace::new();
        t.phase_start("run");
        t.phase_start("inner");
        t.phase_end("inner");
        t.phase_end("run");
        t.count(Counter::Steps, 9);
        let out = chrome_trace(&t);
        let v = parse_json(&out).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        // 1 process_name + 2 thread_names + two phases + one counter event
        assert_eq!(events.len(), 6);
        assert_eq!(
            events[0].get("name").and_then(Value::as_str),
            Some("process_name")
        );
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("M"));
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str),
            Some("qa-run")
        );
        assert_eq!(
            events[1].get("name").and_then(Value::as_str),
            Some("thread_name")
        );
        assert_eq!(events[1].get("tid").and_then(Value::as_u64), Some(1));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str),
            Some("depth 0")
        );
        assert_eq!(events[2].get("tid").and_then(Value::as_u64), Some(2));
        assert_eq!(events[3].get("name").and_then(Value::as_str), Some("inner"));
        assert_eq!(events[3].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(events[3].get("tid").and_then(Value::as_u64), Some(2));
        assert_eq!(events[4].get("name").and_then(Value::as_str), Some("run"));
        assert_eq!(events[4].get("tid").and_then(Value::as_u64), Some(1));
        let args = events[5].get("args").unwrap();
        assert_eq!(args.get("steps").and_then(Value::as_u64), Some(9));
    }

    #[test]
    fn label_escaping_handles_quotes_and_backslashes() {
        assert_eq!(escape_label_value(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_label_value("x\ny"), "x\\ny");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let m = Metrics::new();
        m.count(Counter::Steps, 14);
        m.record(Series::TraceLength, 0);
        m.record(Series::TraceLength, 3);
        m.record(Series::TraceLength, 3);
        let text = prometheus_text(&m, "qa");
        assert!(text.contains("# TYPE qa_steps_total counter\nqa_steps_total 14\n"));
        assert!(
            text.contains("qa_head_reversals_total 0\n"),
            "zero counters exposed"
        );
        assert!(text.contains("# TYPE qa_trace_length histogram\n"));
        // cumulative buckets: le=0 → 1 (the 0), le=1 → 1, le=3 → 3
        assert!(text.contains("qa_trace_length_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("qa_trace_length_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("qa_trace_length_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("qa_trace_length_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("qa_trace_length_sum 6\n"));
        assert!(text.contains("qa_trace_length_count 3\n"));
        // empty series omitted
        assert!(!text.contains("qa_run_steps_bucket"));
    }

    #[test]
    fn prometheus_info_metrics_render_as_labeled_gauges() {
        let m = Metrics::new();
        m.set_info(
            "qa_fleet_worker_info",
            [
                ("worker_id".to_string(), "w1".to_string()),
                ("shard".to_string(), "1/3".to_string()),
                ("run_id".to_string(), "r\"x\"".to_string()),
            ],
        );
        let text = prometheus_text(&m, "qa");
        assert!(
            text.contains(
                "# TYPE qa_fleet_worker_info gauge\n\
                 qa_fleet_worker_info{run_id=\"r\\\"x\\\"\",shard=\"1/3\",worker_id=\"w1\"} 1\n"
            ),
            "{text}"
        );
    }

    #[test]
    fn prometheus_from_json_round_trips_totals() {
        let m = Metrics::new();
        m.count(Counter::Steps, 5);
        m.record(Series::RunSteps, 4);
        let direct = prometheus_text(&m, "qa");
        let via_json =
            prometheus_from_metrics_json(&parse_json(&m.to_json()).unwrap(), "qa").unwrap();
        // the JSON path omits zero counters; every line it produces must
        // appear verbatim in the direct exposition
        for line in via_json.lines() {
            assert!(direct.contains(line), "missing line: {line}");
        }
        assert!(via_json.contains("qa_run_steps_bucket{le=\"7\"} 1\n"));
    }
}
