//! Federation: folding per-worker telemetry into one coherent surface.
//!
//! The mesh's central invariant is that **federation is shard-invariant**:
//! because [`Metrics::merge`] is commutative and associative, merging the
//! parsed `/metrics` scrapes of N workers yields the same registry — and
//! therefore the same rendered exposition, byte for byte — no matter how
//! the job grid was dealt out. [`federate_metrics`] is that fold;
//! [`federate_profile`] and [`federate_flight`] are the profile/flight
//! counterparts, which *keep* worker identity (a profile frame or flight
//! event is only useful if you know which process it came from) and so are
//! deterministic per shard count rather than across shard counts.
//!
//! [`federate_events`] extends the invariant to wide events: the workers'
//! parsed `/events` tails ([`JobEvent`]s) merge by sorting on the global
//! job index, so the *deterministic* fields of the federated
//! `events.jsonl` are byte-identical across shard counts (the volatile
//! placement/wall-clock tail is exactly what an identity projection
//! strips). [`federate_trace`] renders the same events as one Chrome
//! trace-event timeline: one process per worker (named by
//! `process_name`/`thread_name` metadata events), one complete event per
//! job, so a `--mesh 4` run loads in Perfetto as a single coherent fleet
//! view.

use qa_obs::json;
use qa_obs::{JobEvent, Metrics};
use qa_pulse::parse_prometheus;

/// Merge worker `/metrics` scrapes into one registry.
///
/// Each scrape is parsed ([`parse_prometheus`]) and mapped back onto the
/// `<prefix>_*` counter/histogram families
/// ([`Scrape::to_metrics`](qa_pulse::Scrape::to_metrics)); families
/// outside the prefix — `qa_build_info`, `qa_heap_*`, per-worker info
/// gauges — stay out, which is what keeps the federated render
/// independent of worker count. Returns the merged registry or the first
/// scrape's parse error (tagged with its index).
pub fn federate_metrics<'a>(
    scrapes: impl IntoIterator<Item = &'a str>,
    prefix: &str,
) -> Result<Metrics, String> {
    let federated = Metrics::new();
    for (i, text) in scrapes.into_iter().enumerate() {
        let registry = parse_prometheus(text)
            .and_then(|s| s.to_metrics(prefix))
            .map_err(|e| format!("worker scrape {i}: {e}"))?;
        federated.merge(&registry);
    }
    Ok(federated)
}

/// Merge collapsed-stack profiles, attributing every frame to its worker.
///
/// Each worker's `profile.folded` lines (`stack;frames count`) are
/// prefixed with `<worker_id>;`, so the federated flamegraph shows one
/// subtree per worker and every sample stays attributable. Lines are
/// sorted for deterministic output.
pub fn federate_profile(workers: &[(String, String)]) -> String {
    let mut lines: Vec<String> = Vec::new();
    for (worker_id, folded) in workers {
        for line in folded.lines().filter(|l| !l.is_empty()) {
            lines.push(format!("{worker_id};{line}"));
        }
    }
    lines.sort_unstable();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Combine worker flight-recorder JSON dumps into one document:
/// `{"run_id":"…","workers":[…]}`, workers in the given order. Each
/// worker dump already carries its own `run_id`/`worker` correlation ids
/// (see `FlightRecorder::set_correlation` in `qa-flight`), so every
/// retained event in the federated document is attributable.
pub fn federate_flight(run_id: &str, worker_dumps: &[String]) -> String {
    let mut out = String::new();
    out.push_str("{\"run_id\":\"");
    for c in run_id.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            c => out.push(c),
        }
    }
    out.push_str("\",\"workers\":[");
    for (i, dump) in worker_dumps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(dump);
    }
    out.push_str("]}");
    out
}

/// Merge the workers' wide events into one job-ordered list — the
/// federated `events.jsonl`, whichever worker ran what. If two workers
/// somehow report the same job the earlier event in `events` wins —
/// shards partition the grid, so a duplicate is already an anomaly.
pub fn federate_events(mut events: Vec<JobEvent>) -> Vec<JobEvent> {
    events.sort_by_key(|e| e.job);
    events.dedup_by_key(|e| e.job);
    events
}

/// Assemble wide events into one Chrome trace-event document — the
/// fleet's single distributed timeline.
///
/// Each distinct `worker` becomes one trace *process*, numbered (`pid`,
/// 1-based) in the order of its first job and named by a `process_name`
/// metadata (`"ph":"M"`) event, with its single job track named by a
/// `thread_name` event — so Perfetto labels tracks `w0`, `w1`, … instead
/// of showing bare pids. Each job event becomes one complete (`"ph":"X"`)
/// span on its worker's track, `ts`/`dur` in microseconds from the
/// event's `start_ns`/`wall_ns`, with the job's trace/span ids, step
/// count and outcome riding along in `args`. Spans are sorted by job
/// within each worker, so the output is deterministic given the events.
pub fn federate_trace(run_id: &str, events: &[JobEvent]) -> String {
    let mut by_job: Vec<&JobEvent> = events.iter().collect();
    by_job.sort_by_key(|e| e.job);
    let mut workers: Vec<&str> = Vec::new();
    for e in &by_job {
        if !workers.contains(&e.worker.as_str()) {
            workers.push(&e.worker);
        }
    }
    let mut trace_events: Vec<String> = Vec::new();
    for (index, worker_id) in workers.into_iter().enumerate() {
        let pid = index as u64 + 1;
        trace_events.push(json::object(|w| {
            w.field_str("name", "process_name");
            w.field_str("ph", "M");
            w.field_u64("pid", pid);
            w.field_raw("args", &json::object(|aw| aw.field_str("name", worker_id)));
        }));
        trace_events.push(json::object(|w| {
            w.field_str("name", "thread_name");
            w.field_str("ph", "M");
            w.field_u64("pid", pid);
            w.field_u64("tid", 1);
            w.field_raw("args", &json::object(|aw| aw.field_str("name", "jobs")));
        }));
        let jobs = by_job.iter().filter(|e| e.worker == worker_id);
        trace_events.extend(jobs.map(|e| {
            json::object(|w| {
                w.field_str("name", &format!("{} #{}", e.query, e.job));
                w.field_str("cat", "job");
                w.field_str("ph", "X");
                w.field_u64("ts", e.start_ns / 1_000);
                w.field_u64("dur", (e.wall_ns / 1_000).max(1));
                w.field_u64("pid", pid);
                w.field_u64("tid", 1);
                w.field_raw(
                    "args",
                    &json::object(|aw| {
                        aw.field_u64("job", e.job as u64);
                        aw.field_str("trace", &e.trace);
                        aw.field_str("span", &e.span);
                        aw.field_str("outcome", &e.outcome);
                        aw.field_u64("steps", e.steps);
                        aw.field_u64("doc_nodes", e.doc_nodes as u64);
                    }),
                );
            })
        }));
    }
    json::object(|w| {
        w.field_raw("traceEvents", &json::array(trace_events));
        w.field_str("displayTimeUnit", "ms");
        w.field_raw(
            "otherData",
            &json::object(|aw| aw.field_str("run_id", run_id)),
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_obs::json::Value;
    use qa_obs::{Counter, Observer, Series};
    use qa_probe::export::prometheus_text;

    fn worker(steps: u64, trace_lens: &[u64]) -> Metrics {
        let m = Metrics::new();
        let mut o = m.observer();
        o.count(Counter::Steps, steps);
        for &v in trace_lens {
            o.record(Series::TraceLength, v);
        }
        m
    }

    #[test]
    fn metrics_federation_is_shard_invariant() {
        // The same three "jobs" dealt over 1 vs 3 workers.
        let all = worker(600, &[1, 20, 300]);
        let shards = [worker(100, &[1]), worker(200, &[20]), worker(300, &[300])];

        let one = federate_metrics([prometheus_text(&all, "qa_fleet").as_str()], "qa_fleet")
            .expect("single scrape");
        let texts: Vec<String> = shards
            .iter()
            .map(|m| prometheus_text(m, "qa_fleet"))
            .collect();
        let three = federate_metrics(texts.iter().map(|s| s.as_str()), "qa_fleet").expect("merge");
        assert_eq!(
            prometheus_text(&one, "qa_fleet"),
            prometheus_text(&three, "qa_fleet"),
            "federated exposition must not depend on sharding"
        );
    }

    #[test]
    fn federation_surfaces_parse_errors_with_the_worker_index() {
        let good = prometheus_text(&worker(1, &[]), "qa_fleet");
        let err = federate_metrics([good.as_str(), "garbage without value"], "qa_fleet")
            .expect_err("second scrape is garbage");
        assert!(err.starts_with("worker scrape 1:"), "{err}");
    }

    #[test]
    fn profile_federation_prefixes_frames_with_the_worker() {
        let merged = federate_profile(&[
            ("w1".to_string(), "run;scan 30\nrun 5\n".to_string()),
            ("w0".to_string(), "run;scan 10\n".to_string()),
        ]);
        assert_eq!(merged, "w0;run;scan 10\nw1;run 5\nw1;run;scan 30\n");
    }

    fn job(job: usize, query: &str, worker: &str, start_ns: u64, wall_ns: u64) -> JobEvent {
        JobEvent {
            trace: format!("{job:016x}"),
            span: format!("{job:016x}"),
            job,
            query: query.to_string(),
            steps: job as u64 * 10,
            outcome: "ok".to_string(),
            worker: worker.to_string(),
            start_ns,
            wall_ns,
            ..JobEvent::default()
        }
    }

    #[test]
    fn event_federation_sorts_by_job_and_keeps_the_first_duplicate() {
        let merged = federate_events(vec![
            job(2, "a", "w0", 0, 9),
            job(0, "a", "w0", 5, 9),
            job(1, "b", "w1", 3, 9),
        ]);
        let jobs: Vec<usize> = merged.iter().map(|e| e.job).collect();
        assert_eq!(jobs, vec![0, 1, 2], "{merged:?}");
        // Duplicate jobs collapse to the first worker's event.
        let dup = federate_events(vec![
            job(4, "first", "w0", 0, 1),
            job(4, "second", "w1", 0, 1),
        ]);
        assert_eq!(dup.len(), 1);
        assert_eq!(dup[0].query, "first");
    }

    #[test]
    fn trace_federation_names_processes_and_covers_every_job() {
        let doc = federate_trace(
            "fleet-s7",
            &[job(1, "q", "w1", 0, 500), job(0, "q", "w0", 2_000, 3_000)],
        );
        let v = json::parse(&doc).expect("valid Chrome trace JSON");
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        // 2 metadata events + 1 span per worker.
        assert_eq!(events.len(), 6, "{doc}");
        let meta: Vec<(&str, &str)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .map(|e| {
                (
                    e.get("name").and_then(Value::as_str).unwrap(),
                    e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                        .unwrap(),
                )
            })
            .collect();
        assert!(meta.contains(&("process_name", "w0")), "{meta:?}");
        assert!(meta.contains(&("process_name", "w1")), "{meta:?}");
        assert!(meta.contains(&("thread_name", "jobs")), "{meta:?}");
        let spans: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("ts").and_then(Value::as_u64), Some(2));
        assert_eq!(spans[0].get("dur").and_then(Value::as_u64), Some(3));
        assert_eq!(spans[0].get("pid").and_then(Value::as_u64), Some(1));
        assert_eq!(spans[1].get("pid").and_then(Value::as_u64), Some(2));
        // Sub-microsecond spans still render (dur is clamped to >= 1 µs).
        assert_eq!(spans[1].get("dur").and_then(Value::as_u64), Some(1));
        let args = spans[0].get("args").unwrap();
        assert_eq!(args.get("job").and_then(Value::as_u64), Some(0));
        assert!(args.get("trace").and_then(Value::as_str).is_some());
        assert_eq!(args.get("outcome").and_then(Value::as_str), Some("ok"));
        assert_eq!(
            v.get("otherData")
                .and_then(|o| o.get("run_id"))
                .and_then(Value::as_str),
            Some("fleet-s7")
        );
    }

    #[test]
    fn flight_federation_wraps_worker_dumps_under_the_run_id() {
        let doc = federate_flight(
            "mesh-s7",
            &[
                "{\"worker\":\"w0\"}".to_string(),
                "{\"worker\":\"w1\"}".to_string(),
            ],
        );
        assert_eq!(
            doc,
            "{\"run_id\":\"mesh-s7\",\"workers\":[{\"worker\":\"w0\"},{\"worker\":\"w1\"}]}"
        );
        let opens = doc.matches(['{', '[']).count();
        assert_eq!(opens, doc.matches(['}', ']']).count());
    }
}
