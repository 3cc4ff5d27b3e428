//! End-to-end tests of the serving daemon over real sockets: parity with
//! the batch evaluation path, admission-control sheds, cold/warm
//! byte-identical answers, and a well-formed `/metrics` exposition.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use qa_obs::json::{self, Value};
use qa_pulse::{http_get, http_request, validate_prometheus, HttpTimeouts};
use qa_serve::{DocStore, QueryCache, ServeConfig, ServeDaemon};

fn timeouts() -> HttpTimeouts {
    HttpTimeouts {
        connect: Duration::from_secs(5),
        io: Duration::from_secs(30),
    }
}

fn quiet_config() -> ServeConfig {
    ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        // No background scrape: these tests assert exact metric values.
        scrape_every_ms: 0,
        ..ServeConfig::default()
    }
}

fn put_doc(addr: std::net::SocketAddr, name: &str, text: &str) -> qa_pulse::HttpResponse {
    http_request(
        addr,
        "PUT",
        &format!("/doc?name={name}"),
        "text/plain",
        text,
        timeouts(),
    )
    .expect("PUT /doc transport")
}

fn post_query(addr: std::net::SocketAddr, body: &str) -> qa_pulse::HttpResponse {
    http_request(addr, "POST", "/query", "application/json", body, timeouts())
        .expect("POST /query transport")
}

fn selected_of(body: &str) -> Vec<u64> {
    let v = json::parse(body).expect("response is JSON");
    v.get("selected")
        .and_then(Value::as_arr)
        .map(|items| items.iter().filter_map(Value::as_u64).collect())
        .expect("response has a selected array")
}

#[test]
fn served_node_sets_match_the_batch_evaluation_under_concurrency() {
    let daemon = ServeDaemon::start(quiet_config()).expect("daemon starts");
    let addr = daemon.addr();

    let corpus = [
        ("left", "(a (b c) (b (a c)))"),
        ("right", "(b (a (b b)) c)"),
        ("wide", "(a b b c b a)"),
    ];
    for (name, text) in corpus {
        assert_eq!(put_doc(addr, name, text).status, 200);
    }
    let formulas = ["label(v, b)", "leaf(v) & label(v, c)"];

    // The same answers through the in-process batch pipeline.
    let mut store = DocStore::new();
    for (name, text) in corpus {
        store.ingest(name, text).expect("batch ingest");
    }
    let mut cache = QueryCache::new(8);
    let mut expected = Vec::new();
    for formula in formulas {
        let q = cache
            .compile(formula, store.alphabet_mut(), None)
            .expect("batch compile");
        for (name, _) in corpus {
            let doc = store.get(name).expect("ingested");
            let nodes: Vec<u64> = q
                .prepared
                .eval_unranked(&doc.tree)
                .into_iter()
                .map(|v| v.index() as u64)
                .collect();
            expected.push((formula, name, nodes));
        }
    }

    // Fire every (formula, doc) pair several times concurrently.
    let mismatches = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for round in 0..4 {
            for (formula, name, nodes) in &expected {
                let mismatches = &mismatches;
                scope.spawn(move || {
                    let body = json::object(|w| {
                        w.field_str("formula", formula);
                        w.field_str("doc", name);
                        w.field_bool("why", round == 0);
                    });
                    let resp = post_query(addr, &body);
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    if &selected_of(&resp.body) != nodes {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        }
    });
    assert_eq!(mismatches.load(Ordering::Relaxed), 0, "served == batch");
    daemon.shutdown();
}

/// Step budget of the totals-parity test: every small document fits in
/// it and the big one trips it.
const PARITY_MAX_STEPS: u64 = 3_000;

#[test]
fn served_totals_and_event_counts_equal_in_process_runs() {
    use qa_flight::{Budget, Watchdog};
    use qa_obs::{Counter, Metrics, Series};

    let cfg = ServeConfig {
        max_steps: PARITY_MAX_STEPS,
        ..quiet_config()
    };
    let daemon = ServeDaemon::start(cfg).expect("daemon starts");
    let addr = daemon.addr();
    let big = {
        let mut s = String::from("(a");
        for i in 0..1000 {
            s.push_str(if i % 2 == 0 { " (b c)" } else { " c" });
        }
        s.push(')');
        s
    };
    let corpus = [
        ("left", "(a (b c) (b (a c)))".to_string()),
        ("right", "(b (a (b b)) c (c a))".to_string()),
        ("wide", "(a b b c b a (c (c b)))".to_string()),
        ("big", big),
    ];
    for (name, text) in &corpus {
        assert_eq!(put_doc(addr, name, text).status, 200);
    }
    // Every label the formulas name is already in the documents, so the
    // alphabet (and each compiled automaton) is the same whatever order
    // the two clients' requests compile in.
    let formulas = ["label(v, b)", "leaf(v) & label(v, c)", "label(v, a)"];
    let small = ["left", "right", "wide"];
    // Two clients, the same (formula, doc) pairs in opposite orders, each
    // request plain, `why` or `explain` in turn.
    let pairs: Vec<(&str, &str)> = formulas
        .iter()
        .flat_map(|&f| small.iter().map(move |&d| (f, d)))
        .collect();
    let mut reversed = pairs.clone();
    reversed.reverse();
    let clients = [pairs, reversed];
    let body = |formula: &str, doc: &str, i: usize| {
        json::object(|w| {
            w.field_str("formula", formula);
            w.field_str("doc", doc);
            w.field_bool("why", i % 3 == 1);
            w.field_bool("explain", i % 3 == 2);
        })
    };
    std::thread::scope(|scope| {
        for client in &clients {
            scope.spawn(move || {
                for (i, &(formula, doc)) in client.iter().enumerate() {
                    let resp = post_query(addr, &body(formula, doc, i));
                    assert_eq!(resp.status, 200, "{}", resp.body);
                }
            });
        }
    });
    let tripped = post_query(addr, &body("label(v, b)", "big", 0));
    assert_eq!(tripped.status, 408, "{}", tripped.body);

    // The same evaluations in process, each through a registry observer
    // under the same step budget.
    let mut store = DocStore::new();
    for (name, text) in &corpus {
        store.ingest(name, text).expect("in-process ingest");
    }
    let mut cache = QueryCache::new(8);
    let run = |formula: &str, doc: &str, store: &mut DocStore, cache: &mut QueryCache| {
        let q = cache
            .compile(formula, store.alphabet_mut(), None)
            .expect("in-process compile");
        let per_query = Metrics::new();
        let mut dog = Watchdog::new(per_query.observer(), Budget::steps(PARITY_MAX_STEPS));
        q.prepared
            .eval_unranked_with(&store.get(doc).expect("ingested").tree, &mut dog);
        if dog.tripped().is_some() {
            per_query.count(Counter::BudgetTrips, 1);
        }
        let key = (
            format!("{:016x}", q.hash),
            store.id_of(doc).expect("ingested"),
        );
        (key, per_query)
    };
    let expected = Metrics::new();
    let mut steps_of = std::collections::BTreeMap::new();
    let sent = clients
        .iter()
        .flatten()
        .copied()
        .chain([("label(v, b)", "big")]);
    for (formula, doc) in sent {
        let (key, per_query) = run(formula, doc, &mut store, &mut cache);
        steps_of.insert(key, per_query.get(Counter::Steps));
        expected.merge(&per_query);
    }

    let served = daemon.metrics();
    for c in [
        Counter::Steps,
        Counter::TableLookups,
        Counter::SelectionChecks,
        Counter::BudgetTrips,
    ] {
        assert_eq!(served.get(c), expected.get(c), "{}", c.name());
    }
    assert_eq!(served.get(Counter::BudgetTrips), 1);
    let (got, want) = (
        served.histogram(Series::MachineStates),
        expected.histogram(Series::MachineStates),
    );
    assert_eq!(
        (got.count, got.sum),
        (want.count, want.sum),
        "machine_states"
    );

    let events = qa_flight::parse_events(&daemon.events().tail_jsonl(64)).expect("events parse");
    assert_eq!(events.len(), 2 * formulas.len() * small.len() + 1);
    for ev in &events {
        let want = steps_of[&(ev.query.clone(), ev.doc_index)];
        assert_eq!(
            ev.steps, want,
            "steps of {} on doc {}",
            ev.query, ev.doc_index
        );
    }
    daemon.shutdown();
}

#[test]
fn zero_queue_depth_sheds_with_retry_after_and_never_hangs() {
    let cfg = ServeConfig {
        // Depth 0: every query that reaches admission control sheds.
        queue_depth: 0,
        ..quiet_config()
    };
    let daemon = ServeDaemon::start(cfg).expect("daemon starts");
    let addr = daemon.addr();
    assert_eq!(put_doc(addr, "d", "(a b c)").status, 200);

    let shed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..16 {
            let shed = &shed;
            scope.spawn(move || {
                let body = json::object(|w| {
                    w.field_str("formula", "label(v, b)");
                    w.field_str("doc", "d");
                });
                let resp = post_query(addr, &body);
                assert_eq!(resp.status, 429, "depth 0 sheds everything");
                assert_eq!(resp.retry_after, Some(1), "shed carries Retry-After");
                shed.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(shed.load(Ordering::Relaxed), 16);
    assert_eq!(daemon.metrics().get(qa_obs::Counter::RequestsShed), 16);
    daemon.shutdown();
}

#[test]
fn tiny_queue_depth_answers_only_200_or_429_and_sheds_at_least_once() {
    let cfg = ServeConfig {
        queue_depth: 1,
        eval_workers: 1,
        ..quiet_config()
    };
    let daemon = ServeDaemon::start(cfg).expect("daemon starts");
    let addr = daemon.addr();
    // A biggish document keeps each evaluation busy long enough for the
    // burst to pile onto the depth-1 queue.
    let big = {
        let mut s = String::from("(a");
        for i in 0..4000 {
            s.push_str(if i % 3 == 0 { " (b c)" } else { " b" });
        }
        s.push(')');
        s
    };
    assert_eq!(put_doc(addr, "big", &big).status, 200);

    let ok = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..32 {
            let (ok, shed) = (&ok, &shed);
            scope.spawn(move || {
                let body = json::object(|w| {
                    w.field_str("formula", "label(v, b)");
                    w.field_str("doc", "big");
                });
                let resp = post_query(addr, &body);
                match resp.status {
                    200 => ok.fetch_add(1, Ordering::Relaxed),
                    429 => {
                        assert!(resp.retry_after.is_some());
                        shed.fetch_add(1, Ordering::Relaxed)
                    }
                    other => panic!("contract is 200-or-429, got {other}: {}", resp.body),
                };
            });
        }
    });
    assert_eq!(
        ok.load(Ordering::Relaxed) + shed.load(Ordering::Relaxed),
        32
    );
    assert!(ok.load(Ordering::Relaxed) > 0, "some requests succeed");
    assert!(
        shed.load(Ordering::Relaxed) > 0,
        "depth 1 under a 32-burst sheds"
    );
    daemon.shutdown();
}

#[test]
fn cold_and_warm_responses_are_byte_identical_modulo_latency() {
    let daemon = ServeDaemon::start(quiet_config()).expect("daemon starts");
    let addr = daemon.addr();
    assert_eq!(put_doc(addr, "d", "(a (b c) b)").status, 200);
    let body = json::object(|w| {
        w.field_str("formula", "label(v, b)");
        w.field_str("doc", "d");
        w.field_bool("why", true);
    });

    // First answer compiles (miss), the second hits the cache; everything
    // but the latency field must be byte-identical.
    let strip_micros = |resp_body: &str| -> String {
        resp_body
            .split(",\"micros\"")
            .next()
            .expect("has a micros field")
            .to_string()
    };
    let cold = post_query(addr, &body);
    let warm = post_query(addr, &body);
    assert_eq!((cold.status, warm.status), (200, 200));
    assert_eq!(strip_micros(&cold.body), strip_micros(&warm.body));
    assert_eq!(daemon.metrics().get(qa_obs::Counter::CacheHits), 1);
    assert_eq!(daemon.metrics().get(qa_obs::Counter::CacheMisses), 1);
    daemon.shutdown();
}

/// `why: true` bodies, minus their `micros` field, as the daemon wrote
/// them when it built each `why_selected` entry as its own string and
/// joined them: writing the entries in place must not move a byte.
#[test]
fn why_true_bodies_keep_their_bytes() {
    let daemon = ServeDaemon::start(quiet_config()).expect("daemon starts");
    let addr = daemon.addr();
    assert_eq!(put_doc(addr, "d", "(a (b c) (b (a c)) b)").status, 200);
    let expected = [
        ("label(v, b)", GOLDEN_LABEL_B),
        ("leaf(v)", GOLDEN_LEAF),
        ("label(v, d)", GOLDEN_NONE),
    ];
    for (formula, golden) in expected {
        let body = json::object(|w| {
            w.field_str("formula", formula);
            w.field_str("doc", "d");
            w.field_bool("why", true);
        });
        let resp = post_query(addr, &body);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let (kept, _micros) = resp.body.split_once(",\"micros\"").expect("has micros");
        assert_eq!(kept, golden, "{formula}");
    }
    daemon.shutdown();
}

const GOLDEN_LABEL_B: &str = r#"{"doc":"d","query":"89e01b0f2672187a","sigma":4,"states":3,"count":3,"selected":[1,3,6],"why_selected":[{"node":1,"marked_state":1,"label":"b"},{"node":3,"marked_state":1,"label":"b"},{"node":6,"marked_state":1,"label":"b"}]"#;
const GOLDEN_LEAF: &str = r#"{"doc":"d","query":"e8f350b34b998cbe","sigma":4,"states":4,"count":3,"selected":[2,5,6],"why_selected":[{"node":2,"marked_state":2,"label":"c"},{"node":5,"marked_state":2,"label":"c"},{"node":6,"marked_state":2,"label":"b"}]"#;
const GOLDEN_NONE: &str = r#"{"doc":"d","query":"89d98f0f266cbee8","sigma":5,"states":3,"count":0,"selected":[],"why_selected":[]"#;

fn field_u64(body: &str, key: &str) -> u64 {
    json::parse(body)
        .expect("response is JSON")
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no `{key}` in {body}"))
}

#[test]
fn rejected_documents_and_formulas_leave_sigma_and_the_cache_alone() {
    let daemon = ServeDaemon::start(quiet_config()).expect("daemon starts");
    let addr = daemon.addr();
    assert_eq!(put_doc(addr, "d", "(a b)").status, 200);
    let warm = json::object(|w| {
        w.field_str("formula", "label(v, b)");
        w.field_str("doc", "d");
    });
    assert_eq!(post_query(addr, &warm).status, 200);
    let catalog = || {
        http_get(addr, "/queries", timeouts())
            .expect("GET /queries")
            .body
    };
    let sigma = field_u64(&catalog(), "sigma");

    assert_eq!(put_doc(addr, "bad", "(a fresh1 (fresh2").status, 422);
    assert_eq!(put_doc(addr, "bad", "<a><fresh3><fresh4></a>").status, 422);
    let bad_formula = json::object(|w| {
        w.field_str("formula", "label(v, uu) &");
        w.field_str("doc", "d");
    });
    assert_eq!(post_query(addr, &bad_formula).status, 422);
    let two_free = json::object(|w| {
        w.field_str("formula", "label(v, vv) & label(w, ww)");
        w.field_str("doc", "d");
    });
    assert_eq!(post_query(addr, &two_free).status, 422);
    assert_eq!(
        field_u64(&catalog(), "sigma"),
        sigma,
        "rejected input grew σ"
    );

    let again = post_query(addr, &warm);
    assert_eq!(again.status, 200, "{}", again.body);
    assert_eq!(field_u64(&again.body, "sigma"), sigma);
    assert_eq!(
        field_u64(&catalog(), "hits"),
        1,
        "the warm query still hits"
    );
    daemon.shutdown();
}

#[test]
fn compiled_sigma_covers_every_label_of_a_document_replaced_meanwhile() {
    // The writer replaces `d` with `(a x_i a)`, a fresh label each time;
    // with `#PCDATA` and `a` interned first, `x_i` gets id i + 2.
    const WRITES: usize = 300;
    let daemon = ServeDaemon::start(quiet_config()).expect("daemon starts");
    let addr = daemon.addr();
    assert_eq!(put_doc(addr, "d", "(a x0 a)").status, 200);
    let stored = AtomicUsize::new(1);
    let query = json::object(|w| {
        w.field_str("formula", "label(v, a)");
        w.field_str("doc", "d");
    });
    let answers = std::thread::scope(|s| {
        s.spawn(|| {
            for i in 1..WRITES {
                let resp = put_doc(addr, "d", &format!("(a x{i} a)"));
                assert_eq!(resp.status, 200, "{}", resp.body);
                stored.store(i + 1, Ordering::SeqCst);
            }
        });
        let mut answers = 0;
        while stored.load(Ordering::SeqCst) < WRITES {
            let floor = stored.load(Ordering::SeqCst) as u64;
            let resp = post_query(addr, &query);
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert_eq!(selected_of(&resp.body), vec![0, 2], "{}", resp.body);
            let sigma = field_u64(&resp.body, "sigma");
            assert!(
                sigma > floor + 1,
                "σ {sigma} misses x{} (id {})",
                floor - 1,
                floor + 1
            );
            answers += 1;
        }
        answers
    });
    assert!(answers > 0);
    daemon.shutdown();
}

#[test]
fn registered_queries_answer_by_id_and_show_in_the_catalogs() {
    let daemon = ServeDaemon::start(quiet_config()).expect("daemon starts");
    let addr = daemon.addr();
    assert_eq!(put_doc(addr, "d", "(a b (b c))").status, 200);

    // Register without a doc: compile-only receipt.
    let reg = post_query(
        addr,
        &json::object(|w| {
            w.field_str("formula", "label(v, b)");
            w.field_str("register", "all-bs");
        }),
    );
    assert_eq!(reg.status, 200, "{}", reg.body);

    // Query by id only.
    let by_id = post_query(
        addr,
        &json::object(|w| {
            w.field_str("id", "all-bs");
            w.field_str("doc", "d");
        }),
    );
    assert_eq!(by_id.status, 200, "{}", by_id.body);
    assert_eq!(selected_of(&by_id.body), vec![1, 2]);

    let unknown = post_query(
        addr,
        &json::object(|w| {
            w.field_str("id", "nope");
            w.field_str("doc", "d");
        }),
    );
    assert_eq!(unknown.status, 404);

    let queries = http_get(addr, "/queries", timeouts()).expect("GET /queries");
    assert!(queries.body.contains("all-bs"), "{}", queries.body);
    let docs = http_get(addr, "/docs", timeouts()).expect("GET /docs");
    assert!(docs.body.contains("\"name\":\"d\""), "{}", docs.body);
    daemon.shutdown();
}

#[test]
fn explain_true_profiles_the_run_and_feeds_get_explain_and_the_event_log() {
    let events_path = std::env::temp_dir().join(format!(
        "qa-serve-events-{}-{:x}.jsonl",
        std::process::id(),
        qa_obs::fnv1a64(b"explain-test")
    ));
    let cfg = ServeConfig {
        events_path: Some(events_path.to_string_lossy().into_owned()),
        ..quiet_config()
    };
    let daemon = ServeDaemon::start(cfg).expect("daemon starts");
    let addr = daemon.addr();
    assert_eq!(put_doc(addr, "d", "(a (b c) (b b))").status, 200);

    // explain:true returns the per-state profile inline.
    let explained = post_query(
        addr,
        &json::object(|w| {
            w.field_str("formula", "label(v, b)");
            w.field_str("doc", "d");
            w.field_str("register", "all-bs");
            w.field_bool("explain", true);
        }),
    );
    assert_eq!(explained.status, 200, "{}", explained.body);
    let v = json::parse(&explained.body).expect("response is JSON");
    assert!(v.get("explain").is_some(), "{}", explained.body);
    let hash = v
        .get("query")
        .and_then(Value::as_str)
        .expect("query hash in response")
        .to_string();

    // A plain request carries no explain payload and still profiles
    // nothing (the scope arm is a no-op unless asked for).
    let plain = post_query(
        addr,
        &json::object(|w| {
            w.field_str("formula", "label(v, b)");
            w.field_str("doc", "d");
        }),
    );
    assert_eq!(plain.status, 200, "{}", plain.body);
    assert!(json::parse(&plain.body).unwrap().get("explain").is_none());

    // The accumulated profile answers GET /explain: merged, by hash, by
    // registered id; unknown names 404.
    let merged = http_get(addr, "/explain", timeouts()).expect("GET /explain");
    assert_eq!(merged.status, 200, "{}", merged.body);
    assert!(merged.body.contains("machine dbtau") || merged.body.contains("machine "));
    let by_hash = http_get(addr, &format!("/explain?query={hash}"), timeouts()).expect("by hash");
    assert_eq!(by_hash.status, 200, "{}", by_hash.body);
    let by_id = http_get(addr, "/explain?query=all-bs", timeouts()).expect("by id");
    assert_eq!(by_id.status, 200, "{}", by_id.body);
    assert_eq!(by_id.body, by_hash.body, "id resolves to the same profile");
    let as_json = http_get(
        addr,
        &format!("/explain?query={hash}&format=json"),
        timeouts(),
    )
    .expect("json");
    assert_eq!(as_json.status, 200);
    assert!(json::parse(&as_json.body).is_ok(), "{}", as_json.body);
    let unknown = http_get(addr, "/explain?query=nope", timeouts()).expect("unknown");
    assert_eq!(unknown.status, 404);

    // Both served queries emitted wide events: the live ring and the
    // events.jsonl file agree, and the counters are real work.
    let tail = http_get(addr, "/events?n=10", timeouts()).expect("GET /events");
    let ring_events = qa_flight::parse_events(&tail.body).expect("ring parses");
    assert_eq!(ring_events.len(), 2, "{}", tail.body);
    daemon.shutdown();
    let file_text = std::fs::read_to_string(&events_path).expect("events file written");
    let file_events = qa_flight::parse_events(&file_text).expect("file parses");
    assert_eq!(file_events.len(), 2);
    for (ev, sampled) in file_events.iter().zip([true, false]) {
        assert_eq!(ev.run, "qa-serve");
        assert_eq!(ev.worker, "serve");
        assert_eq!(ev.outcome, "ok");
        assert_eq!(ev.sampled, sampled, "sampled mirrors the explain flag");
        assert_eq!(ev.doc_index, 0);
        assert_eq!(ev.doc_nodes, 5);
        assert_eq!(ev.selected, 3, "three b-labelled nodes");
        assert!(ev.steps > 0, "evaluation counted steps");
    }
    assert_eq!(
        file_events[0].query, "all-bs",
        "registered requests are named by id"
    );
    assert_eq!(file_events[1].query, hash, "inline requests by hash");
    let _ = std::fs::remove_file(&events_path);
}

#[test]
fn metrics_expose_the_serving_families_as_valid_prometheus() {
    let daemon = ServeDaemon::start(quiet_config()).expect("daemon starts");
    let addr = daemon.addr();
    assert_eq!(put_doc(addr, "d", "(a b)").status, 200);
    let resp = post_query(
        addr,
        &json::object(|w| {
            w.field_str("formula", "label(v, b)");
            w.field_str("doc", "d");
        }),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);

    let scrape = http_get(addr, "/metrics", timeouts()).expect("GET /metrics");
    assert!(scrape.is_ok());
    validate_prometheus(&scrape.body).expect("well-formed exposition");
    for family in [
        "qa_serve_http_requests_total",
        "qa_serve_doc_ingests_total",
        "qa_serve_query_compiles_total",
        "qa_serve_cache_misses_total",
        "qa_serve_query_micros",
        "qa_serve_ingest_micros",
    ] {
        assert!(scrape.body.contains(family), "missing {family} in scrape");
    }
    daemon.shutdown();
}

#[test]
fn soak_binary_smokes_clean_with_a_generous_depth() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_qa-serve"))
        .args([
            "--soak",
            "--clients",
            "4",
            "--requests",
            "16",
            "--docs",
            "3",
            "--doc-nodes",
            "80",
            "--queue-depth",
            "512",
            "--forbid-shed",
        ])
        .output()
        .expect("qa-serve --soak runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("offered"), "prints the table: {stdout}");
}

#[test]
fn soak_binary_enforces_the_shed_expectation_on_a_tiny_depth() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_qa-serve"))
        .args([
            "--soak",
            "--clients",
            "8",
            "--requests",
            "16",
            "--docs",
            "3",
            "--doc-nodes",
            "600",
            "--workers",
            "1",
            "--queue-depth",
            "1",
            "--expect-shed",
        ])
        .output()
        .expect("qa-serve --soak runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "tiny depth must shed at least once\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}
