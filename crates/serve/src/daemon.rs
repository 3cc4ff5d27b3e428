//! [`ServeDaemon`]: the resident serving process behind `qa-serve`.
//!
//! One daemon owns the four moving parts and wires them behind a pulse
//! HTTP surface:
//!
//! - a [`DocStore`] under an `RwLock` (many concurrent readers for
//!   evaluation, one writer per ingest);
//! - a [`QueryCache`] under a `Mutex` (compile-once, LRU-bounded);
//! - a [`qa_par::WorkPool`] the evaluations dispatch onto, whose
//!   [`queue_depth`](qa_par::WorkPool::queue_depth) drives admission
//!   control — past [`ServeConfig::queue_depth`] a request is shed with
//!   `429 Retry-After` instead of queueing unbounded work;
//! - a [`qa_sentinel::SharedSentinel`] scraping the served [`Metrics`]
//!   registry on a background loop, so `/series` and `/alerts` watch the
//!   serving SLOs (shed ratio, budget trips) out of the box.
//!
//! The two locks guard bookkeeping only; no parse or compile runs under
//! either. `PUT /doc` parses and fingerprints against a copy of the
//! shared alphabet, then takes the store's write lock just to intern the
//! labels the copy lacked and swap the tree in (`DocStore::insert`).
//! `POST /query` snapshots the document and the alphabet under one read
//! guard and parses the formula against the copy; only a formula naming
//! a label no document carries takes the write lock, to intern it. The
//! cache mutex covers the lookup and, after a miss has compiled with no
//! lock held, the insert. A warm query therefore never waits behind an
//! ingest or a cold compile, and the automaton's σ always covers the
//! snapshotted tree.
//!
//! Every evaluation runs under a per-request
//! [`Watchdog`] budget
//! ([`ServeConfig::max_steps`] / [`ServeConfig::max_wall_ms`]): a
//! runaway query aborts gracefully inside its worker and the client gets
//! `408` with the tripped budget, never a hung connection.
//!
//! A query's `selected` nodes (and its `why_selected` certificates) come
//! back in ascending node id order, which is document order for every
//! stored document: the Figure 6 run walks the stored tree itself.
//!
//! Each evaluation ([`evaluate`]) counts its events in a plain per-job
//! [`Tally`] and folds it into the served [`Metrics`] registry once,
//! before the result is sent back. Workers therefore never contend on the
//! shared registry per event, and its totals are the same as if every
//! event had gone to it directly.
//!
//! Two observability surfaces ride on every served query:
//!
//! - **Wide events.** Each `POST /query` that reaches evaluation emits
//!   one [`JobEvent`] line — identity, document shape, exact per-request
//!   work counters, outcome — into the `/events` ring and (when
//!   [`ServeConfig::events_path`] is set) an `events.jsonl` file that
//!   `qa-trace analyze top|slow` reads exactly like a fleet's.
//! - **EXPLAIN ANALYZE.** `"explain": true` attaches a
//!   [`ScopeProfiler`] to the request's observer chain and returns the
//!   per-state profile (hot/cold/dead states, transition heat map,
//!   phase attribution) inline as the response's `"explain"` field.
//!   Profiles also accumulate per query hash, served live by
//!   `GET /explain?query=<hash-or-registered-id>`.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, LockResult, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use qa_flight::{Budget, JobEvent, Sampled, SharedEvents, Watchdog};
use qa_mso::PreparedUnary;
use qa_obs::json::{self, Value};
use qa_obs::{Abort, Counter, Metrics, NoopObserver, Observer, Series, Tally, Tee, TraceContext};
use qa_par::WorkPool;
use qa_pulse::{ApiRequest, ApiResponse, PulseServer, PulseState};
use qa_scope::ScopeProfiler;
use qa_sentinel::SharedSentinel;
use qa_trees::{NodeId, Tree};

use crate::cache::{ParsedQuery, QueryCache};
use crate::store::DocStore;

/// Serving SLO rules the daemon loads when no rules file is given: page
/// when admission control sheds more than 10% of offered load (two-window
/// burn rate over the served counters), and when any per-request budget
/// trips at all.
pub const DEFAULT_SLO_RULES: &str = "\
alert shed-rate burnrate qa_serve_requests_shed_total / qa_serve_http_requests_total \
objective 0.10 fast 6 slow 36 for 2
alert budget-trips threshold qa_serve_budget_trips_total > 0 for 0
alert no-traffic absent qa_serve_http_requests_total for 10
";

/// Configuration for [`ServeDaemon::start`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub listen: String,
    /// Evaluation workers in the work-stealing pool.
    pub eval_workers: usize,
    /// HTTP connection threads (requests parsed/answered concurrently).
    pub http_threads: usize,
    /// Admission bound: shed with `429` once this many evaluations are
    /// queued but not yet started.
    pub queue_depth: usize,
    /// Compiled queries the LRU cache retains.
    pub cache_capacity: usize,
    /// Per-request step budget (`Counter::Steps` of the two-pass run).
    pub max_steps: u64,
    /// Per-request wall-clock budget in milliseconds.
    pub max_wall_ms: u64,
    /// Sentinel rules text; `None` loads [`DEFAULT_SLO_RULES`].
    pub slo_rules: Option<String>,
    /// Background scrape period for the sentinel, in milliseconds
    /// (0 disables the scrape loop; `/series` stays empty).
    pub scrape_every_ms: u64,
    /// When set, append one [`JobEvent`] JSON line per served query to
    /// this file (created fresh at daemon start) — the serving
    /// equivalent of the fleet's `events.jsonl`, readable by
    /// `qa-trace analyze`.
    pub events_path: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            eval_workers: 4,
            http_threads: 8,
            queue_depth: 64,
            cache_capacity: 128,
            max_steps: 50_000_000,
            max_wall_ms: 5_000,
            slo_rules: None,
            scrape_every_ms: 250,
            events_path: None,
        }
    }
}

/// Run id stamped on every wide event the daemon emits.
const SERVE_RUN_ID: &str = "qa-serve";

/// Wide events the `/events` ring retains.
const EVENT_RING_CAPACITY: usize = 1024;

/// Registered query ids (`POST /query` with `"register"`).
type Registry = Mutex<std::collections::BTreeMap<String, String>>;

struct Core {
    store: RwLock<DocStore>,
    cache: Mutex<QueryCache>,
    registered: Registry,
    pool: WorkPool,
    metrics: Arc<Metrics>,
    /// Accumulated per-state profiles, keyed by query hash (`{:016x}`).
    /// Only `"explain": true` requests deposit here, so the cost is
    /// strictly opt-in per request.
    scopes: Mutex<std::collections::BTreeMap<String, ScopeProfiler>>,
    /// Live tail behind the pulse `/events` endpoint.
    events: SharedEvents,
    /// Optional `events.jsonl` sink ([`ServeConfig::events_path`]).
    events_file: Option<Mutex<std::fs::File>>,
    /// Monotonic job index for event identity (trace/span minting).
    seq: AtomicU64,
    /// Daemon start, the zero point for event `start_ns`.
    started: Instant,
    cfg: ServeConfig,
}

/// Handle to a running serving daemon; see the module docs.
pub struct ServeDaemon {
    server: PulseServer,
    state: Arc<PulseState>,
    core: Arc<Core>,
    sentinel: Option<SharedSentinel>,
    scrape_stop: Arc<AtomicBool>,
    scrape_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServeDaemon {
    /// Bind and start serving. The returned daemon is already `/readyz`.
    pub fn start(cfg: ServeConfig) -> std::io::Result<ServeDaemon> {
        let metrics = Arc::new(Metrics::new());
        let rules_text = cfg
            .slo_rules
            .clone()
            .unwrap_or_else(|| DEFAULT_SLO_RULES.to_string());
        let rules = qa_sentinel::parse_rules(&rules_text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let events_file = match &cfg.events_path {
            Some(path) => Some(Mutex::new(std::fs::File::create(path)?)),
            None => None,
        };
        let core = Arc::new(Core {
            store: RwLock::new(DocStore::new()),
            cache: Mutex::new(QueryCache::new(cfg.cache_capacity)),
            registered: Mutex::new(std::collections::BTreeMap::new()),
            pool: WorkPool::new(cfg.eval_workers),
            metrics: Arc::clone(&metrics),
            scopes: Mutex::new(std::collections::BTreeMap::new()),
            events: SharedEvents::with_capacity(EVENT_RING_CAPACITY),
            events_file,
            seq: AtomicU64::new(0),
            started: Instant::now(),
            cfg: cfg.clone(),
        });
        let state = PulseState::new(Arc::clone(&metrics), "qa_serve");
        let sentinel = SharedSentinel::new(rules);
        {
            let src = sentinel.clone();
            state.set_series_source(Box::new(move |name, tail| src.series_json(name, tail)));
            let src = sentinel.clone();
            state.set_alerts_source(Box::new(move || src.alerts_json()));
        }
        {
            let ring = core.events.clone();
            state.set_events_source(Box::new(move |n| ring.tail_jsonl(n)));
            let explain_core = Arc::clone(&core);
            state.set_explain_source(Box::new(move |query, json| {
                explain_core.explain_body(query, json)
            }));
        }
        let handler_core = Arc::clone(&core);
        state.set_api_handler(Arc::new(move |req| handle(&handler_core, req)));
        let server = PulseServer::serve_pooled(&cfg.listen, Arc::clone(&state), cfg.http_threads)?;
        // Background sentinel scrape: logical ticks over the shared
        // registry, same discipline as the fleet's in-process loop.
        let scrape_stop = Arc::new(AtomicBool::new(false));
        let scrape_thread = if cfg.scrape_every_ms > 0 {
            let stop = Arc::clone(&scrape_stop);
            let s = sentinel.clone();
            let m = Arc::clone(&metrics);
            let every = Duration::from_millis(cfg.scrape_every_ms);
            Some(
                std::thread::Builder::new()
                    .name("qa-serve-scrape".to_string())
                    .spawn(move || {
                        while !stop.load(Ordering::Acquire) {
                            s.scrape(&m, "qa_serve", &Vec::new());
                            std::thread::sleep(every);
                        }
                    })?,
            )
        } else {
            None
        };
        state.set_ready();
        Ok(ServeDaemon {
            server,
            state,
            core,
            sentinel: Some(sentinel),
            scrape_stop,
            scrape_thread,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// The served metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        self.core.metrics()
    }

    /// The pulse state behind the HTTP surface.
    pub fn state(&self) -> &Arc<PulseState> {
        &self.state
    }

    /// The wide-event ring behind `GET /events`.
    pub fn events(&self) -> &SharedEvents {
        &self.core.events
    }

    /// Names of the sentinel alerts currently firing.
    pub fn firing(&self) -> Vec<String> {
        self.sentinel
            .as_ref()
            .map(|s| s.firing())
            .unwrap_or_default()
    }

    /// Whether the HTTP accept loop is still running (it exits on
    /// `GET /quit`).
    pub fn is_running(&self) -> bool {
        self.server.is_running()
    }

    /// Stop the scrape loop, the HTTP server and the worker pool.
    pub fn shutdown(mut self) {
        self.scrape_stop.store(true, Ordering::Release);
        if let Some(handle) = self.scrape_thread.take() {
            let _ = handle.join();
        }
        self.server.shutdown();
    }
}

impl Core {
    fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Resolve one `GET /explain` request. `query` is a 16-hex query
    /// hash or a registered id; `None` merges every accumulated profile.
    /// Returns `None` for an unknown query (the pulse layer answers 404).
    fn explain_body(&self, query: Option<&str>, json: bool) -> Option<String> {
        let render = |p: &ScopeProfiler| {
            if json {
                p.explain_run().to_json()
            } else {
                p.explain_run().render_text()
            }
        };
        let scopes = recover(self.scopes.lock());
        match query {
            None => {
                let mut merged = ScopeProfiler::new();
                for p in scopes.values() {
                    merged.merge(p);
                }
                Some(render(&merged))
            }
            Some(name) => {
                // A registered id resolves to its formula's hash; anything
                // else is taken as the hash key itself.
                let key = recover(self.registered.lock())
                    .get(name)
                    .map(|f| format!("{:016x}", qa_obs::fnv1a64(f.trim().as_bytes())))
                    .unwrap_or_else(|| name.to_string());
                scopes.get(&key).map(render)
            }
        }
    }

    /// Push one served query's wide event to the `/events` ring and the
    /// `events.jsonl` sink when configured.
    fn emit_event(&self, event: JobEvent) {
        if let Some(file) = &self.events_file {
            let mut f = recover(file.lock());
            let _ = writeln!(f, "{}", event.to_json());
        }
        self.events.push(event);
    }
}

/// A lock's guard, also after a thread panicked while holding it. Every
/// structure behind the daemon's locks stays valid at each step of an
/// update (parses and compiles run on copies outside the locks, and an
/// insert interns whole labels and stores whole results), so one
/// request's panic must not fail every later request.
fn recover<G>(lock: LockResult<G>) -> G {
    lock.unwrap_or_else(PoisonError::into_inner)
}

/// Route one request; `None` declines to the server's own 404/405.
fn handle(core: &Arc<Core>, req: &ApiRequest) -> Option<ApiResponse> {
    let response = match (req.method.as_str(), req.route.as_str()) {
        ("PUT", "/doc") => put_doc(core, req),
        ("POST", "/query") => post_query(core, req),
        ("GET", "/docs") => get_docs(core),
        ("GET", "/queries") => get_queries(core),
        _ => return None,
    };
    core.metrics.count(Counter::HttpRequests, 1);
    Some(response)
}

fn error_json(status: u16, message: &str) -> ApiResponse {
    ApiResponse::json(
        status,
        json::object(|w| {
            w.field_str("error", message);
        }),
    )
}

fn put_doc(core: &Arc<Core>, req: &ApiRequest) -> ApiResponse {
    let started = Instant::now();
    let Some(name) = req.param("name").filter(|n| !n.is_empty()) else {
        return error_json(400, "PUT /doc needs a ?name=<doc> query parameter");
    };
    if req.body.trim().is_empty() {
        return error_json(400, "PUT /doc needs the document text as request body");
    }
    // Parse against a copy of the alphabet with no lock held; the write
    // lock only interns fresh labels and swaps the tree in. The tree the
    // insert lets go of is freed after the guard is released.
    let alphabet = recover(core.store.read()).alphabet().clone();
    let receipt = DocStore::parse(&req.body, alphabet)
        .and_then(|doc| recover(core.store.write()).insert(name, doc));
    match receipt {
        Ok((r, _released)) => {
            core.metrics.count(Counter::DocIngests, 1);
            core.metrics
                .record(Series::IngestMicros, started.elapsed().as_micros() as u64);
            ApiResponse::json(
                200,
                json::object(|w| {
                    w.field_str("name", name);
                    w.field_u64("id", r.id as u64);
                    w.field_str("fingerprint", &format!("{:016x}", r.fingerprint));
                    w.field_u64("nodes", r.nodes as u64);
                    w.field_u64("height", r.height as u64);
                    w.field_bool("updated", r.updated);
                }),
            )
        }
        Err(e) => error_json(422, &format!("ingest failed: {e}")),
    }
}

/// The parsed body of one `POST /query`.
struct QueryRequest {
    formula: Option<String>,
    id: Option<String>,
    doc: Option<String>,
    register: Option<String>,
    why: bool,
    explain: bool,
}

fn parse_query_body(body: &str) -> Result<QueryRequest, String> {
    let value = json::parse(body).map_err(|e| format!("request body is not JSON: {e}"))?;
    let text = |key: &str| -> Option<String> {
        value.get(key).and_then(Value::as_str).map(str::to_string)
    };
    let flag = |key: &str| matches!(value.get(key), Some(Value::Bool(true)));
    Ok(QueryRequest {
        formula: text("formula"),
        id: text("id"),
        doc: text("doc"),
        register: text("register"),
        why: flag("why"),
        explain: flag("explain"),
    })
}

fn post_query(core: &Arc<Core>, req: &ApiRequest) -> ApiResponse {
    let started = Instant::now();
    let parsed = match parse_query_body(&req.body) {
        Ok(p) => p,
        Err(e) => return error_json(400, &e),
    };
    // Resolve the formula text: inline, or a pre-registered id.
    let formula = match (&parsed.formula, &parsed.id) {
        (Some(f), _) => f.clone(),
        (None, Some(id)) => {
            let registered = recover(core.registered.lock());
            match registered.get(id) {
                Some(f) => f.clone(),
                None => return error_json(404, &format!("no registered query `{id}`")),
            }
        }
        (None, None) => return error_json(400, "POST /query needs `formula` or `id`"),
    };
    // Admission control: shed before compiling or queueing anything.
    let backlog = core.pool.queue_depth();
    if backlog >= core.cfg.queue_depth {
        core.metrics.count(Counter::RequestsShed, 1);
        return error_json(429, &format!("evaluation backlog {backlog} at capacity"))
            .retry_after(1);
    }
    // Snapshot the document and the alphabet under one read guard: every
    // label of the tree is then below the σ the formula is compiled over.
    let (doc, mut labels) = {
        let store = recover(core.store.read());
        let doc = parsed.doc.as_deref().and_then(|name| {
            let stored = store.get(name)?;
            Some((Arc::clone(&stored.tree), store.id_of(name)?, stored.height))
        });
        (doc, store.alphabet().clone())
    };
    // Parse against the copy. Only a formula naming a label no document
    // carries takes the write lock, to intern that label.
    let known = labels.len();
    let query = ParsedQuery::parse(&formula, &mut labels).and_then(|query| {
        if labels.len() == known {
            return Ok(query);
        }
        ParsedQuery::parse(&formula, recover(core.store.write()).alphabet_mut())
    });
    // Look up under the cache mutex; a miss compiles with no lock held
    // and re-locks only to insert.
    let compiled = query.and_then(|query| {
        let hit = recover(core.cache.lock()).lookup(&query, Some(&core.metrics));
        match hit {
            Some(hit) => Ok(hit),
            None => {
                let fresh = query.compile(Some(&core.metrics))?;
                Ok(recover(core.cache.lock()).insert(fresh, Some(&core.metrics)))
            }
        }
    });
    let compiled = match compiled {
        Ok(c) => c,
        Err(e) => return error_json(422, &format!("compile failed: {e}")),
    };
    if let Some(id) = &parsed.register {
        recover(core.registered.lock()).insert(id.clone(), compiled.formula.clone());
    }
    // Registration without a target document compiles and returns.
    let Some(doc_name) = &parsed.doc else {
        if parsed.register.is_none() {
            return error_json(400, "POST /query needs a `doc` (or a `register` id)");
        }
        return ApiResponse::json(
            200,
            json::object(|w| {
                w.field_str("registered", parsed.register.as_deref().unwrap_or(""));
                w.field_str("query", &format!("{:016x}", compiled.hash));
                w.field_u64("states", compiled.states as u64);
                w.field_u64("sigma", compiled.sigma as u64);
            }),
        );
    };
    let Some((tree, doc_id, doc_depth)) = doc else {
        return error_json(404, &format!("no document `{doc_name}`"));
    };
    // Dispatch onto the work-stealing pool under a per-request budget;
    // `evaluate` counts the run in its own tally and folds it into the
    // shared registry once, before the result comes back.
    let budget = Budget::steps(core.cfg.max_steps)
        .with_wall(Duration::from_millis(core.cfg.max_wall_ms))
        .with_wall_poll_every(64);
    let (tx, rx) = mpsc::channel();
    let job_metrics = Arc::clone(&core.metrics);
    let job_query = Arc::clone(&compiled);
    let job_tree = Arc::clone(&tree);
    let (why, explain) = (parsed.why, parsed.explain);
    let submitted = core.pool.submit(Box::new(move || {
        let run = evaluate(
            &job_query.prepared,
            &job_tree,
            explain,
            budget,
            &job_metrics,
        );
        let _ = tx.send(run);
    }));
    if !submitted {
        return error_json(503, "daemon is shutting down");
    }
    // The budget bounds the evaluation; the recv deadline only guards
    // against a lost worker, so it can be generous.
    let deadline = Duration::from_millis(core.cfg.max_wall_ms.saturating_mul(4).max(1_000) + 5_000);
    let run = match rx.recv_timeout(deadline) {
        Ok(run) => run,
        Err(_) => return error_json(500, "evaluation worker lost"),
    };
    let (explained, tripped, scope) = (run.selected, run.tripped, run.scope);
    // Accumulate the profile under the query's hash (partial profiles of
    // tripped runs included — an aborted run's heat map is exactly what
    // EXPLAIN is for).
    if let Some(sp) = &scope {
        recover(core.scopes.lock())
            .entry(format!("{:016x}", compiled.hash))
            .or_default()
            .merge(sp);
    }
    // One wide event per evaluation, aborted or not.
    let job = core.seq.fetch_add(1, Ordering::Relaxed) as usize;
    let ctx = TraceContext::mint(SERVE_RUN_ID, job);
    core.emit_event(JobEvent {
        run: SERVE_RUN_ID.to_string(),
        trace: ctx.trace_hex(),
        span: ctx.span_hex(),
        job,
        query: parsed
            .id
            .clone()
            .or_else(|| parsed.register.clone())
            .unwrap_or_else(|| format!("{:016x}", compiled.hash)),
        query_index: 0,
        doc_index: doc_id,
        doc_nodes: tree.num_nodes(),
        doc_depth,
        steps: run.steps,
        reversals: run.reversals,
        cache_hits: run.cache_hits,
        cache_misses: run.cache_misses,
        budget_trips: u64::from(tripped.is_some()),
        selected: explained.len(),
        sampled: explain,
        outcome: match &tripped {
            Some(abort) => format!("aborted: {abort}"),
            None => "ok".to_string(),
        },
        worker: "serve".to_string(),
        shard: "0/1".to_string(),
        start_ns: started.duration_since(core.started).as_nanos() as u64,
        wall_ns: started.elapsed().as_nanos() as u64,
    });
    if let Some(abort) = tripped {
        return error_json(
            408,
            &format!(
                "budget exceeded: {} = {} over limit {}",
                abort.what, abort.actual, abort.limit
            ),
        );
    }
    let micros = started.elapsed().as_micros() as u64;
    core.metrics.record(Series::QueryMicros, micros);
    ApiResponse::json(
        200,
        json::object(|w| {
            w.field_str("doc", doc_name);
            w.field_str("query", &format!("{:016x}", compiled.hash));
            w.field_u64("sigma", compiled.sigma as u64);
            w.field_u64("states", compiled.states as u64);
            w.field_u64("count", explained.len() as u64);
            w.field_u64_array("selected", explained.iter().map(|(v, _)| v.index() as u64));
            if why {
                w.field_objects("why_selected", &explained, |w, &(v, state)| {
                    w.field_u64("node", v.index() as u64);
                    w.field_u64("marked_state", u64::from(state));
                    w.field_str("label", labels.name(tree.label(v)));
                });
            }
            if let Some(sp) = &scope {
                w.field_raw("explain", &sp.explain_run().to_json());
            }
            w.field_u64("micros", micros);
        }),
    )
}

/// What [`evaluate`] hands back for one served query.
#[derive(Debug)]
pub struct Evaluation {
    /// Selected nodes in document order, each paired with its marked
    /// state (its `why_selected` certificate). The run yields both at
    /// once; the response lists the certificates only when `why` is set.
    pub selected: Vec<(NodeId, u32)>,
    /// The budget that aborted the run, if one did (the selection is
    /// then empty).
    pub tripped: Option<Abort>,
    /// The per-state profile of an `explain` run.
    pub scope: Option<ScopeProfiler>,
    /// The run's own `steps`. Only the wide event's four work counters
    /// leave the job, not the whole ~2.4 KB tally: the result travels
    /// back over a channel that allocates room for 31 of them at once.
    pub steps: u64,
    /// The run's own `head_reversals`.
    pub reversals: u64,
    /// The run's own `cache_hits`.
    pub cache_hits: u64,
    /// The run's own `cache_misses`.
    pub cache_misses: u64,
}

/// Evaluate one served query the way `POST /query` does: the Figure 6
/// two-pass run of `prepared` over `tree`, with the `why_selected`
/// certificate of every selected node, under the observer chain
/// `Watchdog(Tee(Tally, scope arm))`.
///
/// The [`Tally`] counts every event in plain per-job integers; it is
/// folded into `registry` once, on every path, aborted runs included, so
/// the registry's totals equal those of a run observed through
/// [`Metrics::observer`] without an atomic per event. A tripped budget
/// also counts one [`Counter::BudgetTrips`]. The scope arm is a
/// [`ScopeProfiler`] when `explain` is set and a [`NoopObserver`]
/// otherwise. The step budget is enforced by the [`Watchdog`]'s own
/// step count.
pub fn evaluate(
    prepared: &PreparedUnary,
    tree: &Tree,
    explain: bool,
    budget: Budget,
    registry: &Metrics,
) -> Evaluation {
    let scope_arm = if explain {
        Sampled::Full(ScopeProfiler::new())
    } else {
        Sampled::Light(NoopObserver)
    };
    let mut dog = Watchdog::new(Tee(Tally::new(), scope_arm), budget);
    let selected = prepared.eval_unranked_explained(tree, &mut dog);
    let tripped = dog.tripped();
    let Tee(mut tally, scope_arm) = dog.into_inner();
    if tripped.is_some() {
        tally.count(Counter::BudgetTrips, 1);
    }
    registry.absorb(&tally);
    Evaluation {
        selected,
        tripped,
        scope: scope_arm.full(),
        steps: tally.get(Counter::Steps),
        reversals: tally.get(Counter::HeadReversals),
        cache_hits: tally.get(Counter::CacheHits),
        cache_misses: tally.get(Counter::CacheMisses),
    }
}

fn get_docs(core: &Arc<Core>) -> ApiResponse {
    let store = recover(core.store.read());
    let body = json::object(|w| {
        w.field_u64("count", store.len() as u64);
        w.field_u64("sigma", store.alphabet().len() as u64);
        w.field_objects("docs", store.docs().iter().enumerate(), |w, (id, d)| {
            w.field_u64("id", id as u64);
            w.field_str("name", &d.name);
            w.field_str("fingerprint", &format!("{:016x}", d.fingerprint));
            w.field_u64("nodes", d.nodes as u64);
            w.field_u64("height", d.height as u64);
        });
    });
    ApiResponse::json(200, body)
}

fn get_queries(core: &Arc<Core>) -> ApiResponse {
    let sigma = recover(core.store.read()).alphabet().len();
    let registered = recover(core.registered.lock());
    let cache = recover(core.cache.lock());
    let (hits, misses, evictions) = cache.stats();
    // Resident compiled automata by hash, so registered ids can report
    // their state count without forcing a compile.
    let resident: std::collections::BTreeMap<u64, (usize, usize)> = cache
        .entries()
        .map(|(q, _)| (q.hash, (q.states, q.sigma)))
        .collect();
    let body = json::object(|w| {
        w.field_u64("sigma", sigma as u64);
        w.field_objects("registered", registered.iter(), |w, (id, formula)| {
            let hash = qa_obs::fnv1a64(formula.trim().as_bytes());
            w.field_str("id", id);
            w.field_str("formula", formula);
            w.field_str("query", &format!("{hash:016x}"));
            if let Some(&(states, sigma)) = resident.get(&hash) {
                w.field_u64("states", states as u64);
                w.field_u64("sigma", sigma as u64);
            }
        });
        w.field_objects("compiled", cache.entries(), |w, (q, entry_hits)| {
            w.field_str("query", &format!("{:016x}", q.hash));
            w.field_str("formula", &q.formula);
            w.field_u64("sigma", q.sigma as u64);
            w.field_u64("states", q.states as u64);
            w.field_u64("hits", entry_hits);
        });
        w.field_u64("hits", hits);
        w.field_u64("misses", misses);
        w.field_u64("evictions", evictions);
    });
    ApiResponse::json(200, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, route: &str, query: &str, body: &str) -> ApiRequest {
        ApiRequest {
            method: method.to_string(),
            route: route.to_string(),
            query: query.to_string(),
            body: body.to_string(),
        }
    }

    fn status(core: &Arc<Core>, req: ApiRequest) -> u16 {
        handle(core, &req).expect("routed").status
    }

    /// Poison one of the daemon's locks by panicking while holding it,
    /// then check that queries and both catalogs still answer.
    fn serves_after_a_panic_under(poison: impl Fn(&Core) + Sync) {
        let daemon = ServeDaemon::start(ServeConfig {
            scrape_every_ms: 0,
            ..ServeConfig::default()
        })
        .expect("daemon starts");
        let core = &daemon.core;
        assert_eq!(status(core, request("PUT", "/doc", "name=d", "(a b)")), 200);
        std::thread::scope(|s| {
            let panicked = s.spawn(|| poison(core)).join();
            assert!(panicked.is_err(), "the poisoning thread panics");
        });
        assert!(core.store.is_poisoned() || core.cache.is_poisoned());
        let query = r#"{"formula": "label(v, b)", "doc": "d"}"#;
        assert_eq!(status(core, request("POST", "/query", "", query)), 200);
        assert_eq!(status(core, request("GET", "/docs", "", "")), 200);
        assert_eq!(status(core, request("GET", "/queries", "", "")), 200);
        daemon.shutdown();
    }

    #[test]
    fn a_held_store_read_guard_stalls_no_warm_query_and_no_catalog() {
        let daemon = ServeDaemon::start(ServeConfig {
            scrape_every_ms: 0,
            ..ServeConfig::default()
        })
        .expect("daemon starts");
        let core = &daemon.core;
        let warm = r#"{"formula": "label(v, b)", "doc": "d"}"#;
        let query = || request("POST", "/query", "", warm);
        assert_eq!(status(core, request("PUT", "/doc", "name=d", "(a b)")), 200);
        assert_eq!(status(core, query()), 200, "cold compile");
        let held = core.store.read();
        let answered = std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            s.spawn(move || {
                let warm = status(core, query());
                let docs = status(core, request("GET", "/docs", "", ""));
                let _ = tx.send((warm, docs));
            });
            let answered = rx.recv_timeout(Duration::from_secs(5));
            drop(held);
            answered
        });
        assert_eq!(
            answered,
            Ok((200, 200)),
            "answered while the read guard was held"
        );
        daemon.shutdown();
    }

    #[test]
    fn a_panic_under_the_store_write_lock_fails_no_later_request() {
        serves_after_a_panic_under(|core| {
            let _store = core.store.write();
            panic!("injected panic under the store write lock");
        });
    }

    #[test]
    fn a_panic_under_the_cache_mutex_fails_no_later_request() {
        serves_after_a_panic_under(|core| {
            let _cache = core.cache.lock();
            panic!("injected panic under the cache mutex");
        });
    }
}
