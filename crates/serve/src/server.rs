//! The server proper: accept pool → request handlers → shared search pool
//! → LRU cache, with `/metrics` rendered from a server-owned snapshot.
//!
//! ```text
//!          ┌────────────┐   sync_channel    ┌──────────────────┐
//!  accept ─► accept loop ├──────────────────► connection worker │×accept_threads
//!          └────────────┘  (bounded queue)  │  parse → route    │
//!                                           └───┬────────▲─────┘
//!                             cache hit ────────┘        │ reply channel
//!                             cache miss: Job ▼          │
//!                                        ┌────────────────────┐
//!                                        │   search workers    │×pool_threads
//!                                        │ cancel scope + obs  │
//!                                        └────────────────────┘
//! ```
//!
//! Observability is pull-based but *server-owned*: obs thread-locals only
//! fold into the global sink when a thread exits, and server threads never
//! exit, so every request handler and pool worker instead captures its own
//! frame and merges it into `State::metrics` under a mutex. `/metrics`
//! renders that snapshot; [`ServerHandle::shutdown`] returns it so the CLI
//! can flush a trace that includes the serving counters.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use valentine_index::{LoadedIndex, SearchOptions, SearchOutcome, SharedIndex};
use valentine_matchers::MatcherKind;
use valentine_obs::json::Json;
use valentine_obs::jsonl::{self, RequestEvent};
use valentine_obs::{reqid, CancelToken, Snapshot};
use valentine_table::{csv, Column, Table};

use crate::cache::Lru;
use crate::exemplar::ExemplarRing;
use crate::http::{write_response, Request};
use crate::pool::{Job, JobOutcome, SearchJob, SearchPool};

/// Serve-layer metric names (the `index/*` names ride along from the
/// merged job snapshots).
pub mod metrics {
    /// Requests handled, any endpoint, any status (counter).
    pub const REQUESTS: &str = "serve/requests";
    /// Search responses served straight from the LRU cache (counter).
    pub const CACHE_HITS: &str = "serve/cache_hits";
    /// Search requests that had to run the search pool (counter).
    pub const CACHE_MISSES: &str = "serve/cache_misses";
    /// Cache entries displaced by capacity (counter).
    pub const CACHE_EVICTIONS: &str = "serve/cache_evictions";
    /// Searches that blew their deadline and answered 504 (counter).
    pub const DEADLINE_EXCEEDED: &str = "serve/deadline_exceeded";
    /// Successful `POST /admin/reload` index swaps (counter).
    pub const RELOADS: &str = "serve/reloads";
    /// `POST /admin/reload` attempts that failed to load and kept the
    /// running index (counter).
    pub const RELOAD_FAILURES: &str = "serve/reload_failures";
    /// Connections answered 503 because the hand-off queue stayed full
    /// through the bounded retry (counter) — the overload shed path.
    pub const SHEDS: &str = "serve/sheds";
    /// Connections answered 408 because the request head did not arrive
    /// within [`ServeConfig::header_read_timeout`] (counter) — slow-loris
    /// containment.
    pub const SLOW_HEADERS: &str = "serve/slow_headers";
    /// Search responses computed against a degraded index — one that
    /// quarantined corrupt data at load (counter). Never cached.
    pub const DEGRADED_RESPONSES: &str = "serve/degraded_responses";
    /// Generations quarantined by index loads this server performed
    /// (counter; mirrors the obs name recorded inside `load_dir`, which
    /// lands in thread-local frames the server never merges).
    pub const QUARANTINED_GENERATIONS: &str = "index/quarantined_generations";
    /// Segments quarantined by index loads this server performed (counter).
    pub const QUARANTINED_SEGMENTS: &str = "index/quarantined_segments";
}

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind.
    pub host: String,
    /// Port to bind (0 = ephemeral; read the bound port off
    /// [`ServerHandle::addr`]).
    pub port: u16,
    /// Search-pool worker threads.
    pub pool_threads: usize,
    /// Connection-handler threads (socket parsing and cache lookups are
    /// cheap, so a few more than `pool_threads` keeps the queue fed).
    pub accept_threads: usize,
    /// LRU result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Per-request deadline applied when the client sends no
    /// `deadline_ms`; `None` means unbounded.
    pub default_deadline: Option<Duration>,
    /// `k` when the client sends none.
    pub default_k: usize,
    /// Re-rank matcher when the client sends no `method` (`None` =
    /// sketch-only).
    pub default_rerank: Option<MatcherKind>,
    /// Re-rank shortlist size when the client sends no `cap`.
    pub candidate_cap: usize,
    /// Exemplars kept per side (slowest / errored) for
    /// `GET /debug/exemplars`.
    pub exemplar_capacity: usize,
    /// How long a rendered `/metrics` body stays fresh before the next
    /// scrape re-renders it. Rendering walks every histogram; a scrape
    /// storm should not multiply that cost. `Duration::ZERO` disables
    /// memoization.
    pub metrics_memo: Duration,
    /// Where the index was loaded from (a `VIDX` file or v2 directory).
    /// When set, `POST /admin/reload` re-loads this path and swaps the
    /// fresh index in — how the server picks up an `index add`/`remove`/
    /// `compact` without a restart. `None` disables the endpoint.
    pub index_path: Option<std::path::PathBuf>,
    /// How long a connection may take to deliver its request head (request
    /// line + headers) before it is dropped with 408. A client trickling
    /// one header byte at a time — slow loris — otherwise pins a
    /// connection worker for the full 30 s body timeout; headers are tiny,
    /// so an honest client never needs more than a couple of seconds.
    pub header_read_timeout: Duration,
    /// Capacity of the accept-loop → connection-worker hand-off queue;
    /// 0 sizes it automatically (`accept_threads × 4`). Connections that
    /// find it full after a bounded retry are shed with 503. Tiny explicit
    /// values make the shed path easy to exercise in tests.
    pub conn_queue: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            pool_threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
            accept_threads: 8,
            cache_capacity: 256,
            default_deadline: Some(Duration::from_secs(10)),
            default_k: 10,
            default_rerank: Some(MatcherKind::ComaInstance),
            candidate_cap: 10,
            exemplar_capacity: 8,
            metrics_memo: Duration::from_secs(1),
            index_path: None,
            header_read_timeout: Duration::from_secs(2),
            conn_queue: 0,
        }
    }
}

/// What a search answer is cached under: the query's sketch digest plus
/// every knob that changes the response body. Each loaded index is
/// immutable, so equal keys ⇒ equal bodies — and when `/admin/reload`
/// swaps a *different* index in, the whole cache is cleared rather than
/// risking stale entries keyed under the old corpus (see [`ResultCache`]
/// for searches still running across the swap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    digest: u64,
    joinable: bool,
    k: usize,
    rerank: Option<MatcherKind>,
    cap: usize,
}

/// The finished-answer LRU plus the reload epoch it is valid for.
struct ResultCache {
    /// Bumped, under this cache's lock, by every successful reload. A
    /// search remembers the epoch it started in and inserts its answer
    /// only if no reload happened since: otherwise the answer came from a
    /// snapshot the reload already replaced, and caching it would undo the
    /// reload's clear.
    epoch: u64,
    lru: Lru<CacheKey, String>,
}

struct State {
    /// The current index, behind a swappable slot so `/admin/reload` can
    /// publish a replacement while searches hold handles to the old one.
    index: SharedIndex,
    config: ServeConfig,
    cache: Mutex<ResultCache>,
    metrics: Mutex<Snapshot>,
    exemplars: Mutex<ExemplarRing>,
    /// Where finished requests are logged as `request` trace lines;
    /// `None` when the server runs without a trace sink.
    request_log: Mutex<Option<Box<dyn Write + Send>>>,
    /// Rendered `/metrics` bodies (flat, Prometheus) plus when they were
    /// rendered; see [`ServeConfig::metrics_memo`].
    metrics_memo: Mutex<Option<(Instant, String, String)>>,
    /// Master job sender; taken (dropped) on drain so the pool can finish.
    jobs: Mutex<Option<Sender<Job>>>,
    /// Shed responses currently being written; bounded by
    /// [`SHED_WRITERS_MAX`].
    shed_writers: AtomicUsize,
    stop: AtomicBool,
}

impl State {
    fn record_request(&self, endpoint: &str, status: u16, elapsed_ns: u64) {
        let mut m = self.metrics.lock();
        m.record_counter(metrics::REQUESTS, 1);
        m.record_counter(&format!("serve/status_{status}"), 1);
        m.record_hist(&format!("serve/{endpoint}_ns"), elapsed_ns);
    }

    fn bump(&self, name: &str) {
        self.metrics.lock().record_counter(name, 1);
    }

    /// Folds an index load's fault-containment outcome into the server
    /// snapshot. `load_dir` records its quarantine counters into obs
    /// thread-locals that never reach the server-owned snapshot, so the
    /// tally is re-recorded here from the index's own report — once per
    /// load (start and each reload), so the counters count quarantine
    /// *events*, cumulatively, like every other counter.
    fn note_index_health(&self, index: &LoadedIndex) {
        let q = index.quarantine();
        if q.generations > 0 {
            let mut m = self.metrics.lock();
            m.record_counter(metrics::QUARANTINED_GENERATIONS, q.generations as u64);
            m.record_counter(metrics::QUARANTINED_SEGMENTS, q.segments as u64);
        }
    }

    /// Feeds one finished request to the exemplar ring and the request
    /// log. Flushes per line: the log exists to debug requests that
    /// misbehave, including ones that crash the process right after.
    fn note_request(&self, event: RequestEvent) {
        self.exemplars.lock().note(&event);
        let mut log = self.request_log.lock();
        if let Some(out) = log.as_mut() {
            let _ = writeln!(out, "{}", jsonl::request_line(&event));
            let _ = out.flush();
        }
    }

    /// The `/metrics` bodies (flat, Prometheus), re-rendered at most once
    /// per [`ServeConfig::metrics_memo`]. Both formats render from the
    /// same snapshot so a scraper switching formats never sees time move
    /// backwards.
    fn metrics_bodies(&self) -> (String, String) {
        let mut memo = self.metrics_memo.lock();
        if let Some((at, flat, prom)) = memo.as_ref() {
            if at.elapsed() < self.config.metrics_memo {
                return (flat.clone(), prom.clone());
            }
        }
        let snapshot = self.metrics.lock().clone();
        let flat = valentine_obs::report::render_metrics(&snapshot);
        let prom = valentine_obs::report::render_prometheus(&snapshot);
        *memo = Some((Instant::now(), flat.clone(), prom.clone()));
        (flat, prom)
    }
}

/// A running server: join handles plus the shared state. Obtain with
/// [`ServerHandle::start`], stop with [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    accept: Option<std::thread::JoinHandle<()>>,
    conn_workers: Vec<std::thread::JoinHandle<()>>,
    pool: Option<SearchPool>,
}

impl ServerHandle {
    /// Binds, spawns the accept loop, connection workers, and search pool,
    /// and returns immediately; the server runs until
    /// [`shutdown`](ServerHandle::shutdown).
    pub fn start(index: LoadedIndex, config: ServeConfig) -> std::io::Result<ServerHandle> {
        ServerHandle::start_with_log(index, config, None)
    }

    /// Like [`start`](ServerHandle::start), but logs every finished
    /// request as a `request` trace line to `request_log` — the write half
    /// of request correlation (`valentine trace report --request <id>`
    /// reads them back).
    pub fn start_with_log(
        index: LoadedIndex,
        config: ServeConfig,
        request_log: Option<Box<dyn Write + Send>>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let addr = listener.local_addr()?;

        let (jobs_tx, jobs_rx) = mpsc::channel();
        let pool = SearchPool::start(jobs_rx, config.pool_threads);

        let accept_threads = config.accept_threads.max(1);
        let state = Arc::new(State {
            index: SharedIndex::new(index),
            cache: Mutex::new(ResultCache {
                epoch: 0,
                lru: Lru::new(config.cache_capacity),
            }),
            metrics: Mutex::new(Snapshot::new()),
            exemplars: Mutex::new(ExemplarRing::new(config.exemplar_capacity)),
            request_log: Mutex::new(request_log),
            metrics_memo: Mutex::new(None),
            jobs: Mutex::new(Some(jobs_tx)),
            shed_writers: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            config,
        });
        state.note_index_health(&state.index.get());

        // Bounded hand-off: when every connection worker is busy and the
        // queue is full, the accept loop sheds with an inline 503 rather
        // than blocking — see `offer_connection`.
        let conn_queue = match state.config.conn_queue {
            0 => accept_threads * 4,
            n => n,
        };
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(conn_queue);
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let conn_workers = (0..accept_threads)
            .map(|i| {
                let state = Arc::clone(&state);
                let conn_rx = Arc::clone(&conn_rx);
                std::thread::Builder::new()
                    .name(format!("serve-conn-{i}"))
                    .spawn(move || loop {
                        let stream = match conn_rx.lock().recv() {
                            Ok(s) => s,
                            Err(_) => return, // accept loop gone, queue drained
                        };
                        handle_connection(&state, stream);
                    })
                    .expect("spawn connection worker")
            })
            .collect();

        let accept = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(listener, conn_tx, &state))
                .expect("spawn accept loop")
        };

        Ok(ServerHandle {
            addr,
            state,
            accept: Some(accept),
            conn_workers,
            pool: Some(pool),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A copy of the server's merged metrics (what `/metrics` renders).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.state.metrics.lock().clone()
    }

    /// Graceful drain: stop accepting, finish every in-flight connection
    /// and queued search, stop the pool, and return the final merged
    /// metrics snapshot (for trace flushing).
    pub fn shutdown(mut self) -> Snapshot {
        self.state.stop.store(true, Ordering::SeqCst);
        // The accept loop is parked in accept(); poke it awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept thread dropped its sender: workers drain queued
        // connections (answering each) and exit.
        for w in self.conn_workers.drain(..) {
            let _ = w.join();
        }
        // No handler is alive to clone the job sender anymore; dropping
        // the master lets the pool drain and stop.
        drop(self.state.jobs.lock().take());
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
        // Release the request log so the caller's writer (a shared trace
        // file) sees every line before it appends the final snapshot.
        drop(self.state.request_log.lock().take());
        self.state.metrics.lock().clone()
    }
}

fn accept_loop(listener: TcpListener, conn_tx: SyncSender<TcpStream>, state: &Arc<State>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.stop.load(Ordering::SeqCst) {
                    // the wake-up connection (or a client racing the
                    // drain); either way: stop accepting
                    return;
                }
                if !offer_connection(&conn_tx, state, stream) {
                    return;
                }
            }
            Err(_) => {
                if state.stop.load(Ordering::SeqCst) {
                    return;
                }
                // transient accept error (EMFILE, aborted handshake);
                // keep serving
            }
        }
    }
}

/// How many times the accept loop re-offers a connection to a full
/// hand-off queue before shedding it with 503.
const SHED_RETRIES: usize = 3;
/// Pause between those offers — long enough for a worker to pop an entry,
/// short enough that the whole shed decision stays well under a
/// millisecond.
const SHED_BACKOFF: Duration = Duration::from_micros(100);
/// At most this many shed responses may be in flight at once. Writing a
/// 503 involves waiting on the client socket, which must never be the
/// accept loop's problem nor an unbounded thread count under a flood;
/// past the cap the connection is dropped outright and the kernel's
/// reset is the answer.
const SHED_WRITERS_MAX: usize = 64;

/// Hands an accepted connection to the worker queue without ever blocking
/// the accept loop: `try_send`, retry a few times with a microsecond
/// backoff, and when the queue is still full, shed with 503 +
/// `Retry-After`. An overloaded server keeps saying "no" quickly instead
/// of letting connections pile up in the OS backlog until clients time
/// out. Returns `false` only when the workers are gone and accepting
/// should stop.
fn offer_connection(
    conn_tx: &SyncSender<TcpStream>,
    state: &Arc<State>,
    stream: TcpStream,
) -> bool {
    let started = Instant::now();
    let mut stream = stream;
    for attempt in 0..=SHED_RETRIES {
        if attempt > 0 {
            std::thread::sleep(SHED_BACKOFF);
        }
        match conn_tx.try_send(stream) {
            Ok(()) => return true,
            Err(mpsc::TrySendError::Full(s)) => stream = s,
            Err(mpsc::TrySendError::Disconnected(_)) => return false,
        }
    }
    state.bump(metrics::SHEDS);
    // The response itself is socket I/O — written from a short-lived
    // responder thread so the accept loop stays free to keep shedding.
    let admitted = state
        .shed_writers
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < SHED_WRITERS_MAX).then_some(n + 1)
        })
        .is_ok();
    if admitted {
        let state = Arc::clone(state);
        std::thread::spawn(move || {
            shed_connection(&state, &stream, started);
            state.shed_writers.fetch_sub(1, Ordering::SeqCst);
        });
    } else {
        state.record_request("shed", 503, started.elapsed().as_nanos() as u64);
    }
    true
}

/// Answers one shed connection with 503 + `Retry-After`. The socket dance
/// around the write matters: closing with unread input makes the kernel
/// reset the connection, destroying the response before the client reads
/// it — so the request bytes are drained first, and the writer lingers
/// briefly for the client's own close so the final drop sends FIN.
fn shed_connection(state: &State, stream: &TcpStream, started: Instant) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    let mut rw: &TcpStream = stream;
    let _ = rw.read(&mut sink);
    let _ = write_response(
        &mut rw,
        503,
        "text/plain",
        &[("Retry-After", "1".to_string())],
        b"overloaded: connection queue is full, retry shortly\n",
    );
    state.record_request("shed", 503, started.elapsed().as_nanos() as u64);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    for _ in 0..8 {
        match rw.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn handle_connection(state: &State, stream: TcpStream) {
    let started = Instant::now();
    // Two-phase read deadline: the head (request line + headers) must
    // arrive promptly — a trickling client is a slow loris occupying a
    // worker — while an honest large CSV upload gets the full budget.
    let _ = stream.set_read_timeout(Some(state.config.header_read_timeout));
    let mut reader = BufReader::new(&stream);
    let parsed = match Request::read_head(&mut reader) {
        Ok(head) => {
            let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
            Request::read_body(&mut reader, head)
        }
        Err((status, message)) => {
            if status == 408 {
                state.bump(metrics::SLOW_HEADERS);
            }
            Err((status, message))
        }
    };
    // Adopt the client's correlation id when it sent a safe one, otherwise
    // mint. Every response — including parse failures — echoes it, so a
    // client always has a handle to ask the trace about.
    let request_id: Arc<str> = parsed
        .as_ref()
        .ok()
        .and_then(|req| req.header("X-Valentine-Request-Id"))
        .filter(|raw| reqid::is_valid(raw))
        .map(Arc::from)
        .unwrap_or_else(|| Arc::from(reqid::mint()));
    let _scope = reqid::scope(Some(Arc::clone(&request_id)));
    let (endpoint, status, content_type, mut headers, body, search) = match parsed {
        Err((status, message)) => (
            "error",
            status,
            "text/plain",
            Vec::new(),
            format!("{message}\n"),
            None,
        ),
        Ok(req) => route(state, &req, &request_id),
    };
    headers.push(("X-Valentine-Request-Id", request_id.to_string()));
    let mut writer = &stream;
    let _ = write_response(&mut writer, status, content_type, &headers, body.as_bytes());
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    state.record_request(endpoint, status, elapsed_ns);
    let info = search.unwrap_or_default();
    state.note_request(RequestEvent {
        id: request_id.to_string(),
        endpoint: endpoint.to_string(),
        status: status as u64,
        cache: info.cache.to_string(),
        queue_wait_ns: info.queue_wait_ns,
        elapsed_ns,
        deadline_exceeded: info.deadline_exceeded,
        snapshot: info.snapshot,
    });
}

/// What a `/search` response knows beyond its body: the correlation
/// payload for the request event and exemplar ring.
struct SearchInfo {
    cache: &'static str,
    queue_wait_ns: u64,
    deadline_exceeded: bool,
    snapshot: Snapshot,
}

impl Default for SearchInfo {
    fn default() -> SearchInfo {
        SearchInfo {
            cache: "none",
            queue_wait_ns: 0,
            deadline_exceeded: false,
            snapshot: Snapshot::new(),
        }
    }
}

type Routed = (
    &'static str,
    u16,
    &'static str,
    Vec<(&'static str, String)>,
    String,
    Option<SearchInfo>,
);

fn route(state: &State, req: &Request, request_id: &Arc<str>) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        // Still 200 when degraded: the server answers, over whatever
        // survived the load — but the body tells a probe (and the CI smoke
        // test) that part of the corpus is quarantined.
        ("GET", "/healthz") => (
            "healthz",
            200,
            "text/plain",
            Vec::new(),
            if state.index.get().is_degraded() {
                "degraded\n".to_string()
            } else {
                "ok\n".to_string()
            },
            None,
        ),
        ("GET", "/metrics") => match req.param("format") {
            None | Some("flat") => {
                let (flat, _) = state.metrics_bodies();
                ("metrics", 200, "text/plain", Vec::new(), flat, None)
            }
            Some("prometheus") => {
                let (_, prometheus) = state.metrics_bodies();
                (
                    "metrics",
                    200,
                    "text/plain; version=0.0.4",
                    Vec::new(),
                    prometheus,
                    None,
                )
            }
            Some(other) => (
                "metrics",
                400,
                "text/plain",
                Vec::new(),
                format!("unknown metrics format `{other}` (expected flat or prometheus)\n"),
                None,
            ),
        },
        ("GET", "/debug/exemplars") => (
            "exemplars",
            200,
            "application/json",
            Vec::new(),
            state.exemplars.lock().render_json(),
            None,
        ),
        ("GET" | "POST", "/search") => match handle_search(state, req, request_id) {
            Ok((status, body, info)) => (
                "search",
                status,
                "application/json",
                vec![("X-Valentine-Cache", info.cache.to_string())],
                body,
                Some(info),
            ),
            Err((status, message)) => (
                "search",
                status,
                "application/json",
                Vec::new(),
                Json::Obj(vec![("error".to_string(), Json::Str(message))]).render() + "\n",
                None,
            ),
        },
        ("POST", "/admin/reload") => match handle_reload(state) {
            Ok(body) => ("reload", 200, "application/json", Vec::new(), body, None),
            Err((status, message)) => (
                "reload",
                status,
                "application/json",
                Vec::new(),
                Json::Obj(vec![("error".to_string(), Json::Str(message))]).render() + "\n",
                None,
            ),
        },
        (_, "/healthz" | "/metrics" | "/search" | "/debug/exemplars" | "/admin/reload") => (
            "error",
            405,
            "text/plain",
            Vec::new(),
            "method not allowed\n".to_string(),
            None,
        ),
        _ => (
            "error",
            404,
            "text/plain",
            Vec::new(),
            "not found (try /search, /metrics, /healthz, /debug/exemplars, /admin/reload)\n"
                .to_string(),
            None,
        ),
    }
}

/// Reloads the index from [`ServeConfig::index_path`] and atomically swaps
/// it in. In-flight searches finish against the handle they captured; the
/// result cache is cleared because its entries were computed against the
/// old corpus — this is also what evicts cached answers when a reload
/// quarantines data (or un-quarantines it after a repair). A load failure
/// answers 503 and leaves the running index — and the cache keyed to it —
/// untouched.
fn handle_reload(state: &State) -> Result<String, (u16, String)> {
    let path = state
        .config
        .index_path
        .as_deref()
        .ok_or((409, "server was started without an index path".to_string()))?;
    let fresh = LoadedIndex::load(path).map_err(|e| {
        state.bump(metrics::RELOAD_FAILURES);
        (503, format!("reload failed, keeping current index: {e}"))
    })?;
    let tables = fresh.len();
    let degraded = fresh.is_degraded();
    state.note_index_health(&fresh);
    state.index.swap(fresh);
    {
        let mut cache = state.cache.lock();
        cache.lru.clear();
        cache.epoch += 1;
    }
    state.bump(metrics::RELOADS);
    Ok(Json::Obj(vec![
        ("reloaded".to_string(), Json::Bool(true)),
        ("tables".to_string(), Json::UInt(tables as u64)),
        ("degraded".to_string(), Json::Bool(degraded)),
    ])
    .render()
        + "\n")
}

/// `Ok((status, json_body, correlation payload))`.
fn handle_search(
    state: &State,
    req: &Request,
    request_id: &Arc<str>,
) -> Result<(u16, String, SearchInfo), (u16, String)> {
    const KNOWN: [&str; 7] = [
        "kind",
        "k",
        "table",
        "column",
        "method",
        "cap",
        "deadline_ms",
    ];
    if let Some((name, _)) = req.query.iter().find(|(n, _)| !KNOWN.contains(&n.as_str())) {
        return Err((400, format!("unknown parameter `{name}`")));
    }

    let joinable = match req.param("kind") {
        Some("unionable") => false,
        Some("joinable") => true,
        Some(other) => {
            return Err((
                400,
                format!("kind must be unionable|joinable, got `{other}`"),
            ))
        }
        None => return Err((400, "missing required parameter `kind`".to_string())),
    };
    let k = parse_or(req, "k", state.config.default_k)?;
    let cap = parse_or(req, "cap", state.config.candidate_cap)?;
    let rerank = match req.param("method") {
        None => state.config.default_rerank,
        Some("none") | Some("sketch") => None,
        Some(name) => Some(
            MatcherKind::from_cli_name(name).ok_or((400, format!("unknown method `{name}`")))?,
        ),
    };
    let deadline = match req.param("deadline_ms") {
        None => state.config.default_deadline,
        Some(raw) => Some(Duration::from_millis(raw.parse().map_err(|_| {
            (400, format!("deadline_ms must be an integer, got `{raw}`"))
        })?)),
    };

    // One snapshot per request: the digest, the name lookup, and the
    // search itself all see the same index even if a reload swaps the
    // shared slot mid-request. The epoch is read first: a reload swaps
    // before it bumps, so this snapshot is never older than the epoch.
    let epoch = state.cache.lock().epoch;
    let index = state.index.get();
    let query = query_table(&index, req)?;
    let opts = SearchOptions {
        rerank,
        candidate_cap: cap,
        threads: 1, // the pool is the parallelism
    };

    let (digest, job) = if joinable {
        let column = query_column(&query, req.param("column"))?;
        (
            index.column_digest(&column),
            SearchJob::Joinable { column, k, opts },
        )
    } else {
        (
            index.table_digest(&query),
            SearchJob::Unionable {
                table: query,
                k,
                opts,
            },
        )
    };
    let key = CacheKey {
        digest,
        joinable,
        k,
        rerank,
        cap,
    };

    if let Some(body) = state.cache.lock().lru.get(&key) {
        state.bump(metrics::CACHE_HITS);
        return Ok((
            200,
            body.clone(),
            SearchInfo {
                cache: "hit",
                ..SearchInfo::default()
            },
        ));
    }
    state.bump(metrics::CACHE_MISSES);

    // Mint the token before enqueueing: queue wait burns deadline budget,
    // exactly as a client experiences it.
    let token = CancelToken::with_deadline("request", deadline);
    let sender = state
        .jobs
        .lock()
        .clone()
        .ok_or((503, "server is draining".to_string()))?;
    let (reply_tx, reply_rx) = mpsc::channel();
    sender
        .send(Job {
            job,
            index,
            token,
            request_id: Some(Arc::clone(request_id)),
            enqueued: Instant::now(),
            reply: reply_tx,
        })
        .map_err(|_| (503, "search pool stopped".to_string()))?;
    let outcome: JobOutcome = reply_rx
        .recv()
        .map_err(|_| (500, "search pool died mid-request".to_string()))?;

    state.metrics.lock().merge(&outcome.snapshot);
    let body = render_search_body(joinable, k, &outcome.outcome, outcome.deadline_hit);
    let info = SearchInfo {
        cache: "miss",
        queue_wait_ns: outcome.queue_wait_ns,
        deadline_exceeded: outcome.deadline_hit,
        snapshot: outcome.snapshot,
    };
    if outcome.deadline_hit {
        state.bump(metrics::DEADLINE_EXCEEDED);
        // 504s are never cached: the partial body is an artefact of this
        // request's budget, not a property of the query.
        return Ok((504, body, info));
    }
    if outcome.outcome.stats.degraded {
        state.bump(metrics::DEGRADED_RESPONSES);
        // Degraded answers are never cached either: they rank whatever
        // survived this load, and once the operator repairs the index
        // (compact + reload) the same query must not keep answering from
        // the quarantine era.
        return Ok((200, body, info));
    }
    let evicted = {
        let mut cache = state.cache.lock();
        cache.epoch == epoch && cache.lru.insert(key, body.clone()).is_some()
    };
    if evicted {
        state.bump(metrics::CACHE_EVICTIONS);
    }
    Ok((200, body, info))
}

fn parse_or(req: &Request, name: &str, default: usize) -> Result<usize, (u16, String)> {
    match req.param(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| (400, format!("{name} must be an integer, got `{raw}`"))),
    }
}

/// The query table: an uploaded CSV body (POST) or a named indexed table.
fn query_table(index: &LoadedIndex, req: &Request) -> Result<Table, (u16, String)> {
    if !req.body.is_empty() {
        let text = std::str::from_utf8(&req.body)
            .map_err(|_| (400, "query body must be UTF-8 CSV".to_string()))?;
        return csv::parse("query", text)
            .map_err(|e| (400, format!("cannot parse query CSV: {e}")));
    }
    match req.param("table") {
        Some(name) => match index.table_by_name(name) {
            Some(t) => Ok(t.table.clone()),
            None => Err((404, format!("no indexed table named `{name}`"))),
        },
        None => Err((
            400,
            "provide table=<indexed name> or POST a CSV body".to_string(),
        )),
    }
}

fn query_column(query: &Table, name: Option<&str>) -> Result<Column, (u16, String)> {
    match name {
        Some(name) => query
            .columns()
            .iter()
            .find(|c| c.name() == name)
            .cloned()
            .ok_or((400, format!("query table has no column `{name}`"))),
        None => query
            .columns()
            .first()
            .cloned()
            .ok_or((400, "query table has no columns".to_string())),
    }
}

fn render_search_body(
    joinable: bool,
    k: usize,
    outcome: &SearchOutcome,
    deadline_hit: bool,
) -> String {
    let results = outcome
        .results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("table".to_string(), Json::Str(r.table_name.clone())),
                ("source".to_string(), Json::Str(r.source.clone())),
                (
                    "column".to_string(),
                    match &r.column {
                        Some(c) => Json::Str(c.clone()),
                        None => Json::Null,
                    },
                ),
                ("score".to_string(), Json::Float(r.score)),
                ("sketch_score".to_string(), Json::Float(r.sketch_score)),
            ])
        })
        .collect();
    let stats = &outcome.stats;
    Json::Obj(vec![
        (
            "kind".to_string(),
            Json::Str(if joinable { "joinable" } else { "unionable" }.to_string()),
        ),
        ("k".to_string(), Json::UInt(k as u64)),
        ("deadline_exceeded".to_string(), Json::Bool(deadline_hit)),
        ("degraded".to_string(), Json::Bool(stats.degraded)),
        (
            "stats".to_string(),
            Json::Obj(vec![
                (
                    "lsh_candidates".to_string(),
                    Json::UInt(stats.lsh_candidates as u64),
                ),
                (
                    "matcher_calls".to_string(),
                    Json::UInt(stats.matcher_calls as u64),
                ),
                (
                    "matcher_errors".to_string(),
                    Json::UInt(stats.matcher_errors as u64),
                ),
                (
                    "matcher_skips".to_string(),
                    Json::UInt(stats.matcher_skips as u64),
                ),
            ]),
        ),
        ("results".to_string(), Json::Arr(results)),
    ])
    .render()
        + "\n"
}
