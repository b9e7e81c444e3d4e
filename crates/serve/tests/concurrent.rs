//! End-to-end tests over a real socket: concurrent clients against a
//! live server, cache semantics asserted through obs counters, deadline
//! enforcement, request-id correlation, exemplar capture, and graceful
//! shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use valentine_index::{Index, IndexConfig, LoadedIndex};
use valentine_matchers::MatcherKind;
use valentine_obs::json::Json;
use valentine_obs::jsonl;
use valentine_serve::{ServeConfig, ServerHandle};
use valentine_table::{Table, Value};

/// A 12-table corpus of overlapping integer/label tables — enough that
/// distinct queries rank distinct winners.
fn corpus_index() -> Index {
    let mut idx = Index::new(IndexConfig::default());
    for i in 0..12i64 {
        let lo = i * 40;
        let t = Table::from_pairs(
            format!("table_{i}"),
            vec![
                ("id", (lo..lo + 60).map(Value::Int).collect()),
                (
                    "label",
                    (lo..lo + 60)
                        .map(|v| Value::str(format!("item-{v}")))
                        .collect(),
                ),
            ],
        )
        .unwrap();
        idx.ingest("demo", t);
    }
    idx
}

fn corpus() -> LoadedIndex {
    LoadedIndex::from(corpus_index())
}

fn config() -> ServeConfig {
    ServeConfig {
        pool_threads: 2,
        accept_threads: 4,
        cache_capacity: 64,
        default_deadline: Some(Duration::from_secs(30)),
        default_k: 3,
        default_rerank: Some(MatcherKind::JaccardLevenshtein),
        ..ServeConfig::default()
    }
}

/// Minimal HTTP client: one request, read to EOF (the server closes).
/// Returns (status, headers, body).
fn request(addr: SocketAddr, raw: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("recv");
    let (head, body) = response.split_once("\r\n\r\n").expect("header split");
    let status: u16 = head[9..12].parse().expect("status code");
    (status, head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
    request(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

/// The 16 distinct queries the concurrency tests replay.
fn query_targets() -> Vec<String> {
    let mut targets: Vec<String> = (0..12)
        .map(|i| format!("/search?kind=unionable&k=3&table=table_{i}&method=jl"))
        .collect();
    for i in 0..4 {
        targets.push(format!(
            "/search?kind=joinable&k=2&table=table_{i}&column=id&method=jl"
        ));
    }
    targets
}

#[test]
fn sixteen_concurrent_clients_match_sequential_execution() {
    let index = corpus();
    let targets = query_targets();

    // Sequential baseline on its own server instance.
    let server = ServerHandle::start(index.clone(), config()).unwrap();
    let sequential: Vec<(u16, String)> = targets
        .iter()
        .map(|t| {
            let (status, _, body) = get(server.addr(), t);
            (status, body)
        })
        .collect();
    server.shutdown();
    for (status, body) in &sequential {
        assert_eq!(*status, 200, "{body}");
        assert!(body.contains("\"results\":["), "{body}");
    }

    // 16 clients at once against a cold second instance.
    let server = ServerHandle::start(index, config()).unwrap();
    let addr = server.addr();
    let concurrent: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter()
            .map(|t| {
                scope.spawn(move || {
                    let (status, _, body) = get(addr, t);
                    (status, body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (seq, conc)) in sequential.iter().zip(&concurrent).enumerate() {
        assert_eq!(seq, conc, "query {i} diverged under concurrency");
    }

    let snapshot = server.shutdown();
    assert_eq!(snapshot.counter("serve/requests"), targets.len() as u64);
    assert_eq!(snapshot.counter("serve/cache_misses"), targets.len() as u64);
    assert_eq!(snapshot.counter("serve/cache_hits"), 0);
    assert!(snapshot.counter("index/matcher_calls") > 0);
    assert!(snapshot.hists.contains_key("serve/search_ns"));
}

#[test]
fn repeated_query_is_served_from_cache_with_zero_matcher_calls() {
    let server = ServerHandle::start(corpus(), config()).unwrap();
    let target = "/search?kind=unionable&k=3&table=table_0&method=jl";

    let (status, head, cold_body) = get(server.addr(), target);
    assert_eq!(status, 200);
    assert!(head.contains("X-Valentine-Cache: miss"), "{head}");
    let cold = server.metrics_snapshot();
    let cold_calls = cold.counter("index/matcher_calls");
    assert!(cold_calls > 0, "cold query must re-rank");
    assert_eq!(cold.counter("serve/cache_misses"), 1);

    let (status, head, warm_body) = get(server.addr(), target);
    assert_eq!(status, 200);
    assert!(head.contains("X-Valentine-Cache: hit"), "{head}");
    assert_eq!(warm_body, cold_body, "cache returns the identical body");
    let warm = server.metrics_snapshot();
    assert_eq!(
        warm.counter("index/matcher_calls"),
        cold_calls,
        "a cached repeat performs zero matcher calls"
    );
    assert_eq!(warm.counter("serve/cache_hits"), 1);
    assert_eq!(warm.counter("serve/cache_misses"), 1);

    // different k ⇒ different cache key ⇒ a miss, not a stale hit
    let (_, head, _) = get(
        server.addr(),
        "/search?kind=unionable&k=2&table=table_0&method=jl",
    );
    assert!(head.contains("X-Valentine-Cache: miss"), "{head}");

    server.shutdown();
}

#[test]
fn blown_deadline_returns_504_and_the_server_stays_up() {
    let server = ServerHandle::start(corpus(), config()).unwrap();

    let (status, _, body) = get(
        server.addr(),
        "/search?kind=unionable&k=3&table=table_0&method=coma&deadline_ms=0",
    );
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"deadline_exceeded\":true"), "{body}");
    assert!(
        body.contains("\"matcher_calls\":0"),
        "no matcher ran under a spent deadline: {body}"
    );
    assert!(
        body.contains("\"results\":[{"),
        "partial sketch shortlist still served: {body}"
    );

    // the same query with a sane budget is NOT poisoned by a cached 504
    let (status, head, body) = get(
        server.addr(),
        "/search?kind=unionable&k=3&table=table_0&method=coma",
    );
    assert_eq!(status, 200, "{body}");
    assert!(
        head.contains("X-Valentine-Cache: miss"),
        "504 was not cached"
    );
    assert!(body.contains("\"deadline_exceeded\":false"), "{body}");

    let (status, _, body) = get(server.addr(), "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    let snapshot = server.shutdown();
    assert_eq!(snapshot.counter("serve/deadline_exceeded"), 1);
    assert_eq!(snapshot.counter("serve/status_504"), 1);
}

#[test]
fn post_uploads_a_query_csv() {
    let server = ServerHandle::start(corpus(), config()).unwrap();
    let csv = "id,label\n1,item-1\n2,item-2\n3,item-3\n";
    let raw = format!(
        "POST /search?kind=unionable&k=2&method=jl HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{csv}",
        csv.len(),
    );
    let (status, _, body) = request(server.addr(), &raw);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"table\":\"table_0\""), "{body}");

    // an identical upload hits the cache: the key is the sketch digest,
    // not the transport
    let (status, head, _) = request(server.addr(), &raw);
    assert_eq!(status, 200);
    assert!(head.contains("X-Valentine-Cache: hit"), "{head}");
    server.shutdown();
}

#[test]
fn error_paths_answer_without_killing_the_server() {
    let server = ServerHandle::start(corpus(), config()).unwrap();
    let addr = server.addr();
    for (target, expect) in [
        ("/search", 400),                                    // missing kind
        ("/search?kind=sideways", 400),                      // bad kind
        ("/search?kind=unionable", 400),                     // no query table
        ("/search?kind=unionable&table=ghost", 404),         // unknown table
        ("/search?kind=unionable&table=table_0&wat=1", 400), // unknown param
        ("/search?kind=unionable&table=table_0&method=nope", 400),
        ("/search?kind=unionable&table=table_0&k=banana", 400),
        ("/nope", 404),
    ] {
        let (status, _, body) = get(addr, target);
        assert_eq!(status, expect, "{target}: {body}");
    }
    let (status, _, _) = request(addr, "DELETE /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status, 405);
    let (status, _, _) = request(addr, "garbage\r\n\r\n");
    assert_eq!(status, 400);

    // after all that abuse, /metrics still renders and counts it all
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("serve/requests "), "{body}");
    assert!(body.contains("serve/search_ns_p99 "), "{body}");
    server.shutdown();
}

#[test]
fn admin_reload_swaps_the_index_and_clears_the_cache() {
    let dir = std::env::temp_dir().join("valentine_serve_reload_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.vidx");
    corpus().index().save(&path).unwrap();

    let server = ServerHandle::start(
        LoadedIndex::load(&path).unwrap(),
        ServeConfig {
            index_path: Some(path.clone()),
            ..config()
        },
    )
    .unwrap();
    let addr = server.addr();
    let post_reload =
        "POST /admin/reload HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";

    // warm the cache against the original corpus
    let target = "/search?kind=unionable&k=3&table=table_0&method=jl";
    let (status, _, _) = get(addr, target);
    assert_eq!(status, 200);
    let (_, head, _) = get(addr, target);
    assert!(head.contains("X-Valentine-Cache: hit"), "{head}");

    // grow the on-disk index (what `valentine index add` would do), then
    // ask the running server to pick it up
    let mut bigger = corpus_index();
    bigger.ingest(
        "demo",
        Table::from_pairs(
            "table_new",
            vec![("id", (900..960).map(Value::Int).collect())],
        )
        .unwrap(),
    );
    bigger.save(&path).unwrap();

    let (status, _, body) = request(addr, post_reload);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"reloaded\":true"), "{body}");
    assert!(body.contains("\"tables\":13"), "{body}");

    // the new table is searchable without a restart...
    let (status, _, body) = get(addr, "/search?kind=unionable&k=3&table=table_new&method=jl");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"table\":\"table_new\""), "{body}");
    // ...and the pre-reload cache entry was dropped, not served stale
    let (status, head, _) = get(addr, target);
    assert_eq!(status, 200);
    assert!(head.contains("X-Valentine-Cache: miss"), "{head}");

    // wrong method is a 405; a bad on-disk index keeps the old one serving
    let (status, _, _) = get(addr, "/admin/reload");
    assert_eq!(status, 405);
    std::fs::write(&path, b"garbage, not a VIDX file").unwrap();
    let (status, _, body) = request(addr, post_reload);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("keeping current index"), "{body}");
    let (status, _, _) = get(addr, "/search?kind=unionable&k=3&table=table_new&method=jl");
    assert_eq!(status, 200, "old index still serves after a failed reload");

    let snapshot = server.shutdown();
    assert_eq!(snapshot.counter("serve/reloads"), 1);
    assert_eq!(snapshot.counter("serve/reload_failures"), 1);
    let _ = std::fs::remove_dir_all(&dir);

    // a server started without an index path refuses to reload
    let server = ServerHandle::start(corpus(), config()).unwrap();
    let (status, _, body) = request(server.addr(), post_reload);
    assert_eq!(status, 409, "{body}");
    server.shutdown();
}

#[test]
fn answer_from_a_snapshot_replaced_mid_search_is_not_cached() {
    // One pool worker: a slow blocker search holds it while the query
    // under test waits in the queue holding its pre-reload snapshot. The
    // reload lands before that query runs, so its answer is the old
    // corpus's and must not reach the cache the reload just cleared.
    let dir = std::env::temp_dir().join("valentine_serve_reload_race_test");
    let path = dir.join("corpus.vidx");
    let post_reload =
        "POST /admin/reload HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
    let blocker = "/search?kind=unionable&k=12&cap=12&table=table_5&method=embdi";
    let target = "/search?kind=unionable&k=3&table=table_0&method=jl";
    let mut grown = corpus_index();
    let mut copy = corpus().table_by_name("table_0").unwrap().table.clone();
    copy.set_name("table_0_copy");
    grown.ingest("demo", copy);

    // The ordering rests on the blocker outlasting the reload; an attempt
    // where it did not is discarded rather than judged.
    for _attempt in 0..5 {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        corpus_index().save(&path).unwrap();
        let server = ServerHandle::start(
            LoadedIndex::load(&path).unwrap(),
            ServeConfig {
                index_path: Some(path.clone()),
                pool_threads: 1,
                ..config()
            },
        )
        .unwrap();
        let addr = server.addr();
        let misses_reach = |n: u64| {
            let started = std::time::Instant::now();
            while server.metrics_snapshot().counter("serve/cache_misses") < n {
                assert!(started.elapsed() < Duration::from_secs(30), "no miss #{n}");
                std::thread::sleep(Duration::from_millis(2));
            }
        };

        let slow = std::thread::spawn(move || get(addr, blocker));
        misses_reach(1);
        let stale = std::thread::spawn(move || get(addr, target));
        misses_reach(2); // snapshot taken, job queued behind the blocker
        grown.save(&path).unwrap();
        let (status, _, body) = request(addr, post_reload);
        assert_eq!(status, 200, "{body}");
        // The blocker still answering means it still holds the only pool
        // worker, so the query under test has not run yet.
        let raced = !slow.is_finished();
        let (status, _, old_body) = stale.join().unwrap();
        assert_eq!(status, 200, "{old_body}");
        let _ = slow.join().unwrap();
        if !raced {
            server.shutdown();
            continue;
        }
        assert!(!old_body.contains("table_0_copy"), "{old_body}");

        let (status, head, body) = get(addr, target);
        assert_eq!(status, 200, "{body}");
        assert!(
            head.contains("X-Valentine-Cache: miss"),
            "repeat answered from the replaced snapshot: {head}"
        );
        assert!(body.contains("\"table\":\"table_0_copy\""), "{body}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    panic!("the blocker search never outlasted a reload in 5 attempts");
}

/// A `Write` handle over a shared byte buffer, standing in for the trace
/// file `valentine serve --trace` attaches.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn header_value<'h>(head: &'h str, name: &str) -> Option<&'h str> {
    head.lines().find_map(|l| {
        let (n, v) = l.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

#[test]
fn request_ids_round_trip_between_responses_and_the_request_log() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let server = ServerHandle::start_with_log(
        corpus(),
        config(),
        Some(Box::new(SharedBuf(Arc::clone(&log)))),
    )
    .unwrap();
    let addr = server.addr();

    // minted ids: one per request, echoed on the response
    let mut echoed = Vec::new();
    for i in 0..3 {
        let (status, head, _) = get(addr, &format!("/search?kind=unionable&k=2&table=table_{i}"));
        assert_eq!(status, 200);
        let id = header_value(&head, "X-Valentine-Request-Id")
            .expect("response carries a request id")
            .to_string();
        echoed.push(id);
    }
    // a safe client-supplied id is adopted verbatim...
    let (_, head, _) = request(
        addr,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Valentine-Request-Id: client-id-7\r\n\r\n",
    );
    assert_eq!(
        header_value(&head, "X-Valentine-Request-Id"),
        Some("client-id-7")
    );
    // ...a header-hostile one is replaced with a minted id
    let (_, head, _) = request(
        addr,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Valentine-Request-Id: has spaces\r\n\r\n",
    );
    let replaced = header_value(&head, "X-Valentine-Request-Id").unwrap();
    assert_ne!(replaced, "has spaces");
    server.shutdown();

    let text = String::from_utf8(log.lock().clone()).unwrap();
    let events: Vec<_> = text
        .lines()
        .map(|l| {
            let v = Json::parse(l).expect("request log line parses");
            assert_eq!(v.get("type").and_then(Json::as_str), Some("request"));
            jsonl::request_from(&v).expect("request event decodes")
        })
        .collect();
    assert_eq!(events.len(), 5, "one request event per request\n{text}");

    // every echoed id correlates with exactly one logged event
    for id in echoed.iter().chain([&"client-id-7".to_string()]) {
        let matching: Vec<_> = events.iter().filter(|e| &e.id == id).collect();
        assert_eq!(matching.len(), 1, "id {id} must match exactly one event");
    }
    let searches: Vec<_> = events.iter().filter(|e| e.endpoint == "search").collect();
    assert_eq!(searches.len(), 3);
    for e in searches {
        assert_eq!(e.status, 200);
        assert_eq!(e.cache, "miss");
        assert!(e.elapsed_ns > 0);
        assert!(
            e.snapshot.spans.contains_key("serve/queue_wait"),
            "per-request snapshot reconstructs queue wait: {:?}",
            e.snapshot.spans.keys().collect::<Vec<_>>()
        );
        assert!(
            e.snapshot.spans.contains_key("serve/search"),
            "{:?}",
            e.snapshot.spans.keys().collect::<Vec<_>>()
        );
    }
}

#[test]
fn exemplars_capture_deadline_exceeded_and_slow_requests() {
    let server = ServerHandle::start(corpus(), config()).unwrap();
    let addr = server.addr();

    let (status, head, _) = get(
        addr,
        "/search?kind=unionable&k=3&table=table_0&method=coma&deadline_ms=0",
    );
    assert_eq!(status, 504);
    let timed_out = header_value(&head, "X-Valentine-Request-Id")
        .unwrap()
        .to_string();
    let (status, _, _) = get(addr, "/search?kind=unionable&k=3&table=table_1&method=jl");
    assert_eq!(status, 200);

    let (status, _, body) = get(addr, "/debug/exemplars");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("exemplars body is JSON");
    let errored = doc.get("errored").and_then(Json::as_arr).unwrap();
    assert_eq!(errored.len(), 1, "{body}");
    assert_eq!(
        errored[0].get("id").and_then(Json::as_str),
        Some(timed_out.as_str()),
        "the 504 exemplar carries the id the client saw"
    );
    assert_eq!(
        errored[0].get("deadline_exceeded").and_then(Json::as_bool),
        Some(true)
    );
    let slowest = doc.get("slowest").and_then(Json::as_arr).unwrap();
    assert_eq!(slowest.len(), 1, "the 200 search is resident: {body}");
    server.shutdown();
}

#[test]
fn metrics_render_prometheus_on_request_and_flat_by_default() {
    let server = ServerHandle::start(corpus(), config()).unwrap();
    let addr = server.addr();
    let (status, _, _) = get(addr, "/search?kind=unionable&k=2&table=table_0&method=jl");
    assert_eq!(status, 200);

    let (status, head, body) = get(addr, "/metrics?format=prometheus");
    assert_eq!(status, 200);
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    assert!(
        body.contains("valentine_counter_total{name=\"serve/requests\"} 1"),
        "{body}"
    );
    assert!(
        body.contains("valentine_hist_bucket{name=\"serve/search_ns\",le=\"+Inf\"} 1"),
        "{body}"
    );
    assert!(body.contains("# TYPE valentine_hist histogram"), "{body}");

    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        body.contains("serve/requests "),
        "default format stays flat: {body}"
    );

    let (status, _, body) = get(addr, "/metrics?format=csv");
    assert_eq!(status, 400, "{body}");
    server.shutdown();
}
