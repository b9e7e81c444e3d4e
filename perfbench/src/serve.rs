//! `serve-mixed`: interactive curation against a running server.
//!
//! A `ServerHandle` (2 pool threads, 2 connection workers) serves a
//! 60-table v2 index from a child process of its own, so the server's
//! memory is measured apart from the generator and the oracle. One
//! generator thread drives it with at most two connections. A run has
//! three steps:
//!
//! 1. Reads at the reference rate, open-loop: requests arrive on a
//!    seeded, paced schedule (jittered fixed gaps) and each is timed from
//!    when it was due, so a stall also charges the requests queued behind
//!    it. The mix: fresh POSTed CSV queries (cache misses, re-ranked with
//!    `coma-instance`), repeats of earlier queries (cache hits), and
//!    sketch-only unionable and joinable lookups by table name.
//! 2. Writes every [`WRITE_EVERY_S`], with no reads in flight:
//!    `IndexWriter::append` of a two-table generation plus one
//!    `v2::remove_table`, then `POST /admin/reload`, then a probe until
//!    the added table answers. Reads do not overlap the reloads: a search
//!    in flight across a reload stores its old-snapshot answer in the
//!    freshly cleared cache (a server defect, see `perfbench/METRICS.md`).
//!    So this step cannot show that defect, and the latency of reads
//!    during a reload is not measured.
//! 3. Capacity, closed-loop: both connections are kept busy with the
//!    same seeded request mix until the window closes or the fresh query
//!    pool runs out.
//!
//! The whole workload, generator and server processes alike, runs pinned
//! to one core (`main` pins it before anything starts). On two cores, a
//! request's latency followed how the shared host placed the guest's two
//! cores: cache hits took about 0.65 ms while the two shared a physical
//! core and about 0.90 ms while they did not, in phases that flip every
//! few seconds. On one core a hand-off between the generator and the
//! server is a wake-up on the same core, and the figures held within a
//! few percent. So `throughput_per_s` here is the capacity of one core.
//!
//! Oracle: every 200 body must rank exactly what a direct `top_k_*` call
//! ranks on an in-memory index of the same snapshot; after each add and
//! reload the added table must be found and the tombstoned table never
//! returned.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use valentine_core::index::v2::{self, IndexWriter, DEFAULT_SHARDS};
use valentine_core::index::{Index, IndexConfig, LoadedIndex, SearchOptions, SearchOutcome};
use valentine_core::matchers::MatcherKind;
use valentine_core::obs::json::Json;
use valentine_core::obs::jsonl;
use valentine_core::table::{csv, Table};
use valentine_serve::http::Request;
use valentine_serve::{metrics, ServeConfig, ServerHandle};

use crate::stats::{describe, median, tail, Tail};
use crate::util::{fabricate_lake, peak_rss_mb, secs, via_csv, LakeQuery, LakeTable, Rng, WorkDir};
use crate::{trace, Args, Outcome};

/// First argument of the server's child process.
pub const CHILD_FLAG: &str = "--serve-child";

/// The served lake holds one source: every fresh query then costs about
/// the same to re-rank, so the latency percentiles describe one
/// distribution rather than where a median falls between three
/// (`lake-cold` covers all three sources).
const SERVE_SOURCES: [&str; 1] = ["chembl"];
const BASES: usize = 12;
const VARIANTS: usize = 5;
/// Fresh queries per base beyond the lake's own counterparts, so the
/// fresh pool outlasts the reference step and most of the capacity step.
/// A fresh query is sent at most once, so it always misses the cache.
const EXTRA_QUERIES: usize = 50;
/// Lake tables held back as the first writes' tombstone victims; never
/// queried by name. Later writes remove a table an earlier write added.
const RESERVED: usize = 20;
const ADD_PER_WRITE: usize = 2;
/// Writes a session makes, all in the write step; that step runs past
/// its window until the last one is visible.
const WRITES: usize = 30;
/// Write cadence of the write step.
const WRITE_EVERY_S: f64 = 0.08;
/// Fresh queries (the first of the pool, each with its counterpart in
/// the lake) whose answers make up `quality` and
/// `hit_rate`; every run answers them.
const QUALITY_FRESH: usize = 60;
/// Queries at the end of the fresh pool that warm each server process
/// before it is measured; runs never send them.
const WARM_QUERIES: usize = 20;
/// Repeats re-issue one of this many most recent fresh queries.
const REPEAT_WINDOW: usize = 4;
const K: usize = 5;
const CAP: usize = 5;
/// Offered rate of the reference step, requests per second.
const REF_RATE: f64 = 40.0;
/// Share of the run the reference step takes.
const READ_SHARE: f64 = 0.7;
/// Equal windows of the reference step whose tails are taken one by one.
const TAIL_WINDOWS: usize = 3;
/// In the open-loop step the generator's two connections (the benchmark
/// machine has 2 cores) are two lanes, like two independent users: lane 0
/// sends the fresh re-ranked queries, lane 1 everything else. A cheap
/// lookup then never queues behind an expensive re-rank on the client
/// side.
const LANES: usize = 2;

fn lane(class: Class) -> usize {
    match class {
        Class::Fresh => 0,
        _ => 1,
    }
}
/// A request unanswered after this long counts as a connection failure.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);

/// What a request asks for, in terms the oracle can replay.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Query {
    /// POST of fresh-pool query `i` as CSV, re-ranked.
    Post(usize),
    /// Sketch-only unionable search for an indexed table by name.
    Union(String),
    /// Sketch-only joinable search for a named table's column.
    Join(String, String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Fresh,
    Repeat,
    Sketch,
    Join,
    Reload,
    Probe,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Fresh => "fresh",
            Class::Repeat => "repeat",
            Class::Sketch => "sketch",
            Class::Join => "join",
            Class::Reload => "reload",
            Class::Probe => "probe",
        }
    }
}

#[derive(Debug, Clone)]
struct Planned {
    due_s: f64,
    class: Class,
    query: Option<Query>,
}

/// The workload's inputs for one seed.
struct Inputs {
    tables: Vec<LakeTable>,
    /// Name of the table each write removes, in write order.
    victims: Vec<String>,
    /// Indices into `tables` that by-name lookups may use.
    named: Vec<usize>,
    /// Fresh queries, in the order they are first sent, with CSV bodies.
    fresh: Vec<(LakeQuery, String)>,
    /// Tables added by the writes, `ADD_PER_WRITE` per write.
    adds: Vec<LakeTable>,
}

fn build_inputs(seed: u64) -> Inputs {
    let (mut tables, queries) =
        fabricate_lake(seed, &SERVE_SOURCES, BASES, VARIANTS, EXTRA_QUERIES);
    for t in &mut tables {
        t.table = via_csv(&t.table);
    }
    let mut rng = Rng::new(seed ^ 0x5e4e);
    let mut order: Vec<usize> = (0..tables.len()).collect();
    rng.shuffle(&mut order);
    let named = order[RESERVED..].to_vec();
    // Fresh queries interleave the sources, each source's own order
    // shuffled, so every run sends the same source mix. The queries whose
    // counterpart is in the lake come first.
    let per_source = queries.len() / SERVE_SOURCES.len();
    let mut by_source: Vec<Vec<LakeQuery>> = queries
        .chunks(per_source)
        .map(|c| {
            let mut c = c.to_vec();
            rng.shuffle(&mut c);
            // `pop` takes from the back: extras first in, counterparts last.
            c.sort_by_key(|q| q.counterpart.is_some());
            c
        })
        .collect();
    let mut fresh = Vec::with_capacity(queries.len());
    for _ in 0..per_source {
        for source in &mut by_source {
            let q = source.pop().expect("equal share per source");
            let body = csv::serialize(&q.table);
            fresh.push((q, body));
        }
    }
    // The writes' tables: more splits of the lake's first bases, under
    // their own names (their origin is their base, like any sibling).
    let (extra, _) = fabricate_lake(
        seed ^ 0xadd,
        &SERVE_SOURCES,
        4,
        WRITES * ADD_PER_WRITE / 4,
        0,
    );
    let adds = extra
        .into_iter()
        .take(WRITES * ADD_PER_WRITE)
        .enumerate()
        .map(|(i, mut t)| {
            t.name = format!("added/{i:02}");
            t.table = via_csv(&t.table);
            t.table.set_name(t.name.clone());
            t
        })
        .collect::<Vec<LakeTable>>();
    // Each write removes a reserved table, or once those are gone the
    // second table of the write `RESERVED` before it (the first is the
    // one its probe looks for).
    let victims = (0..WRITES)
        .map(|j| match j.checked_sub(RESERVED) {
            None => tables[order[j]].name.clone(),
            Some(earlier) => adds[earlier * ADD_PER_WRITE + 1].name.clone(),
        })
        .collect();
    Inputs {
        tables,
        victims,
        named,
        fresh,
        adds,
    }
}

/// Request classes of one cycle of the mix: 9 fresh, 6 repeats, 3
/// sketch-only and 2 joinable lookups in every 20 requests. Each cycle is
/// shuffled, so a run's class counts never depend on the seed.
const MIX: [(Class, usize); 4] = [
    (Class::Fresh, 9),
    (Class::Repeat, 6),
    (Class::Sketch, 3),
    (Class::Join, 2),
];

/// Fresh-pool queries a run may send: all but the warm-up queries.
fn sendable(inputs: &Inputs) -> usize {
    inputs.fresh.len() - WARM_QUERIES
}

/// The seeded request sequence of one step: up to `n` requests, cycling
/// through [`MIX`], ending early when the fresh pool runs out.
/// `fresh_next` carries the pool's cursor across steps.
fn mix_sequence(inputs: &Inputs, rng: &mut Rng, n: usize, fresh_next: &mut usize) -> Vec<Planned> {
    let mut out = Vec::new();
    let mut cycle: Vec<Class> = Vec::new();
    while out.len() < n {
        if cycle.is_empty() {
            cycle = MIX
                .iter()
                .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
                .collect();
            rng.shuffle(&mut cycle);
        }
        let class = match cycle.pop().expect("refilled above") {
            Class::Repeat if *fresh_next == 0 => Class::Fresh,
            c => c,
        };
        let query = match class {
            Class::Fresh => {
                if *fresh_next == sendable(inputs) {
                    break;
                }
                *fresh_next += 1;
                Query::Post(*fresh_next - 1)
            }
            Class::Repeat => {
                // A user re-issuing one of the last few queries.
                let recent = (*fresh_next).min(REPEAT_WINDOW);
                Query::Post(*fresh_next - 1 - rng.below(recent))
            }
            Class::Sketch => {
                let t = &inputs.tables[inputs.named[rng.below(inputs.named.len())]];
                Query::Union(t.name.clone())
            }
            _ => {
                let t = &inputs.tables[inputs.named[rng.below(inputs.named.len())]];
                let column = t.table.columns()[rng.below(t.table.width())]
                    .name()
                    .to_string();
                Query::Join(t.name.clone(), column)
            }
        };
        out.push(Planned {
            due_s: 0.0,
            class,
            query: Some(query),
        });
    }
    out
}

/// Paces a sequence at `rate` from `offset_s`: request `i` is due at
/// `offset_s + (i + 0.5 + jitter)/rate`, the jitter uniform in ±0.4 of a
/// gap.
fn paced(mut plan: Vec<Planned>, rng: &mut Rng, rate: f64, offset_s: f64) -> Vec<Planned> {
    for (i, p) in plan.iter_mut().enumerate() {
        p.due_s = offset_s + (i as f64 + 0.5 + 0.8 * (rng.unit() - 0.5)) / rate;
    }
    plan
}

fn encode(component: &str) -> String {
    component
        .bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' => (b as char).to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// The bytes of one request.
fn request_bytes(inputs: &Inputs, class: Class, query: Option<&Query>, id: &str) -> Vec<u8> {
    let (method, target, body) = match (class, query) {
        (Class::Reload, _) => ("POST", "/admin/reload".to_string(), String::new()),
        (_, Some(Query::Post(i))) => (
            "POST",
            format!("/search?kind=unionable&k={K}&cap={CAP}&method=coma-instance"),
            inputs.fresh[*i].1.clone(),
        ),
        (_, Some(Query::Union(name))) => (
            "GET",
            format!(
                "/search?kind=unionable&k={K}&cap={CAP}&method=none&table={}",
                encode(name)
            ),
            String::new(),
        ),
        (_, Some(Query::Join(name, column))) => (
            "GET",
            format!(
                "/search?kind=joinable&k={K}&cap={CAP}&method=none&table={}&column={}",
                encode(name),
                encode(column)
            ),
            String::new(),
        ),
        (_, None) => unreachable!("searches carry a query"),
    };
    let mut bytes = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nX-Valentine-Request-Id: {id}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// One finished request.
#[derive(Debug, Clone)]
struct Done {
    id: String,
    class: Class,
    query: Option<Query>,
    step: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    /// 0 for a connection error or timeout.
    status: u16,
    cache: String,
    body: String,
    epoch_sent: usize,
    epoch_done: usize,
    /// The write a reload or probe belongs to.
    write: Option<usize>,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e3
    }

    /// Fresh re-ranked queries: cache misses by construction, a third
    /// from each source.
    fn heavy(&self) -> bool {
        self.class == Class::Fresh
    }

    /// Searches answered from the cache: repeats, and lookups of a table
    /// already looked up. Sketch-only and joinable lookups that miss are
    /// neither heavy nor light (their latencies are in the report).
    fn light(&self) -> bool {
        self.class != Class::Probe && self.cache == "hit"
    }
}

/// A request sent and not yet answered.
struct InFlight {
    id: String,
    class: Class,
    query: Option<Query>,
    step: usize,
    due: Instant,
    sent: Instant,
    epoch_sent: usize,
    write: Option<usize>,
}

fn parse_response(buf: &[u8]) -> (u16, String, String) {
    let text = String::from_utf8_lossy(buf);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return (0, String::new(), String::new());
    };
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let cache = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("X-Valentine-Cache"))
        .map_or_else(String::new, |(_, v)| v.trim().to_string());
    (status, cache, body.to_string())
}

/// Result of one disk write, reported by the writer thread.
struct WriteDone {
    write: usize,
    add_ms: f64,
    remove_ms: f64,
    error: Option<String>,
}

/// Everything a measured session hands back.
struct Session {
    done: Vec<Done>,
    lags_ms: Vec<f64>,
    add_ms: Vec<f64>,
    remove_ms: Vec<f64>,
    /// Seconds from the start of each write until its probe found the
    /// added table.
    visible_s: Vec<f64>,
    writes_failed: u64,
    /// Probes that answered 200 without the table their write added.
    probe_misses: u64,
    /// Per step: (completions inside the step window, seconds the step
    /// ran, requests left unsent when its window closed).
    steps: Vec<(usize, f64, usize)>,
    /// What the server process reported when it stopped.
    server: ServerStats,
    /// The server's request log (traced sessions).
    log: Vec<u8>,
}

/// The server process's own figures, read when it stops.
#[derive(Default)]
struct ServerStats {
    /// Peak RSS of the server process (`VmHWM`), MB.
    rss_mb: f64,
    /// Peak live heap of the server process, MB.
    heap_mb: f64,
    sheds: u64,
}

fn serve_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        pool_threads: 2,
        accept_threads: 2,
        default_deadline: Some(Duration::from_secs(10)),
        default_k: K,
        default_rerank: Some(MatcherKind::ComaInstance),
        candidate_cap: CAP,
        index_path: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// The server's child process: loads the index at `<dir>`, serves it,
/// prints `{"addr":…}`, and on end of standard input drains and prints
/// its figures. Arguments: `<index dir> <request log path or ->`.
pub fn child_main(argv: &[String]) -> ExitCode {
    match serve_child(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench serve child: {e}");
            ExitCode::from(1)
        }
    }
}

fn serve_child(argv: &[String]) -> Result<(), String> {
    crate::heap::start();
    let [dir, log] = argv else {
        return Err(format!("expected 2 arguments, got {}", argv.len()));
    };
    let dir = Path::new(dir);
    let index = LoadedIndex::load(dir).map_err(|e| e.to_string())?;
    let log = match log.as_str() {
        "-" => None,
        path => Some(
            Box::new(std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?)
                as Box<dyn Write + Send>,
        ),
    };
    let server = ServerHandle::start_with_log(index, serve_config(dir), log)
        .map_err(|e| format!("starting server: {e}"))?;
    let mut out = std::io::stdout().lock();
    let say = |out: &mut std::io::StdoutLock, j: Json| {
        writeln!(out, "{}", j.render()).and_then(|()| out.flush())
    };
    let addr = Json::Obj(vec![(
        "addr".to_string(),
        Json::Str(server.addr().to_string()),
    )]);
    say(&mut out, addr).map_err(|e| e.to_string())?;
    // Serve until the parent closes standard input (or exits).
    let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
    let snapshot = server.shutdown();
    let heap_mb = crate::heap::peak_mb();
    let stats = Json::Obj(vec![
        ("rss_mb".to_string(), Json::Float(peak_rss_mb())),
        ("heap_mb".to_string(), Json::Float(heap_mb)),
        (
            "sheds".to_string(),
            Json::UInt(snapshot.counter(metrics::SHEDS)),
        ),
    ]);
    say(&mut out, stats).map_err(|e| e.to_string())
}

/// Writes the initial index (one generation) to `dir`.
fn write_index(inputs: &Inputs, dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let err = |e: valentine_core::index::IndexError| e.to_string();
    let mut writer =
        IndexWriter::create(dir, IndexConfig::default(), DEFAULT_SHARDS).map_err(err)?;
    let batch = inputs
        .tables
        .iter()
        .map(|t| (t.origin.clone(), t.table.clone()))
        .collect();
    writer.add_batch(batch, 2).map_err(err)?;
    writer.finish().map_err(err)
}

/// A server running in a child process. Dropping it kills the process
/// if it has not stopped, and always waits for it.
struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServerProc {
    /// Writes the initial index and starts a server process on it.
    fn start(inputs: &Inputs, dir: &Path, log: Option<&Path>) -> Result<ServerProc, String> {
        write_index(inputs, dir)?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg(CHILD_FLAG)
            .arg(dir)
            .arg(log.unwrap_or(Path::new("-")))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning server child: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("child stdout is piped"));
        let mut server = ServerProc {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let hello = server.line()?;
        server.addr = hello
            .get("addr")
            .and_then(Json::as_str)
            .and_then(|a| a.parse().ok())
            .ok_or("server child printed no address")?;
        Ok(server)
    }

    fn line(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server child exited early".to_string()),
            Ok(_) => {
                Json::parse(line.trim()).map_err(|e| format!("server child line `{line}`: {e}"))
            }
            Err(e) => Err(e.to_string()),
        }
    }

    /// Sends the warm-up queries, one at a time. The matchers memoise name
    /// similarities process-wide, so a server that has been up for a while
    /// answers from a warm memo; the first requests of a fresh process
    /// would otherwise pay for filling it.
    fn warm(&self, inputs: &Inputs) -> Result<(), String> {
        for i in sendable(inputs)..inputs.fresh.len() {
            let bytes = request_bytes(
                inputs,
                Class::Fresh,
                Some(&Query::Post(i)),
                &format!("w{i}"),
            );
            let mut buf = Vec::new();
            TcpStream::connect(self.addr)
                .and_then(|mut s| {
                    s.set_read_timeout(Some(REQUEST_TIMEOUT))?;
                    s.write_all(&bytes)?;
                    s.read_to_end(&mut buf)
                })
                .map_err(|e| format!("warm-up query {i}: {e}"))?;
            let (status, _, _) = parse_response(&buf);
            if status != 200 {
                return Err(format!("warm-up query {i} answered {status}"));
            }
        }
        Ok(())
    }

    /// Drains the server, waits for its process and reads its figures.
    fn stop(mut self) -> Result<ServerStats, String> {
        drop(self.stdin.take());
        let stats = self.line();
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let stats = stats?;
        if !status.success() {
            return Err(format!("server child failed ({status})"));
        }
        Ok(ServerStats {
            rss_mb: stats.get("rss_mb").and_then(Json::as_f64).unwrap_or(0.0),
            heap_mb: stats.get("heap_mb").and_then(Json::as_f64).unwrap_or(0.0),
            sheds: stats.get("sheds").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Applies write `j` to the index directory.
fn write_generation(dir: &Path, inputs: &Inputs, j: usize) -> WriteDone {
    let run = || -> Result<(f64, f64), String> {
        let err = |e: valentine_core::index::IndexError| e.to_string();
        let t = Instant::now();
        let mut writer = IndexWriter::append(dir).map_err(err)?;
        let batch = inputs.adds[j * ADD_PER_WRITE..(j + 1) * ADD_PER_WRITE]
            .iter()
            .map(|t| (t.origin.clone(), t.table.clone()))
            .collect();
        writer.add_batch(batch, 1).map_err(err)?;
        writer.finish().map_err(err)?;
        let add_ms = secs(t) * 1e3;
        let t = Instant::now();
        let victim = &inputs.victims[j];
        v2::remove_table(dir, victim)
            .map_err(err)?
            .ok_or_else(|| format!("victim {victim} not live"))?;
        Ok((add_ms, secs(t) * 1e3))
    };
    match run() {
        Ok((add_ms, remove_ms)) => WriteDone {
            write: j,
            add_ms,
            remove_ms,
            error: None,
        },
        Err(e) => WriteDone {
            write: j,
            add_ms: 0.0,
            remove_ms: 0.0,
            error: Some(e),
        },
    }
}

/// What one step of a session sends.
enum Load {
    /// Requests due on a paced schedule, each lane's in order.
    Open(Vec<Planned>),
    /// A request sequence, each sent as soon as a connection is free. A
    /// repeat waits until the query it repeats has been answered.
    Closed(Vec<Planned>),
    /// [`WRITES`] writes at this cadence (seconds) and nothing else; the
    /// step lasts until the last one is visible.
    Writes(f64),
}

/// One step of a session and when its window closes (seconds from the
/// session start).
struct Step {
    load: Load,
    end_s: f64,
}

/// Runs the steps against `server`, then stops it.
fn drive(
    inputs: &Inputs,
    dir: &Path,
    server: ServerProc,
    steps: Vec<Step>,
    log: Option<&Path>,
) -> Result<Session, String> {
    let (job_tx, job_rx) = mpsc::channel::<usize>();
    let (event_tx, event_rx) = mpsc::channel::<Event>();
    let result = {
        let dir = dir.to_path_buf();
        // Scoped: the writer and the readers are joined when it ends.
        std::thread::scope(|scope| -> Result<Session, String> {
            let writes = event_tx.clone();
            let writer = scope.spawn(move || {
                for j in job_rx {
                    if writes
                        .send(Event::Write(write_generation(&dir, inputs, j)))
                        .is_err()
                    {
                        break;
                    }
                }
            });
            let mut readers = Vec::with_capacity(LANES);
            let mut handles = Vec::with_capacity(LANES);
            for slot in 0..LANES {
                let (tx, rx) = mpsc::channel::<TcpStream>();
                let events = event_tx.clone();
                readers.push(tx);
                handles.push(scope.spawn(move || read_responses(slot, rx, events)));
            }
            drop(event_tx);
            let mut generator = Generator::new(inputs, server.addr, readers, event_rx);
            let run = steps
                .into_iter()
                .enumerate()
                .try_for_each(|(i, step)| generator.step(i, step, &job_tx));
            drop(job_tx);
            // Closing the readers' channels lets them end.
            let Generator {
                session, readers, ..
            } = generator;
            drop(readers);
            let session = run.map(|()| session);
            let joined = handles
                .into_iter()
                .chain([writer])
                .all(|h| h.join().is_ok());
            if !joined {
                return Err("a writer or reader thread panicked".to_string());
            }
            session
        })
    };
    // Stop the server before looking at the outcome, so no server process
    // outlives a failed session.
    let stats = server.stop();
    let mut session = result?;
    session.server = stats?;
    if let Some(path) = log {
        session.log = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(session)
}

/// What the generator thread waits for.
enum Event {
    /// A connection was read to its end (or failed, or timed out) at
    /// `done`.
    Response {
        slot: usize,
        buf: Vec<u8>,
        done: Instant,
    },
    /// A disk write finished.
    Write(WriteDone),
}

/// One connection slot's reader: blocks on each response until the
/// server closes the connection, and stamps when it did.
fn read_responses(slot: usize, streams: mpsc::Receiver<TcpStream>, events: mpsc::Sender<Event>) {
    for mut stream in streams {
        let mut buf = Vec::new();
        // An error or the timeout leaves a partial answer: status 0.
        let _ = stream
            .set_read_timeout(Some(REQUEST_TIMEOUT))
            .and_then(|()| stream.read_to_end(&mut buf));
        let done = Instant::now();
        if events.send(Event::Response { slot, buf, done }).is_err() {
            break;
        }
    }
}

/// The generator: one thread that schedules, sends and accounts; each of
/// its [`LANES`] connection slots has a reader thread that waits for the
/// answer, so the generator itself never polls.
struct Generator<'a> {
    inputs: &'a Inputs,
    addr: SocketAddr,
    t0: Instant,
    seq: u64,
    /// Reloads answered so far, and reloads sent so far: a request may be
    /// served by any snapshot from the first count at its send to the
    /// second at its completion (a reload in flight can swap the index
    /// before its own response arrives).
    epoch: usize,
    reloads_sent: usize,
    writes_started: usize,
    /// The request open on each connection slot.
    inflight: [Option<InFlight>; LANES],
    readers: Vec<mpsc::Sender<TcpStream>>,
    events: mpsc::Receiver<Event>,
    session: Session,
}

impl<'a> Generator<'a> {
    fn new(
        inputs: &'a Inputs,
        addr: SocketAddr,
        readers: Vec<mpsc::Sender<TcpStream>>,
        events: mpsc::Receiver<Event>,
    ) -> Generator<'a> {
        Generator {
            inputs,
            addr,
            t0: Instant::now(),
            seq: 0,
            epoch: 0,
            reloads_sent: 0,
            writes_started: 0,
            inflight: Default::default(),
            readers,
            events,
            session: Session {
                done: Vec::new(),
                lags_ms: Vec::new(),
                add_ms: Vec::new(),
                remove_ms: Vec::new(),
                visible_s: Vec::new(),
                writes_failed: 0,
                probe_misses: 0,
                steps: Vec::new(),
                server: ServerStats::default(),
                log: Vec::new(),
            },
        }
    }

    fn at(&self, s: f64) -> Instant {
        self.t0 + Duration::from_secs_f64(s)
    }

    /// Sends one request on connection slot `slot` and hands the
    /// connection to its reader; a connection error is recorded as a
    /// finished request with status 0.
    fn send(
        &mut self,
        slot: usize,
        step: usize,
        class: Class,
        query: Option<Query>,
        write: Option<usize>,
        due: Instant,
    ) {
        self.seq += 1;
        let id = format!("g{}", self.seq);
        let bytes = request_bytes(self.inputs, class, query.as_ref(), &id);
        if class == Class::Reload {
            self.reloads_sent += 1;
        }
        let sent = Instant::now();
        let stream = TcpStream::connect(self.addr).and_then(|mut s| {
            s.write_all(&bytes)?;
            Ok(s)
        });
        let reader = &self.readers[slot];
        match stream
            .map_err(|_| ())
            .and_then(|s| reader.send(s).map_err(|_| ()))
        {
            Ok(()) => {
                self.inflight[slot] = Some(InFlight {
                    id,
                    class,
                    query,
                    step,
                    due,
                    sent,
                    epoch_sent: self.epoch,
                    write,
                })
            }
            Err(()) => self.session.done.push(Done {
                id,
                class,
                query,
                step,
                due,
                sent,
                done: Instant::now(),
                status: 0,
                cache: String::new(),
                body: String::new(),
                epoch_sent: self.epoch,
                epoch_done: self.reloads_sent,
                write,
            }),
        }
    }

    /// Records the answer read on `slot`.
    fn finish(&mut self, slot: usize, buf: &[u8], done: Instant) -> Result<(), String> {
        let f = self.inflight[slot]
            .take()
            .ok_or("an answer arrived on an idle connection")?;
        let (status, cache, body) = parse_response(buf);
        self.session.done.push(Done {
            id: f.id,
            class: f.class,
            query: f.query,
            step: f.step,
            due: f.due,
            sent: f.sent,
            done,
            status,
            cache,
            body,
            epoch_sent: f.epoch_sent,
            epoch_done: self.reloads_sent,
            write: f.write,
        });
        Ok(())
    }

    /// Runs one step until its window closes and nothing it started is
    /// outstanding.
    fn step(&mut self, index: usize, step: Step, jobs: &mpsc::Sender<usize>) -> Result<(), String> {
        let began = Instant::now();
        let window_end = self.at(step.end_s);
        let (mut pending, closed_loop, write_times): (VecDeque<Planned>, bool, Vec<f64>) =
            match step.load {
                Load::Open(plan) => (plan.into(), false, Vec::new()),
                Load::Closed(plan) => (plan.into(), true, Vec::new()),
                Load::Writes(gap) => {
                    let start = began.duration_since(self.t0).as_secs_f64();
                    let times = (1..=WRITES).map(|i| start + i as f64 * gap).collect();
                    (VecDeque::new(), false, times)
                }
            };
        let mut backlog: [VecDeque<Planned>; LANES] = Default::default();
        let mut priority: VecDeque<(Class, Option<Query>, usize)> = VecDeque::new();
        let mut next_write = 0usize;
        let mut write_busy: Option<Instant> = None;
        let (mut completed, mut unsent) = (0usize, 0usize);
        let mut closed = false;
        let mut last_done = began;
        loop {
            let now = Instant::now();
            if !closed && now >= window_end {
                closed = true;
                unsent = backlog.iter().map(VecDeque::len).sum::<usize>() + pending.len();
                backlog.iter_mut().for_each(VecDeque::clear);
                pending.clear();
            }
            if !closed_loop {
                // Arrivals: due requests join their lane's backlog; how
                // late the generator noticed is its lag.
                while pending.front().is_some_and(|p| self.at(p.due_s) <= now) {
                    let p = pending.pop_front().expect("front exists");
                    let lag = now.duration_since(self.at(p.due_s));
                    self.session.lags_ms.push(lag.as_secs_f64() * 1e3);
                    backlog[lane(p.class)].push_back(p);
                }
            }
            if write_busy.is_none()
                && next_write < write_times.len()
                && self.at(write_times[next_write]) <= now
            {
                jobs.send(self.writes_started)
                    .map_err(|_| "writer thread gone".to_string())?;
                write_busy = Some(now);
                self.writes_started += 1;
                next_write += 1;
            }
            if closed_loop {
                while let Some(slot) = self.inflight.iter().position(Option::is_none) {
                    let Some(p) = pending.front() else { break };
                    let target_open = p.class == Class::Repeat
                        && self.inflight.iter().flatten().any(|f| f.query == p.query);
                    if target_open {
                        break;
                    }
                    let p = pending.pop_front().expect("front exists");
                    self.send(slot, index, p.class, p.query, None, Instant::now());
                }
            } else {
                // Fill idle lanes; control requests go first on lane 1.
                for (l, queue) in backlog.iter_mut().enumerate() {
                    if self.inflight[l].is_some() {
                        continue;
                    }
                    if l == lane(Class::Reload) {
                        if let Some((class, query, write)) = priority.pop_front() {
                            self.send(l, index, class, query, Some(write), Instant::now());
                            continue;
                        }
                    }
                    if let Some(p) = queue.pop_front() {
                        let due = self.at(p.due_s);
                        self.send(l, index, p.class, p.query, None, due);
                    }
                }
            }
            let idle = pending.is_empty()
                && backlog.iter().all(VecDeque::is_empty)
                && priority.is_empty()
                && self.inflight.iter().all(Option::is_none)
                && write_busy.is_none()
                && next_write >= write_times.len();
            if idle && (closed || closed_loop || now >= window_end) {
                break;
            }
            // Wait for an answer or a finished write, or until the next
            // arrival, write or the window's end is due.
            let mut wake = now + Duration::from_millis(50);
            if let Some(p) = pending.front().filter(|_| !closed_loop) {
                wake = wake.min(self.at(p.due_s));
            }
            if write_busy.is_none() && next_write < write_times.len() {
                wake = wake.min(self.at(write_times[next_write]));
            }
            if !closed {
                wake = wake.min(window_end);
            }
            let first = match self
                .events
                .recv_timeout(wake.saturating_duration_since(Instant::now()))
            {
                Ok(e) => Some(e),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("reader and writer threads gone".to_string())
                }
            };
            let events: Vec<Event> = first.into_iter().chain(self.events.try_iter()).collect();
            for event in events {
                let (slot, buf, done) = match event {
                    Event::Write(w) => {
                        match w.error {
                            None => {
                                self.session.add_ms.push(w.add_ms);
                                self.session.remove_ms.push(w.remove_ms);
                                priority.push_back((Class::Reload, None, w.write));
                            }
                            Some(e) => {
                                eprintln!("serve-mixed: write {} failed: {e}", w.write);
                                self.session.writes_failed += 1;
                                write_busy = None;
                            }
                        }
                        continue;
                    }
                    Event::Response { slot, buf, done } => (slot, buf, done),
                };
                self.finish(slot, &buf, done)?;
                let d = self.session.done.last().expect("just recorded");
                if d.done <= window_end {
                    completed += 1;
                    last_done = last_done.max(d.done);
                }
                match (d.class, d.status, d.write) {
                    (Class::Reload, 200, Some(j)) => {
                        self.epoch += 1;
                        let probe = Query::Union(self.inputs.adds[j * ADD_PER_WRITE].name.clone());
                        priority.push_back((Class::Probe, Some(probe), j));
                    }
                    (Class::Reload, _, _) => write_busy = None,
                    (Class::Probe, status, Some(j)) => {
                        if let Some(started) = write_busy.take() {
                            let added = &self.inputs.adds[j * ADD_PER_WRITE].name;
                            if status == 200 && d.body.contains(&format!("\"table\":\"{added}\"")) {
                                let visible = d.done.duration_since(started).as_secs_f64();
                                self.session.visible_s.push(visible);
                            } else if status == 200 {
                                eprintln!(
                                    "oracle: probe {} did not return added table {added}",
                                    d.id
                                );
                                self.session.probe_misses += 1;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        // A closed-loop step that ran out of queries before its window
        // closed ran until its last answer.
        let ran = if closed_loop && unsent == 0 {
            last_done.duration_since(began)
        } else {
            window_end.saturating_duration_since(began)
        };
        self.session
            .steps
            .push((completed, ran.as_secs_f64(), unsent));
        Ok(())
    }
}

/// The search results array of a server body.
fn results_of(body: &str) -> Option<String> {
    Json::parse(body.trim())
        .ok()
        .and_then(|j| j.get("results").map(Json::render))
}

/// The results array the server would render for `outcome`.
fn render_results(outcome: &SearchOutcome) -> String {
    Json::Arr(
        outcome
            .results
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("table".to_string(), Json::Str(r.table_name.clone())),
                    ("source".to_string(), Json::Str(r.source.clone())),
                    (
                        "column".to_string(),
                        r.column.clone().map_or(Json::Null, Json::Str),
                    ),
                    ("score".to_string(), Json::Float(r.score)),
                    ("sketch_score".to_string(), Json::Float(r.sketch_score)),
                ])
            })
            .collect(),
    )
    .render()
}

/// In-memory index of epoch `e`: the initial tables, then the first `e`
/// writes' tables, in manifest order, less the first `e` victims.
fn epoch_index(inputs: &Inputs, e: usize) -> LoadedIndex {
    let dead: HashSet<&str> = inputs.victims[..e].iter().map(String::as_str).collect();
    let batch: Vec<(String, Table)> = inputs
        .tables
        .iter()
        .chain(&inputs.adds[..e * ADD_PER_WRITE])
        .filter(|t| !dead.contains(t.name.as_str()))
        .map(|t| (t.origin.clone(), t.table.clone()))
        .collect();
    let mut index = Index::new(IndexConfig::default());
    index.ingest_batch(batch, 2);
    LoadedIndex::from(index)
}

/// What a direct call on `index` answers for `query`; `None` when the
/// named table is not in this snapshot.
fn direct(index: &LoadedIndex, inputs: &Inputs, query: &Query) -> Option<String> {
    let sketch = SearchOptions {
        rerank: None,
        candidate_cap: CAP,
        threads: 1,
    };
    let outcome = match query {
        Query::Post(i) => {
            let table = csv::parse("query", &inputs.fresh[*i].1).ok()?;
            let opts = SearchOptions {
                rerank: Some(MatcherKind::ComaInstance),
                ..sketch
            };
            index.top_k_unionable(&table, K, &opts)
        }
        Query::Union(name) => index.top_k_unionable(&index.table_by_name(name)?.table, K, &sketch),
        Query::Join(name, column) => {
            let t = &index.table_by_name(name)?.table;
            index.top_k_joinable(t.column(column)?, K, &sketch)
        }
    };
    Some(render_results(&outcome))
}

/// Checks every 200 search body against direct calls on the snapshots it
/// could have been served from. Returns the number of mismatches.
///
/// Snapshot indexes are built one at a time: each answers every query it
/// is a candidate for, then is dropped.
fn oracle(inputs: &Inputs, session: &Session) -> u64 {
    let mut bad = 0;
    let mut checked: Vec<(&Done, &Query, String)> = Vec::new();
    for d in &session.done {
        let Some(query) = &d.query else { continue };
        if d.status != 200 {
            continue;
        }
        match results_of(&d.body) {
            Some(got) => checked.push((d, query, got)),
            None => {
                bad += 1;
                eprintln!(
                    "oracle: {} ({}) 200 without a results array",
                    d.id,
                    d.class.name()
                );
            }
        }
    }
    let last = checked.iter().map(|c| c.0.epoch_done).max().unwrap_or(0);
    // Direct answers of snapshot `e` for the queries `wanted(d, e)` picks.
    let answers = |wanted: &dyn Fn(&Done, usize) -> bool, to: usize| {
        let mut out: HashMap<(Query, usize), Option<String>> = HashMap::new();
        for e in 0..=to {
            let queries: HashSet<&Query> = checked
                .iter()
                .filter(|c| wanted(c.0, e))
                .map(|c| c.1)
                .collect();
            if queries.is_empty() {
                continue;
            }
            let index = epoch_index(inputs, e);
            for q in queries {
                out.insert((q.clone(), e), direct(&index, inputs, q));
            }
        }
        out
    };
    let want = answers(&|d, e| d.epoch_sent <= e && e <= d.epoch_done, last);
    let mut failed = Vec::new();
    for (d, query, got) in &checked {
        // A tombstoned table must never come back once its reload landed.
        let gone = inputs.victims[..d.epoch_sent]
            .iter()
            .find(|n| got.contains(&format!("\"table\":\"{n}\"")));
        let matched = (d.epoch_sent..=d.epoch_done)
            .any(|e| want[&((*query).clone(), e)].as_deref() == Some(got.as_str()));
        if !matched || gone.is_some() {
            failed.push((*d, *query, got, gone));
        }
    }
    if failed.is_empty() {
        return bad;
    }
    // Name the likely cause when an answer is an older snapshot's.
    let ids: HashSet<&str> = failed.iter().map(|f| f.0.id.as_str()).collect();
    let older = answers(
        &|d, e| ids.contains(d.id.as_str()) && e < d.epoch_sent,
        last,
    );
    for (d, query, got, gone) in failed {
        bad += 1;
        let stale = (0..d.epoch_sent)
            .rev()
            .find(|&e| older[&(query.clone(), e)].as_deref() == Some(got.as_str()));
        eprintln!(
            "oracle: {} ({}, cache {}) epochs {}..={}: body ranks {got}, direct call differs{}{}",
            d.id,
            d.class.name(),
            d.cache,
            d.epoch_sent,
            d.epoch_done,
            gone.map_or(String::new(), |n| format!("; returned tombstoned {n}")),
            stale.map_or(String::new(), |e| format!(
                "; the body is snapshot {e}'s answer"
            ))
        );
    }
    bad
}

/// A session on a freshly written index and a fresh server process,
/// warmed before it is measured: reads at the reference rate, the write
/// step, and (plain runs) the capacity step. `log` makes the server
/// write its request log there.
fn session(
    inputs: &Inputs,
    work: &WorkDir,
    args: &Args,
    saturate: bool,
    log: Option<&Path>,
) -> Result<Session, String> {
    let dir = work.path().join("serve");
    let server = ServerProc::start(inputs, &dir, log)?;
    server.warm(inputs)?;
    let mut rng = Rng::new(args.seed ^ 0x5c4e);
    let mut fresh_next = 0;
    let seconds = args.seconds;
    let read_s = seconds * READ_SHARE;
    let reads_end = read_s + seconds * 0.15;
    let reads = mix_sequence(
        inputs,
        &mut rng,
        (read_s * REF_RATE) as usize,
        &mut fresh_next,
    );
    let mut steps = vec![
        Step {
            load: Load::Open(paced(reads, &mut rng, REF_RATE, 0.0)),
            end_s: read_s,
        },
        Step {
            load: Load::Writes(WRITE_EVERY_S),
            end_s: reads_end,
        },
    ];
    if saturate {
        steps.push(Step {
            load: Load::Closed(mix_sequence(inputs, &mut rng, usize::MAX, &mut fresh_next)),
            end_s: seconds,
        });
    }
    drive(inputs, &dir, server, steps, log)
}

/// Median of three set-ups: write the index, start a server process on
/// it and warm it.
fn setup(inputs: &Inputs, work: &WorkDir) -> Result<f64, String> {
    let mut setups = Vec::new();
    for rep in 0..3 {
        let dir = work.path().join(format!("setup{rep}"));
        let t = Instant::now();
        let server = ServerProc::start(inputs, &dir, None)?;
        server.warm(inputs)?;
        setups.push(secs(t));
        server.stop()?;
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(median(&setups))
}

/// Failure accounting: every search, reload and probe is attempted; a
/// non-200 answer or a connection error fails.
fn account(out: &mut Outcome, session: &Session) {
    out.attempted += session.done.len() as u64 + session.writes_failed;
    out.failed +=
        session.done.iter().filter(|d| d.status != 200).count() as u64 + session.writes_failed;
}

/// Runs `serve-mixed`.
pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let t = Instant::now();
    let inputs = build_inputs(args.seed);
    let build_s = secs(t);
    let setup_s = setup(&inputs, work)?;
    let mut out = Outcome::default();
    // Set-up: fabricating the inputs once, plus the median of three
    // index-write + server-start + warm-up cycles.
    out.set("setup_s", build_s + setup_s);
    out.note(format!(
        "lake: {} tables ({RESERVED} reserved as victims), {} fresh queries ({} sendable); k={K} cap={CAP}; {WRITES} writes, every {WRITE_EVERY_S} s in their own step, no reads in flight",
        inputs.tables.len(),
        inputs.fresh.len(),
        sendable(&inputs),
    ));
    if args.trace {
        return traced(args, &inputs, work, out);
    }
    crate::speed::sample();
    let s = session(&inputs, work, args, true, None)?;
    account(&mut out, &s);
    let mismatches = oracle(&inputs, &s) + s.probe_misses;
    out.mismatches += mismatches;
    out.failed += mismatches;

    let step0: Vec<&Done> = s.done.iter().filter(|d| d.step == 0).collect();
    // Window of the reference step each request was due in.
    let first_due = step0.iter().map(|d| d.due).min();
    let window_s = args.seconds * READ_SHARE / TAIL_WINDOWS as f64;
    let window = |d: &Done| {
        let since = first_due.map_or(0.0, |f| d.due.duration_since(f).as_secs_f64());
        ((since / window_s) as usize).min(TAIL_WINDOWS - 1)
    };
    let searches = |heavy: bool, w: Option<usize>| -> Vec<f64> {
        step0
            .iter()
            .filter(|d| if heavy { d.heavy() } else { d.light() })
            .filter(|d| w.is_none_or(|w| window(d) == w))
            .map(|d| {
                if d.status == 200 {
                    d.latency_ms()
                } else {
                    // A failed request misses any latency limit.
                    f64::INFINITY
                }
            })
            .collect()
    };
    let (heavy, light) = (searches(true, None), searches(false, None));
    // Tails within each window, and their median: a burst of interference
    // from the shared machine then moves one window's tail, not the
    // figure.
    let window_tails = |heavy: bool| -> Vec<Tail> {
        (0..TAIL_WINDOWS)
            .map(|w| tail(&searches(heavy, Some(w))))
            .collect()
    };
    let (heavy_tails, light_tails) = (window_tails(true), window_tails(false));
    let tail_of = |tails: &[Tail]| median(&tails.iter().map(|t| t.value).collect::<Vec<f64>>());
    let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
    let (sat_done, sat_s, sat_unsent) = *s.steps.last().expect("a capacity step ran");
    let capacity = sat_done as f64 / sat_s;
    let (ref_done, ref_s, ref_unsent) = s.steps[0];

    // Retrieval quality of the first QUALITY_FRESH fresh queries (a third
    // from each source), from their oracle-checked answers.
    let mut seen = std::collections::HashSet::new();
    let (mut precision, mut hits, mut with_counterpart) = (0.0, 0usize, 0usize);
    for d in &s.done {
        let Some(Query::Post(i)) = d.query else {
            continue;
        };
        if d.status != 200 || i >= QUALITY_FRESH || !seen.insert(i) {
            continue;
        }
        let q = &inputs.fresh[i].0;
        let body = Json::parse(d.body.trim()).unwrap_or(Json::Null);
        let results = body.get("results").and_then(Json::as_arr).unwrap_or(&[]);
        let same = results
            .iter()
            .filter(|r| r.get("source").and_then(Json::as_str) == Some(q.origin.as_str()))
            .count();
        precision += same as f64 / K as f64;
        if let Some(counterpart) = &q.counterpart {
            with_counterpart += 1;
            hits += results
                .iter()
                .any(|r| r.get("table").and_then(Json::as_str) == Some(counterpart.as_str()))
                as usize;
        }
    }
    let distinct = seen.len().max(1);

    out.note(format!(
        "reference step: offered {REF_RATE} req/s for {ref_s:.1} s, {ref_done} completed in window, {ref_unsent} unsent at window end; {} writes visible",
        s.visible_s.len()
    ));
    out.note(describe(
        "serve miss (fresh re-ranked) = heavy (serve_tail_ms)",
        &heavy,
        "ms",
    ));
    out.note(describe(
        "serve cache hits = light (serve_p50_ms)",
        &light,
        "ms",
    ));
    for (name, tails) in [("heavy", &heavy_tails), ("light", &light_tails)] {
        let parts: Vec<String> = tails
            .iter()
            .map(|t| format!("p{:.1} {:.3} ms of {}", t.percentile, t.value, t.samples))
            .collect();
        out.note(format!(
            "{name}_tail_ms = median of the tails of {TAIL_WINDOWS} windows of the reference step: {}",
            parts.join("; ")
        ));
    }
    let lookups: Vec<f64> = step0
        .iter()
        .filter(|d| matches!(d.class, Class::Sketch | Class::Join) && d.cache != "hit")
        .map(|d| d.latency_ms())
        .collect();
    out.note(describe(
        "sketch-only and joinable lookups that missed (not gated)",
        &lookups,
        "ms",
    ));
    out.note(format!(
        "serve_capacity_qps = throughput_per_s: {capacity:.2} completions/s, closed loop on {LANES} connections with the reference mix, over {sat_s:.2} s ({sat_unsent} requests of the sequence not reached; fresh pool used {} of {})",
        s.done.iter().filter(|d| d.class == Class::Fresh).count(),
        sendable(&inputs)
    ));
    out.note(format!(
        "add_visible_s = cold_s: median {:.4} s over {} writes (append + remove + reload + probe)",
        median(&s.visible_s),
        s.visible_s.len()
    ));
    out.note(describe("add_visible_s per write", &s.visible_s, "s"));
    out.note(format!(
        "of which: append p50 {:.2} ms, remove p50 {:.2} ms",
        median(&s.add_ms),
        median(&s.remove_ms)
    ));
    out.note(format!(
        "server process: peak live heap {:.2} MB, VmHWM {:.2} MB",
        s.server.heap_mb, s.server.rss_mb
    ));
    out.note(format!(
        "quality (precision@{K}) over {distinct} distinct fresh queries; hit_rate: {hits} of {with_counterpart} counterparts found"
    ));
    out.note(format!(
        "generator lag: p50 {:.3} ms, max {:.3} ms over {} arrivals",
        median(&s.lags_ms),
        s.lags_ms.iter().copied().fold(0.0, f64::max),
        s.lags_ms.len()
    ));
    if !finite(&heavy) || !finite(&light) {
        out.note("failed requests count as infinitely late in the latency samples");
    }
    let clamp = |x: f64| {
        if x.is_finite() {
            x
        } else {
            REQUEST_TIMEOUT.as_secs_f64() * 1e3
        }
    };
    out.set("throughput_per_s", capacity);
    out.set("heavy_p50_ms", clamp(median(&heavy)));
    out.set("heavy_tail_ms", clamp(tail_of(&heavy_tails)));
    out.set("light_p50_ms", clamp(median(&light)));
    out.set("light_tail_ms", clamp(tail_of(&light_tails)));
    out.set("cold_s", median(&s.visible_s));
    out.set("peak_mem_mb", s.server.heap_mb);
    out.set("quality", precision / distinct as f64);
    out.set("hit_rate", hits as f64 / with_counterpart.max(1) as f64);
    Ok(out)
}

fn traced(
    args: &Args,
    inputs: &Inputs,
    work: &WorkDir,
    mut out: Outcome,
) -> Result<Outcome, String> {
    // Two sessions over the same reference-rate schedule, each in a fresh
    // warmed server process: the traced one, whose server writes its
    // request log, and a plain one to compare it with.
    let log = work.path().join("requests.jsonl");
    let traced = session(inputs, work, args, false, Some(&log))?;
    let plain = session(inputs, work, args, false, None)?;
    trace::set_enabled(true);
    for s in [&traced, &plain] {
        account(&mut out, s);
        let m = oracle(inputs, s) + s.probe_misses;
        out.mismatches += m;
        out.failed += m;
    }
    let mean_latency = |s: &Session| {
        let v: Vec<f64> = s
            .done
            .iter()
            .filter(|d| d.status == 200)
            .map(Done::latency_ms)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let base = mean_latency(&plain);
    out.set(
        "obs.trace_overhead_share",
        (mean_latency(&traced) - base) / base,
    );

    // Per-request server data from the request log, matched by id.
    let events: HashMap<String, jsonl::RequestEvent> = String::from_utf8_lossy(&traced.log)
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|j| jsonl::request_from(&j).ok())
        .map(|e| (e.id.clone(), e))
        .collect();
    let (mut waits, mut search, mut reloads) = (Vec::new(), Vec::new(), Vec::new());
    let (mut calls, mut admits) = (Vec::new(), Vec::new());
    let mut matcher_ns = 0u64;
    for d in &traced.done {
        // Live tables of the snapshot: each write adds two and tombstones one.
        let corpus = (inputs.tables.len() + d.epoch_sent * (ADD_PER_WRITE - 1)) as f64;
        let root = trace::synth(
            "bench/request",
            None,
            trace::ns_of(d.due),
            d.done.duration_since(d.due).as_nanos() as u64,
            Some(d.id.clone()),
        );
        let http = trace::synth(
            "serve/http",
            root,
            trace::ns_of(d.sent),
            d.done.duration_since(d.sent).as_nanos() as u64,
            Some(d.id.clone()),
        );
        let Some(e) = events.get(&d.id) else { continue };
        if e.endpoint == "reload" {
            reloads.push(e.elapsed_ns as f64 / 1e9);
        }
        if e.cache != "miss" {
            continue;
        }
        let search_ns = e
            .snapshot
            .spans
            .get("serve/search")
            .map_or(0, |s| s.total_ns);
        let call_ns = e
            .snapshot
            .hists
            .get("index/matcher_call_ns")
            .map_or(0, |h| h.sum());
        waits.push(e.queue_wait_ns as f64 / 1e6);
        search.push(search_ns as f64 / 1e6);
        matcher_ns += call_ns;
        if matches!(d.query, Some(Query::Post(_))) {
            calls.push(e.snapshot.counter("index/matcher_calls") as f64);
        }
        if matches!(d.query, Some(Query::Post(_) | Query::Union(_))) {
            admits.push(e.snapshot.counter("index/lsh_candidates") as f64 / corpus);
        }
        // The server's handling interval ends when the response was read;
        // queue wait, then the search, then the matcher calls inside it.
        let handled = trace::ns_of(d.done).saturating_sub(e.elapsed_ns);
        trace::synth(
            "serve/queue_wait",
            http,
            handled,
            e.queue_wait_ns,
            Some(d.id.clone()),
        );
        let s = trace::synth(
            "index/search",
            http,
            handled + e.queue_wait_ns,
            search_ns,
            Some(d.id.clone()),
        );
        trace::synth(
            "matchers/coma-instance",
            s,
            handled + e.queue_wait_ns,
            call_ns.min(search_ns),
            Some(d.id.clone()),
        );
    }
    trace::set_enabled(false);
    let spans = trace::take();
    let path = trace::trace_path("serve-mixed", args.seed);
    trace::write_jsonl(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.note(format!(
        "trace: {} spans, {} request-log events -> {}",
        spans.len(),
        events.len(),
        path.display()
    ));
    trace::report_self_times(&mut out, &trace::self_times(&spans));

    // HTTP parsing of the generator's own request bytes, off the clock of
    // the session.
    let sample: Vec<Vec<u8>> = traced
        .done
        .iter()
        .take(64)
        .map(|d| request_bytes(inputs, d.class, d.query.as_ref(), &d.id))
        .collect();
    let mut parse_us = Vec::new();
    for bytes in &sample {
        let t = Instant::now();
        for _ in 0..50 {
            let mut reader = &bytes[..];
            std::hint::black_box(Request::read(&mut reader).map_err(|(s, m)| format!("{s} {m}"))?);
        }
        parse_us.push(secs(t) * 1e6 / 50.0);
    }

    // Hit ratio of the measured searches, from the server's cache header
    // (the process's own counters also hold the warm-up).
    let hits = traced.done.iter().filter(|d| d.cache == "hit").count() as f64;
    let misses = traced.done.iter().filter(|d| d.cache == "miss").count() as f64;
    out.set("serve.queue_wait_p50_ms", median(&waits));
    out.set("serve.queue_wait_tail_ms", tail(&waits).value);
    out.set("serve.search_p50_ms", median(&search));
    out.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    out.set("serve.reload_s", median(&reloads));
    out.set("serve.http_parse_us", median(&parse_us));
    out.set("serve.sheds", traced.server.sheds as f64);
    out.set(
        "serve.deadline_504s",
        traced.done.iter().filter(|d| d.status == 504).count() as f64,
    );
    out.set("serve.generator_lag_ms", tail(&traced.lags_ms).value);
    out.set("index.add_ms", median(&traced.add_ms));
    out.set("index.remove_ms", median(&traced.remove_ms));
    out.set(
        "index.lsh_admit_ratio",
        admits.iter().sum::<f64>() / admits.len().max(1) as f64,
    );
    out.set(
        "index.matcher_calls_per_query",
        calls.iter().sum::<f64>() / calls.len().max(1) as f64,
    );
    out.set("matchers.coma-instance.grid_s", matcher_ns as f64 / 1e9);
    out.note(describe("serve/queue_wait (misses)", &waits, "ms"));
    out.note(describe("serve/search (misses)", &search, "ms"));
    Ok(out)
}
