//! `lake-cold`: the CLI `index search` user.
//!
//! Set-up fabricates a lake of 600 tables, writes it as a v2 index in two
//! generations (588 tables, then an `add` of 12) and tombstones one table,
//! so opening it merges generations and applies a tombstone. It also builds
//! an in-memory `Index` from the same tables: the oracle.
//!
//! Each run then starts fresh child processes one after another. Every
//! child opens the index cold (`LoadedIndex::load`) and runs a fixed,
//! seeded stream of queries — re-ranked unionable (`coma-instance`),
//! sketch-only unionable and joinable — picking up where the previous
//! child stopped. The page cache stays warm: `cold_s` here is parse and
//! build cost, not disk.
//!
//! Oracle: every answer from a cold-opened index must equal the in-memory
//! index's answer for the same query (names, scores, sketch scores and
//! columns, bit for bit).

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use valentine_core::index::profile::profile_table;
use valentine_core::index::v2::{self, IndexWriter, DEFAULT_SHARDS};
use valentine_core::index::{
    ColumnProfile, Index, IndexConfig, LoadedIndex, SearchOptions, SearchOutcome,
};
use valentine_core::matchers::MatcherKind;
use valentine_core::obs::json::Json;
use valentine_core::table::{csv, Table};

use crate::stats::{describe, median, tail};
use crate::util::{
    fabricate_lake, peak_rss_mb, secs, via_csv, LakeQuery, LakeTable, Rng, WorkDir, SOURCES,
};
use crate::{trace, Args, Outcome};

/// First argument of a child process.
pub const CHILD_FLAG: &str = "--lake-child";

const BASES: usize = 40;
const VARIANTS: usize = 5;
/// Tables written by the `add` generation.
const ADDED: usize = 12;
/// Queries of each kind per source in one round of the stream. A round
/// is balanced across sources and kinds; children stop only at round
/// boundaries, so every run measures whole rounds.
const ROUND_MIX: [(Kind, usize); 3] = [(Kind::Union, 1), (Kind::Sketch, 5), (Kind::Join, 1)];
const ROUND_LEN: usize = 21;
const ROUNDS: usize = 20;
/// Distinct re-ranked queries per source; the stream cycles through them
/// (a user re-running a search pays the full cost again in a fresh
/// process), which keeps the oracle's re-rank replay affordable.
const UNION_DISTINCT: usize = 12;
/// Rounds each child of the traced run answers.
const TRACE_ROUNDS: usize = 4;
/// Results per query; also the re-rank shortlist (the cap is raised to
/// `k` anyway), and each lake base has exactly this many tables.
const K: usize = 5;
/// Cold opens (child processes) per run.
const CHILDREN: usize = 6;
/// Ingest threads (the benchmark machine has two cores).
const THREADS: usize = 2;
/// Re-rank threads of a query: one, as in a serve pool worker. A query's
/// five re-rank calls split unevenly over two threads, so its time would
/// follow neither the host's one-thread nor its two-thread speed.
const SEARCH_THREADS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Union,
    Sketch,
    Join,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Union => "union",
            Kind::Sketch => "sketch",
            Kind::Join => "join",
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "union" => Kind::Union,
            "sketch" => Kind::Sketch,
            "join" => Kind::Join,
            _ => return None,
        })
    }

    fn options(self) -> SearchOptions {
        SearchOptions {
            rerank: (self == Kind::Union).then_some(MatcherKind::ComaInstance),
            candidate_cap: K,
            threads: SEARCH_THREADS,
        }
    }
}

/// One entry of the query stream.
#[derive(Debug, Clone)]
struct Entry {
    kind: Kind,
    /// Query CSV file index.
    query: usize,
    /// Join column (joinable queries).
    column: String,
}

struct Lake {
    dir: PathBuf,
    reference: LoadedIndex,
    add_ms: f64,
    remove_ms: f64,
}

/// Writes the two-generation index with one tombstone and builds the
/// in-memory oracle over the surviving tables.
fn build_lake(dir: &Path, tables: &[LakeTable], victim: usize) -> Result<Lake, String> {
    let _ = std::fs::remove_dir_all(dir);
    let err = |e: valentine_core::index::IndexError| e.to_string();
    let batch = |range: std::ops::Range<usize>| -> Vec<(String, Table)> {
        tables[range]
            .iter()
            .map(|t| (t.origin.clone(), t.table.clone()))
            .collect()
    };
    let first = tables.len() - ADDED;
    let mut writer =
        IndexWriter::create(dir, IndexConfig::default(), DEFAULT_SHARDS).map_err(err)?;
    writer.add_batch(batch(0..first), THREADS).map_err(err)?;
    writer.finish().map_err(err)?;
    let t = Instant::now();
    let mut writer = IndexWriter::append(dir).map_err(err)?;
    writer
        .add_batch(batch(first..tables.len()), THREADS)
        .map_err(err)?;
    writer.finish().map_err(err)?;
    let add_ms = secs(t) * 1e3;
    let t = Instant::now();
    let removed = v2::remove_table(dir, &tables[victim].name).map_err(err)?;
    let remove_ms = secs(t) * 1e3;
    if removed.is_none() {
        return Err(format!(
            "tombstone target {} not found",
            tables[victim].name
        ));
    }
    let live: Vec<(String, Table)> = tables
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .map(|(_, t)| (t.origin.clone(), t.table.clone()))
        .collect();
    let mut index = Index::new(IndexConfig::default());
    index.ingest_batch(live, THREADS);
    Ok(Lake {
        dir: dir.to_path_buf(),
        reference: LoadedIndex::from(index),
        add_ms,
        remove_ms,
    })
}

/// Renders an outcome's ranking: name, score, sketch score, column.
fn ranking(outcome: &SearchOutcome) -> Json {
    Json::Arr(
        outcome
            .results
            .iter()
            .map(|r| {
                Json::Arr(vec![
                    Json::Str(r.table_name.clone()),
                    Json::Float(r.score),
                    Json::Float(r.sketch_score),
                    r.column.clone().map_or(Json::Null, Json::Str),
                ])
            })
            .collect(),
    )
}

fn run_query(index: &Index, entry: &Entry, query: &Table) -> Result<SearchOutcome, String> {
    Ok(match entry.kind {
        Kind::Union | Kind::Sketch => index.top_k_unionable(query, K, &entry.kind.options()),
        Kind::Join => {
            let column = query
                .column(&entry.column)
                .ok_or_else(|| format!("query has no column {}", entry.column))?;
            index.top_k_joinable(column, K, &entry.kind.options())
        }
    })
}

fn read_plan(path: &Path) -> Result<(Vec<Entry>, Vec<Table>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let dir = path.parent().unwrap_or(Path::new("."));
    let mut entries = Vec::new();
    let mut files = BTreeSet::new();
    for line in text.lines() {
        let mut f = line.split('\t');
        let (Some(kind), Some(query), Some(column)) = (f.next(), f.next(), f.next()) else {
            return Err(format!("bad plan line `{line}`"));
        };
        let kind = Kind::parse(kind).ok_or_else(|| format!("bad kind `{kind}`"))?;
        let query: usize = query.parse().map_err(|_| format!("bad query `{query}`"))?;
        files.insert(query);
        entries.push(Entry {
            kind,
            query,
            column: column.to_string(),
        });
    }
    let mut tables = Vec::new();
    for i in 0..files.len() {
        let p = dir.join(format!("q{i}.csv"));
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        tables.push(csv::parse(format!("q{i}"), &text).map_err(|e| e.to_string())?);
    }
    Ok((entries, tables))
}

/// A child: open the index cold, run the stream from `start` for
/// `budget` seconds (or exactly `count` entries), print one JSON line per
/// query plus a header and a footer.
///
/// Arguments: `<index dir> <plan file> <start> <budget s> <count or 0>
/// <trace 0|1> <trace jsonl path>`.
pub fn child_main(argv: &[String]) -> ExitCode {
    match child(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench lake child: {e}");
            ExitCode::from(1)
        }
    }
}

fn child(argv: &[String]) -> Result<(), String> {
    let [dir, plan, start, budget, count, traced, trace_out] = argv else {
        return Err(format!("expected 7 arguments, got {}", argv.len()));
    };
    let parse = |s: &str| s.parse::<f64>().map_err(|e| format!("`{s}`: {e}"));
    let (start, budget, count) = (
        parse(start)? as usize,
        parse(budget)?,
        parse(count)? as usize,
    );
    let traced = traced == "1";
    let (entries, queries) = read_plan(Path::new(plan))?;
    let dir = Path::new(dir);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut emit = |j: Json| -> Result<(), String> {
        writeln!(out, "{}", j.render()).map_err(|e| e.to_string())
    };

    trace::set_enabled(traced);
    let root = trace::span("bench/lake_child");
    let wall = Instant::now();
    let mut probe_s = 0.0;

    // Open: the same calls `LoadedIndex::load` makes on a v2 directory
    // (`v2::load_dir`, then the handle), with the traced run timing the
    // stage on its own.
    let t = Instant::now();
    let mut header = Vec::new();
    let index = if traced {
        let open = trace::span("index/open");
        let s = Instant::now();
        let span = trace::span("index/load_dir");
        let index = v2::load_dir(dir).map_err(|e| e.to_string())?;
        drop(span);
        header.push(("load_dir_s".to_string(), Json::Float(secs(s))));
        let loaded = LoadedIndex::from(index);
        drop(open);
        loaded
    } else {
        LoadedIndex::load(dir).map_err(|e| e.to_string())?
    };
    let open_s = secs(t);
    header.push(("open_s".to_string(), Json::Float(open_s)));
    header.push(("open_rss_mb".to_string(), Json::Float(peak_rss_mb())));
    header.push(("tables".to_string(), Json::UInt(index.len() as u64)));
    if traced {
        // Off-path probes: the open does not call `v2::dir_info` or
        // `v2::map_segments` today. They are timed after it, kept out of
        // `wall_s` and out of the self times.
        let s = Instant::now();
        let span = trace::span(format!("{}index/dir_info", trace::PROBE));
        v2::dir_info(dir).map_err(|e| e.to_string())?;
        drop(span);
        header.push(("manifest_ms".to_string(), Json::Float(secs(s) * 1e3)));
        probe_s += secs(s);
        let s = Instant::now();
        let span = trace::span(format!("{}index/map_segments", trace::PROBE));
        let segments = v2::map_segments(dir).map_err(|e| e.to_string())?;
        drop(span);
        header.push(("map_segments_ms".to_string(), Json::Float(secs(s) * 1e3)));
        header.push(("segments".to_string(), Json::UInt(segments.len() as u64)));
        drop(segments);
        probe_s += secs(s);
    }
    emit(Json::Obj(header))?;

    let queries_start = Instant::now();
    let mut done = 0usize;
    loop {
        let finished = if count > 0 {
            done == count
        } else {
            done > 0 && (start + done).is_multiple_of(ROUND_LEN) && secs(queries_start) >= budget
        };
        if finished {
            break;
        }
        let pos = (start + done) % entries.len();
        let entry = &entries[pos];
        let query = &queries[entry.query];
        let mut fields = vec![
            ("pos".to_string(), Json::UInt(pos as u64)),
            ("kind".to_string(), Json::Str(entry.kind.name().to_string())),
        ];
        let q = trace::span("bench/query");
        if traced {
            // Probe calls into the layers below the search, timed
            // separately from it and excluded from the overhead share and
            // the self times.
            let s = Instant::now();
            let span = trace::span(format!("{}index/profile_table", trace::PROBE));
            match entry.kind {
                Kind::Join => {
                    let column = query.column(&entry.column).ok_or("join column missing")?;
                    std::hint::black_box(ColumnProfile::build(0, 0, column, index.hasher()));
                }
                _ => {
                    std::hint::black_box(profile_table(0, query, index.hasher()));
                }
            }
            drop(span);
            fields.push(("profile_ms".to_string(), Json::Float(secs(s) * 1e3)));
            probe_s += secs(s);
            if entry.kind != Kind::Join {
                let s = Instant::now();
                let span = trace::span(format!("{}index/candidate_tables", trace::PROBE));
                std::hint::black_box(index.candidate_tables(query));
                drop(span);
                fields.push(("candidates_ms".to_string(), Json::Float(secs(s) * 1e3)));
                probe_s += secs(s);
            }
        }
        let name = match entry.kind {
            Kind::Join => "index/top_k_joinable",
            _ => "index/top_k_unionable",
        };
        let span = trace::span(name);
        let span_id = span.id();
        let t = Instant::now();
        let outcome = run_query(&index, entry, query)?;
        let ms = secs(t) * 1e3;
        drop(span);
        if let (Some(candidates_ms), Kind::Union) = (
            fields
                .iter()
                .find(|f| f.0 == "candidates_ms")
                .and_then(|f| f.1.as_f64()),
            entry.kind,
        ) {
            // The re-rank stage is the search minus its candidate stage:
            // the matcher's share, laid at the end of the search span.
            let rerank_ns = ((ms - candidates_ms).max(0.0) * 1e6) as u64;
            let end = trace::ns_of(t) + (ms * 1e6) as u64;
            trace::synth(
                "matchers/coma-instance",
                span_id,
                end - rerank_ns,
                rerank_ns,
                None,
            );
        }
        drop(q);
        fields.push(("ms".to_string(), Json::Float(ms)));
        fields.push((
            "calls".to_string(),
            Json::UInt(outcome.stats.matcher_calls as u64),
        ));
        fields.push((
            "candidates".to_string(),
            Json::UInt(outcome.stats.lsh_candidates as u64),
        ));
        fields.push(("results".to_string(), ranking(&outcome)));
        emit(Json::Obj(fields))?;
        done += 1;
    }
    drop(root);
    let wall_s = secs(wall) - probe_s;
    let mut footer = vec![
        ("done".to_string(), Json::UInt(done as u64)),
        ("rss_mb".to_string(), Json::Float(peak_rss_mb())),
        ("wall_s".to_string(), Json::Float(wall_s)),
    ];
    if traced {
        let spans = trace::take();
        trace::write_jsonl(Path::new(trace_out), &spans).map_err(|e| e.to_string())?;
        let times = trace::self_times(&spans);
        footer.push((
            "self_ns".to_string(),
            Json::Obj(
                times
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::UInt(v)))
                    .collect(),
            ),
        ));
    }
    emit(Json::Obj(footer))
}

/// What the parent reads back from one child.
struct ChildRun {
    header: Json,
    lines: Vec<Json>,
    footer: Json,
}

fn spawn_child(
    lake: &Lake,
    plan: &Path,
    start: usize,
    budget: f64,
    count: usize,
    traced: Option<&Path>,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .arg(CHILD_FLAG)
        .arg(&lake.dir)
        .arg(plan)
        .arg(start.to_string())
        .arg(budget.to_string())
        .arg(count.to_string())
        .arg(if traced.is_some() { "1" } else { "0" })
        .arg(traced.unwrap_or(Path::new("-")))
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning lake child: {e}"))?;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let read = || -> Result<Vec<Json>, String> {
        let mut lines = Vec::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| e.to_string())?;
            lines.push(Json::parse(&line).map_err(|e| format!("child line `{line}`: {e}"))?);
        }
        Ok(lines)
    };
    let read = read();
    if read.is_err() {
        let _ = child.kill();
    }
    // Always reap the child, whatever its output looked like.
    let status = child.wait().map_err(|e| e.to_string())?;
    let mut lines = read?;
    if !status.success() || lines.len() < 2 {
        return Err(format!("lake child failed ({status})"));
    }
    let footer = lines.pop().expect("at least two lines");
    let header = lines.remove(0);
    Ok(ChildRun {
        header,
        lines,
        footer,
    })
}

fn f(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The lake and the stream for one seed.
struct Inputs {
    tables: Vec<LakeTable>,
    victim: usize,
    entries: Vec<Entry>,
    /// Query of each CSV file, with its origin and counterpart.
    queries: Vec<LakeQuery>,
}

fn build_inputs(seed: u64) -> Inputs {
    let (mut tables, all_queries) = fabricate_lake(seed, &SOURCES, BASES, VARIANTS, 0);
    for t in &mut tables {
        t.table = via_csv(&t.table);
    }
    let mut rng = Rng::new(seed ^ 0x1a4e);
    let victim = rng.below(tables.len() - ADDED);
    // Candidate queries per source, shuffled; the tombstoned table's query
    // is left out (its counterpart is gone).
    let per_source = all_queries.len() / SOURCES.len();
    let mut pools: Vec<std::vec::IntoIter<usize>> = (0..SOURCES.len())
        .map(|s| {
            let mut pool: Vec<usize> = (s * per_source..(s + 1) * per_source)
                .filter(|&i| i != victim)
                .collect();
            rng.shuffle(&mut pool);
            pool.into_iter()
        })
        .collect();
    let mut entries = Vec::new();
    let mut queries: Vec<LakeQuery> = Vec::new();
    let mut take = |pool: &mut std::vec::IntoIter<usize>, rng: &mut Rng, kind: Kind| {
        let q = &all_queries[pool.next().expect("enough queries per source")];
        // Named as the child names it when parsing `q<i>.csv`.
        let table = csv::parse(format!("q{}", queries.len()), &csv::serialize(&q.table))
            .expect("serialized CSV parses back");
        let column = match kind {
            Kind::Join => table.columns()[rng.below(table.width())].name().to_string(),
            _ => String::new(),
        };
        queries.push(LakeQuery { table, ..q.clone() });
        Entry {
            kind,
            query: queries.len() - 1,
            column,
        }
    };
    let unions: Vec<Vec<Entry>> = pools
        .iter_mut()
        .map(|pool| {
            (0..UNION_DISTINCT)
                .map(|_| take(pool, &mut rng, Kind::Union))
                .collect()
        })
        .collect();
    for r in 0..ROUNDS {
        let mut round = Vec::with_capacity(ROUND_LEN);
        for (s, pool) in pools.iter_mut().enumerate() {
            for (kind, n) in ROUND_MIX {
                for _ in 0..n {
                    round.push(match kind {
                        Kind::Union => unions[s][r % UNION_DISTINCT].clone(),
                        _ => take(pool, &mut rng, kind),
                    });
                }
            }
        }
        rng.shuffle(&mut round);
        entries.extend(round);
    }
    Inputs {
        tables,
        victim,
        entries,
        queries,
    }
}

fn write_plan(dir: &Path, inputs: &Inputs) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for (i, q) in inputs.queries.iter().enumerate() {
        std::fs::write(dir.join(format!("q{i}.csv")), csv::serialize(&q.table))
            .map_err(|e| e.to_string())?;
    }
    let plan: String = inputs
        .entries
        .iter()
        .map(|e| format!("{}\t{}\t{}\n", e.kind.name(), e.query, e.column))
        .collect();
    let path = dir.join("plan.tsv");
    std::fs::write(&path, plan).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Counts a child's queries as attempted and keeps its answers for the
/// oracle, keyed by stream position.
fn collect(run: &ChildRun, out: &mut Outcome, answers: &mut BTreeMap<usize, Vec<Json>>) {
    for line in &run.lines {
        let pos = line.get("pos").and_then(Json::as_u64).unwrap_or(0) as usize;
        let results = line.get("results").cloned().unwrap_or(Json::Null);
        answers.entry(pos).or_default().push(results);
        out.attempted += 1;
    }
}

/// The in-memory index's answer to every distinct (kind, query) that was
/// answered, keyed by stream-entry identity.
fn expected(
    lake: &Lake,
    inputs: &Inputs,
    answers: &BTreeMap<usize, Vec<Json>>,
) -> Result<BTreeMap<(Kind, usize), SearchOutcome>, String> {
    let mut out = BTreeMap::new();
    for pos in answers.keys() {
        let e = &inputs.entries[*pos];
        if let std::collections::btree_map::Entry::Vacant(slot) = out.entry((e.kind, e.query)) {
            slot.insert(run_query(
                &lake.reference,
                e,
                &inputs.queries[e.query].table,
            )?);
        }
    }
    Ok(out)
}

/// Compares every answered stream position against the in-memory answer.
/// Returns the number of mismatching answers.
fn oracle(
    expected: &BTreeMap<(Kind, usize), SearchOutcome>,
    inputs: &Inputs,
    answers: &BTreeMap<usize, Vec<Json>>,
) -> u64 {
    let mut bad = 0;
    for (pos, seen) in answers {
        let e = &inputs.entries[*pos];
        let want = ranking(&expected[&(e.kind, e.query)]).render();
        for got in seen {
            // Compared as rendered JSON: a parsed `1` is an integer, the
            // in-memory score the float 1.0, and both render as `1`.
            let got = got.render();
            if got != want {
                bad += 1;
                eprintln!(
                    "oracle: stream {pos} ({}) cold-opened answer {got} != in-memory {want}",
                    e.kind.name(),
                );
            }
        }
    }
    bad
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let (mut add_ms, mut remove_ms) = (Vec::new(), Vec::new());
    let mut built = None;
    for rep in 0..3 {
        let t = Instant::now();
        let inputs = build_inputs(args.seed);
        let lake = build_lake(
            &work.path().join(format!("lake{rep}")),
            &inputs.tables,
            inputs.victim,
        )?;
        setups.push(secs(t));
        add_ms.push(lake.add_ms);
        remove_ms.push(lake.remove_ms);
        if let Some((old, _)) = built.replace((lake, inputs)) {
            let _ = std::fs::remove_dir_all(&old.dir);
        }
    }
    let (lake, inputs) = built.expect("three set-ups ran");
    out.set("setup_s", median(&setups));
    let plan = write_plan(&work.path().join("queries"), &inputs)?;
    let corpus = lake.reference.len() as f64;
    out.note(format!(
        "lake: {} live tables in 2 generations + 1 tombstone; stream of {ROUNDS} rounds x {ROUND_LEN} queries (per source: {} re-ranked, {} sketch-only, {} joinable), k={K}",
        lake.reference.len(),
        ROUND_MIX[0].1,
        ROUND_MIX[1].1,
        ROUND_MIX[2].1,
    ));
    out.note("page cache warm: cold_s (open_s) measures parse and build cost, not disk");

    let mut answers: BTreeMap<usize, Vec<Json>> = BTreeMap::new();

    if args.trace {
        // One untraced and one traced child over the same first rounds.
        let n = TRACE_ROUNDS * ROUND_LEN;
        let plain = spawn_child(&lake, &plan, 0, 0.0, n, None)?;
        collect(&plain, &mut out, &mut answers);
        let trace_path = trace::trace_path("lake-cold", args.seed);
        let traced = spawn_child(&lake, &plan, 0, 0.0, n, Some(&trace_path))?;
        collect(&traced, &mut out, &mut answers);
        let mismatches = oracle(&expected(&lake, &inputs, &answers)?, &inputs, &answers);
        out.mismatches += mismatches;
        out.failed += mismatches;
        return Ok(traced_metrics(
            out,
            &plain,
            &traced,
            &inputs,
            corpus,
            &add_ms,
            &remove_ms,
            &trace_path,
        ));
    }

    let budget = args.seconds / CHILDREN as f64;
    let (mut opens, mut open_rss, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut heavy, mut light) = (Vec::new(), Vec::new());
    let (mut busy_s, mut queries) = (0.0, 0usize);
    let mut start = 0;
    for _ in 0..CHILDREN {
        let run = spawn_child(&lake, &plan, start, budget, 0, None)?;
        crate::speed::sample();
        opens.push(f(&run.header, "open_s"));
        open_rss.push(f(&run.header, "open_rss_mb"));
        rss.push(f(&run.footer, "rss_mb"));
        for line in &run.lines {
            let ms = f(line, "ms");
            busy_s += ms / 1e3;
            match line.get("kind").and_then(Json::as_str) {
                Some("union") => heavy.push(ms),
                _ => light.push(ms),
            }
        }
        queries += run.lines.len();
        start += run.lines.len();
        collect(&run, &mut out, &mut answers);
    }
    let expected = expected(&lake, &inputs, &answers)?;
    let mismatches = oracle(&expected, &inputs, &answers);
    out.mismatches += mismatches;
    out.failed += mismatches;

    // Retrieval quality of every distinct unionable query answered,
    // re-ranked or sketch-only, from the (oracle-checked) answers.
    let (mut precision, mut hits, mut n) = (0.0, 0usize, 0usize);
    for ((kind, query), outcome) in &expected {
        if *kind == Kind::Join {
            continue;
        }
        let q = &inputs.queries[*query];
        let same = outcome
            .results
            .iter()
            .filter(|r| r.source == q.origin)
            .count();
        precision += same as f64 / K as f64;
        hits += outcome
            .results
            .iter()
            .any(|r| Some(&r.table_name) == q.counterpart.as_ref()) as usize;
        n += 1;
    }

    out.note(format!(
        "open_s = cold_s: median {:.4} s over {} cold opens {:.3?}; open_rss_mb median {:.1} MB",
        median(&opens),
        opens.len(),
        opens,
        median(&open_rss)
    ));
    out.note(describe(
        "union (re-ranked coma-instance) = heavy",
        &heavy,
        "ms",
    ));
    out.note(describe(
        "light (sketch-only unionable + joinable) = light",
        &light,
        "ms",
    ));
    out.note(format!(
        "queries/s = throughput_per_s: {queries} queries in {busy_s:.3} s of query time"
    ));
    out.note(format!(
        "precision_at_k = quality, hit_rate: over {n} distinct unionable queries, {hits} counterparts found"
    ));
    out.set("throughput_per_s", queries as f64 / busy_s);
    out.set("heavy_p50_ms", median(&heavy));
    out.set("heavy_tail_ms", tail(&heavy).value);
    out.set("light_p50_ms", median(&light));
    out.set("light_tail_ms", tail(&light).value);
    out.set("cold_s", median(&opens));
    out.set("peak_mem_mb", median(&rss));
    out.set("quality", precision / n as f64);
    out.set("hit_rate", hits as f64 / n as f64);
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    mut out: Outcome,
    plain: &ChildRun,
    traced: &ChildRun,
    inputs: &Inputs,
    corpus: f64,
    add_ms: &[f64],
    remove_ms: &[f64],
    trace_path: &Path,
) -> Outcome {
    let (mut profile, mut cands, mut rerank, mut calls, mut admit) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut matcher_s = 0.0;
    for line in &traced.lines {
        profile.push(f(line, "profile_ms"));
        let kind = line.get("kind").and_then(Json::as_str).unwrap_or("");
        if kind == "join" {
            continue;
        }
        cands.push(f(line, "candidates_ms"));
        admit.push(f(line, "candidates") / corpus);
        if kind == "union" {
            let r = (f(line, "ms") - f(line, "candidates_ms")).max(0.0);
            rerank.push(r);
            matcher_s += r / 1e3;
            calls.push(f(line, "calls"));
        }
    }
    let plain_wall = f(&plain.footer, "wall_s");
    out.set(
        "obs.trace_overhead_share",
        (f(&traced.footer, "wall_s") - plain_wall) / plain_wall,
    );
    out.set("index.manifest_ms", f(&traced.header, "manifest_ms"));
    out.set("index.load_dir_s", f(&traced.header, "load_dir_s"));
    out.set(
        "index.map_segments_ms",
        f(&traced.header, "map_segments_ms"),
    );
    out.set("index.query_profile_ms", median(&profile));
    out.set("index.candidates_ms", median(&cands));
    out.set(
        "index.lsh_admit_ratio",
        admit.iter().sum::<f64>() / admit.len().max(1) as f64,
    );
    out.set("index.rerank_ms", median(&rerank));
    out.set(
        "index.matcher_calls_per_query",
        calls.iter().sum::<f64>() / calls.len().max(1) as f64,
    );
    out.set("index.add_ms", median(add_ms));
    out.set("index.remove_ms", median(remove_ms));
    out.set("matchers.coma-instance.grid_s", matcher_s);
    out.note(format!(
        "traced child: the first {} of {} stream entries; spans -> {}",
        traced.lines.len(),
        inputs.entries.len(),
        trace_path.display()
    ));
    let mut times = BTreeMap::new();
    if let Some(Json::Obj(fields)) = traced.footer.get("self_ns") {
        for layer in trace::LAYERS {
            let ns = fields
                .iter()
                .find(|(k, _)| k == layer)
                .and_then(|(_, v)| v.as_u64())
                .unwrap_or(0);
            times.insert(layer, ns);
        }
    }
    trace::report_self_times(&mut out, &times);
    out
}
