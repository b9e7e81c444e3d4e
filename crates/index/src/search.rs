//! Two-stage top-k search: LSH candidate generation, sketch ranking, and
//! matcher re-ranking.
//!
//! Stage 1 probes the LSH bands with the query's MinHash signatures and
//! scores every colliding table with the cheap [`ColumnProfile`] sketches.
//! Stage 2 re-ranks only the top `candidate_cap` survivors with a full
//! matcher from [`valentine_matchers`] — the expensive, high-precision
//! evidence. A brute-force baseline ([`Index::brute_force_unionable`])
//! runs the matcher against *every* indexed table; the whole point of the
//! index is that stage 2 issues strictly fewer matcher calls than that.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use valentine_matchers::{ColumnMatch, Matcher, MatcherKind};
use valentine_obs::Snapshot;
use valentine_table::{Column, FxHashMap, Table};

use crate::index::Index;
use crate::profile::{profile_table, ColumnProfile, QUERY_TABLE_ID};

/// Metric names the search stages record through [`valentine_obs`].
///
/// Every search runs inside [`valentine_obs::capture`], so these are always
/// recorded (capture implies enabled for the searching thread) and
/// [`SearchStats`] is just a view over the captured counters. The same
/// names show up in a `--trace` report's counters section, aggregated over
/// the whole run.
pub mod metrics {
    /// Distinct candidates surviving LSH candidate generation (counter).
    pub const LSH_CANDIDATES: &str = "index/lsh_candidates";
    /// Full matcher invocations issued (counter).
    pub const MATCHER_CALLS: &str = "index/matcher_calls";
    /// Matcher invocations that returned an error (counter).
    pub const MATCHER_ERRORS: &str = "index/matcher_errors";
    /// Matcher invocations skipped because the caller's cancel token had
    /// already fired — those candidates keep their sketch score, turning a
    /// blown deadline into a partial (sketch-ranked) shortlist instead of
    /// an ever-later answer (counter).
    pub const MATCHER_SKIPS: &str = "index/matcher_skips";
    /// Latency of individual matcher calls in the re-rank stage, in
    /// nanoseconds (histogram).
    pub const MATCHER_CALL_NS: &str = "index/matcher_call_ns";
}

/// Per-candidate re-rank outcome: matcher score, the column matches
/// backing it, and the matcher-call latency in nanoseconds (`None` when
/// the call was skipped under a fired cancel token).
type RerankSlot = (f64, Vec<ColumnMatch>, Option<u64>);

/// One shortlist entry: the candidate table, for joinable search the
/// candidate column's profile (`None` stands for the whole table), and the
/// stage-1 sketch score.
type Candidate<'a> = (u32, Option<&'a ColumnProfile>, f64);

/// Search-time options.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Matcher used for stage-2 re-ranking; `None` ranks by sketch alone.
    pub rerank: Option<MatcherKind>,
    /// How many sketch-ranked candidates survive into the matcher stage
    /// (raised to `k` when smaller).
    pub candidate_cap: usize,
    /// Worker threads for the matcher stage.
    pub threads: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            rerank: Some(MatcherKind::ComaInstance),
            candidate_cap: 10,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl SearchOptions {
    /// Sketch-only search: no matcher calls at all.
    pub fn sketch_only() -> SearchOptions {
        SearchOptions {
            rerank: None,
            ..SearchOptions::default()
        }
    }

    /// Re-rank with the given method.
    pub fn with_matcher(kind: MatcherKind) -> SearchOptions {
        SearchOptions {
            rerank: Some(kind),
            ..SearchOptions::default()
        }
    }
}

/// One scored hit.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryResult {
    /// Id of the matched table.
    pub table_id: u32,
    /// Its name.
    pub table_name: String,
    /// Its source tag.
    pub source: String,
    /// For joinable search: the candidate join column. `None` for
    /// unionable (whole-table) search.
    pub column: Option<String>,
    /// Final ranking score (matcher score after re-rank, sketch score
    /// otherwise).
    pub score: f64,
    /// The stage-1 sketch score (kept for diagnostics and tie-breaks).
    pub sketch_score: f64,
    /// Column correspondences from the re-rank matcher (empty without
    /// re-ranking or when the matcher failed).
    pub column_matches: Vec<ColumnMatch>,
}

/// Work counters for one search, the index's efficiency story in numbers.
///
/// This is a thin view over the [`metrics`] counters captured while the
/// search ran — the search stages record through [`valentine_obs`] and this
/// struct is materialised from the captured snapshot afterwards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Columns in the query.
    pub query_columns: usize,
    /// Distinct tables surviving LSH candidate generation.
    pub lsh_candidates: usize,
    /// Full matcher invocations issued (brute force issues one per indexed
    /// table).
    pub matcher_calls: usize,
    /// Matcher invocations that returned an error (those candidates fall
    /// back to their sketch score).
    pub matcher_errors: usize,
    /// Matcher invocations skipped under a fired cancel token (those
    /// candidates also fall back to their sketch score); nonzero means the
    /// ranking is a deadline-truncated partial re-rank.
    pub matcher_skips: usize,
    /// True when the index answering this search had quarantined part of
    /// its on-disk data at load time — the ranking covers survivors only.
    pub degraded: bool,
}

impl SearchStats {
    /// Materialises the view from a snapshot captured during one search.
    pub fn from_snapshot(snapshot: &Snapshot, query_columns: usize) -> SearchStats {
        SearchStats {
            query_columns,
            lsh_candidates: snapshot.counter(metrics::LSH_CANDIDATES) as usize,
            matcher_calls: snapshot.counter(metrics::MATCHER_CALLS) as usize,
            matcher_errors: snapshot.counter(metrics::MATCHER_ERRORS) as usize,
            matcher_skips: snapshot.counter(metrics::MATCHER_SKIPS) as usize,
            degraded: false,
        }
    }
}

/// Ranked results plus work counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Hits, best first.
    pub results: Vec<DiscoveryResult>,
    /// Work counters.
    pub stats: SearchStats,
}

impl Index {
    /// Stage 1 for a whole-table query: every indexed table that collides
    /// with at least one query column, with its sketch score (mean over
    /// query columns of the best column-level sketch similarity).
    /// Descending score, deterministic tie-break on table id.
    pub fn candidate_tables(&self, query: &Table) -> Vec<(u32, f64)> {
        let _lsh = valentine_obs::span!("index/lsh");
        let query_profiles = profile_table(QUERY_TABLE_ID, query, self.hasher());
        if query_profiles.is_empty() || self.is_empty() {
            return Vec::new();
        }
        // table id → best sketch similarity per query column
        let mut best: FxHashMap<u32, Vec<f64>> = FxHashMap::default();
        for (qi, qp) in query_profiles.iter().enumerate() {
            for pid in self.lsh().candidates(&qp.signature) {
                let profile = &self.profiles()[pid as usize];
                let sim = qp.sketch_similarity(profile, self.hasher());
                let slots = best
                    .entry(profile.table_id)
                    .or_insert_with(|| vec![0.0; query_profiles.len()]);
                if sim > slots[qi] {
                    slots[qi] = sim;
                }
            }
        }
        let width = query_profiles.len() as f64;
        let mut scored: Vec<(u32, f64)> = best
            .into_iter()
            .map(|(id, sims)| (id, sims.iter().sum::<f64>() / width))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored
    }

    /// Top-k unionable-table search: which indexed tables could this table
    /// be unioned with? LSH candidates are sketch-ranked, then the best
    /// `candidate_cap` are re-ranked by the configured matcher (score =
    /// mean over query columns of the best correspondence score).
    pub fn top_k_unionable(&self, query: &Table, k: usize, opts: &SearchOptions) -> SearchOutcome {
        let (results, snapshot) = valentine_obs::capture(|| {
            let candidates = self.candidate_tables(query);
            valentine_obs::counter(metrics::LSH_CANDIDATES, candidates.len() as u64);
            let shortlist: Vec<Candidate> = candidates
                .into_iter()
                .take(opts.candidate_cap.max(k))
                .map(|(id, sketch)| (id, None, sketch))
                .collect();
            self.rank_shortlist(query, &shortlist, k, opts)
        });
        let mut stats = SearchStats::from_snapshot(&snapshot, query.width());
        stats.degraded = self.is_degraded();
        SearchOutcome { results, stats }
    }

    /// Top-k joinable-column search: which indexed columns could this
    /// column join against? Candidates are individual column profiles;
    /// re-ranking runs the matcher on the single-column projections (for a
    /// one-column query the re-rank score is the best correspondence
    /// score).
    pub fn top_k_joinable(&self, column: &Column, k: usize, opts: &SearchOptions) -> SearchOutcome {
        let (results, snapshot) = valentine_obs::capture(|| {
            if self.is_empty() {
                return Vec::new();
            }
            let lsh = valentine_obs::span!("index/lsh");
            let qp = ColumnProfile::build(QUERY_TABLE_ID, 0, column, self.hasher());
            let mut scored: Vec<(u32, f64)> = self
                .lsh()
                .candidates(&qp.signature)
                .into_iter()
                .map(|pid| {
                    let sim = qp.sketch_similarity(&self.profiles()[pid as usize], self.hasher());
                    (pid, sim)
                })
                .collect();
            scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            drop(lsh);
            valentine_obs::counter(metrics::LSH_CANDIDATES, scored.len() as u64);
            let shortlist: Vec<Candidate> = scored
                .into_iter()
                .take(opts.candidate_cap.max(k))
                .map(|(pid, sketch)| {
                    let profile = &self.profiles()[pid as usize];
                    (profile.table_id, Some(profile), sketch)
                })
                .collect();
            self.rank_shortlist(&single_column_table("query", column), &shortlist, k, opts)
        });
        let mut stats = SearchStats::from_snapshot(&snapshot, 1);
        stats.degraded = self.is_degraded();
        SearchOutcome { results, stats }
    }

    /// The brute-force baseline: run the matcher against every indexed
    /// table (`matcher_calls == self.len()`), rank by the same score as the
    /// re-rank stage. This is what dataset discovery costs without an
    /// index.
    pub fn brute_force_unionable(
        &self,
        query: &Table,
        k: usize,
        kind: MatcherKind,
    ) -> SearchOutcome {
        let (results, snapshot) = valentine_obs::capture(|| {
            valentine_obs::counter(metrics::LSH_CANDIDATES, self.len() as u64);
            let everyone: Vec<Candidate> =
                self.tables().iter().map(|t| (t.id, None, 0.0)).collect();
            let opts = SearchOptions::with_matcher(kind);
            self.rank_shortlist(query, &everyone, k, &opts)
        });
        let mut stats = SearchStats::from_snapshot(&snapshot, query.width());
        stats.degraded = self.is_degraded();
        SearchOutcome { results, stats }
    }

    /// Stage 2 for either search kind: re-rank the shortlist when a matcher
    /// is configured (sketch scores stand otherwise), then order and cut
    /// to `k`.
    fn rank_shortlist(
        &self,
        query: &Table,
        shortlist: &[Candidate],
        k: usize,
        opts: &SearchOptions,
    ) -> Vec<DiscoveryResult> {
        let mut results = match opts.rerank {
            None => shortlist
                .iter()
                .map(|&(id, column, sketch)| {
                    self.result_for(id, column, sketch, sketch, Vec::new())
                })
                .collect(),
            Some(kind) => self.rerank(query, shortlist, kind, opts.threads),
        };
        rank(&mut results);
        results.truncate(k);
        results
    }

    /// Runs the matcher over the shortlist in parallel (same worker-pool
    /// shape as the experiment runner: atomic work counter, scoped
    /// threads, mutex-collected slots — results land in shortlist order,
    /// independent of scheduling). Workers tally errors and per-call
    /// latency into the slots; the calling thread emits the obs metrics
    /// after the scope joins, so they land in the enclosing capture frame.
    /// A whole-table candidate is matched as indexed; a column candidate is
    /// matched as its single-column projection. Either way the score is
    /// [`mean_best_per_query_column`].
    ///
    /// Each worker re-installs the caller's cancel token *and* request id
    /// (both are thread-locals that do not follow work across threads) and
    /// records its matcher spans into a detached capture; after the join,
    /// the merged worker snapshots are replayed into the caller's frame
    /// under `index/rerank`, so a request's capture sees the per-matcher
    /// phase tree (`index/rerank/<matcher>/...`) instead of losing it to
    /// the worker threads. Once the token fires, the remaining candidates
    /// are skipped and keep their sketch score.
    fn rerank(
        &self,
        query: &Table,
        shortlist: &[Candidate],
        kind: MatcherKind,
        threads: usize,
    ) -> Vec<DiscoveryResult> {
        if shortlist.is_empty() {
            return Vec::new();
        }
        let _rerank = valentine_obs::span!("index/rerank");
        let matcher = kind.instantiate();
        let matcher_ref: &dyn Matcher = matcher.as_ref();
        let next = AtomicUsize::new(0);
        let errors = AtomicUsize::new(0);
        let skips = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<RerankSlot>>> =
            Mutex::new((0..shortlist.len()).map(|_| None).collect());
        let worker_snapshots: Mutex<Snapshot> = Mutex::new(Snapshot::new());
        let threads = threads.max(1).min(shortlist.len());
        // The caller's deadline lives in a thread-local; re-install it on
        // every scoped worker so kernel checkpoints (and our per-candidate
        // skip below) see it across the thread boundary.
        let token = valentine_obs::cancel::current();
        let request_id = valentine_obs::reqid::current();

        crossbeam::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_| {
                    let _cancel = valentine_obs::cancel::scope(token.clone());
                    let _request = valentine_obs::reqid::scope(request_id.clone());
                    let ((), snapshot) = valentine_obs::capture_detached(|| loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= shortlist.len() {
                            break;
                        }
                        let (table_id, column, sketch) = shortlist[idx];
                        let slot = if token.is_cancelled() {
                            skips.fetch_add(1, Ordering::Relaxed);
                            (sketch, Vec::new(), None)
                        } else {
                            let owner = self.table(table_id).expect("candidate exists");
                            let projection;
                            let target = match column {
                                None => &owner.table,
                                Some(p) => {
                                    let c = &owner.table.columns()[p.column_index as usize];
                                    projection = single_column_table(&owner.name, c);
                                    &projection
                                }
                            };
                            let call_start = Instant::now();
                            let outcome = matcher_ref.match_tables(query, target);
                            let call_ns = call_start.elapsed().as_nanos() as u64;
                            match outcome {
                                Ok(result) => (
                                    mean_best_per_query_column(query, &result),
                                    result.matches().to_vec(),
                                    Some(call_ns),
                                ),
                                Err(_) => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                    (sketch, Vec::new(), Some(call_ns))
                                }
                            }
                        };
                        slots.lock()[idx] = Some(slot);
                    });
                    worker_snapshots.lock().merge(&snapshot);
                });
            }
        })
        .expect("re-rank workers must not panic");

        // Replay what the workers recorded (matcher phase spans, kernel
        // checkpoint counters) into this thread's frame, nested under the
        // open `index/rerank` span. Detached capture + single emit = no
        // double counting in the global aggregate.
        valentine_obs::emit_under("index/rerank", &worker_snapshots.into_inner());

        let skips = skips.into_inner() as u64;
        valentine_obs::counter(metrics::MATCHER_CALLS, shortlist.len() as u64 - skips);
        valentine_obs::counter(metrics::MATCHER_ERRORS, errors.into_inner() as u64);
        valentine_obs::counter(metrics::MATCHER_SKIPS, skips);
        slots
            .into_inner()
            .into_iter()
            .zip(shortlist)
            .map(|(slot, &(table_id, column, sketch))| {
                let (score, matches, call_ns) = slot.expect("every slot re-ranked");
                if let Some(call_ns) = call_ns {
                    valentine_obs::observe(metrics::MATCHER_CALL_NS, call_ns);
                }
                self.result_for(table_id, column, score, sketch, matches)
            })
            .collect()
    }

    fn result_for(
        &self,
        table_id: u32,
        column: Option<&ColumnProfile>,
        score: f64,
        sketch_score: f64,
        column_matches: Vec<ColumnMatch>,
    ) -> DiscoveryResult {
        let t = self
            .table(table_id)
            .expect("result refers to an indexed table");
        DiscoveryResult {
            table_id,
            table_name: t.name.clone(),
            source: t.source.clone(),
            column: column.map(|p| p.name.clone()),
            score,
            sketch_score,
            column_matches,
        }
    }
}

/// The re-rank score of a whole-table match: for each query column, the
/// best correspondence score the matcher assigned it; averaged over all
/// query columns so partially-covered tables rank below full covers.
fn mean_best_per_query_column(query: &Table, result: &valentine_matchers::MatchResult) -> f64 {
    if query.width() == 0 {
        return 0.0;
    }
    let mut best: FxHashMap<&str, f64> = FxHashMap::default();
    for m in result.matches() {
        let entry = best.entry(&*m.source).or_insert(0.0);
        if m.score > *entry {
            *entry = m.score;
        }
    }
    query
        .column_names()
        .iter()
        .map(|name| best.get(name).copied().unwrap_or(0.0))
        .sum::<f64>()
        / query.width() as f64
}

fn single_column_table(name: &str, column: &Column) -> Table {
    Table::new(name, vec![column.clone()]).expect("single column cannot conflict")
}

/// Descending score with fully deterministic tie-breaks.
fn rank(results: &mut [DiscoveryResult]) {
    results.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| b.sketch_score.total_cmp(&a.sketch_score))
            .then_with(|| a.table_name.cmp(&b.table_name))
            .then_with(|| a.table_id.cmp(&b.table_id))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use valentine_table::Value;

    fn table(name: &str, lo: i64, hi: i64) -> Table {
        Table::from_pairs(
            name,
            vec![
                ("id", (lo..hi).map(Value::Int).collect()),
                (
                    "label",
                    (lo..hi).map(|i| Value::str(format!("item-{i}"))).collect(),
                ),
            ],
        )
        .unwrap()
    }

    fn demo_index() -> Index {
        let mut idx = Index::new(IndexConfig::default());
        idx.ingest("demo", table("overlap_high", 0, 90));
        idx.ingest("demo", table("overlap_mid", 40, 130));
        idx.ingest("demo", table("disjoint", 1000, 1090));
        idx
    }

    #[test]
    fn sketch_search_ranks_by_overlap() {
        let idx = demo_index();
        let query = table("q", 0, 100);
        let out = idx.top_k_unionable(&query, 3, &SearchOptions::sketch_only());
        assert_eq!(out.stats.matcher_calls, 0);
        assert_eq!(out.stats.query_columns, 2);
        assert!(!out.results.is_empty());
        assert_eq!(out.results[0].table_name, "overlap_high");
        // scores descend
        for w in out.results.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn rerank_stage_calls_matcher_only_on_shortlist() {
        let idx = demo_index();
        let query = table("q", 0, 100);
        let opts = SearchOptions {
            rerank: Some(MatcherKind::JaccardLevenshtein),
            candidate_cap: 2,
            threads: 2,
        };
        let out = idx.top_k_unionable(&query, 2, &opts);
        assert!(out.stats.matcher_calls <= 2);
        assert!(out.stats.matcher_calls < idx.len());
        assert_eq!(out.results[0].table_name, "overlap_high");
        assert!(!out.results[0].column_matches.is_empty());
    }

    #[test]
    fn rerank_worker_spans_land_in_the_search_capture() {
        let idx = demo_index();
        let query = table("q", 0, 100);
        let opts = SearchOptions {
            rerank: Some(MatcherKind::JaccardLevenshtein),
            candidate_cap: 3,
            threads: 2,
        };
        let column = Column::new("key", (50..120).map(Value::Int).collect());
        let searches: [&dyn Fn() -> SearchOutcome; 2] =
            [&|| idx.top_k_unionable(&query, 3, &opts), &|| {
                idx.top_k_joinable(&column, 3, &opts)
            }];
        for search in searches {
            let (outcome, snap) = valentine_obs::capture(search);
            assert!(outcome.stats.matcher_calls > 0);
            assert!(snap.spans.contains_key("index/rerank"), "{:?}", snap.spans);
            assert!(
                snap.spans.keys().any(|p| p.starts_with("index/rerank/jl/")),
                "matcher phase spans from the worker threads must be replayed \
                 under index/rerank, got {:?}",
                snap.spans.keys().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn brute_force_calls_matcher_on_every_table() {
        let idx = demo_index();
        let query = table("q", 0, 100);
        let out = idx.brute_force_unionable(&query, 3, MatcherKind::JaccardLevenshtein);
        assert_eq!(out.stats.matcher_calls, idx.len());
        assert_eq!(out.results[0].table_name, "overlap_high");
    }

    #[test]
    fn joinable_search_finds_the_overlapping_column() {
        let idx = demo_index();
        let query = Column::new("key", (50..120).map(Value::Int).collect());
        let out = idx.top_k_joinable(
            &query,
            2,
            &SearchOptions::with_matcher(MatcherKind::JaccardLevenshtein),
        );
        assert!(!out.results.is_empty());
        let top = &out.results[0];
        assert_eq!(top.column.as_deref(), Some("id"));
        assert_ne!(top.table_name, "disjoint");
        assert!(out.stats.matcher_calls >= out.results.len());
    }

    #[test]
    fn empty_index_and_empty_query() {
        let idx = Index::new(IndexConfig::default());
        let q = table("q", 0, 10);
        assert!(idx
            .top_k_unionable(&q, 5, &SearchOptions::sketch_only())
            .results
            .is_empty());
        let col = Column::new("c", vec![Value::Int(1)]);
        assert!(idx
            .top_k_joinable(&col, 5, &SearchOptions::sketch_only())
            .results
            .is_empty());

        let idx = demo_index();
        let empty = Table::empty("nothing");
        assert!(idx
            .top_k_unionable(&empty, 5, &SearchOptions::sketch_only())
            .results
            .is_empty());
    }

    #[test]
    fn k_truncates_results() {
        let idx = demo_index();
        let query = table("q", 0, 1100); // overlaps everything a bit
        let out = idx.top_k_unionable(&query, 1, &SearchOptions::sketch_only());
        assert_eq!(out.results.len(), 1);
    }

    #[test]
    fn fired_deadline_degrades_rerank_to_sketch_scores() {
        let idx = demo_index();
        let query = table("q", 0, 100);
        let opts = SearchOptions {
            rerank: Some(MatcherKind::JaccardLevenshtein),
            candidate_cap: 3,
            threads: 2,
        };
        let token =
            valentine_obs::CancelToken::with_deadline("request", Some(std::time::Duration::ZERO));
        let _scope = valentine_obs::cancel::scope(token);

        let out = idx.top_k_unionable(&query, 3, &opts);
        assert_eq!(out.stats.matcher_calls, 0, "token fired before any call");
        assert_eq!(out.stats.matcher_skips, out.results.len());
        assert!(!out.results.is_empty(), "partial shortlist, not emptiness");
        for r in &out.results {
            assert_eq!(r.score, r.sketch_score, "skipped ⇒ sketch fallback");
            assert!(r.column_matches.is_empty());
        }

        // joinable runs the same two-worker loop: every candidate skipped
        let col = Column::new("key", (50..120).map(Value::Int).collect());
        let out = idx.top_k_joinable(&col, 2, &opts);
        assert_eq!(out.stats.matcher_calls, 0);
        assert!(out.stats.matcher_skips >= out.results.len());
        assert!(!out.results.is_empty());
        for r in &out.results {
            assert!(r.column.is_some());
            assert_eq!(r.score, r.sketch_score, "skipped ⇒ sketch fallback");
            assert!(r.column_matches.is_empty());
        }
    }

    #[test]
    fn mean_best_per_query_column_scoring() {
        let q = table("q", 0, 5);
        let result = valentine_matchers::MatchResult::ranked(vec![
            ColumnMatch::new("id", "id", 0.9),
            ColumnMatch::new("id", "label", 0.2),
            // "label" gets no correspondence → counts as 0
        ]);
        let score = mean_best_per_query_column(&q, &result);
        assert!((score - 0.45).abs() < 1e-12);
        assert_eq!(mean_best_per_query_column(&Table::empty("e"), &result), 0.0);
    }
}
