//! `match-grid`: the paper's own workload.
//!
//! Table II grids of the eight non-EmbDI methods over twelve fabricated
//! pairs (TPC-DI, Open Data and ChEMBL × the four scenarios), run through
//! `Runner::run_grids` with two workers, plus EmbDI's single configuration
//! on one tiny pair, timed on its own. Runner, matchers and the kernels do
//! all the work; index and serve are idle.
//!
//! The pairs come from a fixed pool of eight fabrication variants per
//! (source, scenario) cell. Every grid pass draws one variant per cell
//! afresh, from the workload seed and the pass number: the variants differ
//! in cost (an Open Data cell's heaviest Jaccard-Levenshtein
//! configurations take 28 ms in some and 43 ms in others), so a run's
//! medians over passes average over many draws instead of following one.
//! The recall of every (pair, method, config) record in the pool is
//! committed in `perfbench/reference/match_grid_recall.tsv`, so every run
//! checks its records against that reference.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use valentine_core::datasets::SizeClass;
use valentine_core::fabricator::{
    fabricate_pair, DatasetPair, InstanceNoise, ScenarioKind, ScenarioSpec, SchemaNoise,
};
use valentine_core::grids::{method_grid, method_grids};
use valentine_core::matchers::{Matcher, MatcherKind};
use valentine_core::runner::{execute_grid, ExperimentRecord};
use valentine_core::{CompletedSet, GridScale, Runner, RunnerConfig};

use crate::stats::{describe, median, tail};
use valentine_core::obs::json::Json;

use crate::util::{base_table, mix, peak_rss_mb, secs, Rng, SOURCES};
use crate::{trace, Args, Outcome};

/// Fabrication variants per (source, scenario) cell in the pool.
const VARIANTS: usize = 8;
/// Seed of the pool's base tables; fixed so the committed reference holds
/// for every workload seed.
const POOL_SEED: u64 = 0x7ab1e2;
/// EmbDI child processes per measuring run.
const EMBDI_MIN_RUNS: usize = 3;
/// First argument of an EmbDI child process.
pub const EMBDI_CHILD_FLAG: &str = "--embdi-child";
/// Set-up repetitions per run.
const SETUPS: usize = 3;
/// Passes, the first included, whose (pair, method) cells make up
/// `quality` and `hit_rate`.
const QUALITY_PASSES: usize = 8;
/// Steady passes a run makes at least.
const MIN_PASSES: usize = QUALITY_PASSES;
/// Cold first passes per measuring run: the process's own, and the rest
/// each in a fresh child process.
const COLD_PASSES: usize = 3;
/// First argument of a cold-pass child process.
pub const COLD_CHILD_FLAG: &str = "--grid-cold-child";

/// Runs a child process of this binary and parses its one JSON line.
fn child(args: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", args[0]))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{} child failed ({})", args[0], output.status));
    }
    Json::parse(stdout.trim()).map_err(|e| format!("{} child output `{stdout}`: {e}", args[0]))
}

/// One child's timing and checked records as a JSON line.
fn child_report(s: f64, records: &[ExperimentRecord]) -> String {
    let (failed, mismatches) = check(records, &reference());
    Json::Obj(vec![
        ("s".to_string(), Json::Float(s)),
        ("records".to_string(), Json::UInt(records.len() as u64)),
        ("failed".to_string(), Json::UInt(failed)),
        ("mismatches".to_string(), Json::UInt(mismatches)),
    ])
    .render()
}

/// The cold-pass child: the pairs of the seed and draw in `argv`, one
/// timed grid pass in a fresh process, checked against the reference.
pub fn cold_child_main(argv: &[String]) -> std::process::ExitCode {
    let [seed, draw] = argv else {
        eprintln!("perfbench grid cold child: expected a seed and a draw");
        return std::process::ExitCode::from(2);
    };
    let (Ok(seed), Ok(draw)) = (seed.parse::<u64>(), draw.parse::<usize>()) else {
        eprintln!("perfbench grid cold child: seed and draw must be numbers");
        return std::process::ExitCode::from(2);
    };
    let inputs = build_inputs();
    let (records, wall) = run_pass(&inputs.pass_pairs(seed, draw), &inputs.grids);
    println!("{}", child_report(wall, &records));
    std::process::ExitCode::SUCCESS
}

/// The EmbDI child: one timed `execute_grid` call, checked against the
/// reference, reported as one JSON line.
pub fn embdi_child_main() -> std::process::ExitCode {
    let pair = pool_pair(0, 0, 0);
    let grid = method_grid(MatcherKind::EmbDI, GridScale::Small);
    let t = Instant::now();
    let records = execute_grid(&pair, MatcherKind::EmbDI, &grid);
    println!("{}", child_report(secs(t), &records));
    std::process::ExitCode::SUCCESS
}
/// Runner workers (the benchmark machine has two cores).
const WORKERS: usize = 2;
const REFERENCE: &str = include_str!("../reference/match_grid_recall.tsv");
const REFERENCE_PATH: &str = "perfbench/reference/match_grid_recall.tsv";

/// The eight methods of the grid phase.
fn grid_methods() -> Vec<MatcherKind> {
    MatcherKind::ALL
        .iter()
        .copied()
        .filter(|k| *k != MatcherKind::EmbDI)
        .collect()
}

/// The one scenario spec of each cell, mid-grid of Table II's variants
/// (noisy schemata; 50% row or column overlap, 30% for the joins). The
/// variants of a cell differ only in their split seed, so every workload
/// seed draws pairs of the same shape and cost.
fn cell_spec(scenario: ScenarioKind) -> ScenarioSpec {
    match scenario {
        ScenarioKind::Unionable => {
            ScenarioSpec::unionable(0.5, SchemaNoise::Noisy, InstanceNoise::Noisy)
        }
        ScenarioKind::ViewUnionable => {
            ScenarioSpec::view_unionable(0.5, SchemaNoise::Noisy, InstanceNoise::Verbatim)
        }
        ScenarioKind::Joinable => ScenarioSpec::joinable(0.3, true, SchemaNoise::Noisy),
        ScenarioKind::SemanticallyJoinable => {
            ScenarioSpec::semantically_joinable(0.3, true, SchemaNoise::Noisy)
        }
    }
}

/// Fabricates pool pair `variant` of cell (`source`, `scenario`).
fn pool_pair(source: usize, scenario: usize, variant: usize) -> DatasetPair {
    let base = base_table(SOURCES[source], SizeClass::Tiny, POOL_SEED ^ source as u64);
    let spec = cell_spec(ScenarioKind::ALL[scenario]);
    let mut pair = fabricate_pair(
        &base,
        &spec,
        mix(&[POOL_SEED, scenario as u64, variant as u64]),
    )
    .expect("fabrication of generated sources cannot fail");
    pair.id = format!(
        "{}/{}/v{variant}",
        SOURCES[source],
        ScenarioKind::ALL[scenario].id()
    );
    pair.source_name = SOURCES[source].to_string();
    pair
}

/// Grids of the eight methods.
type Grids = Vec<(MatcherKind, Vec<Box<dyn Matcher>>)>;

/// The workload's inputs: the whole pool, fabricated once, and the grids.
/// The seed picks the pairs of each pass ([`Inputs::pass_pairs`]).
struct Inputs {
    /// Variant `v` of cell `c` (source-major, then scenario) sits at
    /// `c * VARIANTS + v`.
    pool: Vec<DatasetPair>,
    embdi_pair: DatasetPair,
    grids: Grids,
    embdi_grid: Vec<Box<dyn Matcher>>,
}

impl Inputs {
    /// The pairs of pass `pass` (0 is a process's first) of a run with
    /// `seed`: one seeded variant of every cell.
    fn pass_pairs(&self, seed: u64, pass: usize) -> Vec<DatasetPair> {
        let mut rng = Rng::new(mix(&[seed, pass as u64]));
        self.pool
            .chunks(VARIANTS)
            .map(|cell| cell[rng.below(VARIANTS)].clone())
            .collect()
    }
}

fn build_inputs() -> Inputs {
    let mut pool = Vec::with_capacity(SOURCES.len() * ScenarioKind::ALL.len() * VARIANTS);
    for s in 0..SOURCES.len() {
        for k in 0..ScenarioKind::ALL.len() {
            for v in 0..VARIANTS {
                pool.push(pool_pair(s, k, v));
            }
        }
    }
    // EmbDI trains on one fixed pair, the TPC-DI unionable cell's first
    // variant: its training cost follows the pair's vocabulary, so a
    // seeded choice would make `embdi_pair_s` track the draw, not the code.
    let embdi_pair = pool[0].clone();
    Inputs {
        pool,
        embdi_pair,
        grids: method_grids(&grid_methods(), GridScale::Small),
        embdi_grid: method_grid(MatcherKind::EmbDI, GridScale::Small),
    }
}

/// Digest of one (pair, method) cell's records: FNV-1a over each
/// configuration name and its recall to nine decimals, in name order.
fn cell_digest(records: &[&ExperimentRecord]) -> String {
    let mut rows: Vec<String> = records
        .iter()
        .map(|r| format!("{}={:.9}", r.config, r.recall))
        .collect();
    rows.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in rows.join(";").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{:016x}\t{}", h, rows.len())
}

/// Groups records by (pair, method slug).
fn cells(records: &[ExperimentRecord]) -> BTreeMap<(String, &'static str), Vec<&ExperimentRecord>> {
    let mut out: BTreeMap<(String, &'static str), Vec<&ExperimentRecord>> = BTreeMap::new();
    for r in records {
        out.entry((r.pair_id.clone(), r.method.cli_name()))
            .or_default()
            .push(r);
    }
    out
}

/// The committed reference: (pair id, method slug) → digest and count.
fn reference() -> HashMap<(String, String), String> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut f = l.splitn(3, '\t');
            Some((
                (f.next()?.to_string(), f.next()?.to_string()),
                f.next()?.to_string(),
            ))
        })
        .collect()
}

/// Checks records against the reference. Returns (failed records,
/// mismatched records), each failed record counted once.
fn check(
    records: &[ExperimentRecord],
    reference: &HashMap<(String, String), String>,
) -> (u64, u64) {
    let mut failed = records.iter().filter(|r| r.failed()).count() as u64;
    let mut mismatched = 0;
    for ((pair, method), recs) in cells(records) {
        let got = cell_digest(&recs);
        match reference.get(&(pair.clone(), method.to_string())) {
            Some(want) if *want == got => {}
            want => {
                eprintln!(
                    "oracle: {pair} {method}: recall digest {got} != reference {}",
                    want.map_or("<missing>", String::as_str)
                );
                let bad = recs.iter().filter(|r| !r.failed()).count() as u64;
                mismatched += bad;
                failed += bad;
            }
        }
    }
    (failed, mismatched)
}

fn run_pass(pairs: &[DatasetPair], grids: &Grids) -> (Vec<ExperimentRecord>, f64) {
    let config = RunnerConfig {
        methods: grid_methods(),
        scale: GridScale::Small,
        threads: WORKERS,
        ..RunnerConfig::default()
    };
    let start = Instant::now();
    let runner = Runner::run_grids(pairs, grids, &config, &CompletedSet::default(), |_| {});
    let wall = secs(start);
    (runner.records().to_vec(), wall)
}

/// Per-(pair, method) task time: the runtimes of its records (preparation
/// is folded into each task's first record).
fn task_times(records: &[ExperimentRecord]) -> Vec<f64> {
    cells(records)
        .values()
        .map(|recs| recs.iter().map(|r| r.runtime.as_secs_f64()).sum())
        .collect()
}

/// Runtimes of every configuration but each task's slowest — the record
/// that carries the task's shared preparation (records come back sorted by
/// config name, so position does not identify it): the per-config scoring
/// cost once the preparation exists.
fn config_times(records: &[ExperimentRecord]) -> Vec<f64> {
    cells(records)
        .values()
        .flat_map(|recs| {
            let mut times: Vec<f64> = recs.iter().map(|r| r.runtime.as_secs_f64()).collect();
            times.sort_by(f64::total_cmp);
            times.pop();
            times
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let reference = reference();
    if reference.is_empty() {
        return Err(format!(
            "{REFERENCE_PATH} is empty; regenerate it with --write-reference"
        ));
    }
    // Set-up is fabrication of the pool alone: its median over several
    // repetitions, so one slow repetition does not set it.
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let built = build_inputs();
        setups.push(secs(t));
        inputs = Some(built);
    }
    let inputs = inputs.expect("set-ups ran");
    let mut out = Outcome::default();
    out.set("setup_s", median(&setups));

    // The first pass of the process fills the matchers' lazy one-time
    // state (thesaurus, name-similarity memo); it is timed as a `cold_s`
    // sample and kept out of the steady-state figures. Its records are
    // checked like every other.
    let first_pairs = inputs.pass_pairs(args.seed, 0);
    let (warm, first_s) = run_pass(&first_pairs, &inputs.grids);
    let (f, m) = check(&warm, &reference);
    out.attempted += warm.len() as u64;
    out.failed += f;
    out.mismatches += m;
    // Best recall of every distinct (pair, method) cell of the first
    // QUALITY_PASSES passes.
    let mut best: BTreeMap<(String, &'static str), f64> = BTreeMap::new();
    let mut note_best = |records: &[ExperimentRecord]| {
        for (cell, recs) in cells(records) {
            best.insert(cell, recs.iter().map(|r| r.recall).fold(0.0, f64::max));
        }
    };
    note_best(&warm);

    if args.trace {
        return traced(args, &inputs, &first_pairs, &reference, out);
    }

    let grid_budget = args.seconds * 0.55;
    let start = Instant::now();
    // Latency percentiles are taken within each pass (one grid run: 96
    // tasks, ~1500 configurations) and reported as medians over passes.
    // Pooled over passes, the tail would jump between the slowest and the
    // second-slowest pair's Jaccard-Levenshtein task as the pass count
    // crosses ten.
    let (mut rates, mut passes) = (Vec::new(), Vec::new());
    let (mut heavy, mut light) = (Vec::new(), Vec::new());
    while rates.len() < MIN_PASSES || secs(start) < grid_budget {
        let pairs = inputs.pass_pairs(args.seed, rates.len() + 1);
        let (records, wall) = run_pass(&pairs, &inputs.grids);
        crate::speed::sample();
        if rates.len() + 1 < QUALITY_PASSES {
            note_best(&records);
        }
        let (f, m) = check(&records, &reference);
        out.attempted += records.len() as u64;
        out.failed += f;
        out.mismatches += m;
        rates.push(records.len() as f64 / wall);
        let tasks: Vec<f64> = task_times(&records).iter().map(|s| s * 1e3).collect();
        let configs: Vec<f64> = config_times(&records).iter().map(|s| s * 1e3).collect();
        passes.push([
            median(&tasks),
            tail(&tasks).value,
            median(&configs),
            tail(&configs).value,
        ]);
        heavy.extend(tasks);
        light.extend(configs);
    }
    // EmbDI's run time depends on the process it runs in (by up to ±25%
    // between processes, consistently within one), so each run is a fresh
    // child process, like a CLI `match` call.
    let over_passes = |i: usize| median(&passes.iter().map(|p| p[i]).collect::<Vec<f64>>());
    let mut from_child = |args: &[&str]| -> Result<f64, String> {
        let child = child(args)?;
        let field = |key: &str| child.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        out.attempted += field("records") as u64;
        out.failed += field("failed") as u64;
        out.mismatches += field("mismatches") as u64;
        Ok(field("s"))
    };
    // More cold first passes, each in a fresh process like the first.
    // Each draws the pairs of another pass, as the process's first did.
    let seed = args.seed.to_string();
    let mut colds = vec![first_s];
    while colds.len() < COLD_PASSES {
        let draw = colds.len().to_string();
        colds.push(from_child(&[COLD_CHILD_FLAG, &seed, &draw])?);
    }
    let embdi_start = Instant::now();
    let mut embdi = Vec::new();
    while embdi.len() < EMBDI_MIN_RUNS {
        embdi.push(from_child(&[EMBDI_CHILD_FLAG])?);
    }
    out.note(format!(
        "grid passes {} ({} pairs drawn afresh per pass x {} methods, {} workers); EmbDI child runs {} in {:.2} s",
        rates.len(),
        first_pairs.len(),
        inputs.grids.len(),
        WORKERS,
        embdi.len(),
        secs(embdi_start)
    ));
    out.note(format!(
        "grid_records_per_s = throughput_per_s: median {:.1} records/s over {} passes",
        median(&rates),
        rates.len()
    ));
    out.note(format!(
        "per-pass task latency = heavy: p50 {:.3} ms, tail p{:.1} {:.3} ms of {} tasks, medians over {} passes",
        over_passes(0),
        tail(&heavy[..heavy.len() / passes.len()]).percentile,
        over_passes(1),
        heavy.len() / passes.len(),
        passes.len()
    ));
    out.note(describe("pooled task latency (not gated)", &heavy, "ms"));
    out.note(format!(
        "per-pass config latency (per config after prepare) = light: p50 {:.4} ms, tail {:.3} ms, medians over passes",
        over_passes(2),
        over_passes(3)
    ));
    out.note(describe("pooled config latency (not gated)", &light, "ms"));
    out.note(format!(
        "embdi_pair_s (reported, not gated: it moved 0.16-0.34 as IQR/median over 10-seed sets on the shared benchmark host): median {:.3} s over {} runs {:.3?}",
        median(&embdi),
        embdi.len(),
        embdi
    ));
    let quality_cells: Vec<f64> = best.into_values().collect();
    let perfect = quality_cells.iter().filter(|&&r| r >= 0.5).count();
    out.note(format!(
        "quality = mean best-config recall over the {} distinct (pair, method) cells of the first {QUALITY_PASSES} passes; hit_rate = share whose best config recalls at least half the ground truth ({perfect})",
        quality_cells.len()
    ));
    out.set_two_core("throughput_per_s", median(&rates));
    out.set_two_core("heavy_p50_ms", over_passes(0));
    out.set_two_core("heavy_tail_ms", over_passes(1));
    out.set_two_core("light_p50_ms", over_passes(2));
    out.set_two_core("light_tail_ms", over_passes(3));
    out.note(format!(
        "cold_s: median of {} first grid passes of fresh processes (lazy matcher state filled) {colds:.3?}",
        colds.len()
    ));
    out.set_two_core("cold_s", median(&colds));
    out.set("peak_mem_mb", peak_rss_mb());
    out.set(
        "quality",
        quality_cells.iter().sum::<f64>() / quality_cells.len() as f64,
    );
    out.set("hit_rate", perfect as f64 / quality_cells.len() as f64);
    Ok(out)
}

/// Passes per side of the traced run's overhead comparison.
const TRACE_PASSES: usize = 2;

fn traced(
    args: &Args,
    inputs: &Inputs,
    pairs: &[DatasetPair],
    reference: &HashMap<(String, String), String>,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let note_check = |out: &mut Outcome, records: &[ExperimentRecord]| {
        let (f, m) = check(records, reference);
        out.attempted += records.len() as u64;
        out.failed += f;
        out.mismatches += m;
    };

    // Untraced passes: the baseline for the overhead share, and the
    // runner's own accounting (busy share, longest task).
    let mut plain_walls = Vec::new();
    let (mut busy, mut longest) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_PASSES {
        let (records, wall) = run_pass(pairs, &inputs.grids);
        note_check(&mut out, &records);
        let tasks = task_times(&records);
        busy.push(tasks.iter().sum::<f64>() / (WORKERS as f64 * wall));
        longest.push(tasks.iter().copied().fold(0.0, f64::max));
        plain_walls.push(wall);
    }

    // Traced passes: obs phase capture on (it fills ExperimentRecord.phases,
    // read from the returned records, never from obs::drain) and the
    // benchmark's spans around the runner call.
    valentine_core::obs::set_enabled(true);
    trace::set_enabled(true);
    let (mut traced_walls, mut prepare, mut score) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRACE_PASSES {
        let pass = trace::span("bench/grid_pass");
        let run = trace::span("runner/run_grids");
        let started = Instant::now();
        let (records, wall) = run_pass(pairs, &inputs.grids);
        let run_id = run.id();
        drop(run);
        drop(pass);
        traced_walls.push(wall);
        note_check(&mut out, &records);
        // Each worker's records ran back to back inside the runner call:
        // lay them out per worker as matcher spans.
        let mut cursor = [trace::ns_of(started); WORKERS];
        let (mut prep, mut total) = (0.0, 0.0);
        for r in &records {
            let ns = r.runtime.as_nanos() as u64;
            let w = r.worker.min(WORKERS - 1);
            trace::synth(
                format!("matchers/{}", r.method.cli_name()),
                run_id,
                cursor[w],
                ns,
                None,
            );
            cursor[w] += ns;
            total += r.runtime.as_secs_f64();
            prep += r
                .phases
                .iter()
                .filter(|p| p.path.matches('/').count() == 1 && p.path.ends_with("/prepare"))
                .map(|p| p.stat.total().as_secs_f64())
                .sum::<f64>();
        }
        prepare.push(prep);
        score.push(total - prep);
    }

    // Per-(pair, method) `execute_grid` calls on a two-thread pool owned
    // by the benchmark: one span per call gives each method's grid time.
    let tasks: Vec<(usize, usize)> = (0..pairs.len())
        .flat_map(|p| (0..inputs.grids.len()).map(move |g| (p, g)))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let per_task = std::sync::Mutex::new(Vec::new());
    {
        let root = trace::span("bench/grid_by_task");
        let root_id = root.id();
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&(p, g)) = tasks.get(i) else { break };
                    let (kind, grid) = &inputs.grids[g];
                    let t = Instant::now();
                    let span = trace::span_under(format!("matchers/{}", kind.cli_name()), root_id);
                    let records = execute_grid(&pairs[p], *kind, grid);
                    drop(span);
                    per_task
                        .lock()
                        .expect("task list lock poisoned by a panicking worker")
                        .push((kind.cli_name(), secs(t), records));
                });
            }
        });
    }
    let mut grid_s: BTreeMap<&str, f64> = BTreeMap::new();
    for (slug, s, records) in per_task
        .into_inner()
        .expect("task list lock poisoned by a panicking worker")
    {
        note_check(&mut out, &records);
        *grid_s.entry(slug).or_default() += s;
    }

    // EmbDI on its own: the profile phase (graph, walks, word2vec) is the
    // embeddings layer's share of the call.
    let (embdi_s, train_s) = {
        let span = trace::span("matchers/embdi");
        let start_ns = trace::ns_of(Instant::now());
        let t = Instant::now();
        let records = execute_grid(&inputs.embdi_pair, MatcherKind::EmbDI, &inputs.embdi_grid);
        let total = secs(t);
        let train: f64 = records
            .iter()
            .flat_map(|r| &r.phases)
            .filter(|p| p.path == "embdi/profile")
            .map(|p| p.stat.total().as_secs_f64())
            .sum();
        trace::synth(
            "embeddings/embdi_profile",
            span.id(),
            start_ns,
            (train * 1e9) as u64,
            None,
        );
        drop(span);
        note_check(&mut out, &records);
        (total, train)
    };
    valentine_core::obs::set_enabled(false);
    trace::set_enabled(false);

    let spans = trace::take();
    let path = trace::trace_path("match-grid", args.seed);
    trace::write_jsonl(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.note(format!(
        "trace: {} spans -> {}",
        spans.len(),
        path.display()
    ));
    trace::report_self_times(&mut out, &trace::self_times(&spans));

    let plain = median(&plain_walls);
    out.set(
        "obs.trace_overhead_share",
        (median(&traced_walls) - plain) / plain,
    );
    out.set_two_core("runner.prepare_s", median(&prepare));
    out.set_two_core("runner.score_s", median(&score));
    out.set("runner.busy_share", median(&busy));
    out.set_two_core("runner.longest_task_s", median(&longest));
    for (slug, s) in &grid_s {
        // Per-task calls on the benchmark's two-thread pool.
        out.set_two_core(&format!("matchers.{slug}.grid_s"), *s);
    }
    out.set("matchers.embdi.grid_s", embdi_s);
    out.set("embeddings.embdi_train_s", train_s);
    Ok(out)
}

/// Regenerates the committed recall reference over the whole pool.
pub fn write_reference() -> Result<String, String> {
    let inputs = build_inputs();
    let config = RunnerConfig {
        methods: grid_methods(),
        scale: GridScale::Small,
        threads: WORKERS,
        ..RunnerConfig::default()
    };
    let runner = Runner::run_grids(
        &inputs.pool,
        &inputs.grids,
        &config,
        &CompletedSet::default(),
        |_| {},
    );
    let mut records = runner.records().to_vec();
    for v in 0..VARIANTS {
        records.extend(execute_grid(
            &inputs.pool[v],
            MatcherKind::EmbDI,
            &inputs.embdi_grid,
        ));
    }
    if let Some(bad) = records.iter().find(|r| r.failed()) {
        return Err(format!(
            "{} {} {} failed: {:?}",
            bad.pair_id,
            bad.method.cli_name(),
            bad.config,
            bad.error
        ));
    }
    let mut text = String::from(
        "# match-grid recall reference: pair id, method, FNV-1a digest of config=recall (9 decimals), config count.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference\n",
    );
    for ((pair, method), recs) in cells(&records) {
        text.push_str(&format!("{pair}\t{method}\t{}\n", cell_digest(&recs)));
    }
    std::fs::write(REFERENCE_PATH, text).map_err(|e| format!("{REFERENCE_PATH}: {e}"))?;
    Ok(REFERENCE_PATH.to_string())
}
