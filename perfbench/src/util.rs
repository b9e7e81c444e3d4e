//! Shared plumbing: the seeded generator, the fabricated lake, the work
//! directory, peak-RSS reads and the machine fingerprint.

use std::path::{Path, PathBuf};

use valentine_core::datasets::{chembl, opendata, tpcdi, SizeClass};
use valentine_core::fabricator::{fabricate_pair, InstanceNoise, ScenarioSpec, SchemaNoise};
use valentine_core::table::{csv, Table};

use crate::Args;

/// SplitMix64: the only source of randomness. Every input, schedule and
/// query mix derives from the `--seed` argument through it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be9c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Mixes several integers into one derived seed.
pub fn mix(parts: &[u64]) -> u64 {
    let mut rng = Rng::new(0);
    for &p in parts {
        rng.0 ^= p;
        rng.next_u64();
    }
    rng.next_u64()
}

/// The three fabricated dataset sources.
pub const SOURCES: [&str; 3] = ["tpcdi", "opendata", "chembl"];

/// A generated base table of one source.
pub fn base_table(source: &str, size: SizeClass, seed: u64) -> Table {
    match source {
        "tpcdi" => tpcdi::prospect(size, seed),
        "opendata" => opendata::open_data(size, seed),
        "chembl" => chembl::assays(size, seed),
        other => unreachable!("unknown source {other}"),
    }
}

/// One table of a fabricated lake.
#[derive(Debug, Clone)]
pub struct LakeTable {
    /// Unique table name, e.g. `chembl/b3/t07`.
    pub name: String,
    /// Base table it was fabricated from, e.g. `chembl#b3` — the index's
    /// source tag, and the relevant set for precision@k.
    pub origin: String,
    pub table: Table,
}

/// A query of the lake: the other half of a fabricated unionable pair.
#[derive(Debug, Clone)]
pub struct LakeQuery {
    pub origin: String,
    pub table: Table,
    /// Name of the lake table fabricated from the same split; `None` for
    /// extra queries whose other half is not in the lake.
    pub counterpart: Option<String>,
}

/// A round-trip through CSV. Lake tables and queries are what a CSV export
/// of them parses back to — the form a user hands the index — for the
/// program and the oracles alike.
pub fn via_csv(table: &Table) -> Table {
    csv::parse(table.name(), &csv::serialize(table)).expect("serialized CSV parses back")
}

/// Seed of the lakes' base tables. The base tables are the same for every
/// workload seed, which draws the splits, the queries and their order: the
/// lake's shape (and so its retrieval quality) stays comparable across
/// seeds.
const LAKE_BASE_SEED: u64 = 0x1a4e_ba5e;

/// Fabricates a lake of `sources × bases × variants` unionable targets,
/// one query per target, and `extra` further queries per base whose
/// other halves stay out of the lake. Variants cycle through the four
/// schema/instance noise combinations at 50% row overlap.
pub fn fabricate_lake(
    seed: u64,
    sources: &[&str],
    bases: usize,
    variants: usize,
    extra: usize,
) -> (Vec<LakeTable>, Vec<LakeQuery>) {
    let combos = [
        (SchemaNoise::Verbatim, InstanceNoise::Verbatim),
        (SchemaNoise::Verbatim, InstanceNoise::Noisy),
        (SchemaNoise::Noisy, InstanceNoise::Verbatim),
        (SchemaNoise::Noisy, InstanceNoise::Noisy),
    ];
    let mut tables = Vec::with_capacity(sources.len() * bases * variants);
    let mut queries = Vec::with_capacity(tables.capacity());
    for source in sources {
        let s = SOURCES
            .iter()
            .position(|known| known == source)
            .expect("a known source");
        for b in 0..bases {
            let base = base_table(
                source,
                SizeClass::Tiny,
                mix(&[LAKE_BASE_SEED, s as u64, b as u64]),
            );
            let origin = format!("{source}#b{b}");
            for v in 0..variants + extra {
                let (schema, instances) = combos[v % combos.len()];
                let spec = ScenarioSpec::unionable(0.5, schema, instances);
                let pair =
                    fabricate_pair(&base, &spec, mix(&[seed, s as u64, b as u64, v as u64, 7]))
                        .expect("fabrication of generated sources cannot fail");
                let name = format!("{source}/b{b}/t{v:02}");
                let mut query = pair.source;
                query.set_name(format!("query/{source}/b{b}/t{v:02}"));
                let counterpart = (v < variants).then(|| {
                    let mut target = pair.target;
                    target.set_name(name.clone());
                    tables.push(LakeTable {
                        name: name.clone(),
                        origin: origin.clone(),
                        table: target,
                    });
                    name
                });
                queries.push(LakeQuery {
                    origin: origin.clone(),
                    table: query,
                    counterpart,
                });
            }
        }
    }
    (tables, queries)
}

/// A scratch directory inside the checkout (`.bench_work/<workload>-<pid>`),
/// removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create(workload: &str) -> std::io::Result<WorkDir> {
        let path = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pins the calling thread, and every thread and process it starts from
/// then on, to the highest-numbered core it may run on. Returns that core.
pub fn pin_to_one_core() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the size of the
    // kernel's CPU set the calls are given.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let core = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no core in the affinity mask")?;
    let mut one = [0u64; 16];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: as above; `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(core)
}

/// Seconds since `start`.
pub fn secs(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Prints the machine fingerprint the numbers of this run belong to.
pub fn print_fingerprint(args: &Args) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let isa = if cfg!(target_feature = "avx2") && cfg!(target_feature = "fma") {
        "x86-64-v3 (avx2+fma codegen)"
    } else {
        "baseline codegen (no avx2/fma)"
    };
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "fingerprint: cores={cores} isa={isa} rustc=\"{rustc}\" profile={profile} commit={}",
        commit()
    );
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
}

/// The checked-out commit when the tree is a git checkout.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}
