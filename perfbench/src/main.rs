//! `perfbench` — the repository benchmark.
//!
//! One command runs one of three workloads from a workload seed, checks
//! the outputs against oracles, and prints every metric by name and unit:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload match-grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! * `--trace 0` measures the end-to-end metrics with tracing off.
//! * `--trace 1` is the separate traced run: it records the benchmark's
//!   own spans around every public call into a layer, writes them as JSONL
//!   under `.bench_work/traces/`, and reports the per-layer metrics.
//!
//! Times and rates are reported at reference speed: scaled by a host speed
//! probe taken during the run (`speed.rs`), with the measured values
//! printed beside them.
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! Human-readable lines above it repeat each metric with its sample count
//! and the workload-specific name it stands for (see `perfbench/METRICS.md`).
//!
//! Other modes: `--emit-manifest` prints `BENCHMARK.json` from the metric
//! table below; `--write-reference` regenerates the committed match-grid
//! recall reference.

mod defs;
mod grid;
mod heap;
mod lake;
mod serve;
mod speed;
mod stats;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

use valentine_core::obs::json::Json;

/// Host speed samples taken before and again after the workload runs; the
/// workloads take more between their steps.
const SPEED_SAMPLES: usize = 3;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (records, queries, requests, …).
    pub attempted: u64,
    /// Operations that failed: errors, refused or timed-out requests, and
    /// oracle mismatches.
    pub failed: u64,
    /// Oracle mismatches alone; any makes the run incorrect.
    pub mismatches: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Cores the work behind a time or rate metric keeps busy, when two:
    /// the host speed factor of that many probe threads scales it. Unlisted
    /// metrics are scaled by the one-thread factor.
    pub two_core: std::collections::BTreeSet<String>,
    /// Human-readable report lines (metric aliases, sample counts, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets a metric measured on work that keeps both cores busy.
    pub fn set_two_core(&mut self, name: &str, value: f64) {
        self.set(name, value);
        self.two_core.insert(name.to_string());
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <match-grid|lake-cold|serve-mixed> --seed N --seconds S --trace 0|1\n\
     \x20      perfbench --emit-manifest | --write-reference"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !defs::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--emit-manifest") => {
            println!("{}", defs::manifest_json());
            return ExitCode::SUCCESS;
        }
        Some("--write-reference") => {
            return match grid::write_reference() {
                Ok(path) => {
                    eprintln!("wrote {path}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Some(lake::CHILD_FLAG) => return lake::child_main(&argv[1..]),
        Some(serve::CHILD_FLAG) => return serve::child_main(&argv[1..]),
        Some(grid::EMBDI_CHILD_FLAG) => return grid::embdi_child_main(),
        Some(grid::COLD_CHILD_FLAG) => return grid::cold_child_main(&argv[1..]),
        Some(speed::CHILD_FLAG) => return speed::child_main(),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    util::print_fingerprint(&args);
    let work = match util::WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create work directory: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "serve-mixed" {
        // Everything of the serve workload shares one core; see
        // `serve::run`.
        match util::pin_to_one_core() {
            Ok(core) => println!("serve-mixed: pinned to core {core} with its server processes"),
            Err(e) => {
                eprintln!("perfbench: cannot pin serve-mixed to one core: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for _ in 0..SPEED_SAMPLES {
        speed::sample();
    }
    let result = match args.workload.as_str() {
        "match-grid" => grid::run(&args),
        "lake-cold" => lake::run(&args, &work),
        "serve-mixed" => serve::run(&args, &work),
        _ => unreachable!("workload validated by parse_args"),
    };
    drop(work);
    for _ in 0..SPEED_SAMPLES {
        speed::sample();
    }
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    match render(&args, outcome) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: an output oracle mismatched");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Prints the human report and renders the final JSON line. Every metric
/// of the run's kind must be present; a per-layer metric a workload does
/// not drive is reported as 0 — that layer does no work there.
fn render(args: &Args, mut outcome: Outcome) -> Result<(String, bool), String> {
    let defs: &[defs::MetricDef] = if args.trace {
        defs::PER_LAYER
    } else {
        defs::END_TO_END
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let mut speeds = [0.0; 2];
    for threads in [1, 2] {
        let (speed, n) = speed::factor(threads)?;
        speeds[threads - 1] = speed;
        if threads == 2 && outcome.two_core.is_empty() {
            continue;
        }
        println!(
            "host speed, {threads} probe thread(s): factor {speed:.4} (reference {} ms / median of {n} thread means {:.3?})",
            speed::REFERENCE_MS[threads - 1],
            speed::samples(threads)
        );
    }
    println!(
        "times and rates below are at reference speed (x2: by the two-thread factor); measured values in brackets"
    );
    let mut fields = Vec::with_capacity(defs.len());
    let mut idle = Vec::new();
    for def in defs {
        let measured = match outcome.metrics.remove(def.name) {
            Some(v) => v,
            None if args.trace => {
                idle.push(def.name);
                0.0
            }
            None => return Err(format!("workload did not measure `{}`", def.name)),
        };
        if !measured.is_finite() {
            return Err(format!("metric `{}` is not finite", def.name));
        }
        let two = outcome.two_core.contains(def.name);
        let speed = speeds[usize::from(two)];
        let value = match def.unit {
            "s" | "ms" | "us" => measured * speed,
            "1/s" => measured / speed,
            _ => measured,
        };
        println!(
            "metric {:<36} {:>16.6} {:<6} [{measured:.6}]{}",
            def.name,
            value,
            def.unit,
            if two { " x2" } else { "" }
        );
        fields.push((
            def.name.to_string(),
            Json::Obj(vec![
                ("value".to_string(), Json::Float(value)),
                ("unit".to_string(), Json::Str(def.unit.to_string())),
            ]),
        ));
    }
    // Metrics of the other kind (set-up time measured on the way to a
    // traced run, say) are not part of this run's report.
    let other: &[defs::MetricDef] = if args.trace {
        defs::END_TO_END
    } else {
        defs::PER_LAYER
    };
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|k| !other.iter().any(|d| d.name == k.as_str()))
    {
        return Err(format!("workload reported undeclared metric `{extra}`"));
    }
    if !idle.is_empty() {
        println!(
            "idle layers on {} (reported as 0): {}",
            args.workload,
            idle.join(", ")
        );
    }
    if outcome.attempted == 0 {
        return Err("the run attempted no operation".to_string());
    }
    let correct = outcome.mismatches == 0;
    println!(
        "attempted {} failed {} (oracle mismatches {})",
        outcome.attempted, outcome.failed, outcome.mismatches
    );
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::UInt(outcome.attempted)),
        ("failed".to_string(), Json::UInt(outcome.failed)),
        ("metrics".to_string(), Json::Obj(fields)),
    ])
    .render();
    Ok((line, correct))
}
