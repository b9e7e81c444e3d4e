//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` is
//! generated from these tables (`perfbench --emit-manifest`), so the file
//! and the program cannot drift apart.

use valentine_core::obs::json::Json;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// One named workload and why it is in the benchmark.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "match-grid",
        why: "the paper's own workload: Table II grids of 8 methods plus EmbDI over fabricated pairs; runner, matchers and kernels only, index and serve idle",
    },
    WorkloadDef {
        name: "lake-cold",
        why: "CLI index search user: cold open of a ~600-table v2 index with merged generations, then re-ranked and sketch-only queries; runner and serve idle",
    },
    WorkloadDef {
        name: "serve-mixed",
        why: "interactive curation: HTTP mix of misses, cache hits and light lookups, add+reload writes, then a capacity step; the only workload that drives HTTP, queue, cache and reload",
    },
];

/// One metric: name, unit, direction, and (end-to-end only) the share of
/// the parent's median by which it may worsen before a change is refused.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: 0.0,
    }
}

/// End-to-end metrics. Every workload reports every one of them; what
/// each means on each workload is tabulated in `perfbench/METRICS.md`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_per_s", "1/s", true, 0.25),
    e2e("heavy_p50_ms", "ms", false, 0.25),
    e2e("heavy_tail_ms", "ms", false, 0.25),
    e2e("light_p50_ms", "ms", false, 0.25),
    e2e("light_tail_ms", "ms", false, 0.25),
    e2e("cold_s", "s", false, 0.25),
    e2e("peak_mem_mb", "MB", false, 0.2),
    e2e("quality", "ratio", true, 0.1),
    e2e("hit_rate", "ratio", true, 0.25),
];

/// Per-layer metrics (traced run). A layer a workload does not drive
/// reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("runner.prepare_s", "s", false),
    layer("runner.score_s", "s", false),
    layer("runner.busy_share", "ratio", true),
    layer("runner.longest_task_s", "s", false),
    layer("matchers.cupid.grid_s", "s", false),
    layer("matchers.similarity-flooding.grid_s", "s", false),
    layer("matchers.coma-schema.grid_s", "s", false),
    layer("matchers.coma-instance.grid_s", "s", false),
    layer("matchers.distribution.grid_s", "s", false),
    layer("matchers.distribution-loose.grid_s", "s", false),
    layer("matchers.semprop.grid_s", "s", false),
    layer("matchers.embdi.grid_s", "s", false),
    layer("matchers.jaccard-levenshtein.grid_s", "s", false),
    layer("embeddings.embdi_train_s", "s", false),
    layer("index.manifest_ms", "ms", false),
    layer("index.load_dir_s", "s", false),
    layer("index.map_segments_ms", "ms", false),
    layer("index.query_profile_ms", "ms", false),
    layer("index.candidates_ms", "ms", false),
    layer("index.lsh_admit_ratio", "ratio", false),
    layer("index.rerank_ms", "ms", false),
    layer("index.matcher_calls_per_query", "count", false),
    layer("index.add_ms", "ms", false),
    layer("index.remove_ms", "ms", false),
    layer("serve.queue_wait_p50_ms", "ms", false),
    layer("serve.queue_wait_tail_ms", "ms", false),
    layer("serve.search_p50_ms", "ms", false),
    layer("serve.cache_hit_ratio", "ratio", true),
    layer("serve.reload_s", "s", false),
    layer("serve.http_parse_us", "us", false),
    layer("serve.sheds", "count", false),
    layer("serve.deadline_504s", "count", false),
    layer("serve.generator_lag_ms", "ms", false),
    layer("obs.trace_overhead_share", "ratio", false),
    layer("selftime.runner_share", "ratio", false),
    layer("selftime.matchers_share", "ratio", false),
    layer("selftime.embeddings_share", "ratio", false),
    layer("selftime.index_share", "ratio", false),
    layer("selftime.serve_share", "ratio", false),
    layer("selftime.bench_share", "ratio", false),
];

/// The command that runs the benchmark, from the repository root.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

fn metric_json(def: &MetricDef, with_bound: bool) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(def.name.to_string())),
        ("unit".to_string(), Json::Str(def.unit.to_string())),
        (
            "better".to_string(),
            Json::Str(
                if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }
                .to_string(),
            ),
        ),
    ];
    if with_bound {
        fields.push(("bound".to_string(), Json::Float(def.bound)));
    }
    Json::Obj(fields)
}

/// `BENCHMARK.json`, one array element per line.
pub fn manifest_json() -> String {
    let list = |items: Vec<Json>| {
        let body: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", j.render()))
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    };
    let command = Json::Arr(COMMAND.iter().map(|s| Json::Str(s.to_string())).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str(w.name.to_string())),
                ("why".to_string(), Json::Str(w.why.to_string())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        command.render(),
        RUN_SECONDS,
        list(workloads),
        list(END_TO_END.iter().map(|d| metric_json(d, true)).collect()),
        list(PER_LAYER.iter().map(|d| metric_json(d, false)).collect()),
    )
}
