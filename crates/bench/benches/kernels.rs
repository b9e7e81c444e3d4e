//! Guard: the chunked kernels must actually beat their scalar references.
//!
//! Every optimized hot-path kernel in the workspace keeps its original
//! implementation alive as a `*_scalar` function. This bench times each
//! pair head-to-head on realistic shapes and **asserts a floor speedup**,
//! so a refactor that quietly breaks vectorization (or a toolchain that
//! stops autovectorizing a loop shape) fails CI instead of silently
//! re-inflating the similarity phase the kernels were built to shrink.
//!
//! Floors are deliberately conservative — the measured ratios (printed on
//! every run) are typically far higher:
//!
//! * f32 dot products: ≥2× when AVX2 codegen is on (the workspace default
//!   via `.cargo/config.toml`), ≥1× otherwise;
//! * Levenshtein (Myers bit-parallel) and quantile EMD: ≥1.5× on every
//!   ISA — word-level parallelism and f64 add/abs need nothing exotic.
//!
//! Ratios for the remaining kernel pairs (token Jaccard, batched cosine)
//! are measured and printed for trend visibility but not gated — their
//! shapes are small enough that a floor would mostly measure the allocator
//! and the branch predictor.
//!
//! A pair whose optimized side stops paying is retired, not kept at a
//! parity floor: MinHash signatures, MinHash Jaccard and Jaro-Winkler each
//! went back to one implementation (DESIGN.md §15 lists the ratios).
//!
//! Run with `cargo bench -p valentine-bench --bench kernels`; `--quick`
//! shrinks repetitions for CI smoke runs. Timings take the *minimum* over
//! several interleaved repetitions, which is the standard way to strip
//! scheduler noise from a throughput comparison.

use std::time::{Duration, Instant};

use valentine_embeddings::{cosine_many, cosine_scalar, dot, dot_scalar};
use valentine_solver::{emd_1d_quantiles, emd_1d_quantiles_scalar};
use valentine_text::{jaccard_tokens, jaccard_tokens_scalar, levenshtein, levenshtein_scalar};

/// Deterministic pseudo-random stream (SplitMix64) so both sides of every
/// comparison see identical inputs on every run and machine.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn ascii_word(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| char::from(b'a' + (self.next() % 26) as u8))
            .collect()
    }
}

fn time<R>(iters: u32, f: &mut impl FnMut() -> R) -> Duration {
    let started = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    started.elapsed()
}

/// Best-of-`reps` interleaved timing of the scalar reference vs the
/// optimized kernel; returns the speedup and prints it.
fn speedup<A, B>(
    label: &str,
    reps: u32,
    iters: u32,
    scalar: &mut impl FnMut() -> A,
    optimized: &mut impl FnMut() -> B,
) -> f64 {
    let mut best_scalar = Duration::MAX;
    let mut best_optimized = Duration::MAX;
    for _ in 0..reps {
        best_scalar = best_scalar.min(time(iters, scalar));
        best_optimized = best_optimized.min(time(iters, optimized));
    }
    let ratio = best_scalar.as_secs_f64() / best_optimized.as_secs_f64().max(1e-12);
    println!(
        "kernel {label:<18} scalar {best_scalar:>12?}  optimized {best_optimized:>12?}  speedup {ratio:.2}x"
    );
    ratio
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps: u32 = if quick { 5 } else { 15 };
    // Floors (see module docs). `cfg!(target_feature)` reflects the actual
    // codegen settings, so overriding the workspace's `-C target-cpu` to a
    // pre-AVX2 baseline relaxes the dot floor instead of failing it.
    let floor_dot = if cfg!(target_feature = "avx2") {
        2.0
    } else {
        1.0
    };
    let floor_string = 1.5;
    let floor_emd = 1.5;
    let mut rng = Rng(0xBEEF);

    // Quantile EMD: distribution-sketch shape, batched to a timeable size.
    let qa: Vec<f64> = (0..1_024)
        .map(|_| rng.next() as f64 / u64::MAX as f64)
        .collect();
    let qb: Vec<f64> = (0..1_024)
        .map(|_| rng.next() as f64 / u64::MAX as f64)
        .collect();
    let emd = speedup(
        "emd-quantiles",
        reps,
        if quick { 2_000 } else { 20_000 },
        &mut || emd_1d_quantiles_scalar(&qa, &qb),
        &mut || emd_1d_quantiles(&qa, &qb),
    );

    // f32 dot product: embedding-dimension vectors.
    let va: Vec<f32> = (0..1_024)
        .map(|_| (rng.next() as f32 / u64::MAX as f32) - 0.5)
        .collect();
    let vb: Vec<f32> = (0..1_024)
        .map(|_| (rng.next() as f32 / u64::MAX as f32) - 0.5)
        .collect();
    let dot_ratio = speedup(
        "dot-f32",
        reps,
        if quick { 5_000 } else { 50_000 },
        &mut || dot_scalar(&va, &vb),
        &mut || dot(&va, &vb),
    );

    // Batched cosine: one query against a candidate matrix (SemProp /
    // EmbDI re-rank shape) vs a per-row scalar-cosine loop.
    let rows: Vec<Vec<f32>> = (0..128)
        .map(|_| {
            (0..128)
                .map(|_| (rng.next() as f32 / u64::MAX as f32) - 0.5)
                .collect()
        })
        .collect();
    let query: Vec<f32> = (0..128)
        .map(|_| (rng.next() as f32 / u64::MAX as f32) - 0.5)
        .collect();
    let cosine_batch = speedup(
        "cosine-many",
        reps,
        if quick { 200 } else { 2_000 },
        &mut || {
            rows.iter()
                .map(|r| cosine_scalar(&query, r))
                .collect::<Vec<f32>>()
        },
        &mut || cosine_many(&query, &rows),
    );

    // Levenshtein: identifier-length ASCII pairs (Myers bit-parallel path).
    let words: Vec<String> = (0..64)
        .map(|_| {
            let len = 24 + (rng.next() % 16) as usize;
            rng.ascii_word(len)
        })
        .collect();
    let lev = speedup(
        "levenshtein",
        reps,
        if quick { 20 } else { 200 },
        &mut || {
            let mut acc = 0usize;
            for a in &words {
                for b in &words {
                    acc += levenshtein_scalar(a, b);
                }
            }
            acc
        },
        &mut || {
            let mut acc = 0usize;
            for a in &words {
                for b in &words {
                    acc += levenshtein(a, b);
                }
            }
            acc
        },
    );

    // Token Jaccard: printed for visibility, not gated.
    let token_sets: Vec<Vec<String>> = (0..32)
        .map(|_| (0..12).map(|_| rng.ascii_word(8)).collect())
        .collect();
    let jt = speedup(
        "jaccard-tokens",
        reps,
        if quick { 50 } else { 500 },
        &mut || {
            let mut acc = 0.0f64;
            for a in &token_sets {
                for b in &token_sets {
                    acc += jaccard_tokens_scalar(a, b);
                }
            }
            acc
        },
        &mut || {
            let mut acc = 0.0f64;
            for a in &token_sets {
                for b in &token_sets {
                    acc += jaccard_tokens(a, b);
                }
            }
            acc
        },
    );

    println!("ungated ratios: cosine-many {cosine_batch:.2}x, jaccard-tokens {jt:.2}x");

    // The floors.
    assert!(
        dot_ratio >= floor_dot,
        "dot kernel regressed: {dot_ratio:.2}x < {floor_dot}x floor"
    );
    assert!(
        lev >= floor_string,
        "levenshtein kernel regressed: {lev:.2}x < {floor_string}x floor"
    );
    assert!(
        emd >= floor_emd,
        "emd kernel regressed: {emd:.2}x < {floor_emd}x floor"
    );
    println!(
        "kernel guard passed: dot {dot_ratio:.2}x (floor {floor_dot}x), \
         levenshtein {lev:.2}x (floor {floor_string}x), emd {emd:.2}x (floor {floor_emd}x)"
    );
}
