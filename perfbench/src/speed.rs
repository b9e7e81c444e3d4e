//! Host speed probe.
//!
//! The benchmark runs on two cores of a shared host whose speed drifts by
//! tens of percent over minutes with its neighbours' load, and the guest
//! has no hardware counters that would let it count work instead of time.
//! In some phases the guest's two cores share one physical core: two busy
//! threads then each run about 1.7 times slower, while one thread alone
//! keeps its speed. So every run also times a fixed probe at points spread
//! over the run, once with one thread and once with two at a time: string
//! edit distances, hash-map inserts and lookups, and a dependent walk over
//! a 1 MB buffer. It runs in a child process of its own, so its buffer
//! stays out of the measured process's memory. The probe uses none of the
//! repository's code, so a change to the program cannot move it.
//!
//! Time metrics are reported at reference speed: the measured value times
//! `REFERENCE_MS / median probe round` of the probe with as many threads
//! as the measured work keeps busy (each probe thread's rounds averaged
//! over the whole thread), and rates divided by the same factor. The
//! measured values and the factors are printed above the result line.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use valentine_core::obs::json::Json;

use crate::util::Rng;

/// First argument of a probe child process.
pub const CHILD_FLAG: &str = "--speed-probe";
/// Mean probe round on the reference machine (2 cores, x86-64-v3, quiet
/// host), in ms: of one thread alone, and of each of two at once.
pub const REFERENCE_MS: [f64; 2] = [1.34, 1.42];
/// Timed rounds per thread per sample, after one untimed warm-up round.
const ROUNDS: usize = 8;
/// Entries of the walk buffer (1 MB of `u32`).
const WALK_LEN: usize = 1 << 18;
/// Dependent loads per round.
const WALK_STEPS: usize = 16_384;
/// String pairs per round, and their length.
const PAIRS: usize = 400;
const STR_LEN: usize = 32;
/// Hash-map keys inserted per round (each is looked up twice).
const KEYS: usize = 4096;

/// Mean round times (ms) of every sample taken in this process so far:
/// `[0]` one per sample of one thread alone, `[1]` one per thread of the
/// samples with two threads at once.
static MEANS_MS: Mutex<[Vec<f64>; 2]> = Mutex::new([Vec::new(), Vec::new()]);

/// Takes one sample: runs the probe child and keeps its thread means. A
/// child that fails leaves no samples; `factor` then refuses the run.
pub fn sample() {
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let Ok(output) = std::process::Command::new(exe)
        .arg(CHILD_FLAG)
        .stderr(std::process::Stdio::inherit())
        .output()
    else {
        return;
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let Ok(Json::Arr(items)) = Json::parse(stdout.trim()) else {
        return;
    };
    let means: Vec<f64> = items.iter().filter_map(Json::as_f64).collect();
    if let [one, two @ ..] = means.as_slice() {
        let mut all = MEANS_MS.lock().expect("probe samples lock");
        all[0].push(*one);
        all[1].extend_from_slice(two);
    }
}

/// The speed factor for work that keeps `threads` (1 or 2) cores busy,
/// `REFERENCE_MS / median thread mean` of the samples with that many
/// threads, and the number of thread means it rests on. Below 1 the host
/// ran slower than the reference.
///
/// The two differ: in some phases of the host the guest's two cores share
/// one physical core, and then two busy threads each run about 1.7 times
/// slower while one thread alone keeps its speed.
pub fn factor(threads: usize) -> Result<(f64, usize), String> {
    let all = MEANS_MS.lock().expect("probe samples lock");
    let means = &all[threads.clamp(1, 2) - 1];
    if means.is_empty() {
        return Err("the host speed probe took no sample".to_string());
    }
    Ok((
        REFERENCE_MS[threads.clamp(1, 2) - 1] / crate::stats::median(means),
        means.len(),
    ))
}

/// Every thread mean so far with `threads` threads, in the order taken.
pub fn samples(threads: usize) -> Vec<f64> {
    MEANS_MS.lock().expect("probe samples lock")[threads.clamp(1, 2) - 1].clone()
}

/// The probe child: one thread alone, then two at once; prints each
/// thread's mean round time as one JSON array of ms, the lone thread
/// first. Whole-thread means, not a median of rounds: a round is shorter
/// than a scheduler time slice, so most rounds would miss the time the
/// thread spent waiting for a core.
pub fn child_main() -> std::process::ExitCode {
    let walk = walk_cycle();
    let mut rng = Rng::new(0x5eed_5eed);
    let strings: Vec<Vec<u8>> = (0..2 * PAIRS)
        .map(|_| (0..STR_LEN).map(|_| b'a' + rng.below(12) as u8).collect())
        .collect();
    let mut means = Vec::with_capacity(3);
    for threads in [1, 2] {
        means.extend(std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (walk, strings) = (&walk, &strings);
                    scope.spawn(move || {
                        let mut sink = round(walk, strings, t as u64);
                        let start = Instant::now();
                        for r in 1..=ROUNDS {
                            sink = sink.wrapping_add(round(walk, strings, (t * 7919 + r) as u64));
                        }
                        std::hint::black_box(sink);
                        start.elapsed().as_secs_f64() * 1e3 / ROUNDS as f64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect::<Vec<f64>>()
        }));
    }
    println!(
        "{}",
        Json::Arr(means.into_iter().map(Json::Float).collect()).render()
    );
    std::process::ExitCode::SUCCESS
}

/// One cycle through all of `0..WALK_LEN` (Sattolo's shuffle), so the walk
/// touches the whole buffer in an order the prefetcher cannot follow.
fn walk_cycle() -> Vec<u32> {
    let mut next: Vec<u32> = (0..WALK_LEN as u32).collect();
    let mut rng = Rng::new(0x0c7c_1e00);
    for i in (1..WALK_LEN).rev() {
        next.swap(i, rng.below(i));
    }
    next
}

/// One probe round; returns a value that depends on all of its work.
fn round(walk: &[u32], strings: &[Vec<u8>], salt: u64) -> u64 {
    let mut at = (salt as usize * 104_729) % WALK_LEN;
    for _ in 0..WALK_STEPS {
        at = walk[at] as usize;
    }
    let mut acc = at as u64;
    let mut row = vec![0usize; STR_LEN + 1];
    for pair in strings.chunks_exact(2) {
        acc += levenshtein(&pair[0], &pair[1], &mut row) as u64;
    }
    let mut map = HashMap::with_capacity(KEYS);
    let mut rng = Rng::new(salt);
    let keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64()).collect();
    for (i, k) in keys.iter().enumerate() {
        map.insert(*k, i as u64);
    }
    for k in keys.iter().chain(keys.iter().rev()) {
        acc = acc.wrapping_add(map.get(k).copied().unwrap_or(0));
    }
    acc
}

/// Edit distance with one reused row.
fn levenshtein(a: &[u8], b: &[u8], row: &mut [usize]) -> usize {
    for (j, cell) in row.iter_mut().enumerate() {
        *cell = j;
    }
    for (i, &ca) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let up = row[j + 1];
            row[j + 1] = (up + 1).min(row[j] + 1).min(diag + usize::from(ca != cb));
            diag = up;
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_counts_edits() {
        let mut row = vec![0; 8];
        assert_eq!(levenshtein(b"kitten", b"sitting", &mut row), 3);
        assert_eq!(levenshtein(b"abc", b"abc", &mut row), 0);
    }

    #[test]
    fn walk_is_one_cycle() {
        let walk = walk_cycle();
        let (mut at, mut steps) = (0usize, 0usize);
        loop {
            at = walk[at] as usize;
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, WALK_LEN);
    }
}
