//! The benchmark's own span recorder, used only by the traced run.
//!
//! Spans sit around the benchmark's calls into each layer's public
//! functions; the program itself is not instrumented for this. Each span
//! carries a name (`<layer>/<call>`), start, end, parent and, for serve,
//! the request id. Spans stay in memory and are written as JSONL when the
//! run ends. Work a layer reports in its return values (record runtimes,
//! request-log queue waits, search counters) becomes *synthesized* child
//! spans, so self time can be split below a single public call.
//!
//! A layer's self time is each of its spans' duration minus the part of
//! that interval its children cover.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use valentine_core::obs::json::Json;

/// Layers self time is attributed to; anything else counts as `bench`.
pub const LAYERS: [&str; 6] = [
    "runner",
    "matchers",
    "embeddings",
    "index",
    "serve",
    "bench",
];

/// Name prefix of a probe span.
pub const PROBE: &str = "probe/";

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<String>,
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

/// Turns span recording on or off for the rest of the process.
pub fn set_enabled(on: bool) {
    recorder();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the recorder's epoch.
pub fn ns_of(at: Instant) -> u64 {
    at.saturating_duration_since(recorder().epoch).as_nanos() as u64
}

/// The innermost open span on this thread.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// An open span; records itself when dropped.
pub struct Guard {
    open: Option<(u64, Option<u64>, String, Instant)>,
}

impl Guard {
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|o| o.0)
    }
}

/// Opens a span under this thread's innermost span.
pub fn span(name: impl Into<String>) -> Guard {
    span_under(name, current())
}

/// Opens a span under an explicit parent (a span opened on another
/// thread).
pub fn span_under(name: impl Into<String>, parent: Option<u64>) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        open: Some((id, parent, name.into(), Instant::now())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start)) = self.open.take() {
            let end = Instant::now();
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&x| x == id) {
                    s.remove(pos);
                }
            });
            push(Span {
                id,
                parent,
                name,
                start_ns: ns_of(start),
                end_ns: ns_of(end),
                request: None,
            });
        }
    }
}

fn push(span: Span) {
    recorder()
        .spans
        .lock()
        .expect("span recorder lock poisoned by a panicking thread")
        .push(span);
}

/// Records a span whose interval is known from a layer's return values
/// rather than observed directly. Returns its id so further children can
/// hang below it.
pub fn synth(
    name: impl Into<String>,
    parent: Option<u64>,
    start_ns: u64,
    dur_ns: u64,
    request: Option<String>,
) -> Option<u64> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(Span {
        id,
        parent,
        name: name.into(),
        start_ns,
        end_ns: start_ns + dur_ns,
        request,
    });
    Some(id)
}

/// Every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *recorder()
            .spans
            .lock()
            .expect("span recorder lock poisoned by a panicking thread"),
    )
}

fn layer_of(name: &str) -> &'static str {
    let head = name.split('/').next().unwrap_or("");
    LAYERS
        .iter()
        .copied()
        .find(|l| *l == head)
        .unwrap_or("bench")
}

/// Self time per layer in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|l| (*l, 0)).collect();
    for s in spans.iter().filter(|s| !s.name.starts_with(PROBE)) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        *out.entry(layer_of(&s.name)).or_default() += dur.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Writes spans as JSONL, one object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::Obj(vec![
            ("id".to_string(), Json::UInt(s.id)),
            (
                "parent".to_string(),
                s.parent.map_or(Json::Null, Json::UInt),
            ),
            ("name".to_string(), Json::Str(s.name.clone())),
            ("start_ns".to_string(), Json::UInt(s.start_ns)),
            ("end_ns".to_string(), Json::UInt(s.end_ns)),
            (
                "request".to_string(),
                s.request.clone().map_or(Json::Null, Json::Str),
            ),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

/// Where a traced run writes its spans.
pub fn trace_path(tag: &str, seed: u64) -> std::path::PathBuf {
    Path::new(".bench_work")
        .join("traces")
        .join(format!("{tag}-seed{seed}.jsonl"))
}

/// Adds `selftime.<layer>_share` metrics from per-layer self times.
pub fn report_self_times(out: &mut crate::Outcome, times: &BTreeMap<&'static str, u64>) {
    let total: u64 = times.values().sum();
    for layer in LAYERS {
        let ns = times.get(layer).copied().unwrap_or(0);
        let share = if total == 0 {
            0.0
        } else {
            ns as f64 / total as f64
        };
        out.set(&format!("selftime.{layer}_share"), share);
        out.note(format!(
            "self time {layer:<10} {:>10.3} ms ({:.1}%)",
            ns as f64 / 1e6,
            100.0 * share
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(&[(0, 10), (5, 20), (30, 40)], 2, 35), 23);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn probe_time_goes_to_no_layer() {
        let span = |id, parent, name: &str, start_ns, end_ns| Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            request: None,
        };
        let spans = [
            span(1, None, "bench/query", 0, 100),
            span(2, Some(1), "probe/index/candidate_tables", 0, 30),
            span(3, Some(1), "index/top_k_unionable", 30, 90),
        ];
        let times = self_times(&spans);
        assert_eq!(times["bench"], 10);
        assert_eq!(times["index"], 60);
        assert_eq!(times.values().sum::<u64>(), 70);
    }
}
