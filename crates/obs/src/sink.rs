//! The recording machinery: per-thread sinks, span guards, scoped capture,
//! and the global drain.
//!
//! Every thread owns a [`LocalSink`] in thread-local storage. Recording a
//! span, counter, or histogram value inside a [`capture`] touches only that
//! sink — no locks, no shared cache lines. What a thread records outside
//! any capture lands in its *root*, a snapshot behind a per-thread mutex
//! that only [`drain`] ever contends for. Roots are listed in a global
//! registry from their first record, so [`drain`] reaches a thread's data
//! while the thread is alive, and after it has finished but before its
//! thread-local destructors ran (a scoped join returns in that window).
//! On thread exit the root moves into the registry's retired snapshot.
//!
//! [`capture`] pushes a *frame* onto the thread's sink: everything the
//! thread records while the frame is open lands in it; when the capture
//! ends, the frame is folded into its parent (so global aggregates still
//! see the data) and returned as a [`Snapshot`]. Span paths inside a frame
//! are relative to the frame — the experiment runner uses this to attach a
//! method's phase tree to each record without the surrounding context
//! leaking in.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::hist::Histogram;

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// How many times the span closed.
    pub count: u64,
    /// Total nanoseconds across all closures.
    pub total_ns: u64,
    /// Longest single closure in nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds another stat into this one.
    pub fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Total time as a [`Duration`].
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns)
    }
}

/// Everything recorded by some scope: span aggregates keyed by `/`-joined
/// path, counters, and histograms. Iteration order is deterministic
/// (`BTreeMap`), which is what makes exported traces diffable in CI.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Span path → aggregated timing.
    pub spans: BTreeMap<String, SpanStat>,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → distribution.
    pub hists: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// An empty snapshot (const, so the global sink needs no lazy init).
    pub const fn new() -> Snapshot {
        Snapshot {
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.hists.is_empty()
    }

    /// Records one span closure under `path`.
    pub fn record_span(&mut self, path: &str, ns: u64) {
        self.spans.entry(path.to_string()).or_default().record(ns);
    }

    /// Adds to a counter.
    pub fn record_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Records one histogram observation.
    pub fn record_hist(&mut self, name: &str, value: u64) {
        self.hists
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Folds another snapshot into this one. Merging the per-thread sinks
    /// of a run is equivalent to recording everything into one sink
    /// (property-tested in `tests/prop.rs`).
    pub fn merge(&mut self, other: &Snapshot) {
        for (path, stat) in &other.spans {
            self.spans.entry(path.clone()).or_default().merge(stat);
        }
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.hists {
            self.hists.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// A counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// One capture scope: the stack depth it started at (span paths are built
/// relative to it) and the data recorded while it is open.
struct Frame {
    base_depth: usize,
    data: Snapshot,
}

/// The per-thread sink: the open-span name stack, the thread root, and the
/// open capture frames (innermost last).
struct LocalSink {
    stack: Vec<Cow<'static, str>>,
    /// Data recorded outside any capture; registered on first use.
    root: Option<Arc<Mutex<Snapshot>>>,
    captures: Vec<Frame>,
}

impl LocalSink {
    fn new() -> LocalSink {
        LocalSink {
            stack: Vec::new(),
            root: None,
            captures: Vec::new(),
        }
    }

    /// Span paths are relative to the innermost capture (root: depth 0).
    fn base_depth(&self) -> usize {
        self.captures.last().map_or(0, |f| f.base_depth)
    }

    /// Hands `f` the innermost open frame: the innermost capture, else the
    /// thread root.
    fn with_frame(&mut self, f: impl FnOnce(&mut Snapshot)) {
        match self.captures.last_mut() {
            Some(frame) => f(&mut frame.data),
            None => f(&mut lock(self.root.get_or_insert_with(register_root))),
        }
    }
}

impl Drop for LocalSink {
    fn drop(&mut self) {
        // Thread exit: retire the root plus any capture frames leaked by a
        // panic, under the registry lock so a concurrent drain sees the
        // data either in the live root or in the retired snapshot.
        if self.root.is_none() && self.captures.iter().all(|f| f.data.is_empty()) {
            return;
        }
        let mut registry = lock(&REGISTRY);
        if let Some(root) = self.root.take() {
            registry.live.retain(|r| !Arc::ptr_eq(r, &root));
            let data = std::mem::take(&mut *lock(&root));
            registry.retired.merge(&data);
        }
        for frame in &self.captures {
            registry.retired.merge(&frame.data);
        }
    }
}

/// Every thread root recorded into so far: the live ones, plus the merged
/// data of threads that have exited since the last [`drain`].
struct Registry {
    live: Vec<Arc<Mutex<Snapshot>>>,
    retired: Snapshot,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    live: Vec::new(),
    retired: Snapshot::new(),
});

thread_local! {
    static LOCAL: RefCell<LocalSink> = RefCell::new(LocalSink::new());
}

/// Locks, recovering the data of a panicked holder: telemetry is additive,
/// so a half-applied record is still worth keeping.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn register_root() -> Arc<Mutex<Snapshot>> {
    let root = Arc::new(Mutex::new(Snapshot::new()));
    lock(&REGISTRY).live.push(Arc::clone(&root));
    root
}

/// True when this thread should record: globally enabled, or inside a
/// [`capture`] on this thread.
fn active() -> bool {
    crate::is_enabled()
        || LOCAL
            .try_with(|sink| !sink.borrow().captures.is_empty())
            .unwrap_or(false)
}

/// RAII guard of one open span; see [`crate::span!`].
#[must_use = "a span records on drop; bind it with `let _g = span!(..)`"]
pub struct SpanGuard {
    start: Option<Instant>,
    mirrored: bool,
}

/// Opens a span. Prefer the [`crate::span!`] macro at call sites.
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !active() {
        return SpanGuard {
            start: None,
            mirrored: false,
        };
    }
    let name = name.into();
    // The profiler mirror sees every span the sink sees; `mirrored` is
    // remembered on the guard so a mid-span arm/disarm cannot unbalance it.
    let mirrored = crate::profiler::mirror_push(&name);
    let pushed = LOCAL
        .try_with(|sink| sink.borrow_mut().stack.push(name))
        .is_ok();
    SpanGuard {
        start: pushed.then(Instant::now),
        mirrored,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.mirrored {
            crate::profiler::mirror_pop();
        }
        let Some(start) = self.start else { return };
        let ns = start.elapsed().as_nanos() as u64;
        let _ = LOCAL.try_with(|sink| {
            let mut sink = sink.borrow_mut();
            if sink.stack.is_empty() {
                return; // guard outlived its sink frame; nothing to attribute
            }
            let base = sink.base_depth().min(sink.stack.len() - 1);
            let path = sink.stack[base..].join("/");
            sink.stack.pop();
            sink.with_frame(|data| data.record_span(&path, ns));
        });
    }
}

/// Adds `delta` to the named counter.
pub fn counter(name: &str, delta: u64) {
    if !active() {
        return;
    }
    let _ = LOCAL.try_with(|sink| {
        sink.borrow_mut()
            .with_frame(|data| data.record_counter(name, delta))
    });
}

/// Records `value` into the named histogram.
pub fn observe(name: &str, value: u64) {
    if !active() {
        return;
    }
    let _ = LOCAL.try_with(|sink| {
        sink.borrow_mut()
            .with_frame(|data| data.record_hist(name, value))
    });
}

/// Records a duration (as nanoseconds) into the named histogram.
pub fn observe_duration(name: &str, duration: Duration) {
    observe(name, duration.as_nanos() as u64);
}

/// Runs `f` and returns everything the *current thread* recorded during it.
/// Recording is active inside the capture even when globally disabled. The
/// captured data also folds into the enclosing scope, so global aggregates
/// stay complete. Span paths in the returned snapshot are relative to the
/// capture (enclosing span names are stripped).
///
/// Work `f` delegates to *other* threads lands in those threads' own sinks
/// (and from there in [`drain`]), not in this capture — cross-thread stages
/// must aggregate their own totals (the index re-rank stage does exactly
/// that) and report them on the capturing thread.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    capture_inner(f, true)
}

/// Like [`capture`], but the captured data is *not* folded into the
/// enclosing scope: the returned snapshot is the only copy. Cross-thread
/// stages use this on their scoped workers and replay the snapshot on the
/// coordinating thread with [`emit_under`] — folding on both the worker and
/// the coordinator would double-count every span in the global aggregate.
pub fn capture_detached<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    capture_inner(f, false)
}

fn capture_inner<T>(f: impl FnOnce() -> T, fold_into_parent: bool) -> (T, Snapshot) {
    LOCAL.with(|sink| {
        let mut sink = sink.borrow_mut();
        let base_depth = sink.stack.len();
        sink.captures.push(Frame {
            base_depth,
            data: Snapshot::new(),
        });
    });
    let out = f();
    let snap = LOCAL.with(|sink| {
        let mut sink = sink.borrow_mut();
        let frame = sink.captures.pop().expect("capture frames are balanced");
        if fold_into_parent {
            sink.with_frame(|parent| parent.merge(&frame.data));
        }
        frame.data
    });
    (out, snap)
}

/// Replays a detached snapshot into the calling thread's current scope,
/// nesting every span path under `prefix` (pass `""` to keep paths as-is).
/// Counters and histograms merge under their own names. No-op when the
/// thread is not recording. This is how a coordinating thread attributes
/// work its scoped workers captured with [`capture_detached`]: the worker
/// spans appear in the caller's frame as if they had run under the
/// caller's currently open `prefix` span.
pub fn emit_under(prefix: &str, snapshot: &Snapshot) {
    if snapshot.is_empty() || !active() {
        return;
    }
    let _ = LOCAL.try_with(|sink| {
        sink.borrow_mut().with_frame(|data| {
            for (path, stat) in &snapshot.spans {
                let full = if prefix.is_empty() {
                    path.clone()
                } else {
                    format!("{prefix}/{path}")
                };
                data.spans.entry(full).or_default().merge(stat);
            }
            for (name, value) in &snapshot.counters {
                *data.counters.entry(name.clone()).or_insert(0) += value;
            }
            for (name, hist) in &snapshot.hists {
                data.hists.entry(name.clone()).or_default().merge(hist);
            }
        })
    });
}

/// Takes and resets everything recorded so far: every thread's root, the
/// data of exited threads, and the calling thread's open captures. Call
/// between workloads (never inside a [`capture`]).
pub fn drain() -> Snapshot {
    let mut out = {
        let mut registry = lock(&REGISTRY);
        let mut out = std::mem::take(&mut registry.retired);
        for root in &registry.live {
            out.merge(&std::mem::take(&mut *lock(root)));
        }
        out
    };
    let _ = LOCAL.try_with(|sink| {
        for frame in &mut sink.borrow_mut().captures {
            out.merge(&std::mem::take(&mut frame.data));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests here rely on capture() activating recording, so they hold
    // no global state and stay independent of test-order and parallelism.

    #[test]
    fn capture_scopes_spans_counters_and_hists() {
        let ((), snap) = capture(|| {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                counter("widgets", 3);
                observe("latency", 250);
            }
            counter("widgets", 2);
        });
        assert_eq!(snap.counters["widgets"], 5);
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["outer/inner"].count, 1);
        assert!(snap.spans["outer"].total_ns >= snap.spans["outer/inner"].total_ns);
        assert_eq!(snap.hists["latency"].count(), 1);
    }

    #[test]
    fn capture_paths_are_relative_to_the_capture() {
        let ((), snap) = capture(|| {
            let _ambient = span("ambient");
            let ((), inner) = capture(|| {
                let _phase = span("phase");
            });
            assert!(inner.spans.contains_key("phase"), "{:?}", inner.spans);
            assert!(!inner.spans.contains_key("ambient/phase"));
        });
        // the inner capture folded into the outer one
        assert!(snap.spans.contains_key("phase"));
        assert!(snap.spans.contains_key("ambient"));
    }

    #[test]
    fn nested_captures_fold_into_parents() {
        let ((), outer) = capture(|| {
            let ((), inner) = capture(|| counter("k", 1));
            assert_eq!(inner.counters["k"], 1);
            counter("k", 1);
        });
        assert_eq!(outer.counters["k"], 2);
    }

    #[test]
    fn detached_capture_does_not_fold_into_parent() {
        let ((), outer) = capture(|| {
            let ((), inner) = capture_detached(|| counter("k", 1));
            assert_eq!(inner.counters["k"], 1);
        });
        assert!(
            !outer.counters.contains_key("k"),
            "detached data must not double into the enclosing frame"
        );
    }

    #[test]
    fn emit_under_prefixes_spans_and_merges_counts() {
        let mut worker = Snapshot::new();
        worker.record_span("coma/similarity", 10);
        worker.record_counter("index/matcher_calls", 2);
        worker.record_hist("index/matcher_call_ns", 10);
        let ((), snap) = capture(|| emit_under("index/rerank", &worker));
        assert_eq!(snap.spans["index/rerank/coma/similarity"].count, 1);
        assert_eq!(snap.counters["index/matcher_calls"], 2);
        assert_eq!(snap.hists["index/matcher_call_ns"].count(), 1);
    }

    #[test]
    fn sibling_spans_share_a_path_entry() {
        let ((), snap) = capture(|| {
            for _ in 0..3 {
                let _g = span("work");
            }
        });
        assert_eq!(snap.spans["work"].count, 3);
        assert_eq!(snap.spans.len(), 1);
    }

    #[test]
    fn worker_thread_data_reaches_the_global_drain() {
        crate::set_enabled(true);
        std::thread::scope(|s| {
            s.spawn(|| counter("obs_test/worker_counter_unique", 7));
        });
        crate::set_enabled(false);
        let snap = drain();
        assert!(snap.counter("obs_test/worker_counter_unique") >= 7);
    }

    #[test]
    fn snapshot_merge_aggregates() {
        let mut a = Snapshot::new();
        a.record_span("x", 10);
        a.record_counter("c", 1);
        let mut b = Snapshot::new();
        b.record_span("x", 30);
        b.record_counter("c", 2);
        b.record_hist("h", 5);
        a.merge(&b);
        assert_eq!(a.spans["x"].count, 2);
        assert_eq!(a.spans["x"].total_ns, 40);
        assert_eq!(a.spans["x"].max_ns, 30);
        assert_eq!(a.counters["c"], 3);
        assert_eq!(a.hists["h"].count(), 1);
    }

    #[test]
    fn guard_must_use_is_harmless_when_disabled() {
        // not enabled, not in a capture: everything is a no-op
        {
            let _g = span("obs_test/should_not_record");
        }
        counter("obs_test/should_not_record", 1);
        // cannot assert absence globally (parallel tests may be enabled),
        // but a scoped capture must not see ambient no-ops retroactively
        let ((), snap) = capture(|| {});
        assert!(snap.is_empty());
    }
}
