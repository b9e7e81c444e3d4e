//! Live heap bytes of this process, counted by the global allocator once
//! [`start`] has been called, and their peak.
//!
//! The serve workload reads its server's memory from here rather than
//! from `VmHWM`: the server allocates from several threads, and which
//! thread's malloc arena ends up holding a reloaded index is a matter of
//! timing, which moved `VmHWM` between two levels 18 MB apart from run to
//! run. The live heap counts what the program keeps allocated.
//!
//! Each thread counts into a slot of its own, so counting adds no
//! contention between threads (one shared counter cost the server about
//! a quarter of its throughput). The live total is the sum of the slots.
//! A thread sums them after every [`CHECK_EVERY`] bytes it allocates and
//! raises the peak; the peak is therefore low by at most that much per
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

/// The system allocator, counting bytes while counting is on.
pub struct Counting;

/// Bytes a thread allocates between two sums of the slots.
pub const CHECK_EVERY: isize = 64 * 1024;

const SLOTS: usize = 64;

/// One thread's running count, alone on its cache line.
#[repr(align(64))]
struct Slot(AtomicIsize);

static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting started, per slot.
/// Blocks freed after the start that were allocated before it make the
/// total a little low.
static COUNTS: [Slot; SLOTS] = [const { Slot(AtomicIsize::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// This thread's slot, and the bytes it has allocated since it last
/// summed the slots.
struct Local {
    slot: Cell<usize>,
    since_check: Cell<isize>,
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            slot: Cell::new(usize::MAX),
            since_check: Cell::new(0),
        }
    };
}

fn count(delta: isize) {
    let (slot, check) = LOCAL
        .try_with(|l| {
            if l.slot.get() == usize::MAX {
                l.slot
                    .set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            let since = l.since_check.get() + delta.max(0);
            let check = since >= CHECK_EVERY;
            l.since_check.set(if check { 0 } else { since });
            (l.slot.get(), check)
        })
        // A thread tearing down its locals shares slot 0.
        .unwrap_or((0, false));
    COUNTS[slot].0.fetch_add(delta, Ordering::Relaxed);
    if check {
        PEAK.fetch_max(live(), Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` with the caller's
// arguments; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && ON.load(Ordering::Relaxed) {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && ON.load(Ordering::Relaxed) {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ON.load(Ordering::Relaxed) {
            count(-(layout.size() as isize));
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && ON.load(Ordering::Relaxed) {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

fn live() -> isize {
    COUNTS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Starts counting.
pub fn start() {
    ON.store(true, Ordering::SeqCst);
}

/// The largest live heap seen since [`start`], including now, MB.
pub fn peak_mb() -> f64 {
    let peak = PEAK.fetch_max(live(), Ordering::SeqCst).max(live());
    peak.max(0) as f64 / (1024.0 * 1024.0)
}
