//! A counting global allocator for allocation-hygiene gates.
//!
//! The zero-allocation steady-state invariant ("no heap traffic per packet
//! after warmup") is only worth having if it is *measured*, not argued.
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation, reallocation and deallocation in relaxed atomics; a test or
//! bench binary installs it with `#[global_allocator]` and the simulator
//! snapshots [`counters`] at the warmup boundary and at loop exit to
//! report the steady-state delta.
//!
//! Two deliberate properties:
//!
//! * **Opt-in per binary.** The workspace's production binaries keep the
//!   plain system allocator; only `tests/alloc_hygiene.rs` and the
//!   benchmark's traced binary install the counter. Code that snapshots
//!   counters therefore must tolerate a non-counting process —
//!   [`probe_counting`] detects whether a counter is live so gates can
//!   fail loudly instead of passing vacuously when the allocator is
//!   absent.
//! * **Deterministic.** The simulator is bit-deterministic, so a given
//!   (config, flows) pair produces the *same* allocation schedule every
//!   run. The steady-state gate is therefore a hard equality (`== 0`),
//!   not a flaky threshold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that forwards to [`System`] and counts traffic.
/// Install with `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// A snapshot of the process-wide allocation counters. All zeros unless a
/// [`CountingAlloc`] is installed as the global allocator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounters {
    /// Fresh allocations (`alloc` + `alloc_zeroed`).
    pub allocs: u64,
    /// In-place growth requests (`realloc`) — the Vec-doubling signal.
    pub reallocs: u64,
    /// Frees.
    pub deallocs: u64,
    /// Bytes requested across allocs and reallocs.
    pub bytes: u64,
}

impl AllocCounters {
    /// Counter movement from `self` (earlier) to `later`.
    pub fn delta(self, later: AllocCounters) -> AllocCounters {
        AllocCounters {
            allocs: later.allocs - self.allocs,
            reallocs: later.reallocs - self.reallocs,
            deallocs: later.deallocs - self.deallocs,
            bytes: later.bytes - self.bytes,
        }
    }

    /// Heap acquisitions (allocations plus reallocations) — the quantity
    /// the steady-state gate pins to zero. Frees are not counted against
    /// the gate: dropping warmup-era storage after the boundary is benign.
    pub fn acquisitions(self) -> u64 {
        self.allocs + self.reallocs
    }
}

/// Read the current counters. Cheap (four relaxed loads).
pub fn counters() -> AllocCounters {
    AllocCounters {
        allocs: ALLOCS.load(Relaxed),
        reallocs: REALLOCS.load(Relaxed),
        deallocs: DEALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Whether a [`CountingAlloc`] is actually installed in this process:
/// performs a small heap allocation and checks that the counter moved.
/// Gates call this so they fail loudly instead of passing vacuously.
pub fn probe_counting() -> bool {
    let before = ALLOCS.load(Relaxed);
    let probe = Box::new(0xA110Cu64);
    std::hint::black_box(&probe);
    drop(probe);
    ALLOCS.load(Relaxed) != before
}

#[cfg(test)]
mod tests {
    use super::*;

    // This test binary does NOT install the counting allocator, so the
    // counters must stay at zero and the probe must report "not counting".
    #[test]
    fn probe_reports_absent_allocator() {
        assert!(!probe_counting());
        assert_eq!(counters(), AllocCounters::default());
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = AllocCounters {
            allocs: 10,
            reallocs: 2,
            deallocs: 7,
            bytes: 4096,
        };
        let b = AllocCounters {
            allocs: 15,
            reallocs: 3,
            deallocs: 11,
            bytes: 8192,
        };
        let d = a.delta(b);
        assert_eq!(d.allocs, 5);
        assert_eq!(d.reallocs, 1);
        assert_eq!(d.deallocs, 4);
        assert_eq!(d.bytes, 4096);
        assert_eq!(d.acquisitions(), 6);
    }
}
