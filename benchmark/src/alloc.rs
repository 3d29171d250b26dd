//! The counting global allocator.
//!
//! It lives in the benchmark only: the simulator crates stay free of
//! instrumentation. Counting is off during timed repetitions, where every
//! allocation pays one relaxed load and nothing else; it is on during the
//! counting pass (the discarded warm-up repetition) and the traced pass.
//! The simulator is deterministic, so the counts of one pass are the counts
//! of every repetition.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
// Signed: blocks allocated before `start` may be freed while counting.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Forwards to the system allocator, counting while enabled.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics
// (relaxed atomics that publish no other data) and never influence the
// pointer or layout handed back.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` and `layout` are the caller's, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            // One allocation of the new size replacing the old block.
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter values at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Bytes live, relative to [`start`].
    pub live: i64,
    /// High-water mark of `live` since [`start`] or [`reset_peak`].
    pub peak: i64,
}

/// Zeroes the counters and turns counting on.
pub fn start() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Turns counting off.
pub fn stop() {
    COUNTING.store(false, Relaxed);
}

/// Reads the counters.
pub fn snapshot() -> Counters {
    Counters {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Restarts the high-water mark from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, because the counters are process-wide and `cargo test` runs
    // tests on parallel threads: other tests allocate while this one counts,
    // so it asserts lower bounds only.
    #[test]
    fn counts_only_while_enabled_and_tracks_the_peak() {
        start();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let during = snapshot();
        drop(v);
        stop();
        assert!(during.allocs >= 1);
        assert!(during.bytes >= 1 << 20);
        assert!(during.peak >= 1 << 20);
        let after = snapshot();
        let _w: Vec<u8> = Vec::with_capacity(1 << 20);
        let later = snapshot();
        // Other test threads cannot bump the counters while counting is off.
        assert_eq!(after.allocs, later.allocs);
    }
}
