//! What a registry snapshot costs in allocations, counted, not timed.
//!
//! A counting global allocator counts the allocations each thread makes.
//! `MetricsRegistry::snapshot_into` fills a snapshot in place and inserts
//! only the names it lacks: once a snapshot holds every registered name,
//! filling it again allocates nothing, histograms included, and it then
//! equals a fresh `snapshot()`. A deployment's shard 0 takes its round
//! snapshots this way, on the thread that forwards packets.

use fatih::obs::{MetricsRegistry, MetricsSnapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations this thread has made (const-initialised, so reading it
    /// allocates nothing).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn counted() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is passed to `System` unchanged; counting touches a
// thread-local `Cell` only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_snapshot_that_holds_every_name_is_filled_without_allocating() {
    let reg = MetricsRegistry::new();
    for i in 0..40 {
        reg.counter(&format!("net.counter_{i}")).add(i);
    }
    reg.gauge("net.gauge").set(1.5);
    for i in 0..5 {
        reg.histogram(&format!("net.hist_{i}")).record(1_000 + i);
    }
    let mut snap = MetricsSnapshot::default();
    reg.snapshot_into(&mut snap);
    assert_eq!(snap, reg.snapshot());

    for round in 1..=3u64 {
        reg.counter("net.counter_7").add(round);
        reg.gauge("net.gauge").set(round as f64);
        reg.histogram("net.hist_2").record(round * 1_000_000);
        let spent = allocations(|| reg.snapshot_into(&mut snap));
        assert_eq!(spent, 0, "round {round}: filling the snapshot allocated");
        assert_eq!(snap, reg.snapshot(), "round {round}");
    }

    // A name registered since is inserted; the others are filled in place.
    reg.counter("net.late").inc();
    reg.snapshot_into(&mut snap);
    assert_eq!(snap, reg.snapshot());
    assert_eq!(allocations(|| reg.snapshot_into(&mut snap)), 0);
}
