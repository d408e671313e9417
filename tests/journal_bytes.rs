//! What merging the trace rings costs in bytes, counted, not timed.
//!
//! A merged `TraceJournal` keeps each ring's 32-byte slots in the ring's
//! own allocation and adds one 4-byte position an event, which puts the
//! ring's slots in time order. A counting global allocator counts the
//! bytes each thread asks for: merging buffers that hold N events in all
//! may ask for at most 4·N bytes and a constant (a journal that copied
//! every slot into a 48-byte `TraceEvent` asks for 48·N), and reading the
//! merged events, however often, asks for nothing.

use fatih::obs::trace::NO_ROUND;
use fatih::obs::{TraceBuffer, TraceJournal, TraceKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations this thread has made and the bytes they asked for
    /// (const-initialised, so reading them allocates nothing).
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn counted(bytes: usize) {
    ALLOCATED.with(|a| {
        let (n, b) = a.get();
        a.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call is passed to `System` unchanged; counting touches a
// thread-local `Cell` only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made and bytes asked for by `f` on this thread.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (n0, b0) = ALLOCATED.with(Cell::get);
    let out = f();
    let (n1, b1) = ALLOCATED.with(Cell::get);
    (out, n1 - n0, b1 - b0)
}

/// Four shards' rings, as a deployment's teardown hands them over: the
/// first wrapped (its oldest events overwritten), the others not; taps
/// stamped with a time earlier than the record before them, and equal
/// times across shards. Returns the buffers and the events they hold.
fn rings() -> (Vec<TraceBuffer>, usize) {
    let mut buffers = Vec::new();
    for shard in 0..4u32 {
        let capacity = if shard == 0 { 20_000 } else { 1 << 16 };
        let mut buf = TraceBuffer::new(shard, capacity);
        for i in 0..30_000u64 {
            let t = 1_000 * i - (i % 7) * 300;
            buf.record(t, TraceKind::PacketTap, i as u32 % 16, NO_ROUND, i);
        }
        buffers.push(buf);
    }
    let held = buffers.iter().map(TraceBuffer::len).sum();
    (buffers, held)
}

#[test]
fn merging_asks_four_bytes_an_event_beyond_the_rings() {
    const SLACK: u64 = 256;
    let (buffers, n) = rings();
    let (journal, calls, bytes) = allocated(|| TraceJournal::from_buffers(buffers));
    assert_eq!(journal.len(), n);
    assert_eq!(journal.dropped(), 10_000);
    println!("merging {n} events asked for {bytes} B in {calls} allocations");
    assert!(
        bytes <= 4 * n as u64 + SLACK,
        "{bytes} B to merge {n} events: more than 4 B an event"
    );
}

#[test]
fn reading_the_journal_allocates_nothing() {
    let (buffers, n) = rings();
    let journal = TraceJournal::from_buffers(buffers);
    let (read, calls, bytes) = allocated(|| {
        let mut read = 0;
        let mut last = (0, 0, 0);
        for e in journal.events() {
            assert!((e.t_ns, e.shard, e.seq) > last || read == 0);
            last = (e.t_ns, e.shard, e.seq);
            read += 1;
        }
        let found = journal.events().iter().find(|e| e.value == 29_999);
        assert!(found.is_some());
        assert!(journal.events() == journal.events());
        assert_eq!(journal.events().len(), n);
        read
    });
    assert_eq!(read, n);
    assert_eq!((calls, bytes), (0, 0), "reading {n} events allocated");
}
