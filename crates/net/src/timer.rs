//! A deadline-ordered timer queue.
//!
//! Each shard keeps one queue for all of its routers' timers — flow ticks,
//! round boundaries, evaluation deadlines, retransmit pumps, churn steps,
//! its own stop — and blocks in one `epoll` wait until a socket is
//! readable or the earliest deadline is due. The queue is one binary heap
//! ordered by (deadline, insertion order): scheduling and popping an entry
//! cost O(log n), and asking for the earliest deadline or finding nothing
//! due costs O(1), however many entries wait and however far ahead.
//! Firing is exact: an entry never fires before its deadline.
//!
//! Deadlines are `u64` nanoseconds on whatever monotonic axis the caller
//! uses (the runtime uses nanoseconds since its shared epoch).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A timer queue storing items of type `T` by deadline. Entries are
/// ordered by (deadline, insertion order) alone — the insertion counter
/// is unique, so the items' own order never decides — but the heap asks
/// `T` for one all the same.
#[derive(Debug)]
pub struct TimerWheel<T> {
    heap: BinaryHeap<Reverse<(u64, u64, T)>>,
    tie: u64,
}

impl<T: Ord> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord> TimerWheel<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            tie: 0,
        }
    }

    /// Number of scheduled entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `item` to fire at `deadline_ns`. Entries fire in deadline
    /// order; same-deadline entries in insertion order.
    pub fn schedule(&mut self, deadline_ns: u64, item: T) {
        self.heap.push(Reverse((deadline_ns, self.tie, item)));
        self.tie += 1;
    }

    /// Removes and returns every item whose deadline is ≤ `now_ns`, in
    /// deadline order.
    pub fn pop_due(&mut self, now_ns: u64) -> Vec<T> {
        let mut due = Vec::new();
        while self.next_deadline().is_some_and(|d| d <= now_ns) {
            let Reverse((_, _, item)) = self.heap.pop().expect("an entry is due");
            due.push(item);
        }
        due
    }

    /// The earliest scheduled deadline, if any.
    pub fn next_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((deadline, _, _))| *deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The geometry of the hashed wheel this queue replaced (64 slots of
    /// 4 ms, an overflow map beyond them). The tests below were written
    /// against it and still place entries on both sides of its horizon.
    const SLOTS: usize = 64;
    const GRANULARITY_NS: u64 = 4_000_000;

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimerWheel::new();
        w.schedule(30, "c");
        w.schedule(10, "a");
        w.schedule(20, "b");
        assert_eq!(w.next_deadline(), Some(10));
        assert_eq!(w.pop_due(25), vec!["a", "b"]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(25), Vec::<&str>::new());
        assert_eq!(w.pop_due(30), vec!["c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn never_fires_early() {
        let mut w = TimerWheel::new();
        w.schedule(1_000_000, "x");
        assert!(w.pop_due(999_999).is_empty());
        assert_eq!(w.pop_due(1_000_000), vec!["x"]);
    }

    #[test]
    fn far_deadlines_wait_in_overflow_and_fire_exactly() {
        let mut w = TimerWheel::new();
        // Far beyond the ring horizon (256ms): must not alias into an
        // earlier lap.
        let far = 10 * (SLOTS as u64) * GRANULARITY_NS + 123;
        w.schedule(far, "far");
        w.schedule(GRANULARITY_NS, "near");
        assert_eq!(w.next_deadline(), Some(GRANULARITY_NS));
        assert_eq!(w.pop_due(far - 1), vec!["near"]);
        assert_eq!(w.next_deadline(), Some(far));
        assert_eq!(w.pop_due(far), vec!["far"]);
    }

    #[test]
    fn interleaves_ring_and_overflow_in_order() {
        let mut w = TimerWheel::new();
        let far = 3 * (SLOTS as u64) * GRANULARITY_NS;
        w.schedule(far + 5, 2);
        w.schedule(1, 0);
        w.schedule(far + 1, 1);
        assert_eq!(w.pop_due(u64::MAX), vec![0, 1, 2]);
    }

    #[test]
    fn many_entries_across_laps() {
        let mut w = TimerWheel::new();
        for i in 0..1000u64 {
            w.schedule(i * GRANULARITY_NS / 3, i);
        }
        assert_eq!(w.len(), 1000);
        let mut got = Vec::new();
        let mut now = 0;
        while !w.is_empty() {
            now += GRANULARITY_NS;
            got.extend(w.pop_due(now));
        }
        let expect: Vec<u64> = (0..1000).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn same_deadline_entries_fire_in_insertion_order() {
        let mut w = TimerWheel::new();
        for i in 0..100u64 {
            w.schedule(7 + i % 2, i);
        }
        let (even, odd): (Vec<u64>, Vec<u64>) = (0..100).partition(|i| i % 2 == 0);
        assert_eq!(w.pop_due(7), even);
        assert_eq!(w.pop_due(8), odd);
    }
}
