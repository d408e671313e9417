//! A deadline-ordered timer queue.
//!
//! Each host keeps one queue of its routers keyed by their deadlines
//! (`Schedule`) — a shard also keeps its own stop there — and a shard
//! blocks in one `epoll` wait until a socket is readable or the earliest
//! deadline is due. The queue is one binary heap
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
        self.pop_due_into(now_ns, &mut due);
        due
    }

    /// [`pop_due`](Self::pop_due) appended to `due`, a buffer the caller
    /// reuses: a shard's loop allocates nothing to fire its timers.
    pub fn pop_due_into(&mut self, now_ns: u64, due: &mut Vec<T>) {
        while self.next_deadline().is_some_and(|d| d <= now_ns) {
            let Reverse((_, _, item)) = self.heap.pop().expect("an entry is due");
            due.push(item);
        }
    }

    /// The earliest scheduled deadline, if any.
    pub fn next_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((deadline, _, _))| *deadline)
    }
}

/// A host's routers on one [`TimerWheel`], by index, keyed by deadline.
///
/// The host re-arms a router after every step that may have moved its
/// deadline. An entry is pushed only when that deadline is earlier than
/// any the wheel already holds for the router; an entry whose router's
/// deadline has since moved later stays behind, stale, and
/// [`next_due`](Self::next_due) checks every popped entry against the
/// router's current deadline. A stale pop re-arms at most the one entry
/// it took the place of, so stale entries never grow the wheel.
#[derive(Debug)]
pub(crate) struct Schedule {
    /// (deadline, index) by deadline.
    wheel: TimerWheel<(u64, usize)>,
    /// Per index, the earliest deadline the wheel holds for it;
    /// `u64::MAX`: none that is known.
    armed: Vec<u64>,
    /// While `serving`, the rest of the batch being handed out, next last.
    popped: Vec<(u64, usize)>,
    serving: bool,
}

impl Schedule {
    /// An empty schedule for indices `0..slots`.
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            wheel: TimerWheel::new(),
            armed: vec![u64::MAX; slots],
            popped: Vec::new(),
            serving: false,
        }
    }

    /// Index `i` is next due at `deadline`: pushed if that is earlier than
    /// any entry the wheel holds for it.
    pub(crate) fn arm(&mut self, i: usize, deadline: Option<u64>) {
        if let Some(d) = deadline.filter(|&d| d < self.armed[i]) {
            self.armed[i] = d;
            self.wheel.schedule(d, (d, i));
        }
    }

    /// The next index to step with a timeout at `now`, of the entries due
    /// by `now` when the batch began, in (deadline, index) order, each
    /// once; an entry whose `deadline` (asked once an entry) has moved
    /// later is re-armed and steps nobody. `None` ends the batch: what is
    /// armed meanwhile, due or not, waits for the next. A stalled flow is
    /// due again at once (`flows::Traffic::advance`), so this rule sets
    /// how many packets a closed loop keeps in flight: `sat-line6`'s one
    /// packet depends on it, and refilling the batch within one call
    /// doubled its p50 latency.
    pub(crate) fn next_due(
        &mut self,
        now: u64,
        mut deadline: impl FnMut(usize) -> Option<u64>,
    ) -> Option<usize> {
        if !self.serving {
            self.serving = true;
            self.wheel.pop_due_into(now, &mut self.popped);
            self.popped.sort_unstable_by(|a, b| b.cmp(a));
            self.popped.dedup();
            for &(d, i) in &self.popped {
                if self.armed[i] == d {
                    self.armed[i] = u64::MAX;
                }
            }
        }
        while let Some((_, i)) = self.popped.pop() {
            match deadline(i) {
                Some(d) if d <= now => return Some(i),
                later => self.arm(i, later),
            }
        }
        self.serving = false;
        None
    }

    /// The earliest deadline on the wheel, stale or not.
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        self.wheel.next_deadline()
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

    /// A batch hands out what was due when it began, in (deadline, index)
    /// order, each once; a stale entry is re-armed and steps nobody, and
    /// an index armed due during the batch waits for the next one.
    #[test]
    fn a_batch_hands_out_what_was_due_when_it_began() {
        let mut s = Schedule::new(4);
        for (i, d) in [(2, 10), (0, 10), (1, 5), (3, 7)] {
            s.arm(i, Some(d));
        }
        // Index 3's deadline has moved on to 30: its entry at 7 is stale.
        let deadline = |i: usize| Some([10, 5, 10, 30][i]);
        let mut got = Vec::new();
        while let Some(i) = s.next_due(10, deadline) {
            got.push(i);
            if i == 1 {
                s.arm(1, Some(10)); // stepped, and due again at once
            }
        }
        assert_eq!(got, [1, 0, 2]);
        assert_eq!(s.next_due(10, |_| Some(10)), Some(1));
        assert_eq!(s.next_due(10, |_| Some(10)), None);
        assert_eq!(s.next_deadline(), Some(30));
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
