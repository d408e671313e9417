//! The structured trace journal: typed events in per-shard ring
//! buffers, merged and exported after a run.
//!
//! Two rules keep the hot path cheap and honest:
//!
//! * **Lock-free by ownership.** Each shard thread exclusively owns its
//!   [`TraceBuffer`]; recording is a plain method call on owned memory —
//!   no atomics, no locks, no allocation after construction. The buffers
//!   meet only after the threads join, when [`TraceJournal::from_buffers`]
//!   merges them into one time-ordered journal.
//! * **Totals survive overwrite.** The ring overwrites its oldest events
//!   when full (a long run must not grow without bound), but per-kind
//!   totals are kept outside the ring, so rare events — an accusation
//!   raised once in a million packets — stay countable exactly even when
//!   their payload was pushed out by chatter. [`TraceBuffer::dropped`]
//!   says how many events were overwritten.
//! * **Counted, not kept.** An event whose readers use only its total —
//!   a packet tap, a timer that only ticked flows — is
//!   [counted](TraceBuffer::count): its kind's total rises and no slot is
//!   written, so per-packet events cannot push the control plane's out of
//!   the ring. The journal and its JSONL carry these totals.
//! * **Slots kept in place.** A ring keeps 32 bytes an event (its shard
//!   and sequence number follow from where the slot sits), and the merged
//!   journal keeps those slots in the rings' own allocations, adding a
//!   4-byte position an event that puts each ring in time order: 36 bytes
//!   an event, of which the 32 were resident before the merge.
//!   [`TraceJournal::events`] merges the rings as it is read and yields
//!   each 48-byte [`TraceEvent`] by value; none is stored.
//!
//! Exports: [`TraceJournal::to_jsonl`] (one JSON object per line, exact
//! round trip via [`TraceJournal::from_jsonl`]) and
//! [`TraceJournal::to_chrome_trace`] (the `chrome://tracing` /
//! [Perfetto](https://ui.perfetto.dev) trace-event format, with rounds as
//! duration slices and everything else as instant events).

use crate::json::{self, JsonError, JsonValue};
use std::collections::BTreeMap;
use std::fmt;

/// Placeholder router id for events not tied to a router.
pub const NO_ROUTER: u32 = u32::MAX;
/// Placeholder round number for events not tied to a round.
pub const NO_ROUND: u64 = u64::MAX;

macro_rules! trace_kinds {
    ($($variant:ident => $name:literal,)+) => {
        /// What happened. The set mirrors the decisions Chapter 7 audits:
        /// traffic observed, rounds delimited, summaries exchanged or
        /// reconciled, accusations raised, and the delivery machinery
        /// (timers, retransmits) underneath them.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum TraceKind {
            $(
                #[doc = concat!("Serialized as `\"", $name, "\"`.")]
                $variant,
            )+
        }

        impl TraceKind {
            /// Every kind, in declaration order.
            pub const ALL: &'static [TraceKind] = &[$(TraceKind::$variant,)+];

            /// The snake_case wire name used in JSONL and chrome-trace
            /// exports.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(TraceKind::$variant => $name,)+
                }
            }

            /// Inverse of [`TraceKind::as_str`].
            pub fn parse(s: &str) -> Option<TraceKind> {
                match s {
                    $($name => Some(TraceKind::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

trace_kinds! {
    PacketTap => "packet_tap",
    RoundStart => "round_start",
    RoundEnd => "round_end",
    SummarySent => "summary_sent",
    DigestSent => "digest_sent",
    DigestResolved => "digest_resolved",
    DigestFallback => "digest_fallback",
    SummaryTimeout => "summary_timeout",
    AccusationRaised => "accusation_raised",
    AlertSent => "alert_sent",
    TimerFired => "timer_fired",
    Retransmit => "retransmit",
    DeliveryExhausted => "delivery_exhausted",
    LinkStateApplied => "link_state_applied",
    EpochTransition => "epoch_transition",
    ChurnEvent => "churn_event",
    ProbationCleared => "probation_cleared",
}

const KINDS: usize = TraceKind::ALL.len();

/// One recorded event.
///
/// Fields are plain integers (not domain types) so every crate can
/// record into a buffer without `fatih-obs` depending on any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Per-shard sequence number, assigned at record time; together with
    /// `shard` it uniquely identifies the event.
    pub seq: u64,
    /// Monotonic timestamp in nanoseconds since the run's epoch.
    pub t_ns: u64,
    /// Shard that recorded the event.
    pub shard: u32,
    /// Router the event concerns, or [`NO_ROUTER`].
    pub router: u32,
    /// Protocol round, or [`NO_ROUND`].
    pub round: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific payload (batch size, byte count, accused router id,
    /// …); 0 when unused.
    pub value: u64,
}

/// What a [`TraceBuffer`]'s ring keeps of one event: 32 bytes, where a
/// [`TraceEvent`] takes 48. Its `seq` is its place in the ring and its
/// `shard` the buffer's, so neither is stored.
#[derive(Debug, Clone, Copy)]
struct Slot {
    t_ns: u64,
    value: u64,
    round: u64,
    router: u32,
    kind: TraceKind,
}

/// A bounded, overwrite-oldest ring of [`TraceEvent`]s owned by one
/// shard thread.
///
/// ```
/// use fatih_obs::{TraceBuffer, TraceKind};
/// let mut buf = TraceBuffer::new(0, 2);
/// buf.record(1, TraceKind::Retransmit, 7, 0, 1);
/// buf.record(2, TraceKind::Retransmit, 7, 0, 1);
/// buf.record(3, TraceKind::AccusationRaised, 7, 0, 9);
/// // Capacity 2: the first retransmit was overwritten, but totals survive.
/// assert_eq!(buf.len(), 2);
/// assert_eq!(buf.dropped(), 1);
/// assert_eq!(buf.recorded(TraceKind::Retransmit), 2);
/// assert_eq!(buf.recorded(TraceKind::AccusationRaised), 1);
/// // A counted event takes no slot and overwrites nothing.
/// buf.count(TraceKind::PacketTap);
/// assert_eq!((buf.len(), buf.dropped()), (2, 1));
/// assert_eq!(buf.recorded(TraceKind::PacketTap), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    shard: u32,
    capacity: usize,
    next_seq: u64,
    ring: std::collections::VecDeque<Slot>,
    dropped: u64,
    recorded: [u64; KINDS],
    /// The part of `recorded` that was counted, never written to the ring.
    counted: [u64; KINDS],
}

impl TraceBuffer {
    /// An empty buffer for `shard` holding at most `capacity` events
    /// (at least 1).
    pub fn new(shard: u32, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            shard,
            capacity,
            next_seq: 0,
            ring: std::collections::VecDeque::with_capacity(capacity),
            dropped: 0,
            recorded: [0; KINDS],
            counted: [0; KINDS],
        }
    }

    /// Records one event, overwriting the oldest if the ring is full.
    #[inline]
    pub fn record(&mut self, t_ns: u64, kind: TraceKind, router: u32, round: u64, value: u64) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(Slot {
            t_ns,
            value,
            round,
            router,
            kind,
        });
        self.next_seq += 1;
        self.recorded[kind as usize] += 1;
    }

    /// Counts one event of `kind` without writing a slot: it raises
    /// [`recorded`](Self::recorded) and nothing else, for events whose
    /// readers use only their total.
    #[inline]
    pub fn count(&mut self, kind: TraceKind) {
        self.recorded[kind as usize] += 1;
        self.counted[kind as usize] += 1;
    }

    /// Shard this buffer belongs to.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded (or everything overwritten —
    /// impossible, the ring keeps the newest).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events of `kind` ever recorded, *including* overwritten
    /// and [counted](Self::count) ones.
    pub fn recorded(&self, kind: TraceKind) -> u64 {
        self.recorded[kind as usize]
    }
}

/// The merged, time-ordered journal of a whole run.
///
/// Built from the per-shard buffers after their threads join, it keeps
/// each ring's 32-byte slots in place, with a 4-byte time-order position
/// an event beside them: 36 bytes an event (module docs).
/// [`TraceJournal::events`] yields each [`TraceEvent`] by value, ordered
/// by `(t_ns, shard, seq)` so interleavings read causally per shard.
#[derive(Clone, Default)]
pub struct TraceJournal {
    runs: Vec<Run>,
    dropped: u64,
    recorded: [u64; KINDS],
    counted: [u64; KINDS],
}

/// Consecutive events of one shard: `slots[i]` is the event numbered
/// `first + i`.
#[derive(Debug, Clone)]
struct Run {
    shard: u32,
    first: u64,
    slots: Vec<Slot>,
    /// Positions in `slots`, sorted by `(t_ns, position)`, which within
    /// one run is the journal's `(t_ns, shard, seq)`. A tap carries its
    /// packet's own time, so a shard's record order need not be time
    /// order.
    order: Vec<u32>,
}

impl Run {
    fn new(shard: u32, first: u64, slots: Vec<Slot>) -> Self {
        let n = u32::try_from(slots.len()).expect("a run holds fewer than 2^32 events");
        let mut order: Vec<u32> = (0..n).collect();
        // The key reads this run's own slice, and a run already in time
        // order is sorted in one scan.
        let at = &slots[..];
        order.sort_unstable_by_key(|&i| (at[i as usize].t_ns, i));
        Self {
            shard,
            first,
            slots,
            order,
        }
    }

    /// This run's `k`-th event in time order.
    fn event(&self, k: usize) -> TraceEvent {
        let i = self.order[k];
        let s = self.slots[i as usize];
        TraceEvent {
            seq: self.first + u64::from(i),
            t_ns: s.t_ns,
            shard: self.shard,
            router: s.router,
            round: s.round,
            kind: s.kind,
            value: s.value,
        }
    }
}

impl TraceJournal {
    /// Merges shard buffers into one journal. Each buffer's ring becomes
    /// the journal's storage as it is: no slot is copied out of it.
    pub fn from_buffers<I: IntoIterator<Item = TraceBuffer>>(buffers: I) -> Self {
        let buffers = buffers.into_iter();
        let mut runs = Vec::with_capacity(buffers.size_hint().0);
        let mut dropped = 0;
        let (mut recorded, mut counted) = ([0u64; KINDS], [0u64; KINDS]);
        for buf in buffers {
            dropped += buf.dropped;
            add(&mut recorded, &buf.recorded);
            add(&mut counted, &buf.counted);
            // The ring holds the newest events, the last at `next_seq - 1`.
            let first = buf.next_seq - buf.ring.len() as u64;
            // `Vec::from` keeps the ring's allocation (a wrapped ring is
            // rotated in place).
            runs.push(Run::new(buf.shard, first, Vec::from(buf.ring)));
        }
        Self {
            runs,
            dropped,
            recorded,
            counted,
        }
    }

    /// All retained events, time-ordered, each built as it is read.
    pub fn events(&self) -> TraceEvents<'_> {
        TraceEvents { runs: &self.runs }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events().len()
    }

    /// True when no events were retained.
    pub fn is_empty(&self) -> bool {
        self.events().is_empty()
    }

    /// Events overwritten across all source buffers (0 means
    /// [`TraceJournal::events`] is complete).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events of `kind` ever recorded across all source buffers,
    /// including overwritten and counted ones — compare this against a
    /// metrics counter when auditing.
    pub fn recorded(&self, kind: TraceKind) -> u64 {
        self.recorded[kind as usize]
    }

    /// Serializes the journal as JSONL: one JSON object per event per
    /// line, then one `{"kind": …, "counted": n}` line per kind with
    /// counted events. [`TraceJournal::from_jsonl`] parses it back to an
    /// equal event list and equal counted totals.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.len() * 96);
        for e in self.events() {
            out.push_str(&format!(
                "{{\"seq\": {}, \"t_ns\": {}, \"shard\": {}, \"router\": {}, \
                 \"round\": {}, \"kind\": ",
                e.seq, e.t_ns, e.shard, e.router, e.round
            ));
            json::write_string(&mut out, e.kind.as_str());
            out.push_str(&format!(", \"value\": {}}}\n", e.value));
        }
        for (&kind, &n) in TraceKind::ALL.iter().zip(&self.counted) {
            if n > 0 {
                out.push_str("{\"kind\": ");
                json::write_string(&mut out, kind.as_str());
                out.push_str(&format!(", \"counted\": {n}}}\n"));
            }
        }
        out
    }

    /// Parses a journal back from its JSONL form, in any line order. Per-kind
    /// totals are the retained events plus the counted ones (overwrite
    /// counts are not part of the wire form, so `dropped` reads 0).
    pub fn from_jsonl(s: &str) -> Result<TraceJournal, JsonError> {
        // Each shard's numbered slots, in line order.
        let mut shards: BTreeMap<u32, Vec<(u64, Slot)>> = BTreeMap::new();
        let (mut recorded, mut counted) = ([0u64; KINDS], [0u64; KINDS]);
        for line in s.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let v = JsonValue::parse(line)?;
            let field = |name: &'static str| -> Result<u64, JsonError> {
                v.get(name).and_then(JsonValue::as_u64).ok_or(JsonError {
                    at: 0,
                    msg: "missing or non-integer event field",
                })
            };
            let kind = v
                .get("kind")
                .and_then(JsonValue::as_str)
                .and_then(TraceKind::parse)
                .ok_or(JsonError {
                    at: 0,
                    msg: "missing or unknown event kind",
                })?;
            if v.get("counted").is_some() {
                let total = &mut counted[kind as usize];
                *total = (total.checked_add(field("counted")?)).ok_or(OVERFLOW)?;
                continue;
            }
            recorded[kind as usize] += 1;
            let seq = field("seq")?;
            let slot = Slot {
                t_ns: field("t_ns")?,
                value: field("value")?,
                round: field("round")?,
                router: field("router")? as u32,
                kind,
            };
            let shard = field("shard")? as u32;
            shards.entry(shard).or_default().push((seq, slot));
        }
        let mut runs = Vec::with_capacity(shards.len());
        for (shard, mut slots) in shards {
            // Stable: slots that share a number keep their line order.
            slots.sort_by_key(|&(seq, _)| seq);
            // A run is a stretch of consecutive numbers.
            for stretch in slots.chunk_by(|a, b| a.0.checked_add(1) == Some(b.0)) {
                let kept = stretch.iter().map(|&(_, slot)| slot).collect();
                runs.push(Run::new(shard, stretch[0].0, kept));
            }
        }
        for (total, n) in recorded.iter_mut().zip(counted) {
            *total = total.checked_add(n).ok_or(OVERFLOW)?;
        }
        Ok(TraceJournal {
            runs,
            dropped: 0,
            recorded,
            counted,
        })
    }

    /// Serializes the journal in the `chrome://tracing` trace-event
    /// format: load the output in `chrome://tracing` or
    /// [Perfetto](https://ui.perfetto.dev) to see each shard as a
    /// process row, each router as a thread row, rounds as duration
    /// slices (`round_start`/`round_end` become `B`/`E` pairs) and all
    /// other events as instants. Timestamps are microseconds as the
    /// format requires; sub-microsecond ordering is preserved by the
    /// fractional part.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.len() * 128 + 64);
        out.push_str("{\"traceEvents\": [");
        for (i, e) in self.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // B/E pairs must share a name for the viewer to pair them
            // into one slice, so both round delimiters are named "round".
            let (ph, name) = match e.kind {
                TraceKind::RoundStart => ("B", "round"),
                TraceKind::RoundEnd => ("E", "round"),
                k => ("i", k.as_str()),
            };
            let ts = e.t_ns as f64 / 1_000.0;
            out.push_str("\n  {\"name\": ");
            json::write_string(&mut out, name);
            out.push_str(&format!(
                ", \"ph\": \"{ph}\", \"ts\": {}, \"pid\": {}, \"tid\": {}",
                json::fmt_f64(ts),
                e.shard,
                e.router
            ));
            if ph == "i" {
                out.push_str(", \"s\": \"t\"");
            }
            out.push_str(&format!(
                ", \"args\": {{\"seq\": {}, \"round\": {}, \"value\": {}}}}}",
                e.seq, e.round, e.value
            ));
        }
        out.push_str("\n]}");
        out
    }
}

/// Journals are equal when they read the same events and totals, however
/// their slots are laid out.
impl PartialEq for TraceJournal {
    fn eq(&self, other: &Self) -> bool {
        self.dropped == other.dropped
            && self.recorded == other.recorded
            && self.counted == other.counted
            && self.events() == other.events()
    }
}

impl Eq for TraceJournal {}

impl fmt::Debug for TraceJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceJournal")
            .field("events", &self.events())
            .field("dropped", &self.dropped)
            .field("recorded", &self.recorded)
            .field("counted", &self.counted)
            .finish()
    }
}

/// A JSONL journal whose counted lines add up past `u64::MAX`.
const OVERFLOW: JsonError = JsonError {
    at: 0,
    msg: "counted total overflows",
};

/// Adds per-kind totals `n` into `total`.
fn add(total: &mut [u64; KINDS], n: &[u64; KINDS]) {
    for (total, n) in total.iter_mut().zip(n) {
        *total += n;
    }
}

/// A [`TraceJournal`]'s events in `(t_ns, shard, seq)` order: a view that
/// merges the journal's runs as it is iterated and yields each
/// [`TraceEvent`] by value.
#[derive(Clone, Copy)]
pub struct TraceEvents<'a> {
    runs: &'a [Run],
}

impl<'a> TraceEvents<'a> {
    /// The events, time-ordered. Allocates nothing for a journal of up to
    /// 64 runs (one a buffer merged; [`TraceJournal::from_jsonl`] starts
    /// one wherever a shard's `seq` skips).
    pub fn iter(&self) -> TraceEventsIter<'a> {
        let n = self.runs.len();
        TraceEventsIter {
            runs: self.runs,
            inline: [0; INLINE_RUNS],
            heap: if n > INLINE_RUNS {
                vec![0; n]
            } else {
                Vec::new()
            },
            left: self.len(),
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.slots.len()).sum()
    }

    /// True when there are no events.
    pub fn is_empty(&self) -> bool {
        self.runs.iter().all(|r| r.slots.is_empty())
    }
}

impl<'a> IntoIterator for TraceEvents<'a> {
    type Item = TraceEvent;
    type IntoIter = TraceEventsIter<'a>;

    fn into_iter(self) -> TraceEventsIter<'a> {
        self.iter()
    }
}

impl PartialEq for TraceEvents<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for TraceEvents<'_> {}

impl fmt::Debug for TraceEvents<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Runs whose cursors a [`TraceEventsIter`] keeps inline.
const INLINE_RUNS: usize = 64;

/// Iterator over [`TraceEvents`]: the smallest `(t_ns, shard, seq)` among
/// the runs' next events, one at a time.
#[derive(Debug, Clone)]
pub struct TraceEventsIter<'a> {
    runs: &'a [Run],
    /// Each run's next place in its time order: in `inline` for up to
    /// [`INLINE_RUNS`] runs, in `heap` (empty otherwise) beyond.
    inline: [u32; INLINE_RUNS],
    heap: Vec<u32>,
    left: usize,
}

impl Iterator for TraceEventsIter<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        let at = if self.heap.is_empty() {
            &mut self.inline[..self.runs.len()]
        } else {
            &mut self.heap[..]
        };
        let key = |e: &TraceEvent| (e.t_ns, e.shard, e.seq);
        let mut next: Option<(usize, TraceEvent)> = None;
        for (r, (run, &k)) in self.runs.iter().zip(at.iter()).enumerate() {
            if (k as usize) < run.order.len() {
                let e = run.event(k as usize);
                // Strict: a tie (a number a JSONL input repeats) goes to
                // the earlier run.
                if next.is_none_or(|(_, least)| key(&e) < key(&least)) {
                    next = Some((r, e));
                }
            }
        }
        let (r, e) = next?;
        at[r] += 1;
        self.left -= 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for TraceEventsIter<'_> {}

impl std::iter::FusedIterator for TraceEventsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_journal() -> TraceJournal {
        let mut a = TraceBuffer::new(0, 64);
        let mut b = TraceBuffer::new(1, 64);
        a.record(100, TraceKind::RoundStart, NO_ROUTER, 0, 0);
        b.record(150, TraceKind::PacketTap, 4, 0, 32);
        a.record(150, TraceKind::TimerFired, 2, 0, 0);
        b.record(200, TraceKind::AccusationRaised, 4, 0, 5);
        a.record(300, TraceKind::RoundEnd, NO_ROUTER, 0, 0);
        TraceJournal::from_buffers([a, b])
    }

    #[test]
    fn merge_orders_by_time_then_shard() {
        let j = sample_journal();
        let order: Vec<(u64, u32)> = j.events().iter().map(|e| (e.t_ns, e.shard)).collect();
        assert_eq!(
            order,
            vec![(100, 0), (150, 0), (150, 1), (200, 1), (300, 0)]
        );
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let j = sample_journal();
        let back = TraceJournal::from_jsonl(&j.to_jsonl()).unwrap();
        assert_eq!(back.events(), j.events());
        for &k in TraceKind::ALL {
            assert_eq!(back.recorded(k), j.recorded(k), "kind {k:?}");
        }
    }

    #[test]
    fn overwrite_keeps_totals_and_counts_drops() {
        let mut buf = TraceBuffer::new(0, 4);
        for i in 0..100 {
            buf.record(i, TraceKind::PacketTap, 1, 0, 0);
        }
        buf.record(100, TraceKind::AccusationRaised, 1, 0, 0);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped(), 97);
        assert_eq!(buf.recorded(TraceKind::PacketTap), 100);
        assert_eq!(buf.recorded(TraceKind::AccusationRaised), 1);
        let j = TraceJournal::from_buffers([buf]);
        assert_eq!(j.dropped(), 97);
        assert_eq!(j.recorded(TraceKind::PacketTap), 100);
        // The newest events are the retained ones, numbered as recorded.
        assert_eq!(
            j.events().iter().last().unwrap().kind,
            TraceKind::AccusationRaised
        );
        let seqs: Vec<u64> = j.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [97, 98, 99, 100]);
    }

    /// A counted event raises its kind's total and nothing else: it takes
    /// no slot and overwrites none, and the journal and its JSONL keep
    /// the total.
    #[test]
    fn a_counted_event_raises_its_total_and_takes_no_slot() {
        let mut buf = TraceBuffer::new(2, 4);
        for r in 0..3 {
            buf.record(r, TraceKind::RoundEnd, 1, r, 0);
        }
        for _ in 0..1_000 {
            buf.count(TraceKind::PacketTap);
        }
        buf.record(3, TraceKind::TimerFired, 1, NO_ROUND, 0);
        buf.count(TraceKind::TimerFired);
        assert_eq!((buf.len(), buf.dropped()), (4, 0));
        assert_eq!(buf.recorded(TraceKind::PacketTap), 1_000);
        assert_eq!(buf.recorded(TraceKind::TimerFired), 2);
        assert_eq!(buf.recorded(TraceKind::RoundEnd), 3);

        let j = TraceJournal::from_buffers([buf]);
        assert_eq!((j.len(), j.dropped()), (4, 0));
        assert_eq!(j.recorded(TraceKind::PacketTap), 1_000);
        assert_eq!(j.recorded(TraceKind::TimerFired), 2);
        let jsonl = j.to_jsonl();
        assert_eq!(
            jsonl.lines().count(),
            4 + 2,
            "an event a line, a line a counted kind"
        );
        let back = TraceJournal::from_jsonl(&jsonl).unwrap();
        assert_eq!(back, j);
        for &k in TraceKind::ALL {
            assert_eq!(back.recorded(k), j.recorded(k), "kind {k:?}");
        }
        // Counted lines may come in any order, and add up.
        let mut lines: Vec<&str> = jsonl.lines().collect();
        lines.reverse();
        let twice = format!("{}\n{}", lines.join("\n"), lines[0]);
        let back = TraceJournal::from_jsonl(&twice).unwrap();
        assert_eq!(back.events(), j.events());
        assert_eq!(back.recorded(TraceKind::PacketTap), 1_000);
        assert_eq!(back.recorded(TraceKind::TimerFired), 3, "{twice}");
        assert!(TraceJournal::from_jsonl("{\"kind\": \"packet_tap\", \"counted\": -1}").is_err());
        let max = format!("{{\"kind\": \"packet_tap\", \"counted\": {}}}", u64::MAX);
        assert!(TraceJournal::from_jsonl(&format!("{max}\n{max}")).is_err());
    }

    /// A ring slot is two thirds of the event it stands for; the journal
    /// gives each event back its buffer's shard and its sequence number.
    #[test]
    fn a_slot_keeps_what_the_ring_cannot_derive() {
        assert_eq!(size_of::<Slot>(), 32);
        assert_eq!(size_of::<TraceEvent>(), 48);
        let mut buf = TraceBuffer::new(3, 2);
        for t in 0..5 {
            buf.record(t, TraceKind::Retransmit, 9, 4, t * 10);
        }
        let j = TraceJournal::from_buffers([buf]);
        let last = TraceEvent {
            seq: 4,
            t_ns: 4,
            shard: 3,
            router: 9,
            round: 4,
            kind: TraceKind::Retransmit,
            value: 40,
        };
        assert_eq!(
            j.events().iter().collect::<Vec<_>>(),
            [
                TraceEvent {
                    seq: 3,
                    t_ns: 3,
                    value: 30,
                    ..last
                },
                last
            ]
        );
    }

    #[test]
    fn chrome_trace_is_valid_json_with_round_slices() {
        let j = sample_journal();
        let v = JsonValue::parse(&j.to_chrome_trace()).expect("valid json");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), j.len());
        let phs: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phs.iter().filter(|p| **p == "B").count(), 1);
        assert_eq!(phs.iter().filter(|p| **p == "E").count(), 1);
        assert!(phs.iter().filter(|p| **p == "i").count() >= 3);
        // ts is µs: the 150ns event reads back as 0.15.
        let ts = events[1].get("ts").unwrap().as_f64().unwrap();
        assert!((ts - 0.15).abs() < 1e-9, "ts {ts}");
    }

    #[test]
    fn kind_names_round_trip() {
        for &k in TraceKind::ALL {
            assert_eq!(TraceKind::parse(k.as_str()), Some(k), "{k:?}");
        }
        assert_eq!(TraceKind::parse("not_a_kind"), None);
    }

    #[test]
    fn from_jsonl_rejects_bad_lines() {
        assert!(TraceJournal::from_jsonl("{\"seq\": 1}").is_err());
        assert!(TraceJournal::from_jsonl("not json").is_err());
        let ok = TraceJournal::from_jsonl("\n\n").unwrap();
        assert!(ok.is_empty());
    }
}
