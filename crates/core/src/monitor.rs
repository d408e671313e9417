//! Per-segment traffic monitoring: building `info(r, π, τ)` from what each
//! router locally observes.
//!
//! Each router r monitors the set `P_r` of path segments (§5.1/§5.2). For a
//! segment π, a router that is not π's sink records the packets it
//! *forwards* to its successor in π; the sink records the packets it
//! *receives* from its predecessor. A packet belongs to π's traffic when
//! its (predictable, §4.1) route contains π as a contiguous subsequence.
//!
//! The same machinery serves Protocol Π2 (every member records) and
//! Protocol Πk+2 (only the two ends record, optionally subsampling with a
//! secret trajectory-sampling pattern, §5.2.1).

use crate::rounds::Window;
use fatih_crypto::uhash::FINGERPRINT_PRIME;
use fatih_crypto::{Fingerprint, KeyStore, UhashKey};
use fatih_obs::{Counter, Gauge, MetricsRegistry};
use fatih_sim::{Packet, PacketId, SimTime, TapEvent};
use fatih_topology::{Path, PathSegment, RouterId, Routes};
use fatih_validation::digest::ContentDigest;
use fatih_validation::sampling::SamplingPattern;
use fatih_validation::summary::{ContentSummary, FlowCounter, OrderedSummary};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

/// One recorded packet observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportEntry {
    /// Keyed packet fingerprint.
    pub fingerprint: Fingerprint,
    /// Packet size in bytes.
    pub size: u32,
    /// Local observation time.
    pub time: SimTime,
}

/// One router's traffic record for one segment, in forwarding order: the
/// concrete `info(r, π, τ)`.
///
/// Entries carry their observation time so validation can restrict itself
/// to *mature* packets — ones old enough that every downstream recorder
/// must have seen them if they were forwarded — which is how the protocols
/// avoid judging packets still in flight at a round boundary (the skew
/// tolerance of §5.3.1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    /// Observations, in order.
    pub entries: Vec<ReportEntry>,
}

impl Report {
    /// Number of packets recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries observed in `(after, until]`; `None` leaves that side of
    /// the window open.
    ///
    /// Entries are appended in observation-time order (the simulator
    /// delivers events in time order and a live node's clock is
    /// monotonic; [`decode`](Self::decode) rejects reports that violate
    /// it), so each bound is a binary search and the window a slice copy
    /// rather than a full clone-and-filter.
    pub fn window(&self, after: Option<SimTime>, until: Option<SimTime>) -> Report {
        debug_assert!(
            self.entries.windows(2).all(|w| w[0].time <= w[1].time),
            "report entries out of observation-time order"
        );
        let lo = after.map_or(0, |t| self.entries.partition_point(|e| e.time <= t));
        let hi = until.map_or(self.entries.len(), |t| {
            self.entries.partition_point(|e| e.time <= t)
        });
        Report {
            entries: self.entries[lo..hi.max(lo)].to_vec(),
        }
    }

    /// Conservation-of-content view.
    ///
    /// Large reports are summarized in parallel: the entry list is split
    /// into contiguous shards, each shard sort-aggregates its fingerprints
    /// on its own thread (`std::thread::scope`), and the sorted partials
    /// are merge-joined into one [`ContentSummary`] — the same multiset a
    /// sequential pass builds, since summarization is order-insensitive.
    pub fn to_content(&self) -> ContentSummary {
        /// Below this many entries the shard setup costs more than it
        /// saves.
        const SHARD_MIN: usize = 16 * 1024;
        if self.entries.len() < SHARD_MIN {
            let mut s = ContentSummary::default();
            for e in &self.entries {
                s.observe(e.fingerprint, e.size as u64);
            }
            return s;
        }
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(self.entries.len() / SHARD_MIN)
            .clamp(1, 8);
        let shard_len = self.entries.len().div_ceil(threads);
        let partials: Vec<(Vec<(Fingerprint, u32)>, FlowCounter)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .entries
                .chunks(shard_len)
                .map(|shard| scope.spawn(move || summarize_shard(shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("summarizer shard panicked"))
                .collect()
        });
        let mut flow = FlowCounter::default();
        let mut merged: Vec<(Fingerprint, u32)> = Vec::new();
        for (partial, shard_flow) in partials {
            merged = merge_sorted_counts(merged, partial);
            flow.merge(&shard_flow);
        }
        ContentSummary::from_sorted(merged, flow)
    }

    /// Conservation-of-order view.
    pub fn to_ordered(&self) -> OrderedSummary {
        let mut flow = FlowCounter::default();
        let seq = self
            .entries
            .iter()
            .map(|e| {
                flow.observe(e.size as u64);
                e.fingerprint
            })
            .collect();
        OrderedSummary::from_sequence(seq, flow)
    }

    /// Canonical bytes for signing/MACing: the entries in a [`Record`]'s
    /// columns, built by [`Record::push`]. Little-endian, the entry count
    /// (u64), the time marks' and the size runs' counts (u32 each), the
    /// fingerprints, the low time words, the marks, then the runs.
    pub fn encode(&self) -> Vec<u8> {
        self.entries.iter().copied().collect::<Record>().encode()
    }

    /// Decodes [`encode`](Self::encode)'s output; `None` on malformed
    /// input (a garbled report from a protocol-faulty router), with
    /// nothing allocated. Entries out of observation-time order are
    /// malformed too: a correct recorder appends monotonically, and
    /// [`window`](Self::window) relies on the ordering — an adversarial
    /// permutation could otherwise smuggle entries past the maturity
    /// cutoff.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        Record::decode(bytes).map(|record| record.after(None).to_report())
    }
}

/// One router's record of one segment: a [`Report`]'s entries in
/// columns, 12 bytes an entry while the sizes repeat.
///
/// Each entry's fingerprint (8 B) and the low 32 bits of its nanosecond
/// observation time (4 B) are columns; the high 32 bits and the sizes are
/// runs — `(first index, value)` pairs, a pair where the value changes. A
/// round's times span a few 2³² ns (4.3 s) at most, so the time marks
/// stay a handful and every time is exact; a run of one size is one pair,
/// and sizes that all differ cost 8 B an entry more (20 B in all). Entries
/// are appended in observation-time order, as a [`Report`]'s are, so each
/// time bound is a binary search of the low words within one mark.
///
/// [`prune`](Self::prune) drops from the front and keeps every column's
/// capacity, and the mark and run lists are reserved at construction: a
/// record that has grown to a round's traffic records the next round
/// without allocating.
///
/// A summary crosses the wire in the same columns
/// ([`Report::encode`]), so its bytes are what it holds here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    fingerprints: Vec<Fingerprint>,
    /// The low 32 bits of each entry's observation time, in ns.
    time_lo: Vec<u32>,
    /// `(first index, high 32 bits)`: the time marks.
    time_hi: Vec<(u32, u32)>,
    /// `(first index, size)`: the size runs.
    sizes: Vec<(u32, u32)>,
}

/// Time marks and size runs reserved per record.
const RUNS_RESERVED: usize = 4;

/// Bytes ahead of a record's columns on the wire: the entry count (u64),
/// then the time marks' and the size runs' counts (u32 each).
const WIRE_HEADER: usize = 16;

impl Default for Record {
    fn default() -> Self {
        Self {
            fingerprints: Vec::new(),
            time_lo: Vec::new(),
            time_hi: Vec::with_capacity(RUNS_RESERVED),
            sizes: Vec::with_capacity(RUNS_RESERVED),
        }
    }
}

impl FromIterator<ReportEntry> for Record {
    fn from_iter<I: IntoIterator<Item = ReportEntry>>(entries: I) -> Self {
        let entries = entries.into_iter();
        let mut record = Record::default();
        record.fingerprints.reserve(entries.size_hint().0);
        record.time_lo.reserve(entries.size_hint().0);
        entries.for_each(|e| record.push(e));
        record
    }
}

impl Record {
    /// Entries held.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// Bytes the held entries take in the columns, marks and runs (not
    /// their spare capacity).
    pub(crate) fn held_bytes(&self) -> usize {
        let runs = self.time_hi.len() + self.sizes.len();
        self.len() * (size_of::<Fingerprint>() + size_of::<u32>()) + runs * size_of::<(u32, u32)>()
    }

    /// Appends one observation, no earlier than the last.
    #[inline]
    pub fn push(&mut self, e: ReportEntry) {
        let ns = e.time.as_ns();
        let hi = (ns >> 32) as u32;
        let in_runs = |runs: &[(u32, u32)], v: u32| runs.last().is_some_and(|&(_, w)| w == v);
        if !(in_runs(&self.time_hi, hi) && in_runs(&self.sizes, e.size)) {
            self.open_runs(hi, e.size);
        }
        self.fingerprints.push(e.fingerprint);
        self.time_lo.push(ns as u32);
    }

    /// Starts a time mark or a size run (or both) at the next entry.
    #[cold]
    fn open_runs(&mut self, hi: u32, size: u32) {
        let at = u32::try_from(self.len()).expect("a record holds fewer than 2³² entries");
        for (runs, v) in [(&mut self.time_hi, hi), (&mut self.sizes, size)] {
            if runs.last().is_none_or(|&(_, w)| w != v) {
                runs.push((at, v));
            }
        }
    }

    /// How many entries were observed at or before `t`: the slice
    /// `partition_point` of a [`Report`]'s entries.
    fn upto(&self, t: SimTime) -> usize {
        let (hi, lo) = ((t.as_ns() >> 32) as u32, t.as_ns() as u32);
        for (span, h) in runs(&self.time_hi, self.len()) {
            if h > hi {
                return span.start;
            }
            if h == hi {
                return span.start + self.time_lo[span].partition_point(|&l| l <= lo);
            }
        }
        self.len()
    }

    /// Drops every entry observed at or before `horizon`; returns how many.
    pub fn prune(&mut self, horizon: SimTime) -> usize {
        self.cut(0..self.upto(horizon))
    }

    /// Drops every entry observed in `(after, until]`; returns how many.
    pub fn prune_between(&mut self, after: SimTime, until: SimTime) -> usize {
        self.cut(self.upto(after)..self.upto(until))
    }

    /// Drops the entries in `cut`, keeping every column's capacity.
    fn cut(&mut self, cut: Range<usize>) -> usize {
        let (a, n) = (cut.start, cut.len());
        if n == 0 {
            return 0;
        }
        for runs in [&mut self.time_hi, &mut self.sizes] {
            // The run in force after the cut opens at its start, unless the
            // run in force before it holds the same value.
            let after = (cut.end < self.fingerprints.len())
                .then(|| runs[runs.partition_point(|&(at, _)| at as usize <= cut.end) - 1].1);
            let lo = runs.partition_point(|&(at, _)| (at as usize) < a);
            let hi = runs.partition_point(|&(at, _)| at as usize <= cut.end);
            let before = lo.checked_sub(1).map(|k| runs[k].1);
            let opens = after.filter(|&v| before != Some(v)).map(|v| (a as u32, v));
            runs.splice(lo..hi, opens);
            let shifted = lo + usize::from(opens.is_some());
            runs[shifted..].iter_mut().for_each(|r| r.0 -= n as u32);
        }
        self.fingerprints.drain(cut.clone());
        self.time_lo.drain(cut);
        n
    }

    /// What the record holds after `after` (everything for `None`).
    pub fn after(&self, after: Option<SimTime>) -> Held<'_> {
        Held {
            record: self,
            from: after.map_or(0, |t| self.upto(t)),
        }
    }

    /// The record's wire form, as [`Report::encode`] lays it out: 16 B,
    /// then 12 B an entry and 8 B a mark or run.
    fn encode(&self) -> Vec<u8> {
        let (marks, runs) = (&self.time_hi, &self.sizes);
        let mut out = Vec::with_capacity(WIRE_HEADER + self.held_bytes());
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for list in [marks, runs] {
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
        }
        (self.fingerprints.iter()).for_each(|f| out.extend_from_slice(&f.value().to_le_bytes()));
        (self.time_lo.iter()).for_each(|lo| out.extend_from_slice(&lo.to_le_bytes()));
        for &(at, value) in marks.iter().chain(runs) {
            out.extend_from_slice(&at.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
        }
        out
    }

    /// Reads [`encode`](Self::encode)'s output: `None` unless the bytes
    /// are exactly what pushing their entries in order builds — the counts
    /// held against the length (without overflow), every fingerprint in
    /// its field, the first mark and run at entry 0 and each later one at a
    /// later entry below the count with another value, the marks rising and
    /// the low words rising within each. All of it is checked before
    /// anything is allocated.
    fn decode(bytes: &[u8]) -> Option<Self> {
        let (n, rest) = bytes.split_first_chunk::<8>()?;
        let (marks, rest) = rest.split_first_chunk::<4>()?;
        let (runs, body) = rest.split_first_chunk::<4>()?;
        let n = usize::try_from(u64::from_le_bytes(*n)).ok()?;
        let [marks, runs] = [marks, runs].map(|c| u32::from_le_bytes(*c) as usize);
        let pair = size_of::<(u32, u32)>();
        let len = (n.checked_mul(size_of::<Fingerprint>() + size_of::<u32>()))
            .zip(marks.checked_add(runs).and_then(|m| m.checked_mul(pair)))
            .and_then(|(entries, lists)| entries.checked_add(lists));
        if len != Some(body.len()) || u32::try_from(n).is_err() {
            return None;
        }
        let (fps, rest) = body.split_at(n * size_of::<Fingerprint>());
        let (los, rest) = rest.split_at(n * size_of::<u32>());
        let (marks, runs) = rest.split_at(marks * pair);
        if !(opens_runs(wire_pairs(marks), n, |w, v| v > w)
            && opens_runs(wire_pairs(runs), n, |w, v| v != w)
            && wire_fingerprints(fps).all(|f| f < FINGERPRINT_PRIME))
        {
            return None;
        }
        let mut opens = wire_pairs(marks).skip(1).map(|(at, _)| at as usize);
        let mut next = opens.next();
        let mut last = 0;
        for (i, lo) in wire_words(los).enumerate() {
            if next == Some(i) {
                next = opens.next();
            } else if lo < last {
                return None;
            }
            last = lo;
        }
        Some(Self {
            fingerprints: wire_fingerprints(fps).map(Fingerprint::new).collect(),
            time_lo: wire_words(los).collect(),
            time_hi: wire_pairs(marks).collect(),
            sizes: wire_pairs(runs).collect(),
        })
    }
}

/// The little-endian u64s of `bytes`: a fingerprint column's values.
fn wire_fingerprints(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    (bytes.chunks_exact(8)).map(|f| u64::from_le_bytes(f.try_into().unwrap_or_default()))
}

/// The little-endian u32s of `bytes`.
fn wire_words(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    (bytes.chunks_exact(4)).map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
}

/// The `(first index, value)` pairs of a mark or run list on the wire.
fn wire_pairs(bytes: &[u8]) -> impl Iterator<Item = (u32, u32)> + '_ {
    let mut words = wire_words(bytes);
    std::iter::from_fn(move || Some((words.next()?, words.next()?)))
}

/// Whether `pairs` is the mark or run list [`Record::push`] builds over
/// `n` entries: empty for none, else opening at entry 0 and each pair at a
/// later entry below `n` than the one before, its value `follows` the
/// one before's.
fn opens_runs(
    pairs: impl Iterator<Item = (u32, u32)>,
    n: usize,
    follows: impl Fn(u32, u32) -> bool,
) -> bool {
    let mut last: Option<(u32, u32)> = None;
    for (at, value) in pairs {
        let opens = match last {
            None => at == 0,
            Some((a, w)) => at > a && follows(w, value),
        };
        if !opens || at as usize >= n {
            return false;
        }
        last = Some((at, value));
    }
    last.is_some() == (n > 0)
}

/// Each run's index range and value, the last run ending at `len`.
fn runs(runs: &[(u32, u32)], len: usize) -> impl Iterator<Item = (Range<usize>, u32)> + '_ {
    (runs.iter().enumerate()).map(move |(k, &(at, value))| {
        (
            at as usize..runs.get(k + 1).map_or(len, |r| r.0 as usize),
            value,
        )
    })
}

/// The entries a [`Record`] holds from some instant on: what a round
/// reads of it.
#[derive(Debug, Clone, Copy)]
pub struct Held<'a> {
    record: &'a Record,
    /// The record's index of the first entry held.
    from: usize,
}

impl<'a> Held<'a> {
    /// Entries held.
    pub fn len(&self) -> usize {
        self.record.len() - self.from
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fingerprints, in observation order.
    pub(crate) fn fingerprints(&self) -> &'a [Fingerprint] {
        &self.record.fingerprints[self.from..]
    }

    /// How many of the entries were observed at or before `t`.
    pub(crate) fn upto(&self, t: SimTime) -> usize {
        self.record.upto(t).saturating_sub(self.from)
    }

    /// A copy of the entries, as the evidence a summary carries: one pass
    /// over the columns, a stretch at a time in which neither the time
    /// mark nor the size changes.
    pub fn to_report(&self) -> Report {
        let rec = self.record;
        let (marks, sizes) = (&rec.time_hi, &rec.sizes);
        let mut entries = Vec::with_capacity(self.len());
        let (mut at, mut m, mut r) = (self.from, 0, 0);
        while at < rec.len() {
            let next = |runs: &[(u32, u32)], k: usize| runs.get(k + 1).map(|&(i, _)| i as usize);
            while next(marks, m).is_some_and(|i| i <= at) {
                m += 1;
            }
            while next(sizes, r).is_some_and(|i| i <= at) {
                r += 1;
            }
            let end =
                (next(marks, m).into_iter().chain(next(sizes, r))).fold(rec.len(), usize::min);
            let (hi, size) = (u64::from(marks[m].1) << 32, sizes[r].1);
            let stretch = rec.fingerprints[at..end].iter().zip(&rec.time_lo[at..end]);
            entries.extend(stretch.map(|(&fingerprint, &lo)| ReportEntry {
                fingerprint,
                size,
                time: SimTime::from_ns(hi | u64::from(lo)),
            }));
            at = end;
        }
        Report { entries }
    }
}

/// The live schedule a streamed set digests on ([`Window::of_round`]):
/// the round length, the lag and the sketch capacity.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    tau: SimTime,
    lag: SimTime,
    capacity: usize,
}

impl Schedule {
    fn window(&self, r: u64) -> Window {
        Window::of_round(r, self.tau, self.lag)
    }
}

/// One segment end's running digests: for each round still read, the
/// digest of its judged window `(c_{r−1}, c_r]` and of its look-back strip
/// `(c_r − lag, c_r]`, which the next round's held window reads too. Round
/// `r`'s held window is the strip of round `r − 1`, its judged window and
/// what came after, so the close reads its (judged, held) pair off at
/// most three running digests.
#[derive(Debug, Clone, Default)]
struct Stream {
    /// The round of `rounds[0]`.
    first: u64,
    /// The (judged, strip) digests of rounds `first..`, as far as observed.
    rounds: VecDeque<(ContentDigest, ContentDigest)>,
    /// Pairs of retired rounds, emptied for the rounds to come: once the
    /// first rounds have run, opening a round allocates nothing.
    spare: Vec<(ContentDigest, ContentDigest)>,
    /// Everything observed after this instant is held whole: the segment
    /// is in dispute. `None`: the strips and the tails only.
    whole_after: Option<SimTime>,
}

impl Stream {
    /// Digests `e`; returns whether the record must hold it exactly: in a
    /// look-back strip, in the tail `(c_{r−1}, close]` of a round not yet
    /// closed, or in dispute. A round retired already takes nothing.
    fn observe(&mut self, s: &Schedule, closed: Option<u64>, e: &ReportEntry) -> bool {
        let r = Window::round_of(e.time, s.tau, s.lag);
        let strip = s.window(r + 1).held_from().is_none_or(|h| e.time > h);
        if r < self.first {
            return false;
        }
        if self.rounds.is_empty() {
            self.first = r;
        }
        while self.first + self.rounds.len() as u64 <= r {
            let empty = || ContentDigest::empty(s.capacity);
            let pair = (self.spare.pop()).unwrap_or_else(|| (empty(), empty()));
            self.rounds.push_back(pair);
        }
        let (judged, strip_digest) = &mut self.rounds[(r - self.first) as usize];
        judged.observe(e.fingerprint, e.size.into());
        if strip {
            strip_digest.observe(e.fingerprint, e.size.into());
        }
        let tail = closed.map_or(0, |c| c + 1) < r;
        strip || tail || self.whole_after.is_some_and(|w| e.time > w)
    }

    /// Round `r`'s (judged, held) digests as observed so far.
    fn digests(&self, r: u64, capacity: usize) -> (ContentDigest, ContentDigest) {
        let at = |k: u64| (k.checked_sub(self.first)).and_then(|i| self.rounds.get(i as usize));
        let empty = || ContentDigest::empty(capacity);
        let judged = at(r).map_or_else(empty, |p| p.0.clone());
        let mut held = (r.checked_sub(1).and_then(at)).map_or_else(empty, |p| p.1.clone());
        for (judged, _) in self
            .rounds
            .iter()
            .skip(r.saturating_sub(self.first) as usize)
        {
            held.merge(judged);
        }
        (judged, held)
    }

    /// Round `r` is evaluated: the rounds before it are read no more, and
    /// its own strip only by the next.
    fn retire(&mut self, r: u64) {
        while self.first < r && !self.rounds.is_empty() {
            let (mut judged, mut strip) = self.rounds.pop_front().expect("not empty");
            judged.clear();
            strip.clear();
            self.spare.push((judged, strip));
            self.first += 1;
        }
        self.first = self.first.max(r);
    }

    /// Bytes the running digests take.
    fn bytes(&self) -> usize {
        let digest = |d: &ContentDigest| d.sketch().evals().len() * 8 + 32;
        self.rounds.iter().map(|(j, s)| digest(j) + digest(s)).sum()
    }
}

/// Sort-aggregates one shard of report entries into ascending
/// `(fingerprint, multiplicity)` pairs plus the shard's flow counters.
fn summarize_shard(shard: &[ReportEntry]) -> (Vec<(Fingerprint, u32)>, FlowCounter) {
    let mut flow = FlowCounter::default();
    let mut fps: Vec<Fingerprint> = shard
        .iter()
        .map(|e| {
            flow.observe(e.size as u64);
            e.fingerprint
        })
        .collect();
    fps.sort_unstable();
    let mut counts: Vec<(Fingerprint, u32)> = Vec::with_capacity(fps.len());
    for fp in fps {
        match counts.last_mut() {
            Some((last, c)) if *last == fp => *c += 1,
            _ => counts.push((fp, 1)),
        }
    }
    (counts, flow)
}

/// Merges two ascending count lists, adding multiplicities of shared
/// fingerprints.
fn merge_sorted_counts(
    a: Vec<(Fingerprint, u32)>,
    b: Vec<(Fingerprint, u32)>,
) -> Vec<(Fingerprint, u32)> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ai = a.into_iter().peekable();
    let mut bi = b.into_iter().peekable();
    loop {
        match (ai.peek(), bi.peek()) {
            (Some(&(afp, ac)), Some(&(bfp, bc))) => {
                if afp < bfp {
                    out.push((afp, ac));
                    ai.next();
                } else if bfp < afp {
                    out.push((bfp, bc));
                    bi.next();
                } else {
                    out.push((afp, ac + bc));
                    ai.next();
                    bi.next();
                }
            }
            (Some(_), None) => {
                out.extend(ai);
                break;
            }
            (None, Some(_)) => {
                out.extend(bi);
                break;
            }
            (None, None) => break,
        }
    }
    out
}

/// A precomputed (source, destination) → path oracle: the global routing
/// view every router holds under a link-state protocol (§4.1).
#[derive(Debug, Clone, Default)]
pub struct PathOracle {
    paths: HashMap<(RouterId, RouterId), Path>,
}

impl PathOracle {
    /// Builds the oracle from stable link-state routes.
    pub fn from_routes(routes: &Routes) -> Self {
        Self::from_paths(routes.all_paths())
    }

    /// Builds the oracle from an explicit path set (e.g. the avoidance
    /// routes installed by the response).
    pub fn from_paths<I: IntoIterator<Item = Path>>(paths: I) -> Self {
        let mut map = HashMap::new();
        for p in paths {
            map.insert((p.source(), p.sink()), p);
        }
        Self { paths: map }
    }

    /// Overrides one pair's path (mirrors the engine's policy-routing
    /// overrides after a response).
    pub fn set(&mut self, path: Path) {
        self.paths.insert((path.source(), path.sink()), path);
    }

    /// The routed path of a (source, destination) pair.
    pub fn path(&self, src: RouterId, dst: RouterId) -> Option<&Path> {
        self.paths.get(&(src, dst))
    }

    fn packet_traverses(&self, packet: &Packet, seg: &PathSegment) -> bool {
        self.path(packet.src, packet.dst)
            .map(|p| p.contains_segment(seg.routers()))
            .unwrap_or(false)
    }
}

/// Which members of each segment record traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorMode {
    /// Every member records (Protocol Π2).
    AllMembers,
    /// Only the two end routers record (Protocol Πk+2).
    EndsOnly,
}

/// One (segment, record-slot) a monitored edge feeds.
#[derive(Debug, Clone, Copy)]
struct SlotRef {
    /// Segment index.
    seg: u32,
    /// Index into [`SegmentMonitorSet::slots`].
    slot: u32,
}

/// One observation waiting for its fingerprint in the batched ingest path.
#[derive(Debug, Clone, Copy)]
struct PendingObs {
    seg: u32,
    /// Arrival order within the batch (restores per-slot time order after
    /// the per-segment grouping sort).
    idx: u32,
    slot: u32,
    size: u32,
    time: SimTime,
    id: PacketId,
    inv: [u8; 40],
    fp: Option<Fingerprint>,
}

/// Reusable buffers for [`SegmentMonitorSet::observe_batch`].
#[derive(Debug, Default)]
struct IngestScratch {
    pending: Vec<PendingObs>,
    /// One segment's memo misses: their places in `pending`, the first
    /// miss of each (packet, invariant bytes), and those firsts' invariant
    /// bytes, the kernel's input.
    miss: Vec<usize>,
    firsts: Vec<usize>,
    msgs: Vec<[u8; 40]>,
    fps: Vec<Fingerprint>,
}

/// Entries in the packet-fingerprint memo before it is flushed (bounds the
/// memory of a long run; a packet's id is worthless once it left the
/// network).
const FP_CACHE_MAX: usize = 1 << 16;

/// Counter handles for the monitor's ingest accounting.
///
/// Defaults to private cells so an unwired monitor costs nothing extra;
/// a runtime swaps registered handles in via
/// [`SegmentMonitorSet::attach_metrics`]. The batched ingest path tallies
/// locally and adds once per batch, so the per-packet cost stays zero.
#[derive(Debug, Clone, Default)]
pub struct MonitorMetrics {
    /// Observations recorded into some slot (post-sampling).
    pub records: Counter,
    /// Fingerprint-memo hits.
    pub fp_cache_hits: Counter,
    /// Fingerprint-memo misses (fingerprints actually computed).
    pub fp_cache_misses: Counter,
    /// Calls to [`SegmentMonitorSet::observe_batch`].
    pub batches: Counter,
    /// Recorded observations since dropped: by
    /// [`SegmentMonitorSet::prune`], or with the whole record on
    /// [`SegmentMonitorSet::retarget`]: `records − entries_pruned` is what
    /// the sets hold.
    pub entries_pruned: Counter,
    /// The most entries any one set held right after a
    /// [`SegmentMonitorSet::prune`] — for live nodes, which own one set
    /// each, the most any one router held.
    pub entries_held_max: Gauge,
    /// The most [`held_bytes`](SegmentMonitorSet::held_bytes) any one set
    /// held right *before* a [`SegmentMonitorSet::prune`]: a record's
    /// peak, where `entries_held_max` is its trough.
    pub held_bytes_max: Gauge,
    /// Entries still held by the sets whose owners called
    /// [`SegmentMonitorSet::publish_held`] when they were done.
    pub entries_held_at_finish: Counter,
    /// Segment ends a streamed set holds in dispute now, summed over the
    /// sets: one from a segment's first [`SegmentMonitorSet::dispute`]
    /// until the set is [`retarget`](SegmentMonitorSet::retarget)ed.
    pub segments_in_dispute: Gauge,
    /// The most `segments_in_dispute` read at any time.
    pub segments_in_dispute_max: Gauge,
    /// Segment ends in dispute in the sets whose owners called
    /// [`SegmentMonitorSet::publish_held`] when they were done.
    pub segments_in_dispute_at_finish: Counter,
}

impl MonitorMetrics {
    /// Handles registered under the `monitor.*` names.
    pub fn registered(reg: &MetricsRegistry) -> Self {
        Self {
            records: reg.counter("monitor.records"),
            fp_cache_hits: reg.counter("monitor.fp_cache_hits"),
            fp_cache_misses: reg.counter("monitor.fp_cache_misses"),
            batches: reg.counter("monitor.batches"),
            entries_pruned: reg.counter("monitor.entries_pruned"),
            entries_held_max: reg.gauge("monitor.entries_held_max"),
            held_bytes_max: reg.gauge("monitor.held_bytes_max"),
            entries_held_at_finish: reg.counter("monitor.entries_held_at_finish"),
            segments_in_dispute: reg.gauge("monitor.segments_in_dispute"),
            segments_in_dispute_max: reg.gauge("monitor.segments_in_dispute_max"),
            segments_in_dispute_at_finish: reg.counter("monitor.segments_in_dispute_at_finish"),
        }
    }
}

/// One segment assignment as every recorder of it shares it: the
/// segments, one fingerprint key per segment — derived here, once — and the
/// path oracle. [`SegmentMonitorSet`]s built from one plan hold it by
/// reference count, so a deployment of n routers derives each key once,
/// not n times, and copies no segment or path.
#[derive(Debug, Clone)]
pub struct MonitorPlan {
    segments: Arc<[PathSegment]>,
    keys: Arc<[UhashKey]>,
    oracle: Arc<PathOracle>,
}

impl MonitorPlan {
    /// The plan for `segments` under `oracle`, each segment's key derived
    /// from the key store (shared by exactly its recording routers).
    pub fn new(segments: Vec<PathSegment>, oracle: PathOracle, keystore: &KeyStore) -> Self {
        let keys = (segments.iter())
            .map(|s| keystore.segment_uhash_key(s.stable_id()))
            .collect();
        Self {
            segments: segments.into(),
            keys,
            oracle: Arc::new(oracle),
        }
    }

    /// The segments, in the order whose indices every reader shares.
    pub fn segments(&self) -> &[PathSegment] {
        &self.segments
    }
}

/// Monitors a set of path segments, accumulating a [`Record`] per
/// (router, segment) per round.
///
/// Record storage is a flat slot vector laid out at construction — one
/// slot per (recording router, segment) pair — so the per-packet hot path
/// indexes an array instead of probing an ordered map. A set built
/// [`for_router`](Self::for_router) lays out that router's slots only.
#[derive(Debug)]
pub struct SegmentMonitorSet {
    plan: MonitorPlan,
    /// The only router this set records for, if it is one router's.
    recorder: Option<RouterId>,
    mode: MonitorMode,
    sampling_rate: Option<f64>,
    sampling: Option<Vec<SamplingPattern>>,
    /// (router, its successor in segment) → slots the router fills on
    /// forward.
    forward_index: HashMap<(RouterId, RouterId), Vec<SlotRef>>,
    /// (sink, its predecessor) → slots the sink fills on arrival.
    arrival_index: HashMap<(RouterId, RouterId), Vec<SlotRef>>,
    /// All records, slot-indexed.
    slots: Vec<Record>,
    /// The schedule of a set that keeps running digests
    /// ([`stream`](Self::stream)), and each slot's digests; `None` and
    /// empty for a set of whole records.
    schedule: Option<Schedule>,
    streams: Vec<Stream>,
    /// The last round its owner closed ([`closed`](Self::closed)).
    closed: Option<u64>,
    /// (router, segment) → slot, for the cold read path.
    slot_of: HashMap<(RouterId, usize), usize>,
    /// (packet, segment) → fingerprint memo: the same packet is recorded
    /// by every member of a segment, but its fingerprint under that
    /// segment's key never changes. The stored invariant bytes are
    /// compared on every hit so a modified packet (same id, different
    /// content) can never reuse a stale fingerprint. Kept by a
    /// network-wide set only: one router's set is one recorder of each
    /// segment, fingerprints each packet once per segment, and would pay
    /// an insert per observation — ≈ 8 MB per router once full (65 536
    /// entries) — for a memo that never hits.
    fp_cache: HashMap<(PacketId, u32), ([u8; 40], Fingerprint)>,
    /// Route-traversal memo: whether the routed (src, dst) path contains
    /// segment `seg`. Pure function of the oracle, which is fixed at
    /// construction.
    traverse_cache: HashMap<(RouterId, RouterId, u32), bool>,
    scratch: IngestScratch,
    metrics: MonitorMetrics,
}

impl SegmentMonitorSet {
    /// Builds monitors for `segments`, recording for every router.
    /// Fingerprint keys are derived per segment from the key store (shared
    /// by exactly the recording routers); when `sampling_rate` is set, each
    /// segment's recorders subsample with a secret pattern under that
    /// segment's key.
    ///
    /// # Panics
    ///
    /// Panics if a sampling rate outside `(0, 1]` is given.
    pub fn new(
        segments: Vec<PathSegment>,
        oracle: PathOracle,
        keystore: &KeyStore,
        mode: MonitorMode,
        sampling_rate: Option<f64>,
    ) -> Self {
        let plan = MonitorPlan::new(segments, oracle, keystore);
        Self::build(plan, None, mode, sampling_rate)
    }

    /// Builds `router`'s own Πk+2 monitors over `plan`
    /// ([`MonitorMode::EndsOnly`]): records for the segments it ends, and
    /// none for the rest of the network, so the set costs what the router
    /// records. Segment indices are the plan's. Unsampled.
    pub fn for_router(plan: &MonitorPlan, router: RouterId) -> Self {
        Self::build(plan.clone(), Some(router), MonitorMode::EndsOnly, None)
    }

    fn build(
        plan: MonitorPlan,
        recorder: Option<RouterId>,
        mode: MonitorMode,
        sampling_rate: Option<f64>,
    ) -> Self {
        let sampling = sampling_rate.map(|rate| {
            (plan.keys.iter())
                .map(|k| SamplingPattern::new(*k, rate))
                .collect()
        });
        let mut forward_index: HashMap<(RouterId, RouterId), Vec<SlotRef>> = HashMap::new();
        let mut arrival_index: HashMap<(RouterId, RouterId), Vec<SlotRef>> = HashMap::new();
        let mut slots: Vec<Record> = Vec::new();
        let mut slot_of: HashMap<(RouterId, usize), usize> = HashMap::new();
        // Lays out a slot for `edge.0` on segment `seg` in `index`, if this
        // set records for that router.
        let mut add = |index: &mut HashMap<(RouterId, RouterId), Vec<SlotRef>>,
                       edge: (RouterId, RouterId),
                       seg: usize| {
            if recorder.is_some_and(|r| r != edge.0) {
                return;
            }
            let slot = *slot_of.entry((edge.0, seg)).or_insert_with(|| {
                slots.push(Record::default());
                slots.len() - 1
            });
            index.entry(edge).or_default().push(SlotRef {
                seg: seg as u32,
                slot: slot as u32,
            });
        };
        for (i, seg) in plan.segments.iter().enumerate() {
            let routers = seg.routers();
            match mode {
                MonitorMode::AllMembers => {
                    for w in routers.windows(2) {
                        add(&mut forward_index, (w[0], w[1]), i);
                    }
                }
                MonitorMode::EndsOnly => add(&mut forward_index, (routers[0], routers[1]), i),
            }
            let n = routers.len();
            add(&mut arrival_index, (routers[n - 1], routers[n - 2]), i);
        }
        Self {
            plan,
            recorder,
            mode,
            sampling_rate,
            sampling,
            forward_index,
            arrival_index,
            slots,
            schedule: None,
            streams: Vec::new(),
            closed: None,
            slot_of,
            fp_cache: HashMap::new(),
            traverse_cache: HashMap::new(),
            scratch: IngestScratch::default(),
            metrics: MonitorMetrics::default(),
        }
    }

    /// The monitored segments.
    pub fn segments(&self) -> &[PathSegment] {
        self.plan.segments()
    }

    /// The (router, segment index) pairs this set keeps a record for.
    pub fn recorded(&self) -> impl Iterator<Item = (RouterId, usize)> + '_ {
        self.slot_of.keys().copied()
    }

    /// Swaps the ingest counters for registry-backed handles, so every
    /// monitor set in a deployment aggregates into the same `monitor.*`
    /// cells.
    pub fn attach_metrics(&mut self, metrics: MonitorMetrics) {
        self.metrics = metrics;
    }

    /// Keeps running digests, with sketches of `capacity`, on the schedule
    /// of `tau`-long rounds from time 0 with maturity lag `lag`
    /// ([`Window::of_round`]), and holds exactly only what a round's digest
    /// resolution reads of the record: the look-back strips, and each
    /// round's tail `(c_r, close]` until it is retired. Every other
    /// observation is digested and counted as pruned at once. A segment
    /// [`dispute`](Self::dispute)d is held whole from then on.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ lag < tau` and `capacity > 0`, or if the set
    /// has recorded anything.
    pub fn stream(&mut self, tau: SimTime, lag: SimTime, capacity: usize) {
        assert!(lag < tau && capacity > 0, "a strip lies within its round");
        assert!(self.is_idle(), "a set streams from its start");
        self.schedule = Some(Schedule { tau, lag, capacity });
        self.streams = vec![Stream::default(); self.slots.len()];
    }

    /// Rebuilds the monitor set for a new plan — the §2.4.3 response's
    /// "monitoring follows the new routes" step — recording for the same
    /// routers, in the same mode, at the same sampling rate. The metrics
    /// handles carry over so a live deployment keeps aggregating into the
    /// same registry cells; accumulated records, fingerprint memos and route memos belong to
    /// the old routing epoch and are dropped wholesale (the records count
    /// as pruned).
    pub fn retarget(&self, plan: MonitorPlan) -> Self {
        let mut next = Self::build(plan, self.recorder, self.mode, self.sampling_rate);
        if let Some(s) = self.schedule {
            next.stream(s.tau, s.lag, s.capacity);
        }
        next.closed = self.closed;
        next.metrics = self.metrics.clone();
        next.metrics.entries_pruned.add(self.held() as u64);
        (next.metrics.segments_in_dispute).add(-(self.in_dispute() as f64));
        next
    }

    /// Feeds one simulator observation: a batch of one.
    pub fn observe(&mut self, ev: &TapEvent) {
        self.observe_batch(std::slice::from_ref(ev));
    }

    /// Feeds a batch of simulator observations at once.
    ///
    /// Control-plane packets (the protocols' own summaries, acks and
    /// alerts) are excluded from traffic validation: their loss is the
    /// transport layer's business, and counting a faulted control packet
    /// as missing *data* traffic would turn an environmental fault into a
    /// false accusation against the routers on its path.
    ///
    /// The invariant fields of each packet are encoded once (not once per
    /// matching segment), fingerprint-memo misses are grouped per segment
    /// key and pushed through the 4-lane
    /// [`fingerprint_batch_into`](UhashKey::fingerprint_batch_into) kernel,
    /// and record pushes index the slot vector directly.
    pub fn observe_batch(&mut self, events: &[TapEvent]) {
        let memo = self.recorder.is_none();
        // Tally locally, add once per batch: the per-packet path must not
        // pay an atomic per observation.
        let mut memo_hits = 0u64;
        let mut memo_misses = 0u64;
        let mut recorded = 0u64;
        let mut pending = std::mem::take(&mut self.scratch.pending);
        pending.clear();
        // Phase 1: resolve each event's monitored edge, filter by route
        // traversal, and take fingerprint-memo hits.
        for ev in events {
            if ev.packet().kind == fatih_sim::PacketKind::Control {
                continue;
            }
            let (edge, packet, time, forward) = match ev {
                TapEvent::Enqueued {
                    router,
                    next_hop,
                    packet,
                    time,
                    ..
                } => ((*router, *next_hop), packet, *time, true),
                TapEvent::Arrived {
                    router,
                    from: Some(from),
                    packet,
                    time,
                } => ((*router, *from), packet, *time, false),
                _ => continue,
            };
            let index = if forward {
                &self.forward_index
            } else {
                &self.arrival_index
            };
            let Some(refs) = index.get(&edge) else {
                continue;
            };
            let inv = packet.invariant_bytes();
            for r in refs {
                if !Self::traverses(&self.plan, &mut self.traverse_cache, packet, r.seg) {
                    continue;
                }
                let memoed = memo
                    .then(|| self.fp_cache.get(&(packet.id, r.seg)))
                    .flatten();
                let fp = match memoed {
                    Some((cached_inv, fp)) if *cached_inv == inv => Some(*fp),
                    _ => None,
                };
                if fp.is_some() {
                    memo_hits += 1;
                }
                pending.push(PendingObs {
                    seg: r.seg,
                    idx: pending.len() as u32,
                    slot: r.slot,
                    size: packet.size,
                    time,
                    id: packet.id,
                    inv,
                    fp,
                });
            }
        }
        // Phase 2: group by segment; the arrival index restores per-slot
        // observation order within each group.
        pending.sort_unstable_by_key(|p| (p.seg, p.idx));
        // Phase 3: batch-fingerprint the memo misses, one segment key at a
        // time (equal-length invariant encodings ride the 4-lane path).
        let mut start = 0;
        while start < pending.len() {
            let seg = pending[start].seg;
            let mut end = start;
            while end < pending.len() && pending[end].seg == seg {
                end += 1;
            }
            let IngestScratch {
                miss,
                firsts,
                msgs,
                fps,
                ..
            } = &mut self.scratch;
            miss.clear();
            miss.extend((start..end).filter(|&i| pending[i].fp.is_none()));
            // Both taps of a packet in one batch miss the memo alike: with
            // the memo on, each (packet, invariant bytes) is fingerprinted
            // once, its first miss standing for the rest.
            let key = |i: usize| (pending[i].id, pending[i].inv);
            if memo {
                miss.sort_unstable_by_key(|&i| key(i));
            }
            firsts.clear();
            for (k, &i) in miss.iter().enumerate() {
                if !(memo && k > 0 && key(miss[k - 1]) == key(i)) {
                    firsts.push(i);
                }
            }
            memo_misses += firsts.len() as u64;
            memo_hits += (miss.len() - firsts.len()) as u64;
            if !miss.is_empty() {
                let key = self.plan.keys[seg as usize];
                msgs.clear();
                msgs.extend(firsts.iter().map(|&i| pending[i].inv));
                key.fingerprint_batch_into(msgs, fps);
                for (&i, &fp) in firsts.iter().zip(fps.iter()) {
                    pending[i].fp = Some(fp);
                    if !memo {
                        continue;
                    }
                    if self.fp_cache.len() >= FP_CACHE_MAX {
                        self.fp_cache.clear();
                    }
                    self.fp_cache
                        .insert((pending[i].id, seg), (pending[i].inv, fp));
                }
                let mut fp = None;
                for &i in miss.iter() {
                    match pending[i].fp {
                        Some(first) => fp = Some(first),
                        None => pending[i].fp = fp,
                    }
                }
            }
            start = end;
        }
        // Phase 4: sampling filter, running digests and slot-indexed
        // record pushes.
        let mut digested_only = 0u64;
        for p in &pending {
            let fp =
                p.fp.expect("phase 3 fingerprints every pending observation");
            if let Some(patterns) = &self.sampling {
                if !patterns[p.seg as usize].samples_fingerprint(fp) {
                    continue;
                }
            }
            let entry = ReportEntry {
                fingerprint: fp,
                size: p.size,
                time: p.time,
            };
            recorded += 1;
            let held = match (&self.schedule, self.streams.get_mut(p.slot as usize)) {
                (Some(s), Some(stream)) => stream.observe(s, self.closed, &entry),
                _ => true,
            };
            if held {
                self.slots[p.slot as usize].push(entry);
            } else {
                digested_only += 1;
            }
        }
        self.scratch.pending = pending;
        self.metrics.batches.inc();
        self.metrics.fp_cache_hits.add(memo_hits);
        self.metrics.fp_cache_misses.add(memo_misses);
        self.metrics.records.add(recorded);
        self.metrics.entries_pruned.add(digested_only);
    }

    /// Memoized route-traversal check: the oracle is fixed at construction,
    /// so (src, dst, segment) → bool is a pure lookup after the first miss.
    fn traverses(
        plan: &MonitorPlan,
        cache: &mut HashMap<(RouterId, RouterId, u32), bool>,
        packet: &Packet,
        seg: u32,
    ) -> bool {
        *cache
            .entry((packet.src, packet.dst, seg))
            .or_insert_with(|| (plan.oracle).packet_traverses(packet, &plan.segments[seg as usize]))
    }

    /// Everything `router` still holds for segment index `i`: what it
    /// recorded since the last [`prune`](Self::prune) (empty if it saw
    /// nothing).
    pub fn report(&self, router: RouterId, i: usize) -> Report {
        self.report_after(router, i, None)
    }

    /// [`report`](Self::report) restricted to the entries observed after
    /// `after`: the windowed read of a sliding-window record, copying the
    /// window only.
    pub fn report_after(&self, router: RouterId, i: usize, after: Option<SimTime>) -> Report {
        self.held_after(router, i, after).to_report()
    }

    /// [`report_after`](Self::report_after)'s entries, borrowed.
    pub(crate) fn held_after(
        &self,
        router: RouterId,
        i: usize,
        after: Option<SimTime>,
    ) -> Held<'_> {
        static EMPTY: Record = Record {
            fingerprints: Vec::new(),
            time_lo: Vec::new(),
            time_hi: Vec::new(),
            sizes: Vec::new(),
        };
        let record = (self.slot_of.get(&(router, i))).map_or(&EMPTY, |&s| &self.slots[s]);
        record.after(after)
    }

    /// The (judged, held) digests of round `round` — `window` is its — of
    /// what `router` recorded of segment `i`, with sketches of `capacity`:
    /// the running digests of a set that [`stream`](Self::stream)s at that
    /// capacity, or else one pass over the record, if it holds the round
    /// whole. `None` if neither can say.
    pub fn digests(
        &self,
        router: RouterId,
        i: usize,
        round: u64,
        window: Window,
        capacity: usize,
    ) -> Option<(ContentDigest, ContentDigest)> {
        let slot = self.slot_of.get(&(router, i)).copied();
        match (self.schedule, slot.and_then(|s| self.streams.get(s))) {
            (Some(s), Some(stream)) if s.capacity == capacity => {
                debug_assert_eq!(window, s.window(round), "the stream's own schedule");
                return Some(stream.digests(round, capacity));
            }
            _ if !self.holds_whole(router, i, window) => return None,
            _ => {}
        }
        let held = self.held_after(router, i, window.held_from());
        let judged = window.judged_span(&held);
        let mut digests = [
            ContentDigest::empty(capacity),
            ContentDigest::empty(capacity),
        ];
        for (k, e) in held.to_report().entries.iter().enumerate() {
            digests[usize::from(judged.contains(&k))].observe(e.fingerprint, e.size.into());
        }
        let [mut whole, judged] = digests;
        whole.merge(&judged);
        Some((judged, whole))
    }

    /// Whether `router`'s record of segment `i` holds the round of
    /// `window` whole — every observation of its held window — as a set
    /// of whole records does, and a streamed one from the first round
    /// whose held window opens after the segment's
    /// [`dispute`](Self::dispute).
    pub fn holds_whole(&self, router: RouterId, i: usize, window: Window) -> bool {
        let slot = self.slot_of.get(&(router, i));
        slot.and_then(|&s| self.streams.get(s))
            .is_none_or(|stream| {
                (stream.whole_after).is_some_and(|w| window.held_from().is_some_and(|h| h >= w))
            })
    }

    /// Segment `i` is in dispute from `at`: a streamed set holds every
    /// observation of it made after `at` from now on (a set of whole
    /// records does anyway).
    pub fn dispute(&mut self, i: usize, at: SimTime) {
        let mut opened = 0;
        for (&(_, seg), &slot) in &self.slot_of {
            if let Some(stream) = self.streams.get_mut(slot).filter(|_| seg == i) {
                opened += usize::from(stream.whole_after.is_none());
                stream.whole_after = Some(stream.whole_after.map_or(at, |w| w.min(at)));
            }
        }
        if opened > 0 {
            let now = self.metrics.segments_in_dispute.add(opened as f64);
            self.metrics.segments_in_dispute_max.set_max(now);
        }
    }

    /// Segment ends this set holds in dispute.
    fn in_dispute(&self) -> usize {
        (self.streams.iter())
            .filter(|s| s.whole_after.is_some())
            .count()
    }

    /// Round `r` is closed: what is observed from now on lies in the tail
    /// of no round up to `r`.
    pub fn closed(&mut self, r: u64) {
        self.closed = Some(self.closed.map_or(r, |c| c.max(r)));
    }

    /// Round `r`, of `window`, is evaluated: drops what no later round
    /// reads — everything at or before [`Window::forget_horizon`] and, in
    /// a streamed set, the tail of `r` outside the next strip and any
    /// dispute, and the running digests of the rounds before `r`.
    pub fn retire(&mut self, r: u64, window: Window) {
        self.metrics
            .held_bytes_max
            .set_max(self.held_bytes() as f64);
        let horizon = window.forget_horizon();
        let mut pruned: usize = (self.slots.iter_mut())
            .map(|rec| horizon.map_or(0, |h| rec.prune(h)))
            .sum();
        if let Some(s) = self.schedule {
            debug_assert_eq!(window, s.window(r), "the stream's own schedule");
            // The next strip opens where round r + 1 forgets up to.
            let strip = s.window(r + 1).forget_horizon();
            for (rec, stream) in self.slots.iter_mut().zip(&mut self.streams) {
                let until = match (strip, stream.whole_after) {
                    (Some(strip), Some(w)) => strip.min(w),
                    (strip, _) => strip.unwrap_or(SimTime::ZERO),
                };
                if until > window.cutoff() {
                    pruned += rec.prune_between(window.cutoff(), until);
                }
                stream.retire(r);
            }
        }
        self.metrics.entries_pruned.add(pruned as u64);
        self.metrics.entries_held_max.set_max(self.held() as f64);
    }

    /// Entries held across all records.
    pub fn held(&self) -> usize {
        self.slots.iter().map(Record::len).sum()
    }

    /// Bytes the entries held across all records take — 12 an entry while
    /// sizes repeat (see [`Record`]) — and the running digests of a
    /// streamed set.
    pub fn held_bytes(&self) -> usize {
        let records: usize = self.slots.iter().map(Record::held_bytes).sum();
        records + self.streams.iter().map(Stream::bytes).sum::<usize>()
    }

    /// Drops every entry observed at or before `horizon` from every
    /// record. Readers of a sliding-window record trim to their window
    /// themselves ([`report_after`](Self::report_after)), so this only
    /// bounds memory; when it runs never changes a verdict.
    pub fn prune(&mut self, horizon: SimTime) {
        self.metrics
            .held_bytes_max
            .set_max(self.held_bytes() as f64);
        let pruned: usize = self.slots.iter_mut().map(|r| r.prune(horizon)).sum();
        self.metrics.entries_pruned.add(pruned as u64);
        self.metrics.entries_held_max.set_max(self.held() as f64);
    }

    /// Adds [`held`](Self::held) to `monitor.entries_held_at_finish`, and
    /// the segment ends in dispute to `monitor.segments_in_dispute_at_finish`;
    /// the owner calls it once, when it is done with the set.
    pub fn publish_held(&self) {
        self.metrics.entries_held_at_finish.add(self.held() as u64);
        (self.metrics.segments_in_dispute_at_finish).add(self.in_dispute() as u64);
    }

    /// Whether any record exists (for tests).
    pub fn is_idle(&self) -> bool {
        self.slots.iter().all(Record::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_sim::{Network, SimTime};
    use fatih_topology::builtin;

    fn setup_line4() -> (Network, Vec<RouterId>) {
        let topo = builtin::line(4);
        let ids: Vec<RouterId> = (0..4)
            .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
            .collect();
        (Network::new(topo, 1), ids)
    }

    fn keystore(n: u32) -> KeyStore {
        let mut ks = KeyStore::with_seed(5);
        for i in 0..n {
            ks.register(i);
        }
        ks
    }

    #[test]
    fn report_encode_decode_round_trip() {
        let r = Report {
            entries: vec![
                ReportEntry {
                    fingerprint: Fingerprint::new(1),
                    size: 100,
                    time: SimTime::from_ms(1),
                },
                ReportEntry {
                    fingerprint: Fingerprint::new(9),
                    size: 40,
                    time: SimTime::from_ms(2),
                },
            ],
        };
        assert_eq!(Report::decode(&r.encode()), Some(r.clone()));
        assert_eq!(Report::decode(b"junk"), None);
        let mut garbled = r.encode();
        garbled.pop();
        assert_eq!(Report::decode(&garbled), None);
    }

    /// A count chosen so that `n * 12 + 16` (the columns, one time mark
    /// and one size run) wraps round to the true length: one entry's bytes
    /// under a claim of 1 + 2^62 entries. Refused, with nothing reserved
    /// for the claim.
    #[test]
    fn a_report_whose_count_overflows_the_length_check_is_refused() {
        let one = Report {
            entries: vec![ReportEntry {
                fingerprint: Fingerprint::new(1),
                size: 100,
                time: SimTime::from_ms(1),
            }],
        };
        let mut crafted = one.encode();
        assert_eq!(crafted.len(), 16 + 12 + 16);
        let claim = 1u64 + (1 << 62);
        assert_eq!(claim.wrapping_mul(12).wrapping_add(16), 12 + 16);
        crafted[..8].copy_from_slice(&claim.to_le_bytes());
        assert_eq!(Report::decode(&crafted), None);
        assert_eq!(Report::decode(&[]), None);
        assert_eq!(Report::decode(&u64::MAX.to_le_bytes()), None);
    }

    #[test]
    fn members_record_consistently_on_clean_path() {
        let (mut net, ids) = setup_line4();
        let seg = PathSegment::new(vec![ids[0], ids[1], ids[2], ids[3]]);
        let oracle = PathOracle::from_routes(net.routes());
        let ks = keystore(4);
        let mut mon = SegmentMonitorSet::new(vec![seg], oracle, &ks, MonitorMode::AllMembers, None);
        net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(20)),
        );
        net.run_until(SimTime::from_secs(1), |ev| mon.observe(ev));
        // Forwarders 0,1,2 and sink 3 all saw the same 20 packets.
        for &r in &ids {
            let rep = mon.report(r, 0);
            assert_eq!(rep.len(), 20, "router {r}");
        }
        // And with identical fingerprints.
        let a = mon.report(ids[0], 0);
        let d = mon.report(ids[3], 0);
        assert_eq!(a.to_content(), d.to_content());
    }

    #[test]
    fn retarget_swaps_segments_and_keeps_metric_handles() {
        let (mut net, ids) = setup_line4();
        let seg = PathSegment::new(vec![ids[0], ids[1], ids[2], ids[3]]);
        let oracle = PathOracle::from_routes(net.routes());
        let ks = keystore(4);
        let mut mon = SegmentMonitorSet::new(
            vec![seg],
            oracle.clone(),
            &ks,
            MonitorMode::AllMembers,
            None,
        );
        let reg = fatih_obs::MetricsRegistry::new();
        mon.attach_metrics(MonitorMetrics::registered(&reg));
        net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(20)),
        );
        net.run_until(SimTime::from_secs(1), |ev| mon.observe(ev));
        let recorded_before = reg.snapshot().counter("monitor.records");
        assert!(recorded_before > 0);
        assert!(!mon.is_idle());

        // Retarget to a shorter segment on a fresh oracle: old records are
        // gone, the new assignment records, and the counters keep
        // accumulating into the same registry cells.
        let seg2 = PathSegment::new(vec![ids[1], ids[2], ids[3]]);
        let mut mon2 = mon.retarget(MonitorPlan::new(vec![seg2], oracle, &ks));
        assert!(mon2.is_idle());
        assert_eq!(mon2.segments().len(), 1);
        assert_eq!(mon2.report(ids[1], 0).len(), 0);
        let (mut net2, _) = setup_line4();
        net2.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(10)),
        );
        net2.run_until(SimTime::from_secs(1), |ev| mon2.observe(ev));
        assert_eq!(mon2.report(ids[1], 0).len(), 10);
        assert!(reg.snapshot().counter("monitor.records") > recorded_before);
    }

    /// A router's own set, fed the whole network's taps, records for that
    /// router exactly what the network-wide set does, and nothing else;
    /// every own set shares the plan's keys.
    #[test]
    fn a_routers_own_set_records_what_the_network_wide_set_records_for_it() {
        let (mut net, ids) = setup_line4();
        let segs = vec![
            PathSegment::new(vec![ids[0], ids[1], ids[2], ids[3]]),
            PathSegment::new(vec![ids[1], ids[2], ids[3]]),
            PathSegment::new(vec![ids[0], ids[1]]),
        ];
        let oracle = PathOracle::from_routes(net.routes());
        let ks = keystore(4);
        let plan = MonitorPlan::new(segs.clone(), oracle.clone(), &ks);
        let mut all =
            SegmentMonitorSet::new(segs.clone(), oracle, &ks, MonitorMode::EndsOnly, None);
        let mut own: Vec<SegmentMonitorSet> = (ids.iter())
            .map(|&r| SegmentMonitorSet::for_router(&plan, r))
            .collect();
        net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(20)),
        );
        net.run_until(SimTime::from_secs(1), |ev| {
            all.observe(ev);
            own.iter_mut().for_each(|set| set.observe_batch(&[*ev]));
        });
        for (set, &r) in own.iter().zip(&ids) {
            assert!(
                std::ptr::eq(set.segments(), plan.segments()),
                "shares the plan"
            );
            assert!(set.recorded().all(|(at, _)| at == r), "router {r}");
            for i in 0..segs.len() {
                assert_eq!(set.report(r, i), all.report(r, i), "router {r} seg {i}");
            }
        }
        assert_eq!(
            own.iter().map(|set| set.recorded().count()).sum::<usize>(),
            6
        );
        assert_eq!(own[1].held(), 2 * 20, "router 1 ends two segments");
        assert_eq!(own[2].recorded().count(), 0, "router 2 ends none");
    }

    #[test]
    fn ends_only_mode_records_at_ends() {
        let (mut net, ids) = setup_line4();
        let seg = PathSegment::new(vec![ids[0], ids[1], ids[2]]);
        let oracle = PathOracle::from_routes(net.routes());
        let ks = keystore(4);
        let mut mon = SegmentMonitorSet::new(vec![seg], oracle, &ks, MonitorMode::EndsOnly, None);
        net.add_cbr_flow(
            ids[0],
            ids[3],
            500,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(10)),
        );
        net.run_until(SimTime::from_secs(1), |ev| mon.observe(ev));
        assert_eq!(mon.report(ids[0], 0).len(), 10);
        assert_eq!(mon.report(ids[2], 0).len(), 10);
        assert_eq!(mon.report(ids[1], 0).len(), 0, "interior must not record");
    }

    #[test]
    fn off_segment_traffic_ignored() {
        let (mut net, ids) = setup_line4();
        // Monitor ⟨n1, n2, n3⟩ but send traffic only n0 → n1 (never enters).
        let seg = PathSegment::new(vec![ids[1], ids[2], ids[3]]);
        let oracle = PathOracle::from_routes(net.routes());
        let ks = keystore(4);
        let mut mon = SegmentMonitorSet::new(vec![seg], oracle, &ks, MonitorMode::AllMembers, None);
        net.add_cbr_flow(
            ids[0],
            ids[1],
            500,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(10)),
        );
        net.run_until(SimTime::from_secs(1), |ev| mon.observe(ev));
        assert!(mon.is_idle());
    }

    #[test]
    fn dropped_packets_visible_as_report_difference() {
        let (mut net, ids) = setup_line4();
        let seg = PathSegment::new(vec![ids[0], ids[1], ids[2], ids[3]]);
        let oracle = PathOracle::from_routes(net.routes());
        let ks = keystore(4);
        let mut mon = SegmentMonitorSet::new(vec![seg], oracle, &ks, MonitorMode::AllMembers, None);
        let flow = net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(100)),
        );
        // n2 drops half the victim flow.
        net.set_attacks(ids[2], vec![fatih_sim::Attack::drop_flows([flow], 0.5)]);
        net.run_until(SimTime::from_secs(1), |ev| mon.observe(ev));
        let up = mon.report(ids[1], 0); // what n1 forwarded to n2
        let down = mon.report(ids[2], 0); // what n2 forwarded to n3
        assert_eq!(up.len(), 100);
        assert!(down.len() < 80, "expected heavy loss, got {}", down.len());
        let verdict = fatih_validation::tv_content(&up.to_content(), &down.to_content());
        assert_eq!(verdict.lost.len(), 100 - down.len());
        assert!(verdict.fabricated.is_empty());
    }

    #[test]
    fn observe_batch_matches_per_event_observe() {
        let (mut net, ids) = setup_line4();
        let segs = vec![
            PathSegment::new(vec![ids[0], ids[1], ids[2], ids[3]]),
            PathSegment::new(vec![ids[1], ids[2], ids[3]]),
        ];
        let oracle = PathOracle::from_routes(net.routes());
        let ks = keystore(4);
        let mut one = SegmentMonitorSet::new(
            segs.clone(),
            oracle.clone(),
            &ks,
            MonitorMode::AllMembers,
            None,
        );
        let mut batch =
            SegmentMonitorSet::new(segs.clone(), oracle, &ks, MonitorMode::AllMembers, None);
        net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(50)),
        );
        let mut events: Vec<TapEvent> = Vec::new();
        net.run_until(SimTime::from_secs(1), |ev| {
            one.observe(ev);
            events.push(*ev);
        });
        // Replay the same tape in uneven chunks through the batched path.
        for chunk in events.chunks(7) {
            batch.observe_batch(chunk);
        }
        for &r in &ids {
            for i in 0..segs.len() {
                assert_eq!(one.report(r, i), batch.report(r, i), "router {r} seg {i}");
            }
        }
    }

    #[test]
    fn sampling_records_subset_consistently_at_both_ends() {
        let (mut net, ids) = setup_line4();
        let seg = PathSegment::new(vec![ids[0], ids[1], ids[2], ids[3]]);
        let oracle = PathOracle::from_routes(net.routes());
        let ks = keystore(4);
        let mut mon =
            SegmentMonitorSet::new(vec![seg], oracle, &ks, MonitorMode::EndsOnly, Some(0.5));
        net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(200)),
        );
        net.run_until(SimTime::from_secs(1), |ev| mon.observe(ev));
        let a = mon.report(ids[0], 0);
        let d = mon.report(ids[3], 0);
        assert_eq!(a.to_content(), d.to_content(), "sampled sets must agree");
        assert!(
            a.len() > 50 && a.len() < 150,
            "≈50% of 200, got {}",
            a.len()
        );
    }

    /// Both taps of one packet on one segment in one batch: the second
    /// takes the first's fingerprint, a memo hit, so the batch reads
    /// (1 hit, 1 miss), and both ends record the one fingerprint.
    #[test]
    fn both_taps_of_a_packet_in_one_batch_are_fingerprinted_once() {
        let (mut net, ids) = setup_line4();
        let seg = PathSegment::new(vec![ids[0], ids[1], ids[2], ids[3]]);
        let oracle = PathOracle::from_routes(net.routes());
        let ks = keystore(4);
        let mut mon = SegmentMonitorSet::new(vec![seg], oracle, &ks, MonitorMode::EndsOnly, None);
        let reg = fatih_obs::MetricsRegistry::new();
        mon.attach_metrics(MonitorMetrics::registered(&reg));
        net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(1)),
        );
        let mut events: Vec<TapEvent> = Vec::new();
        net.run_until(SimTime::from_secs(1), |ev| events.push(*ev));
        mon.observe_batch(&events);
        let snap = reg.snapshot();
        let memo = (
            snap.counter("monitor.fp_cache_hits"),
            snap.counter("monitor.fp_cache_misses"),
        );
        assert_eq!(memo, (1, 1));
        let (up, down) = (mon.report(ids[0], 0), mon.report(ids[3], 0));
        assert_eq!((up.len(), down.len()), (1, 1));
        assert_eq!(up.entries[0].fingerprint, down.entries[0].fingerprint);
    }

    /// Router `at`'s own set over `⟨0, 1, 2, 3⟩` on a 4-line, and the
    /// network taps of a flow `0 → 3` one packet a millisecond for
    /// `packets` ms.
    fn own_set_and_taps(
        at: usize,
        packets: u64,
    ) -> (Vec<RouterId>, SegmentMonitorSet, Vec<TapEvent>) {
        let (mut net, ids) = setup_line4();
        let seg = PathSegment::new(vec![ids[0], ids[1], ids[2], ids[3]]);
        let plan = MonitorPlan::new(
            vec![seg],
            PathOracle::from_routes(net.routes()),
            &keystore(4),
        );
        let set = SegmentMonitorSet::for_router(&plan, ids[at]);
        let stop = SimTime::from_ms(packets);
        net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(stop),
        );
        let mut events: Vec<TapEvent> = Vec::new();
        net.run_until(SimTime::from_secs(2), |ev| events.push(*ev));
        (ids, set, events)
    }

    /// A streamed set digests every round as the whole record does, bit
    /// for bit, while holding only the look-back strips and the tails of
    /// rounds not yet closed; each round's retirement drops its tail, and
    /// a dispute keeps what follows it whole.
    #[test]
    fn a_streamed_set_digests_as_the_whole_record_and_holds_its_strips() {
        const CAP: usize = 8;
        let (tau, lag) = (SimTime::from_ms(200), SimTime::from_ms(20));
        let window = |r| Window::of_round(r, tau, lag);
        let (ids, mut whole, events) = own_set_and_taps(0, 900);
        let (_, mut strips, _) = own_set_and_taps(0, 0);
        strips.stream(tau, lag, CAP);
        let reg = fatih_obs::MetricsRegistry::new();
        strips.attach_metrics(MonitorMetrics::registered(&reg));
        let at = |ms: u64| events.partition_point(|e| e.time() <= SimTime::from_ms(ms));
        let mut fed = 0;
        for r in 0..4u64 {
            // Observed up to the close, closed, digested, then observed up
            // to the evaluation and retired.
            let close = (r + 1) * 200;
            for set in [&mut whole, &mut strips] {
                set.observe_batch(&events[fed..at(close)]);
                set.closed(r);
            }
            fed = at(close);
            let digests = |set: &SegmentMonitorSet| set.digests(ids[0], 0, r, window(r), CAP);
            assert_eq!(digests(&strips), digests(&whole), "round {r}");
            assert!(digests(&strips).is_some());
            // The strips of rounds r − 1 and r and the tail of round r:
            // three lags of traffic, until the dispute keeps all of it.
            let held = if r < 3 { 3 * 20 } else { 20 + 200 };
            assert!(
                strips.held() <= held + 1,
                "round {r}: {} held",
                strips.held()
            );
            if r == 2 {
                strips.dispute(0, SimTime::from_ms(close));
            }
            for set in [&mut whole, &mut strips] {
                set.observe_batch(&events[fed..at(close + 50)]);
                set.retire(r, window(r));
            }
            fed = at(close + 50);
            // Disputed at 600 ms: round 3's held window opens at 560 ms,
            // round 4's at 760 ms, the first whole one.
            let whole_round = |r| strips.holds_whole(ids[0], 0, window(r));
            assert_eq!((whole_round(r + 1), whole_round(4)), (r >= 3, r >= 2));
        }
        assert_eq!(
            strips.report_after(ids[0], 0, window(4).held_from()),
            whole.report_after(ids[0], 0, window(4).held_from())
        );
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("monitor.records") - snap.counter("monitor.entries_pruned"),
            strips.held() as u64
        );
    }
}
