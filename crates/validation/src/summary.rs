//! Traffic summaries — the `info(r, π, τ)` of dissertation §4.2.1.
//!
//! Each conservation-of-traffic policy (§2.4.1) keeps a different amount of
//! state per forwarded packet:
//!
//! * **flow** — a pair of counters ([`FlowCounter`]): detects loss only;
//! * **content** — a multiset of fingerprints ([`ContentSummary`]): detects
//!   loss, fabrication, modification and misrouting;
//! * **order** — an ordered list of fingerprints ([`OrderedSummary`]): adds
//!   reordering;
//! * **timeliness** — fingerprints with timestamps ([`TimedSummary`]): adds
//!   delay attacks, and is the input Protocol χ's queue prediction consumes.

use fatih_crypto::Fingerprint;
use std::collections::BTreeMap;

use crate::reconcile::SetSketch;

/// Conservation-of-flow state: packet and byte counters
/// (what WATCHERS keeps per neighbour, §3.1).
///
/// # Examples
///
/// ```
/// use fatih_validation::summary::FlowCounter;
/// let mut c = FlowCounter::default();
/// c.observe(1500);
/// c.observe(40);
/// assert_eq!(c.packets, 2);
/// assert_eq!(c.bytes, 1540);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowCounter {
    /// Packets observed.
    pub packets: u64,
    /// Bytes observed.
    pub bytes: u64,
}

impl FlowCounter {
    /// Records one packet of `size` bytes.
    pub fn observe(&mut self, size: u64) {
        self.packets += 1;
        self.bytes += size;
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &FlowCounter) {
        self.packets += other.packets;
        self.bytes += other.bytes;
    }
}

/// Conservation-of-content state: a multiset of packet fingerprints.
///
/// Stored as a count map because retransmitted packets can legitimately
/// produce the same fingerprint twice.
///
/// # Examples
///
/// ```
/// use fatih_validation::summary::ContentSummary;
/// use fatih_crypto::Fingerprint;
/// let mut s = ContentSummary::default();
/// s.observe(Fingerprint::new(7), 100);
/// s.observe(Fingerprint::new(7), 100);
/// assert_eq!(s.multiplicity(Fingerprint::new(7)), 2);
/// assert_eq!(s.flow().packets, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContentSummary {
    counts: BTreeMap<Fingerprint, u32>,
    flow: FlowCounter,
}

impl ContentSummary {
    /// Records one packet.
    pub fn observe(&mut self, fp: Fingerprint, size: u64) {
        *self.counts.entry(fp).or_insert(0) += 1;
        self.flow.observe(size);
    }

    /// Multiplicity of a fingerprint.
    pub fn multiplicity(&self, fp: Fingerprint) -> u32 {
        self.counts.get(&fp).copied().unwrap_or(0)
    }

    /// Total packets summarized.
    pub fn len(&self) -> u64 {
        self.flow.packets
    }

    /// Whether no packets were summarized.
    pub fn is_empty(&self) -> bool {
        self.flow.packets == 0
    }

    /// The embedded flow counters.
    pub fn flow(&self) -> FlowCounter {
        self.flow
    }

    /// Iterates fingerprints with multiplicities, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (Fingerprint, u32)> + '_ {
        self.counts.iter().map(|(&fp, &c)| (fp, c))
    }

    /// Bulk-builds a summary from fingerprints sorted ascending with no
    /// duplicates (the output of a sharded sort-and-aggregate pass), plus
    /// the flow counters the caller accumulated alongside. Equivalent to
    /// calling [`observe`](Self::observe) once per underlying packet, but
    /// one O(n) tree build instead of n logarithmic inserts.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `counts` is strictly sorted by fingerprint.
    pub fn from_sorted(counts: Vec<(Fingerprint, u32)>, flow: FlowCounter) -> Self {
        debug_assert!(
            counts.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted needs strictly ascending fingerprints"
        );
        Self {
            counts: counts.into_iter().collect(),
            flow,
        }
    }

    /// Merges another summary into this one (multiset union): the shard
    /// recombination step of the parallel summarizer.
    pub fn merge(&mut self, other: &ContentSummary) {
        for (&fp, &c) in &other.counts {
            *self.counts.entry(fp).or_insert(0) += c;
        }
        self.flow.merge(&other.flow);
    }

    /// Exact multiset difference `self ∖ other` (with multiplicities), as a
    /// sorted merge-join over the two count maps — one linear pass instead
    /// of a map probe per entry.
    pub fn difference(&self, other: &ContentSummary) -> Vec<Fingerprint> {
        let mut out = Vec::new();
        let mut theirs = other.counts.iter().peekable();
        for (&fp, &count) in &self.counts {
            while theirs.next_if(|&(&ofp, _)| ofp < fp).is_some() {}
            let matched = match theirs.peek() {
                Some(&(&ofp, &oc)) if ofp == fp => oc,
                _ => 0,
            };
            for _ in matched..count {
                out.push(fp);
            }
        }
        out
    }

    /// Both directions of the multiset difference in a single merge-join
    /// pass: `(self ∖ other, other ∖ self)` — exactly what
    /// [`tv_content`](crate::tv_content) needs for (lost, fabricated).
    pub fn difference_pair(&self, other: &ContentSummary) -> (Vec<Fingerprint>, Vec<Fingerprint>) {
        let mut only_self = Vec::new();
        let mut only_other = Vec::new();
        let mut a = self.counts.iter().peekable();
        let mut b = other.counts.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&(&afp, &ac)), Some(&(&bfp, &bc))) => {
                    if afp < bfp {
                        only_self.extend(std::iter::repeat_n(afp, ac as usize));
                        a.next();
                    } else if bfp < afp {
                        only_other.extend(std::iter::repeat_n(bfp, bc as usize));
                        b.next();
                    } else {
                        if ac > bc {
                            only_self.extend(std::iter::repeat_n(afp, (ac - bc) as usize));
                        } else if bc > ac {
                            only_other.extend(std::iter::repeat_n(bfp, (bc - ac) as usize));
                        }
                        a.next();
                        b.next();
                    }
                }
                (Some(&(&afp, &ac)), None) => {
                    only_self.extend(std::iter::repeat_n(afp, ac as usize));
                    a.next();
                }
                (None, Some(&(&bfp, &bc))) => {
                    only_other.extend(std::iter::repeat_n(bfp, bc as usize));
                    b.next();
                }
                (None, None) => break,
            }
        }
        (only_self, only_other)
    }

    /// Builds the compact polynomial sketch for bandwidth-efficient
    /// exchange (Appendix A) of the fingerprint multiset: a fingerprint
    /// seen `c` times is a root of multiplicity `c`.
    pub fn to_sketch(&self, capacity: usize) -> SetSketch {
        let each = |(&fp, &c): (&Fingerprint, &u32)| std::iter::repeat_n(fp.into(), c as usize);
        SetSketch::from_elements(self.counts.iter().flat_map(each), capacity)
    }
}

/// Conservation-of-order state: fingerprints in forwarding order.
///
/// # Examples
///
/// ```
/// use fatih_validation::summary::OrderedSummary;
/// use fatih_crypto::Fingerprint;
/// let mut s = OrderedSummary::default();
/// s.observe(Fingerprint::new(1), 100);
/// s.observe(Fingerprint::new(2), 100);
/// assert_eq!(s.sequence().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OrderedSummary {
    seq: Vec<Fingerprint>,
    flow: FlowCounter,
}

impl OrderedSummary {
    /// Records one packet in order.
    pub fn observe(&mut self, fp: Fingerprint, size: u64) {
        self.seq.push(fp);
        self.flow.observe(size);
    }

    /// Bulk-builds from an already-ordered fingerprint sequence and its
    /// accumulated flow counters (one move, no per-packet bookkeeping).
    pub fn from_sequence(seq: Vec<Fingerprint>, flow: FlowCounter) -> Self {
        Self { seq, flow }
    }

    /// Appends another summary observed *after* this one (shard
    /// recombination: concatenating contiguous shards preserves
    /// observation order).
    pub fn merge(&mut self, other: &OrderedSummary) {
        self.seq.extend_from_slice(&other.seq);
        self.flow.merge(&other.flow);
    }

    /// The observation sequence.
    pub fn sequence(&self) -> &[Fingerprint] {
        &self.seq
    }

    /// The embedded flow counters.
    pub fn flow(&self) -> FlowCounter {
        self.flow
    }

    /// Collapses to an unordered content summary.
    pub fn to_content(&self) -> ContentSummary {
        let mut c = ContentSummary::default();
        let avg = if self.seq.is_empty() {
            0
        } else {
            self.flow.bytes / self.seq.len() as u64
        };
        for &fp in &self.seq {
            c.observe(fp, avg);
        }
        c
    }
}

/// One timestamped observation in a [`TimedSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEntry {
    /// Packet fingerprint.
    pub fingerprint: Fingerprint,
    /// Packet size in bytes.
    pub size: u32,
    /// Observation time in nanoseconds (simulation clock; for Protocol χ
    /// this is the computed time the packet *enters or exits the monitored
    /// queue*, §6.2.1).
    pub time_ns: u64,
}

/// Conservation-of-timeliness state, and the `Tinfo(r, Q_dir, π, τ)` of
/// Protocol χ: timestamped, sized fingerprints.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimedSummary {
    entries: Vec<TimedEntry>,
}

impl TimedSummary {
    /// Records one packet observation.
    pub fn observe(&mut self, fingerprint: Fingerprint, size: u32, time_ns: u64) {
        self.entries.push(TimedEntry {
            fingerprint,
            size,
            time_ns,
        });
    }

    /// Entries in insertion order.
    pub fn entries(&self) -> &[TimedEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries sorted by timestamp (stable for ties).
    pub fn sorted_by_time(&self) -> Vec<TimedEntry> {
        let mut v = self.entries.clone();
        v.sort_by_key(|e| e.time_ns);
        v
    }

    /// Looks up the entry for a fingerprint (first match).
    pub fn find(&self, fp: Fingerprint) -> Option<&TimedEntry> {
        self.entries.iter().find(|e| e.fingerprint == fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(v: u64) -> Fingerprint {
        Fingerprint::new(v)
    }

    #[test]
    fn flow_counter_merge() {
        let mut a = FlowCounter::default();
        a.observe(100);
        let mut b = FlowCounter::default();
        b.observe(200);
        b.observe(300);
        a.merge(&b);
        assert_eq!(
            a,
            FlowCounter {
                packets: 3,
                bytes: 600
            }
        );
    }

    #[test]
    fn difference_pair_matches_both_one_way_differences() {
        // Pseudo-random multisets with shared, disjoint and
        // multiplicity-skewed fingerprints.
        let mut x = 0xDEAD_BEEFu64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut a = ContentSummary::default();
        let mut b = ContentSummary::default();
        for _ in 0..500 {
            let v = next() % 64; // force collisions and multiplicities
            if next() % 3 != 0 {
                a.observe(fp(v), 100);
            }
            if next() % 3 != 0 {
                b.observe(fp(v), 100);
            }
        }
        let (lost, fabricated) = a.difference_pair(&b);
        assert_eq!(lost, a.difference(&b));
        assert_eq!(fabricated, b.difference(&a));
    }

    #[test]
    fn from_sorted_and_merge_agree_with_observe() {
        let mut by_observe = ContentSummary::default();
        for v in [1u64, 1, 2, 5, 5, 5, 9] {
            by_observe.observe(fp(v), 10);
        }
        let bulk = ContentSummary::from_sorted(
            vec![(fp(1), 2), (fp(2), 1), (fp(5), 3), (fp(9), 1)],
            FlowCounter {
                packets: 7,
                bytes: 70,
            },
        );
        assert_eq!(bulk, by_observe);

        let mut left = ContentSummary::default();
        let mut right = ContentSummary::default();
        for v in [1u64, 1, 2] {
            left.observe(fp(v), 10);
        }
        for v in [5u64, 5, 5, 9] {
            right.observe(fp(v), 10);
        }
        left.merge(&right);
        assert_eq!(left, by_observe);
    }

    #[test]
    fn ordered_merge_concatenates_in_order() {
        let mut first = OrderedSummary::default();
        first.observe(fp(3), 10);
        first.observe(fp(1), 20);
        let mut second = OrderedSummary::default();
        second.observe(fp(2), 30);
        first.merge(&second);
        assert_eq!(first.sequence(), &[fp(3), fp(1), fp(2)]);
        assert_eq!(first.flow().bytes, 60);
        let bulk = OrderedSummary::from_sequence(
            vec![fp(3), fp(1), fp(2)],
            FlowCounter {
                packets: 3,
                bytes: 60,
            },
        );
        assert_eq!(bulk, first);
    }

    #[test]
    fn content_difference_respects_multiplicity() {
        let mut a = ContentSummary::default();
        let mut b = ContentSummary::default();
        a.observe(fp(1), 10);
        a.observe(fp(1), 10);
        a.observe(fp(2), 10);
        b.observe(fp(1), 10);
        assert_eq!(a.difference(&b), vec![fp(1), fp(2)]);
        assert!(b.difference(&a).is_empty());
    }

    #[test]
    fn content_sketch_reconciles_against_peer() {
        use crate::reconcile::reconcile;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut sent = ContentSummary::default();
        let mut recv = ContentSummary::default();
        for i in 0..100u64 {
            let f = fatih_crypto::UhashKey::from_seed(3).fingerprint(&i.to_le_bytes());
            sent.observe(f, 100);
            if i != 33 {
                recv.observe(f, 100);
            }
        }
        let d = reconcile(
            &sent.to_sketch(4),
            &recv.to_sketch(4),
            &mut StdRng::seed_from_u64(0),
        )
        .unwrap();
        assert_eq!(d.only_in_a.len(), 1);
    }

    #[test]
    fn ordered_summary_preserves_order() {
        let mut s = OrderedSummary::default();
        s.observe(fp(3), 10);
        s.observe(fp(1), 10);
        s.observe(fp(2), 10);
        assert_eq!(s.sequence(), &[fp(3), fp(1), fp(2)]);
        assert_eq!(s.to_content().len(), 3);
    }

    #[test]
    fn timed_summary_sorts_and_finds() {
        let mut s = TimedSummary::default();
        s.observe(fp(1), 100, 300);
        s.observe(fp(2), 200, 100);
        let sorted = s.sorted_by_time();
        assert_eq!(sorted[0].fingerprint, fp(2));
        assert_eq!(s.find(fp(1)).unwrap().size, 100);
        assert!(s.find(fp(99)).is_none());
    }
}
