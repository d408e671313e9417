//! Fixed-size traffic-summary digests for reconciliation-based exchange.
//!
//! Chapter 7 charges the protocol for every control byte: shipping a full
//! [`ContentSummary`] costs bytes proportional to the *traffic volume*,
//! while the Appendix A sketch ([`SetSketch`]) costs bytes proportional to
//! its fixed *capacity*. A [`ContentDigest`] packages the sketch with just
//! enough side information — the flow counter and a multiset mixing
//! checksum — that a receiver holding its own summary can recover the exact
//! multiset difference, or detect that it cannot and fall back to a full
//! transfer. The invariant [`diff_via_digest`] maintains:
//!
//! > When it returns `Some(d)`, `d` is bit-for-bit what
//! > [`ContentSummary::difference_pair`] would have produced from the two
//! > full summaries (up to the 2⁻⁶⁴ checksum collision bound).
//!
//! The sketch is of the *multiset*: a fingerprint seen twice is a repeated
//! root of the characteristic polynomial, so a digest is a product over
//! observations and can be kept running, one observation at a time
//! ([`ContentDigest::observe`]), and the digest of a multiset sum is a
//! product of digests ([`ContentDigest::merge`]). Multiplicity still has a
//! limit: root finding ([`crate::poly::Poly::roots`]) refuses a repeated
//! root, so a difference holding two or more copies of one fingerprint
//! does not decode and forces the fallback. A difference of one copy (a
//! retransmitted payload counted twice on one side) decodes as that one
//! fingerprint, exactly as [`ContentSummary::difference_pair`] counts it.
//! The mixing checksum — the wrapping sum of a 64-bit finalizer over the
//! multiset — and the packet count then certify the decoded difference
//! independently of the sketch.
//!
//! # Examples
//!
//! ```
//! use fatih_crypto::Fingerprint;
//! use fatih_validation::digest::{diff_via_digest, ContentDigest};
//! use fatih_validation::summary::ContentSummary;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut sent = ContentSummary::default();
//! let mut got = ContentSummary::default();
//! for i in 0u64..1000 {
//!     sent.observe(Fingerprint::new(i * 77 + 1), 100);
//!     if i != 250 {
//!         got.observe(Fingerprint::new(i * 77 + 1), 100);
//!     }
//! }
//! let digest = ContentDigest::of(&sent, 16); // fixed-size, ~tens of bytes
//! let (lost, fabricated) =
//!     diff_via_digest(&digest, &got, &mut StdRng::seed_from_u64(0)).unwrap();
//! assert_eq!(lost, vec![Fingerprint::new(250 * 77 + 1)]);
//! assert!(fabricated.is_empty());
//! ```

use crate::reconcile::{reconcile, SetSketch};
use crate::summary::{ContentSummary, FlowCounter};
use fatih_crypto::Fingerprint;
use rand::Rng;

/// SplitMix64 finalizer: a cheap 64-bit mixing permutation. Summing it over
/// a multiset gives an order-independent checksum in which distinct
/// multisets collide with probability ≈ 2⁻⁶⁴.
fn mix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The wrapping multiset checksum of a full summary.
fn mix_of(summary: &ContentSummary) -> u64 {
    summary.iter().fold(0u64, |acc, (fp, count)| {
        acc.wrapping_add(mix64(fp.value()).wrapping_mul(count as u64))
    })
}

/// A fixed-size stand-in for a [`ContentSummary`]: the Appendix A
/// characteristic-polynomial sketch of its fingerprint multiset, plus the
/// flow counter and the multiset mixing checksum that together let
/// [`diff_via_digest`] certify a recovered difference as exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentDigest {
    sketch: SetSketch,
    flow: FlowCounter,
    mix: u64,
}

impl ContentDigest {
    /// The digest of nothing, with a sketch able to resolve up to
    /// `capacity` differing fingerprints.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (propagated from [`SetSketch`]).
    pub fn empty(capacity: usize) -> Self {
        Self {
            sketch: SetSketch::empty(capacity),
            flow: FlowCounter::default(),
            mix: 0,
        }
    }

    /// Digests a summary with a sketch able to resolve up to `capacity`
    /// differing fingerprints: [`empty`](Self::empty) with every
    /// observation of the summary [`observe`](Self::observe)d, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (propagated from [`SetSketch`]).
    pub fn of(summary: &ContentSummary, capacity: usize) -> Self {
        Self {
            sketch: summary.to_sketch(capacity),
            flow: summary.flow(),
            mix: mix_of(summary),
        }
    }

    /// Adds one observation of `fp`, `size` bytes long.
    #[inline]
    pub fn observe(&mut self, fp: Fingerprint, size: u64) {
        self.sketch.insert(fp.into());
        self.flow.observe(size);
        self.mix = self.mix.wrapping_add(mix64(fp.value()));
    }

    /// Empties the digest, keeping its capacity and its allocation.
    pub fn clear(&mut self) {
        self.sketch.clear();
        self.flow = FlowCounter::default();
        self.mix = 0;
    }

    /// Adds every observation `other` digests: the digest of the multiset
    /// sum. Products and wrapping sums ignore order, so digests kept apart
    /// and merged equal one digest of everything.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn merge(&mut self, other: &ContentDigest) {
        self.sketch.merge(&other.sketch);
        self.flow.merge(&other.flow);
        self.mix = self.mix.wrapping_add(other.mix);
    }

    /// The digest at a smaller sketch `capacity`: the sketch's
    /// [`prefix`](SetSketch::prefix), the same counts and checksum. Equal
    /// to [`of`](Self::of) the same summary at `capacity`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < capacity ≤` this digest's capacity.
    pub fn prefix(&self, capacity: usize) -> Self {
        Self {
            sketch: self.sketch.prefix(capacity),
            flow: self.flow,
            mix: self.mix,
        }
    }

    /// Reassembles a digest from wire-decoded parts.
    pub fn from_parts(sketch: SetSketch, flow: FlowCounter, mix: u64) -> Self {
        Self { sketch, flow, mix }
    }

    /// The characteristic-polynomial sketch of the fingerprint multiset.
    pub fn sketch(&self) -> &SetSketch {
        &self.sketch
    }

    /// Packet/byte counts of the digested summary.
    pub fn flow(&self) -> FlowCounter {
        self.flow
    }

    /// The wrapping multiset mixing checksum.
    pub fn mix_sum(&self) -> u64 {
        self.mix
    }

    /// Wire size in bytes: sketch evaluations + set size + flow counter +
    /// checksum. Independent of how much traffic was summarized.
    pub fn wire_bytes(&self) -> usize {
        self.sketch.wire_bytes() + 8 + 8 + 8
    }
}

/// Attempts to recover the exact multiset difference between a remote
/// summary (known only through `remote`, its digest) and the full `local`
/// summary.
///
/// Returns `Some((remote ∖ local, local ∖ remote))` — both sorted
/// ascending with multiplicities, exactly as
/// [`ContentSummary::difference_pair`] orders them — only when the result
/// is certified: the sketch delta must decode, and the mixing checksum and
/// packet counts must corroborate it. Any decode failure (difference over
/// capacity, eval-point collision, two or more copies of one fingerprint
/// in the difference) or checksum mismatch yields `None`, signalling the
/// caller to fall back to a full summary transfer.
pub fn diff_via_digest<R: Rng>(
    remote: &ContentDigest,
    local: &ContentSummary,
    rng: &mut R,
) -> Option<(Vec<Fingerprint>, Vec<Fingerprint>)> {
    let local = ContentDigest::of(local, remote.sketch.capacity());
    diff_digests(remote, &local, rng)
}

/// [`diff_via_digest`] with the local summary known by its digest too:
/// sketch against sketch, checksum against checksum, count against count.
/// Digests of different capacities do not resolve.
pub fn diff_digests<R: Rng>(
    remote: &ContentDigest,
    local: &ContentDigest,
    rng: &mut R,
) -> Option<(Vec<Fingerprint>, Vec<Fingerprint>)> {
    let delta = reconcile(&remote.sketch, &local.sketch, rng).ok()?;

    // The decoded delta has distinct roots, each of multiplicity one. The
    // checksum equation corroborates it as the multiset difference:
    //   mix(remote) − mix(local) == Σ mix(only_in_remote) − Σ mix(only_in_local)
    let mut implied = local.mix;
    for x in &delta.only_in_a {
        implied = implied.wrapping_add(mix64(x.value()));
    }
    for y in &delta.only_in_b {
        implied = implied.wrapping_sub(mix64(y.value()));
    }
    if implied != remote.mix {
        return None;
    }
    // Cheap exact corroboration: multiset sizes must agree with a
    // multiplicity-1 delta.
    let count_delta = remote.flow.packets as i128 - local.flow.packets as i128;
    if count_delta != delta.only_in_a.len() as i128 - delta.only_in_b.len() as i128 {
        return None;
    }

    let to_fp = |v: &[crate::field::Fe]| -> Vec<Fingerprint> {
        v.iter().map(|fe| Fingerprint::new(fe.value())).collect()
    };
    Some((to_fp(&delta.only_in_a), to_fp(&delta.only_in_b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn summary_of(vals: &[u64]) -> ContentSummary {
        let mut s = ContentSummary::default();
        for &v in vals {
            s.observe(Fingerprint::new(v), 100);
        }
        s
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn identical_summaries_resolve_empty() {
        let a = summary_of(&[1, 2, 3, 4, 5]);
        let d = diff_via_digest(&ContentDigest::of(&a, 4), &a, &mut rng()).unwrap();
        assert!(d.0.is_empty() && d.1.is_empty());
    }

    #[test]
    fn small_diff_matches_difference_pair() {
        let a = summary_of(&(1..=500).collect::<Vec<_>>());
        let b = summary_of(
            &(1..=500)
                .filter(|&v| v != 42 && v != 300)
                .collect::<Vec<_>>(),
        );
        let got = diff_via_digest(&ContentDigest::of(&a, 8), &b, &mut rng()).unwrap();
        assert_eq!(got, a.difference_pair(&b));
    }

    #[test]
    fn over_capacity_falls_back() {
        let a = summary_of(&(1..=100).collect::<Vec<_>>());
        let b = summary_of(&(50..=200).collect::<Vec<_>>());
        assert!(diff_via_digest(&ContentDigest::of(&a, 4), &b, &mut rng()).is_none());
    }

    #[test]
    fn a_skew_of_one_copy_resolves_and_of_two_is_vetoed() {
        // Same distinct sets, but `a` saw fingerprint 9 twice: the multiset
        // sketch sees the extra copy as one root, in either direction.
        let a = summary_of(&[1, 5, 9, 9]);
        let b = summary_of(&[1, 5, 9]);
        let got = diff_via_digest(&ContentDigest::of(&a, 4), &b, &mut rng());
        assert_eq!(got, Some(a.difference_pair(&b)));
        let got = diff_via_digest(&ContentDigest::of(&b, 4), &a, &mut rng());
        assert_eq!(got, Some(b.difference_pair(&a)));
        // Two extra copies are a repeated root, which does not decode.
        let c = summary_of(&[1, 5, 9, 9, 9]);
        assert!(diff_via_digest(&ContentDigest::of(&c, 4), &b, &mut rng()).is_none());
        assert!(diff_via_digest(&ContentDigest::of(&b, 4), &c, &mut rng()).is_none());
    }

    #[test]
    fn a_duplicate_alongside_a_real_diff_resolves() {
        let a = summary_of(&[1, 2, 2, 3, 7]);
        let b = summary_of(&[1, 2, 3]);
        let got = diff_via_digest(&ContentDigest::of(&a, 4), &b, &mut rng());
        assert_eq!(
            got,
            Some((vec![Fingerprint::new(2), Fingerprint::new(7)], vec![]))
        );
    }

    #[test]
    fn empty_versus_nonempty() {
        let a = summary_of(&[11, 22]);
        let empty = ContentSummary::default();
        let d = diff_via_digest(&ContentDigest::of(&a, 4), &empty, &mut rng()).unwrap();
        assert_eq!(d, a.difference_pair(&empty));
        let d = diff_via_digest(&ContentDigest::of(&empty, 4), &a, &mut rng()).unwrap();
        assert_eq!(d, empty.difference_pair(&a));
    }

    #[test]
    fn wire_bytes_fixed_regardless_of_traffic() {
        let small = ContentDigest::of(&summary_of(&[1]), 16);
        let big = ContentDigest::of(&summary_of(&(1..=50_000).collect::<Vec<_>>()), 16);
        assert_eq!(small.wire_bytes(), big.wire_bytes());
    }

    /// Random multisets with repeated fingerprints, split in two parts:
    /// observing each element into its part's digest and merging the parts
    /// is `of` the whole summary, and each part is `of` its own.
    #[test]
    fn running_digests_equal_the_summaries_digests() {
        use rand::Rng;
        for case in 0u64..50 {
            let rng = &mut StdRng::seed_from_u64(case);
            let n = rng.gen_range(0..400usize);
            let entries: Vec<(Fingerprint, u64, bool)> = (0..n)
                .map(|_| {
                    let fp = Fingerprint::new(rng.gen_range(1..60));
                    (fp, rng.gen_range(40..1500), rng.gen_range(0..3u32) > 0)
                })
                .collect();
            for cap in [1, 8, 33] {
                let mut parts = [ContentSummary::default(), ContentSummary::default()];
                let mut running = [ContentDigest::empty(cap), ContentDigest::empty(cap)];
                let mut whole = ContentSummary::default();
                for &(fp, size, in_part) in &entries {
                    parts[in_part as usize].observe(fp, size);
                    running[in_part as usize].observe(fp, size);
                    whole.observe(fp, size);
                }
                for (part, digest) in parts.iter().zip(&running) {
                    assert_eq!(*digest, ContentDigest::of(part, cap), "case {case}");
                }
                let [mut merged, other] = running;
                merged.merge(&other);
                assert_eq!(
                    merged,
                    ContentDigest::of(&whole, cap),
                    "case {case} capacity {cap}"
                );
            }
        }
    }

    #[test]
    fn a_prefix_is_the_digest_at_the_smaller_capacity() {
        let a = summary_of(&(1..=300).chain([7, 7]).collect::<Vec<_>>());
        let full = ContentDigest::of(&a, 32);
        for cap in [1, 4, 17, 32] {
            assert_eq!(
                full.prefix(cap),
                ContentDigest::of(&a, cap),
                "capacity {cap}"
            );
        }
        assert_eq!(full.prefix(4).wire_bytes(), full.wire_bytes() - 28 * 8);
    }

    #[test]
    fn digest_round_trips_through_parts() {
        let a = summary_of(&[3, 1, 4, 1, 5]);
        let d = ContentDigest::of(&a, 8);
        let rebuilt = ContentDigest::from_parts(
            SetSketch::from_parts(
                d.sketch().capacity(),
                d.sketch().len(),
                d.sketch().evals().to_vec(),
            )
            .unwrap(),
            d.flow(),
            d.mix_sum(),
        );
        assert_eq!(d, rebuilt);
    }
}
