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
//! The subtlety is multiplicity: the characteristic-polynomial sketch
//! requires distinct roots, so [`ContentSummary::to_sketch`] collapses
//! duplicate fingerprints. Two summaries that differ only in a duplicate
//! (a retransmitted payload counted twice on one side) reconcile to an
//! *empty* sketch delta. The mixing checksum closes that blind spot: it is
//! the wrapping sum of a 64-bit finalizer over the multiset, so any
//! multiplicity discrepancy the sketch cannot see shifts the checksum and
//! forces the fallback path instead of a silently wrong verdict.
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

use crate::field::Fe;
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

/// One element of [`ContentDigest::of_part_and_whole`]'s input in one
/// word: the fingerprint shifted up one bit, the low bit clear if the
/// element is in the part, so a sort puts a fingerprint's occurrences in
/// the part first. Fingerprints lie below 2⁶¹, so nothing is shifted out.
pub fn part_key(fp: Fingerprint, in_part: bool) -> u64 {
    fp.value() << 1 | u64::from(!in_part)
}

/// A fixed-size stand-in for a [`ContentSummary`]: the Appendix A
/// characteristic-polynomial sketch over the *distinct* fingerprints, plus
/// the flow counter and the multiset mixing checksum that together let
/// [`diff_via_digest`] certify a recovered difference as exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentDigest {
    sketch: SetSketch,
    flow: FlowCounter,
    mix: u64,
}

impl ContentDigest {
    /// Digests a summary with a sketch able to resolve up to `capacity`
    /// differing distinct fingerprints.
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

    /// The digests of a part of a multiset and of the multiset, from one
    /// sort and one sketch pass over `keys` — each element's
    /// [`part_key`] — and their `(part, whole)` flow counters. Each is
    /// [`of`](Self::of) its summary bit for bit: products and wrapping sums
    /// ignore order. `keys` is left sorted.
    pub fn of_part_and_whole(
        keys: &mut [u64],
        (part_flow, whole_flow): (FlowCounter, FlowCounter),
        capacity: usize,
    ) -> (Self, Self) {
        // A fingerprint's occurrences in the part sort first.
        keys.sort_unstable();
        let [mut part_mix, mut whole_mix] = [0u64; 2];
        let mut last = None;
        let distinct = keys.iter().filter_map(|&key| {
            let (fp, in_part) = (key >> 1, key & 1 == 0);
            let mix = mix64(fp);
            whole_mix = whole_mix.wrapping_add(mix);
            if in_part {
                part_mix = part_mix.wrapping_add(mix);
            }
            (last.replace(fp) != Some(fp)).then_some((Fe::new(fp), in_part))
        });
        let (part_sketch, whole_sketch) = SetSketch::of_part_and_whole(distinct, capacity);
        let digest = |sketch, flow, mix| Self { sketch, flow, mix };
        (
            digest(part_sketch, part_flow, part_mix),
            digest(whole_sketch, whole_flow, whole_mix),
        )
    }

    /// Reassembles a digest from wire-decoded parts.
    pub fn from_parts(sketch: SetSketch, flow: FlowCounter, mix: u64) -> Self {
        Self { sketch, flow, mix }
    }

    /// The characteristic-polynomial sketch over distinct fingerprints.
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
/// packet counts must corroborate that the multiset difference equals the
/// decoded distinct-set delta. Any decode failure (difference over
/// capacity, eval-point collision) or checksum mismatch (a duplicate the
/// collapsed sketch is blind to) yields `None`, signalling the caller to
/// fall back to a full summary transfer.
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

    // The decoded delta is over distinct fingerprints. It equals the true
    // multiset difference iff no shared fingerprint has differing
    // multiplicities and no differing fingerprint appears more than once —
    // exactly what the checksum equation verifies:
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
    fn duplicate_only_discrepancy_is_caught_not_missed() {
        // Same distinct sets, but `a` saw fingerprint 9 twice. The collapsed
        // sketch reconciles to an empty delta; the checksum must veto it.
        let a = summary_of(&[1, 5, 9, 9]);
        let b = summary_of(&[1, 5, 9]);
        assert!(diff_via_digest(&ContentDigest::of(&a, 4), &b, &mut rng()).is_none());
        // And symmetrically when the receiver holds the duplicate.
        assert!(diff_via_digest(&ContentDigest::of(&b, 4), &a, &mut rng()).is_none());
    }

    #[test]
    fn duplicate_alongside_real_diff_is_caught() {
        let a = summary_of(&[1, 2, 2, 3, 7]);
        let b = summary_of(&[1, 2, 3]);
        // Distinct delta {7} decodes fine, but the multiset delta is {2, 7}.
        assert!(diff_via_digest(&ContentDigest::of(&a, 4), &b, &mut rng()).is_none());
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

    /// Random multisets with repeated fingerprints, some in and some out
    /// of the part at once: each one-pass digest is `of` its summary.
    #[test]
    fn one_pass_digests_equal_the_summaries_digests() {
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
            let (mut part, mut whole) = (ContentSummary::default(), ContentSummary::default());
            let mut flows = (FlowCounter::default(), FlowCounter::default());
            for &(fp, size, in_part) in &entries {
                whole.observe(fp, size);
                flows.1.observe(size);
                if in_part {
                    part.observe(fp, size);
                    flows.0.observe(size);
                }
            }
            for cap in [1, 8, 33] {
                let mut keys: Vec<u64> = (entries.iter())
                    .map(|&(fp, _, in_part)| part_key(fp, in_part))
                    .collect();
                let got = ContentDigest::of_part_and_whole(&mut keys, flows, cap);
                let want = (
                    ContentDigest::of(&part, cap),
                    ContentDigest::of(&whole, cap),
                );
                assert_eq!(got, want, "case {case} capacity {cap}");
            }
        }
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
