//! Property test: digest-exchange verdicts are pinned bit-for-bit to the
//! full-summary `difference_pair` verdicts.
//!
//! `diff_via_digest` must never be *wrong*: whenever it resolves, the
//! result must equal what shipping the complete `ContentSummary` and
//! running `difference_pair` would have produced — same fingerprints, same
//! multiplicities, same order. When it cannot certify that (difference
//! over sketch capacity, or two copies of one fingerprint in the
//! difference, a repeated root), it must return `None` and force the
//! fallback, never a plausible guess. And a digest kept running over a
//! stream of observations is the digest of the summary of what it saw.
//!
//! Plain seeded loops (same idiom as `prop.rs`): each case derives its
//! inputs from a deterministic RNG keyed by the loop index.

use fatih_crypto::Fingerprint;
use fatih_validation::digest::{diff_via_digest, ContentDigest};
use fatih_validation::summary::ContentSummary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Keep raw values well below the field top: the sketch sample points live
/// at `P-1, P-2, …`, so this guarantees no eval-point collisions and makes
/// the must-resolve assertions deterministic.
const VAL_RANGE: std::ops::Range<u64> = 1..1 << 40;

fn summary_of(vals: &[u64]) -> ContentSummary {
    let mut s = ContentSummary::default();
    for &v in vals {
        s.observe(Fingerprint::new(v), 64);
    }
    s
}

fn distinct(rng: &mut StdRng, n: usize, exclude: &BTreeSet<u64>) -> Vec<u64> {
    let mut out = BTreeSet::new();
    while out.len() < n {
        let v = rng.gen_range(VAL_RANGE);
        if !exclude.contains(&v) {
            out.insert(v);
        }
    }
    out.into_iter().collect()
}

/// The core invariant, checked in both digest directions.
fn check_pinned(a: &ContentSummary, b: &ContentSummary, cap: usize, seed: u64, ctx: &str) {
    for (remote, local, dir) in [(a, b, "a→b"), (b, a, "b→a")] {
        let digest = ContentDigest::of(remote, cap);
        let want = remote.difference_pair(local);
        let got = diff_via_digest(&digest, local, &mut StdRng::seed_from_u64(seed));
        if let Some(got) = got {
            assert_eq!(got, want, "{ctx} [{dir}]: resolved verdict diverged");
        }
    }
}

/// Multiplicity-1 diffs within capacity MUST resolve, and must match.
#[test]
fn clean_diffs_resolve_and_match() {
    for case in 0u64..200 {
        let mut rng = StdRng::seed_from_u64(0xD16_0000 + case);
        let cap = rng.gen_range(1usize..24);
        let n_shared = rng.gen_range(0..400usize);
        let shared = distinct(&mut rng, n_shared, &BTreeSet::new());
        let shared_set: BTreeSet<u64> = shared.iter().copied().collect();
        let total_diff = rng.gen_range(0..cap + 1);
        let na = rng.gen_range(0..total_diff + 1);
        let extra = distinct(&mut rng, total_diff, &shared_set);
        let (only_a, only_b) = extra.split_at(na);

        let mut av = shared.clone();
        av.extend_from_slice(only_a);
        let mut bv = shared;
        bv.extend_from_slice(only_b);
        let (a, b) = (summary_of(&av), summary_of(&bv));

        let digest = ContentDigest::of(&a, cap);
        let got = diff_via_digest(&digest, &b, &mut StdRng::seed_from_u64(case))
            .unwrap_or_else(|| panic!("case {case}: clean in-capacity diff must resolve"));
        assert_eq!(got, a.difference_pair(&b), "case {case}");
    }
}

/// Identical summaries always resolve to an empty pair.
#[test]
fn identical_summaries_resolve_empty() {
    for case in 0u64..50 {
        let mut rng = StdRng::seed_from_u64(0x1DE_0000 + case);
        let n = rng.gen_range(0..600usize);
        let vals = distinct(&mut rng, n, &BTreeSet::new());
        let a = summary_of(&vals);
        let cap = rng.gen_range(1usize..16);
        let got = diff_via_digest(
            &ContentDigest::of(&a, cap),
            &a,
            &mut StdRng::seed_from_u64(case),
        )
        .expect("identical summaries must resolve");
        assert!(got.0.is_empty() && got.1.is_empty(), "case {case}");
    }
}

/// Both-empty and empty-versus-small cases.
#[test]
fn empty_cases_pinned() {
    let empty = ContentSummary::default();
    check_pinned(&empty, &empty, 4, 0, "empty/empty");
    for case in 0u64..50 {
        let mut rng = StdRng::seed_from_u64(0xE0_0000 + case);
        let cap = rng.gen_range(1usize..12);
        let n = rng.gen_range(0..cap + 1);
        let vals = distinct(&mut rng, n, &BTreeSet::new());
        let a = summary_of(&vals);
        let digest = ContentDigest::of(&a, cap);
        let got = diff_via_digest(&digest, &empty, &mut StdRng::seed_from_u64(case))
            .expect("small-vs-empty must resolve");
        assert_eq!(got, a.difference_pair(&empty), "case {case}");
        check_pinned(&empty, &a, cap, case, "empty vs nonempty");
    }
}

/// Disjoint summaries: resolve iff the combined size fits the capacity,
/// and over-capacity MUST fall back.
#[test]
fn disjoint_and_over_capacity() {
    for case in 0u64..100 {
        let mut rng = StdRng::seed_from_u64(0xD15_0000 + case);
        let cap = rng.gen_range(1usize..16);
        let na = rng.gen_range(0..cap + 11);
        let nb = rng.gen_range(0..cap + 11);
        let av = distinct(&mut rng, na, &BTreeSet::new());
        let bv = distinct(&mut rng, nb, &av.iter().copied().collect());
        let (a, b) = (summary_of(&av), summary_of(&bv));
        let got = diff_via_digest(
            &ContentDigest::of(&a, cap),
            &b,
            &mut StdRng::seed_from_u64(case),
        );
        if na + nb > cap {
            assert!(got.is_none(), "case {case}: over-capacity must fall back");
        } else {
            assert_eq!(
                got.unwrap_or_else(|| panic!("case {case}: in-capacity disjoint must resolve")),
                a.difference_pair(&b),
                "case {case}"
            );
        }
    }
}

/// Random duplicate injection: resolved verdicts must still be exact, and
/// a discrepancy that lives purely in multiplicities must be vetoed.
#[test]
fn duplicates_never_yield_wrong_verdicts() {
    for case in 0u64..200 {
        let mut rng = StdRng::seed_from_u64(0xD0B_0000 + case);
        let cap = rng.gen_range(1usize..16);
        let n_shared = rng.gen_range(1..200usize);
        let shared = distinct(&mut rng, n_shared, &BTreeSet::new());
        let shared_set: BTreeSet<u64> = shared.iter().copied().collect();
        let n_extra = rng.gen_range(0..cap + 1);
        let extra = distinct(&mut rng, n_extra, &shared_set);
        let (only_a, only_b) = extra.split_at(rng.gen_range(0..extra.len() + 1));

        let mut av = shared.clone();
        av.extend_from_slice(only_a);
        let mut bv = shared.clone();
        bv.extend_from_slice(only_b);
        // Duplicate some elements on one or both sides.
        for _ in 0..rng.gen_range(0..4usize) {
            let side: bool = rng.gen();
            let v = if side {
                av[rng.gen_range(0..av.len())]
            } else {
                bv[rng.gen_range(0..bv.len())]
            };
            if side {
                av.push(v);
            } else {
                bv.push(v);
            }
        }
        let (a, b) = (summary_of(&av), summary_of(&bv));
        check_pinned(&a, &b, cap, case, &format!("case {case}"));
    }
}

/// Same distinct sets, multiplicities differ. A skew of one copy of each
/// of some fingerprints is a difference of distinct roots: it resolves,
/// to exactly `difference_pair`'s answer. Two or more extra copies of one
/// fingerprint are a repeated root, which root finding refuses: vetoed.
#[test]
fn multiplicity_skew_resolves_one_copy_and_vetoes_a_repeat() {
    for case in 0u64..100 {
        let mut rng = StdRng::seed_from_u64(0x5E3_0000 + case);
        let n_base = rng.gen_range(1..100usize);
        let base = distinct(&mut rng, n_base, &BTreeSet::new());
        // One extra copy each of 1..=3 distinct elements: resolves.
        let mut av = base.clone();
        let skewed = rng.gen_range(1..4usize).min(base.len());
        av.extend_from_slice(&base[..skewed]);
        let (a, b) = (summary_of(&av), summary_of(&base));
        for (remote, local) in [(&a, &b), (&b, &a)] {
            let got = diff_via_digest(
                &ContentDigest::of(remote, 8),
                local,
                &mut StdRng::seed_from_u64(case),
            );
            assert_eq!(
                got,
                Some(remote.difference_pair(local)),
                "case {case}: a one-copy skew resolves exactly"
            );
        }
        // Two or three extra copies of one element: vetoed.
        let mut av = base.clone();
        let v = base[rng.gen_range(0..base.len())];
        av.extend(std::iter::repeat_n(v, rng.gen_range(2..4usize)));
        let (a, b) = (summary_of(&av), summary_of(&base));
        for (remote, local) in [(&a, &b), (&b, &a)] {
            let got = diff_via_digest(
                &ContentDigest::of(remote, 8),
                local,
                &mut StdRng::seed_from_u64(case),
            );
            assert!(
                got.is_none(),
                "case {case}: a repeated root must force fallback"
            );
        }
    }
}

/// A segment end's running digests on a schedule of rounds: each timed
/// observation of a random multiset goes into its round's judged digest
/// and, within a lag of that round's cutoff, into its strip digest too.
/// Round `r`'s held window is the strip of round `r − 1`, its judged
/// window and everything after it: the product of at most three running
/// digests. Both are `ContentDigest::of` the windows' summaries, bit for
/// bit, duplicates and observations stamped on a window edge included.
#[test]
fn streamed_window_digests_equal_the_windows_summaries_digests() {
    const ROUNDS: u64 = 4;
    for case in 0u64..40 {
        let mut rng = StdRng::seed_from_u64(0x57E_0000 + case);
        let cap = rng.gen_range(1usize..24);
        let tau = rng.gen_range(20..100u64);
        let lag = rng.gen_range(1..tau);
        let cutoff = |r: u64| (r + 1) * tau - lag;
        let round_of = |t: u64| (0..ROUNDS).find(|&r| t <= cutoff(r)).unwrap_or(ROUNDS);
        // Times on and around every edge, fingerprints from a small pool.
        let mut obs: Vec<(u64, Fingerprint, u64)> = (0..rng.gen_range(0..300usize))
            .map(|_| {
                let t = match rng.gen_range(0..4u32) {
                    0 => cutoff(rng.gen_range(0..ROUNDS)),
                    1 => cutoff(rng.gen_range(0..ROUNDS)).saturating_sub(lag),
                    _ => rng.gen_range(0..ROUNDS * tau),
                };
                (
                    t,
                    Fingerprint::new(rng.gen_range(1..50)),
                    rng.gen_range(40..1500),
                )
            })
            .collect();
        obs.sort_by_key(|o| o.0);
        let empty = || ContentDigest::empty(cap);
        let mut judged: Vec<ContentDigest> = (0..=ROUNDS).map(|_| empty()).collect();
        let mut strip = judged.clone();
        for &(t, fp, size) in &obs {
            let r = round_of(t) as usize;
            judged[r].observe(fp, size);
            if t + lag > cutoff(r as u64) {
                strip[r].observe(fp, size);
            }
        }
        for r in 0..ROUNDS {
            let (from, until) = (r.checked_sub(1).map(cutoff), cutoff(r));
            let held_from = from.and_then(|c| c.checked_sub(lag));
            let summary = |after: Option<u64>, until: u64| {
                let mut s = ContentSummary::default();
                for &(t, fp, size) in &obs {
                    if after.is_none_or(|a| t > a) && t <= until {
                        s.observe(fp, size);
                    }
                }
                s
            };
            assert_eq!(
                judged[r as usize],
                ContentDigest::of(&summary(from, until), cap),
                "case {case} round {r}: judged"
            );
            // Everything recorded before the held window opens is in no
            // strip a held window reads: round 0 and a look-back that
            // reaches past time 0 read everything.
            let mut held = match (r, held_from) {
                (0, _) => empty(),
                (_, Some(_)) => strip[r as usize - 1].clone(),
                (_, None) => judged[..r as usize].iter().fold(empty(), |mut d, j| {
                    d.merge(j);
                    d
                }),
            };
            for later in &judged[r as usize..] {
                held.merge(later);
            }
            assert_eq!(
                held,
                ContentDigest::of(&summary(held_from, u64::MAX), cap),
                "case {case} round {r}: held"
            );
        }
    }
}
