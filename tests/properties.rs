//! Randomized tests on the core invariants, spanning crates.
//!
//! Formerly proptest-based; now plain seeded loops so the workspace builds
//! offline. Each case derives its inputs from a deterministic RNG keyed by
//! the loop index, so failures reproduce exactly.

use fatih::crypto::{Sha256, UhashKey};
use fatih::stats::{erf, normal};
use fatih::topology::{builtin, AvoidingRoutes, DynamicTopology, PathSegment, RouterId};
use fatih::validation::field::Fe;
use fatih::validation::{reconcile, SetSketch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn random_set(rng: &mut StdRng, range: std::ops::Range<u64>, max_len: usize) -> BTreeSet<u64> {
    let len = rng.gen_range(0..max_len.max(1));
    (0..len).map(|_| rng.gen_range(range.clone())).collect()
}

/// Appendix A: reconciliation recovers any difference within capacity.
#[test]
fn reconciliation_recovers_arbitrary_differences() {
    for case in 0u64..48 {
        let mut rng = StdRng::seed_from_u64(0x2ECC_0000 + case);
        let common = random_set(&mut rng, 1u64..1_000_000, 200);
        let only_a = random_set(&mut rng, 1_000_001u64..2_000_000, 5);
        let only_b = random_set(&mut rng, 2_000_001u64..3_000_000, 5);
        let seed = rng.gen_range(0u64..1000);
        let a: Vec<Fe> = common
            .iter()
            .chain(only_a.iter())
            .map(|&v| Fe::new(v))
            .collect();
        let b: Vec<Fe> = common
            .iter()
            .chain(only_b.iter())
            .map(|&v| Fe::new(v))
            .collect();
        let sa = SetSketch::from_elements(a, 10);
        let sb = SetSketch::from_elements(b, 10);
        let d = reconcile(&sa, &sb, &mut StdRng::seed_from_u64(seed)).unwrap();
        let want_a: Vec<Fe> = only_a.iter().map(|&v| Fe::new(v)).collect();
        let want_b: Vec<Fe> = only_b.iter().map(|&v| Fe::new(v)).collect();
        assert_eq!(d.only_in_a, want_a, "case {case}");
        assert_eq!(d.only_in_b, want_b, "case {case}");
    }
}

/// Over-capacity differences must error, never fabricate an answer.
#[test]
fn reconciliation_never_lies_when_over_capacity() {
    for case in 0u64..32 {
        let mut rng = StdRng::seed_from_u64(0x0C_0000 + case);
        let mut only_a = random_set(&mut rng, 1u64..1_000_000, 20);
        while only_a.len() < 6 {
            only_a.insert(rng.gen_range(1u64..1_000_000));
        }
        let seed = rng.gen_range(0u64..100);
        let a: Vec<Fe> = only_a.iter().map(|&v| Fe::new(v)).collect();
        let sa = SetSketch::from_elements(a, 4);
        let sb = SetSketch::from_elements(std::iter::empty(), 4);
        let r = reconcile(&sa, &sb, &mut StdRng::seed_from_u64(seed));
        assert!(r.is_err(), "case {case}");
    }
}

/// SHA-256 incremental hashing equals one-shot at any split.
#[test]
fn sha256_incremental_equals_oneshot() {
    for case in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(0x5AA2_0000 + case);
        let len = rng.gen_range(0usize..300);
        let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let split = ((data.len() as f64) * rng.gen_range(0.0f64..1.0)) as usize;
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), Sha256::digest(&data), "case {case}");
    }
}

/// The fingerprint is a function of content only and never collides on
/// distinct short messages in practice.
#[test]
fn uhash_deterministic_and_injective_in_practice() {
    for case in 0u64..48 {
        let mut rng = StdRng::seed_from_u64(0x04A5_0000 + case);
        let count = rng.gen_range(2usize..50);
        let mut msgs: BTreeSet<Vec<u8>> = BTreeSet::new();
        while msgs.len() < count {
            let len = rng.gen_range(1usize..64);
            msgs.insert((0..len).map(|_| rng.gen()).collect());
        }
        let key_seed = rng.gen_range(0u64..1000);
        let key = UhashKey::from_seed(key_seed);
        let fps: BTreeSet<u64> = msgs.iter().map(|m| key.fingerprint(m).value()).collect();
        assert_eq!(fps.len(), msgs.len(), "case {case}: fingerprint collision");
        for m in &msgs {
            assert_eq!(key.fingerprint(m), key.fingerprint(m), "case {case}");
        }
    }
}

/// erf is odd, bounded, and monotone; normal CDF inverts its quantile.
#[test]
fn erf_and_normal_shape() {
    for case in 0u64..256 {
        let mut rng = StdRng::seed_from_u64(0xE2F_0000 + case);
        let x = rng.gen_range(-6.0f64..6.0);
        let y = rng.gen_range(-6.0f64..6.0);
        let p = rng.gen_range(0.001f64..0.999);
        assert!((erf(x) + erf(-x)).abs() < 1e-12, "case {case}");
        assert!(erf(x).abs() <= 1.0, "case {case}");
        if x < y {
            assert!(erf(x) <= erf(y), "case {case}");
            assert!(normal::cdf(x) <= normal::cdf(y), "case {case}");
        }
        assert!(
            (normal::cdf(normal::quantile(p)) - p).abs() < 1e-9,
            "case {case}"
        );
    }
}

/// Link-state routes are subpath-consistent on random connected graphs
/// (§4.1's predictability requirement), and the runtime's table under a
/// clean overlay predicts the same remaining route from every router.
#[test]
fn routing_subpath_consistency() {
    for case in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(0x2075_0000 + case);
        let seed = rng.gen_range(0u64..50);
        let n = rng.gen_range(4usize..16);
        let extra = rng.gen_range(0usize..10);
        let topo = builtin::random_connected(n, extra, seed);
        let routes = topo.link_state_routes();
        let mut dynamic = DynamicTopology::new(topo.clone());
        for p in routes.all_paths() {
            for (i, &mid) in p.routers().iter().enumerate() {
                let sub = routes.path(mid, p.sink()).unwrap();
                assert_eq!(sub.routers(), &p.routers()[i..], "case {case}");
                assert_eq!(dynamic.path(mid, p.sink()).ok(), Some(sub), "case {case}");
            }
        }
    }
}

/// Avoidance routing never traverses an excluded segment, is least
/// disruptive (§2.4.3: a pair whose plain route does not cross the segment
/// keeps it), and when it yields no path the plain route genuinely crossed
/// an exclusion.
#[test]
fn avoidance_respects_exclusions() {
    for case in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(0xA0D_0000 + case);
        let seed = rng.gen_range(0u64..30);
        let n = rng.gen_range(5usize..12);
        let topo = builtin::random_connected(n, 4, seed);
        let routes = topo.link_state_routes();
        // Exclude the middle 2-segment of the longest path.
        let longest = routes
            .all_paths()
            .max_by_key(fatih::topology::Path::len)
            .unwrap();
        if longest.len() < 3 {
            continue;
        }
        let mid = longest.len() / 2;
        let seg = PathSegment::new(longest.routers()[mid - 1..=mid].to_vec());
        let av = AvoidingRoutes::new(&topo, vec![seg.clone()]);
        let ids: Vec<RouterId> = topo.routers().collect();
        for &s in &ids {
            for &d in &ids {
                if s == d {
                    continue;
                }
                match av.path(s, d) {
                    Some(p) => {
                        assert!(!p.contains_segment(seg.routers()), "case {case}");
                        let plain = routes.path(s, d).unwrap();
                        if !plain.contains_segment(seg.routers()) {
                            assert_eq!(p, plain, "case {case}");
                        }
                    }
                    None => {
                        // Then every plain route s→d must cross the segment.
                        if let Some(plain) = routes.path(s, d) {
                            assert!(plain.contains_segment(seg.routers()), "case {case}");
                        }
                    }
                }
            }
        }
    }
}

/// Field arithmetic: (a+b)·c = a·c + b·c and inverses invert.
#[test]
fn field_laws() {
    for case in 0u64..256 {
        let mut rng = StdRng::seed_from_u64(0x000F_1E1D_0000 + case);
        let (a, b, c) = (
            Fe::new(rng.gen::<u64>()),
            Fe::new(rng.gen::<u64>()),
            Fe::new(rng.gen_range(1u64..u64::MAX)),
        );
        assert_eq!((a + b) * c, a * c + b * c, "case {case}");
        if !c.is_zero() {
            assert_eq!(c * c.inv(), Fe::new(1), "case {case}");
        }
    }
}
