//! Property test: `reconcile` returns the exact set difference on random
//! sets — identical, one-sided either way, two-sided, at capacity — under
//! odd and even capacities, and errs over capacity. Which degree bound it
//! solves at is its own business; the answer is not.
//!
//! Plain seeded loops (same idiom as `prop.rs`): each case derives its
//! inputs from a deterministic RNG keyed by the loop index.

use fatih_validation::field::{Fe, P};
use fatih_validation::reconcile::{reconcile, Delta, ReconcileError, SetSketch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const CAPACITIES: [usize; 8] = [1, 2, 3, 4, 7, 8, 15, 16];

/// Values well below the sample points at the top of the field.
fn values(rng: &mut StdRng, n: usize) -> BTreeSet<u64> {
    let mut out = BTreeSet::new();
    while out.len() < n {
        out.insert(rng.gen_range(1..1u64 << 40));
    }
    out
}

fn sketch(set: &BTreeSet<u64>, cap: usize) -> SetSketch {
    SetSketch::from_elements(set.iter().map(|&v| Fe::new(v)), cap)
}

/// `a` loses `removed` of its elements and gains `added` fresh ones to
/// become `b`: reconciled, the difference is exactly that, or an error
/// when it is over `cap`.
fn check(rng: &mut StdRng, cap: usize, size: usize, removed: usize, added: usize, ctx: &str) {
    let a = values(rng, size);
    let mut gone = BTreeSet::new();
    while gone.len() < removed {
        gone.extend(a.iter().nth(rng.gen_range(0..size)));
    }
    let mut fresh = BTreeSet::new();
    while fresh.len() < added {
        fresh.extend(values(rng, 1).difference(&a));
    }
    let b: BTreeSet<u64> = a.difference(&gone).chain(&fresh).copied().collect();
    let got = reconcile(&sketch(&a, cap), &sketch(&b, cap), rng);
    if removed + added > cap {
        assert!(got.is_err(), "{ctx}: over capacity resolved: {got:?}");
        return;
    }
    let fes = |set: &BTreeSet<u64>| set.iter().map(|&v| Fe::new(v)).collect();
    let want = Delta {
        only_in_a: fes(&gone),
        only_in_b: fes(&fresh),
    };
    assert_eq!(got, Ok(want), "{ctx}");
}

#[test]
fn reconcile_returns_the_exact_difference_or_errs() {
    for cap in CAPACITIES {
        for case in 0u64..24 {
            let rng = &mut StdRng::seed_from_u64(case * 1009 + cap as u64);
            let size = rng.gen_range(cap + 5..cap + 300);
            let ctx = |kind: &str| format!("cap {cap} case {case} {kind}");
            check(rng, cap, size, 0, 0, &ctx("identical"));
            let k = rng.gen_range(1..cap + 1);
            check(rng, cap, size, k, 0, &ctx("lost only"));
            check(rng, cap, size, 0, k, &ctx("added only"));
            let lost = rng.gen_range(0..cap + 1);
            let added = rng.gen_range(0..cap - lost + 1);
            check(rng, cap, size, lost, added, &ctx("both ways"));
            let lost = rng.gen_range(0..cap + 1);
            check(rng, cap, size, lost, cap - lost, &ctx("at capacity"));
            let over = rng.gen_range(cap + 1..cap + 5);
            let lost = rng.gen_range(0..over + 1);
            check(rng, cap, size, lost, over - lost, &ctx("over capacity"));
        }
    }
}

/// A set element on an interpolation point — one of the first `capacity`
/// (even) or `capacity − 1` (odd) sample points, `P − 1` downward — is a
/// collision even when the two sketches are identical.
#[test]
fn identical_sketches_with_an_element_on_an_interpolation_point_collide() {
    for cap in CAPACITIES {
        let points = cap - cap % 2;
        for i in 0..points {
            let mut set = values(&mut StdRng::seed_from_u64(i as u64), 20);
            set.insert(P - 1 - i as u64);
            let got = reconcile(
                &sketch(&set, cap),
                &sketch(&set, cap),
                &mut StdRng::seed_from_u64(0),
            );
            assert_eq!(
                got,
                Err(ReconcileError::EvalPointCollision),
                "cap {cap} point {i}"
            );
        }
    }
}

/// A prefix is the sketch of the same set at the smaller capacity, and
/// reconciling two prefixes at capacity `c` says what the full sketches
/// say whenever the difference is at most `c`; above it, the prefixes err
/// and never give a wrong difference.
#[test]
fn a_prefix_is_the_smaller_sketch_and_reconciles_alike() {
    const FULL: usize = 32;
    for case in 0u64..40 {
        let rng = &mut StdRng::seed_from_u64(case * 7919 + 3);
        let size = rng.gen_range(0..400);
        let a = values(rng, size);
        let removed = rng.gen_range(0..size.min(12) + 1);
        let mut gone = BTreeSet::new();
        while gone.len() < removed {
            gone.extend(a.iter().nth(rng.gen_range(0..size)));
        }
        let added = rng.gen_range(0..12usize);
        let mut b: BTreeSet<u64> = a.difference(&gone).copied().collect();
        while b.len() < a.len() - removed + added {
            b.extend(values(rng, 1).difference(&a));
        }
        let d = a.symmetric_difference(&b).count();
        let (full_a, full_b) = (sketch(&a, FULL), sketch(&b, FULL));
        let full = reconcile(&full_a, &full_b, rng).expect("within the full capacity");
        for c in [1, 2, 3, 4, 5, 8, 16, FULL] {
            let ctx = format!("case {case} capacity {c} difference {d}");
            let (pa, pb) = (full_a.prefix(c), full_b.prefix(c));
            assert_eq!(pa, sketch(&a, c), "{ctx}");
            assert_eq!(pb, sketch(&b, c), "{ctx}");
            let got = reconcile(&pa, &pb, rng);
            if d <= c {
                assert_eq!(got.as_ref(), Ok(&full), "{ctx}");
            } else {
                assert!(got.is_err(), "{ctx}: over capacity resolved: {got:?}");
            }
        }
    }
}
