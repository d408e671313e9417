//! Randomized tests on the core invariants, spanning crates.
//!
//! Formerly proptest-based; now plain seeded loops so the workspace builds
//! offline. Each case derives its inputs from a deterministic RNG keyed by
//! the loop index, so failures reproduce exactly.

use fatih::crypto::{Fingerprint, Sha256, UhashKey};
use fatih::obs::{TraceBuffer, TraceEvent, TraceJournal, TraceKind};
use fatih::protocols::monitor::{Record, Report, ReportEntry};
use fatih::protocols::rounds::Window;
use fatih::sim::SimTime;
use fatih::stats::{erf, normal};
use fatih::topology::{builtin, DynamicTopology, PathSegment, RouterId};
use fatih::validation::field::Fe;
use fatih::validation::{reconcile, SetSketch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Fisher–Yates, on the seeded generator.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

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
        let mut av = DynamicTopology::new(topo.clone());
        av.exclude_segment(seg.clone());
        let ids: Vec<RouterId> = topo.routers().collect();
        for &s in &ids {
            for &d in &ids {
                if s == d {
                    continue;
                }
                match av.path(s, d).ok() {
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

/// A segment end's record in columns reads back as the `Vec<ReportEntry>`
/// it stands for: random monotone times over records that span more than
/// 2³² ns and cross that boundary (and its multiples), runs of sizes of
/// random lengths, duplicate fingerprints and times, prunes at random
/// horizons, entry times included, and cuts of random spans out of the
/// middle (a streamed record dropping a tail). Every read a round makes —
/// the held window and the judged span inside it — is the reference's, bit
/// for bit.
#[test]
fn a_compact_record_reads_as_its_entries() {
    const WRAP: u64 = 1 << 32;
    // Reads of a record that crosses a boundary, and of one that spans
    // more than 2³² ns.
    let (mut crossing, mut spanning) = (0, 0);
    for case in 0u64..64 {
        let rng = &mut StdRng::seed_from_u64(0xC01C_0000 + case);
        let mut record = Record::default();
        let mut reference: Vec<ReportEntry> = Vec::new();
        // Start just before one of the first boundaries, so the record
        // crosses it early.
        let mut t = WRAP * rng.gen_range(1..4u64) - rng.gen_range(0..2_000_000_000u64);
        let mut size = 1000u32;
        let step = rng.gen_range(1..60_000_000u64);
        let upto = |entries: &[ReportEntry], at: SimTime| entries.partition_point(|e| e.time <= at);
        for _ in 0..rng.gen_range(1..8u32) {
            for _ in 0..rng.gen_range(0..300u32) {
                t += match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => rng.gen_range(1..1_000u64),
                    _ => rng.gen_range(1..step),
                };
                if rng.gen_bool(0.15) {
                    size = [40, 1000, 1500, rng.gen()][rng.gen_range(0..4usize)];
                }
                let fp = if rng.gen_bool(0.5) {
                    rng.gen_range(0..50u64)
                } else {
                    rng.gen()
                };
                let e = ReportEntry {
                    fingerprint: Fingerprint::new(fp),
                    size,
                    time: SimTime::from_ns(t),
                };
                record.push(e);
                reference.push(e);
            }
            // Instants worth reading at: any, an entry's own and the ones
            // about a boundary.
            let first = reference.first().map_or(t, |e| e.time.as_ns());
            let instant = |rng: &mut StdRng| match rng.gen_range(0..3u32) {
                0 if !reference.is_empty() => reference[rng.gen_range(0..reference.len())].time,
                1 => SimTime::from_ns((t / WRAP * WRAP).saturating_sub(rng.gen_range(0..2u64))),
                _ => SimTime::from_ns(rng.gen_range(first.saturating_sub(step)..t + step)),
            };
            for _ in 0..8 {
                let after = rng.gen_bool(0.8).then(|| instant(rng));
                let held = record.after(after);
                let want = &reference[after.map_or(0, |a| upto(&reference, a))..];
                assert_eq!(held.len(), want.len(), "case {case}");
                assert_eq!(
                    held.to_report(),
                    Report {
                        entries: want.to_vec()
                    },
                    "case {case}"
                );
                let (a, b) = (instant(rng), instant(rng));
                let (a, end) = (a.min(b), a.max(b));
                let lag = SimTime::from_ns(rng.gen_range(0..step * 4));
                let prev_end = rng.gen_bool(0.8).then_some(a);
                let window = Window::closing(prev_end, end, lag);
                let held = record.after(window.held_from());
                let want = &reference[window.held_from().map_or(0, |h| upto(&reference, h))..];
                let judged = window.judged_span(&held);
                let judged_from = prev_end.map_or(0, |p| upto(want, p.since(lag)));
                assert_eq!(
                    judged,
                    judged_from..upto(want, end.since(lag)),
                    "case {case}"
                );
            }
            if let (Some(first), Some(last)) = (reference.first(), reference.last()) {
                let (first, last) = (first.time.as_ns(), last.time.as_ns());
                crossing += usize::from(first / WRAP != last / WRAP);
                spanning += usize::from(last - first > WRAP);
            }
            let (a, b, horizon) = (instant(rng), instant(rng), instant(rng));
            if rng.gen_bool(0.5) {
                let cut = upto(&reference, a)..upto(&reference, b).max(upto(&reference, a));
                assert_eq!(record.prune_between(a, b), cut.len(), "case {case}");
                reference.drain(cut);
            }
            let n = upto(&reference, horizon);
            assert_eq!(record.prune(horizon), n, "case {case}");
            reference.drain(..n);
            assert_eq!(record.len(), reference.len(), "case {case}");
        }
    }
    assert!(
        crossing > 50 && spanning > 10,
        "{crossing} crossing, {spanning} spanning"
    );
}

/// A merged trace journal keeps each ring's slots where they are and reads
/// them back as the `Vec<TraceEvent>` they stand for: 1–4 buffers of
/// distinct shards, rings that wrapped and overwrote their oldest events,
/// times out of order inside one buffer (a tap carries its packet's own
/// time) and equal times across buffers. `events()` is the reference
/// sorted by `(t_ns, shard, seq)`, bit for bit; so is the journal parsed
/// back from its JSONL, and from hand-written JSONL with `seq` gaps and its
/// lines, shards included, out of order.
#[test]
fn a_slot_journal_reads_as_its_sorted_events() {
    let key = |e: &TraceEvent| (e.t_ns, e.shard, e.seq);
    let (mut wrapped, mut unordered, mut tied) = (0, 0, 0);
    for case in 0u64..64 {
        let rng = &mut StdRng::seed_from_u64(0x5107_0000 + case);
        let mut shards: Vec<u32> = (0..8).collect();
        shuffle(rng, &mut shards);
        shards.truncate(rng.gen_range(1..5));
        let mut buffers = Vec::new();
        let mut reference: Vec<TraceEvent> = Vec::new();
        let mut dropped = 0;
        for &shard in &shards {
            let capacity = rng.gen_range(1..96usize);
            let mut buf = TraceBuffer::new(shard, capacity);
            let mut kept = std::collections::VecDeque::new();
            let mut t = rng.gen_range(0..20u64);
            for seq in 0..rng.gen_range(0..240u64) {
                // Mostly forward, in coarse steps so that times repeat
                // within and across buffers; now and then a step back.
                t = match rng.gen_range(0..8u32) {
                    0 => t.saturating_sub(rng.gen_range(1..30u64)),
                    1..=3 => t,
                    _ => t + rng.gen_range(1..4u64),
                };
                let e = TraceEvent {
                    seq,
                    t_ns: t,
                    shard,
                    router: rng.gen_range(0..5),
                    round: rng.gen_range(0..3),
                    kind: TraceKind::ALL[rng.gen_range(0..TraceKind::ALL.len())],
                    value: rng.gen(),
                };
                buf.record(e.t_ns, e.kind, e.router, e.round, e.value);
                if kept.len() == capacity {
                    kept.pop_front();
                    dropped += 1;
                }
                kept.push_back(e);
            }
            wrapped += usize::from(buf.dropped() > 0);
            unordered += usize::from(
                kept.iter()
                    .zip(kept.iter().skip(1))
                    .any(|(a, b)| b.t_ns < a.t_ns),
            );
            reference.extend(kept);
            buffers.push(buf);
        }
        reference.sort_by_key(key);
        tied += usize::from(
            (reference.iter().zip(reference.iter().skip(1)))
                .any(|(a, b)| a.t_ns == b.t_ns && a.shard != b.shard),
        );

        let journal = TraceJournal::from_buffers(buffers);
        let read: Vec<TraceEvent> = journal.events().into_iter().collect();
        assert_eq!(read, reference, "case {case}");
        assert_eq!(journal.len(), reference.len(), "case {case}");
        assert_eq!(
            journal.events().iter().len(),
            reference.len(),
            "case {case}"
        );
        assert_eq!(journal.dropped(), dropped, "case {case}");

        let back = TraceJournal::from_jsonl(&journal.to_jsonl()).expect("JSONL parses");
        assert_eq!(back.events(), journal.events(), "case {case}");
        for &kind in TraceKind::ALL {
            let n = reference.iter().filter(|e| e.kind == kind).count() as u64;
            assert_eq!(back.recorded(kind), n, "case {case}: {kind:?}");
        }

        // Drop some events (gaps in `seq`), shuffle the rest and write
        // each line by hand, its fields in another order.
        let mut lines: Vec<&TraceEvent> = reference.iter().filter(|_| rng.gen_bool(0.8)).collect();
        shuffle(rng, &mut lines);
        let jsonl: String = lines
            .iter()
            .map(|e| {
                format!(
                    "{{\"kind\": \"{}\", \"value\": {}, \"shard\": {}, \"seq\": {}, \
                     \"round\": {}, \"router\": {}, \"t_ns\": {}}}\n",
                    e.kind.as_str(),
                    e.value,
                    e.shard,
                    e.seq,
                    e.round,
                    e.router,
                    e.t_ns
                )
            })
            .collect();
        let mut want: Vec<TraceEvent> = lines.into_iter().copied().collect();
        want.sort_by_key(key);
        let parsed = TraceJournal::from_jsonl(&jsonl).expect("hand-written JSONL parses");
        let read: Vec<TraceEvent> = parsed.events().iter().collect();
        assert_eq!(read, want, "case {case}: hand-written JSONL");
        assert_eq!(parsed.dropped(), 0);
    }
    assert!(
        wrapped > 20 && unordered > 20 && tied > 20,
        "{wrapped} wrapped, {unordered} out of order, {tied} tied across buffers"
    );
}
