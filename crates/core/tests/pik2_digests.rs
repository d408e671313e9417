//! What a `Pik2Node` says at a segment end in Reconcile mode, and what it
//! resolves a peer's digests against: the ends of ⟨0, 1, 2⟩ on a 3-line,
//! over one record, driven by hand.
//!
//! - A close digests its round in one pass: the (judged, held) pair equals
//!   the digests of the two windows' summaries, bit for bit, duplicates
//!   and entries stamped exactly on a window edge included.
//! - A digest that arrives after the node's own close is resolved against
//!   what the node said, not against a fresh read of its record.

use fatih_core::monitor::{MonitorMode, PathOracle, Report, ReportEntry, SegmentMonitorSet};
use fatih_core::pik2::{Evidence, Pik2Node, Received};
use fatih_core::policy::Thresholds;
use fatih_core::rounds::Window;
use fatih_crypto::KeyStore;
use fatih_sim::{FlowId, Packet, PacketId, PacketKind, SimTime, TapEvent};
use fatih_topology::{builtin, PathSegment, RouterId};
use fatih_validation::digest::ContentDigest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TAU: u64 = 200_000_000;
const LAG: u64 = 50_000_000;
const CAPACITY: usize = 32;

fn window(r: u64) -> Window {
    Window::of_round(r, SimTime::from_ns(TAU), SimTime::from_ns(LAG))
}

/// The one segment ⟨0, 1, 2⟩, the 3-line's ids and an empty record of it.
fn line3() -> (Vec<RouterId>, Vec<PathSegment>, SegmentMonitorSet) {
    let topo = builtin::line(3);
    let ids: Vec<RouterId> = topo.routers().collect();
    let path = (topo.link_state_routes().path(ids[0], ids[2])).expect("a line is connected");
    let segments: Vec<PathSegment> = fatih_topology::pik2_segments_from_paths([path.clone()], 3, 1)
        .all_segments()
        .into_iter()
        .collect();
    let mut keys = KeyStore::with_seed(7);
    for &id in &ids {
        keys.register(id.into());
    }
    let record = SegmentMonitorSet::new(
        segments.clone(),
        PathOracle::from_paths([path]),
        &keys,
        MonitorMode::EndsOnly,
        None,
    );
    (ids, segments, record)
}

/// Records, in time order, packet `id` forwarded by router 0 at each
/// upstream stamp and received by router 2 at each downstream one. A
/// packet taps as often as it is stamped: one fingerprint, many entries.
fn record(ids: &[RouterId], record: &mut SegmentMonitorSet, taps: &[(u64, u64, bool)]) {
    let mut taps = taps.to_vec();
    taps.sort_by_key(|&(t, ..)| t);
    for (t, id, upstream) in taps {
        let packet = Packet {
            id: PacketId(id),
            src: ids[0],
            dst: ids[2],
            flow: FlowId(0),
            kind: PacketKind::Data,
            size: 600 + (id % 7) as u32 * 100,
            seq: id,
            payload_tag: Packet::expected_tag(PacketId(id)),
            ttl: Packet::DEFAULT_TTL,
            created_at: SimTime::ZERO,
        };
        let time = SimTime::from_ns(t);
        record.observe(&if upstream {
            TapEvent::Enqueued {
                router: ids[0],
                next_hop: ids[1],
                packet,
                time,
                queue_len_after: 0,
            }
        } else {
            TapEvent::Arrived {
                router: ids[2],
                from: Some(ids[1]),
                packet,
                time,
            }
        });
    }
}

/// `router`'s entries observed in `(after, until]`, filtered by hand.
fn between(rec: &SegmentMonitorSet, router: RouterId, after: Option<u64>, until: u64) -> Report {
    let entries: Vec<ReportEntry> = (rec.report(router, 0).entries.into_iter())
        .filter(|e| after.is_none_or(|a| e.time.as_ns() > a) && e.time.as_ns() <= until)
        .collect();
    Report { entries }
}

/// Random traffic over four rounds with some packets tapped twice, plus
/// entries stamped exactly on `c_{r−1} − lag`, `c_{r−1}` and `c_r` of each
/// round: at every close, both ends say what `ContentDigest::of` the two
/// windows' summaries says.
#[test]
fn a_close_digests_its_round_in_one_pass() {
    let rounds = 4;
    let edges: Vec<u64> = (0..=rounds)
        .flat_map(|r| {
            let c = (r + 1) * TAU - LAG;
            [c - LAG, c]
        })
        .collect();
    for case in 0u64..6 {
        let (ids, segments, mut rec) = line3();
        let rng = &mut StdRng::seed_from_u64(case);
        let mut taps = vec![];
        for id in 1..300u64 {
            let t = rng.gen_range(1..(rounds + 1) * TAU);
            let copies = if rng.gen_range(0..8u32) == 0 { 2 } else { 1 };
            for k in 0..copies {
                let up = t + k * 3_000_000;
                taps.push((up, id, true));
                taps.push((up + rng.gen_range(0..LAG), id, false));
            }
        }
        for (k, &edge) in edges.iter().enumerate() {
            let id = 1_000 + k as u64;
            taps.extend([(edge, id, true), (edge, id, false), (edge, id + 500, true)]);
        }
        record(&ids, &mut rec, &taps);
        let mut ends = [0, 2].map(|i| Pik2Node::new(ids[i], &segments));
        for r in 0..rounds {
            let judged_from = (r > 0).then(|| r * TAU - LAG);
            let held_from = judged_from.and_then(|c| c.checked_sub(LAG));
            let cutoff = (r + 1) * TAU - LAG;
            for (end, node) in ends.iter_mut().enumerate() {
                let router = ids[2 * end];
                let said = node.close_round(r, window(r), Some(CAPACITY), &rec);
                let [(_, 0, Evidence::Digest { judged, held })] = said.as_slice() else {
                    panic!("one digest pair for the one segment: {said:?}");
                };
                let of = |report: Report| ContentDigest::of(&report.to_content(), CAPACITY);
                let ctx = format!("case {case} round {r} end {end}");
                assert_eq!(
                    *judged,
                    of(between(&rec, router, judged_from, cutoff)),
                    "{ctx}"
                );
                assert_eq!(
                    *held,
                    of(between(&rec, router, held_from, u64::MAX)),
                    "{ctx}"
                );
            }
        }
    }
}

/// After its own close an end resolves a matching digest against what it
/// said: handed an empty record, it still stores a clean verdict, where a
/// digest of the record would differ by the whole window and be pulled.
#[test]
fn a_digest_after_the_own_close_is_resolved_without_the_record() {
    let (ids, segments, mut rec) = line3();
    let taps: Vec<(u64, u64, bool)> = (1..60u64)
        .flat_map(|i| {
            [
                (i * 2_000_000, i, true),
                (i * 2_000_000 + 500_000, i, false),
            ]
        })
        .collect();
    record(&ids, &mut rec, &taps);
    let (_, _, empty) = line3();
    let mut ends = [0, 2].map(|i| Pik2Node::new(ids[i], &segments));
    let mut said: Vec<Evidence> = ends
        .iter_mut()
        .map(|node| {
            node.close_round(0, window(0), Some(CAPACITY), &rec)
                .remove(0)
                .2
        })
        .collect();
    for (to, from) in [(1, 0), (0, 1)] {
        let evidence = std::mem::replace(&mut said[from], Evidence::Pull);
        let got = ends[to].receive(ids[2 * from], 0, &segments[0], evidence, window(0), &empty);
        assert_eq!(got, Received::Stored, "end {to}");
        let thresholds = Thresholds::default();
        let judged = ends[to].evaluate(0, window(0), &thresholds, &empty);
        let verdict = &judged[0].verdict;
        assert!(judged[0].passed && verdict.lost.is_empty() && verdict.fabricated.is_empty());
    }
}
