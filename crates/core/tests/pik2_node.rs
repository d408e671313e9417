//! `Pik2Node` driven by hand, without a clock, a socket or a simulator:
//! two nodes — the ends of ⟨0, 1, 2⟩ on a 3-line — over one record, the
//! test carrying each piece of evidence from one to the other in whatever
//! order it likes.
//!
//! What a host may rely on, whichever host it is: the verdict of a round is
//! a function of what was recorded, not of the order evidence arrived in;
//! only the segment's other end is heard; an evaluated round is closed; a
//! replan voids what was heard; every observation is judged in exactly one
//! round.

use fatih_core::monitor::{MonitorMode, PathOracle, Report, SegmentMonitorSet};
use fatih_core::pik2::{Evidence, Judged, Pik2Node, Received};
use fatih_core::policy::Thresholds;
use fatih_core::rounds::Window;
use fatih_crypto::KeyStore;
use fatih_sim::{FlowId, Packet, PacketId, PacketKind, SimTime, TapEvent};
use fatih_topology::{builtin, PathSegment, RouterId};
use fatih_validation::digest::ContentDigest;

const TAU: u64 = 200_000_000;
const LAG: u64 = 50_000_000;

fn window(r: u64) -> Window {
    Window::of_round(r, SimTime::from_ns(TAU), SimTime::from_ns(LAG))
}

/// The record both ends of ⟨0, 1, 2⟩ write, and the ids of the 3-line.
struct Line3 {
    ids: Vec<RouterId>,
    segments: Vec<PathSegment>,
    record: SegmentMonitorSet,
    packets: u64,
}

impl Line3 {
    fn new() -> Self {
        let topo = builtin::line(3);
        let ids: Vec<RouterId> = topo.routers().collect();
        let path = (topo.link_state_routes().path(ids[0], ids[2])).expect("a line is connected");
        let segments: Vec<PathSegment> =
            fatih_topology::pik2_segments_from_paths([path.clone()], 3, 1)
                .all_segments()
                .into_iter()
                .collect();
        assert_eq!(segments.len(), 1);
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
        Self {
            ids,
            segments,
            record,
            packets: 0,
        }
    }

    /// End 0 is the upstream one, router 0; end 1 is router 2.
    fn router(&self, end: usize) -> RouterId {
        self.ids[2 * end]
    }

    /// The two ends, sending summaries (`sketch` `None`) or digests of
    /// `sketch` capacity.
    fn ends(&self, sketch: Option<usize>) -> [Pik2Node; 2] {
        [0, 1].map(|i| Pik2Node::new(self.router(i), &self.segments, sketch))
    }

    /// Records packets by (time router 0 forwards it, time router 2
    /// receives it — `None`: lost on the way), in nanoseconds. Each end's
    /// stamps must come in time order.
    fn record(&mut self, stamps: &[(u64, Option<u64>)]) {
        let mut evs: Vec<(u64, TapEvent)> = Vec::new();
        for &(t_up, t_down) in stamps {
            self.packets += 1;
            let id = PacketId(self.packets);
            let packet = Packet {
                id,
                src: self.ids[0],
                dst: self.ids[2],
                flow: FlowId(0),
                kind: PacketKind::Data,
                size: 800,
                seq: self.packets,
                payload_tag: Packet::expected_tag(id),
                ttl: Packet::DEFAULT_TTL,
                created_at: SimTime::from_ns(t_up),
            };
            let enqueued = TapEvent::Enqueued {
                router: self.ids[0],
                next_hop: self.ids[1],
                packet,
                time: SimTime::from_ns(t_up),
                queue_len_after: 0,
            };
            evs.push((t_up, enqueued));
            if let Some(t) = t_down {
                let arrived = TapEvent::Arrived {
                    router: self.ids[2],
                    from: Some(self.ids[1]),
                    packet,
                    time: SimTime::from_ns(t),
                };
                evs.push((t, arrived));
            }
        }
        evs.sort_by_key(|&(t, _)| t);
        for (_, ev) in &evs {
            self.record.observe(ev);
        }
    }

    fn evaluate(&self, node: &mut Pik2Node, r: u64) -> Judged {
        let thresholds = Thresholds::default();
        let mut judged = node.evaluate(r, window(r), &thresholds, &self.record);
        assert_eq!(judged.len(), 1, "each end ends the one segment");
        judged.remove(0)
    }

    /// A whole round with nothing lost on the control plane: (lost,
    /// fabricated) as each end judges it, upstream end first.
    fn round(&self, ends: &mut [Pik2Node; 2], r: u64) -> [(usize, usize); 2] {
        let mut wire: Vec<Msg> = Vec::new();
        for i in [0, 1] {
            wire.extend(self.close(&mut ends[i], i, r));
        }
        while let Some(msg) = wire.pop() {
            wire.extend(self.deliver(ends, msg).1);
        }
        [0, 1].map(|i| {
            assert!(ends[i].is_settled(r));
            let j = self.evaluate(&mut ends[i], r);
            assert!(!j.verdict.bottom);
            (j.verdict.lost.len(), j.verdict.fabricated.len())
        })
    }

    /// End `i` closes round `r`: what it sends.
    fn close(&self, node: &mut Pik2Node, i: usize, r: u64) -> Vec<Msg> {
        let said = node.close_round(r, window(r), &self.record);
        let msg = |(to, seg, evidence): (RouterId, usize, Evidence)| {
            assert_eq!((to, seg), (self.router(1 - i), 0));
            Msg {
                to: 1 - i,
                round: r,
                evidence,
            }
        };
        said.into_iter().map(msg).collect()
    }

    /// Hands `msg` to the end it is for, as coming from the other end:
    /// what the node made of it, and the reply to carry back.
    fn deliver(&self, ends: &mut [Pik2Node; 2], msg: Msg) -> (Received, Option<Msg>) {
        let received = ends[msg.to].receive(
            self.router(1 - msg.to),
            msg.round,
            &self.segments[0],
            msg.evidence,
            window(msg.round),
            &self.record,
        );
        let reply = match &received {
            Received::Reply(evidence) | Received::StoredAndReply(evidence) => Some(Msg {
                to: 1 - msg.to,
                round: msg.round,
                evidence: evidence.clone(),
            }),
            _ => None,
        };
        (received, reply)
    }
}

/// A piece of evidence in flight to `ends[to]` from the other end.
#[derive(Debug, Clone, PartialEq)]
struct Msg {
    to: usize,
    round: u64,
    evidence: Evidence,
}

/// Runs `run` once for every sequence of choices it can make: `run` asks
/// `choose(n)` for an index below `n` wherever the order is open.
fn every_schedule(mut run: impl FnMut(&mut dyn FnMut(usize) -> usize)) -> usize {
    let mut path: Vec<(usize, usize)> = Vec::new();
    let mut schedules = 0;
    loop {
        let mut depth = 0;
        run(&mut |options| {
            assert!(options > 0);
            if depth == path.len() {
                path.push((0, options));
            }
            depth += 1;
            path[depth - 1].0
        });
        schedules += 1;
        while path
            .last()
            .is_some_and(|&(chosen, options)| chosen + 1 == options)
        {
            path.pop();
        }
        match path.last_mut() {
            Some(last) => last.0 += 1,
            None => return schedules,
        }
    }
}

/// Round 1 of a run that lost three packets, under every order in which
/// the two closes, each end's evidence, a duplicate of the upstream end's,
/// a leftover of round 0, and whatever pulls and pull replies those set
/// off can happen: both ends reach the verdict a full-summary exchange
/// reaches. A digest that arrives before the receiver's own close
/// resolves; a sketch too small for the three losses falls back to a pull
/// and then judges as the full summary does.
#[test]
fn every_arrival_order_gives_the_same_verdict() {
    // (sketch, what that needs, whether the upstream end's evidence is
    // duplicated, whether round 0's turns up again): with pulls and their
    // replies in play the extras are taken one at a time, to keep the
    // schedules in the thousands.
    let cases = [
        (None, Exchange::Plain, true, true),
        (Some(32), Exchange::Plain, true, true),
        (Some(2), Exchange::Pulled, false, true),
        (Some(2), Exchange::Pulled, true, false),
    ];
    every_order(&[35, 44, 52], 3, &cases);
}

/// Round 1 of a run that lost six packets — more than a digest prefix
/// certifies, fewer than the capacity of 32 — under every order as above:
/// both ends escalate to their full digests, each sends its own at most
/// once, and the verdict is the full-summary one with no pull, whatever
/// arrives first.
#[test]
fn every_arrival_order_of_an_escalation_gives_the_same_verdict() {
    let cases = [
        (Some(32), Exchange::Escalated, true, false),
        (Some(32), Exchange::Escalated, false, true),
    ];
    every_order(&[35, 38, 41, 44, 48, 52], 6, &cases);
}

/// What a round's exchange needed beyond the round-end evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Exchange {
    Plain,
    Pulled,
    Escalated,
}

/// Runs round 1 of a record that loses the packets at `lost` (indices of
/// 5 ms stamps) under every arrival order, for each case of `cases`.
fn every_order(lost: &[usize], n: usize, cases: &[(Option<usize>, Exchange, bool, bool)]) {
    let mut net = Line3::new();
    let mut stamps: Vec<(u64, Option<u64>)> = (1..70u64)
        .map(|i| (i * 5_000_000, Some(i * 5_000_000 + 1_000_000)))
        .collect();
    for &i in lost {
        stamps[i].1 = None; // sent in (150 ms, 350 ms]: round 1's
    }
    net.record(&stamps);
    let net = net;

    let reference = {
        let mut ends = net.ends(None);
        assert_eq!(net.round(&mut ends, 0), [(0, 0); 2]);
        net.round(&mut ends, 1)
    };
    assert_eq!(reference, [(n, 0); 2]);

    for &(sketch, expected, duplicate, leftover) in cases {
        let (mut pulled, mut escalated) = (false, false);
        let mut after_round_0 = net.ends(sketch);
        net.round(&mut after_round_0, 0);
        let schedules = every_schedule(|choose| {
            let mut ends = after_round_0.clone();
            // Round 0 is evaluated: its evidence, turning up again, is the
            // stale frame of this round.
            let mut wire = net.close(&mut ends[0], 0, 0);
            wire.truncate(leftover as usize);
            let mut closes = vec![0, 1];
            let mut full_digests = [0, 0];
            while !(closes.is_empty() && wire.is_empty()) {
                let pick = choose(closes.len() + wire.len());
                if pick < closes.len() {
                    let i = closes.remove(pick);
                    let said = net.close(&mut ends[i], i, 1);
                    if i == 0 && duplicate {
                        wire.extend(said.clone());
                    }
                    wire.extend(said);
                    continue;
                }
                let msg = wire.remove(pick - closes.len());
                let stale = msg.round == 0;
                let (received, reply) = net.deliver(&mut ends, msg);
                assert_eq!(received == Received::Stale, stale);
                pulled |= received == Received::Reply(Evidence::Pull);
                if let Some(Msg {
                    to,
                    evidence: Evidence::Digest { .. },
                    ..
                }) = &reply
                {
                    escalated = true;
                    full_digests[1 - to] += 1;
                }
                wire.extend(reply);
            }
            assert!(full_digests.iter().all(|&n| n <= 1), "{full_digests:?}");
            let verdicts = [0, 1].map(|i| {
                assert!(ends[i].is_settled(1));
                let j = net.evaluate(&mut ends[i], 1);
                assert!(!j.verdict.bottom && !j.passed);
                (j.verdict.lost.len(), j.verdict.fabricated.len())
            });
            assert_eq!(verdicts, reference, "sketch {sketch:?}");
        });
        assert!(schedules >= 100, "{schedules} schedules is not every order");
        let needed = match (pulled, escalated) {
            (false, false) => Exchange::Plain,
            (true, false) => Exchange::Pulled,
            (false, true) => Exchange::Escalated,
            (true, true) => panic!("sketch {sketch:?}: an escalation pulled"),
        };
        assert_eq!(needed, expected, "sketch {sketch:?}");
    }
}

/// Packets stamped a nanosecond either side of every window edge —
/// `c_{r−1} − lag` (where the held window opens), `c_{r−1}` (where the
/// judged one opens), `c_r` (where it closes) — at either end or
/// straddling it, with transits from nothing to just short of the lag, and
/// one packet lost at each edge: nothing is fabricated, every loss is
/// judged in exactly one round and by both ends, and a digest never needs
/// a pull.
#[test]
fn packets_at_the_window_edges_are_judged_in_exactly_one_round() {
    let rounds = 4;
    let mut edges = vec![];
    for r in 0..rounds {
        let c = (r + 1) * TAU - LAG;
        edges.extend([c - LAG, c]);
    }
    for sketch in [None, Some(32)] {
        let mut net = Line3::new();
        let stamps = |b: u64| {
            [
                (b + 1 - LAG, Some(b)),
                (b + 2 - LAG, Some(b + 1)),
                (b - 1, Some(b - 1)),
                (b - 1, Some(b)),
                (b - 1, Some(b + 1)),
                (b - 1, Some(b - 2 + LAG)),
                (b - 1, None),
                (b, Some(b)),
                (b, Some(b + 1)),
                (b, Some(b - 1 + LAG)),
                (b + 1, Some(b + 2)),
                (b + 1, Some(b + LAG)),
            ]
        };
        net.record(&edges.iter().flat_map(|&b| stamps(b)).collect::<Vec<_>>());
        let mut ends = net.ends(sketch);
        let mut lost = [0, 0];
        for r in 0..rounds {
            let verdicts = net.round(&mut ends, r);
            assert_eq!(
                verdicts[0], verdicts[1],
                "{sketch:?} round {r}: the ends disagree"
            );
            assert_eq!(verdicts[0].1, 0, "{sketch:?} round {r}: fabrication");
            lost = [lost[0] + verdicts[0].0, lost[1] + verdicts[1].0];
        }
        // The last edge is the last round's cutoff: the loss a nanosecond
        // before it is that round's, like the seven before it.
        assert_eq!(lost, [edges.len(); 2], "{sketch:?}");
    }
}

/// Only the segment's other end is heard, whatever it is that is said: a
/// forged summary after the genuine one does not replace it, a forged
/// digest is not resolved, a third party's pull gets no record. A router
/// that ends no such segment hears nobody.
#[test]
fn evidence_is_taken_from_the_other_end_only() {
    let mut net = Line3::new();
    net.record(&[
        (10_000_000, Some(11_000_000)),
        (20_000_000, Some(21_000_000)),
    ]);
    let (mut ends, segment) = (net.ends(None), &net.segments[0]);
    for i in [0, 1] {
        for msg in net.close(&mut ends[i], i, 0) {
            assert_eq!(net.deliver(&mut ends, msg).0, Received::Stored);
        }
    }
    let empty = ContentDigest::of(&Report::default().to_content(), 8);
    let forgeries = [
        Evidence::Summary(Report::default()),
        Evidence::Digest {
            judged: empty.clone(),
            held: empty,
        },
        Evidence::Pull,
    ];
    // From the router in the middle, and from the end's own address.
    for i in [0, 1] {
        for from in [net.ids[1], net.router(i)] {
            for forged in forgeries.clone() {
                let got = ends[i].receive(from, 0, segment, forged, window(0), &net.record);
                assert_eq!(got, Received::Foreign, "end {i} from {from:?}");
            }
        }
        let j = net.evaluate(&mut ends[i], 0);
        assert!(j.passed && j.verdict.lost.is_empty() && j.verdict.fabricated.is_empty());
    }

    let mut middle = Pik2Node::new(net.ids[1], &net.segments, None);
    let got = middle.receive(
        net.ids[0],
        0,
        segment,
        Evidence::Pull,
        window(0),
        &net.record,
    );
    assert_eq!(got, Received::Unknown);
    assert!(middle.close_round(0, window(0), &net.record).is_empty());
    assert!(middle.is_settled(0), "nobody to wait for");
    // Nor does an end know a segment that is not in the plan.
    let reverse = PathSegment::new(segment.routers().iter().rev().copied().collect());
    let pull = Evidence::Pull;
    let got = ends[0].receive(net.ids[2], 1, &reverse, pull, window(1), &net.record);
    assert_eq!(got, Received::Unknown);
}

/// A round is open until it is evaluated or retired and closed from then
/// on; a replan voids what was heard and starts the count afresh.
#[test]
fn an_evaluated_round_is_closed_and_a_replan_voids_what_was_heard() {
    let mut net = Line3::new();
    let stamps: Vec<_> = (1..150u64)
        .map(|i| (i * 5_000_000, Some(i * 5_000_000 + 1_000_000)))
        .collect();
    net.record(&stamps);
    let mut ends = net.ends(None);
    let say = |ends: &mut [Pik2Node; 2], i: usize, r: u64| {
        let mut said = net.close(&mut ends[i], i, r);
        said.pop().expect("one segment")
    };

    // Round 0: the downstream end hears the upstream one and not the
    // other way round, so only the upstream end times out.
    assert!(!ends[1].is_settled(0));
    let summary = say(&mut ends, 0, 0);
    assert_eq!(net.deliver(&mut ends, summary).0, Received::Stored);
    assert!(ends[1].is_settled(0) && !ends[0].is_settled(0));
    assert!(net.evaluate(&mut ends[0], 0).verdict.bottom);
    assert!(net.evaluate(&mut ends[1], 0).passed);
    assert!(ends[0].is_settled(0), "over is settled");

    // What turns up for round 0 now is stale in every form, and a pull is
    // not answered from the pruned record; round 1 is open.
    for sketch in [None, Some(16)] {
        let mut sender = Pik2Node::new(net.router(1), &net.segments, sketch);
        let late = net.close(&mut sender, 1, 0).pop().expect("one segment");
        assert_eq!(net.deliver(&mut ends, late).0, Received::Stale);
    }
    let pull = Msg {
        to: 1,
        round: 0,
        evidence: Evidence::Pull,
    };
    assert_eq!(net.deliver(&mut ends, pull), (Received::Stale, None));
    let summary = say(&mut ends, 0, 1);
    assert_eq!(net.deliver(&mut ends, summary.clone()).0, Received::Stored);

    // A host's amnesty round: retired unjudged, what arrived for it
    // dropped with it.
    ends[1].retire(1);
    assert_eq!(net.deliver(&mut ends, summary).0, Received::Stale);

    // Round 2 is heard, then the plan changes: the evidence is void (the
    // peer reads as ⊥, whatever the new plan's segment is called), and
    // rounds count from the start again.
    let summary = say(&mut ends, 0, 2);
    assert_eq!(net.deliver(&mut ends, summary).0, Received::Stored);
    assert!(ends[1].is_settled(2));
    ends[1].replan(&net.segments);
    assert!(!ends[1].is_settled(2));
    let early = say(&mut ends, 0, 0);
    assert_eq!(net.deliver(&mut ends, early).0, Received::Stored);
    assert!(net.evaluate(&mut ends[1], 2).verdict.bottom);
    ends[1].replan(&[]);
    let summary = say(&mut ends, 0, 3);
    assert_eq!(net.deliver(&mut ends, summary).0, Received::Unknown);
}
