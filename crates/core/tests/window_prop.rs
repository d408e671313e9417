//! Randomized test of the sliding-window record rule the live runtime
//! applies: with cutoffs `c_0 < c_1 < …` and a transit bound `lag`, round
//! `r` judges what either end observed in `(c_{r−1}, c_r]` against what
//! the other end holds from `c_{r−1} − lag` on, and afterwards forgets
//! everything at or before `c_r − lag`.
//!
//! For seeded traffic with transit below the lag, random drops and rounds
//! of random length, the per-round `lost` sets must partition the `lost`
//! set a single cumulative validation finds, nothing may ever read as
//! fabricated, both ends must reach the same verdict although each sees
//! the other's record as of an earlier moment, and a record pruned after
//! every round must give the verdicts of one that never forgets.
//!
//! The simulator-hosted Π2 detector applies the same rule
//! (`fatih_core::rounds::Window`), so over any number of its rounds the
//! losses it judges add up to the packets that were dropped, never more.
//! (The live routers' half, Πk+2 on the simulator's clock, is the root
//! `end_to_end_detection` suite's: `fatih-core` cannot host them.)
//!
//! Plain seeded loops (the workspace builds offline): each case derives
//! its inputs from the loop index, so failures reproduce exactly.

use fatih_core::monitor::{MonitorMetrics, MonitorMode, PathOracle, Report, SegmentMonitorSet};
use fatih_core::policy::tv_pair;
use fatih_core::{Pi2Config, Pi2Detector};
use fatih_crypto::{Fingerprint, KeyStore};
use fatih_obs::MetricsRegistry;
use fatih_sim::{Attack, FlowId, Network, Packet, PacketId, PacketKind, SimTime, TapEvent};
use fatih_topology::{builtin, PathSegment, RouterId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One end-to-end monitored 3-segment and a monitor set over it.
fn monitor(ids: &[RouterId], reg: &MetricsRegistry) -> SegmentMonitorSet {
    let topo = builtin::line(3);
    let mut keys = KeyStore::with_seed(23);
    for &id in ids {
        keys.register(id.into());
    }
    let mut set = SegmentMonitorSet::new(
        vec![PathSegment::new(ids.to_vec())],
        PathOracle::from_routes(&topo.link_state_routes()),
        &keys,
        MonitorMode::EndsOnly,
        None,
    );
    set.attach_metrics(MonitorMetrics::registered(reg));
    set
}

/// The taps of packet `n`: forwarded by the upstream end at `t_up`,
/// received by the downstream end at `t_down` unless it was dropped.
fn taps(ids: &[RouterId], n: u64, t_up: u64, t_down: Option<u64>) -> Vec<(u64, TapEvent)> {
    let id = PacketId(n + 1);
    let packet = Packet {
        id,
        src: ids[0],
        dst: ids[2],
        flow: FlowId(0),
        kind: PacketKind::Data,
        size: 500,
        seq: n,
        payload_tag: Packet::expected_tag(id),
        ttl: Packet::DEFAULT_TTL,
        created_at: SimTime::from_ns(t_up),
    };
    let up = TapEvent::Enqueued {
        router: ids[0],
        next_hop: ids[1],
        packet,
        time: SimTime::from_ns(t_up),
        queue_len_after: 0,
    };
    let down = t_down.map(|t| {
        let ev = TapEvent::Arrived {
            router: ids[2],
            from: Some(ids[1]),
            packet,
            time: SimTime::from_ns(t),
        };
        (t, ev)
    });
    std::iter::once((t_up, up)).chain(down).collect()
}

fn sorted(mut fps: Vec<Fingerprint>) -> Vec<Fingerprint> {
    fps.sort_unstable();
    fps
}

#[test]
fn windowed_rounds_partition_the_cumulative_verdict_and_survive_pruning() {
    let ids: Vec<RouterId> = builtin::line(3).routers().collect();
    let (up_end, down_end) = (ids[0], ids[2]);
    for case in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(0x51D1_0000 + case);
        let lag = rng.gen_range(5u64..400);
        let rounds = rng.gen_range(3usize..9);
        let mut cutoffs = Vec::with_capacity(rounds);
        let mut c = rng.gen_range(0..3 * lag);
        for _ in 0..rounds {
            cutoffs.push(c);
            c += rng.gen_range(1..6 * lag);
        }
        let horizon = cutoffs[rounds - 1] + 3 * lag;
        let drop_rate = rng.gen_range(0u64..40) as f64 / 100.0;

        // Some packets are stamped 0, as observations made before a
        // deployment's epoch are.
        let mut tape: Vec<(u64, TapEvent)> = (0..rng.gen_range(50u64..600))
            .flat_map(|n| {
                let t_up = if n < 3 { 0 } else { rng.gen_range(0..horizon) };
                let t_down = (!rng.gen_bool(drop_rate)).then(|| t_up + rng.gen_range(0..lag));
                taps(&ids, n, t_up, t_down)
            })
            .collect();
        tape.sort_by_key(|&(t, _)| t);

        let reg = MetricsRegistry::new();
        let mut pruned = monitor(&ids, &reg);
        let mut kept = monitor(&ids, &MetricsRegistry::new());
        let mut fed = 0;
        let mut lost_by_round: Vec<Fingerprint> = Vec::new();
        for (r, &cutoff) in cutoffs.iter().enumerate() {
            // The peer's summary was cut when the round ended; the
            // evaluator reads its own record a budget later.
            let sent_at = cutoff + lag;
            let now = sent_at + rng.gen_range(0..2 * lag);
            let due = fed + tape[fed..].partition_point(|&(t, _)| t <= now);
            let events: Vec<TapEvent> = tape[fed..due].iter().map(|&(_, ev)| ev).collect();
            fed = due;
            pruned.observe_batch(&events);
            kept.observe_batch(&events);

            let judged_from = r.checked_sub(1).map(|p| SimTime::from_ns(cutoffs[p]));
            let held_from = judged_from
                .and_then(|c| c.as_ns().checked_sub(lag))
                .map(SimTime::from_ns);
            let verdicts: Vec<_> = [&pruned, &kept]
                .into_iter()
                .flat_map(|set| {
                    let up = set.report_after(up_end, 0, held_from);
                    let down = set.report_after(down_end, 0, held_from);
                    let sent = |mine: &Report| mine.window(None, Some(SimTime::from_ns(sent_at)));
                    let judge = |up: &Report, down: &Report| {
                        tv_pair(
                            Some(up),
                            Some(down),
                            judged_from,
                            SimTime::from_ns(cutoff),
                            SimTime::ZERO,
                        )
                    };
                    [judge(&up, &sent(&down)), judge(&sent(&up), &down)]
                })
                .collect();
            for v in &verdicts {
                assert!(v.fabricated.is_empty(), "case {case} round {r}: {v:?}");
                assert_eq!(v.lost, verdicts[0].lost, "case {case} round {r}");
            }
            lost_by_round.extend(&verdicts[0].lost);

            if let Some(horizon) = cutoff.checked_sub(lag) {
                pruned.prune(SimTime::from_ns(horizon));
            }
            let snap = reg.snapshot();
            assert_eq!(
                snap.counter("monitor.records") - snap.counter("monitor.entries_pruned"),
                pruned.held() as u64,
                "case {case} round {r}"
            );
        }

        let last = SimTime::from_ns(cutoffs[rounds - 1]);
        let whole = tv_pair(
            Some(&kept.report(up_end, 0)),
            Some(&kept.report(down_end, 0)),
            None,
            last,
            SimTime::ZERO,
        );
        assert!(whole.fabricated.is_empty(), "case {case}");
        assert_eq!(sorted(lost_by_round), sorted(whole.lost), "case {case}");
        assert!(
            pruned.held() < kept.held() || cutoffs[rounds - 1] < lag,
            "case {case}: pruning dropped nothing"
        );
    }
}

/// Π2 over the simulator: 500 pkts/s down a 4-line, router 1 dropping
/// 30 %, ten rounds. Whatever the round length and the maturity
/// lag, a dropped packet is judged lost in one round and no other: the
/// losses judged so far never exceed the drops so far, and at the end only
/// the drops still younger than the lag are unjudged.
#[test]
fn the_simulator_hosts_judge_no_loss_twice() {
    for (tau, lag) in [(5_000, 200), (1_000, 200), (300, 60)] {
        let (tau, lag) = (SimTime::from_ms(tau), SimTime::from_ms(lag));
        let topo = builtin::line(4);
        let ids: Vec<RouterId> = topo.routers().collect();
        let mut keys = KeyStore::with_seed(29);
        for &id in &ids {
            keys.register(id.into());
        }
        let mut net = Network::new(topo, 3);
        let (from, period) = (SimTime::ZERO, SimTime::from_ms(2));
        let flow = net.add_cbr_flow(ids[0], ids[3], 1000, period, from, None);
        net.set_attacks(ids[1], vec![Attack::drop_flows([flow], 0.3)]);
        let pi2_cfg = Pi2Config {
            maturity_lag: lag,
            ..Pi2Config::default()
        };
        let mut pi2 = Pi2Detector::new(net.routes(), keys, pi2_cfg);

        let rounds = 10;
        let mut mature_drops = 0;
        for r in 1..=rounds {
            let end = tau * r;
            let mut observe = |ev: &TapEvent| pi2.observe(ev);
            net.run_until(end.since(lag), &mut observe);
            mature_drops = net.ground_truth().malicious_drops;
            net.run_until(end, &mut observe);
            pi2.end_round(end);
            let (judged, drops) = (pi2.lost_judged(), net.ground_truth().malicious_drops);
            assert!(
                judged <= drops,
                "τ {tau}, lag {lag}, round {r}: {judged} losses judged, {drops} drops"
            );
        }
        // A packet router 0 forwarded before the last cutoff is judged, so
        // every drop router 1 had made by then is.
        assert!(mature_drops > 400, "only {mature_drops} drops");
        let judged = pi2.lost_judged();
        assert!(
            judged >= mature_drops,
            "τ {tau}, lag {lag}: {judged} losses judged of {mature_drops} mature drops"
        );
    }
}
