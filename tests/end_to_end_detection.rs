//! Cross-crate integration: the full detection pipeline — simulator,
//! monitors, protocols, spec evaluation — on randomized topologies and
//! adversaries. Πk+2 is the live `Router`, every router of the network
//! stepped by `SimHost` on the simulator's clock; Π2 is the in-memory
//! `Pi2Detector`.

use fatih::crypto::KeyStore;
use fatih::net::{LiveConfig, LiveEvent, LiveSpec, SimHost};
use fatih::protocols::pi2::{Pi2Config, Pi2Detector};
use fatih::protocols::spec::{SpecCheck, Suspicion};
use fatih::protocols::Thresholds;
use fatih::sim::{Attack, AttackKind, Network, SimTime, VictimFilter};
use fatih::topology::{builtin, RouterId, Topology};
use std::collections::BTreeSet;
use std::time::Duration;

fn keystore_for(topo: &Topology) -> KeyStore {
    let mut ks = KeyStore::with_seed(99);
    for r in topo.routers() {
        ks.register(r.into());
    }
    ks
}

/// Picks a transit router (degree ≥ 2 and interior to some routed path).
fn pick_transit(topo: &Topology) -> Option<(RouterId, RouterId, RouterId)> {
    let routes = topo.link_state_routes();
    for p in routes.all_paths() {
        if p.len() >= 4 {
            let routers = p.routers();
            return Some((p.source(), routers[routers.len() / 2], p.sink()));
        }
    }
    None
}

/// Detection only (no response), zero tolerance, a 200 ms maturity lag,
/// rounds of `tau` judged `budget` after they end.
fn detect(tau: Duration, budget: Duration) -> LiveConfig {
    LiveConfig {
        tau,
        exchange_budget: budget,
        maturity_lag: Duration::from_millis(200),
        thresholds: Thresholds::default(),
        response: false,
        ..LiveConfig::default()
    }
}

/// Deploys Πk+2 (`AdjacentFault(k)`) over `net`'s traffic and runs one
/// 5-second round to its verdicts: the suspicions raised.
fn first_round(net: &mut Network, k: usize) -> Vec<Suspicion> {
    let cfg = LiveConfig {
        k,
        ..detect(Duration::from_secs(5), Duration::from_secs(4))
    };
    let mut host = SimHost::new(net, &LiveSpec::default(), cfg);
    host.run(net, SimTime::from_secs(9));
    host.suspicions()
}

fn cbr(net: &mut Network, src: RouterId, dst: RouterId) -> fatih::sim::FlowId {
    net.add_cbr_flow(src, dst, 1000, SimTime::from_ms(2), SimTime::ZERO, None)
}

#[test]
fn both_protocols_catch_a_dropper_on_random_topologies() {
    for seed in 0..5u64 {
        let topo = builtin::random_connected(10, 6, seed);
        let Some((src, evil, dst)) = pick_transit(&topo) else {
            continue; // too meshy: no 4-hop path; skip this seed
        };
        let faulty: BTreeSet<RouterId> = [evil].into_iter().collect();

        let ks = keystore_for(&topo);
        let mut net = Network::new(topo.clone(), seed);
        let mut pi2 = Pi2Detector::new(net.routes(), ks, Pi2Config::default());
        let flow = cbr(&mut net, src, dst);
        net.set_attacks(evil, vec![Attack::drop_flows([flow], 0.4)]);
        let end = SimTime::from_secs(5);
        net.run_until(end, |ev| pi2.observe(ev));
        let sus2 = pi2.end_round(end);
        let check2 = SpecCheck::evaluate(&sus2, &faulty);
        assert!(check2.is_complete(), "seed {seed}: Π2 missed the dropper");
        assert!(
            check2.is_accurate(2),
            "seed {seed}: Π2 inaccurate: {:?}",
            check2.false_positives
        );

        let mut net = Network::new(topo, seed);
        let flow = cbr(&mut net, src, dst);
        net.set_attacks(evil, vec![Attack::drop_flows([flow], 0.4)]);
        let susk = first_round(&mut net, 1);
        let checkk = SpecCheck::evaluate(&susk, &faulty);
        assert!(checkk.is_complete(), "seed {seed}: Πk+2 missed the dropper");
        assert!(
            checkk.is_accurate(3),
            "seed {seed}: Πk+2 inaccurate: {:?}",
            checkk.false_positives
        );
    }
}

#[test]
fn no_attack_means_no_suspicion_on_random_topologies() {
    for seed in 0..5u64 {
        let topo = builtin::random_connected(10, 6, seed);
        let ids: Vec<RouterId> = topo.routers().collect();
        let mut net = Network::new(topo, seed);
        // A handful of crossing flows.
        for i in 0..4 {
            let s = ids[(i * 3) % ids.len()];
            let d = ids[(i * 5 + 7) % ids.len()];
            if s != d {
                net.add_cbr_flow(
                    s,
                    d,
                    800,
                    SimTime::from_ms(3 + i as u64),
                    SimTime::ZERO,
                    None,
                );
            }
        }
        let sus = first_round(&mut net, 1);
        assert!(sus.is_empty(), "seed {seed}: false positives {sus:?}");
    }
}

#[test]
fn misrouting_is_detected_as_content_violation() {
    // §2.2.1: misrouting is an instance of loss + fabrication; the segment
    // that loses the packets fails content validation.
    let topo = builtin::ring(6);
    let ids: Vec<RouterId> = topo.routers().collect();
    let mut net = Network::new(topo, 3);
    let flow = cbr(&mut net, ids[0], ids[2]);
    net.set_attacks(
        ids[1],
        vec![Attack {
            victims: VictimFilter::flows([flow]),
            kind: AttackKind::Misroute { fraction: 0.5 },
        }],
    );
    let sus = first_round(&mut net, 1);
    let faulty: BTreeSet<RouterId> = [ids[1]].into_iter().collect();
    let check = SpecCheck::evaluate(&sus, &faulty);
    assert!(check.is_complete(), "misrouter escaped: {sus:?}");
    assert!(check.is_accurate(3));
}

#[test]
fn modification_is_detected_as_content_violation() {
    let topo = builtin::line(5);
    let ids: Vec<RouterId> = topo.routers().collect();
    let mut net = Network::new(topo, 1);
    let flow = cbr(&mut net, ids[0], ids[4]);
    net.set_attacks(
        ids[2],
        vec![Attack {
            victims: VictimFilter::flows([flow]),
            kind: AttackKind::Modify { fraction: 0.4 },
        }],
    );
    let sus = first_round(&mut net, 1);
    let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
    let check = SpecCheck::evaluate(&sus, &faulty);
    assert!(check.is_complete(), "modifier escaped: {sus:?}");
    assert!(check.is_accurate(3));
}

#[test]
fn adjacent_droppers_are_caught_at_k_2() {
    // Two adjacent droppers: `AdjacentFault(2)` brackets the pair in a
    // 4-segment with correct ends.
    let k = 2;
    let topo = builtin::line(7);
    let ids: Vec<RouterId> = topo.routers().collect();
    let mut net = Network::new(topo, 1);
    let flow = cbr(&mut net, ids[0], ids[6]);
    net.set_attacks(ids[2], vec![Attack::drop_flows([flow], 0.2)]);
    net.set_attacks(ids[3], vec![Attack::drop_flows([flow], 0.2)]);
    let sus = first_round(&mut net, k);
    let faulty: BTreeSet<RouterId> = [ids[2], ids[3]].into_iter().collect();
    let check = SpecCheck::evaluate(&sus, &faulty);
    assert!(check.is_complete(), "missed: {:?}", check.missed_faulty);
    assert!(check.is_accurate(k + 2), "{:?}", check.false_positives);
}

#[test]
fn multi_round_operation_stays_clean_then_detects() {
    // Rounds tick with traffic in flight; the attack begins mid-run and is
    // caught in the first round that covers it.
    let tau = SimTime::from_secs(3);
    let topo = builtin::line(5);
    let ids: Vec<RouterId> = topo.routers().collect();
    let mut net = Network::new(topo, 5);
    let flow = cbr(&mut net, ids[0], ids[4]);
    let mut host = SimHost::new(
        &mut net,
        &LiveSpec::default(),
        detect(Duration::from_secs(3), Duration::from_secs(2)),
    );
    let attack_round = 3;
    host.run(&mut net, tau * attack_round);
    net.set_attacks(ids[2], vec![Attack::drop_flows([flow], 0.5)]);
    let rounds = 8;
    host.run(&mut net, tau * rounds + SimTime::from_secs(2));

    let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
    let raised = |r| -> Vec<Suspicion> {
        (host.events().iter())
            .filter_map(|(_, e)| match e {
                LiveEvent::SuspicionRaised { suspicion, round } if *round == r => {
                    Some(suspicion.clone())
                }
                _ => None,
            })
            .collect()
    };
    for round in 0..attack_round {
        let sus = raised(round);
        assert!(sus.is_empty(), "round {round}: premature suspicion {sus:?}");
    }
    let detected_round = (attack_round..rounds).find(|&r| !raised(r).is_empty());
    assert_eq!(
        detected_round,
        Some(attack_round),
        "attack not caught in its first round"
    );
    assert!(SpecCheck::evaluate(&raised(attack_round), &faulty).is_accurate(3));
}

/// Πk+2 over the simulator: 500 pkts/s down a 4-line, router 1 dropping
/// 30 %, ten rounds judged τ/4 after they end. Whatever the round length
/// and the maturity lag, a dropped packet is judged lost in one round and
/// no other: the losses the segments' upstream ends judge never exceed the
/// drops so far, and at the end only the drops still younger than the lag
/// are unjudged. (Π2's half is `fatih-core`'s `window_prop`.)
#[test]
fn the_live_routers_judge_no_loss_twice() {
    for (tau, lag) in [(5_000, 200), (1_000, 200), (300, 60)] {
        let ms = Duration::from_millis;
        let cfg = LiveConfig {
            maturity_lag: ms(lag),
            ..detect(ms(tau), ms(tau / 4))
        };
        let budget = SimTime::from_ms(tau / 4);
        let (tau, lag) = (SimTime::from_ms(tau), SimTime::from_ms(lag));
        let topo = builtin::line(4);
        let ids: Vec<RouterId> = topo.routers().collect();
        let mut net = Network::new(topo, 3);
        let flow = cbr(&mut net, ids[0], ids[3]);
        net.set_attacks(ids[1], vec![Attack::drop_flows([flow], 0.3)]);
        let mut host = SimHost::new(&mut net, &LiveSpec::default(), cfg);
        let judged = |host: &SimHost| -> u64 {
            (host.events().iter())
                .map(|(_, e)| match e {
                    LiveEvent::RoundEvaluated {
                        router,
                        segment,
                        lost,
                        ..
                    } if *router == segment.source() => *lost as u64,
                    _ => 0,
                })
                .sum()
        };

        let rounds = 10;
        let mut mature_drops = 0;
        for r in 1..=rounds {
            let end = tau * r;
            host.run(&mut net, end.since(lag));
            mature_drops = net.ground_truth().malicious_drops;
            // Round r − 1 ends at `end` and is judged a budget later.
            host.run(&mut net, end + budget);
            let (judged, drops) = (judged(&host), net.ground_truth().malicious_drops);
            assert!(
                judged <= drops,
                "τ {tau}, lag {lag}, round {r}: {judged} losses judged, {drops} drops"
            );
        }
        // A packet router 0 forwarded before the last cutoff is judged, so
        // every drop router 1 had made by then is.
        assert!(mature_drops > 400, "only {mature_drops} drops");
        let judged = judged(&host);
        assert!(
            judged >= mature_drops,
            "τ {tau}, lag {lag}: {judged} losses judged of {mature_drops} mature drops"
        );
    }
}
