//! Cross-crate integration: the full detection pipeline — simulator,
//! monitors, protocols, spec evaluation — on randomized topologies and
//! adversaries.

use fatih::crypto::KeyStore;
use fatih::protocols::pi2::{Pi2Config, Pi2Detector};
use fatih::protocols::pik2::{Pik2Config, Pik2Detector};
use fatih::protocols::spec::SpecCheck;
use fatih::protocols::{Policy, Thresholds};
use fatih::sim::{Attack, AttackKind, Network, SimTime, VictimFilter};
use fatih::topology::{builtin, RouterId, Topology};
use std::collections::BTreeSet;

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

#[test]
fn both_protocols_catch_a_dropper_on_random_topologies() {
    for seed in 0..5u64 {
        let topo = builtin::random_connected(10, 6, seed);
        let Some((src, evil, dst)) = pick_transit(&topo) else {
            continue; // too meshy: no 4-hop path; skip this seed
        };
        let ks = keystore_for(&topo);
        let mut net = Network::new(topo, seed);
        let mut pi2 = Pi2Detector::new(net.routes(), ks.clone(), Pi2Config::default());
        let mut pik2 = Pik2Detector::new(net.routes(), ks, Pik2Config::default());
        let flow = net.add_cbr_flow(src, dst, 1000, SimTime::from_ms(2), SimTime::ZERO, None);
        net.set_attacks(evil, vec![Attack::drop_flows([flow], 0.4)]);

        let end = SimTime::from_secs(5);
        net.run_until(end, |ev| {
            pi2.observe(ev);
            pik2.observe(ev);
        });
        let faulty: BTreeSet<RouterId> = [evil].into_iter().collect();

        let sus2 = pi2.end_round(end);
        let check2 = SpecCheck::evaluate(&sus2, &faulty);
        assert!(check2.is_complete(), "seed {seed}: Π2 missed the dropper");
        assert!(
            check2.is_accurate(2),
            "seed {seed}: Π2 inaccurate: {:?}",
            check2.false_positives
        );

        let susk = pik2.end_round(end);
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
        let ks = keystore_for(&topo);
        let ids: Vec<RouterId> = topo.routers().collect();
        let mut net = Network::new(topo, seed);
        let mut pik2 = Pik2Detector::new(net.routes(), ks, Pik2Config::default());
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
        let end = SimTime::from_secs(5);
        net.run_until(end, |ev| pik2.observe(ev));
        let sus = pik2.end_round(end);
        assert!(sus.is_empty(), "seed {seed}: false positives {sus:?}");
    }
}

#[test]
fn misrouting_is_detected_as_content_violation() {
    // §2.2.1: misrouting is an instance of loss + fabrication; the segment
    // that loses the packets fails content validation.
    let topo = builtin::ring(6);
    let ids: Vec<RouterId> = topo.routers().collect();
    let ks = keystore_for(&topo);
    let mut net = Network::new(topo, 3);
    let mut det = Pik2Detector::new(net.routes(), ks, Pik2Config::default());
    let flow = net.add_cbr_flow(
        ids[0],
        ids[2],
        1000,
        SimTime::from_ms(2),
        SimTime::ZERO,
        None,
    );
    net.set_attacks(
        ids[1],
        vec![Attack {
            victims: VictimFilter::flows([flow]),
            kind: AttackKind::Misroute { fraction: 0.5 },
        }],
    );
    let end = SimTime::from_secs(5);
    net.run_until(end, |ev| det.observe(ev));
    let sus = det.end_round(end);
    let faulty: BTreeSet<RouterId> = [ids[1]].into_iter().collect();
    let check = SpecCheck::evaluate(&sus, &faulty);
    assert!(check.is_complete(), "misrouter escaped: {sus:?}");
    assert!(check.is_accurate(3));
}

#[test]
fn delay_attack_needs_timeliness_tolerant_policy() {
    // A pure delayer passes content validation across rounds eventually
    // (packets do arrive) but trips the order policy.
    let topo = builtin::line(4);
    let ids: Vec<RouterId> = topo.routers().collect();
    let ks = keystore_for(&topo);
    let mut net = Network::new(topo, 4);
    let mut order_det = Pik2Detector::new(
        net.routes(),
        ks,
        Pik2Config {
            policy: Policy::Order,
            thresholds: Thresholds {
                loss: 1_000_000,
                reorder: 0,
            },
            ..Pik2Config::default()
        },
    );
    let flow = net.add_cbr_flow(
        ids[0],
        ids[3],
        1000,
        SimTime::from_ms(2),
        SimTime::ZERO,
        None,
    );
    net.set_attacks(
        ids[1],
        vec![Attack {
            victims: VictimFilter::flows([flow]),
            kind: AttackKind::Delay {
                extra: SimTime::from_ms(9),
                fraction: 0.25,
            },
        }],
    );
    let end = SimTime::from_secs(5);
    net.run_until(end, |ev| order_det.observe(ev));
    let sus = order_det.end_round(end);
    let faulty: BTreeSet<RouterId> = [ids[1]].into_iter().collect();
    let check = SpecCheck::evaluate(&sus, &faulty);
    assert!(check.is_complete(), "delayer escaped the order policy");
}

#[test]
fn multi_round_operation_stays_clean_then_detects() {
    // Rounds tick with traffic in flight; the attack begins mid-run and is
    // caught in the first round that covers it.
    let topo = builtin::line(5);
    let ids: Vec<RouterId> = topo.routers().collect();
    let ks = keystore_for(&topo);
    let mut net = Network::new(topo, 5);
    let mut det = Pik2Detector::new(net.routes(), ks, Pik2Config::default());
    let flow = net.add_cbr_flow(
        ids[0],
        ids[4],
        1000,
        SimTime::from_ms(2),
        SimTime::ZERO,
        None,
    );

    let mut detected_round = None;
    for round in 1..=8u64 {
        if round == 4 {
            net.set_attacks(ids[2], vec![Attack::drop_flows([flow], 0.5)]);
        }
        let end = SimTime::from_secs(round * 3);
        net.run_until(end, |ev| det.observe(ev));
        let sus = det.end_round(end);
        if round < 4 {
            assert!(sus.is_empty(), "round {round}: premature suspicion {sus:?}");
        } else if !sus.is_empty() && detected_round.is_none() {
            detected_round = Some(round);
            let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
            assert!(SpecCheck::evaluate(&sus, &faulty).is_accurate(3));
        }
    }
    assert_eq!(
        detected_round,
        Some(4),
        "attack not caught in its first round"
    );
}
