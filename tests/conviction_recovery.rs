//! The conviction → reroute → recovery verdict on virtual time: the
//! scenario of the release gate `convicted_dropper_is_routed_around_and_delivery_recovers`
//! (`crates/bench/tests/gates.rs`, over UDP on the wall clock), built by
//! the same `fatih_bench` functions and deployed on `SimHost`, so the
//! verdict depends on no host's speed and runs in a debug build.

use fatih::net::SimHost;
use fatih::protocols::spec::SpecCheck;
use fatih::sim::{Network, SimTime};
use fatih::topology::RouterId;
use fatih_bench::{add_dropper, churn_cfg, scenario, ATTACK_ROUND, CHURN_FLOW_SEED, GATE_ROUTERS};
use std::collections::BTreeSet;

/// Share of the pre-attack delivery rate the last two rounds must reach.
const RECOVERY_FLOOR: f64 = 0.99;

/// 128 routers, one flow per 16 routers over routes of at least 5 routers,
/// and the middle router of flow 0's path dropping 30 % of the flows'
/// packets from round 2 of 9; rounds of 200 ms, judged 120 ms after they
/// end, with a 50 ms maturity lag and the response on. The dropper is
/// convicted, every router moves to the excluding route epoch, and the
/// flows' delivery per round recovers to what it was before the attack.
#[test]
fn convicted_dropper_is_routed_around_and_delivery_recovers() {
    let (topo, mut spec) = scenario(GATE_ROUTERS, 5, CHURN_FLOW_SEED);
    let dropper = add_dropper(&topo, &mut spec, ATTACK_ROUND as u64);
    let cfg = churn_cfg(9);
    let mut net = Network::new(topo, 1);
    let mut host = SimHost::new(&mut net, &spec, cfg);

    // Data packets delivered per round, over every flow.
    let tau = SimTime::from_ns(cfg.tau.as_nanos() as u64);
    let mut per_round = Vec::new();
    let mut before = 0;
    for r in 1..=cfg.rounds {
        host.run(&mut net, tau.saturating_mul(r));
        let delivered = net.ground_truth().data_delivered;
        per_round.push(delivered - before);
        before = delivered;
    }

    let faulty: BTreeSet<RouterId> = [dropper].into_iter().collect();
    let check = SpecCheck::evaluate(&host.suspicions(), &faulty);
    let transitions = host.metrics().counter("net.epoch_transitions");
    let n = per_round.len();
    let baseline = per_round[ATTACK_ROUND - 1] as f64;
    let recovered = (per_round[n - 2] + per_round[n - 1]) as f64 / 2.0;
    let ratio = recovered / baseline.max(1.0);
    println!(
        "conviction at {GATE_ROUTERS} routers: complete={} accurate={}, {transitions} epoch \
         transitions; delivery per round {per_round:?} (ratio {ratio:.3})",
        check.is_complete(),
        check.is_accurate(cfg.k + 2)
    );
    assert!(
        check.is_complete() && check.is_accurate(cfg.k + 2),
        "conviction failed: {:?} missed, {:?} falsely suspected",
        check.missed_faulty,
        check.false_positives
    );
    assert!(
        transitions >= GATE_ROUTERS as u64,
        "only {transitions} epoch transitions: not every router applied the exclusion"
    );
    assert!(
        ratio >= RECOVERY_FLOOR,
        "delivery recovered to {ratio:.3} of pre-attack, below {RECOVERY_FLOOR}"
    );
}
