//! The conviction → reroute → recovery verdict on virtual time: the
//! scenario of the release gate `convicted_dropper_is_routed_around_and_delivery_recovers`
//! (`crates/bench/tests/gates.rs`, over UDP on the wall clock) with every
//! live router stepped by `SimHost` on the simulator's clock, so the
//! verdict depends on no host's speed and runs in a debug build.

use fatih::net::{LiveConfig, SimHost};
use fatih::protocols::spec::SpecCheck;
use fatih::sim::{Attack, Network, SimTime};
use fatih::topology::RouterId;
use fatih_bench::{pick_flows, rocketfuel_like};
use std::collections::BTreeSet;
use std::time::Duration;

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
    let (routers, rounds, attack_round) = (128, 9, 2);
    let topo = rocketfuel_like(routers);
    let specs = pick_flows(&topo, routers / 16, 5, Duration::from_millis(4), 0xC0FFEE);
    let path = (topo.link_state_routes())
        .path(specs[0].src, specs[0].dst)
        .expect("routed flow");
    let dropper = path.routers()[path.len() / 2];

    let mut net = Network::new(topo, 1);
    let flows: Vec<_> = (specs.iter())
        .map(|f| {
            let period = SimTime::from_ns(f.interval.as_nanos() as u64);
            net.add_cbr_flow(f.src, f.dst, f.size, period, SimTime::ZERO, None)
        })
        .collect();
    let cfg = LiveConfig {
        tau: Duration::from_millis(200),
        exchange_budget: Duration::from_millis(120),
        maturity_lag: Duration::from_millis(50),
        ..LiveConfig::default()
    };
    let tau = SimTime::from_ms(200);
    let mut host = SimHost::new(&net, cfg);

    // Data packets delivered per round, over every flow.
    let mut per_round = Vec::with_capacity(rounds);
    let mut before = 0;
    for r in 1..=rounds {
        if r == attack_round + 1 {
            net.set_attacks(dropper, vec![Attack::drop_flows(flows.clone(), 0.3)]);
        }
        host.run(&mut net, tau * r as u64);
        let delivered: u64 = flows.iter().map(|&f| net.delivered_on_flow(f)).sum();
        per_round.push(delivered - before);
        before = delivered;
    }

    let faulty: BTreeSet<RouterId> = [dropper].into_iter().collect();
    let check = SpecCheck::evaluate(&host.suspicions(), &faulty);
    let transitions = host.metrics().counter("net.epoch_transitions");
    let baseline = per_round[attack_round - 1] as f64;
    let recovered = (per_round[rounds - 2] + per_round[rounds - 1]) as f64 / 2.0;
    let ratio = recovered / baseline.max(1.0);
    println!(
        "conviction at {routers} routers: complete={} accurate={}, {transitions} epoch \
         transitions; delivery per round {per_round:?} (ratio {ratio:.3})",
        check.is_complete(),
        check.is_accurate(3)
    );
    assert!(
        check.is_complete() && check.is_accurate(3),
        "conviction failed: {:?} missed, {:?} falsely suspected",
        check.missed_faulty,
        check.false_positives
    );
    assert!(
        transitions >= routers as u64,
        "only {transitions} epoch transitions: not every router applied the exclusion"
    );
    assert!(
        ratio >= RECOVERY_FLOOR,
        "delivery recovered to {ratio:.3} of pre-attack, below {RECOVERY_FLOOR}"
    );
}
