//! Live conviction-response and topology-churn scenarios, each one
//! [`LiveSpec`] run on both hosts: over real UDP sockets on the wall
//! clock ([`LiveDeployment`]), and on the simulator's clock
//! ([`SimHost::new`]), where the script's outages are physical as well
//! — a link announced down carries nothing, data or control — and the
//! schedule is a function of its seeds.

use fatih::net::runtime::{
    ChurnAction, ChurnEvent, DropperSpec, FlowSpec, LiveConfig, LiveDeployment, LiveEvent, LiveSpec,
};
use fatih::net::{SimHost, UdpNet};
use fatih::protocols::spec::{SpecCheck, Suspicion};
use fatih::sim::{Network, SimTime};
use fatih::topology::{builtin, RouterId, Topology};
use std::collections::BTreeSet;
use std::time::Duration;

fn cfg(rounds: u64) -> LiveConfig {
    LiveConfig {
        tau: Duration::from_millis(200),
        exchange_budget: Duration::from_millis(120),
        maturity_lag: Duration::from_millis(50),
        rounds,
        ..LiveConfig::default()
    }
}

/// Runs `spec` over freshly bound UDP loopback sockets.
fn over_udp(topo: &Topology, spec: &LiveSpec, cfg: &LiveConfig) -> fatih::net::LiveOutcome {
    let ids: Vec<RouterId> = topo.routers().collect();
    let transports = UdpNet::bind_group(&ids).expect("bind loopback sockets");
    LiveDeployment::run(topo, spec, cfg, transports)
}

/// The instant round `r`'s verdicts are in, on the simulator's clock.
fn judged(cfg: &LiveConfig, r: u64) -> SimTime {
    let at = cfg.tau * (r as u32 + 1) + cfg.exchange_budget;
    SimTime::from_ns(at.as_nanos() as u64)
}

/// A ring carries one flow past a dropper that activates in round 1. The
/// ends convict it, the exclusion floods, and every router reroutes the
/// flow the long way around — after which the dropper sees no transit
/// traffic at all, and nobody else is ever accused.
fn conviction() -> (Topology, LiveSpec, RouterId) {
    let topo = builtin::ring(8);
    let ids: Vec<RouterId> = topo.routers().collect();
    // Lowest-id tie-break routes 0 -> 4 via 1, 2, 3.
    let spec = LiveSpec {
        flows: vec![FlowSpec::new(
            ids[0],
            ids[4],
            1000,
            Duration::from_millis(2),
        )],
        droppers: vec![DropperSpec {
            router: ids[2],
            rate: 0.4,
            seed: 11,
            active_from: 1,
        }],
        ..LiveSpec::default()
    };
    (topo, spec, ids[2])
}

/// The conviction scenario's verdict, from the suspicions, the
/// link-state updates applied, the epoch transitions, and per round the
/// drops and deliveries counted so far.
fn convicted_and_recovered(
    routers: usize,
    suspicions: &[Suspicion],
    dropper: RouterId,
    (applied, transitions): (u64, u64),
    dropped: &[u64],
    delivered: &[u64],
) {
    let n = dropped.len();
    assert!(dropped[n - 1] > 0, "the dropper never fired");
    let faulty: BTreeSet<RouterId> = [dropper].into_iter().collect();
    let check = SpecCheck::evaluate(suspicions, &faulty);
    assert!(check.is_complete(), "dropper escaped: {suspicions:?}");
    assert!(
        check.is_accurate(cfg(7).k + 2),
        "false positives through the transition: {:?}",
        check.false_positives
    );
    assert!(
        applied >= routers as u64,
        "the exclusion did not reach every router"
    );
    assert!(
        transitions >= routers as u64,
        "not every router reconverged"
    );
    // Post-reroute, the dropper is off the path: total drops freeze.
    assert_eq!(
        dropped[n - 1],
        dropped[n - 2],
        "the convicted router still saw transit traffic at the end"
    );
    // And traffic kept flowing on the avoidance route.
    assert!(
        delivered[n - 2] > delivered[n - 3],
        "delivery did not recover after the reroute"
    );
}

#[test]
fn conviction_rerouting_recovers_over_udp() {
    let (topo, spec, dropper) = conviction();
    let outcome = over_udp(&topo, &spec, &cfg(7));
    let m = &outcome.round_metrics;
    let per_round = |name: &str| -> Vec<u64> { m.iter().map(|s| s.counter(name)).collect() };
    convicted_and_recovered(
        topo.router_count(),
        &outcome.suspicions,
        dropper,
        (
            outcome.metrics.counter("net.ls_updates_applied"),
            outcome.metrics.counter("net.epoch_transitions"),
        ),
        &per_round("net.data_dropped"),
        &per_round("net.data_delivered"),
    );
    // Frames of another route epoch drain untapped while the routes
    // reconverge and not after: a router whose epoch never realigned
    // would go on draining through the last, long-settled rounds.
    let drained = per_round("net.untapped_drained");
    println!("untapped drains per round, cumulative: {drained:?}");
    let n = drained.len();
    assert!(
        drained[n - 1] > 0,
        "nothing drained while routes reconverged"
    );
    assert_eq!(
        drained[n - 3..],
        [drained[n - 1]; 3],
        "epochs diverged: untapped drains {drained:?}"
    );
}

#[test]
fn conviction_rerouting_recovers_on_virtual_time() {
    let (topo, spec, dropper) = conviction();
    let cfg = cfg(7);
    let mut net = Network::new(topo.clone(), 1);
    let mut host = SimHost::new(&mut net, &spec, cfg);
    let (mut dropped, mut delivered) = (Vec::new(), Vec::new());
    for r in 0..cfg.rounds {
        host.run(&mut net, judged(&cfg, r));
        dropped.push(net.ground_truth().malicious_drops);
        delivered.push(net.ground_truth().data_delivered);
    }
    convicted_and_recovered(
        topo.router_count(),
        &host.suspicions(),
        dropper,
        (
            host.metrics().counter("net.ls_updates_applied"),
            host.metrics().counter("net.epoch_transitions"),
        ),
        &dropped,
        &delivered,
    );
}

/// A link outage with its routing announcement: the 1–2 link of a 6-ring
/// goes down over [400 ms, 1 000 ms), and both its ends announce
/// `LinkDown`/`LinkUp` at the window's edges. Traffic reroutes away before
/// validation resumes, so the outage never frames the (honest) routers on
/// the flapped link.
fn flap() -> (Topology, LiveSpec) {
    let topo = builtin::ring(6);
    let ids: Vec<RouterId> = topo.routers().collect();
    let churn = |ms, actor, action| ChurnEvent {
        at: Duration::from_millis(ms),
        actor,
        action,
    };
    // Lowest-id tie-break routes 0 -> 3 via 1, 2: flap the 1-2 link.
    let spec = LiveSpec {
        flows: vec![FlowSpec::new(ids[0], ids[3], 800, Duration::from_millis(2))],
        churn: vec![
            churn(400, ids[1], ChurnAction::LinkDown(ids[2])),
            churn(400, ids[2], ChurnAction::LinkDown(ids[1])),
            churn(1000, ids[1], ChurnAction::LinkUp(ids[2])),
            churn(1000, ids[2], ChurnAction::LinkUp(ids[1])),
        ],
        ..LiveSpec::default()
    };
    (topo, spec)
}

/// The flap scenario's verdict: zero suspicions, traffic delivered, every
/// router reconverged, and the rounds after the outage's amnesty judged
/// clean.
fn flap_accused_nobody<'a>(
    routers: usize,
    rounds: u64,
    suspicions: &[Suspicion],
    delivered: u64,
    transitions: u64,
    events: impl Iterator<Item = &'a LiveEvent> + Clone,
) {
    assert!(
        suspicions.is_empty(),
        "an announced flap framed an honest router: {suspicions:?}"
    );
    assert!(delivered > 0, "traffic stopped");
    assert!(
        transitions >= routers as u64,
        "the flap announcements never triggered a reconvergence"
    );
    // The amnesty covers rounds 1–6; the three after it are judged.
    for round in 7..rounds {
        let verdicts: Vec<bool> = (events.clone())
            .filter_map(|e| match e {
                LiveEvent::RoundEvaluated {
                    round: r, passed, ..
                } if *r == round => Some(*passed),
                _ => None,
            })
            .collect();
        assert!(
            !verdicts.is_empty() && verdicts.iter().all(|&p| p),
            "round {round} not judged clean: {verdicts:?}"
        );
    }
}

#[test]
fn announced_flap_window_never_accuses() {
    let (topo, spec) = flap();
    let cfg = cfg(10);
    let mut net = Network::new(topo.clone(), 7);
    let mut host = SimHost::new(&mut net, &spec, cfg);
    host.run(&mut net, judged(&cfg, cfg.rounds - 1));
    flap_accused_nobody(
        topo.router_count(),
        cfg.rounds,
        &host.suspicions(),
        net.ground_truth().data_delivered,
        host.metrics().counter("net.epoch_transitions"),
        host.events().iter().map(|(_, e)| e),
    );
}

#[test]
fn announced_flap_window_never_accuses_over_udp() {
    let (topo, spec) = flap();
    let cfg = cfg(10);
    let outcome = over_udp(&topo, &spec, &cfg);
    flap_accused_nobody(
        topo.router_count(),
        cfg.rounds,
        &outcome.suspicions,
        outcome.stats.data_delivered,
        outcome.metrics.counter("net.epoch_transitions"),
        outcome.events.iter(),
    );
}
