//! Live conviction-response and topology-churn scenarios.
//!
//! The in-crate runtime tests cover the response loop on loopback hubs.
//! The first run here exercises it over real sockets. The second hosts
//! the same routers on the simulator's clock ([`SimHost`]) under a
//! [`FaultPlan`] link flap — a *physical* outage paired with its routing
//! announcement by both ends, the way a real flap presents — so that its
//! schedule is a function of its seeds.

use fatih::net::runtime::{DropperSpec, FlowSpec, LiveConfig, LiveDeployment, LiveEvent, LiveSpec};
use fatih::net::{SimHost, UdpNet};
use fatih::protocols::spec::SpecCheck;
use fatih::sim::{FaultPlan, Network, SimTime};
use fatih::topology::{builtin, RouterId};
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

/// A ring carries one flow past a dropper that activates in round 1. The
/// ends convict it, the exclusion floods, and every router reroutes the
/// flow the long way around — after which the dropper sees no transit
/// traffic at all, and nobody else is ever accused.
#[test]
fn conviction_rerouting_recovers_over_udp() {
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
    let transports = UdpNet::bind_group(&ids).expect("bind loopback sockets");
    let outcome = LiveDeployment::run(&topo, &spec, &cfg(7), transports);

    assert!(outcome.stats.data_dropped > 0, "the dropper never fired");
    let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
    let check = SpecCheck::evaluate(&outcome.suspicions, &faulty);
    assert!(
        check.is_complete(),
        "dropper escaped: {:?}",
        outcome.suspicions
    );
    assert!(
        check.is_accurate(cfg(7).k + 2),
        "false positives through the transition: {:?}",
        check.false_positives
    );
    assert!(
        outcome.metrics.counter("net.epoch_transitions") >= ids.len() as u64,
        "not every router reconverged"
    );
    // Post-reroute, the dropper is off the path: total drops freeze.
    let m = &outcome.round_metrics;
    assert_eq!(
        m[m.len() - 1].counter("net.data_dropped"),
        m[m.len() - 2].counter("net.data_dropped"),
        "the convicted router still saw transit traffic at the end"
    );
    // And traffic kept flowing on the avoidance route.
    assert!(
        m[m.len() - 2].counter("net.data_delivered") > m[m.len() - 3].counter("net.data_delivered"),
        "delivery did not recover after the reroute"
    );
}

/// A link outage with its routing announcement, on the simulator's clock:
/// the plan takes the 1–2 link down over [400 ms, 1 000 ms), data and
/// control alike, and both its ends announce `LinkDown`/`LinkUp` at the
/// window's edges. Traffic reroutes away before validation resumes, so
/// the outage never frames the (honest) routers on the flapped link: zero
/// suspicions, and the rounds after the outage's amnesty are judged clean.
#[test]
fn announced_flap_window_never_accuses() {
    let mut net = Network::new(builtin::ring(6), 7);
    let ids: Vec<RouterId> = net.topology().routers().collect();
    // Lowest-id tie-break routes 0 -> 3 via 1, 2: flap the 1-2 link.
    let ms = SimTime::from_ms;
    net.set_fault_plan(Some(FaultPlan::new(7).with_link_flap(
        ids[1],
        ids[2],
        ms(400),
        ms(1000),
    )));
    let flow = net.add_cbr_flow(ids[0], ids[3], 800, ms(2), SimTime::ZERO, None);
    let rounds = 10;
    let cfg = cfg(rounds);
    let until = cfg.tau * rounds as u32 + cfg.exchange_budget;
    let mut host = SimHost::new(&net, cfg);
    host.run(&mut net, SimTime::from_ns(until.as_nanos() as u64));

    assert!(
        host.suspicions().is_empty(),
        "an announced flap framed an honest router: {:?}",
        host.suspicions()
    );
    assert!(net.delivered_on_flow(flow) > 0, "traffic stopped");
    assert!(
        host.metrics().counter("net.epoch_transitions") >= ids.len() as u64,
        "the flap announcements never triggered a reconvergence"
    );
    // The amnesty covers rounds 1–6; the three after it are judged.
    for round in 7..rounds {
        let verdicts: Vec<bool> = (host.events().iter())
            .filter_map(|(_, e)| match e {
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
