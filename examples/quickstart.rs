//! Quickstart: deploy Protocol Πk+2 on a small simulated network, let a
//! compromised router drop packets, and watch the routers pin it down.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use fatih::net::{LiveConfig, SimHost};
use fatih::protocols::spec::SpecCheck;
use fatih::protocols::Thresholds;
use fatih::sim::{Attack, Network, SimTime};
use fatih::topology::builtin;
use std::collections::BTreeSet;
use std::time::Duration;

fn main() {
    // 1. A five-router line: n0 — n1 — n2 — n3 — n4.
    let topo = builtin::line(5);
    println!(
        "topology: {} routers, {} duplex links",
        topo.router_count(),
        topo.duplex_link_count()
    );

    // 2. Simulated network. Traffic: a steady flow end to end…
    let mut net = Network::new(topo, 42);
    let ids: Vec<_> = net.topology().routers().collect();
    let flow = net.add_cbr_flow(
        ids[0],
        ids[4],
        1_000,
        SimTime::from_ms(2),
        SimTime::ZERO,
        None,
    );
    // …and a compromised router in the middle dropping 30% of it.
    let evil = ids[2];
    net.set_attacks(evil, vec![Attack::drop_flows([flow], 0.3)]);
    println!("compromised router: {evil} (drops 30% of the flow)\n");

    // 3. Every router runs Πk+2 (AdjacentFault(1), conservation of
    //    content, keys from the §2.1.5 key infrastructure) on the
    //    simulator's clock, monitoring the paths of the traffic above:
    //    5-second rounds, each judged 4 s after it ends, packets younger
    //    than 200 ms left to the next round. Detection only: no rerouting.
    let cfg = LiveConfig {
        tau: Duration::from_secs(5),
        exchange_budget: Duration::from_secs(4),
        maturity_lag: Duration::from_millis(200),
        thresholds: Thresholds::default(),
        response: false,
        ..LiveConfig::default()
    };
    let mut host = SimHost::new(&net, cfg);

    // 4. Run the first round, [0 s, 5 s), to its verdicts at 9 s.
    host.run(&mut net, SimTime::from_secs(9));
    let suspicions = host.suspicions();

    println!("suspicions after one round:");
    for s in &suspicions {
        println!("  {s}");
    }

    // 5. Judge against ground truth: the detector must be complete (the
    //    dropper is inside some suspected segment) and accurate (every
    //    suspected segment contains a faulty router), with precision k+2.
    let faulty: BTreeSet<_> = [evil].into_iter().collect();
    let check = SpecCheck::evaluate(&suspicions, &faulty);
    println!(
        "\ncomplete: {} | accurate(3): {} | precision: {}",
        check.is_complete(),
        check.is_accurate(3),
        check.max_precision
    );
    let truth = net.ground_truth();
    println!(
        "ground truth: {} of the flow's packets delivered, {} maliciously dropped",
        truth.data_delivered, truth.malicious_drops
    );
    // The one flow is all the data: the detectors' own control packets
    // are delivered too, and counted apart.
    assert_eq!(truth.data_delivered, net.delivered_on_flow(flow));
    assert!(check.is_complete() && check.is_accurate(3));
}
