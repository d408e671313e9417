//! The Fatih system on a lossy, flapping control plane (§2.2.1's benign
//! fault class layered under a genuine attack): summaries, alerts and
//! link-state floods ride the network they police with acks and
//! retransmission, scheduled outages are announced as link-state churn
//! and forgiven by the amnesty that follows it, and the attacker is still
//! caught once the faults quiesce.
//!
//! ```sh
//! cargo run --release --example faulty_control_plane
//! ```

use fatih::net::{LiveConfig, LiveEvent, SimHost};
use fatih::protocols::policy::Thresholds;
use fatih::sim::{Attack, FaultPlan, Network, SimTime};
use fatih::topology::{builtin, RouterId};
use std::time::Duration;

fn main() {
    let topo = builtin::line(6);
    let ids: Vec<RouterId> = (0..6)
        .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
        .collect();

    let mut net = Network::new(topo, 7);
    let plan = FaultPlan::random_transient(7, net.topology(), SimTime::from_secs(10));
    println!(
        "fault plan: {} flap(s), {} crash window(s), quiesced after {:.1}s",
        plan.flaps().len(),
        plan.crashes().len(),
        plan.quiesced_after().as_secs_f64()
    );
    net.set_fault_plan(Some(plan));

    let flow = net.add_cbr_flow(
        ids[0],
        ids[5],
        1000,
        SimTime::from_ms(2),
        SimTime::ZERO,
        None,
    );
    net.set_attacks(ids[3], vec![Attack::drop_flows([flow], 0.35)]);
    println!("n3 compromised — drops 35% of the n0→n5 flow\n");

    let cfg = LiveConfig {
        tau: Duration::from_secs(5),
        exchange_budget: Duration::from_secs(4),
        maturity_lag: Duration::from_millis(200),
        thresholds: Thresholds::default(),
        ..LiveConfig::default()
    };
    let mut host = SimHost::new(&net, cfg);
    host.run(&mut net, SimTime::from_secs(30));

    let mut alerts = 0;
    for (at, ev) in host.events() {
        match ev {
            LiveEvent::SuspicionRaised { suspicion, .. } => {
                println!("t={:>6.3}s  suspicion   {suspicion}", at.as_secs_f64());
            }
            LiveEvent::LinkStateApplied { by, origin, .. } if by == origin => {
                println!("t={:>6.3}s  {origin} floods an update", at.as_secs_f64());
            }
            LiveEvent::AlertReceived { sig_ok: true, .. } => alerts += 1,
            _ => {}
        }
    }
    println!("\nsigned alerts delivered over the control plane: {alerts}");
    let excluded = host.excluded_segments();
    let caught = excluded.iter().any(|seg| seg.contains(ids[3]));
    let clean = excluded.iter().all(|seg| seg.contains(ids[3]));
    println!("attacker flagged: {caught} — no correct router accused: {clean}");
}
