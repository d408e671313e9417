//! The Fatih system on a lossy, flapping control plane (§2.2.1's benign
//! fault class layered under a genuine attack): summaries, alerts and
//! link-state floods ride the network they police with acks and
//! retransmission, the churn script's outages (drawn with the faults by
//! `fatih_bench::transient_chaos`) are announced as link-state churn and
//! forgiven by the amnesty that follows it, and the attacker is still
//! caught once the faults quiesce.
//!
//! ```sh
//! cargo run --release --example faulty_control_plane
//! ```

use fatih::net::{ChurnAction, LiveConfig, LiveEvent, LiveSpec, SimHost};
use fatih::protocols::policy::Thresholds;
use fatih::sim::{Attack, Network, SimTime};
use fatih::topology::{builtin, RouterId};
use fatih_bench::transient_chaos;
use std::time::Duration;

fn main() {
    let topo = builtin::line(6);
    let ids: Vec<RouterId> = (0..6)
        .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
        .collect();

    let (plan, churn) = transient_chaos(7, &topo, SimTime::from_secs(10));
    let count = |action: fn(ChurnAction) -> bool| churn.iter().filter(|e| action(e.action)).count();
    println!(
        "churn script: {} link flap(s), {} crash(es), over by {:.1}s; control faults until {:.1}s",
        count(|a| matches!(a, ChurnAction::LinkDown(_))) / 2,
        count(|a| a == ChurnAction::Crash),
        churn
            .iter()
            .map(|e| e.at)
            .max()
            .unwrap_or_default()
            .as_secs_f64(),
        plan.quiesced_after().as_secs_f64()
    );
    let mut net = Network::new(topo, 7);
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
    let spec = LiveSpec {
        churn,
        ..LiveSpec::default()
    };
    let mut host = SimHost::new(&mut net, &spec, cfg);
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
