//! Crash-restart probe: a router of a 6-ring crashes silently in round 0
//! and restarts in round 2, in every role it can play for a monitored
//! flow, with and without a neighbour reporting it down.
//!
//! Fail-stop is a faulty behaviour in the paper's model, so a suspicion
//! whose segment contains the crashed router, for a round it was down in,
//! satisfies a-Accuracy (DESIGN.md, "Closing the loop"). Anything else —
//! a segment without it, or any round once it is back and on probation —
//! frames an honest router.

use fatih::net::runtime::{
    ChurnAction, ChurnEvent, FlowSpec, LiveConfig, LiveDeployment, LiveEvent, LiveOutcome, LiveSpec,
};
use fatih::net::transport::LoopbackHub;
use fatih::topology::{builtin, RouterId};
use std::time::Duration;

const TAU: Duration = Duration::from_millis(200);
const LAG: Duration = Duration::from_millis(50);
const CRASH: Duration = Duration::from_millis(120);
const REPORT: Duration = Duration::from_millis(320);
const RESTART: Duration = Duration::from_millis(520);

/// What a run got wrong, if anything.
fn judge(outcome: &LiveOutcome, crashed: RouterId) -> Result<(), String> {
    // It restarts in round 2 and serves probation from round 3.
    let back = (RESTART.as_nanos() / TAU.as_nanos() + 1) as u64 * TAU.as_nanos() as u64;
    for s in &outcome.suspicions {
        if !s.segment.contains(crashed) {
            return Err(format!(
                "{s:?} names a segment the crashed router is not in"
            ));
        }
        if s.interval.start.as_ns() >= back {
            return Err(format!("{s:?} judges a round the router was back in"));
        }
    }
    // Frames of another epoch drain untapped while routes reconverge and
    // not after: a router whose epoch never realigned would go on
    // draining through the last, long-settled rounds.
    let drained: Vec<u64> = (outcome.round_metrics.iter())
        .map(|s| s.counter("net.untapped_drained"))
        .collect();
    let n = drained.len();
    if drained[n - 3..] != [drained[n - 1]; 3] {
        return Err(format!("epochs diverged: untapped drains {drained:?}"));
    }
    Ok(())
}

/// Runs the scenario with router 4 crashing while `flow` (source,
/// destination) crosses it, beside a flow 0 → 3 it has no part in.
fn crash_restart(role: &str, flow: (usize, usize), reported: bool) {
    let case = format!("crashed router as flow {role}, reported down: {reported}");
    let topo = builtin::ring(6);
    let ids: Vec<RouterId> = topo.routers().collect();
    let crashed = ids[4];
    let churn = |at, actor, action| ChurnEvent { at, actor, action };
    let mut spec = LiveSpec {
        flows: vec![
            FlowSpec::new(ids[0], ids[3], 800, Duration::from_millis(2)),
            FlowSpec::new(ids[flow.0], ids[flow.1], 800, Duration::from_millis(2)),
        ],
        churn: vec![
            churn(CRASH, crashed, ChurnAction::Crash),
            churn(RESTART, crashed, ChurnAction::Restart),
        ],
        ..LiveSpec::default()
    };
    if reported {
        spec.churn
            .push(churn(REPORT, ids[3], ChurnAction::ReportDown(crashed)));
    }
    let cfg = LiveConfig {
        tau: TAU,
        exchange_budget: Duration::from_millis(100),
        maturity_lag: LAG,
        rounds: 10,
        shards: 1,
        ..LiveConfig::default()
    };
    let outcome = LiveDeployment::run(&topo, &spec, &cfg, LoopbackHub::group(&ids));
    println!("{case}");
    println!("  suspicions: {:?}", outcome.suspicions);
    for e in &outcome.events {
        if !matches!(e, LiveEvent::RoundEvaluated { passed: true, .. }) {
            println!("  {e:?}");
        }
    }
    assert!(outcome.stats.data_delivered > 0, "{case}: no traffic");
    if let Err(why) = judge(&outcome, crashed) {
        panic!("{case}: {why}");
    }
}

#[test]
fn a_crash_restart_frames_nobody_in_any_role() {
    // Lowest-id tie-breaks route 4 → 1 via 5 and 0, 1 → 4 via 2 and 3,
    // and 3 → 5 through 4.
    for (role, flow) in [("source", (4, 1)), ("sink", (1, 4)), ("transit", (3, 5))] {
        for reported in [true, false] {
            crash_restart(role, flow, reported);
        }
    }
}
