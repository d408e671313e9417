//! Crash-restart probe: a router of a 6-ring crashes silently in round 0
//! and restarts in round 2, in every role it can play for a monitored
//! flow, with and without a neighbour reporting it down one round late.
//!
//! Fail-stop is a faulty behaviour in the paper's model, so a suspicion
//! whose segment contains the crashed router, for a round it was down in,
//! satisfies a-Accuracy (DESIGN.md, "Closing the loop"). Anything else —
//! a segment without it, or any round once it is back and on probation —
//! frames an honest router.
//!
//! Each case is one [`LiveSpec`] run on the simulator's clock
//! ([`SimHost::new`]), where the crashed router's data plane is down too,
//! so a case's verdicts are a function of its script and seed. Besides
//! the suspicions, each case checks that the route epochs reconverge:
//! every router's last epoch transition lands on one epoch. (That frames
//! of another epoch stop draining untapped once they do is checked on
//! the live data path, in `churn_live.rs`.)

use fatih::net::runtime::{ChurnAction, ChurnEvent, FlowSpec, LiveConfig, LiveSpec};
use fatih::net::SimHost;
use fatih::obs::{TraceJournal, TraceKind};
use fatih::protocols::spec::Suspicion;
use fatih::sim::{Network, SimTime};
use fatih::topology::{builtin, RouterId, Topology};
use std::collections::BTreeMap;
use std::time::Duration;

const TAU: Duration = Duration::from_millis(200);
const LAG: Duration = Duration::from_millis(50);
const CRASH: Duration = Duration::from_millis(120);
const REPORT: Duration = Duration::from_millis(320);
const RESTART: Duration = Duration::from_millis(520);

/// Lowest-id tie-breaks route 4 → 1 via 5 and 0, 1 → 4 via 2 and 3, and
/// 3 → 5 through 4.
const ROLES: [(&str, (usize, usize)); 3] =
    [("source", (4, 1)), ("sink", (1, 4)), ("transit", (3, 5))];

/// Which suspicion, if any, frames an honest router.
fn judge_suspicions(suspicions: &[Suspicion], crashed: RouterId) -> Result<(), String> {
    // It restarts in round 2 and serves probation from round 3.
    let back = (RESTART.as_nanos() / TAU.as_nanos() + 1) as u64 * TAU.as_nanos() as u64;
    for s in suspicions {
        if !s.segment.contains(crashed) {
            return Err(format!(
                "{s:?} names a segment the crashed router is not in"
            ));
        }
        if s.interval.start.as_ns() >= back {
            return Err(format!("{s:?} judges a round the router was back in"));
        }
    }
    Ok(())
}

/// Whether every router's last epoch transition in `trace`, a journal
/// that lost no record, lands on one route epoch.
fn judge_epochs(trace: &TraceJournal, routers: usize) -> Result<(), String> {
    let last: BTreeMap<u32, u64> = (trace.events().iter())
        .filter(|e| e.kind == TraceKind::EpochTransition)
        .map(|e| (e.router, e.value))
        .collect();
    let epochs: Vec<u64> = last.values().copied().collect();
    if last.len() != routers || epochs.iter().any(|&e| e != epochs[0]) {
        return Err(format!("epochs diverged: last per router {last:?}"));
    }
    Ok(())
}

/// Router 4 of a 6-ring crashing while `flow` (source, destination)
/// crosses it, beside a flow 0 → 3 it has no part in, reported down by
/// router 3 one round after the crash if `reported`; and the crashed
/// router.
fn crash_restart(flow: (usize, usize), reported: bool) -> (Topology, LiveSpec, RouterId) {
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
    (topo, spec, crashed)
}

fn cfg() -> LiveConfig {
    LiveConfig {
        tau: TAU,
        exchange_budget: Duration::from_millis(100),
        maturity_lag: LAG,
        rounds: 10,
        ..LiveConfig::default()
    }
}

#[test]
fn a_crash_restart_frames_nobody_in_any_role_on_virtual_time() {
    let cfg = cfg();
    let end = cfg.tau * cfg.rounds as u32 + cfg.exchange_budget;
    for (role, flow) in ROLES {
        for reported in [true, false] {
            let case = format!("crashed router as flow {role}, reported down: {reported}");
            let (topo, spec, crashed) = crash_restart(flow, reported);
            let routers = topo.router_count();
            let mut net = Network::new(topo, 1);
            let mut host = SimHost::new(&mut net, &spec, cfg);
            host.run(&mut net, SimTime::from_ns(end.as_nanos() as u64));
            println!("{case}");
            println!("  suspicions: {:?}", host.suspicions());
            assert!(net.ground_truth().data_delivered > 0, "{case}: no traffic");
            let trace = host.trace();
            assert_eq!(trace.dropped(), 0, "{case}: the trace lost records");
            if let Err(why) = judge_suspicions(&host.suspicions(), crashed)
                .and_then(|()| judge_epochs(&trace, routers))
            {
                panic!("{case}: {why}");
            }
        }
    }
}
