//! churnbench — reconvergence scenario matrix for the live response loop.
//!
//! Three scenarios over real UDP loopback sockets, each gating a property
//! of the conviction → reroute → reconverge pipeline:
//!
//! 1. **conviction_reroute** (128 routers, Rocketfuel-proportioned): a
//!    mid-path dropper activates in round 2. The segment ends must
//!    convict it (completeness) without accusing a correct-only segment
//!    (accuracy), the signed exclusion must reach every router (each one
//!    opens a new route epoch), and final-round delivery must recover to
//!    at least [`RECOVERY_FLOOR`] of the pre-attack round's.
//! 2. **pure_churn**: an off-path link flaps down and up, then an
//!    off-path router gracefully leaves and rejoins, under live traffic.
//!    The deterministic amnesty window must absorb every transition:
//!    zero suspicions.
//! 3. **crash_restart**: an off-path router silently crashes, a peer
//!    reports it down, and it restarts with a bumped incarnation and an
//!    empty link-state DB. It must serve out probation and be cleared,
//!    with zero suspicions.
//!
//! Writes `BENCH_churn.json` to the current directory and fails
//! (exit ≠ 0) if any gate fails.
//!
//! Run with `cargo run --release -p fatih-bench --bin churnbench`
//! (`-- --smoke` shrinks the churn scenarios and shortens the conviction
//! run; the 128-router conviction gate runs in both modes).

use fatih_bench::pick_flows;
use fatih_core::spec::SpecCheck;
use fatih_net::runtime::{
    ChurnAction, ChurnEvent, DropperSpec, FlowSpec, LiveConfig, LiveDeployment, LiveOutcome,
    LiveSpec,
};
use fatih_net::UdpNet;
use fatih_topology::{builtin, RouterId, Topology};
use std::collections::BTreeSet;
use std::time::Duration;

/// Seeds which routers carry the flows.
const FLOW_SEED: u64 = 0xC0FFEE;

/// The router count the conviction-reroute gate is enforced at.
const GATE_ROUTERS: usize = 128;

/// Post-reconvergence delivery must reach this fraction of the
/// pre-attack per-round delivery.
const RECOVERY_FLOOR: f64 = 0.99;

/// The round in which the conviction scenario's dropper starts dropping;
/// earlier rounds provide the pre-attack delivery baseline.
const ATTACK_ROUND: u64 = 2;

/// A Sprintlink-proportioned topology with `n` routers (the same shape
/// scalebench sweeps: ~3.1 duplex links per router, degree capped at 45).
fn rocketfuel_like(n: usize) -> Topology {
    let links = (n * 972 / 315).max(n - 1);
    builtin::isp_like("churn", n, links, 45, 0xF00D ^ n as u64)
}

/// A router that no flow's routed path touches (so churning it never
/// frames honest traffic) with at least two links to flap.
fn off_path_actor(topo: &Topology, flows: &[FlowSpec]) -> RouterId {
    let routes = topo.link_state_routes();
    let mut on_path: BTreeSet<RouterId> = BTreeSet::new();
    for f in flows {
        if let Some(p) = routes.path(f.src, f.dst) {
            on_path.extend(p.routers().iter().copied());
        }
    }
    topo.routers()
        .find(|&r| !on_path.contains(&r) && topo.neighbors(r).len() >= 2)
        .expect("an off-path router with degree >= 2")
}

fn deploy(topo: &Topology, spec: &LiveSpec, cfg: &LiveConfig) -> LiveOutcome {
    let ids: Vec<RouterId> = topo.routers().collect();
    let transports = UdpNet::bind_group(&ids).expect("bind loopback sockets");
    LiveDeployment::run(topo, spec, cfg, transports)
}

/// Protocol timing shared by every scenario: 200ms rounds so the matrix
/// stays seconds-scale.
fn cfg(rounds: u64) -> LiveConfig {
    LiveConfig {
        tau: Duration::from_millis(200),
        exchange_budget: Duration::from_millis(120),
        maturity_lag: Duration::from_millis(50),
        rounds,
        ..LiveConfig::default()
    }
}

struct ConvictionResult {
    complete: bool,
    accurate: bool,
    reconverged: bool,
    baseline_per_round: f64,
    recovered_per_round: f64,
    recovery_ratio: f64,
    epoch_transitions: u64,
    suspicions: usize,
    json: String,
}

/// Scenario 1: conviction-driven rerouting at the gate size.
fn conviction_reroute(rounds: u64) -> ConvictionResult {
    let topo = rocketfuel_like(GATE_ROUTERS);
    let interval = Duration::from_millis(4);
    let flows = pick_flows(&topo, (GATE_ROUTERS / 16).max(4), 5, interval, FLOW_SEED);
    let victim = flows[0];
    let routes = topo.link_state_routes();
    let path = routes.path(victim.src, victim.dst).expect("routed flow");
    let dropper = path.routers()[path.len() / 2];
    let spec = LiveSpec {
        flows,
        droppers: vec![DropperSpec {
            router: dropper,
            rate: 0.3,
            seed: 77,
            active_from: ATTACK_ROUND,
        }],
        ..LiveSpec::default()
    };
    let outcome = deploy(&topo, &spec, &cfg(rounds));

    let faulty: BTreeSet<RouterId> = [dropper].into_iter().collect();
    let check = SpecCheck::evaluate(&outcome.suspicions, &faulty);
    let complete = check.is_complete();
    let accurate = check.is_accurate(cfg(rounds).k + 2);

    let epoch_transitions = outcome.metrics.counter("net.epoch_transitions");
    let ls_updates_applied = outcome.metrics.counter("net.ls_updates_applied");
    // Every router must have applied the exclusion and opened a new epoch.
    let reconverged = epoch_transitions >= GATE_ROUTERS as u64;

    // Per-round delivery: the round before the attack is the baseline;
    // the mean of the last two *complete* rounds is the recovered rate.
    // The final round's snapshot races deployment teardown (its tail is
    // truncated), so it is excluded from the window.
    let m = &outcome.round_metrics;
    let delivered = |i: usize| m[i].counter("net.data_delivered");
    let a = ATTACK_ROUND as usize;
    let n = m.len();
    assert!(n >= a + 5, "too few rounds to measure recovery");
    let baseline_per_round = (delivered(a - 1) - delivered(a - 2)) as f64;
    let recovered_per_round = (delivered(n - 2) - delivered(n - 4)) as f64 / 2.0;
    let recovery_ratio = recovered_per_round / baseline_per_round.max(1.0);

    println!(
        "  conviction_reroute @ {GATE_ROUTERS} routers: complete={complete} \
         accurate={accurate} reconverged={reconverged} \
         ({epoch_transitions} epoch transitions, {ls_updates_applied} LS applies)"
    );
    println!(
        "    delivery: {baseline_per_round:.0}/round pre-attack -> \
         {recovered_per_round:.0}/round recovered (ratio {recovery_ratio:.3})"
    );
    let mut per_round = Vec::with_capacity(n);
    for i in 0..n {
        let prev_d = if i == 0 { 0 } else { delivered(i - 1) };
        let prev_x = if i == 0 {
            0
        } else {
            m[i - 1].counter("net.data_dropped")
        };
        per_round.push((
            delivered(i) - prev_d,
            m[i].counter("net.data_dropped") - prev_x,
        ));
    }
    println!(
        "    isolated={} per-round delivered/dropped: {}",
        outcome.metrics.counter("net.routers_isolated"),
        per_round
            .iter()
            .map(|(d, x)| format!("{d}/{x}"))
            .collect::<Vec<_>>()
            .join(" "),
    );

    let json = format!(
        "{{ \"routers\": {GATE_ROUTERS}, \"rounds\": {rounds}, \
         \"attack_round\": {ATTACK_ROUND}, \"complete\": {complete}, \
         \"accurate\": {accurate}, \"reconverged\": {reconverged}, \
         \"epoch_transitions\": {epoch_transitions}, \
         \"ls_updates_applied\": {ls_updates_applied}, \
         \"baseline_per_round\": {baseline_per_round:.1}, \
         \"recovered_per_round\": {recovered_per_round:.1}, \
         \"recovery_ratio\": {recovery_ratio:.4}, \
         \"per_round_delivered\": [{}], \
         \"suspicions\": {} }}",
        per_round
            .iter()
            .map(|(d, _)| d.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        outcome.suspicions.len()
    );
    ConvictionResult {
        complete,
        accurate,
        reconverged,
        baseline_per_round,
        recovered_per_round,
        recovery_ratio,
        epoch_transitions,
        suspicions: outcome.suspicions.len(),
        json,
    }
}

struct ChurnResult {
    suspicions: usize,
    epoch_transitions: u64,
    probation_admitted: u64,
    probation_cleared: u64,
    data_delivered: u64,
    json: String,
}

fn churn_result(name: &str, routers: usize, outcome: &LiveOutcome) -> ChurnResult {
    let r = ChurnResult {
        suspicions: outcome.suspicions.len(),
        epoch_transitions: outcome.metrics.counter("net.epoch_transitions"),
        probation_admitted: outcome.metrics.counter("net.probation_admitted"),
        probation_cleared: outcome.metrics.counter("net.probation_cleared"),
        data_delivered: outcome.stats.data_delivered,
        json: String::new(),
    };
    println!(
        "  {name} @ {routers} routers: {} suspicions, {} epoch transitions, \
         probation {}→{}, {} delivered",
        r.suspicions,
        r.epoch_transitions,
        r.probation_admitted,
        r.probation_cleared,
        r.data_delivered
    );
    ChurnResult {
        json: format!(
            "{{ \"routers\": {routers}, \"suspicions\": {}, \
             \"epoch_transitions\": {}, \"probation_admitted\": {}, \
             \"probation_cleared\": {}, \"data_delivered\": {} }}",
            r.suspicions,
            r.epoch_transitions,
            r.probation_admitted,
            r.probation_cleared,
            r.data_delivered
        ),
        ..r
    }
}

/// Scenario 2: link flap + graceful leave/rejoin, no adversary.
fn pure_churn(routers: usize) -> ChurnResult {
    let topo = rocketfuel_like(routers);
    let ms = Duration::from_millis;
    let flows = pick_flows(&topo, (routers / 16).max(4), 4, ms(4), FLOW_SEED);
    let actor = off_path_actor(&topo, &flows);
    let peer = topo.neighbors(actor)[0].0;
    let spec = LiveSpec {
        flows,
        churn: vec![
            ChurnEvent {
                at: ms(250),
                actor,
                action: ChurnAction::LinkDown(peer),
            },
            ChurnEvent {
                at: ms(650),
                actor,
                action: ChurnAction::LinkUp(peer),
            },
            ChurnEvent {
                at: ms(900),
                actor,
                action: ChurnAction::Leave,
            },
            ChurnEvent {
                at: ms(1300),
                actor,
                action: ChurnAction::Join,
            },
        ],
        ..LiveSpec::default()
    };
    let outcome = deploy(&topo, &spec, &cfg(8));
    churn_result("pure_churn", routers, &outcome)
}

/// Scenario 3: silent crash, peer report, probationary restart.
fn crash_restart(routers: usize) -> ChurnResult {
    let topo = rocketfuel_like(routers);
    let ms = Duration::from_millis;
    let flows = pick_flows(&topo, (routers / 16).max(4), 4, ms(4), FLOW_SEED);
    let actor = off_path_actor(&topo, &flows);
    let reporter = topo.neighbors(actor)[0].0;
    let spec = LiveSpec {
        flows,
        churn: vec![
            ChurnEvent {
                at: ms(150),
                actor,
                action: ChurnAction::Crash,
            },
            ChurnEvent {
                at: ms(450),
                actor: reporter,
                action: ChurnAction::ReportDown(actor),
            },
            ChurnEvent {
                at: ms(800),
                actor,
                action: ChurnAction::Restart,
            },
        ],
        ..LiveSpec::default()
    };
    let outcome = deploy(&topo, &spec, &cfg(10));
    churn_result("crash_restart", routers, &outcome)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("churnbench ({})", if smoke { "smoke" } else { "full" });

    let conv = conviction_reroute(if smoke { 9 } else { 12 });
    let churn = pure_churn(if smoke { 48 } else { 64 });
    let crash = crash_restart(if smoke { 32 } else { 48 });

    let json = format!(
        "{{\n  \"bench\": \"churnbench\",\n  \"mode\": \"{}\",\n  \
         \"recovery_floor\": {RECOVERY_FLOOR},\n  \
         \"conviction_reroute\": {},\n  \
         \"pure_churn\": {},\n  \
         \"crash_restart\": {}\n}}\n",
        if smoke { "smoke" } else { "full" },
        conv.json,
        churn.json,
        crash.json,
    );
    std::fs::write("BENCH_churn.json", &json).expect("write BENCH_churn.json");
    println!("\nwrote BENCH_churn.json");

    assert!(
        conv.complete && conv.accurate,
        "conviction gate failed: complete={} accurate={} ({} suspicions)",
        conv.complete,
        conv.accurate,
        conv.suspicions
    );
    println!("conviction gate ({GATE_ROUTERS} routers, complete + accurate): ok");
    assert!(
        conv.reconverged,
        "reconvergence gate failed: only {} epoch transitions for {GATE_ROUTERS} routers",
        conv.epoch_transitions
    );
    println!("reconvergence gate (every router applied the exclusion): ok");
    assert!(
        conv.recovery_ratio >= RECOVERY_FLOOR,
        "recovery gate failed: {:.0}/round recovered vs {:.0}/round pre-attack \
         (ratio {:.3} < {RECOVERY_FLOOR})",
        conv.recovered_per_round,
        conv.baseline_per_round,
        conv.recovery_ratio
    );
    println!("recovery gate (delivery >= {RECOVERY_FLOOR}x pre-attack): ok");
    assert_eq!(
        churn.suspicions, 0,
        "pure churn raised suspicions: {}",
        churn.suspicions
    );
    assert!(churn.epoch_transitions > 0, "pure churn never reconverged");
    assert!(churn.data_delivered > 0, "pure churn delivered nothing");
    println!("pure-churn gate (zero suspicions under flaps + leave/join): ok");
    assert_eq!(
        crash.suspicions, 0,
        "crash-restart raised suspicions: {}",
        crash.suspicions
    );
    assert!(
        crash.probation_admitted >= 1 && crash.probation_cleared >= 1,
        "probation never served: admitted={} cleared={}",
        crash.probation_admitted,
        crash.probation_cleared
    );
    assert!(crash.data_delivered > 0, "crash-restart delivered nothing");
    println!("crash-restart gate (probation served + cleared, zero suspicions): ok");
}
