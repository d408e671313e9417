//! Four live verdict gates on virtual time: the scale and churn
//! scenarios of the release gates in `crates/bench/tests/gates.rs`, built
//! by the same `fatih_bench` functions and deployed on `SimHost`, so each
//! verdict depends on no host's speed and runs in a debug build. The
//! fifth, conviction → reroute → recovery, is `conviction_recovery.rs`.
//!
//! Each twin keeps every assertion of its UDP original. The engine's
//! ground truth stands in for the counts only a live router's own data
//! path makes: `data_delivered` for `net.data_delivered` and
//! `malicious_drops` for `net.data_dropped`.

use fatih::net::runtime::LiveStats;
use fatih::net::{ChurnAction, LiveConfig, LiveSpec, SimHost, SummaryMode};
use fatih::obs::MetricsSnapshot;
use fatih::protocols::spec::{SpecCheck, Suspicion};
use fatih::sim::{GroundTruth, Network, SimTime};
use fatih::topology::{RouterId, Topology};
use fatih_bench::{
    add_dropper, churn, churn_cfg, churn_scenario, detect_only, scenario, GATE_ROUTERS, RECONCILE,
    SCALE_FLOW_SEED,
};
use std::collections::BTreeSet;

/// Reconciled control bytes must come in at or below this fraction of
/// full-transfer control bytes at the gate size.
const RATIO_LIMIT: f64 = 0.5;

/// What a deployment said and what the engine saw.
struct Outcome {
    suspicions: Vec<Suspicion>,
    stats: LiveStats,
    metrics: MetricsSnapshot,
    truth: GroundTruth,
}

/// Runs `spec` on `SimHost` for as long as a live deployment runs it:
/// until its last round is judged.
fn deploy(topo: &Topology, spec: &LiveSpec, cfg: LiveConfig) -> Outcome {
    let mut net = Network::new(topo.clone(), 1);
    let mut host = SimHost::new(&mut net, spec, cfg);
    let end = cfg.tau * cfg.rounds as u32 + cfg.exchange_budget;
    host.run(&mut net, SimTime::from_ns(end.as_nanos() as u64));
    let metrics = host.metrics();
    Outcome {
        suspicions: host.suspicions(),
        stats: LiveStats::from_snapshot(&metrics),
        metrics,
        truth: net.ground_truth(),
    }
}

/// The segment ends in dispute at the end of the run and at most during
/// it (`monitor.segments_in_dispute`, `…_max`).
fn disputes(outcome: &Outcome) -> (f64, f64) {
    let at = |name| outcome.metrics.gauge(name);
    (
        at("monitor.segments_in_dispute"),
        at("monitor.segments_in_dispute_max"),
    )
}

/// Whether `outcome`'s verdicts catch `dropper` (complete) without
/// suspecting a segment of correct routers only (accurate).
fn complete_and_accurate(outcome: &Outcome, dropper: RouterId, k: usize) -> (bool, bool) {
    let faulty: BTreeSet<RouterId> = [dropper].into_iter().collect();
    let check = SpecCheck::evaluate(&outcome.suspicions, &faulty);
    (check.is_complete(), check.is_accurate(k + 2))
}

#[test]
fn reconcile_costs_at_most_half_of_full_and_nobody_is_accused() {
    let mut gate_ratio = f64::NAN;
    for n in [48, GATE_ROUTERS] {
        let (topo, spec) = scenario(n, 5, SCALE_FLOW_SEED);
        let full = deploy(&topo, &spec, detect_only(SummaryMode::Full));
        let rec = deploy(&topo, &spec, detect_only(RECONCILE));
        let ratio = rec.stats.control_bytes_sent as f64 / full.stats.control_bytes_sent as f64;
        let (in_dispute, most) = disputes(&rec);
        println!(
            "{n} routers: Reconcile/Full control bytes {ratio:.3} ({} resolved, {} fallbacks, \
             {} escalations; {in_dispute} in dispute at finish, {most} at most); \
             suspicions Full {} / Reconcile {}",
            rec.stats.digests_resolved,
            rec.stats.digest_fallbacks,
            rec.stats.digest_escalations,
            full.suspicions.len(),
            rec.suspicions.len(),
        );
        assert!(
            full.suspicions.is_empty() && rec.suspicions.is_empty(),
            "clean run at {n} routers accused: Full {:?}, Reconcile {:?}",
            full.suspicions,
            rec.suspicions
        );
        // A clean run's digests all resolve: nothing is pulled.
        assert!(rec.stats.digests_resolved > 0, "no digest ever resolved");
        assert_eq!(rec.stats.digest_fallbacks, 0, "a clean run fell back");
        // Nor, escalated or not, does it put a segment in dispute.
        assert_eq!((in_dispute, most), (0.0, 0.0), "a clean run disputed");
        gate_ratio = ratio;
    }
    assert!(
        gate_ratio <= RATIO_LIMIT,
        "Reconcile/Full control bytes {gate_ratio:.3} exceed {RATIO_LIMIT} at {GATE_ROUTERS} routers"
    );
}

#[test]
fn mid_path_dropper_is_caught_at_128_routers_detection_only() {
    let (topo, mut spec) = scenario(GATE_ROUTERS, 5, SCALE_FLOW_SEED);
    let dropper = add_dropper(&topo, &mut spec, 0);
    let cfg = detect_only(RECONCILE);
    let outcome = deploy(&topo, &spec, cfg);
    let (complete, accurate) = complete_and_accurate(&outcome, dropper, cfg.k);
    let (in_dispute, most) = disputes(&outcome);
    println!(
        "30 % dropper at {GATE_ROUTERS} routers: complete={complete} accurate={accurate}, \
         {} dropped ({} resolved, {} fallbacks, {} escalations; {in_dispute} in dispute at \
         finish, {most} at most)",
        outcome.truth.malicious_drops,
        outcome.stats.digests_resolved,
        outcome.stats.digest_fallbacks,
        outcome.stats.digest_escalations,
    );
    assert!(outcome.truth.malicious_drops > 0, "the dropper never fired");
    assert!(
        complete && accurate,
        "dropper detection failed: complete={complete} accurate={accurate} {:?}",
        outcome.suspicions
    );
}

#[test]
fn pure_churn_flap_leave_and_join_accuse_nobody() {
    let (topo, mut spec, actor, peer) = churn_scenario(48);
    spec.churn = vec![
        churn(250, actor, ChurnAction::LinkDown(peer)),
        churn(650, actor, ChurnAction::LinkUp(peer)),
        churn(900, actor, ChurnAction::Leave),
        churn(1300, actor, ChurnAction::Join),
    ];
    let outcome = deploy(&topo, &spec, churn_cfg(8));
    let transitions = outcome.metrics.counter("net.epoch_transitions");
    let (in_dispute, most) = disputes(&outcome);
    println!(
        "pure churn at 48 routers: {} suspicions, {transitions} epoch transitions, {} delivered, \
         {in_dispute} in dispute at finish, {most} at most",
        outcome.suspicions.len(),
        outcome.truth.data_delivered
    );
    assert!(
        outcome.suspicions.is_empty(),
        "pure churn accused: {:?}",
        outcome.suspicions
    );
    assert!(transitions > 0, "pure churn never reconverged");
    assert!(
        outcome.truth.data_delivered > 0,
        "pure churn delivered nothing"
    );
}

#[test]
fn crash_restart_serves_probation_and_accuses_nobody() {
    let (topo, mut spec, actor, reporter) = churn_scenario(32);
    spec.churn = vec![
        churn(150, actor, ChurnAction::Crash),
        churn(450, reporter, ChurnAction::ReportDown(actor)),
        churn(800, actor, ChurnAction::Restart),
    ];
    let outcome = deploy(&topo, &spec, churn_cfg(10));
    let admitted = outcome.metrics.counter("net.probation_admitted");
    let cleared = outcome.metrics.counter("net.probation_cleared");
    let (in_dispute, most) = disputes(&outcome);
    println!(
        "crash-restart at 32 routers: {} suspicions, probation {admitted} admitted / \
         {cleared} cleared, {} delivered, {in_dispute} in dispute at finish, {most} at most",
        outcome.suspicions.len(),
        outcome.truth.data_delivered
    );
    assert!(
        outcome.suspicions.is_empty(),
        "crash-restart accused: {:?}",
        outcome.suspicions
    );
    assert!(
        admitted >= 1 && cleared >= 1,
        "probation never served: admitted={admitted} cleared={cleared}"
    );
    assert!(
        outcome.truth.data_delivered > 0,
        "crash-restart delivered nothing"
    );
}
