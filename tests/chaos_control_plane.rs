//! Chaos harness for the fault-injected control plane: sweeps of
//! seed-driven [`FaultPlan`]s, and of churn scripts drawn with them
//! ([`transient_chaos`]), against the live routers on the simulator's
//! clock ([`SimHost`]), detecting only and with the response on. A seed
//! is a run: one that fails is its own repro.
//!
//! The properties under test are the failure-detector guarantees of
//! §4.2.2 *in the presence of environmental faults* (§2.2.1's benign
//! class):
//!
//! * **Accuracy** — control-plane loss, duplication, reordering and
//!   corruption must never cause a correct router to be accused: acks and
//!   retransmission absorb them, and the script's outages (link flaps,
//!   crash–restarts) are announced as link-state churn whose amnesty
//!   covers the rounds they disturb.
//! * **Completeness** — a router that maliciously drops data traffic is
//!   still flagged once the faults quiesce, and a router that withholds
//!   its summaries is flagged *by that refusal* (timeout-as-accusation).

use fatih::net::{ChurnAction, ChurnEvent, LiveConfig, LiveSpec, SimHost};
use fatih::protocols::policy::Thresholds;
use fatih::protocols::spec::{SpecCheck, Suspicion};
use fatih::sim::{Attack, FaultPlan, LinkFaults, Network, SimTime};
use fatih::topology::{builtin, RouterId, Topology};
use fatih_bench::transient_chaos;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// The Chapter 5 deployment: τ = 5 s rounds judged 4 s after they end,
/// 200 ms maturity lag, zero tolerance; `response` decides whether a
/// conviction is answered.
fn deployment(response: bool) -> LiveConfig {
    LiveConfig {
        tau: Duration::from_secs(5),
        exchange_budget: Duration::from_secs(4),
        maturity_lag: Duration::from_millis(200),
        thresholds: Thresholds::default(),
        key_seed: 17,
        response,
        ..LiveConfig::default()
    }
}

/// The live suites' deployment over loopback: τ = 200 ms rounds judged
/// 120 ms after they end, 50 ms maturity lag, [`LiveConfig::default`]'s
/// loss allowance; detecting only.
fn loopback_deployment() -> LiveConfig {
    LiveConfig {
        tau: Duration::from_millis(200),
        exchange_budget: Duration::from_millis(120),
        maturity_lag: Duration::from_millis(50),
        response: false,
        ..LiveConfig::default()
    }
}

/// Rounds `0..rounds` of `cfg` judged: what the detector says of them.
fn judged(
    net: &mut Network,
    cfg: LiveConfig,
    rounds: u64,
    host: impl FnOnce(&mut SimHost),
) -> Vec<Suspicion> {
    let until = cfg.tau * rounds as u32 + cfg.exchange_budget;
    let mut sim = SimHost::new(net, &LiveSpec::default(), cfg);
    host(&mut sim);
    sim.run(net, SimTime::from_ns(until.as_nanos() as u64));
    sim.suspicions()
}

/// The first round, [0 s, 5 s), judged: what the detector alone says.
fn first_round(net: &mut Network, host: impl FnOnce(&mut SimHost)) -> Vec<Suspicion> {
    judged(net, deployment(false), 1, host)
}

fn line(n: usize) -> (Topology, Vec<RouterId>) {
    let topo = builtin::line(n);
    let ids = (0..n)
        .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
        .collect();
    (topo, ids)
}

/// Seed-derived probabilistic faults, bounded so that eight attempts
/// practically always deliver (a 2-hop attempt is lost or corrupted with
/// probability ≈ 0.28 at the worst seed's 14% loss and 1.5% corruption
/// per hop; 0.28⁸ ≈ 4·10⁻⁵).
fn probabilistic_faults(seed: u64) -> LinkFaults {
    LinkFaults {
        loss: 0.02 + (seed % 7) as f64 * 0.02,
        duplicate: (seed % 5) as f64 * 0.02,
        corrupt: (seed % 3) as f64 * 0.015,
        reorder: (seed % 4) as f64 * 0.02,
        reorder_delay: SimTime::from_ms(1 + seed % 15),
    }
}

/// 20 fault seeds of pure message-level chaos (loss/dup/corrupt/reorder
/// on every link), each at two deployments — Chapter 5's first round and
/// the loopback timings' first two: the attacker is always caught and no
/// correct router is ever accused.
#[test]
fn twenty_seeds_of_message_chaos_keep_accuracy_and_completeness() {
    for seed in 0..20u64 {
        for (cfg, rounds) in [(deployment(false), 1), (loopback_deployment(), 2)] {
            let tau = cfg.tau;
            let (topo, ids) = line(6);
            let mut net = Network::new(topo, seed);
            net.set_fault_plan(Some(
                FaultPlan::new(seed).with_default_link_faults(probabilistic_faults(seed)),
            ));
            let flow = net.add_cbr_flow(
                ids[0],
                ids[5],
                1000,
                SimTime::from_ms(2),
                SimTime::ZERO,
                None,
            );
            net.set_attacks(ids[3], vec![Attack::drop_flows([flow], 0.3)]);
            let sus = judged(&mut net, cfg, rounds, |_| {});

            assert!(
                net.delivered_on_flow(flow) > 0,
                "seed {seed}, τ {tau:?}: no traffic delivered"
            );
            let faulty: BTreeSet<RouterId> = [ids[3]].into_iter().collect();
            let check = SpecCheck::evaluate(&sus, &faulty);
            assert!(
                check.is_complete(),
                "seed {seed}, τ {tau:?}: attacker escaped under message chaos: {sus:?}"
            );
            assert!(
                check.is_accurate(3),
                "seed {seed}, τ {tau:?}: correct router accused: {:?}",
                check.false_positives
            );
        }
    }
}

/// 20 seeds of transient chaos — randomized per-link fault rates plus
/// link flaps and a possible crash–restart, all quiescing by t = 10 s —
/// against the full Fatih loop. The script's outages are announced churn,
/// so the exclusion set only ever names segments containing the
/// attacker, and the attacker is flagged once the faults die down.
#[test]
fn transient_chaos_quiesces_and_attacker_is_still_flagged() {
    for seed in 100..120u64 {
        let (host, net, ids) = transient_chaos_run(seed);
        let excluded = host.excluded_segments();
        assert!(
            excluded.iter().any(|seg| seg.contains(ids[3])),
            "seed {seed}: attacker never flagged after faults quiesced: {:?}",
            host.events()
        );
        for seg in &excluded {
            assert!(
                seg.contains(ids[3]),
                "seed {seed}: correct routers accused: {seg}"
            );
        }
        assert!(net.fault_plan().unwrap().quiesced_after() <= SimTime::from_secs(10));
    }
}

/// Seed `seed` of the transient-chaos sweep on a 6-line: the drawn plan
/// and script, a flow end to end, a 35 % dropper on router 3 and the
/// response on, run for 30 s.
fn transient_chaos_run(seed: u64) -> (SimHost, Network, Vec<RouterId>) {
    let (topo, ids) = line(6);
    let (plan, churn) = transient_chaos(seed, &topo, SimTime::from_secs(10));
    let mut net = Network::new(topo, seed);
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
    let spec = LiveSpec {
        churn,
        ..LiveSpec::default()
    };
    let mut host = SimHost::new(&mut net, &spec, deployment(true));
    host.run(&mut net, SimTime::from_secs(30));
    (host, net, ids)
}

/// A run is a function of the topology seed and the chaos seed: two runs
/// of one transient-chaos draw — flaps, a crash-restart, control faults, a
/// dropper and the response — say the same events, in the same order, at
/// the same instants.
#[test]
fn one_pair_of_seeds_is_one_run() {
    let run = || format!("{:?}", transient_chaos_run(101).0.events());
    let (a, b) = (run(), run());
    for seen in ["SuspicionRaised", "DeliveryExhausted", "ProbationCleared"] {
        assert!(a.contains(seen), "{seen}: the schedule missed it");
    }
    assert!(a == b, "two runs of one seed pair differ");
}

/// The chaos draw is a function of its seed, its link faults stay within
/// their bounds until the horizon and none after, and every outage the
/// script opens — a link by both its ends, a crash — is closed again,
/// before the same outage opens anew and by the horizon.
#[test]
fn a_chaos_draw_is_deterministic_bounded_and_closes_every_outage() {
    let topo = builtin::abilene();
    let horizon = SimTime::from_secs(20);
    let steps = |script: &[ChurnEvent]| -> Vec<_> {
        (script.iter()).map(|e| (e.at, e.actor, e.action)).collect()
    };
    let (p1, s1) = transient_chaos(42, &topo, horizon);
    let (p2, s2) = transient_chaos(42, &topo, horizon);
    assert_eq!((&p1, steps(&s1)), (&p2, steps(&s2)));
    let (p3, s3) = transient_chaos(43, &topo, horizon);
    assert!(p1 != p3 || steps(&s1) != steps(&s3));
    for link in topo.links() {
        let f = p1.link_faults(link.from, link.to, SimTime::ZERO);
        assert!(f.loss < 0.15 && f.duplicate < 0.10 && f.corrupt < 0.05);
        assert!(p1.link_faults(link.from, link.to, horizon).is_none());
    }
    assert!(p1.quiesced_after() <= horizon);
    let end = Duration::from_nanos(horizon.as_ns());
    // On the sweep's 6-line, as on Abilene: few links, so flaps overlap.
    for (topo, seed) in [topo, builtin::line(6)]
        .iter()
        .flat_map(|t| (0..50).map(move |s| (t, s)))
    {
        let (_, script) = transient_chaos(seed, topo, horizon);
        let downs = script
            .iter()
            .filter(|e| matches!(e.action, ChurnAction::LinkDown(_)));
        assert!(downs.count() >= 2, "seed {seed}: no flap");
        // Per actor, a link's (or the router's own) openings and closings
        // alternate: every outage is closed before the next opens, so a
        // link's overlapping flaps are one, and by the horizon.
        let mut outages: BTreeMap<_, Vec<(Duration, bool)>> = BTreeMap::new();
        for e in &script {
            let (of, opens) = match e.action {
                ChurnAction::LinkDown(peer) => (Some(peer), true),
                ChurnAction::LinkUp(peer) => (Some(peer), false),
                ChurnAction::Crash => (None, true),
                ChurnAction::Restart => (None, false),
                _ => continue,
            };
            outages
                .entry((e.actor, of))
                .or_default()
                .push((e.at, opens));
        }
        for (key, mut steps) in outages {
            steps.sort_unstable();
            let alternate =
                (steps.iter().enumerate()).all(|(i, &(_, opens))| opens == (i % 2 == 0));
            let closed = steps.len() % 2 == 0 && steps.last().is_some_and(|&(at, _)| at <= end);
            assert!(alternate && closed, "seed {seed}: {key:?} {steps:?}");
        }
    }
}

/// A router that persistently withholds its summaries is itself flagged
/// (timeout-as-accusation), across seeds of background control loss —
/// and nobody else is.
#[test]
fn persistent_summary_withholder_is_flagged_across_seeds() {
    for seed in 200..220u64 {
        let (topo, ids) = line(4);
        let mut net = Network::new(topo, seed);
        net.set_fault_plan(Some(FaultPlan::new(seed).with_default_link_faults(
            LinkFaults {
                loss: 0.10,
                ..LinkFaults::default()
            },
        )));
        net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.add_cbr_flow(
            ids[3],
            ids[0],
            800,
            SimTime::from_ms(3),
            SimTime::ZERO,
            None,
        );
        let sus = first_round(&mut net, |host| host.silence(ids[0]));

        let faulty: BTreeSet<RouterId> = [ids[0]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(
            check.is_complete(),
            "seed {seed}: withholder escaped: {sus:?}"
        );
        assert!(
            check.is_accurate(3),
            "seed {seed}: withholding blamed on others: {:?}",
            check.false_positives
        );
    }
}

/// Duplicate and reordered control deliveries never double-apply: a
/// clean data plane with heavily duplicated/reordered control messages
/// yields a clean verdict across seeds.
#[test]
fn duplication_and_reordering_alone_accuse_nobody() {
    for seed in 300..310u64 {
        let (topo, ids) = line(5);
        let mut net = Network::new(topo, seed);
        net.set_fault_plan(Some(FaultPlan::new(seed).with_default_link_faults(
            LinkFaults {
                duplicate: 0.5,
                reorder: 0.4,
                reorder_delay: SimTime::from_ms(25),
                ..LinkFaults::default()
            },
        )));
        net.add_cbr_flow(
            ids[0],
            ids[4],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        let sus = first_round(&mut net, |_| {});
        assert!(
            sus.is_empty(),
            "seed {seed}: duplication/reordering caused accusations: {sus:?}"
        );
    }
}
