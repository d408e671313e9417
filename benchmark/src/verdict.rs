//! Verdict and failure accounting: was the protocol right, and how many
//! of the operations it attempted failed.
//!
//! *Attempted* operations are the segment-round evaluations the routers
//! made plus the data packets the sources injected. An operation *failed*
//! if it is a suspicion of a segment without the dropper (any suspicion at
//! all on a clean workload), an evaluation made more than two rounds after
//! onset with the dropper still unconvicted, a summary that timed out, a
//! frame that failed to encode or decode, or a packet that was neither
//! delivered nor maliciously dropped (injection stops a full exchange
//! budget plus drain before shutdown, so nothing is legitimately still in
//! flight). The baseline is zero on all four workloads.
//!
//! Some findings make the whole run wrong rather than one operation; those
//! are listed in [`Verdict::fatal`] and turn into a non-zero exit.

use crate::workload::Workload;
use fatih_net::runtime::{LiveEvent, LiveOutcome};
use fatih_obs::TraceKind;
use fatih_topology::RouterId;
use std::collections::HashMap;

/// A paced workload must deliver at least this share of its nominal rate,
/// or it is not the workload it claims to be. Flow ticks re-arm from `now`,
/// so the attained share is ≈ 0.92 on a quiet host and was seen at 0.82
/// when the host was busy; the floor leaves room below that.
const MIN_RATE_ATTAINED: f64 = 0.70;

/// The judgement of one measured run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Segment-round evaluations plus injected packets.
    pub attempted: u64,
    /// Failed operations, by the rules in the module text.
    pub failed: u64,
    /// `failed`, itemised: (what, how many), zero entries omitted.
    pub failures: Vec<(&'static str, u64)>,
    /// Reasons the run as a whole is wrong; empty means correct.
    pub fatal: Vec<String>,
    /// `attack-isp64`: onset → first accusation of a segment containing
    /// the dropper.
    pub detect_latency_ms: Option<f64>,
    /// `attack-isp64`: onset → the first convicting router's exclusion
    /// applied at every router.
    pub reroute_latency_ms: Option<f64>,
}

impl Verdict {
    /// Whether the run's outputs are correct.
    pub fn correct(&self) -> bool {
        self.fatal.is_empty()
    }
}

/// Judges one run of `w`. `injected` is the probes' count of first sends.
pub fn judge(w: &Workload, outcome: &LiveOutcome, injected: u64) -> Verdict {
    let mut v = Verdict::default();
    let stats = &outcome.stats;
    let dropper = w.attack.map(|a| a.dropper);
    let names = |r: RouterId| dropper == Some(r);

    let evaluations = outcome
        .events
        .iter()
        .filter(|e| matches!(e, LiveEvent::RoundEvaluated { .. }))
        .count() as u64;
    v.attempted = evaluations + injected;

    // (round, suspicion) pairs, split by whether they name the dropper.
    let raised: Vec<_> = outcome
        .events
        .iter()
        .filter_map(|e| match e {
            LiveEvent::SuspicionRaised { suspicion, round } => Some((*round, suspicion)),
            _ => None,
        })
        .collect();
    let (right, wrong): (Vec<_>, Vec<_>) = raised
        .iter()
        .partition(|(_, s)| s.segment.routers().iter().any(|&r| names(r)));

    let mut late = 0;
    if let Some(a) = w.attack {
        let deadline = a.onset_round + 2;
        if !right.iter().any(|(round, _)| *round <= deadline) {
            late = outcome
                .events
                .iter()
                .filter(
                    |e| matches!(e, LiveEvent::RoundEvaluated { round, .. } if *round > deadline),
                )
                .count() as u64;
        }
    }
    let unaccounted = injected.saturating_sub(stats.data_delivered + stats.data_dropped);
    v.failures = [
        ("false_suspicions", wrong.len() as u64),
        ("evaluations_with_dropper_unconvicted", late),
        (
            "summary_timeouts",
            outcome.metrics.counter("net.summary_timeouts"),
        ),
        ("encode_failures", stats.encode_failures),
        ("decode_failures", stats.decode_failures),
        ("packets_unaccounted", unaccounted),
    ]
    .into_iter()
    .filter(|(_, n)| *n > 0)
    .collect();
    v.failed = v.failures.iter().map(|(_, n)| n).sum();

    if let Some(nominal) = w.nominal_pps {
        let attained = stats.data_delivered as f64 / (nominal * w.measured_seconds());
        if attained < MIN_RATE_ATTAINED {
            v.fatal.push(format!(
                "delivered {:.3} of the nominal rate (< {MIN_RATE_ATTAINED})",
                attained
            ));
        }
    }
    match w.attack {
        None => {
            if !raised.is_empty() {
                v.fatal.push(format!(
                    "{} suspicion(s) on a workload with no attacker",
                    raised.len()
                ));
            }
        }
        Some(a) => {
            if stats.data_dropped == 0 {
                v.fatal
                    .push("the dropper never dropped: it is off the flow's path".into());
            }
            if right.is_empty() {
                v.fatal
                    .push("no suspicion names a segment containing the dropper".into());
            }
            if outcome.trace.dropped() > 0 {
                v.fatal.push(format!(
                    "trace ring overwrote {} events; latencies read from it are void",
                    outcome.trace.dropped()
                ));
            }
            let onset_ns = a.onset_round * w.cfg.tau.as_nanos() as u64;
            attack_latencies(w, outcome, onset_ns, &right, &mut v);
        }
    }
    v
}

/// Reads detection and reroute latency out of the trace journal.
fn attack_latencies(
    w: &Workload,
    outcome: &LiveOutcome,
    onset_ns: u64,
    right: &[(u64, &fatih_core::spec::Suspicion)],
    v: &mut Verdict,
) {
    // The journal names an accusation by (accuser, round, peer end); the
    // suspicion events say which of those segments contain the dropper.
    let first = outcome.trace.events().iter().find(|e| {
        e.kind == TraceKind::AccusationRaised
            && e.t_ns >= onset_ns
            && right.iter().any(|(round, s)| {
                let (a, b) = s.segment.ends();
                *round == e.round
                    && u32::from(s.raised_by) == e.router
                    && [u32::from(a), u32::from(b)].contains(&(e.value as u32))
            })
    });
    let Some(first) = first else {
        return;
    };
    let ms = |t_ns: u64| (t_ns - onset_ns) as f64 / 1e6;
    v.detect_latency_ms = Some(ms(first.t_ns));

    // The accuser floods the exclusion; every router must apply it.
    let origin = u64::from(first.router);
    let mut applied_at: HashMap<u32, u64> = HashMap::new();
    for e in outcome.trace.events() {
        if e.kind == TraceKind::LinkStateApplied && e.value == origin && e.t_ns >= first.t_ns {
            applied_at.entry(e.router).or_insert(e.t_ns);
        }
    }
    let missing = w
        .topo
        .routers()
        .filter(|r| !applied_at.contains_key(&u32::from(*r)))
        .count();
    if missing > 0 {
        v.fatal.push(format!(
            "{missing} router(s) never applied the first exclusion"
        ));
    } else {
        v.reroute_latency_ms = applied_at.values().max().map(|&t| ms(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::generate;
    use fatih_core::spec::{Interval, Suspicion};
    use fatih_net::runtime::LiveStats;
    use fatih_obs::trace::NO_ROUND;
    use fatih_obs::{MetricsRegistry, TraceBuffer, TraceJournal};
    use fatih_sim::SimTime;
    use fatih_topology::{DynamicTopology, PathSegment};

    /// A synthetic outcome: `evals` (round, passed) evaluations of one
    /// segment, the given suspicions, counters and trace.
    fn outcome(
        evals: &[u64],
        suspicions: Vec<(u64, Suspicion)>,
        counters: &[(&str, u64)],
        trace: TraceBuffer,
    ) -> LiveOutcome {
        let reg = MetricsRegistry::new();
        for (name, n) in counters {
            reg.counter(name).add(*n);
        }
        let metrics = reg.snapshot();
        let seg = PathSegment::new(vec![0.into(), 1.into(), 2.into()]);
        let mut events: Vec<LiveEvent> = evals
            .iter()
            .map(|&round| LiveEvent::RoundEvaluated {
                router: 0.into(),
                round,
                segment: seg.clone(),
                passed: true,
                bottom: false,
                lost: 0,
                fabricated: 0,
            })
            .collect();
        events.extend(
            suspicions
                .iter()
                .map(|(round, s)| LiveEvent::SuspicionRaised {
                    suspicion: s.clone(),
                    round: *round,
                }),
        );
        LiveOutcome {
            suspicions: suspicions.into_iter().map(|(_, s)| s).collect(),
            events,
            stats: LiveStats::from_snapshot(&metrics),
            metrics,
            round_metrics: Vec::new(),
            trace: TraceJournal::from_buffers([trace]),
            segments: vec![seg],
        }
    }

    fn suspicion(routers: [RouterId; 3], round: u64) -> (u64, Suspicion) {
        let s = Suspicion {
            segment: PathSegment::new(routers.to_vec()),
            interval: Interval::new(
                SimTime::from_ns(round * 1_000_000_000),
                SimTime::from_ns((round + 1) * 1_000_000_000),
            ),
            raised_by: routers[0],
        };
        (round, s)
    }

    const FULL_RATE: &[(&str, u64)] = &[("net.data_delivered", 24_000)];

    #[test]
    fn a_clean_run_counts_evaluations_and_packets_and_fails_nothing() {
        let w = generate("paced-isp64", 1, 12).unwrap();
        let o = outcome(&[0, 0, 1, 1], vec![], FULL_RATE, TraceBuffer::new(0, 8));
        let v = judge(&w, &o, 24_000);
        assert_eq!((v.attempted, v.failed), (24_004, 0));
        assert!(v.correct() && v.failures.is_empty());
        assert_eq!(v.detect_latency_ms, None);
    }

    #[test]
    fn every_failure_kind_is_counted_once() {
        let w = generate("paced-isp64", 1, 12).unwrap();
        let counters = [
            ("net.data_delivered", 23_990),
            ("net.summary_timeouts", 2),
            ("net.encode_failures", 3),
            ("net.decode_failures", 4),
        ];
        let o = outcome(&[0], vec![], &counters, TraceBuffer::new(0, 8));
        let v = judge(&w, &o, 24_000);
        assert_eq!(v.failed, 2 + 3 + 4 + 10);
        assert_eq!(
            v.failures,
            vec![
                ("summary_timeouts", 2),
                ("encode_failures", 3),
                ("decode_failures", 4),
                ("packets_unaccounted", 10),
            ]
        );
        assert!(v.correct(), "failed operations alone are not fatal");
    }

    #[test]
    fn a_suspicion_on_a_clean_workload_is_fatal_and_a_failed_operation() {
        let w = generate("sat-line6", 1, 12).unwrap();
        let s = suspicion([0.into(), 1.into(), 2.into()], 1);
        let o = outcome(
            &[1],
            vec![s],
            &[("net.data_delivered", 50)],
            TraceBuffer::new(0, 8),
        );
        let v = judge(&w, &o, 50);
        assert_eq!(v.failures, vec![("false_suspicions", 1)]);
        assert!(!v.correct());
    }

    #[test]
    fn a_paced_workload_below_70_percent_of_nominal_is_fatal() {
        let w = generate("ctl-full-isp128", 1, 12).unwrap();
        let o = outcome(
            &[0],
            vec![],
            &[("net.data_delivered", 8_300)],
            TraceBuffer::new(0, 8),
        );
        let v = judge(&w, &o, 8_300);
        assert!(v.fatal[0].contains("nominal rate"), "{:?}", v.fatal);
        let o = outcome(
            &[0],
            vec![],
            &[("net.data_delivered", 8_500)],
            TraceBuffer::new(0, 8),
        );
        assert!(judge(&w, &o, 8_500).correct());
    }

    /// The attack workload plus the 3-segment around its dropper.
    fn attack() -> (Workload, [RouterId; 3]) {
        let w = generate("attack-isp64", 1, 12).unwrap();
        let f0 = w.spec.flows[0];
        let path = DynamicTopology::new(w.topo.clone())
            .path(f0.src, f0.dst)
            .unwrap();
        let r = path.routers();
        (w, [r[1], r[2], r[3]])
    }

    fn attack_trace(w: &Workload, seg: [RouterId; 3], appliers: usize) -> TraceBuffer {
        let mut t = TraceBuffer::new(0, 1024);
        let accuser = u32::from(seg[0]);
        // An earlier, unrelated accusation record must not be picked up.
        t.record(900_000_000, TraceKind::AccusationRaised, accuser, 0, 77);
        t.record(
            5_301_000_000,
            TraceKind::AccusationRaised,
            accuser,
            4,
            u64::from(u32::from(seg[2])),
        );
        for (i, r) in w.topo.routers().take(appliers).enumerate() {
            t.record(
                5_302_000_000 + i as u64 * 1_000_000,
                TraceKind::LinkStateApplied,
                u32::from(r),
                5,
                u64::from(accuser),
            );
        }
        t.record(5_400_000_000, TraceKind::TimerFired, 0, NO_ROUND, 0);
        t
    }

    const ATTACKED: &[(&str, u64)] = &[("net.data_delivered", 23_000), ("net.data_dropped", 900)];

    #[test]
    fn detection_and_reroute_latency_come_from_the_journal() {
        let (w, seg) = attack();
        let o = outcome(
            &[4, 8],
            vec![suspicion(seg, 4)],
            ATTACKED,
            attack_trace(&w, seg, 64),
        );
        let v = judge(&w, &o, 23_900);
        assert!(v.correct(), "{:?}", v.fatal);
        assert_eq!(v.failed, 0);
        assert_eq!(v.detect_latency_ms, Some(1_301.0));
        assert_eq!(v.reroute_latency_ms, Some(1_302.0 + 63.0));
    }

    #[test]
    fn attack_hard_failures() {
        let (w, seg) = attack();
        // One router never applied the exclusion.
        let o = outcome(
            &[4],
            vec![suspicion(seg, 4)],
            ATTACKED,
            attack_trace(&w, seg, 63),
        );
        let v = judge(&w, &o, 23_900);
        assert!(
            v.fatal.iter().any(|f| f.contains("never applied")),
            "{:?}",
            v.fatal
        );
        assert_eq!(v.reroute_latency_ms, None);

        // The dropper never dropped and nobody accused it.
        let o = outcome(
            &[4],
            vec![],
            &[("net.data_delivered", 23_900)],
            TraceBuffer::new(0, 8),
        );
        let v = judge(&w, &o, 23_900);
        assert!(v.fatal.iter().any(|f| f.contains("never dropped")));
        assert!(v.fatal.iter().any(|f| f.contains("no suspicion names")));

        // An overwritten trace ring voids the latencies.
        let mut small = TraceBuffer::new(0, 2);
        for i in 0..5 {
            small.record(i, TraceKind::PacketTap, 0, NO_ROUND, 0);
        }
        let o = outcome(&[4], vec![suspicion(seg, 4)], ATTACKED, small);
        assert!(judge(&w, &o, 23_900)
            .fatal
            .iter()
            .any(|f| f.contains("overwrote")));
    }

    #[test]
    fn an_unconvicted_dropper_fails_every_later_evaluation() {
        let (w, seg) = attack();
        // Convicted only in round 8 (> onset 4 + 2): rounds 7.. count.
        let late = suspicion(seg, 8);
        let o = outcome(
            &[4, 5, 6, 7, 8, 9],
            vec![late],
            ATTACKED,
            attack_trace(&w, seg, 64),
        );
        let v = judge(&w, &o, 23_900);
        assert_eq!(
            v.failures,
            vec![("evaluations_with_dropper_unconvicted", 3)]
        );
        // A suspicion that misses the dropper is a false one, even here.
        let other: Vec<RouterId> = w
            .topo
            .routers()
            .filter(|r| !seg.contains(r))
            .take(3)
            .collect();
        let wrong = suspicion([other[0], other[1], other[2]], 4);
        let o = outcome(
            &[4],
            vec![suspicion(seg, 4), wrong],
            ATTACKED,
            attack_trace(&w, seg, 64),
        );
        assert_eq!(
            judge(&w, &o, 23_900).failures,
            vec![("false_suspicions", 1)]
        );
    }
}
