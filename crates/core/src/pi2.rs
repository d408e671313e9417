//! Protocol Π2 (dissertation §5.1, Figure 5.1): a strong-complete,
//! accurate failure detector with precision 2.
//!
//! Under `AdjacentFault(k)`, every router r monitors each (k+2)-segment it
//! belongs to (plus shorter whole paths). Per round τ, each member collects
//! `info(r, π, τ)`, all members agree on everyone's reports via signed
//! consensus, and every correct router evaluates
//! `TV(π, info(i), info(i+1))` for each adjacent pair — a failed pair
//! yields the 2-segment suspicion `⟨r_i, r_{i+1}⟩`, which provably contains
//! a faulty router (Appendix B.2).

use crate::consensus::{dolev_strong, FaultyBehavior};
use crate::monitor::{MonitorMode, PathOracle, Report, SegmentMonitorSet};
use crate::policy::{distort, Policy, ReportFault, Thresholds};
use crate::rounds::Window;
use crate::spec::{Interval, Suspicion};
use fatih_crypto::KeyStore;
use fatih_sim::{SimTime, TapEvent};
use fatih_topology::{pi2_segments, PathSegment, RouterId, Routes};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of a Π2 deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pi2Config {
    /// The `AdjacentFault(k)` bound.
    pub k: usize,
    /// Conservation policy for `TV`.
    pub policy: Policy,
    /// Benign-anomaly allowances.
    pub thresholds: Thresholds,
    /// Maturity lag: packets younger than this at round end are deferred
    /// to the next round rather than judged while possibly in flight.
    /// Must exceed the worst segment transit time (links + queues).
    pub maturity_lag: SimTime,
}

impl Default for Pi2Config {
    fn default() -> Self {
        Self {
            k: 1,
            policy: Policy::Content,
            thresholds: Thresholds::default(),
            maturity_lag: SimTime::from_ms(200),
        }
    }
}

/// The Π2 detector: drives monitors for every router in the network and
/// produces the suspicions all correct routers agree on each round.
#[derive(Debug)]
pub struct Pi2Detector {
    cfg: Pi2Config,
    keystore: KeyStore,
    monitors: SegmentMonitorSet,
    report_faults: BTreeMap<RouterId, ReportFault>,
    /// When the previous round ended; `None` until one has.
    prev_end: Option<SimTime>,
    first_event: Option<SimTime>,
    lost_judged: u64,
}

impl Pi2Detector {
    /// Deploys Π2 over the routed network: monitored segments are computed
    /// with [`pi2_segments`] and fingerprint keys drawn from `keystore`
    /// (every router must be registered).
    pub fn new(routes: &Routes, keystore: KeyStore, cfg: Pi2Config) -> Self {
        let segments: Vec<PathSegment> = pi2_segments(routes, cfg.k)
            .all_segments()
            .into_iter()
            .collect();
        let oracle = PathOracle::from_routes(routes);
        let monitors =
            SegmentMonitorSet::new(segments, oracle, &keystore, MonitorMode::AllMembers, None);
        Self {
            cfg,
            keystore,
            monitors,
            report_faults: BTreeMap::new(),
            prev_end: None,
            first_event: None,
            lost_judged: 0,
        }
    }

    /// Marks a router protocol-faulty with the given report behaviour.
    pub fn set_report_fault(&mut self, router: RouterId, fault: ReportFault) {
        self.report_faults.insert(router, fault);
    }

    /// Number of monitored segments (the global `Σ|P_r|` dedup — Fig 5.2's
    /// underlying set).
    pub fn segment_count(&self) -> usize {
        self.monitors.segments().len()
    }

    /// Packets judged lost so far, over every adjacent pair of every
    /// segment: what the rounds' verdicts add up to, for experiments that
    /// set it against the simulator's ground truth.
    pub fn lost_judged(&self) -> u64 {
        self.lost_judged
    }

    /// Feeds one simulator observation.
    pub fn observe(&mut self, ev: &TapEvent) {
        if self.first_event.is_none() {
            self.first_event = Some(ev.time());
        }
        self.monitors.observe(ev);
    }

    /// Ends the measurement round at `now`, returning the suspicions every
    /// correct router raises (deduplicated by segment and raiser).
    ///
    /// The round judges the [`Window`] between the previous round's
    /// maturity cutoff and its own, `now − maturity_lag`, and the records
    /// then forget what no later round reads: each packet is validated
    /// exactly once.
    pub fn end_round(&mut self, now: SimTime) -> Vec<Suspicion> {
        let prev_end = self.prev_end.replace(now);
        let interval = Interval::new(prev_end.unwrap_or(SimTime::ZERO), now);
        let window = Window::closing(prev_end, now, self.cfg.maturity_lag);
        // Packets already in flight when monitoring began must not read as
        // fabrication (see `tv_pair`).
        let fabrication_floor = self
            .first_event
            .map(|t| t + self.cfg.maturity_lag)
            .unwrap_or(SimTime::ZERO);
        let mut out: BTreeSet<Suspicion> = BTreeSet::new();

        let segments: Vec<PathSegment> = self.monitors.segments().to_vec();
        for (i, seg) in segments.iter().enumerate() {
            let members = seg.routers();
            // Each member's claimed report (honest or distorted).
            let claimed: Vec<Option<Report>> = members
                .iter()
                .enumerate()
                .map(|(pos, &r)| {
                    let held = |r| self.monitors.report_after(r, i, window.held_from());
                    let own = held(r);
                    let received = if pos == 0 {
                        None
                    } else {
                        Some(held(members[pos - 1]))
                    };
                    distort(
                        self.report_faults.get(&r).copied(),
                        &own,
                        received.as_ref(),
                        seg.stable_id() ^ u64::from(u32::from(r)),
                    )
                })
                .collect();

            // Dissemination: all correct members agree on every member's
            // report ([info(i, π, τ)]_i, Figure 5.1).
            let decided = self.disseminate(members, &claimed);

            for (w, pair) in decided.windows(2).enumerate() {
                let verdict = window.judge(pair[0].as_ref(), pair[1].as_ref(), fabrication_floor);
                self.lost_judged += verdict.lost.len() as u64;
                if !verdict.passes(self.cfg.policy, &self.cfg.thresholds) {
                    let pair_seg = PathSegment::new(vec![members[w], members[w + 1]]);
                    // Strong completeness: every member that is not
                    // protocol-silent raises the suspicion (the reliable
                    // broadcast of Figure 5.1 carries the evidence to all).
                    for &raiser in members {
                        out.insert(Suspicion {
                            segment: pair_seg.clone(),
                            interval,
                            raised_by: raiser,
                        });
                    }
                }
            }
        }
        if let Some(horizon) = window.forget_horizon() {
            self.monitors.prune(horizon);
        }
        out.into_iter().collect()
    }

    /// Runs one authenticated broadcast per member report and returns the
    /// decided values (identical at every correct member by agreement).
    fn disseminate(&self, members: &[RouterId], claimed: &[Option<Report>]) -> Vec<Option<Report>> {
        let ids: Vec<u32> = members.iter().map(|&r| u32::from(r)).collect();
        let behaviors: BTreeMap<u32, FaultyBehavior> = members
            .iter()
            .filter(|r| matches!(self.report_faults.get(r), Some(ReportFault::Silent)))
            .map(|&r| (u32::from(r), FaultyBehavior::Silent))
            .collect();
        claimed
            .iter()
            .zip(&ids)
            .map(|(report, &sender)| {
                let Some(report) = report else {
                    // Silent sender: every correct member decides ⊥.
                    return None;
                };
                let decisions = dolev_strong(
                    &self.keystore,
                    &ids,
                    sender,
                    &report.encode(),
                    &behaviors,
                    self.cfg.k,
                );
                // All correct members agree; take any correct member's
                // decision (or the sender's own value if all others are
                // faulty).
                decisions
                    .values()
                    .next()
                    .cloned()
                    .flatten()
                    .and_then(|bytes| Report::decode(&bytes))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_sim::{Attack, AttackKind, Network, VictimFilter};
    use fatih_topology::builtin;

    fn line(n: usize) -> (Network, Vec<RouterId>, KeyStore) {
        let topo = builtin::line(n);
        let ids: Vec<RouterId> = (0..n)
            .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
            .collect();
        let mut ks = KeyStore::with_seed(3);
        for r in topo.routers() {
            ks.register(r.into());
        }
        (Network::new(topo, 1), ids, ks)
    }

    fn run_one_round(net: &mut Network, det: &mut Pi2Detector, secs: u64) -> Vec<Suspicion> {
        let end = net.now() + SimTime::from_secs(secs);
        net.run_until(end, |ev| det.observe(ev));
        det.end_round(end)
    }

    #[test]
    fn no_attack_no_suspicion() {
        let (mut net, ids, ks) = line(5);
        let mut det = Pi2Detector::new(net.routes(), ks, Pi2Config::default());
        net.add_cbr_flow(
            ids[0],
            ids[4],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.add_cbr_flow(
            ids[4],
            ids[0],
            500,
            SimTime::from_ms(3),
            SimTime::ZERO,
            None,
        );
        let sus = run_one_round(&mut net, &mut det, 5);
        assert!(sus.is_empty(), "false positives: {sus:?}");
    }

    #[test]
    fn dropping_router_caught_with_precision_2() {
        let (mut net, ids, ks) = line(5);
        let mut det = Pi2Detector::new(net.routes(), ks, Pi2Config::default());
        let flow = net.add_cbr_flow(
            ids[0],
            ids[4],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(ids[2], vec![Attack::drop_flows([flow], 0.3)]);
        let sus = run_one_round(&mut net, &mut det, 5);
        assert!(!sus.is_empty());
        let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
        let check = crate::spec::SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_accurate(2), "{:?}", check.false_positives);
        assert!(check.is_complete());
        assert_eq!(check.max_precision, 2);
    }

    #[test]
    fn modification_caught_by_content_policy() {
        let (mut net, ids, ks) = line(4);
        let mut det = Pi2Detector::new(net.routes(), ks, Pi2Config::default());
        let flow = net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(
            ids[1],
            vec![Attack {
                victims: VictimFilter::flows([flow]),
                kind: AttackKind::Modify { fraction: 0.5 },
            }],
        );
        let sus = run_one_round(&mut net, &mut det, 5);
        let faulty: BTreeSet<RouterId> = [ids[1]].into_iter().collect();
        let check = crate::spec::SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_accurate(2) && check.is_complete(), "{sus:?}");
    }

    #[test]
    fn reordering_needs_order_policy() {
        // A delaying router reorders the stream (held packets slip behind
        // later ones).
        let (mut net, ids, ks) = line(4);
        let cfg_order = Pi2Config {
            policy: Policy::Order,
            thresholds: Thresholds {
                loss: 1000,
                reorder: 0,
            },
            ..Pi2Config::default()
        };
        let mut det = Pi2Detector::new(net.routes(), ks, cfg_order);
        let flow = net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(
            ids[1],
            vec![Attack {
                victims: VictimFilter::flows([flow]),
                kind: AttackKind::Delay {
                    extra: SimTime::from_ms(7),
                    fraction: 0.3,
                },
            }],
        );
        let sus = run_one_round(&mut net, &mut det, 5);
        let faulty: BTreeSet<RouterId> = [ids[1]].into_iter().collect();
        let check = crate::spec::SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_complete(), "reordering undetected");
        assert!(check.is_accurate(2));
    }

    #[test]
    fn hide_drops_lie_shifts_suspicion_onto_liar_pair() {
        // n2 drops traffic and lies that it forwarded everything. The lie
        // makes TV(n2, n3) fail instead of TV(n1, n2) — either way the
        // suspected 2-segment contains n2 (accuracy preserved).
        let (mut net, ids, ks) = line(5);
        let mut det = Pi2Detector::new(net.routes(), ks, Pi2Config::default());
        let flow = net.add_cbr_flow(
            ids[0],
            ids[4],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(ids[2], vec![Attack::drop_flows([flow], 0.4)]);
        det.set_report_fault(ids[2], ReportFault::HideDrops);
        let sus = run_one_round(&mut net, &mut det, 5);
        let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
        let check = crate::spec::SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_accurate(2), "{:?}", check.false_positives);
        assert!(check.is_complete());
        // And the suspicion that fired is the downstream pair.
        assert!(sus.iter().any(|s| s.segment.routers() == [ids[2], ids[3]]));
    }

    #[test]
    fn silent_router_suspected_via_bottom_reports() {
        let (mut net, ids, ks) = line(4);
        let mut det = Pi2Detector::new(net.routes(), ks, Pi2Config::default());
        net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        det.set_report_fault(ids[1], ReportFault::Silent);
        let sus = run_one_round(&mut net, &mut det, 5);
        let faulty: BTreeSet<RouterId> = [ids[1]].into_iter().collect();
        let check = crate::spec::SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_complete(), "silent router escaped");
        assert!(check.is_accurate(2));
    }

    #[test]
    fn counter_inflation_caught_as_fabrication() {
        let (mut net, ids, ks) = line(4);
        let mut det = Pi2Detector::new(net.routes(), ks, Pi2Config::default());
        net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        det.set_report_fault(ids[2], ReportFault::Inflate(5));
        let sus = run_one_round(&mut net, &mut det, 5);
        let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
        let check = crate::spec::SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_complete());
        assert!(check.is_accurate(2));
    }
}
