//! Protocol Πk+2 (dissertation §5.2, Figure 5.3): a strong-complete,
//! accurate failure detector with precision k+2 and far lower overhead
//! than Π2.
//!
//! Only the two *end* routers of each monitored x-segment (3 ≤ x ≤ k+2)
//! collect and exchange traffic information, authenticated with their
//! pairwise key, over the segment itself. A failed or missing exchange, or
//! a failed `TV`, makes both ends suspect the whole segment π. Because
//! every run of ≤ k faulty routers is bracketed by correct ends at *some*
//! monitored length, completeness holds; because the suspicion names the
//! whole segment, precision degrades to k+2 (Appendix B.3). Unlike Π2,
//! the ends may secretly subsample (§5.2.1).

use crate::monitor::{MonitorMode, PathOracle, Report, SegmentMonitorSet};
use crate::policy::{distort, Policy, ReportFault, Thresholds};
use crate::rounds::Window;
use crate::spec::{Interval, Suspicion};
use crate::transport::{ReliableTransport, TransportEvent, TransportMsg};
use fatih_crypto::KeyStore;
use fatih_sim::{Network, SimTime, TapEvent};
use fatih_topology::{PathSegment, RouterId, Routes};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of a Πk+2 deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pik2Config {
    /// The `AdjacentFault(k)` bound.
    pub k: usize,
    /// Conservation policy for `TV`.
    pub policy: Policy,
    /// Benign-anomaly allowances.
    pub thresholds: Thresholds,
    /// Secret subsampling rate for the segment ends (§5.2.1); `None`
    /// records everything.
    pub sampling_rate: Option<f64>,
    /// Maturity lag: packets younger than this at round end are deferred
    /// to the next round rather than judged while possibly in flight.
    pub maturity_lag: SimTime,
}

impl Default for Pik2Config {
    fn default() -> Self {
        Self {
            k: 1,
            policy: Policy::Content,
            thresholds: Thresholds::default(),
            sampling_rate: None,
            maturity_lag: SimTime::from_ms(200),
        }
    }
}

/// The Πk+2 detector.
#[derive(Debug)]
pub struct Pik2Detector {
    cfg: Pik2Config,
    keystore: KeyStore,
    monitors: SegmentMonitorSet,
    report_faults: BTreeMap<RouterId, ReportFault>,
    /// Where this deployment's first round opens.
    deployed_at: SimTime,
    /// When the previous round ended; `None` until one has.
    prev_end: Option<SimTime>,
    first_event: Option<SimTime>,
    lost_judged: u64,
}

impl Pik2Detector {
    /// Deploys Πk+2 over the routed network, the first round opening at
    /// time 0.
    pub fn new(routes: &Routes, keystore: KeyStore, cfg: Pik2Config) -> Self {
        let paths: Vec<fatih_topology::Path> = routes.all_paths().collect();
        Self::with_paths(&paths, routes.router_count(), keystore, cfg, SimTime::ZERO)
    }

    /// Deploys Πk+2 over an explicit path set — used to re-deploy
    /// monitoring after the response changed the routing fabric, in the
    /// middle of the round that opened at `round_start`.
    pub fn with_paths(
        paths: &[fatih_topology::Path],
        router_count: usize,
        keystore: KeyStore,
        cfg: Pik2Config,
        round_start: SimTime,
    ) -> Self {
        let segments: Vec<PathSegment> =
            fatih_topology::pik2_segments_from_paths(paths.iter().cloned(), router_count, cfg.k)
                .all_segments()
                .into_iter()
                .collect();
        let oracle = PathOracle::from_paths(paths.iter().cloned());
        let monitors = SegmentMonitorSet::new(
            segments,
            oracle,
            &keystore,
            MonitorMode::EndsOnly,
            cfg.sampling_rate,
        );
        Self {
            cfg,
            keystore,
            monitors,
            report_faults: BTreeMap::new(),
            deployed_at: round_start,
            prev_end: None,
            first_event: None,
            lost_judged: 0,
        }
    }

    /// Marks a router protocol-faulty.
    pub fn set_report_fault(&mut self, router: RouterId, fault: ReportFault) {
        self.report_faults.insert(router, fault);
    }

    /// Number of monitored segments.
    pub fn segment_count(&self) -> usize {
        self.monitors.segments().len()
    }

    /// Packets judged lost so far, over every segment: what the rounds'
    /// verdicts add up to, for experiments that set it against the
    /// simulator's ground truth.
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

    /// Ends the round at `now` and runs every segment's end-to-end MAC'd
    /// exchange in memory — a control plane that loses and delays nothing
    /// — returning the raised suspicions. The round rule is
    /// [`begin_round`](Self::begin_round)'s and
    /// [`finish_round`](Self::finish_round)'s.
    pub fn end_round(&mut self, now: SimTime) -> Vec<Suspicion> {
        let mut sent: Vec<TransportMsg> = Vec::new();
        // Nothing outlives the call, so no earlier exchange's summary can
        // turn up in this one and any round id will do.
        let mut exch = self.summarise(now, 0, |from, to, payload| {
            let msg = sent.len() as u64;
            sent.push(TransportMsg {
                msg,
                from,
                to,
                payload,
                at: now,
            });
            msg
        });
        for msg in &sent {
            self.exchange_message(&mut exch, msg);
        }
        self.finish_round(exch)
    }

    // ------------------------------------------------------------------
    // Transport-backed rounds
    // ------------------------------------------------------------------

    /// Ends the measurement round at `now` and launches the summary
    /// exchange **over the network**: each segment end MACs its report
    /// and sends it to the peer end via `transport`, so the exchange
    /// rides real control packets through loss, delay, duplication and
    /// corruption. Drive the simulation onward, feeding transport inbox
    /// messages to [`exchange_message`](Self::exchange_message) and
    /// events to [`exchange_event`](Self::exchange_event), then call
    /// [`finish_round`](Self::finish_round).
    ///
    /// The round judges the [`Window`] between the previous round's
    /// maturity cutoff and its own, `now − maturity_lag`; a round that is
    /// begun and abandoned stays unjudged. `round_id` must be unique per
    /// exchange (stale messages from an earlier, abandoned exchange are
    /// ignored by the id check).
    pub fn begin_round(
        &mut self,
        now: SimTime,
        round_id: u64,
        net: &mut Network,
        transport: &mut ReliableTransport,
    ) -> RoundExchange {
        self.summarise(now, round_id, |from, to, payload| {
            transport.send(net, from, to, payload)
        })
    }

    /// Closes the measurement round at `now`: every segment end MACs what
    /// its record holds for the round and hands it to `send` (sender,
    /// receiver, payload), which returns the transport's message id.
    fn summarise(
        &mut self,
        now: SimTime,
        round_id: u64,
        mut send: impl FnMut(RouterId, RouterId, Vec<u8>) -> u64,
    ) -> RoundExchange {
        let prev_end = self.prev_end.replace(now);
        // Packets already in flight when monitoring began must not read as
        // fabrication (see `tv_pair`).
        let fabrication_floor = self
            .first_event
            .map(|t| t + self.cfg.maturity_lag)
            .unwrap_or(SimTime::ZERO);
        let mut exch = RoundExchange {
            round_id,
            interval: Interval::new(prev_end.unwrap_or(self.deployed_at), now),
            window: Window::closing(prev_end, now, self.cfg.maturity_lag),
            fabrication_floor,
            pending: BTreeMap::new(),
            received: BTreeMap::new(),
            failed: BTreeSet::new(),
        };
        let segments: Vec<PathSegment> = self.monitors.segments().to_vec();
        for (i, seg) in segments.iter().enumerate() {
            let (a, b) = seg.ends();
            for (sender, receiver, from_a, salt) in [(a, b, true, 1), (b, a, false, 2)] {
                let held_from = exch.window.held_from();
                let report = self.monitors.report_after(sender, i, held_from);
                // Ends have no upstream record within the segment to copy,
                // so HideDrops degenerates to an honest report here; Silent
                // and Inflate apply as-is.
                let claimed = distort(
                    self.report_faults.get(&sender).copied(),
                    &report,
                    None,
                    salt,
                );
                let Some(claimed) = claimed else {
                    // A silent end sends nothing; the peer's round timer
                    // expires and the exchange counts as failed.
                    exch.failed.insert((i, from_a));
                    continue;
                };
                let payload = self.encode_summary(&exch, i, from_a, a, b, &claimed);
                let msg = send(sender, receiver, payload);
                exch.pending.insert(msg, (i, from_a));
            }
        }
        exch
    }

    /// Wire form of one summary: tag, round id, segment index, direction,
    /// pairwise MAC, report bytes. The MAC covers the context (round,
    /// segment, direction) and the report, so a summary cannot be replayed
    /// into another round or segment.
    fn encode_summary(
        &self,
        exch: &RoundExchange,
        seg: usize,
        from_a: bool,
        a: RouterId,
        b: RouterId,
        report: &Report,
    ) -> Vec<u8> {
        let body = report.encode();
        let mut ctx = Vec::with_capacity(13 + body.len());
        ctx.extend_from_slice(&exch.round_id.to_le_bytes());
        ctx.extend_from_slice(&(seg as u32).to_le_bytes());
        ctx.push(from_a as u8);
        ctx.extend_from_slice(&body);
        let mac = self.keystore.pairwise_mac(a.into(), b.into(), &ctx);
        let mut out = Vec::with_capacity(1 + ctx.len() + 32);
        out.push(SUMMARY_TAG);
        out.extend_from_slice(&exch.round_id.to_le_bytes());
        out.extend_from_slice(&(seg as u32).to_le_bytes());
        out.push(from_a as u8);
        out.extend_from_slice(&mac.0 .0);
        out.extend_from_slice(&body);
        out
    }

    /// Offers a delivered transport message to the exchange. Returns
    /// `true` if it was one of this exchange's summaries (consumed),
    /// `false` if it belongs to someone else (another round, an alert…).
    pub fn exchange_message(&self, exch: &mut RoundExchange, msg: &TransportMsg) -> bool {
        let p = &msg.payload;
        if p.len() < 46 || p[0] != SUMMARY_TAG {
            return false;
        }
        let round_id = u64::from_le_bytes(p[1..9].try_into().unwrap());
        if round_id != exch.round_id {
            // A stale summary from an abandoned exchange: consumed (it is
            // a summary) but carries no information for this round.
            return true;
        }
        let seg = u32::from_le_bytes(p[9..13].try_into().unwrap()) as usize;
        let from_a = p[13] != 0;
        let mut mac_bytes = [0u8; 32];
        mac_bytes.copy_from_slice(&p[14..46]);
        let body = &p[46..];
        exch.pending.remove(&msg.msg);
        let segments = self.monitors.segments();
        let Some(segment) = segments.get(seg) else {
            exch.failed.insert((seg, from_a));
            return true;
        };
        let (a, b) = segment.ends();
        let mut ctx = Vec::with_capacity(13 + body.len());
        ctx.extend_from_slice(&round_id.to_le_bytes());
        ctx.extend_from_slice(&(seg as u32).to_le_bytes());
        ctx.push(from_a as u8);
        ctx.extend_from_slice(body);
        let mac = fatih_crypto::Signature(fatih_crypto::Digest(mac_bytes));
        let authentic = self
            .keystore
            .pairwise_verify(a.into(), b.into(), &ctx, &mac);
        match (authentic, Report::decode(body)) {
            (true, Some(report)) => {
                exch.received.insert((seg, from_a), report);
            }
            _ => {
                // Unauthenticated or garbled: a failed exchange, exactly
                // as if the summary never arrived (Figure 5.3).
                exch.failed.insert((seg, from_a));
            }
        }
        true
    }

    /// Offers a sender-side transport event to the exchange: an
    /// [`TransportEvent::Exhausted`] for one of its summaries marks that
    /// direction failed. Returns `true` if the event was consumed.
    pub fn exchange_event(&self, exch: &mut RoundExchange, ev: &TransportEvent) -> bool {
        if let TransportEvent::Exhausted { msg, .. } = ev {
            if let Some(dir) = exch.pending.remove(msg) {
                exch.failed.insert(dir);
                return true;
            }
        }
        false
    }

    /// Closes the exchange and returns the round's suspicions.
    ///
    /// For each segment, a direction whose summary never arrived intact —
    /// transport retries exhausted, authentication failed, the peer sent
    /// nothing, or the message was still in flight when the round budget
    /// expired — is a *failed exchange*: the would-be receiver suspects
    /// the whole segment (the timeout-as-accusation rule; a router that
    /// withholds its summary is treated exactly like one caught lying,
    /// §5.2's refusal-to-cooperate semantics). Segments with both
    /// summaries in hand are validated with `TV` as usual.
    pub fn finish_round(&mut self, exch: RoundExchange) -> Vec<Suspicion> {
        let mut out: BTreeSet<Suspicion> = BTreeSet::new();
        let segments: Vec<PathSegment> = self.monitors.segments().to_vec();
        for (i, seg) in segments.iter().enumerate() {
            let (a, b) = seg.ends();
            let mut suspect = |raiser: RouterId| {
                out.insert(Suspicion {
                    segment: seg.clone(),
                    interval: exch.interval,
                    raised_by: raiser,
                });
            };
            let from_a = exch.received.get(&(i, true));
            let from_b = exch.received.get(&(i, false));
            match (from_a, from_b) {
                (Some(ra), Some(rb)) => {
                    let floor = exch.fabrication_floor;
                    let verdict = exch.window.judge(Some(ra), Some(rb), floor);
                    self.lost_judged += verdict.lost.len() as u64;
                    if !verdict.passes(self.cfg.policy, &self.cfg.thresholds) {
                        // Both ends detect and announce (the broadcast of
                        // Figure 5.3 upgrades this to strong completeness).
                        suspect(a);
                        suspect(b);
                    }
                }
                (None, _) => suspect(b), // a's summary never reached b
                (_, None) => suspect(a), // b's summary never reached a
            }
        }
        if let Some(horizon) = exch.window.forget_horizon() {
            self.monitors.prune(horizon);
        }
        out.into_iter().collect()
    }
}

/// First byte of a Πk+2 summary message on the wire.
const SUMMARY_TAG: u8 = 0xE1;

/// A transport-backed summary exchange in progress (between
/// [`Pik2Detector::begin_round`] and [`Pik2Detector::finish_round`]).
#[derive(Debug)]
pub struct RoundExchange {
    round_id: u64,
    interval: Interval,
    window: Window,
    fabrication_floor: SimTime,
    /// Transport msg id → (segment, direction) for summaries in flight.
    pending: BTreeMap<u64, (usize, bool)>,
    /// Summaries that arrived intact and authentic.
    received: BTreeMap<(usize, bool), Report>,
    /// Directions known failed (exhausted, unauthentic, or never sent).
    failed: BTreeSet<(usize, bool)>,
}

impl RoundExchange {
    /// This exchange's round id.
    pub fn round_id(&self) -> u64 {
        self.round_id
    }

    /// Whether every summary has either arrived or conclusively failed —
    /// i.e. [`Pik2Detector::finish_round`] would not learn more by
    /// waiting (callers normally finish at the earlier of this and the
    /// round budget).
    pub fn is_settled(&self) -> bool {
        self.pending.is_empty()
    }

    /// Exchange directions known failed so far (retries exhausted, MAC
    /// rejected, or a silent peer that sent nothing).
    pub fn failed_count(&self) -> usize {
        self.failed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecCheck;
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

    fn run_one_round(net: &mut Network, det: &mut Pik2Detector, secs: u64) -> Vec<Suspicion> {
        let end = net.now() + SimTime::from_secs(secs);
        net.run_until(end, |ev| det.observe(ev));
        det.end_round(end)
    }

    #[test]
    fn no_attack_no_suspicion() {
        let (mut net, ids, ks) = line(6);
        let mut det = Pik2Detector::new(net.routes(), ks, Pik2Config::default());
        net.add_cbr_flow(
            ids[0],
            ids[5],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.add_cbr_flow(
            ids[5],
            ids[0],
            800,
            SimTime::from_ms(3),
            SimTime::ZERO,
            None,
        );
        let sus = run_one_round(&mut net, &mut det, 5);
        assert!(sus.is_empty(), "false positives: {sus:?}");
    }

    #[test]
    fn dropper_caught_with_precision_k_plus_2() {
        let k = 1;
        let (mut net, ids, ks) = line(6);
        let mut det = Pik2Detector::new(
            net.routes(),
            ks,
            Pik2Config {
                k,
                ..Pik2Config::default()
            },
        );
        let flow = net.add_cbr_flow(
            ids[0],
            ids[5],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(ids[3], vec![Attack::drop_flows([flow], 0.3)]);
        let sus = run_one_round(&mut net, &mut det, 5);
        let faulty: BTreeSet<RouterId> = [ids[3]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_complete());
        assert!(check.is_accurate(k + 2), "{:?}", check.false_positives);
        assert!(check.max_precision <= k + 2);
    }

    #[test]
    fn adjacent_faulty_pair_needs_k_2() {
        // Two adjacent droppers: k = 1 monitoring still brackets each of
        // them in *some* 3-segment with correct ends on a long line, and
        // k = 2 gives the guarantee directly. Verify k = 2 end to end.
        let k = 2;
        let (mut net, ids, ks) = line(7);
        let mut det = Pik2Detector::new(
            net.routes(),
            ks,
            Pik2Config {
                k,
                ..Pik2Config::default()
            },
        );
        let flow = net.add_cbr_flow(
            ids[0],
            ids[6],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(ids[2], vec![Attack::drop_flows([flow], 0.2)]);
        net.set_attacks(ids[3], vec![Attack::drop_flows([flow], 0.2)]);
        let sus = run_one_round(&mut net, &mut det, 5);
        let faulty: BTreeSet<RouterId> = [ids[2], ids[3]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_complete(), "missed: {:?}", check.missed_faulty);
        assert!(check.is_accurate(k + 2), "{:?}", check.false_positives);
    }

    #[test]
    fn modification_detected_end_to_end() {
        let (mut net, ids, ks) = line(5);
        let mut det = Pik2Detector::new(net.routes(), ks, Pik2Config::default());
        let flow = net.add_cbr_flow(
            ids[0],
            ids[4],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(
            ids[2],
            vec![Attack {
                victims: VictimFilter::flows([flow]),
                kind: AttackKind::Modify { fraction: 0.4 },
            }],
        );
        let sus = run_one_round(&mut net, &mut det, 5);
        let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_complete() && check.is_accurate(3));
    }

    #[test]
    fn silent_end_suspected() {
        let (mut net, ids, ks) = line(4);
        let mut det = Pik2Detector::new(net.routes(), ks, Pik2Config::default());
        net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        det.set_report_fault(ids[3], ReportFault::Silent);
        let sus = run_one_round(&mut net, &mut det, 5);
        let faulty: BTreeSet<RouterId> = [ids[3]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_complete(), "silent end escaped: {sus:?}");
        assert!(check.is_accurate(3));
    }

    #[test]
    fn sampling_still_detects_sustained_attack() {
        let (mut net, ids, ks) = line(5);
        let mut det = Pik2Detector::new(
            net.routes(),
            ks,
            Pik2Config {
                sampling_rate: Some(0.3),
                ..Pik2Config::default()
            },
        );
        let flow = net.add_cbr_flow(
            ids[0],
            ids[4],
            1000,
            SimTime::from_ms(1),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(ids[2], vec![Attack::drop_flows([flow], 0.5)]);
        let sus = run_one_round(&mut net, &mut det, 10);
        let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_complete(), "sampled detector missed the attack");
        assert!(check.is_accurate(3));
    }

    /// Drives an in-flight exchange: advance the simulation in 10 ms
    /// slices, pump the transport, and feed deliveries/events to the
    /// exchange until it settles or the budget expires.
    fn drive_exchange(
        net: &mut Network,
        det: &mut Pik2Detector,
        transport: &mut ReliableTransport,
        exch: &mut RoundExchange,
        budget: SimTime,
    ) {
        let deadline = net.now() + budget;
        while net.now() < deadline && !exch.is_settled() {
            let mut t = net.now() + SimTime::from_ms(10);
            if t > deadline {
                t = deadline;
            }
            net.run_until(t, |ev| det.observe(ev));
            transport.pump(net);
            for msg in transport.take_inbox() {
                det.exchange_message(exch, &msg);
            }
            for ev in transport.take_events() {
                det.exchange_event(exch, &ev);
            }
        }
    }

    #[test]
    fn transport_backed_round_catches_dropper() {
        let (mut net, ids, ks) = line(6);
        let mut det = Pik2Detector::new(net.routes(), ks, Pik2Config::default());
        let mut transport = ReliableTransport::new(crate::transport::TransportConfig::default());
        let flow = net.add_cbr_flow(
            ids[0],
            ids[5],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(ids[3], vec![Attack::drop_flows([flow], 0.3)]);
        let end = SimTime::from_secs(5);
        net.run_until(end, |ev| det.observe(ev));
        let mut exch = det.begin_round(end, 1, &mut net, &mut transport);
        drive_exchange(
            &mut net,
            &mut det,
            &mut transport,
            &mut exch,
            SimTime::from_secs(2),
        );
        assert!(exch.is_settled(), "clean network should settle quickly");
        let sus = det.finish_round(exch);
        let faulty: BTreeSet<RouterId> = [ids[3]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_complete(), "missed: {:?}", check.missed_faulty);
        assert!(check.is_accurate(3), "{:?}", check.false_positives);
    }

    #[test]
    fn transport_backed_round_rides_control_plane_loss() {
        // 20% control-plane loss on every link: retransmission recovers
        // each summary, so the attacker is still caught and no correct
        // router is accused.
        let (mut net, ids, ks) = line(6);
        let mut det = Pik2Detector::new(net.routes(), ks, Pik2Config::default());
        let mut transport = ReliableTransport::new(crate::transport::TransportConfig {
            max_attempts: 10,
            ..Default::default()
        });
        net.set_fault_plan(Some(fatih_sim::FaultPlan::new(7).with_default_link_faults(
            fatih_sim::LinkFaults {
                loss: 0.2,
                ..fatih_sim::LinkFaults::NONE
            },
        )));
        let flow = net.add_cbr_flow(
            ids[0],
            ids[5],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(ids[3], vec![Attack::drop_flows([flow], 0.3)]);
        let end = SimTime::from_secs(5);
        net.run_until(end, |ev| det.observe(ev));
        let mut exch = det.begin_round(end, 1, &mut net, &mut transport);
        drive_exchange(
            &mut net,
            &mut det,
            &mut transport,
            &mut exch,
            SimTime::from_secs(4),
        );
        let sus = det.finish_round(exch);
        let faulty: BTreeSet<RouterId> = [ids[3]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(
            check.is_complete(),
            "missed under loss: {:?}",
            check.missed_faulty
        );
        assert!(
            check.is_accurate(3),
            "control loss caused false accusation: {:?}",
            check.false_positives
        );
    }

    #[test]
    fn silent_end_times_out_into_accusation() {
        // A segment end that never sends its summary: the peer's exchange
        // fails and the segment is suspected — timeout-as-accusation.
        let (mut net, ids, ks) = line(4);
        let mut det = Pik2Detector::new(net.routes(), ks, Pik2Config::default());
        let mut transport = ReliableTransport::new(crate::transport::TransportConfig::default());
        net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        det.set_report_fault(ids[3], ReportFault::Silent);
        let end = SimTime::from_secs(5);
        net.run_until(end, |ev| det.observe(ev));
        let mut exch = det.begin_round(end, 1, &mut net, &mut transport);
        assert!(
            exch.failed_count() > 0,
            "silent end should fail at send time"
        );
        drive_exchange(
            &mut net,
            &mut det,
            &mut transport,
            &mut exch,
            SimTime::from_secs(2),
        );
        let sus = det.finish_round(exch);
        let faulty: BTreeSet<RouterId> = [ids[3]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_complete(), "silent end escaped: {sus:?}");
        assert!(check.is_accurate(3));
    }

    #[test]
    fn stale_summary_is_consumed_but_ignored() {
        let (mut net, ids, ks) = line(4);
        let mut det = Pik2Detector::new(net.routes(), ks, Pik2Config::default());
        let mut transport = ReliableTransport::new(crate::transport::TransportConfig::default());
        net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        let end = SimTime::from_secs(2);
        net.run_until(end, |ev| det.observe(ev));
        let old = det.begin_round(end, 1, &mut net, &mut transport);
        // Round 1 is abandoned (e.g. a route update landed); its summaries
        // are still in flight when round 2 begins.
        let mut exch = det.begin_round(end, 2, &mut net, &mut transport);
        drive_exchange(
            &mut net,
            &mut det,
            &mut transport,
            &mut exch,
            SimTime::from_secs(2),
        );
        let sus = det.finish_round(exch);
        assert!(
            sus.is_empty(),
            "stale round-1 summaries leaked into round 2: {sus:?}"
        );
        drop(old);
    }

    #[test]
    fn state_is_cheaper_than_pi2() {
        let topo = builtin::random_connected(12, 8, 1);
        let routes = topo.link_state_routes();
        let mut ks = KeyStore::with_seed(1);
        for r in topo.routers() {
            ks.register(r.into());
        }
        let pi2 = crate::pi2::Pi2Detector::new(&routes, ks.clone(), Default::default());
        let pik2 = Pik2Detector::new(&routes, ks, Pik2Config::default());
        // Global segment sets are identical for k=1 (3-segments), but the
        // per-router recording duty differs; compare total recording slots.
        // Πk+2 registers 2 recorders/segment vs 3 for Π2's 3-segments.
        assert!(pik2.segment_count() > 0);
        assert!(pi2.segment_count() > 0);
    }
}
