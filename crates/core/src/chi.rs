//! Protocol χ (dissertation Chapter 6): detecting *malicious packet
//! losses* by predicting congestion instead of thresholding it.
//!
//! The validator for an output queue Q on link `r → r_d` (Figure 6.1)
//! receives, from each neighbour `r_s`, the timestamped fingerprints of
//! packets sent into Q (`Tinfo(r_s, Q_in)` — entry time `t + d + ps/bw`),
//! and from `r_d` the fingerprints leaving Q. It then *replays* Q:
//! a deterministic simulation gives the predicted queue size `q_pred(t)`,
//! and each missing packet is judged:
//!
//! * if `q_pred + ps > q_limit` the loss is congestion-consistent;
//! * otherwise the single-loss confidence is
//!   `c_single = P(X ≤ q_limit − q_pred − ps)` for the learned error model
//!   `X = q_act − q_pred ~ N(µ, σ)` (Figure 6.2);
//! * all of a round's losses are additionally tested together with the
//!   Z-score `z1 = (q_limit − mean(q_pred) − mean(ps) − µ)/(σ/√n)`
//!   (§6.2.1, combined packet losses test).
//!
//! For RED queues (§6.5) the validator replays RED's EWMA and per-packet
//! drop probabilities from the same information (Figure 6.10) and judges
//! the loss pattern statistically: a drop with probability 0 is malicious
//! outright, and the round's drop count is compared to its expectation
//! with a Z-test.
//!
//! The replay steps the simulator's own queue core,
//! [`fatih_sim::queue::OutputQueueState`], with the same
//! [`QueueDiscipline`] value the network runs: its occupancy is `q_pred`,
//! and the drop rule, EWMA and idle decay are the engine's. The engine
//! draws RED's early drops; the replay instead *observes* each one as a
//! missing exit and reports it to the core, which restarts RED's `count`.
//!
//! Rounds are *windowed*: a packet is only judged once enough time has
//! passed for its exit to have been observed (one maximum queue residence
//! plus slack), and the replay state — occupancy, RED average — carries
//! across rounds, so round boundaries cause no false judgements. What the
//! neighbours observe, and that window, is a [`QueueTap`], which the two
//! Chapter 6 baselines (`fatih_baselines::threshold`,
//! `fatih_baselines::zhang`) share.

use fatih_crypto::{Fingerprint, KeyStore, UhashKey};
use fatih_sim::queue::{Offer, OutputQueueState};
use fatih_sim::{Packet, QueueDiscipline, SimTime, TapEvent};
use fatih_stats::normal;
use fatih_topology::{LinkParams, RouterId, Topology};
use std::collections::{HashMap, HashSet, VecDeque};

/// Statistical thresholds and the learned error model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiConfig {
    /// Learned mean of `q_act − q_pred` (µ). The simulator's replay is
    /// exact, so 0 is correct here; a real deployment learns it (§6.2.1).
    pub mu: f64,
    /// Learned standard deviation (σ); a floor keeps the tests meaningful
    /// when the replay is near-exact.
    pub sigma: f64,
    /// Confidence needed to flag a single loss as malicious
    /// (`th_single`).
    pub single_threshold: f64,
    /// Confidence needed for the combined-losses test (`th_combined`).
    pub combined_threshold: f64,
    /// Outcome-mismatch tolerance for the exact-replay test: the validator
    /// also replays what an *honest* drop-tail queue would have done with
    /// the same arrivals ("dynamically infers the precise number of
    /// congestive packet losses", Chapter 6 abstract); at least this many
    /// per-packet outcome disagreements flag the router.
    pub mismatch_floor: usize,
}

impl Default for ChiConfig {
    fn default() -> Self {
        Self {
            mu: 0.0,
            sigma: 1_500.0, // ≈ one MTU of slack
            single_threshold: 0.95,
            combined_threshold: 0.95,
            mismatch_floor: 3,
        }
    }
}

/// The judgement for one missing packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropJudgement {
    /// The packet's fingerprint.
    pub fingerprint: Fingerprint,
    /// Its size in bytes.
    pub size: u32,
    /// When it entered (or would have entered) Q.
    pub entry_time: SimTime,
    /// Predicted queue occupancy at that instant.
    pub q_pred: f64,
    /// Confidence that the drop was malicious (`c_single`, or `1 − p_i`
    /// under the replayed RED model).
    pub confidence: f64,
}

/// Result of one validation round for one queue.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChiVerdict {
    /// Packets that entered and left Q within the judged window.
    pub forwarded: usize,
    /// Judgements for the missing packets.
    pub drops: Vec<DropJudgement>,
    /// Packets leaving Q that never entered it (fabricated at r).
    pub fabricated: usize,
    /// Confidence of the combined-losses test, when it ran.
    pub combined_confidence: Option<f64>,
    /// Whether the round flags router r as maliciously dropping.
    pub detected: bool,
    /// Losses individually consistent with congestion.
    pub congestion_consistent: usize,
    /// Per-packet disagreements between the honest-queue replay's
    /// predicted outcome and the observed outcome (drop-tail mode).
    pub outcome_mismatches: usize,
}

impl ChiVerdict {
    /// Total missing packets this round.
    pub fn total_drops(&self) -> usize {
        self.drops.len()
    }

    /// Highest single-loss confidence this round (0 when lossless).
    pub fn max_single_confidence(&self) -> f64 {
        self.drops.iter().map(|d| d.confidence).fold(0.0, f64::max)
    }
}

/// One packet crossing the tapped queue's boundary, as its neighbours saw
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapRecord {
    /// The packet's fingerprint under the segment key.
    pub fingerprint: Fingerprint,
    /// Its size in bytes.
    pub size: u32,
    /// When it entered the queue (sent by a neighbour, plus that link's
    /// delay) or left it (arrived at the egress, minus the egress delay).
    pub time: SimTime,
}

/// The records of one round, split at its cutoff.
#[derive(Debug, Clone, PartialEq)]
pub struct TapRound {
    /// The round's judging horizon: its end minus one maximum residence.
    pub cutoff: SimTime,
    /// Entries at or before the cutoff.
    pub entries: Vec<TapRecord>,
    /// Exits at or before the cutoff.
    pub exits: Vec<TapRecord>,
}

/// What the neighbours of router `r` observe of its output queue toward
/// `r_d`: the packets they send into it, each timed at its entry, and the
/// packets `r_d` receives out of it, each timed at its exit. Protocol χ
/// and the two Chapter 6 baselines consume the same tap and differ only
/// in how they judge it.
#[derive(Debug)]
pub struct QueueTap {
    router: RouterId,
    egress: RouterId,
    link: LinkParams,
    key: UhashKey,
    in_delay_ns: HashMap<RouterId, u64>,
    max_residence: SimTime,
    entries: Vec<TapRecord>,
    exits: Vec<TapRecord>,
}

impl QueueTap {
    /// Taps the queue `router → egress`.
    ///
    /// # Panics
    ///
    /// Panics if the topology lacks the `router → egress` link.
    pub fn new(topo: &Topology, keystore: &KeyStore, router: RouterId, egress: RouterId) -> Self {
        let link = topo
            .link(router, egress)
            .unwrap_or_else(|| panic!("no link {router} -> {egress}"));
        let in_delay_ns = (topo.neighbors(router).iter())
            .filter_map(|&(n, _)| Some((n, topo.link(n, router)?.delay_ns)))
            .collect();
        // Worst-case queue residence.
        let drain = SimTime::from_ns(2 * link.tx_time_ns(link.queue_limit_bytes) + link.delay_ns);
        let seg_id = (u64::from(u32::from(router)) << 32) | u64::from(u32::from(egress));
        Self {
            router,
            egress,
            link,
            key: keystore.segment_uhash_key(seg_id),
            in_delay_ns,
            max_residence: drain + SimTime::from_ms(20),
            entries: Vec::new(),
            exits: Vec::new(),
        }
    }

    /// The router whose queue is tapped.
    pub fn router(&self) -> RouterId {
        self.router
    }

    /// The tapped link `router → egress`.
    pub fn link(&self) -> LinkParams {
        self.link
    }

    /// A packet's fingerprint under the segment key.
    pub fn fingerprint(&self, packet: &Packet) -> Fingerprint {
        packet.fingerprint(&self.key)
    }

    fn record(&self, packet: &Packet, time: SimTime) -> TapRecord {
        TapRecord {
            fingerprint: self.fingerprint(packet),
            size: packet.size,
            time,
        }
    }

    /// Feeds one simulator observation. The tap keeps only what the
    /// *neighbours* of `r` can see: their own transmissions toward `r`
    /// that are bound for the egress (`next_hop_of` predicts a packet's
    /// next hop after `r`), and the egress's arrivals from `r`.
    pub fn observe(&mut self, ev: &TapEvent, next_hop_of: impl Fn(&Packet) -> Option<RouterId>) {
        match ev {
            TapEvent::Transmitted {
                router: rs,
                next_hop,
                packet,
                time,
            } if *next_hop == self.router && next_hop_of(packet) == Some(self.egress) => {
                if let Some(&d) = self.in_delay_ns.get(rs) {
                    let entry = self.record(packet, *time + SimTime::from_ns(d));
                    self.entries.push(entry);
                }
            }
            TapEvent::Arrived {
                router,
                from: Some(from),
                packet,
                time,
            } if *router == self.egress && *from == self.router => {
                let exit = self.record(packet, time.since(SimTime::from_ns(self.link.delay_ns)));
                self.exits.push(exit);
            }
            _ => {}
        }
    }

    /// The exits observed and not yet handed out by
    /// [`end_round`](Self::end_round), in observation order.
    pub fn exits(&self) -> &[TapRecord] {
        &self.exits
    }

    /// Hands out every exit observed so far, due or not.
    pub fn take_exits(&mut self) -> Vec<TapRecord> {
        std::mem::take(&mut self.exits)
    }

    /// Ends a round at `now`: hands out the entries and exits at or before
    /// `now` minus one maximum residence — a full buffer ahead at line rate
    /// twice over, the egress delay and 20 ms of slack — and keeps the later
    /// ones for the next round.
    pub fn end_round(&mut self, now: SimTime) -> TapRound {
        let cutoff = now.since(self.max_residence);
        let split = |records: &mut Vec<TapRecord>| {
            let (due, later) = std::mem::take(records)
                .into_iter()
                .partition(|r| r.time <= cutoff);
            *records = later;
            due
        };
        TapRound {
            cutoff,
            entries: split(&mut self.entries),
            exits: split(&mut self.exits),
        }
    }
}

/// Exact replay of an honest drop-tail queue fed the same arrivals: the
/// "what would a correct router have done" predictor. It is the
/// simulator's queue core over a FIFO of sizes, with the engine's
/// semantics — bytes stay in the queue until transmission completes, the
/// head starts transmitting as soon as the link frees.
#[derive(Debug, Clone)]
struct HonestQueue {
    link: LinkParams,
    queue: OutputQueueState,
    fifo: VecDeque<u32>,
    next_complete: SimTime,
}

impl HonestQueue {
    /// Advances transmissions to time `t`, then offers a packet; returns
    /// whether the honest queue would have accepted it.
    fn offer(&mut self, t: SimTime, size: u32) -> bool {
        while self.next_complete <= t {
            let Some(head) = self.fifo.pop_front() else {
                break;
            };
            self.queue.commit_dequeue(head, self.next_complete);
            if let Some(&next) = self.fifo.front() {
                self.next_complete += SimTime::from_ns(self.link.tx_time_ns(next));
            }
        }
        if self.queue.offer(size, t) != Offer::Accept {
            return false;
        }
        if self.fifo.is_empty() {
            self.next_complete = t + SimTime::from_ns(self.link.tx_time_ns(size));
        }
        self.fifo.push_back(size);
        self.queue.commit_enqueue(size);
        true
    }
}

/// The χ validator for one output interface Q of router `r` toward `r_d`,
/// hosted at `r_d` and fed by the neighbour routers of `r` (Figure 6.1).
#[derive(Debug)]
pub struct QueueValidator {
    tap: QueueTap,
    cfg: ChiConfig,
    /// The replayed queue: its occupancy is `q_pred`.
    queue: OutputQueueState,
    /// The honest-queue predictor (drop-tail only).
    honest: Option<HonestQueue>,
    /// Packets accepted in a previous round whose exits are still owed to
    /// the replay (exit observed after that round's cutoff).
    pending_exits: HashSet<Fingerprint>,
    prediction_trace: Vec<(SimTime, f64)>,
}

impl QueueValidator {
    /// Builds the validator for queue `router → egress`, which the network
    /// runs under `discipline`.
    ///
    /// # Panics
    ///
    /// Panics if the topology lacks the `router → egress` link.
    pub fn new(
        topo: &Topology,
        keystore: &KeyStore,
        router: RouterId,
        egress: RouterId,
        discipline: QueueDiscipline,
        cfg: ChiConfig,
    ) -> Self {
        let tap = QueueTap::new(topo, keystore, router, egress);
        let link = tap.link();
        let queue = OutputQueueState::new(discipline, link.queue_limit_bytes, link.bandwidth_bps);
        Self {
            cfg,
            honest: (discipline == QueueDiscipline::DropTail).then(|| HonestQueue {
                link,
                queue: queue.clone(),
                fifo: VecDeque::new(),
                next_complete: SimTime::ZERO,
            }),
            queue,
            tap,
            pending_exits: HashSet::new(),
            prediction_trace: Vec::new(),
        }
    }

    /// The validated router.
    pub fn router(&self) -> RouterId {
        self.tap.router()
    }

    /// Feeds one simulator observation (see [`QueueTap::observe`]).
    pub fn observe(&mut self, ev: &TapEvent, next_hop_of: impl Fn(&Packet) -> Option<RouterId>) {
        self.tap.observe(ev, next_hop_of);
    }

    /// `(time, q_pred)` samples after each accepted entry of the last
    /// round — the Figure 6.3 material.
    pub fn prediction_trace(&self) -> &[(SimTime, f64)] {
        &self.prediction_trace
    }

    /// Ends a round at wall-clock `now`: judges every entry old enough
    /// that its exit must have been observed (entry time ≤ `now` minus
    /// one maximum queue residence, see [`QueueTap::end_round`]), carrying
    /// newer observations and the replay state into the next round.
    pub fn end_round(&mut self, now: SimTime) -> ChiVerdict {
        self.prediction_trace.clear();

        // Classification uses the *full* observed exit stream: any entry
        // at or before the cutoff has had time to exit by `now`, so its
        // exit (if it was forwarded) is already recorded even when that
        // exit is after the cutoff.
        let all_exit_time: HashMap<Fingerprint, SimTime> = self
            .tap
            .exits()
            .iter()
            .map(|e| (e.fingerprint, e.time))
            .collect();

        // Replay, however, is strictly chronological: only events at or
        // before the cutoff change occupancy this round, so `q_pred`
        // equals the real queue at every judged instant. Exits after the
        // cutoff are deferred; their packets wait in `pending_exits`.
        let due = self.tap.end_round(now);
        let due_fps: HashSet<Fingerprint> = due.entries.iter().map(|e| e.fingerprint).collect();

        let mut timeline: Vec<(SimTime, u8, RawEvent)> = Vec::new();
        for e in &due.entries {
            let exit = all_exit_time.get(&e.fingerprint);
            // Exit beyond the cutoff: the packet stays in the replayed
            // queue across the round boundary.
            if exit.is_some_and(|&t| t > due.cutoff) {
                self.pending_exits.insert(e.fingerprint);
            }
            let entry = RawEvent::Entry(e.fingerprint, e.size, exit.is_some());
            timeline.push((e.time, 1, entry));
        }
        let mut fabricated = 0;
        for e in &due.exits {
            if self.pending_exits.remove(&e.fingerprint) || due_fps.contains(&e.fingerprint) {
                timeline.push((e.time, 0, RawEvent::Exit(e.size)));
            } else {
                // An exit with no matching entry, ever: fabricated at r.
                fabricated += 1;
            }
        }
        timeline.sort_by_key(|&(t, pri, _)| (t, pri));

        let mut verdict = ChiVerdict {
            fabricated,
            ..ChiVerdict::default()
        };
        self.replay(&timeline, &mut verdict);
        verdict
    }

    fn replay(&mut self, timeline: &[(SimTime, u8, RawEvent)], verdict: &mut ChiVerdict) {
        // RED's drop-count test: the round's expected drops and their
        // variance under the replayed probabilities.
        let mut expected_drops = 0.0;
        let mut variance = 0.0;
        let mut zero_prob_drop = false;

        for &(t, _, ev) in timeline {
            let (fp, size, has_exit) = match ev {
                RawEvent::Exit(size) => {
                    self.queue.replay_dequeue(size, t);
                    continue;
                }
                RawEvent::Entry(fp, size, has_exit) => (fp, size, has_exit),
            };
            // What would an honest queue have done with this arrival?
            if let Some(honest) = &mut self.honest {
                if honest.offer(t, size) != has_exit {
                    verdict.outcome_mismatches += 1;
                }
            }
            let q_pred = self.queue.len_bytes() as f64;
            let prob = match self.queue.offer(size, t) {
                Offer::Accept => 0.0,
                Offer::Forced => 1.0,
                Offer::Early(p) => p,
            };
            expected_drops += prob;
            variance += prob * (1.0 - prob);
            if has_exit {
                self.queue.replay_enqueue(size);
                verdict.forwarded += 1;
                self.prediction_trace
                    .push((t, self.queue.len_bytes() as f64));
                continue;
            }
            self.queue.commit_drop();
            zero_prob_drop |= prob == 0.0;
            if prob >= 1.0 {
                verdict.congestion_consistent += 1;
            }
            let confidence = match self.queue.discipline() {
                QueueDiscipline::DropTail => {
                    let headroom = self.queue.limit_bytes() as f64 - q_pred - size as f64;
                    normal::cdf((headroom - self.cfg.mu) / self.cfg.sigma)
                }
                QueueDiscipline::Red(_) => 1.0 - prob,
            };
            verdict.drops.push(DropJudgement {
                fingerprint: fp,
                size,
                entry_time: t,
                q_pred,
                confidence,
            });
        }

        verdict.detected = match self.queue.discipline() {
            QueueDiscipline::DropTail => self.drop_tail_detects(verdict),
            QueueDiscipline::Red(_) => {
                // Drop-count test. RED's count-based spreading correlates
                // successive outcomes, so Σp(1−p) only approximates the
                // variance; the decision therefore demands a 4σ excess
                // plus an absolute floor, which a benign queue essentially
                // never produces while even a few-percent targeted attack
                // clears it within a round.
                let combined = if !verdict.drops.is_empty() && variance > 1e-9 {
                    let excess = verdict.drops.len() as f64 - expected_drops;
                    let z = excess / variance.sqrt();
                    verdict.combined_confidence = Some(normal::cdf(z));
                    excess >= 4.0 * (variance + 1.0).sqrt() && excess >= 5.0
                } else {
                    false
                };
                zero_prob_drop || combined
            }
        };
    }

    /// The drop-tail decision: one confident loss, the combined-losses
    /// test, or the honest queue disagreeing too often.
    fn drop_tail_detects(&self, verdict: &mut ChiVerdict) -> bool {
        let single_hit = verdict
            .drops
            .iter()
            .any(|d| d.confidence >= self.cfg.single_threshold);
        let combined_hit = if verdict.drops.len() >= 2 {
            let n = verdict.drops.len() as u64;
            let mean_q: f64 = verdict.drops.iter().map(|d| d.q_pred).sum::<f64>() / n as f64;
            let mean_ps: f64 = verdict.drops.iter().map(|d| d.size as f64).sum::<f64>() / n as f64;
            let c = fatih_stats::ztest::combined_loss_confidence(
                self.queue.limit_bytes() as f64,
                mean_q,
                mean_ps,
                self.cfg.mu,
                self.cfg.sigma,
                n,
            );
            verdict.combined_confidence = Some(c);
            c >= self.cfg.combined_threshold
        } else {
            false
        };
        single_hit || combined_hit || verdict.outcome_mismatches >= self.cfg.mismatch_floor
    }
}

/// One replayed queue event: an exit (bytes leaving) or an entry with a
/// flag for whether a matching exit was observed.
#[derive(Debug, Clone, Copy)]
enum RawEvent {
    Exit(u32),
    Entry(Fingerprint, u32, bool),
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_sim::{Attack, AttackKind, Network, RedParams, VictimFilter};
    use fatih_topology::{builtin, LinkParams};

    /// Fig 6.4 fixture: `sources` CBR senders through r's bottleneck
    /// toward rd. CBR flows stop 1 s before each test's horizon so every
    /// judgement falls before the cutoff.
    fn fan_net(
        sources: usize,
        q_limit: u32,
        red: bool,
        flow_secs: u64,
    ) -> (Network, QueueValidator, Vec<fatih_sim::FlowId>) {
        let bottleneck = LinkParams {
            bandwidth_bps: 8_000_000, // 1 kB/ms
            queue_limit_bytes: q_limit,
            ..LinkParams::default()
        };
        let topo = builtin::fan_in(sources, bottleneck);
        let mut ks = KeyStore::with_seed(9);
        for r in topo.routers() {
            ks.register(r.into());
        }
        let r = topo.router_by_name("r").unwrap();
        let rd = topo.router_by_name("rd").unwrap();
        let discipline = if red {
            QueueDiscipline::Red(RedParams {
                min_threshold: q_limit as f64 * 0.3,
                max_threshold: q_limit as f64 * 0.7,
                ..RedParams::default()
            })
        } else {
            QueueDiscipline::DropTail
        };
        let validator = QueueValidator::new(&topo, &ks, r, rd, discipline, ChiConfig::default());
        let mut net = Network::new(topo, 5);
        net.set_queue_discipline(r, rd, discipline);
        let mut flows = Vec::new();
        for i in 0..sources {
            let s = net.topology().router_by_name(&format!("s{i}")).unwrap();
            let f = net.add_cbr_flow(
                s,
                rd,
                1000,
                SimTime::from_us(1_100),
                SimTime::from_us(137 * i as u64),
                Some(SimTime::from_secs(flow_secs)),
            );
            flows.push(f);
        }
        (net, validator, flows)
    }

    fn run_round(net: &mut Network, v: &mut QueueValidator, until_secs: u64) -> ChiVerdict {
        let routes = net.routes().clone();
        let end = SimTime::from_secs(until_secs);
        let at = v.router();
        net.run_until(end, |ev| {
            v.observe(ev, |p| {
                routes
                    .path(p.src, p.dst)
                    .and_then(|path| path.next_after(at))
            })
        });
        v.end_round(end)
    }

    #[test]
    fn congestion_only_is_not_flagged() {
        let (mut net, mut v, _) = fan_net(3, 8_000, false, 5);
        let verdict = run_round(&mut net, &mut v, 7);
        let truth = net.ground_truth();
        assert!(truth.congestive_drops > 0, "fixture must congest");
        assert_eq!(truth.malicious_drops, 0);
        assert!(!verdict.detected, "false positive: {verdict:?}");
        assert_eq!(verdict.total_drops() as u64, truth.congestive_drops);
        assert!(verdict.max_single_confidence() < 0.5);
        assert_eq!(verdict.fabricated, 0);
    }

    #[test]
    fn uncongested_round_is_clean() {
        let (mut net, mut v, _) = fan_net(1, 64_000, false, 5);
        let verdict = run_round(&mut net, &mut v, 7);
        assert_eq!(verdict.total_drops(), 0);
        assert!(!verdict.detected);
        assert!(verdict.forwarded > 4000);
    }

    #[test]
    fn malicious_drops_in_idle_queue_detected_with_high_confidence() {
        let (mut net, mut v, flows) = fan_net(2, 64_000, false, 5);
        let r = net.topology().router_by_name("r").unwrap();
        net.set_attacks(r, vec![Attack::drop_flows([flows[0]], 0.05)]);
        let verdict = run_round(&mut net, &mut v, 7);
        assert!(net.ground_truth().malicious_drops > 0);
        assert!(verdict.detected, "attack missed: {verdict:?}");
        assert!(verdict.max_single_confidence() > 0.99);
    }

    #[test]
    fn queue_conditional_attack_detected_among_congestion() {
        // Attack 2/3 of §6.4.2: drop victims only when the queue is ≥ 90%
        // full — individually each loss looks plausible, but the combined
        // test sees too many losses for the predicted occupancy.
        let (mut net, mut v, flows) = fan_net(3, 10_000, false, 10);
        let r = net.topology().router_by_name("r").unwrap();
        net.set_attacks(
            r,
            vec![Attack {
                victims: VictimFilter::flows([flows[0]]),
                kind: AttackKind::DropWhenQueueAbove {
                    fill: 0.90,
                    fraction: 1.0,
                },
            }],
        );
        let verdict = run_round(&mut net, &mut v, 12);
        let truth = net.ground_truth();
        assert!(truth.malicious_drops > 0, "attack never triggered");
        assert!(truth.congestive_drops > 0, "fixture must congest too");
        assert!(verdict.detected, "hidden attack missed: {verdict:?}");
    }

    #[test]
    fn rounds_with_inflight_packets_cause_no_false_drops() {
        // End a round mid-traffic: packets in flight must not be judged.
        let (mut net, mut v, _) = fan_net(1, 64_000, false, 60);
        let mut clean_rounds = 0;
        for round in 1..=10u64 {
            let verdict = run_round(&mut net, &mut v, round);
            assert_eq!(verdict.total_drops(), 0, "round {round}: {verdict:?}");
            assert!(!verdict.detected);
            if verdict.forwarded > 0 {
                clean_rounds += 1;
            }
        }
        assert!(clean_rounds >= 8);
    }

    #[test]
    fn prediction_trace_matches_actual_queue() {
        // The Figure 6.3 property: q_pred tracks q_act exactly in the
        // deterministic replay.
        let (mut net, mut v, _) = fan_net(3, 10_000, false, 5);
        let r = net.topology().router_by_name("r").unwrap();
        let rd = net.topology().router_by_name("rd").unwrap();
        let routes = net.routes().clone();
        let mut actual: Vec<(SimTime, u32)> = Vec::new();
        let end = SimTime::from_secs(7);
        net.run_until(end, |ev| {
            v.observe(ev, |p| {
                routes
                    .path(p.src, p.dst)
                    .and_then(|path| path.next_after(r))
            });
            if let TapEvent::Enqueued {
                router,
                next_hop,
                time,
                queue_len_after,
                ..
            } = ev
            {
                if *router == r && *next_hop == rd {
                    actual.push((*time, *queue_len_after));
                }
            }
        });
        let verdict = v.end_round(end);
        assert!(verdict.forwarded > 0);
        let trace = v.prediction_trace();
        assert_eq!(trace.len(), actual.len());
        for ((tp, qp), (ta, qa)) in trace.iter().zip(actual.iter()) {
            assert_eq!(tp, ta, "prediction and reality diverge in time");
            assert!((*qp - *qa as f64).abs() < 1.0, "q_pred {qp} vs q_act {qa}");
        }
    }

    #[test]
    fn red_congestion_only_not_flagged() {
        let (mut net, mut v, _) = fan_net(3, 60_000, true, 10);
        let verdict = run_round(&mut net, &mut v, 12);
        let truth = net.ground_truth();
        assert!(truth.congestive_drops > 0, "fixture must RED-drop");
        assert!(!verdict.detected, "false positive: {verdict:?}");
    }

    #[test]
    fn red_avg_conditional_attack_detected() {
        // §6.5.3 attack 1: drop victims whenever RED's average exceeds a
        // mid-band trigger.
        let (mut net, mut v, flows) = fan_net(3, 60_000, true, 10);
        let r = net.topology().router_by_name("r").unwrap();
        net.set_attacks(
            r,
            vec![Attack {
                victims: VictimFilter::flows([flows[0]]),
                kind: AttackKind::DropWhenAvgQueueAbove {
                    avg_bytes: 60_000.0 * 0.35,
                    fraction: 1.0,
                },
            }],
        );
        let verdict = run_round(&mut net, &mut v, 12);
        assert!(net.ground_truth().malicious_drops > 0, "attack never fired");
        assert!(verdict.detected, "RED-masked attack missed: {verdict:?}");
    }

    #[test]
    fn red_syn_style_low_avg_drop_flagged_immediately() {
        // A drop while the average is below min-threshold has RED
        // probability zero — malicious outright (the Fig 6.16 case).
        let (mut net, mut v, flows) = fan_net(1, 60_000, true, 5);
        let r = net.topology().router_by_name("r").unwrap();
        net.set_attacks(r, vec![Attack::drop_flows([flows[0]], 0.01)]);
        let verdict = run_round(&mut net, &mut v, 7);
        assert!(net.ground_truth().malicious_drops > 0);
        assert!(verdict.detected);
        assert!(verdict.max_single_confidence() >= 1.0 - 1e-12);
    }
}
