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
//!
//! The exchange is one per-router, sans-I/O value, [`Pik2Node`]: which
//! segments this router ends, what their other ends have told it about
//! which round, who may tell it anything at all, the Appendix A digest
//! resolution and the verdicts. It owns no clock, socket, key or counter;
//! a host closes its rounds, hands it what arrived — having authenticated
//! the sender — and reads it the record through a `&SegmentMonitorSet`.
//! Two hosts do: [`Pik2Detector`] here, one node per segment-ending router
//! over the simulator's shared monitor set, adding the pairwise MAC,
//! [`ReliableTransport`] delivery and the report faults of §2.2.1; and the
//! live runtime's sans-I/O `Router` (`fatih-net`), stepped by a shard,
//! adding sealed frames, retransmission, metrics, alerts and the response. What either
//! host puts on its wire is a [`Message`], whose bytes are laid out here
//! and nowhere else.

use crate::monitor::{MonitorMode, PathOracle, Report, ReportEntry, SegmentMonitorSet};
use crate::policy::{distort, PairVerdict, Policy, ReportFault, Thresholds};
use crate::rounds::Window;
use crate::spec::{Interval, Suspicion};
use crate::transport::{ReliableTransport, TransportEvent, TransportMsg};
use crate::wire::{WireEncoder, WireError, WireReader};
use fatih_crypto::{Fingerprint, KeyStore};
use fatih_sim::{Network, SimTime, TapEvent};
use fatih_topology::{PathSegment, RouterId, Routes};
use fatih_validation::digest::{diff_digests, ContentDigest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// What one end of a segment tells the other about a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evidence {
    /// What the sender's record holds for the round.
    Summary(Report),
    /// Fixed-size Appendix A digests of the sender's record.
    Digest {
        /// Of the slice the round judges.
        judged: ContentDigest,
        /// Of everything the record holds for the round.
        held: ContentDigest,
    },
    /// The sender could not resolve a digest: it asks for the summary.
    Pull,
}

/// Which form a piece of [`Evidence`] takes. A [`Message`]'s bytes do not
/// say; what carries them does — the frame's type byte on the live wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvidenceKind {
    /// [`Evidence::Summary`].
    Summary,
    /// [`Evidence::Digest`].
    Digest,
    /// [`Evidence::Pull`].
    Pull,
}

/// The Πk+2 exchange message — `info(r, π, τ)` of Figure 5.3, or the
/// Appendix A stand-ins for it: what one end of `segment` tells the other
/// about `round`. A host authenticates it with the ends' pairwise key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The round the evidence is about.
    pub round: u64,
    /// The monitored segment.
    pub segment: PathSegment,
    /// What the sender says.
    pub evidence: Evidence,
}

impl Message {
    /// Appends the message's wire form: round, segment, then the report's
    /// canonical bytes, the judged and the held digest, or nothing.
    pub fn encode_into(&self, e: &mut WireEncoder) {
        e.u64(self.round).segment(&self.segment);
        match &self.evidence {
            Evidence::Summary(report) => {
                e.bytes(&report.encode());
            }
            Evidence::Digest { judged, held } => {
                e.digest(judged).digest(held);
            }
            Evidence::Pull => {}
        }
    }

    /// Reads [`encode_into`](Self::encode_into)'s output for evidence of
    /// the given kind. Never panics, and allocates for nothing the input
    /// does not hold.
    pub fn decode_from(kind: EvidenceKind, rd: &mut WireReader<'_>) -> Result<Self, WireError> {
        let round = rd.u64()?;
        let segment = rd.segment()?;
        let evidence = match kind {
            EvidenceKind::Summary => {
                Evidence::Summary(Report::decode(rd.bytes()?).ok_or(WireError::Invalid)?)
            }
            EvidenceKind::Digest => Evidence::Digest {
                judged: rd.digest()?,
                held: rd.digest()?,
            },
            EvidenceKind::Pull => Evidence::Pull,
        };
        Ok(Self {
            round,
            segment,
            evidence,
        })
    }
}

/// What a node did with a piece of evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Received {
    /// Kept for the round's evaluation.
    Stored,
    /// Answer the sender with this: a [`Evidence::Pull`] for a digest that
    /// did not resolve, the [`Evidence::Summary`] a pull asked for.
    Reply(Evidence),
    /// Dropped: this router ends no such segment (a peer on another route
    /// epoch monitors different ones).
    Unknown,
    /// Dropped: the sender is not the segment's other end, and nobody else
    /// may speak for it, whoever the transport says they are.
    Foreign,
    /// Dropped: the round is evaluated already — the verdict is out and
    /// the record it would be read against is pruned.
    Stale,
}

/// One end's verdict on one segment for one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Judged {
    /// Index of the segment in the planned list.
    pub segment: usize,
    /// The segment's other end.
    pub peer: RouterId,
    /// `TV` over the round's window; ⊥ if the peer was not heard from.
    pub verdict: PairVerdict,
    /// Whether the verdict passes the policy and thresholds.
    pub passed: bool,
}

/// One segment this router is an end of.
#[derive(Debug, Clone, Copy)]
struct EndRole {
    seg: usize,
    peer: RouterId,
    /// Whether this router is the segment's source (upstream recorder).
    upstream: bool,
}

/// What the peer's evidence for a (round, segment) came to: its report,
/// or the verdict decoded from its digests, certified equal to what the
/// report would have given.
#[derive(Debug, Clone)]
enum Heard {
    Report(Report),
    Verdict(PairVerdict),
}

/// One router's part in Πk+2: see the module documentation.
#[derive(Debug, Clone)]
pub struct Pik2Node {
    id: RouterId,
    roles: BTreeMap<PathSegment, EndRole>,
    heard: BTreeMap<(u64, usize), Heard>,
    /// The (judged, held) digests this node sent per (round, segment),
    /// which a peer's digest is resolved against.
    said: BTreeMap<(u64, usize), (ContentDigest, ContentDigest)>,
    /// The last round evaluated; evidence for it or an earlier one is
    /// stale.
    evaluated: Option<u64>,
}

impl Pik2Node {
    /// The node of router `id` under the planned `segments`.
    pub fn new(id: RouterId, segments: &[PathSegment]) -> Self {
        let mut node = Self {
            id,
            roles: BTreeMap::new(),
            heard: BTreeMap::new(),
            said: BTreeMap::new(),
            evaluated: None,
        };
        node.replan(segments);
        node
    }

    /// The monitored segments changed (and the host's record with them).
    /// Evidence from before is void — the segments it described no longer
    /// exist — and the count of evaluated rounds starts afresh with the
    /// emptied record.
    pub fn replan(&mut self, segments: &[PathSegment]) {
        self.roles.clear();
        for (seg, s) in segments.iter().enumerate() {
            let (peer, upstream) = match s.ends() {
                (a, b) if a == self.id => (b, true),
                (a, b) if b == self.id => (a, false),
                _ => continue,
            };
            let role = EndRole {
                seg,
                peer,
                upstream,
            };
            self.roles.insert(s.clone(), role);
        }
        self.heard.clear();
        self.said.clear();
        self.evaluated = None;
    }

    /// What this router's record of segment `seg` holds for the round of
    /// `window`. Trimmed here, where it is read, and not by the pruning:
    /// a peer may send its round-`r` evidence before this router's own
    /// round `r` closes.
    fn held(&self, seg: usize, window: Window, record: &SegmentMonitorSet) -> Report {
        record.report_after(self.id, seg, window.held_from())
    }

    /// The (judged, held) digests of what this router's record of segment
    /// `seg` holds for the round of `window`: one sort and one sketch pass.
    fn digests(
        &self,
        seg: usize,
        window: Window,
        capacity: usize,
        record: &SegmentMonitorSet,
    ) -> (ContentDigest, ContentDigest) {
        let held = record.entries(self.id, seg, window.held_from());
        let judged = window.judged_span(held);
        let tag =
            |(i, e): (usize, &ReportEntry)| (e.fingerprint, e.size.into(), judged.contains(&i));
        let mut tagged: Vec<_> = held.iter().enumerate().map(tag).collect();
        ContentDigest::of_part_and_whole(&mut tagged, capacity)
    }

    /// Round `round`, of `window`, closed: for every segment this router
    /// ends, (the other end, the segment's index in the planned list, what
    /// to tell it) — summaries, or digests from sketches of `sketch`
    /// capacity, which the node keeps until the round is over.
    pub fn close_round(
        &mut self,
        round: u64,
        window: Window,
        sketch: Option<usize>,
        record: &SegmentMonitorSet,
    ) -> Vec<(RouterId, usize, Evidence)> {
        let mut out = Vec::with_capacity(self.roles.len());
        for role in self.roles.values() {
            let Some(capacity) = sketch else {
                let held = self.held(role.seg, window, record);
                out.push((role.peer, role.seg, Evidence::Summary(held)));
                continue;
            };
            let (judged, held) = self.digests(role.seg, window, capacity, record);
            if self.evaluated.is_none_or(|done| round > done) {
                (self.said).insert((round, role.seg), (judged.clone(), held.clone()));
            }
            out.push((role.peer, role.seg, Evidence::Digest { judged, held }));
        }
        out
    }

    /// Takes in `evidence` about `round` of `segment` from `from`, whom
    /// the host has authenticated; `window` is that round's. Only the
    /// segment's other end is heard, and only until the round is
    /// evaluated.
    pub fn receive(
        &mut self,
        from: RouterId,
        round: u64,
        segment: &PathSegment,
        evidence: Evidence,
        window: Window,
        record: &SegmentMonitorSet,
    ) -> Received {
        let Some(&role) = self.roles.get(segment) else {
            return Received::Unknown;
        };
        if from != role.peer {
            return Received::Foreign;
        }
        if self.evaluated.is_some_and(|done| round <= done) {
            return Received::Stale;
        }
        let heard = match evidence {
            Evidence::Summary(report) => Heard::Report(report),
            Evidence::Digest { judged, held } => {
                match self.resolve_digest(role, round, window, &judged, &held, record) {
                    Some(verdict) => Heard::Verdict(verdict),
                    None => return Received::Reply(Evidence::Pull),
                }
            }
            Evidence::Pull => {
                let held = self.held(role.seg, window, record);
                return Received::Reply(Evidence::Summary(held));
            }
        };
        self.heard.insert((round, role.seg), heard);
        Received::Stored
    }

    /// Attempts to decode the round verdict from a peer's digest pair.
    ///
    /// The exchange reconciles like-with-like — the peer's judged-slice
    /// digest against this end's judged slice, held window against held
    /// window — so the sketch only has to span the *discrepancy* (losses,
    /// packets in flight across a window edge), never the window itself;
    /// that is why both ends hold the same window although only the
    /// upstream end needs the look-back. This end's side is what it said
    /// for the round, or digests of its record if the peer closed first.
    /// The verdict is `tv_pair`'s, `lost = judged(up) ∖ held(down)`,
    /// `fabricated = judged(down) ∖ held(up)`: with judged ⊆ held and
    /// certified differences of multiplicity 1, `J_mine ∖ H_peer` is what
    /// this end judged of `H_mine ∖ H_peer`, and `J_peer ∖ H_mine` what its
    /// record lacks of `J_peer ∖ J_mine`. Returns `None` (forcing a full
    /// pull) whenever either digest fails certification.
    fn resolve_digest(
        &self,
        role: EndRole,
        round: u64,
        window: Window,
        judged_d: &ContentDigest,
        held_d: &ContentDigest,
        record: &SegmentMonitorSet,
    ) -> Option<PairVerdict> {
        let capacity = held_d.sketch().capacity();
        let (my_judged, my_held) = match self.said.get(&(round, role.seg)) {
            Some(said) if said.1.sketch().capacity() == capacity => said.clone(),
            _ => self.digests(role.seg, window, capacity, record),
        };
        // The polynomial splitting wants random points, not secret ones: a
        // function of the input keeps the verdict one too.
        let mut rng = StdRng::seed_from_u64(held_d.mix_sum());
        let (j_add, _) = diff_digests(judged_d, &my_judged, &mut rng)?;
        let (_, h_rem) = diff_digests(held_d, &my_held, &mut rng)?;
        // One scan marks what of `j_add` the record holds and of `h_rem` the
        // judged slice does (disjoint sets: `J_peer ⊆ H_peer`); none if both
        // are empty.
        let mut found = BTreeSet::new();
        if !(h_rem.is_empty() && j_add.is_empty()) {
            let held = record.entries(self.id, role.seg, window.held_from());
            let judged = window.judged_span(held);
            for (i, e) in held.iter().enumerate() {
                let wanted = |set: &[Fingerprint]| set.binary_search(&e.fingerprint).is_ok();
                if wanted(&j_add) || (judged.contains(&i) && wanted(&h_rem)) {
                    found.insert(e.fingerprint);
                }
            }
        }
        let mine: Vec<_> = h_rem.into_iter().filter(|fp| found.contains(fp)).collect();
        let theirs: Vec<_> = j_add.into_iter().filter(|fp| !found.contains(fp)).collect();
        let (lost, fabricated) = if role.upstream {
            (mine, theirs)
        } else {
            (theirs, mine)
        };
        Some(PairVerdict {
            lost,
            fabricated,
            reordered: 0,
            bottom: false,
        })
    }

    /// Judges `round` — `window` is its — on every segment this router
    /// ends, a peer not heard from reading as ⊥ (the timeout-as-accusation
    /// rule), and retires the round. Downstream entries older than `floor`
    /// are never fabrication (see [`crate::policy::tv_pair`]; a verdict
    /// decoded from digests knows no floor).
    pub fn evaluate(
        &mut self,
        round: u64,
        window: Window,
        floor: SimTime,
        policy: Policy,
        thresholds: &Thresholds,
        record: &SegmentMonitorSet,
    ) -> Vec<Judged> {
        let mut out = Vec::with_capacity(self.roles.len());
        for role in self.roles.values() {
            let heard = self.heard.remove(&(round, role.seg));
            let verdict = if let Some(Heard::Verdict(decoded)) = heard {
                decoded
            } else {
                let peer = match &heard {
                    Some(Heard::Report(report)) => Some(report),
                    _ => None,
                };
                let mine = self.held(role.seg, window, record);
                let (up, down) = if role.upstream {
                    (Some(&mine), peer)
                } else {
                    (peer, Some(&mine))
                };
                window.judge(up, down, floor)
            };
            out.push(Judged {
                segment: role.seg,
                peer: role.peer,
                passed: verdict.passes(policy, thresholds),
                verdict,
            });
        }
        self.retire(round);
        out
    }

    /// `round` is over, with a verdict or (a host's amnesty round) without:
    /// evidence for it or an earlier round is stale from here on, and
    /// whatever arrived for them is dropped.
    pub fn retire(&mut self, round: u64) {
        self.evaluated = Some(round);
        self.heard.retain(|&(r, _), _| r > round);
        self.said.retain(|&(r, _), _| r > round);
    }

    /// Whether waiting longer would tell `round`'s evaluation nothing:
    /// every segment's other end has been heard from, or the round is
    /// over.
    pub fn is_settled(&self, round: u64) -> bool {
        self.evaluated.is_some_and(|done| round <= done)
            || (self.roles.values()).all(|role| self.heard.contains_key(&(round, role.seg)))
    }
}

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

/// The Πk+2 detector over a simulated network: every segment-ending
/// router's [`Pik2Node`], the monitor set they all record into, and the
/// control-plane I/O between them.
#[derive(Debug)]
pub struct Pik2Detector {
    cfg: Pik2Config,
    keystore: KeyStore,
    monitors: SegmentMonitorSet,
    nodes: BTreeMap<RouterId, Pik2Node>,
    report_faults: BTreeMap<RouterId, ReportFault>,
    /// Where this deployment's first round opens.
    deployed_at: SimTime,
    /// When the previous round ended; `None` until one has.
    prev_end: Option<SimTime>,
    first_event: Option<SimTime>,
    /// Rounds closed so far: the number the nodes know the latest by (a
    /// caller's `round_id` need not count up).
    rounds: u64,
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
        let mut nodes = BTreeMap::new();
        for end in segments.iter().flat_map(|s| [s.source(), s.sink()]) {
            nodes
                .entry(end)
                .or_insert_with(|| Pik2Node::new(end, &segments));
        }
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
            nodes,
            report_faults: BTreeMap::new(),
            deployed_at: round_start,
            prev_end: None,
            first_event: None,
            rounds: 0,
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

    /// Packets judged lost so far, over every segment (as its upstream end
    /// judged it): what the rounds' verdicts add up to, for experiments
    /// that set it against the simulator's ground truth.
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

    /// Closes the measurement round at `now`: every node says what its
    /// record holds for the round, and each summary is MAC'd and handed to
    /// `send` (sender, receiver, payload), which returns the transport's
    /// message id.
    fn summarise(
        &mut self,
        now: SimTime,
        round_id: u64,
        mut send: impl FnMut(RouterId, RouterId, Vec<u8>) -> u64,
    ) -> RoundExchange {
        let prev_end = self.prev_end.replace(now);
        self.rounds += 1;
        // Packets already in flight when monitoring began must not read as
        // fabrication (see `tv_pair`).
        let fabrication_floor = self
            .first_event
            .map(|t| t + self.cfg.maturity_lag)
            .unwrap_or(SimTime::ZERO);
        let mut exch = RoundExchange {
            round_id,
            round: self.rounds,
            interval: Interval::new(prev_end.unwrap_or(self.deployed_at), now),
            window: Window::closing(prev_end, now, self.cfg.maturity_lag),
            fabrication_floor,
            pending: BTreeMap::new(),
            failed: BTreeSet::new(),
        };
        let segments = self.monitors.segments();
        let mut outgoing = Vec::new();
        for (&sender, node) in &mut self.nodes {
            let said = node.close_round(exch.round, exch.window, None, &self.monitors);
            outgoing.extend((said.into_iter()).map(|(to, seg, said)| (seg, sender, to, said)));
        }
        // Segment by segment, the source's summary first: the order the
        // summaries enter the network in is part of a seeded run.
        outgoing.sort_by_key(|&(seg, sender, ..)| (seg, sender != segments[seg].source()));
        for (seg, sender, receiver, said) in outgoing {
            let Evidence::Summary(report) = said else {
                unreachable!("no sketch was asked for");
            };
            let from_a = sender == segments[seg].source();
            let salt = if from_a { 1 } else { 2 };
            // The report fault wraps the node's outgoing summary. Ends have
            // no upstream record within the segment to copy, so HideDrops
            // degenerates to an honest report here; Silent and Inflate
            // apply as-is.
            let fault = self.report_faults.get(&sender).copied();
            let Some(claimed) = distort(fault, &report, None, salt) else {
                // A silent end sends nothing; the peer's round timer
                // expires and the exchange counts as failed.
                exch.failed.insert((seg, from_a));
                continue;
            };
            let message = Message {
                round: round_id,
                segment: segments[seg].clone(),
                evidence: Evidence::Summary(claimed),
            };
            let mut body = WireEncoder::new();
            message.encode_into(&mut body);
            let payload = seal(&self.keystore, sender, receiver, body.finish());
            let msg = send(sender, receiver, payload);
            exch.pending.insert(msg, (seg, from_a));
        }
        exch
    }

    /// Offers a delivered transport message to the exchange. Returns
    /// `true` if it was a summary (consumed), `false` if it is something
    /// else (an alert…). A summary that is authentic goes to the receiving
    /// end's node.
    pub fn exchange_message(&mut self, exch: &mut RoundExchange, msg: &TransportMsg) -> bool {
        let mut rd = WireReader::new(&msg.payload);
        if rd.u32() != Ok(SUMMARY_KIND) {
            return false;
        }
        let heard = self.open(msg.to, &mut rd);
        if matches!(&heard, Some((_, m)) if m.round != exch.round_id) {
            // A stale summary from an abandoned exchange: consumed (it is
            // a summary) but carries no information for this round.
            return true;
        }
        let direction = exch.pending.remove(&msg.msg);
        let stored = heard.is_some_and(|(from, m)| {
            self.nodes.get_mut(&msg.to).is_some_and(|node| {
                let (round, window) = (exch.round, exch.window);
                node.receive(from, round, &m.segment, m.evidence, window, &self.monitors)
                    == Received::Stored
            })
        });
        if !stored {
            // Unauthenticated, garbled, or not the segment's other end's to
            // say: a failed exchange, exactly as if the summary never
            // arrived (Figure 5.3).
            exch.failed.extend(direction);
        }
        true
    }

    /// Opens the rest of a summary payload that reached `to`: the sender
    /// and its message, if the pairwise MAC — this host's authentication
    /// of the sending end — holds and the message under it decodes.
    fn open(&self, to: RouterId, rd: &mut WireReader<'_>) -> Option<(RouterId, Message)> {
        let from = rd.router().ok()?;
        let body = rd.bytes().ok()?;
        let sealed = rd.consumed();
        let mac = rd.signature().ok()?;
        rd.done().ok()?;
        let keys = &self.keystore;
        let (a, b) = (from.into(), to.into());
        if !(keys.contains(a) && keys.contains(b) && keys.pairwise_verify(a, b, sealed, &mac)) {
            return None;
        }
        let mut body = WireReader::new(body);
        let message = Message::decode_from(EvidenceKind::Summary, &mut body).ok()?;
        body.done().ok()?;
        Some((from, message))
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

    /// Closes the exchange and returns the round's suspicions: every node
    /// evaluates the round, and an end whose verdict fails suspects the
    /// whole segment.
    ///
    /// An end whose peer's summary never arrived intact — transport
    /// retries exhausted, authentication failed, the peer sent nothing, or
    /// the message was still in flight when the round budget expired —
    /// holds ⊥ for it: a *failed exchange* (the timeout-as-accusation
    /// rule; a router that withholds its summary is treated exactly like
    /// one caught lying, §5.2's refusal-to-cooperate semantics). Each end
    /// judges for itself: with both directions failed both raise, with
    /// both summaries in hand both validate with `TV` (the broadcast of
    /// Figure 5.3 upgrades this to strong completeness).
    pub fn finish_round(&mut self, exch: RoundExchange) -> Vec<Suspicion> {
        let mut out: BTreeSet<Suspicion> = BTreeSet::new();
        for (&router, node) in &mut self.nodes {
            let judged = node.evaluate(
                exch.round,
                exch.window,
                exch.fabrication_floor,
                self.cfg.policy,
                &self.cfg.thresholds,
                &self.monitors,
            );
            for j in judged {
                let segment = &self.monitors.segments()[j.segment];
                if router == segment.source() {
                    self.lost_judged += j.verdict.lost.len() as u64;
                }
                if !j.passed {
                    out.insert(Suspicion {
                        segment: segment.clone(),
                        interval: exch.interval,
                        raised_by: router,
                    });
                }
            }
        }
        if let Some(horizon) = exch.window.forget_horizon() {
            self.monitors.prune(horizon);
        }
        out.into_iter().collect()
    }
}

/// First field of a summary payload: what tells it from the simulator's
/// other control payloads.
const SUMMARY_KIND: u32 = 0xE1;

/// The simulator host's envelope round an exchange message: kind, sender,
/// the message, and the pairwise MAC of sender and receiver over all three
/// — the message says which round and segment it is about, so a summary
/// cannot be replayed into another round or segment, nor under another
/// sender's name.
fn seal(keystore: &KeyStore, from: RouterId, to: RouterId, message: &[u8]) -> Vec<u8> {
    let mut e = WireEncoder::new();
    e.u32(SUMMARY_KIND).router(from).bytes(message);
    let mac = keystore.pairwise_mac(from.into(), to.into(), e.finish());
    e.signature(&mac);
    e.into_bytes()
}

/// A transport-backed summary exchange in progress (between
/// [`Pik2Detector::begin_round`] and [`Pik2Detector::finish_round`]): the
/// round's parameters and the transport's bookkeeping. What the summaries
/// said is with the nodes.
#[derive(Debug)]
pub struct RoundExchange {
    /// The caller's id, which frames the exchange's messages.
    round_id: u64,
    /// The round as the nodes number it.
    round: u64,
    interval: Interval,
    window: Window,
    fabrication_floor: SimTime,
    /// Transport msg id → (segment, direction) for summaries in flight.
    pending: BTreeMap<u64, (usize, bool)>,
    /// Directions known failed (exhausted, unauthentic, or never sent).
    failed: BTreeSet<(usize, bool)>,
}

impl RoundExchange {
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

    /// With both directions of an exchange failed each end times out on
    /// its own: a partition that opens as the round ends exhausts every
    /// summary, and both ends of every segment raise — same segment, same
    /// interval.
    #[test]
    fn both_directions_failed_means_both_ends_raise() {
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
        let end = SimTime::from_secs(5);
        let healed = SimTime::from_secs(60);
        // Every 3-segment of a 4-line crosses the middle link.
        let plan = fatih_sim::FaultPlan::new(1)
            .with_link_flap(ids[1], ids[2], end, healed)
            .with_link_flap(ids[2], ids[1], end, healed);
        net.set_fault_plan(Some(plan));
        net.run_until(end, |ev| det.observe(ev));
        let mut exch = det.begin_round(end, 1, &mut net, &mut transport);
        drive_exchange(
            &mut net,
            &mut det,
            &mut transport,
            &mut exch,
            SimTime::from_secs(10),
        );
        assert!(exch.is_settled(), "every summary should have exhausted");
        assert_eq!(exch.failed_count(), 2 * det.segment_count());
        let sus = det.finish_round(exch);
        assert_eq!(sus.len(), 2 * det.segment_count(), "{sus:?}");
        for pair in sus.chunks(2) {
            assert_eq!(pair[0].segment, pair[1].segment);
            assert_eq!(pair[0].interval, pair[1].interval);
            let raisers = (pair[0].raised_by, pair[1].raised_by);
            let (a, b) = pair[0].segment.ends();
            assert!(raisers == (a, b) || raisers == (b, a), "{pair:?}");
        }
    }

    /// A segment end holds the pairwise key, so the MAC does not vouch for
    /// what is under it: a summary whose report claims 1 + 2^62 entries
    /// over one entry's bytes is a failed exchange like any garbled one,
    /// not a panic in the decoder.
    #[test]
    fn a_crafted_report_behind_a_valid_mac_is_a_failed_exchange() {
        let (mut net, _, ks) = line(4);
        let mut det = Pik2Detector::new(net.routes(), ks.clone(), Pik2Config::default());
        let mut transport = ReliableTransport::new(crate::transport::TransportConfig::default());
        let end = SimTime::from_secs(1);
        net.run_until(end, |ev| det.observe(ev));
        let mut exch = det.begin_round(end, 1, &mut net, &mut transport);
        let (&msg, &(seg, from_a)) = exch.pending.iter().next().expect("a summary in flight");
        let segment = det.monitors.segments()[seg].clone();
        let (from, to) = match (segment.ends(), from_a) {
            ((a, b), true) => (a, b),
            ((a, b), false) => (b, a),
        };
        // The count, 1 + 2^62 little-endian, then one entry's 20 bytes.
        let mut crafted = vec![1, 0, 0, 0, 0, 0, 0, 0x40];
        crafted.extend_from_slice(&[0; 20]);
        let mut body = WireEncoder::new();
        body.u64(1).segment(&segment).bytes(&crafted);
        let delivered = TransportMsg {
            msg,
            from,
            to,
            payload: seal(&ks, from, to, body.finish()),
            at: end,
        };
        assert!(det.exchange_message(&mut exch, &delivered));
        assert_eq!(exch.failed_count(), 1);
        // The end that was told nothing usable holds ⊥ and raises.
        let raisers: BTreeSet<RouterId> = (det.finish_round(exch).iter())
            .map(|s| s.raised_by)
            .collect();
        assert!(raisers.contains(&to), "{raisers:?}");
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
