//! One live router as a sans-I/O step function.
//!
//! A [`Router`] holds Πk+2 at one router — its segment monitors, its end
//! of every exchange ([`Pik2Node`]), reliable delivery ([`Retransmitter`]),
//! link state and the view it implies ([`Convergence`]), its [`Traffic`],
//! its churn script and its own schedule — and no clock, socket or
//! channel. The host calls [`Router::step`] with the instant, one
//! [`Input`] and an [`Outputs`] buffer it reuses, and steps it with
//! [`Input::Timeout`] once [`Router::deadline`] has come, so a router's
//! behaviour is a function of the `(now, input)` sequence it is given,
//! whether a shard, the simulator or a test gives it.

use crate::codec::{decode_frame, encode_frame_into, Frame, WireMessage};
use crate::flows::Traffic;
use crate::linkstate::{
    sign_link_state, verify_link_state, Convergence, LinkStateUpdate, TopoUpdate,
};
use crate::reliable::{Retransmitter, RetryPolicy};
use crate::runtime::SummaryMode;
use crate::runtime::{ChurnAction, ChurnEvent, LiveConfig, LiveEvent, LiveSpec, NetMetrics};
use fatih_core::monitor::{MonitorPlan, SegmentMonitorSet};
use fatih_core::pik2::{Evidence, Message, Pik2Node, Received};
use fatih_core::rounds::Window;
use fatih_core::spec::{Interval, SignedAlert, Suspicion};
use fatih_crypto::{KeyStore, Signature};
use fatih_obs::trace::NO_ROUND;
use fatih_obs::{Counter, TraceBuffer, TraceKind};
use fatih_sim::{Packet, SimTime, TapEvent};
use fatih_topology::{DynamicTopology, Path, PathSegment, RouterId, Routes, Topology};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Reliable-delivery policy for summaries, pulls, alerts and link-state
/// updates: eight attempts, 25 ms apart at first and at most 100 ms, fit
/// the exchange budgets loopback deployments run with.
pub(crate) const RELIABLE: RetryPolicy = RetryPolicy {
    rto_ns: 25_000_000,
    max_backoff_ns: 100_000_000,
    max_attempts: 8,
};

/// Clean rounds a crash-restarted router must survive on probation
/// (transit of last resort only) before it carries transit traffic again.
const PROBATION_ROUNDS: u64 = 2;

/// Buffered tap events before the router flushes them through
/// [`SegmentMonitorSet::observe_batch`]. Big enough to amortize the batch
/// setup, small enough that a flush never stalls the event loop.
const OBS_BUF_FLUSH: usize = 128;

/// How often a router that awaits an ack looks for frames due a
/// retransmission: twice per initial timeout, so a frame is resent in
/// `[rto, rto + PUMP_STEP_NS]` after its send.
const PUMP_STEP_NS: u64 = RELIABLE.rto_ns / 2;

/// What a router is stepped with.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Input<'a> {
    /// A frame for this router, as received.
    Frame(&'a [u8]),
    /// A data-plane observation a host made at this router — the one the
    /// live forward path makes itself.
    Tap(TapEvent),
    /// [`Router::deadline`] has come: the router does everything due by
    /// `now`.
    Timeout,
}

/// A stage of a router's work that the host times, as an index into
/// [`Outputs::timed`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    /// A round end that did round work.
    RoundEnd,
    /// An evaluation that did round work.
    RoundEval,
    /// A frame carrying a digest that was resolved, answered with a pull
    /// or escalated.
    DigestResolve,
}

/// A router's own work that falls due at an instant, in the order one
/// instant runs it: a crash or restart first, then the older round's
/// judgment, then the next round's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    /// The next step of the churn script.
    Churn,
    /// The evaluation of the oldest round that ended unjudged.
    Eval,
    /// The end of the current round.
    End,
}

/// What steps said, in a buffer the host reuses from step to step.
#[derive(Debug)]
pub(crate) struct Outputs {
    /// Frames to send, in order, as (destination, where its bytes lie in
    /// `bytes`).
    pub(crate) frames: Vec<(RouterId, Range<usize>)>,
    /// The frames' bytes, back to back, encoded in place: once the buffer
    /// has grown, a step that sends a frame allocates nothing for it.
    pub(crate) bytes: Vec<u8>,
    /// Events for the run's log.
    pub(crate) events: Vec<LiveEvent>,
    /// The host's trace ring: records go straight into it.
    pub(crate) trace: TraceBuffer,
    /// The stages the step ran, by [`Stage`]: the host charges the step's
    /// time to each.
    pub(crate) timed: [bool; 3],
}

impl Outputs {
    /// An empty buffer writing its trace records into `trace`.
    pub(crate) fn new(trace: TraceBuffer) -> Self {
        Self {
            frames: Vec::new(),
            bytes: Vec::new(),
            events: Vec::new(),
            trace,
            timed: [false; 3],
        }
    }

    /// Appends a frame for `dst`, already encoded.
    fn push_frame(&mut self, dst: RouterId, frame: &[u8]) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(frame);
        self.frames.push((dst, start..self.bytes.len()));
    }
}

pub(crate) struct Router {
    pub(crate) id: RouterId,
    cfg: LiveConfig,
    /// The instant of the step in progress, in nanoseconds on the host's
    /// axis.
    now: u64,
    /// False while crashed, departed or not yet joined: the router neither
    /// processes frames nor does round work, but its churn script still
    /// fires (a restart needs it).
    pub(crate) alive: bool,
    /// This router's incarnation; bumped on every crash-restart.
    incarnation: u32,
    keys: Arc<KeyStore>,
    /// Static link-state routes of the base graph: the stale-packet
    /// forwarding fallback during epoch transitions, shared by every
    /// router of the deployment. A destination's column is searched when
    /// the first packet stranded toward it asks, so a run nothing strands
    /// in searches none. They come from the same route computation as
    /// `paths`, so under a clean overlay a stranded packet drains along the
    /// route its epoch planned.
    routes: Arc<Routes>,
    /// The link-state database and the view of the network it implies:
    /// overlay, probation, amnesty horizon and route epoch.
    convergence: Convergence,
    /// Current forwarding paths per (source, destination) pair, rebuilt
    /// whenever the route epoch changes; until then shared with every
    /// router that planned the same view. Forwarding follows these, not
    /// `routes`.
    paths: Arc<HashMap<(RouterId, RouterId), Path>>,
    /// The (source, destination) pairs under Πk+2 monitoring.
    monitor_pairs: Vec<(RouterId, RouterId)>,
    /// The flows' own endpoint pairs (kept routable for forwarding).
    flow_pairs: Vec<(RouterId, RouterId)>,
    monitors: SegmentMonitorSet,
    /// This router's end of every Πk+2 exchange: the segments it ends,
    /// what their other ends said about which round, and the verdicts.
    /// The router keeps the rest: frames in and out, metrics, alerts and
    /// the response.
    pik2: Pik2Node,
    traffic: Traffic,
    /// Reliable control frames awaiting their ack, as encoded, and the
    /// duplicate-suppression history.
    reliable: Retransmitter<Vec<u8>>,
    metrics: NetMetrics,
    next_seq: u64,
    /// Tap events buffered for the monitors' batched ingest path: flushed
    /// when full and before any report is read, so a round boundary always
    /// sees every observation.
    obs_buf: Vec<TapEvent>,
    /// This router's next link-state origination sequence number.
    ls_seq: u64,
    /// This router's own churn script, in time order.
    churn: Vec<ChurnEvent>,
    /// Churn steps done so far: the next one is `churn[churned]`.
    churned: usize,
    /// Rounds this router has ended: round `ended` ends at
    /// `(ended + 1)·τ`, while `ended < rounds`.
    ended: u64,
    /// Rounds this router has evaluated: round `evaluated` is judged one
    /// exchange budget after its end, once it has ended.
    evaluated: u64,
    /// When the retransmission pump is next due: [`PUMP_STEP_NS`] after
    /// the router started awaiting an ack, and again after each pump while
    /// it still does; `None` while it awaits none.
    pump_at: Option<u64>,
}

/// One router per router of `topo`, in its order, monitoring the routed
/// paths of the (source, destination) `monitor_pairs`, and the segments
/// they monitor. Every router starts from the shared initial view — the
/// base graph minus the initially-down routers — and the plan it implies,
/// and every rebuild plans again by the same machinery, so forwarding, the
/// path oracle and the monitored segments agree from the first packet and
/// through every reconvergence.
pub(crate) fn routers(
    topo: &Topology,
    spec: &LiveSpec,
    monitor_pairs: &[(RouterId, RouterId)],
    cfg: &LiveConfig,
    metrics: &NetMetrics,
) -> (Vec<Router>, Vec<PathSegment>) {
    let mut keys = KeyStore::with_seed(cfg.key_seed);
    for id in topo.routers() {
        keys.register(id.into());
    }
    let keys = Arc::new(keys);
    let routes = Arc::new(topo.link_state_routes());
    let mut dyn0 = DynamicTopology::new(topo.clone());
    for &r in &spec.initially_down {
        dyn0.set_router_down(r);
    }
    let mut convergence = Convergence::new(dyn0, cfg.tau.as_nanos() as u64, PROBATION_ROUNDS);
    let flow_pairs = flow_pairs(spec);
    let plan = convergence.plan(monitor_pairs, &flow_pairs, cfg.k);
    let paths = Arc::new(plan.paths);
    // One key per segment for the whole deployment; each router lays out
    // the records of the segments it ends, the only ones its taps feed.
    let monitored = MonitorPlan::new(plan.segments, plan.oracle, &keys);
    let routers = (topo.routers())
        .map(|id| {
            let mut monitors = SegmentMonitorSet::for_router(&monitored, id);
            monitors.attach_metrics(metrics.monitor.clone());
            // Reconcile mode keeps running digests and the strips; Full
            // mode, every segment in dispute, keeps whole records, and so
            // does a lag that reaches past a round.
            let ns = |d: Duration| SimTime::from_ns(d.as_nanos() as u64);
            let (tau, lag) = (ns(cfg.tau), ns(cfg.maturity_lag));
            if let (Some(capacity), true) = (cfg.summary.sketch(), lag < tau) {
                monitors.stream(tau, lag, capacity);
            }
            Router {
                id,
                cfg: *cfg,
                now: 0,
                alive: !spec.initially_down.contains(&id),
                incarnation: 0,
                keys: Arc::clone(&keys),
                routes: Arc::clone(&routes),
                convergence: convergence.clone(),
                paths: Arc::clone(&paths),
                monitor_pairs: monitor_pairs.to_vec(),
                flow_pairs: flow_pairs.clone(),
                monitors,
                pik2: Pik2Node::new(id, monitored.segments(), cfg.summary.sketch()),
                traffic: Traffic::new(spec, id),
                reliable: Retransmitter::new(RELIABLE),
                metrics: metrics.clone(),
                next_seq: 0,
                obs_buf: Vec::with_capacity(OBS_BUF_FLUSH),
                ls_seq: 0,
                churn: script(spec, id),
                churned: 0,
                ended: 0,
                evaluated: 0,
                pump_at: None,
            }
        })
        .collect();
    (routers, monitored.segments().to_vec())
}

/// The (source, destination) pair of each of `spec`'s flows.
pub(crate) fn flow_pairs(spec: &LiveSpec) -> Vec<(RouterId, RouterId)> {
    spec.flows.iter().map(|f| (f.src, f.dst)).collect()
}

/// Router `id`'s part of `spec`'s churn script, in time order; steps of
/// one instant keep the script's order.
fn script(spec: &LiveSpec, id: RouterId) -> Vec<ChurnEvent> {
    let mut script: Vec<ChurnEvent> = (spec.churn.iter())
        .filter(|e| e.actor == id)
        .copied()
        .collect();
    script.sort_by_key(|e| e.at);
    script
}

impl Router {
    /// Takes in `input` at `now` — nanoseconds on the host's axis, never
    /// less than the previous step's — and appends what it says to `out`.
    pub(crate) fn step(&mut self, now: u64, input: Input<'_>, out: &mut Outputs) {
        self.now = now;
        match input {
            Input::Frame(bytes) => self.handle_frame(bytes, out),
            Input::Tap(ev) if self.alive => self.tap(ev, &mut out.trace),
            Input::Tap(_) => {}
            Input::Timeout => self.timeout(out),
        }
        let awaits = self.alive && self.reliable.outstanding() > 0;
        self.pump_at = awaits.then(|| self.pump_at.unwrap_or(now + PUMP_STEP_NS));
    }

    /// When this router next has something to do unprompted: the earliest
    /// of its next churn step, its pending evaluation, its next round end,
    /// its retransmission pump and its flows' next ticks. `None`: nothing,
    /// ever, unless a frame says otherwise.
    pub(crate) fn deadline(&self) -> Option<u64> {
        let stop = self.stop_ns();
        let ticks = (self.traffic.flows.iter())
            .map(|f| f.next_due)
            .filter(|&t| t < stop);
        (self.next_stage().map(|(t, _)| t).into_iter())
            .chain(self.pump_at)
            .chain(ticks)
            .min()
    }

    /// When this router stops injecting: once its final round has closed.
    fn stop_ns(&self) -> u64 {
        (self.cfg.rounds).saturating_mul(self.cfg.tau.as_nanos() as u64)
    }

    /// The next churn step, evaluation or round end, and when it is due:
    /// the earliest; at one instant, in [`Due`]'s order.
    fn next_stage(&self) -> Option<(u64, Due)> {
        let tau = self.cfg.tau.as_nanos() as u64;
        let budget = self.cfg.exchange_budget.as_nanos() as u64;
        let churn = (self.churn.get(self.churned)).map(|e| (e.at.as_nanos() as u64, Due::Churn));
        let eval =
            (self.evaluated < self.ended).then(|| ((self.evaluated + 1) * tau + budget, Due::Eval));
        let end = (self.ended < self.cfg.rounds).then(|| ((self.ended + 1) * tau, Due::End));
        [churn, eval, end].into_iter().flatten().min()
    }

    /// Does everything due by now, in one fixed order: churn steps,
    /// evaluations and round ends, earliest first; then each flow's tick,
    /// once; then the retransmission pump. The trace only counts a step
    /// that just ticks flows; it keeps every other one, a step with nothing
    /// due among them.
    fn timeout(&mut self, out: &mut Outputs) {
        let by = u32::from(self.id);
        let due = |t: u64| t <= self.now;
        let pump_due = self.pump_at.is_some_and(due);
        let ticks_only = !pump_due
            && !self.next_stage().is_some_and(|(t, _)| due(t))
            && self.traffic.flows.iter().any(|f| due(f.next_due));
        if ticks_only {
            out.trace.count(TraceKind::TimerFired);
        } else {
            (out.trace).record(self.now, TraceKind::TimerFired, by, NO_ROUND, 0);
        }
        while let Some((_, stage)) = self.next_stage().filter(|&(t, _)| t <= self.now) {
            match stage {
                Due::Churn => {
                    self.churned += 1;
                    self.churn_step(self.churned - 1, out);
                }
                Due::Eval => {
                    self.evaluated += 1;
                    self.round_eval(self.evaluated - 1, out);
                }
                Due::End => {
                    let r = self.ended;
                    self.ended += 1;
                    self.round_end(r, out);
                    // The summaries just sent belong to round r's slice;
                    // the next round opens after them.
                    out.trace.record(self.now, TraceKind::RoundEnd, by, r, 0);
                    if self.ended < self.cfg.rounds {
                        (out.trace).record(self.now, TraceKind::RoundStart, by, self.ended, 0);
                    }
                }
            }
        }
        for i in 0..self.traffic.flows.len() {
            if self.traffic.flows[i].next_due <= self.now {
                self.flow_tick(i, out);
            }
        }
        if pump_due {
            self.pump(out);
        }
    }

    /// Round `r`'s window on this deployment's schedule. Round 0 has no
    /// lower bound: observations made before the deployment's epoch stamp
    /// as time 0 and are judged with it.
    fn window(&self, r: u64) -> Window {
        let ns = |d: Duration| SimTime::from_ns(d.as_nanos() as u64);
        Window::of_round(r, ns(self.cfg.tau), ns(self.cfg.maturity_lag))
    }

    /// The route epoch this router forwards under.
    pub(crate) fn route_epoch(&self) -> u64 {
        self.convergence.view().epoch
    }

    /// Where this router's view sends traffic: the path of every pair it
    /// routes, one search per destination. Routers of one route epoch
    /// hold one view, so one table serves them all.
    pub(crate) fn route_table(&mut self) -> HashMap<(RouterId, RouterId), Path> {
        self.convergence.all_paths()
    }

    /// The segments this router's view has excluded.
    pub(crate) fn excluded(&self) -> &[PathSegment] {
        self.convergence.view().overlay.excluded()
    }

    /// Flushes any buffered observations and publishes what the record
    /// still holds: the end of the run.
    pub(crate) fn finish(&mut self) {
        self.flush_observations();
        self.monitors.publish_held();
    }

    fn pump(&mut self, out: &mut Outputs) {
        // Re-armed by the step if a frame still awaits its ack.
        self.pump_at = None;
        if !self.alive {
            return;
        }
        let mut resent = 0;
        let exhausted = self.reliable.poll(self.now, |_, dst, frame| {
            out.push_frame(dst, frame);
            self.metrics.retransmits.inc();
            self.metrics.retransmit_bytes.add(frame.len() as u64);
            resent += 1;
        });
        let by = u32::from(self.id);
        if resent > 0 {
            out.trace
                .record(self.now, TraceKind::Retransmit, by, NO_ROUND, resent);
        }
        for ex in exhausted {
            let dst = u64::from(u32::from(ex.dst));
            (out.trace).record(self.now, TraceKind::DeliveryExhausted, by, NO_ROUND, dst);
            out.events.push(LiveEvent::DeliveryExhausted {
                by: self.id,
                dst: ex.dst,
                attempts: ex.attempts,
            });
            // Organic crash detection: a peer that exhausts reliable
            // delivery is reported down, so the fabric reroutes around it
            // without waiting for an operator — unless it already is, or
            // this router's view has no route to it: a link announced down
            // explains the silence, and says nothing of the peer.
            let down = self.convergence.view().overlay.is_router_down(ex.dst);
            if self.cfg.response && !down && self.convergence.reaches(self.id, ex.dst) {
                self.originate_ls(TopoUpdate::RouterDown(ex.dst), out);
            }
        }
    }

    /// Injects the next packet of local flow `i` and moves it on to its
    /// next tick; once the final round has closed, stops it instead.
    fn flow_tick(&mut self, i: usize, out: &mut Outputs) {
        if self.now >= self.stop_ns() {
            self.traffic.flows[i].next_due = u64::MAX;
            return;
        }
        self.traffic.advance(i, self.now);
        if !self.alive {
            // Keep ticking so the flow resumes after a restart.
            return;
        }
        let packet = self.traffic.inject(i, self.id, self.now);
        if let Some(next_hop) = self.forward_hop(packet.src, packet.dst, None) {
            self.enqueued(next_hop, packet, &mut out.trace);
            let epoch = self.convergence.view().epoch;
            self.send_frame(next_hop, WireMessage::Data { packet, epoch }, false, out);
        }
    }

    /// Records the packet's hand-over to `next_hop`.
    fn enqueued(&mut self, next_hop: RouterId, packet: Packet, trace: &mut TraceBuffer) {
        let (router, time) = (self.id, SimTime::from_ns(self.now));
        let tap = TapEvent::Enqueued {
            router,
            next_hop,
            packet,
            time,
            queue_len_after: 0,
        };
        self.tap(tap, trace);
    }

    /// The forwarding decision for a packet of the (source, destination)
    /// pair that came from `from` (`None`: injected here): the hop after
    /// this router on the pair's current path. `None` when the pair is
    /// unroutable or this router is not on the path (a stale transit
    /// placement mid-transition).
    fn forward_hop(
        &self,
        src: RouterId,
        dst: RouterId,
        from: Option<RouterId>,
    ) -> Option<RouterId> {
        self.paths
            .get(&(src, dst))
            .and_then(|p| p.next_hop(self.id, from))
    }

    /// Queues a data-plane observation for the batched monitor ingest,
    /// flushing once the buffer amortizes the batch setup. The trace
    /// counts the tap: its slot would say no more than its total.
    fn tap(&mut self, ev: TapEvent, trace: &mut TraceBuffer) {
        trace.count(TraceKind::PacketTap);
        self.obs_buf.push(ev);
        if self.obs_buf.len() >= OBS_BUF_FLUSH {
            self.flush_observations();
        }
    }

    /// Pushes buffered observations through the batched fingerprint path.
    fn flush_observations(&mut self) {
        if self.obs_buf.is_empty() {
            return;
        }
        self.monitors.observe_batch(&self.obs_buf);
        self.obs_buf.clear();
    }

    fn round_end(&mut self, r: u64, out: &mut Outputs) {
        self.flush_observations();
        self.monitors.closed(r);
        if !self.alive {
            return;
        }
        if r < self.convergence.view().eval_resume {
            // Reconvergence amnesty: this round straddles a topology
            // change, so neither end summarizes it — the transition can
            // never be mistaken for an attack.
            return;
        }
        out.timed[Stage::RoundEnd as usize] = true;
        let kind = match self.cfg.summary {
            SummaryMode::Full => TraceKind::SummarySent,
            SummaryMode::Reconcile { .. } => TraceKind::DigestSent,
        };
        let window = self.window(r);
        for (to, seg, said) in (self.pik2).close_round(r, window, &self.monitors) {
            let message = Message {
                round: r,
                segment: self.monitors.segments()[seg].clone(),
                evidence: said,
            };
            self.send_frame(to, WireMessage::Pik2(message), true, out);
            let (by, peer) = (u32::from(self.id), u64::from(u32::from(to)));
            out.trace.record(self.now, kind, by, r, peer);
        }
    }

    /// Hands the router a piece of evidence that arrived in a sealed frame.
    /// The seal says `from` is the registered router it claims to be;
    /// whether that router may speak for `segment` is the router's
    /// decision. The frame is acknowledged already, so a rejected one is
    /// not sent again.
    fn handle_evidence(&mut self, from: RouterId, message: Message, out: &mut Outputs) {
        self.flush_observations();
        let (round, segment) = (message.round, &message.segment);
        let is_digest = matches!(message.evidence, Evidence::Digest { .. });
        let (said, window) = (message.evidence, self.window(round));
        let received = (self.pik2).receive(from, round, segment, said, window, &self.monitors);
        // Each digest taken in is resolved, pulled or escalated, once.
        out.timed[Stage::DigestResolve as usize] = is_digest
            && matches!(
                received,
                Received::Stored
                    | Received::StoredAndReply(_)
                    | Received::Reply(_)
                    | Received::Escalated
            );
        let (by, peer, now) = (u32::from(self.id), u64::from(u32::from(from)), self.now);
        let mut note = |counter: &Counter, kind| {
            counter.inc();
            out.trace.record(now, kind, by, round, peer);
        };
        // A pull, sent or taken, puts the segment in dispute at both ends;
        // a full digest sent in answer to a prefix does not.
        let pulled = matches!(
            received,
            Received::Reply(Evidence::Pull | Evidence::Summary(_)) | Received::Disputed
        );
        if pulled {
            let segments = self.monitors.segments();
            if let Some(seg) = segments.iter().position(|s| *s == message.segment) {
                self.monitors.dispute(seg, SimTime::from_ns(self.now));
            }
        }
        let reply = match received {
            Received::Stored if is_digest => {
                note(&self.metrics.digests_resolved, TraceKind::DigestResolved);
                None
            }
            Received::StoredAndReply(reply) => {
                note(&self.metrics.digests_resolved, TraceKind::DigestResolved);
                Some(reply)
            }
            Received::Reply(reply) => {
                match reply {
                    Evidence::Pull => {
                        note(&self.metrics.digest_fallbacks, TraceKind::DigestFallback)
                    }
                    Evidence::Digest { .. } => {
                        note(&self.metrics.digest_escalations, TraceKind::DigestEscalated)
                    }
                    Evidence::Summary(_) => {}
                }
                Some(reply)
            }
            Received::Escalated => {
                note(&self.metrics.digest_escalations, TraceKind::DigestEscalated);
                None
            }
            Received::Stored | Received::Disputed => None,
            Received::Stale => {
                self.metrics.stale_summaries.inc();
                None
            }
            Received::Foreign => {
                self.metrics.foreign_summaries.inc();
                None
            }
            // A peer on another route epoch monitors other segments; a
            // digest larger than this end's capacity is not reconciled.
            Received::Unknown | Received::Refused => None,
        };
        if let Some(evidence) = reply {
            let reply = Message {
                evidence,
                ..message
            };
            self.send_frame(from, WireMessage::Pik2(reply), true, out);
        }
    }

    fn round_eval(&mut self, r: u64, out: &mut Outputs) {
        if !self.alive {
            return;
        }
        // An amnesty round raises nothing (retiring it drops whatever
        // arrived for it). Both ends of every segment skip the same rounds
        // (the window is derived from the update's origin timestamp), so
        // nobody waits for a summary that will never come.
        if r >= self.convergence.view().eval_resume {
            out.timed[Stage::RoundEval as usize] = true;
            self.judge_round(r, out);
        }
        self.probation_tick(r, out);
        // Round `r` is over for this router: evidence for it is stale from
        // here on — said again after the evaluation, since a conviction's
        // rebuild replans the router, which forgets — and the record
        // forgets what no later round reads. Readers trim to their own
        // window, so the pruning is a memory matter only.
        self.pik2.retire(r);
        self.flush_observations();
        self.monitors.retire(r, self.window(r));
    }

    /// Has the router judge round `r` and acts on each verdict: events,
    /// metrics, the accusation or signed alert, and the response.
    fn judge_round(&mut self, r: u64, out: &mut Outputs) {
        self.flush_observations();
        let tau = self.cfg.tau.as_nanos() as u64;
        let round_start = SimTime::from_ns(r * tau);
        let round_end = SimTime::from_ns((r + 1) * tau);
        let judged = (self.pik2).evaluate(r, self.window(r), &self.cfg.thresholds, &self.monitors);
        // Convictions are originated after the loop: applying one rebuilds
        // the segment set, which would invalidate the indices still in use.
        let mut convictions: Vec<PathSegment> = Vec::new();
        let by = u32::from(self.id);
        for j in judged {
            let (peer, bottom, passed) = (j.peer, j.verdict.bottom, j.passed);
            let segment = self.monitors.segments()[j.segment].clone();
            let peer_id = u64::from(u32::from(peer));
            if bottom {
                self.metrics.summary_timeouts.inc();
                (out.trace).record(self.now, TraceKind::SummaryTimeout, by, r, peer_id);
                out.events.push(LiveEvent::SummaryTimeout {
                    by: self.id,
                    segment: segment.clone(),
                    round: r,
                });
            }
            if j.bound.is_some() {
                self.metrics.rounds_bounded.inc();
            }
            out.events.push(LiveEvent::RoundEvaluated {
                router: self.id,
                round: r,
                segment: segment.clone(),
                passed,
                bottom,
                lost: j.lost(),
                fabricated: j.fabricated(),
            });
            if passed {
                continue;
            }
            let interval = Interval::new(round_start, round_end);
            let suspicion = Suspicion {
                segment: segment.clone(),
                interval,
                raised_by: self.id,
            };
            self.metrics.accusations_raised.inc();
            (out.trace).record(self.now, TraceKind::AccusationRaised, by, r, peer_id);
            out.events.push(LiveEvent::SuspicionRaised {
                suspicion: suspicion.clone(),
                round: r,
            });
            if bottom {
                // Timeout-as-accusation: the peer (or the path to it)
                // failed the exchange itself.
                let segment = segment.clone();
                let accusation = WireMessage::Accusation { segment, interval };
                self.send_frame(peer, accusation, false, out);
            } else {
                let alert = SignedAlert::sign(&self.keys, suspicion);
                self.send_frame(peer, WireMessage::Alert(alert), true, out);
                self.metrics.alerts_sent.inc();
                (out.trace).record(self.now, TraceKind::AlertSent, by, r, peer_id);
            }
            if self.cfg.response {
                convictions.push(segment);
            }
        }
        // The §2.4.3 response: a convicting end excises the segment from
        // the routable fabric by flooding a signed exclusion — routes
        // reconverge around it and validation resumes on the next clean
        // round boundary.
        for segment in convictions {
            self.originate_ls(TopoUpdate::ExcludeSegment(segment), out);
        }
    }

    /// Closes round `r`. Probations that end at the boundary of `r + 1`
    /// are over — at every router alike, with no agreement traffic — and a
    /// router whose transit duty that restores is routed through again.
    fn probation_tick(&mut self, r: u64, out: &mut Outputs) {
        let before = self.convergence.view().epoch;
        let serving = self.convergence.view().probation.contains_key(&self.id);
        self.convergence.round_closed(r);
        if serving && !self.convergence.view().probation.contains_key(&self.id) {
            self.metrics.probation_cleared.inc();
            let by = u32::from(self.id);
            (out.trace).record(self.now, TraceKind::ProbationCleared, by, r + 1, 0);
            out.events.push(LiveEvent::ProbationCleared {
                router: self.id,
                round: r + 1,
            });
        }
        if self.convergence.view().epoch != before {
            self.rebuild(self.now, out);
        }
    }

    fn send_frame(&mut self, dst: RouterId, msg: WireMessage, reliable: bool, out: &mut Outputs) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let is_data = matches!(msg, WireMessage::Data { .. });
        let frame = Frame {
            src: self.id,
            dst,
            seq,
            msg,
        };
        let start = out.bytes.len();
        if encode_frame_into(&frame, &self.keys, &mut out.bytes).is_err() {
            self.metrics.encode_failures.inc();
            return;
        }
        let bytes = &out.bytes[start..];
        self.metrics.frames_sent.inc();
        self.metrics.frame_bytes.record(bytes.len() as u64);
        let class = if is_data {
            &self.metrics.data_bytes_sent
        } else {
            &self.metrics.control_bytes_sent
        };
        class.add(bytes.len() as u64);
        if reliable {
            // The one copy a frame costs: reliable ones are kept for resends.
            self.reliable.track(seq, dst, bytes.to_vec(), self.now);
        }
        out.frames.push((dst, start..out.bytes.len()));
    }

    fn handle_frame(&mut self, bytes: &[u8], out: &mut Outputs) {
        if !self.alive {
            return; // crashed/departed: frames fall on the floor
        }
        self.metrics.frames_received.inc();
        let frame = match decode_frame(bytes, &self.keys) {
            Ok(f) => f,
            Err(_) => {
                self.metrics.decode_failures.inc();
                return;
            }
        };
        if frame.dst != self.id {
            self.metrics.decode_failures.inc(); // misaddressed frame
            return;
        }
        match &frame.msg {
            WireMessage::Data { .. } | WireMessage::Ack { .. } => {}
            control => {
                // Acknowledged every time it arrives — the previous ack may
                // have been lost — and handled the first time. (An
                // accusation is sent once, unacknowledged; the transport
                // may still duplicate it.)
                if !matches!(control, WireMessage::Accusation { .. }) {
                    let ack = WireMessage::Ack { msg_id: frame.seq };
                    self.send_frame(frame.src, ack, false, out);
                }
                if !self.reliable.accept(frame.src, frame.seq, self.now) {
                    return;
                }
            }
        }
        match frame.msg {
            WireMessage::Data { packet, epoch } => self.handle_data(frame.src, packet, epoch, out),
            WireMessage::Ack { msg_id } => {
                self.reliable.on_ack(msg_id);
            }
            WireMessage::Pik2(message) => self.handle_evidence(frame.src, message, out),
            WireMessage::Alert(alert) => {
                let sig_ok = alert.verify(&self.keys);
                out.events.push(LiveEvent::AlertReceived {
                    by: self.id,
                    origin: alert.suspicion.raised_by,
                    segment: alert.suspicion.segment,
                    sig_ok,
                });
            }
            WireMessage::Accusation { segment, .. } => {
                out.events.push(LiveEvent::AccusationReceived {
                    by: self.id,
                    from: frame.src,
                    segment,
                });
            }
            WireMessage::LinkState { update, sig } => {
                if verify_link_state(&self.keys, &update, &sig) && self.apply_ls(&update, &sig, out)
                {
                    // Freshly applied: re-flood to every up neighbour
                    // except the hop it came from and its origin.
                    self.flood_ls(&update, &sig, Some(frame.src), out);
                }
            }
        }
    }

    fn handle_data(&mut self, from: RouterId, packet: Packet, epoch: u64, out: &mut Outputs) {
        let time = SimTime::from_ns(self.now);
        // Packets injected under an older route epoch drain without being
        // tapped: their upstream observations were recorded by monitors
        // that no longer exist, so tapping them here would misattribute
        // in-flight traffic across the transition.
        let current = epoch == self.convergence.view().epoch;
        if current {
            let (router, from) = (self.id, Some(from));
            let tap = TapEvent::Arrived {
                router,
                from,
                packet,
                time,
            };
            self.tap(tap, &mut out.trace);
        } else {
            self.metrics.untapped_drained.inc();
        }
        if packet.dst == self.id {
            self.metrics.data_delivered.inc();
            return;
        }
        if self
            .traffic
            .drops(self.now / self.cfg.tau.as_nanos() as u64)
        {
            self.metrics.data_dropped.inc();
            return;
        }
        let mut packet = packet;
        if packet.ttl == 0 {
            return; // a transition-induced loop ends here, not in livelock
        }
        packet.ttl -= 1;
        // Forward along the pair's current path; packets stranded by a
        // reroute (this router is no longer on the path) fall back to the
        // static link-state tables so they drain instead of vanishing.
        let next_hop = match self.forward_hop(packet.src, packet.dst, Some(from)) {
            Some(h) => h,
            None => {
                self.metrics.transition_forward_miss.inc();
                match self.routes.next_hop(self.id, packet.dst) {
                    Some(h) => h,
                    None => return,
                }
            }
        };
        if current {
            self.enqueued(next_hop, packet, &mut out.trace);
        }
        self.send_frame(next_hop, WireMessage::Data { packet, epoch }, false, out);
    }

    /// Originates a signed link-state update: applies it locally, then
    /// floods it reliably to every up neighbour.
    fn originate_ls(&mut self, update: TopoUpdate, out: &mut Outputs) {
        let ls = LinkStateUpdate {
            origin: self.id,
            update_seq: self.ls_seq,
            t_origin_ns: self.now,
            update,
        };
        self.ls_seq += 1;
        let sig = sign_link_state(&self.keys, &ls);
        self.apply_ls(&ls, &sig, out);
        self.flood_ls(&ls, &sig, None, out);
    }

    /// Reliably sends `ls` to every neighbour this router's view has up,
    /// over a link it has up, except `except` and the update's origin.
    fn flood_ls(
        &mut self,
        ls: &LinkStateUpdate,
        sig: &Signature,
        except: Option<RouterId>,
        out: &mut Outputs,
    ) {
        let overlay = &self.convergence.view().overlay;
        let targets: Vec<RouterId> = (overlay.base().neighbors(self.id).iter())
            .map(|&(n, _)| n)
            .filter(|&n| n != ls.origin && Some(n) != except && !overlay.is_router_down(n))
            .filter(|&n| !overlay.is_link_down(self.id, n))
            .collect();
        for n in targets {
            self.send_ls(n, ls, sig, out);
        }
    }

    fn send_ls(&mut self, to: RouterId, ls: &LinkStateUpdate, sig: &Signature, out: &mut Outputs) {
        let (update, sig) = (ls.clone(), *sig);
        self.send_frame(to, WireMessage::LinkState { update, sig }, true, out);
        self.metrics.ls_updates_sent.inc();
    }

    /// Takes in a signature-verified link-state update: if it is fresh,
    /// the view is derived anew from the database, reliable delivery and
    /// the metrics follow, and routes, segments and monitors are rebuilt
    /// iff the route epoch changed. Returns whether the update was fresh
    /// (and should be re-flooded).
    fn apply_ls(&mut self, ls: &LinkStateUpdate, sig: &Signature, out: &mut Outputs) -> bool {
        // Only a monitoring end may convict its own segment — a
        // compromised router cannot excise arbitrary fabric.
        if matches!(&ls.update, TopoUpdate::ExcludeSegment(seg)
            if seg.source() != ls.origin && seg.sink() != ls.origin)
        {
            return false;
        }
        let view = self.convergence.view();
        let (before, isolated) = (view.epoch, view.pinpointed.len());
        if !self.convergence.insert(ls, sig) {
            return false;
        }
        self.metrics.ls_updates_applied.inc();
        let isolated = self.convergence.view().pinpointed.len() - isolated;
        self.metrics.routers_isolated.add(isolated as u64);
        match ls.update {
            // A `RouterDown` that arrives behind a newer `RouterUp` leaves
            // the router up, and the frames tracked toward it alone.
            TopoUpdate::RouterDown(r)
                if r != self.id && self.convergence.view().overlay.is_router_down(r) =>
            {
                let purged = self.reliable.purge_peer(r);
                self.metrics.purged_frames.add(purged as u64);
            }
            TopoUpdate::RouterUp { router, .. } if router != self.id => {
                // Frames tracked toward its previous incarnation were
                // sealed under retired keys; drop them, and reopen the
                // dedup space for its fresh sequence numbers.
                let purged = self.reliable.purge_peer(router);
                self.metrics.purged_frames.add(purged as u64);
                self.reliable.forget_peer_history(router);
                let base = self.convergence.view().overlay.base();
                if base.neighbors(self.id).iter().any(|&(n, _)| n == router) {
                    // A restarted neighbour lost its link-state DB with the
                    // crash.
                    self.resync(router, out);
                }
            }
            // A link of this router's came back: what either end flooded
            // while it was down never crossed it.
            TopoUpdate::LinkUp(a, b) if a == self.id || b == self.id => {
                self.resync(if a == self.id { b } else { a }, out);
            }
            _ => {}
        }
        if self.convergence.view().epoch != before {
            self.rebuild(ls.t_origin_ns, out);
        }
        out.trace.record(
            self.now,
            TraceKind::LinkStateApplied,
            u32::from(self.id),
            ls.t_origin_ns / self.cfg.tau.as_nanos() as u64,
            u64::from(u32::from(ls.origin)),
        );
        out.events.push(LiveEvent::LinkStateApplied {
            by: self.id,
            origin: ls.origin,
            update_seq: ls.update_seq,
            epoch: self.convergence.view().epoch,
        });
        if ls.origin != self.id && self.convergence.view().overlay.is_router_down(self.id) {
            // Reported down while up — a peer's deliveries failed over a
            // path this router never heard was broken: it says otherwise.
            let (router, incarnation) = (self.id, self.incarnation);
            self.originate_ls(
                TopoUpdate::RouterUp {
                    router,
                    incarnation,
                },
                out,
            );
        }
        true
    }

    /// Database resync: sends neighbour `peer` every update this router
    /// holds that `peer` did not originate, so it reconverges onto the
    /// fabric's current shape.
    fn resync(&mut self, peer: RouterId, out: &mut Outputs) {
        let db: Vec<_> = (self.convergence.database())
            .filter(|(db_ls, _)| db_ls.origin != peer)
            .cloned()
            .collect();
        for (db_ls, db_sig) in &db {
            self.send_ls(peer, db_ls, db_sig, out);
        }
    }

    /// Reconverges this router onto a changed topology overlay: recomputes
    /// the forwarding paths, re-derives the Πk+2 segment set from the
    /// rerouted monitor paths and retargets the monitors (keeping their
    /// registry-backed metric handles). Traffic in flight carries the
    /// epoch it was injected under and drains untapped.
    fn rebuild(&mut self, t_origin_ns: u64, out: &mut Outputs) {
        self.flush_observations();
        let plan = (self.convergence).plan(&self.monitor_pairs, &self.flow_pairs, self.cfg.k);
        let monitored = MonitorPlan::new(plan.segments, plan.oracle, &self.keys);
        self.monitors = self.monitors.retarget(monitored);
        self.paths = Arc::new(plan.paths);
        // Cross-epoch summary state is void: the segments it described no
        // longer exist, and the amnesty window covers the gap.
        self.pik2.replan(self.monitors.segments());
        self.obs_buf.clear();
        self.metrics.epoch_transitions.inc();
        let latency = self.now.saturating_sub(t_origin_ns);
        self.metrics.reroute_latency_ns.record(latency);
        let (by, epoch) = (u32::from(self.id), self.convergence.view().epoch);
        (out.trace).record(self.now, TraceKind::EpochTransition, by, NO_ROUND, epoch);
    }

    /// Performs step `step` of this router's churn script. Runs even while
    /// the router is dead — a restart has to.
    fn churn_step(&mut self, step: usize, out: &mut Outputs) {
        let ev = self.churn[step];
        let by = u32::from(self.id);
        (out.trace).record(self.now, TraceKind::ChurnEvent, by, NO_ROUND, step as u64);
        match ev.action {
            ChurnAction::LinkDown(peer) => {
                self.originate_ls(TopoUpdate::LinkDown(self.id, peer), out);
            }
            ChurnAction::LinkUp(peer) => {
                self.originate_ls(TopoUpdate::LinkUp(self.id, peer), out);
            }
            ChurnAction::Leave => {
                self.originate_ls(TopoUpdate::RouterDown(self.id), out);
                self.alive = false;
            }
            ChurnAction::Crash => {
                self.alive = false;
            }
            ChurnAction::Join | ChurnAction::Restart => {
                if ev.action == ChurnAction::Restart {
                    // The crash lost all volatile protocol state. The key
                    // authority bumps the incarnation — the shared KeyStore
                    // re-derives every pairwise key, fencing the previous
                    // incarnation's traffic — and the router returns with
                    // an empty link-state DB (neighbours resync it) and a
                    // fresh sequence space disjoint from its old one.
                    self.incarnation += 1;
                    self.keys
                        .set_incarnation(u32::from(self.id), self.incarnation);
                    self.next_seq = u64::from(self.incarnation) << 48;
                    self.reliable = Retransmitter::new(RELIABLE);
                    self.convergence.reset();
                    self.metrics.probation_admitted.inc();
                    let sketch = self.cfg.summary.sketch();
                    self.pik2 = Pik2Node::new(self.id, self.monitors.segments(), sketch);
                    self.obs_buf.clear();
                }
                self.alive = true;
                // A restart's own `RouterUp` puts this router on probation,
                // which the reset overlay never has: the epoch moves and
                // `rebuild` drops the records from before the crash.
                let (router, incarnation) = (self.id, self.incarnation);
                self.originate_ls(
                    TopoUpdate::RouterUp {
                        router,
                        incarnation,
                    },
                    out,
                );
            }
            ChurnAction::ReportDown(r) => {
                if !self.convergence.view().overlay.is_router_down(r) {
                    self.originate_ls(TopoUpdate::RouterDown(r), out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::FLOW_LEAD_NS;
    use crate::runtime::{DropperSpec, FlowSpec};
    use crate::timer::Schedule;
    use fatih_core::monitor::Report;
    use fatih_core::policy::Thresholds;
    use fatih_obs::{MetricsRegistry, TraceJournal};
    use fatih_sim::{FlowId, PacketId, PacketKind};
    use fatih_topology::builtin;
    use fatih_validation::digest::ContentDigest;

    /// A 3-line of routers stepped by hand, with no shard, socket or
    /// clock: its one monitored segment ⟨0, 1, 2⟩ has routers 0 and 2 as
    /// ends. Every step reads `now`, records are written with chosen
    /// timestamps, and every frame a step sends is stepped into its
    /// destination at once, so window edges can be hit to the nanosecond.
    /// Routers are stepped with a timeout at their own deadlines, or, off
    /// their schedule, by calling a handler directly.
    struct Line3 {
        routers: Vec<Router>,
        out: Outputs,
        registry: MetricsRegistry,
        ids: Vec<RouterId>,
        /// The instant every step is given.
        now: u64,
        /// Every frame delivered so far, as (destination, bytes).
        delivered: Vec<(RouterId, Vec<u8>)>,
        /// Not yet recorded: (time, event) per end, upstream first, in
        /// time order.
        pending: [Vec<(u64, TapEvent)>; 2],
        packets: u64,
    }

    const TAU: u64 = 200_000_000;
    const LAG: u64 = 50_000_000;
    const BUDGET: u64 = 100_000_000;

    impl Line3 {
        /// No traffic of its own: what the ends record is planned.
        fn new(summary: SummaryMode) -> Self {
            Self::with(&LiveSpec::default(), summary, false)
        }

        /// Monitors the one pair (0, 2), whatever `spec`'s flows.
        fn with(spec: &LiveSpec, summary: SummaryMode, response: bool) -> Self {
            let topo = builtin::line(3);
            let cfg = LiveConfig {
                tau: Duration::from_nanos(TAU),
                exchange_budget: Duration::from_nanos(BUDGET),
                maturity_lag: Duration::from_nanos(LAG),
                rounds: 10,
                thresholds: Thresholds::default(),
                response,
                summary,
                ..LiveConfig::default()
            };
            let registry = MetricsRegistry::new();
            let metrics = NetMetrics::registered(&registry);
            let ids: Vec<RouterId> = topo.routers().collect();
            let (routers, _) = routers(&topo, spec, &[(ids[0], ids[2])], &cfg, &metrics);
            Self {
                routers,
                out: Outputs::new(TraceBuffer::new(0, 1 << 16)),
                registry,
                ids,
                now: 0,
                delivered: Vec::new(),
                pending: [Vec::new(), Vec::new()],
                packets: 0,
            }
        }

        /// Plans packets by (time router 0 forwards it, time router 2
        /// receives it — `None`: lost on the way), in nanoseconds.
        fn plan(&mut self, stamps: &[(u64, Option<u64>)]) {
            for &(t_up, t_down) in stamps {
                self.packets += 1;
                let id = PacketId(self.packets);
                let packet = Packet {
                    id,
                    src: self.ids[0],
                    dst: self.ids[2],
                    flow: FlowId(0),
                    kind: PacketKind::Data,
                    size: 800,
                    seq: self.packets,
                    payload_tag: Packet::expected_tag(id),
                    ttl: Packet::DEFAULT_TTL,
                    created_at: SimTime::from_ns(t_up),
                };
                self.pending[0].push((
                    t_up,
                    TapEvent::Enqueued {
                        router: self.ids[0],
                        next_hop: self.ids[1],
                        packet,
                        time: SimTime::from_ns(t_up),
                        queue_len_after: 0,
                    },
                ));
                if let Some(t) = t_down {
                    self.pending[1].push((
                        t,
                        TapEvent::Arrived {
                            router: self.ids[2],
                            from: Some(self.ids[1]),
                            packet,
                            time: SimTime::from_ns(t),
                        },
                    ));
                }
            }
            for end in &mut self.pending {
                end.sort_by_key(|&(t, _)| t);
            }
        }

        /// Plans packets router 2 receives at each of `times`, in
        /// nanoseconds, that router 0 never forwarded: fabrications.
        fn fabricate(&mut self, times: &[u64]) {
            for &t in times {
                self.packets += 1;
                let id = PacketId(self.packets);
                let packet = Packet {
                    id,
                    src: self.ids[0],
                    dst: self.ids[2],
                    flow: FlowId(0),
                    kind: PacketKind::Data,
                    size: 800,
                    seq: self.packets,
                    payload_tag: Packet::expected_tag(id),
                    ttl: Packet::DEFAULT_TTL,
                    created_at: SimTime::from_ns(t),
                };
                let (router, from, time) = (self.ids[2], Some(self.ids[1]), SimTime::from_ns(t));
                let arrived = TapEvent::Arrived {
                    router,
                    from,
                    packet,
                    time,
                };
                self.pending[1].push((t, arrived));
            }
            self.pending[1].sort_by_key(|&(t, _)| t);
        }

        /// The clock reaches `now`: both ends record what was planned up
        /// to then.
        fn advance(&mut self, now: u64) {
            self.now = now;
            for (end, node) in [(0, 0), (1, 2)] {
                let due = self.pending[end].partition_point(|&(t, _)| t <= now);
                let evs: Vec<TapEvent> = self.pending[end].drain(..due).map(|(_, ev)| ev).collect();
                self.routers[node].monitors.observe_batch(&evs);
            }
        }

        /// Steps router `node` with `input` now, and whatever that sets
        /// off runs its course.
        fn step(&mut self, node: usize, input: Input<'_>) {
            self.routers[node].step(self.now, input, &mut self.out);
            self.settle();
        }

        /// Router `node`'s deadline is `at`: the clock moves on to it,
        /// unless it is past already, and the router is stepped with a
        /// timeout.
        fn timeout_at(&mut self, node: usize, at: u64) {
            assert_eq!(self.routers[node].deadline(), Some(at), "router {node}");
            self.advance(at.max(self.now));
            self.step(node, Input::Timeout);
        }

        fn round_end(&mut self, node: usize, r: u64) {
            self.timeout_at(node, (r + 1) * TAU);
        }

        fn round_eval(&mut self, node: usize, r: u64) {
            self.timeout_at(node, (r + 1) * TAU + BUDGET);
        }

        /// Runs `handler` on router `node` now, off its schedule, and
        /// whatever that sets off runs its course.
        fn by_hand(&mut self, node: usize, handler: impl FnOnce(&mut Router, &mut Outputs)) {
            let router = &mut self.routers[node];
            router.now = self.now;
            handler(router, &mut self.out);
            self.settle();
        }

        /// A whole round at both ends, the clock standing at the
        /// evaluation deadline by the end of it.
        fn round(&mut self, r: u64) {
            self.advance((r + 1) * TAU);
            self.round_end(0, r);
            self.round_end(2, r);
            self.advance((r + 1) * TAU + BUDGET);
            self.round_eval(0, r);
            self.round_eval(2, r);
        }

        /// Delivers frames, the latest sent first, until nobody has
        /// anything left to say.
        fn settle(&mut self) {
            while let Some((dst, at)) = self.out.frames.pop() {
                // The last frame's bytes end the buffer.
                let bytes = self.out.bytes[at.clone()].to_vec();
                self.out.bytes.truncate(at.start);
                let input = Input::Frame(&bytes);
                self.routers[dst.index()].step(self.now, input, &mut self.out);
                self.delivered.push((dst, bytes));
            }
        }

        /// One initial timeout later, every router whose pump is due by
        /// then sends again whatever is still unacknowledged.
        fn pump(&mut self) {
            self.now += RELIABLE.rto_ns;
            for node in 0..self.routers.len() {
                if self.routers[node].pump_at.is_some_and(|t| t <= self.now) {
                    self.step(node, Input::Timeout);
                }
            }
        }

        /// Steps every router with a timeout at its deadline — the
        /// earliest first, and at one instant in index order — until the
        /// next one lies past `until`.
        fn run_until(&mut self, until: u64) {
            loop {
                let due = (0..self.routers.len())
                    .filter_map(|i| Some((self.routers[i].deadline()?, i)))
                    .min();
                let Some((at, node)) = due.filter(|&(at, _)| at <= until) else {
                    break;
                };
                self.advance(at.max(self.now));
                self.step(node, Input::Timeout);
            }
            self.advance(until.max(self.now));
        }

        fn counter(&self, name: &str) -> u64 {
            self.registry.snapshot().counter(name)
        }

        /// The one monitored segment, ⟨0, 1, 2⟩.
        fn segment(&self) -> PathSegment {
            self.routers[0].monitors.segments()[0].clone()
        }

        /// Router `from` sends `msg` reliably to router `to`, and whatever
        /// that sets off runs its course.
        fn send(&mut self, from: usize, to: usize, msg: WireMessage) {
            let (dst, router) = (self.ids[to], &mut self.routers[from]);
            router.now = self.now;
            router.send_frame(dst, msg, true, &mut self.out);
            self.settle();
        }

        /// (passed, lost, fabricated) of every evaluation since the last
        /// call.
        fn verdicts(&mut self) -> Vec<(bool, usize, usize)> {
            self.out
                .events
                .drain(..)
                .filter_map(|e| match e {
                    LiveEvent::RoundEvaluated {
                        passed,
                        lost,
                        fabricated,
                        ..
                    } => Some((passed, lost, fabricated)),
                    _ => None,
                })
                .collect()
        }
    }

    /// One route computation under the live host: on a ring the antipodal
    /// flow has two equally cheap routes, and every router plans the one
    /// the link-state tables take. A transit router that has lost the
    /// pair's path (a stale placement mid-transition) therefore drains the
    /// packet along the planned route, not the other way round the ring.
    #[test]
    fn the_drain_table_forwards_along_the_planned_route() {
        let topo = builtin::ring(8);
        let ids: Vec<RouterId> = topo.routers().collect();
        let (s, d) = (ids[1], ids[5]);
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(s, d, 800, Duration::from_secs(1))],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig::default();
        let registry = MetricsRegistry::new();
        let metrics = NetMetrics::registered(&registry);
        let (mut nodes, _) = routers(&topo, &spec, &flow_pairs(&spec), &cfg, &metrics);
        let planned = topo.link_state_routes().path(s, d).unwrap();
        for node in &nodes {
            assert_eq!(node.paths[&(s, d)], planned, "at {}", node.id);
        }

        let transit = &mut nodes[planned.routers()[1].index()];
        transit.paths = Arc::default();
        let id = PacketId(1);
        let packet = Packet {
            id,
            src: s,
            dst: d,
            flow: FlowId(0),
            kind: PacketKind::Data,
            size: 800,
            seq: 1,
            payload_tag: Packet::expected_tag(id),
            ttl: Packet::DEFAULT_TTL,
            created_at: SimTime::ZERO,
        };
        let epoch = transit.convergence.view().epoch;
        let mut out = Outputs::new(TraceBuffer::new(0, 1));
        transit.handle_data(s, packet, epoch, &mut out);
        assert_eq!(
            registry.snapshot().counter("net.transition_forward_miss"),
            1
        );
        let sent_to: Vec<RouterId> = out.frames.iter().map(|&(dst, _)| dst).collect();
        assert_eq!(sent_to, [planned.routers()[2]]);
    }

    /// A deployment's monitors cost what each router records: on a
    /// 128-router ISP-like graph every router's set holds a record for
    /// exactly the (router, segment) pairs it ends, none for the rest of
    /// the network, and all of them share the one plan, whose keys are
    /// derived once, one per segment.
    #[test]
    fn each_router_records_only_the_segments_it_ends() {
        let topo = builtin::isp_like("isp", 128, 128 * 972 / 315, 45, 0xF00D ^ 128);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: (0..8)
                .map(|i| FlowSpec::new(ids[i * 3], ids[127 - i * 5], 800, Duration::from_millis(8)))
                .collect(),
            ..LiveSpec::default()
        };
        let metrics = NetMetrics::registered(&MetricsRegistry::new());
        let cfg = LiveConfig::default();
        let (nodes, segments) = routers(&topo, &spec, &flow_pairs(&spec), &cfg, &metrics);
        assert!(segments.len() > 8, "{} segments", segments.len());
        let plan = nodes[0].monitors.segments();
        assert_eq!(plan, &segments[..]);
        let mut ends = 0;
        for node in &nodes {
            let shared = std::ptr::eq(node.monitors.segments(), plan);
            assert!(shared, "one plan, one key per segment");
            let mut held: Vec<(RouterId, usize)> = node.monitors.recorded().collect();
            held.sort_unstable();
            let ended: Vec<(RouterId, usize)> = (segments.iter().enumerate())
                .filter(|(_, seg)| seg.source() == node.id || seg.sink() == node.id)
                .map(|(i, _)| (node.id, i))
                .collect();
            assert_eq!(held, ended, "at {}", node.id);
            ends += ended.len();
        }
        assert_eq!(ends, 2 * segments.len(), "every segment has two ends");
    }

    /// A router's behaviour is a function of the `(now, input)` sequence
    /// it is given. Two deployments built from one spec are driven by
    /// frames and by timeouts at each router's own deadlines — a dropper's
    /// flow, a Reconcile-mode round whose digests do not resolve, so the
    /// ends pull, judge, convict and flood the exclusion, then a
    /// crash-restart and the pumps after it — and say the same, byte for
    /// byte: every frame, every event, every trace record.
    #[test]
    fn routers_stepped_alike_say_the_same() {
        let ids: Vec<RouterId> = builtin::line(3).routers().collect();
        let restart = TAU + BUDGET + 1_000_000;
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[2], 800, Duration::from_millis(1))],
            droppers: vec![DropperSpec {
                router: ids[1],
                rate: 0.5,
                seed: 7,
                active_from: 0,
            }],
            churn: vec![ChurnEvent {
                at: Duration::from_nanos(restart),
                actor: ids[1],
                action: ChurnAction::Restart,
            }],
            ..LiveSpec::default()
        };
        let run = || {
            let mut net = Line3::with(&spec, SummaryMode::Reconcile { capacity: 4 }, true);
            net.run_until(restart + RELIABLE.rto_ns);
            let trace = TraceJournal::from_buffers([net.out.trace.clone()]);
            let events = format!("{:?}", net.out.events);
            (net, events, trace.events().iter().collect::<Vec<_>>())
        };
        let (a, a_events, a_trace) = run();
        let (b, b_events, b_trace) = run();
        for name in [
            "net.data_dropped",
            "net.digest_fallbacks",
            "net.accusations_raised",
            "net.ls_updates_applied",
            "net.probation_admitted",
        ] {
            assert!(a.counter(name) > 0, "{name}: the schedule missed it");
        }
        assert!(a.delivered == b.delivered, "frames differ");
        assert_eq!(a_events, b_events);
        assert_eq!(a_trace, b_trace);
    }

    fn pik2(round: u64, segment: PathSegment, evidence: Evidence) -> WireMessage {
        WireMessage::Pik2(Message {
            round,
            segment,
            evidence,
        })
    }

    /// Both ends evaluated, passed, and found nothing amiss.
    const CLEAN: [(bool, usize, usize); 2] = [(true, 0, 0); 2];

    /// Packets stamped a nanosecond either side of every window edge —
    /// `c_{r−1} − lag` (where the held window opens), `c_{r−1}` (where the
    /// judged one opens), `c_r` (where it closes) — at either end or
    /// straddling it, with transits from nothing to just short of the
    /// lag: zero tolerance, both modes, nothing lost, nothing fabricated,
    /// and in Reconcile mode never a fallback.
    #[test]
    fn packets_at_the_window_edges_are_judged_exactly_once() {
        for summary in [SummaryMode::Full, SummaryMode::Reconcile { capacity: 32 }] {
            let mut net = Line3::new(summary);
            let rounds = 4;
            let mut edges = vec![];
            for r in 0..rounds {
                let c = (r + 1) * TAU - LAG;
                edges.extend([c - LAG, c]);
            }
            let mut planned = 0;
            for &b in &edges {
                let stamps = [
                    (b - 1, Some(b - 1)),
                    (b - 1, Some(b)),
                    (b - 1, Some(b + 1)),
                    (b, Some(b)),
                    (b, Some(b + 1)),
                    (b + 1, Some(b + 2)),
                    (b + 1 - LAG, Some(b)),
                    (b + 2 - LAG, Some(b + 1)),
                    (b - 1, Some(b - 2 + LAG)),
                    (b, Some(b - 1 + LAG)),
                    (b + 1, Some(b + LAG)),
                ];
                planned += stamps.len();
                net.plan(&stamps);
            }
            for r in 0..rounds {
                net.round(r);
                assert_eq!(net.verdicts(), CLEAN, "{summary:?} round {r}");
            }
            assert_eq!(net.counter("net.summary_timeouts"), 0);
            if summary != SummaryMode::Full {
                assert_eq!(net.counter("net.digests_resolved"), 2 * rounds);
                assert_eq!(net.counter("net.digest_fallbacks"), 0);
            }
            // Every packet was recorded at both ends, and all but the last
            // window's worth is forgotten.
            assert_eq!(net.counter("monitor.records"), 2 * planned as u64);
            let held: usize = net.routers.iter().map(|n| n.monitors.held()).sum();
            assert_eq!(
                net.counter("monitor.records") - net.counter("monitor.entries_pruned"),
                held as u64
            );
            assert!(held < planned, "{held} of {planned} still held");
        }
    }

    /// A drop is counted in the one round whose judged window holds the
    /// upstream observation, at both ends alike, and in no later round.
    #[test]
    fn a_lost_packet_is_counted_in_exactly_one_round() {
        let mut net = Line3::new(SummaryMode::Full);
        // Round 1 judges (150 ms, 350 ms]: one loss just inside its
        // window, one just past it, traffic either side.
        net.plan(&[
            (100_000_000, Some(101_000_000)),
            (150_000_001, None),
            (200_000_000, Some(201_000_000)),
            (350_000_001, None),
            (400_000_000, Some(401_000_000)),
        ]);
        let mut lost = vec![];
        for r in 0..4 {
            net.round(r);
            let verdicts = net.verdicts();
            assert!(verdicts.iter().all(|v| v.2 == 0), "round {r}: {verdicts:?}");
            lost.push(verdicts.iter().map(|v| v.1).sum::<usize>());
        }
        // Each end reports the loss once.
        assert_eq!(lost, [0, 2, 2, 0]);
    }

    /// A peer on another shard can fire its round timer first: its digest
    /// for round r then reaches this node before this node's own
    /// `round_end(r)`. The host reads the window off the round in the
    /// frame, so it is counted as resolved all the same (what it resolves
    /// to is `fatih-core`'s `pik2_node` table's business).
    #[test]
    fn a_digest_that_arrives_before_the_own_round_end_resolves() {
        let mut net = Line3::new(SummaryMode::Reconcile { capacity: 32 });
        let stamps: Vec<_> = (1..120u64)
            .map(|i| (i * 5_000_000, Some(i * 5_000_000 + 1_000_000)))
            .collect();
        net.plan(&stamps);
        for r in 0..3 {
            net.advance((r + 1) * TAU);
            net.by_hand(0, |n, out| n.round_end(r, out));
            assert_eq!(net.counter("net.digests_resolved"), 2 * r + 1, "round {r}");
            net.by_hand(2, |n, out| n.round_end(r, out));
            assert_eq!(net.counter("net.digests_resolved"), 2 * r + 2, "round {r}");
            net.by_hand(0, |n, out| n.round_eval(r, out));
            net.by_hand(2, |n, out| n.round_eval(r, out));
        }
        assert_eq!(net.counter("net.summary_timeouts"), 0);
        assert_eq!(net.counter("net.digest_fallbacks"), 0);
        assert_eq!(net.counter("net.stale_summaries"), 0);
    }

    /// A summary or pull for a round the receiver has already evaluated is
    /// acked, counted and dropped, not answered from a pruned record.
    #[test]
    fn frames_for_an_evaluated_round_are_dropped_and_counted() {
        let mut net = Line3::new(SummaryMode::Full);
        net.plan(&[(10_000_000, Some(11_000_000))]);
        // Router 2 evaluates round 0 without having heard from router 0
        // (a timeout accusation, which is not the point here) ...
        net.round_end(2, 0);
        net.round_eval(2, 0);
        assert_eq!(net.counter("net.summary_timeouts"), 1);
        // ... and then router 0's round end comes, late, and its summary
        // for that round turns up (router 0 evaluates the round at once).
        net.round_end(0, 0);
        assert_eq!(net.counter("net.stale_summaries"), 1);

        // So does a pull for it: no summary goes back.
        let sent = net.counter("net.frames_sent");
        let segment = net.segment();
        net.send(0, 2, pik2(0, segment, Evidence::Pull));
        assert_eq!(net.counter("net.stale_summaries"), 2);
        assert_eq!(
            net.counter("net.frames_sent"),
            sent + 2,
            "the pull, its ack"
        );
        // Both frames were acked, so nothing is retransmitted.
        net.pump();
        assert_eq!(net.counter("net.retransmits"), 0);

        // The round after is live again.
        net.plan(&[(210_000_000, Some(211_000_000))]);
        net.verdicts();
        net.round(1);
        assert_eq!(net.verdicts(), CLEAN);
        assert_eq!(net.counter("net.stale_summaries"), 2);
    }

    /// The frame seal says who sent a frame, not what they may say: only a
    /// segment's other end is heard on it. Router 1 sits inside ⟨0, 1, 2⟩,
    /// holds valid keys, and tells both ends what it likes about the
    /// segment: every frame is acked, counted as foreign and ignored.
    #[test]
    fn a_segment_end_hears_evidence_from_its_other_end_only() {
        let mut net = Line3::new(SummaryMode::Full);
        let stamps: Vec<_> = (1..40u64)
            .map(|i| (i * 3_000_000, Some(i * 3_000_000 + 1_000_000)))
            .collect();
        net.plan(&stamps);
        net.advance(TAU);
        net.round_end(0, 0);
        net.round_end(2, 0);
        let (round, segment) = (0, net.segment());

        // A forged (empty) summary after the genuine one does not replace
        // it: taken in, either end would read its whole record as lost or
        // fabricated.
        for end in [0, 2] {
            let forged = Evidence::Summary(Report::default());
            net.send(1, end, pik2(round, segment.clone(), forged));
        }
        assert_eq!(net.counter("net.foreign_summaries"), 2);

        // A forged digest is neither resolved nor pulled after (resolved,
        // its verdict would take the summary's place).
        let empty = ContentDigest::of(&Report::default().to_content(), 64);
        let forged = Evidence::Digest {
            judged: empty.clone(),
            held: empty,
        };
        net.send(1, 2, pik2(round, segment.clone(), forged));
        assert_eq!(net.counter("net.digests_resolved"), 0);
        assert_eq!(net.counter("net.digest_fallbacks"), 0);

        // A pull by a third party gets no record back.
        let sent = net.counter("net.frames_sent");
        net.send(1, 2, pik2(round, segment, Evidence::Pull));
        assert_eq!(
            net.counter("net.frames_sent"),
            sent + 2,
            "the pull, its ack"
        );
        assert_eq!(net.counter("net.foreign_summaries"), 4);

        net.round_eval(0, 0);
        net.round_eval(2, 0);
        assert_eq!(net.verdicts(), CLEAN);
        net.pump();
        assert_eq!(net.counter("net.retransmits"), 0, "every frame was acked");
    }

    /// Nor does the seal say a frame is well-formed. Router 0 — the
    /// segment's other end, pairwise key and all — sends router 2 a summary
    /// whose report claims 1 + 2^62 entries over one entry's bytes: a
    /// decode failure, counted, and the shard goes on to judge the round.
    #[test]
    fn a_crafted_report_from_the_other_end_is_a_decode_failure() {
        let mut net = Line3::new(SummaryMode::Full);
        net.plan(&[(10_000_000, Some(11_000_000))]);
        net.advance(TAU);
        let one_entry = net.routers[0].monitors.report(net.ids[0], 0);
        assert_eq!(one_entry.len(), 1);
        let frame = Frame {
            src: net.ids[0],
            dst: net.ids[2],
            seq: 1 << 40,
            msg: pik2(0, net.segment(), Evidence::Summary(one_entry)),
        };
        let keys = &net.routers[0].keys;
        let mut bytes = crate::codec::encode_frame(&frame, keys).unwrap();
        bytes.truncate(bytes.len() - fatih_crypto::frame::MAC_LEN);
        // The report is the body's last field: a count, then 20 bytes.
        let count = bytes.len() - 28;
        bytes[count..count + 8].copy_from_slice(&(1u64 + (1 << 62)).to_le_bytes());
        fatih_crypto::frame::seal_frame(&keys.pairwise_key(0, 2), &mut bytes);

        let failures = net.counter("net.decode_failures");
        net.step(2, Input::Frame(&bytes));
        assert_eq!(net.counter("net.decode_failures"), failures + 1);
        net.round(0);
        assert_eq!(net.verdicts(), CLEAN);
    }

    /// The host's part of purging: once a router is reported down, what
    /// was being retransmitted to it is dropped and counted, and the pump
    /// sends it nothing more.
    #[test]
    fn a_router_reported_down_is_owed_no_retransmissions() {
        let mut net = Line3::new(SummaryMode::Full);
        let (dst, segment) = (net.ids[2], net.segment());
        let pull = pik2(0, segment, Evidence::Pull);
        let (node, out) = (&mut net.routers[0], &mut net.out);
        node.send_frame(dst, pull, true, out);
        node.originate_ls(TopoUpdate::RouterDown(dst), out);
        // Nobody has acknowledged anything yet. A second later, of the two
        // frames router 0 sent only the update it flooded to router 1 is
        // sent again.
        node.now += 1_000_000_000;
        node.pump(out);
        assert_eq!(net.counter("net.purged_frames"), 1);
        assert_eq!(net.counter("net.retransmits"), 1);
    }

    /// A router told it is down while it is up says otherwise. Router 0
    /// reports router 1 down, as an exhausted delivery would, and floods
    /// the report to nobody (its one neighbour is the one it reports);
    /// a link of router 0's coming back resyncs router 1's database, and
    /// the `RouterUp` router 1 answers with puts it back in every view.
    /// Its incarnation is one every view has seen, so the answer puts
    /// nobody on probation: not at a first incarnation, nor one that
    /// crashed, restarted and served its probation before the report.
    #[test]
    fn a_router_reported_down_while_up_refutes_it() {
        for restarted in [false, true] {
            let ids: Vec<RouterId> = builtin::line(3).routers().collect();
            let spec = LiveSpec {
                flows: vec![FlowSpec::new(ids[0], ids[2], 800, Duration::from_secs(1))],
                churn: vec![ChurnEvent {
                    at: Duration::from_millis(1),
                    actor: ids[1],
                    action: ChurnAction::Restart,
                }],
                ..LiveSpec::default()
            };
            let mut net = Line3::with(&spec, SummaryMode::Full, false);
            let (r0, r1) = (net.ids[0], net.ids[1]);
            let up = |net: &Line3| -> Vec<bool> {
                (net.routers.iter())
                    .map(|n| !n.convergence.view().overlay.is_router_down(r1))
                    .collect()
            };
            let on_probation = |net: &Line3| -> Vec<bool> {
                (net.routers.iter())
                    .map(|n| n.convergence.view().probation.contains_key(&r1))
                    .collect()
            };
            if restarted {
                net.timeout_at(1, 1_000_000);
                assert_eq!(on_probation(&net), [true; 3]);
                net.out.events.clear();
            }
            // Five rounds on, long past any probation.
            net.now = 5 * TAU + 1_000_000;
            let (node, out) = (&mut net.routers[0], &mut net.out);
            node.now = net.now;
            node.originate_ls(TopoUpdate::RouterDown(r1), out);
            net.settle();
            assert_eq!(up(&net), [false, true, true], "restarted: {restarted}");

            net.now += 1_000_000;
            let (node, out) = (&mut net.routers[0], &mut net.out);
            node.now = net.now;
            node.originate_ls(TopoUpdate::LinkUp(r0, r1), out);
            net.settle();
            assert_eq!(up(&net), [true; 3], "restarted: {restarted}");
            assert_eq!(on_probation(&net), [false; 3], "restarted: {restarted}");
            let ups = (net.out.events.iter())
                .filter(
                    |e| matches!(e, LiveEvent::LinkStateApplied { origin, .. } if *origin == r1),
                )
                .count();
            assert_eq!(ups, 3, "router 1's RouterUp, applied by all three");
        }
    }

    /// A flow that ran late by several intervals sends at once and resumes
    /// on its own phase: two stalled flows must not end up ticking together.
    #[test]
    fn a_stalled_flow_resumes_on_its_own_phase() {
        let ids: Vec<RouterId> = builtin::line(3).routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[2], 800, Duration::from_secs(1))],
            ..LiveSpec::default()
        };
        let mut line = Line3::with(&spec, SummaryMode::Full, false);
        let node = &mut line.routers[0];
        let interval = node.traffic.flows[0].spec.interval.as_nanos() as u64;
        let phase = FLOW_LEAD_NS + 123;
        node.cfg.rounds = 1_000; // still injecting three seconds in
        line.now = 3_000_000_000;
        node.traffic.flows[0].next_due = phase;

        let before = line.now;
        let next_due = |line: &Line3| line.routers[0].traffic.flows[0].next_due;
        line.by_hand(0, |n, out| n.flow_tick(0, out));
        let next = next_due(&line);
        let sent = line.routers[0].traffic.flows[0].sent;
        assert_eq!(sent, 1, "the late tick itself sends");
        assert_eq!((next - phase) % interval, 0, "left its phase");
        assert!(next <= line.now, "the latest missed tick is due now");
        assert!(next + interval > before, "skipped a tick still to come");
        // Caught up, the period is exact again.
        line.by_hand(0, |n, out| n.flow_tick(0, out));
        assert_eq!(next_due(&line), next + interval);
    }

    /// A frame nobody acks is resent in `[rto, rto + PUMP_STEP_NS]` after
    /// its send: the pump the send arms finds it not yet due and re-arms,
    /// and the next one resends it.
    #[test]
    fn an_unacked_frame_is_resent_between_rto_and_rto_plus_a_pump_step() {
        let mut net = Line3::new(SummaryMode::Full);
        let retransmits = |net: &Line3| net.counter("net.retransmits");
        assert_eq!(PUMP_STEP_NS * 2, RELIABLE.rto_ns);
        net.routers[2].alive = false;
        net.plan(&[(10_000_000, Some(11_000_000))]);
        net.round_end(0, 0);
        let sent = net.now;
        assert_eq!(net.routers[0].deadline(), Some(sent + PUMP_STEP_NS));

        net.timeout_at(0, sent + PUMP_STEP_NS);
        assert_eq!(retransmits(&net), 0, "not yet rto after the send");
        let next = net.routers[0].deadline();
        assert_eq!(
            next,
            Some(sent + 2 * PUMP_STEP_NS),
            "still awaited: re-armed"
        );
        net.timeout_at(0, sent + 2 * PUMP_STEP_NS);
        assert!(retransmits(&net) > 0, "resent by rto + PUMP_STEP_NS");
        assert_eq!(net.routers[0].deadline(), Some(net.now + PUMP_STEP_NS));
    }

    /// Driven as a host drives routers — one [`Schedule`] of their
    /// deadlines, each due one stepped as [`Schedule::next_due`] says — every
    /// router is stepped exactly at its deadlines, never before, and the
    /// stale entry of a pump whose ack came in the meantime steps nobody.
    /// Router 2 is down when round 0 ends, so router 0's summary goes
    /// unacked and arms its pump; router 2 comes back and the summary's
    /// copy reaches it a millisecond later, and its ack disarms the pump.
    #[test]
    fn a_router_is_never_stepped_before_its_deadline_and_a_stale_entry_steps_nobody() {
        let mut net = Line3::new(SummaryMode::Full);
        net.plan(&[
            (10_000_000, Some(11_000_000)),
            (210_000_000, Some(211_000_000)),
        ]);
        let mut schedule = Schedule::new(3);
        let mut steps: Vec<Vec<u64>> = vec![Vec::new(); 3];
        // Every entry popped steps its router or is stale.
        let mut popped = 0;
        let mut drive = |net: &mut Line3, until: u64| loop {
            for i in 0..3 {
                schedule.arm(i, net.routers[i].deadline());
            }
            let Some(at) = schedule.next_deadline().filter(|&t| t <= until) else {
                break;
            };
            net.advance(at);
            while let Some(i) = schedule.next_due(at, |i| {
                popped += 1;
                net.routers[i].deadline()
            }) {
                net.step(i, Input::Timeout);
                steps[i].push(at);
            }
        };
        net.routers[2].alive = false;
        drive(&mut net, TAU);
        let summary = (net.delivered.iter().rev())
            .find(|(dst, _)| *dst == net.ids[2])
            .map(|(_, bytes)| bytes.clone())
            .expect("router 0's summary");
        assert!(
            net.routers[0].deadline() < Some(TAU + BUDGET),
            "a pump is armed"
        );

        net.routers[2].alive = true;
        net.now = TAU + 1_000_000;
        net.step(2, Input::Frame(&summary));
        assert_eq!(net.routers[0].deadline(), Some(TAU + BUDGET), "acked");
        drive(&mut net, 3 * TAU);

        let stepped: usize = steps.iter().map(Vec::len).sum();
        assert_eq!(popped - stepped, 1, "the pump's entry is the one stale");
        let due = [TAU, TAU + BUDGET, 2 * TAU, 2 * TAU + BUDGET, 3 * TAU];
        for (node, at) in steps.iter().enumerate() {
            assert_eq!(at, &due, "router {node}");
        }
        assert_eq!(net.counter("net.retransmits"), 0);
        let fired = net.out.trace.recorded(TraceKind::TimerFired);
        assert_eq!(fired, 3 * due.len() as u64, "one record a step");
    }

    /// A packet sent every 5 ms from 5 ms to `until_ms`, with a 1 ms
    /// transit, lost where `lost(sent_ms)` says so: Line3 stamps.
    fn steady(until_ms: u64, lost: impl Fn(u64) -> bool) -> Vec<(u64, Option<u64>)> {
        (1..=until_ms / 5)
            .map(|k| {
                let t = k * 5 * MS;
                (t, (!lost(k * 5)).then_some(t + MS))
            })
            .collect()
    }

    const MS: u64 = 1_000_000;

    /// A dropper that loses more than a sketch resolves, from 200 ms on
    /// (in round 1, after round 0's held window): the digests do not
    /// certify and neither end holds a whole record, so each judges the
    /// onset round on its certified counts — a lost bound
    /// `|J_up| − |H_down|` that breaks the zero tolerance and never
    /// exceeds the 23 packets really lost — and convicts in that round.
    /// The pulls are notices, acknowledged and never read as ⊥.
    #[test]
    fn a_dropper_above_capacity_is_convicted_on_the_count_bound_in_its_onset_round() {
        let mut net = Line3::new(SummaryMode::Reconcile { capacity: 4 });
        // Round 1 judges (150 ms, 350 ms]: three packets in four sent
        // after 200 ms are lost.
        let onset = |t: u64| t > 200 && t <= 350 && !t.is_multiple_of(20);
        net.plan(&steady(1000, onset));
        net.round(0);
        assert_eq!(net.verdicts(), CLEAN);
        net.round(1);
        let verdicts = net.verdicts();
        assert_eq!(verdicts.len(), 2);
        for (passed, lost, fabricated) in verdicts {
            assert!(!passed && lost > 0 && lost <= 23 && fabricated == 0);
        }
        assert_eq!(net.counter("net.rounds_bounded"), 2);
        assert_eq!(net.counter("net.digest_fallbacks"), 2);
        for r in 2..4 {
            net.round(r);
            assert!(net.verdicts().iter().all(|v| v.0), "round {r}");
        }
        assert_eq!(net.counter("net.summary_timeouts"), 0);
    }

    /// A round whose losses and fabrications cancel in the counts, six of
    /// each, beyond what a sketch of 4 resolves: it passes on the bounds,
    /// and its pulls put the segment in dispute at both ends. The first
    /// round whose held window opens after the notice (round 3: 500 ms >
    /// 400 ms) is held whole; the same attack there is pulled and judged
    /// exactly, and convicted.
    #[test]
    fn cancelling_differences_pass_on_the_bounds_and_the_next_whole_round_convicts() {
        let mut net = Line3::new(SummaryMode::Reconcile { capacity: 4 });
        // Six losses and six fabrications mid-window in rounds 1 and 3.
        let lossy = |t: u64| (211..=270).contains(&(t % 400)) && t.is_multiple_of(10) && t < 800;
        net.plan(&steady(1000, lossy));
        let forged: Vec<u64> = [222, 232, 242, 252, 262, 267]
            .into_iter()
            .flat_map(|t| [t * MS, (t + 400) * MS])
            .collect();
        net.fabricate(&forged);
        let whole = |net: &Line3, r| {
            let window = net.routers[0].window(r);
            [0, 2].map(|i| net.routers[i].monitors.holds_whole(net.ids[i], 0, window))
        };
        net.round(0);
        assert_eq!(net.verdicts(), CLEAN);
        net.round(1);
        assert_eq!(net.verdicts(), CLEAN, "passes on the bounds");
        assert_eq!(net.counter("net.rounds_bounded"), 2);
        assert_eq!((whole(&net, 2), whole(&net, 3)), ([false; 2], [true; 2]));
        net.round(2);
        assert_eq!(net.verdicts(), CLEAN);
        net.round(3);
        assert_eq!(net.verdicts(), [(false, 6, 6); 2], "judged exactly");
        assert_eq!(net.counter("net.rounds_bounded"), 2);
        assert_eq!(net.counter("net.summary_timeouts"), 0);
    }

    /// The deployment's `monitor.segments_in_dispute` figures: now, the
    /// most ever, and at finish.
    fn disputes(net: &Line3) -> [f64; 2] {
        let snap = net.registry.snapshot();
        let at = |name| snap.gauge(name);
        [
            at("monitor.segments_in_dispute"),
            at("monitor.segments_in_dispute_max"),
        ]
    }

    /// An honest round with twelve benign drops, under a loss allowance
    /// of 30: more than a digest prefix certifies, less than the capacity
    /// of 32. Each end's prefix fails, each escalates once to its full
    /// digests, and both reach the exact verdict — no pull, no bound, no
    /// dispute, no suspicion.
    #[test]
    fn benign_drops_past_the_prefix_escalate_once_per_end_to_the_exact_verdict() {
        let mut net = Line3::new(SummaryMode::Reconcile { capacity: 32 });
        for router in &mut net.routers {
            router.cfg.thresholds.loss = 30;
        }
        // Round 1 judges (150 ms, 350 ms]: the packets sent every 10 ms
        // from 210 ms to 320 ms are lost.
        let benign = |t: u64| t > 200 && t <= 320 && t.is_multiple_of(10);
        net.plan(&steady(1000, benign));
        net.round(0);
        assert_eq!(net.verdicts(), CLEAN);
        assert_eq!(net.counter("net.digest_escalations"), 0);
        net.round(1);
        assert_eq!(net.verdicts(), [(true, 12, 0); 2], "judged exactly");
        assert_eq!(net.counter("net.digest_escalations"), 2, "once per end");
        for r in 2..4 {
            net.round(r);
            assert_eq!(net.verdicts(), CLEAN, "round {r}");
        }
        assert_eq!(net.counter("net.digest_escalations"), 2);
        // Three rounds' prefixes, and round 1's full digests.
        assert_eq!(net.counter("net.digests_resolved"), 2 * 3 + 2);
        assert_eq!(net.counter("net.digest_fallbacks"), 0);
        assert_eq!(net.counter("net.rounds_bounded"), 0);
        assert_eq!(net.counter("net.accusations_raised"), 0);
        assert_eq!(disputes(&net), [0.0; 2]);
    }

    /// A dropper that loses 23 packets in its onset round against a
    /// capacity of 8: the counts alone say the full digests cannot
    /// certify, so each end pulls on the prefix, as a full digest would
    /// have made it: no escalation, the count bound, both ends in
    /// dispute, and the suspicion in the onset round.
    #[test]
    fn a_dropper_past_the_capacity_is_pulled_without_escalating() {
        let mut net = Line3::new(SummaryMode::Reconcile { capacity: 8 });
        let onset = |t: u64| t > 200 && t <= 350 && !t.is_multiple_of(20);
        net.plan(&steady(1000, onset));
        net.round(0);
        assert_eq!(net.verdicts(), CLEAN);
        net.round(1);
        let suspected: Vec<u64> = (net.out.events.iter())
            .filter_map(|e| match e {
                LiveEvent::SuspicionRaised { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        assert_eq!(suspected, [1, 1], "both ends, in the onset round");
        for (passed, lost, fabricated) in net.verdicts() {
            assert!(!passed && lost > 0 && lost <= 23 && fabricated == 0);
        }
        assert_eq!(net.counter("net.digest_escalations"), 0);
        assert_eq!(net.counter("net.digest_fallbacks"), 2);
        assert_eq!(net.counter("net.rounds_bounded"), 2);
        assert_eq!(disputes(&net), [2.0; 2]);
    }

    /// A digest larger than the receiver's configured capacity is refused
    /// before anything is reconciled — an empty one would be pulled — with
    /// no resolution, pull or escalation, and no reply but the ack. The
    /// genuine prefix then judges the round.
    #[test]
    fn a_digest_above_the_configured_capacity_is_refused() {
        let mut net = Line3::new(SummaryMode::Reconcile { capacity: 32 });
        let stamps: Vec<_> = (1..40u64)
            .map(|i| (i * 3_000_000, Some(i * 3_000_000 + 1_000_000)))
            .collect();
        net.plan(&stamps);
        net.advance(TAU);
        let sent = net.counter("net.frames_sent");
        let oversized = Evidence::Digest {
            judged: ContentDigest::empty(33),
            held: ContentDigest::empty(33),
        };
        net.send(0, 2, pik2(0, net.segment(), oversized));
        assert_eq!(
            net.counter("net.frames_sent"),
            sent + 2,
            "the digest, its ack"
        );
        for name in [
            "net.digests_resolved",
            "net.digest_fallbacks",
            "net.digest_escalations",
        ] {
            assert_eq!(net.counter(name), 0, "{name}");
        }
        net.round_end(0, 0);
        net.round_end(2, 0);
        net.round_eval(0, 0);
        net.round_eval(2, 0);
        assert_eq!(net.verdicts(), CLEAN);
        assert_eq!(net.counter("net.digests_resolved"), 2);
    }
}
