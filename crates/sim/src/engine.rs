//! The discrete-event network engine.
//!
//! Models the data plane of §4.1: hop-by-hop forwarding over directional
//! links with output-buffered interfaces, under link-state routes with
//! deterministic tie-breaks. Compromised routers alter their *own
//! forwarding behaviour* per the configured [`Attack`]s (§2.2.1); the
//! response mechanism is modeled with per-pair route overrides (the policy
//! routing of §5.3.1).
//!
//! All simulation is deterministic for a given seed: events are ordered by
//! `(time, sequence-number)` and randomness comes from one seeded RNG.

use crate::agent::AgentState;
use crate::attack::{Attack, AttackAction, AttackKind};
use crate::fault::FaultPlan;
use crate::packet::{FlowId, Packet, PacketId, PacketKind};
use crate::queue::{Offer, OutputQueueState, QueueDiscipline};
use crate::tap::{DropReason, GroundTruth, SimMetrics, TapEvent};
use crate::time::SimTime;
use fatih_topology::{Path, RouterId, Routes, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Internal event kinds.
#[derive(Debug, Clone)]
pub(crate) enum EventKind {
    /// Packet arrives at a router after link propagation.
    Arrive {
        at: RouterId,
        from: Option<RouterId>,
        packet: Packet,
    },
    /// A transmission on `from → to` completes.
    TxComplete { from: RouterId, to: RouterId },
    /// An agent timer fires.
    AgentTimer { agent: usize, token: u64 },
    /// A maliciously delayed packet resumes forwarding.
    DelayedForward {
        at: RouterId,
        next: RouterId,
        packet: Packet,
    },
}

#[derive(Debug)]
struct EventEntry {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Runtime state of one directional link.
#[derive(Debug)]
struct LinkRt {
    params: fatih_topology::LinkParams,
    queue: OutputQueueState,
    fifo: VecDeque<Packet>,
    busy: bool,
}

/// Installed fault plan plus its dedicated RNG, so fault decisions never
/// perturb the traffic RNG stream (runs with and without faults stay
/// comparable packet-for-packet).
#[derive(Debug)]
struct FaultRt {
    plan: FaultPlan,
    rng: StdRng,
}

/// A control-plane message handed up to the destination router's protocol
/// stack (the simulator's equivalent of a socket delivery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlDelivery {
    /// Originating router.
    pub from: RouterId,
    /// Destination router (where it was delivered).
    pub to: RouterId,
    /// The network-level packet id.
    pub id: PacketId,
    /// Opaque protocol sequence value given to `send_control`.
    pub seq: u64,
    /// Delivery time.
    pub at: SimTime,
    /// Whether the payload passed its integrity check — corrupted
    /// messages are handed up flagged so transports treat them as losses.
    pub intact: bool,
}

/// The simulated network.
///
/// # Examples
///
/// ```
/// use fatih_sim::{Network, SimTime};
/// use fatih_topology::builtin;
///
/// let mut net = Network::new(builtin::line(3), 42);
/// let a = net.topology().router_by_name("n0").unwrap();
/// let c = net.topology().router_by_name("n2").unwrap();
/// let flow = net.add_cbr_flow(a, c, 1000, SimTime::from_ms(1),
///                             SimTime::ZERO, Some(SimTime::from_ms(100)));
/// net.run_until(SimTime::from_secs(1), |_ev| {});
/// assert!(net.delivered_on_flow(flow) > 90);
/// ```
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    routes: Routes,
    overrides: BTreeMap<(RouterId, RouterId), Path>,
    now: SimTime,
    next_seq: u64,
    events: BinaryHeap<Reverse<EventEntry>>,
    links: BTreeMap<(RouterId, RouterId), LinkRt>,
    attacks: BTreeMap<RouterId, Vec<Attack>>,
    pub(crate) rng: StdRng,
    skews: Vec<i64>,
    metrics: SimMetrics,
    pub(crate) agents: Vec<AgentState>,
    flow_agent: BTreeMap<FlowId, usize>,
    delivered_per_flow: BTreeMap<FlowId, u64>,
    next_packet_id: u64,
    next_flow_id: u32,
    pending_taps: Vec<TapEvent>,
    fault: Option<FaultRt>,
    control_flows: BTreeMap<RouterId, FlowId>,
    control_inbox: Vec<ControlDelivery>,
}

impl Network {
    /// Builds a network over `topo` with drop-tail queues sized from each
    /// link's `queue_limit_bytes`, and a deterministic RNG seed.
    pub fn new(topo: Topology, seed: u64) -> Self {
        let routes = topo.link_state_routes();
        let mut links = BTreeMap::new();
        for l in topo.links() {
            links.insert(
                (l.from, l.to),
                LinkRt {
                    params: l.params,
                    queue: OutputQueueState::new(
                        QueueDiscipline::DropTail,
                        l.params.queue_limit_bytes,
                        l.params.bandwidth_bps,
                    ),
                    fifo: VecDeque::new(),
                    busy: false,
                },
            );
        }
        let n = topo.router_count();
        Self {
            topo,
            routes,
            overrides: BTreeMap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            events: BinaryHeap::new(),
            links,
            attacks: BTreeMap::new(),
            rng: StdRng::seed_from_u64(seed),
            skews: vec![0; n],
            metrics: SimMetrics::default(),
            agents: Vec::new(),
            flow_agent: BTreeMap::new(),
            delivered_per_flow: BTreeMap::new(),
            next_packet_id: 0,
            next_flow_id: 0,
            pending_taps: Vec::new(),
            fault: None,
            control_flows: BTreeMap::new(),
            control_inbox: Vec::new(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The stable link-state routes (before any overrides).
    pub fn routes(&self) -> &Routes {
        &self.routes
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Ground-truth counters.
    pub fn ground_truth(&self) -> GroundTruth {
        self.metrics.snapshot()
    }

    /// Re-homes the engine's ground-truth counters into `reg` (under
    /// `sim.*` names), carrying over anything already counted, so registry
    /// snapshots taken by a harness include the simulator's ground truth.
    pub fn attach_metrics(&mut self, reg: &fatih_obs::MetricsRegistry) {
        self.metrics.register_into(reg);
    }

    /// Packets delivered on one flow.
    pub fn delivered_on_flow(&self, flow: FlowId) -> u64 {
        self.delivered_per_flow.get(&flow).copied().unwrap_or(0)
    }

    /// Replaces the queue discipline of the `from → to` interface
    /// (occupancy must be zero, i.e. configure before running).
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist or traffic already flowed.
    pub fn set_queue_discipline(
        &mut self,
        from: RouterId,
        to: RouterId,
        discipline: QueueDiscipline,
    ) {
        let link = self
            .links
            .get_mut(&(from, to))
            .unwrap_or_else(|| panic!("no link {from} -> {to}"));
        assert_eq!(link.queue.len_bytes(), 0, "queue already in use");
        link.queue = OutputQueueState::new(
            discipline,
            link.params.queue_limit_bytes,
            link.params.bandwidth_bps,
        );
    }

    /// Installs the attack set of a compromised router (replacing any
    /// previous set). An empty vector restores correct behaviour.
    pub fn set_attacks(&mut self, router: RouterId, attacks: Vec<Attack>) {
        if attacks.is_empty() {
            self.attacks.remove(&router);
        } else {
            self.attacks.insert(router, attacks);
        }
    }

    /// Installs a policy-routing override for one (source, destination)
    /// pair: packets of that pair follow `path` instead of the link-state
    /// route (§5.3.1's response mechanism).
    ///
    /// # Panics
    ///
    /// Panics if the path's ends don't match the pair.
    pub fn set_route_override(&mut self, src: RouterId, dst: RouterId, path: Path) {
        assert_eq!(path.source(), src, "override path source mismatch");
        assert_eq!(path.sink(), dst, "override path sink mismatch");
        self.overrides.insert((src, dst), path);
    }

    /// Hands the (source, destination) pair back its link-state route.
    pub fn clear_route_override(&mut self, src: RouterId, dst: RouterId) {
        self.overrides.remove(&(src, dst));
    }

    /// Installs (or clears) the environmental fault plan. Fault decisions
    /// draw from a dedicated RNG seeded from the plan, so the same traffic
    /// seed with different fault seeds perturbs only the control plane.
    /// Composable with [`set_attacks`](Self::set_attacks): a run may have
    /// both a compromised router and a faulty environment.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan.map(|plan| FaultRt {
            rng: StdRng::seed_from_u64(plan.seed() ^ 0x0FA1_7000),
            plan,
        });
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| &f.plan)
    }

    /// Sends a protocol control message from `src` to `dst` as a
    /// first-class simulated packet ([`PacketKind::Control`]): it is
    /// routed, queued and transmitted like any datagram, experiences
    /// attacks and injected faults, and on delivery is handed up via
    /// [`take_control_deliveries`](Self::take_control_deliveries). `seq`
    /// is an opaque value for the sending protocol (transports encode
    /// message ids in it). A message sent by a crashed router is lost
    /// immediately.
    pub fn send_control(&mut self, src: RouterId, dst: RouterId, size: u32, seq: u64) -> PacketId {
        let flow = match self.control_flows.get(&src) {
            Some(&f) => f,
            None => {
                let f = FlowId(self.next_flow_id);
                self.next_flow_id += 1;
                self.control_flows.insert(src, f);
                f
            }
        };
        self.inject(src, dst, flow, PacketKind::Control, size, seq)
    }

    /// Drains every control message delivered since the last call, in
    /// delivery order.
    pub fn take_control_deliveries(&mut self) -> Vec<ControlDelivery> {
        std::mem::take(&mut self.control_inbox)
    }

    pub(crate) fn push_control_delivery(&mut self, packet: &Packet) {
        self.control_inbox.push(ControlDelivery {
            from: packet.src,
            to: packet.dst,
            id: packet.id,
            seq: packet.seq,
            at: self.now,
            intact: packet.intact(),
        });
    }

    /// Sets a router's clock skew in nanoseconds (positive = fast clock).
    pub fn set_clock_skew(&mut self, router: RouterId, skew_ns: i64) {
        self.skews[router.index()] = skew_ns;
    }

    /// The router-local reading of the current time.
    pub fn local_time(&self, router: RouterId) -> SimTime {
        self.now.with_skew(self.skews[router.index()])
    }

    /// Current occupancy of the `from → to` output queue, in bytes.
    pub fn queue_len(&self, from: RouterId, to: RouterId) -> u32 {
        self.links
            .get(&(from, to))
            .map(|l| l.queue.len_bytes())
            .unwrap_or(0)
    }

    /// RED average of the `from → to` queue, if that queue is RED.
    pub fn red_avg(&self, from: RouterId, to: RouterId) -> Option<f64> {
        self.links.get(&(from, to)).and_then(|l| l.queue.red_avg())
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    pub(crate) fn schedule(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse(EventEntry {
            time: at,
            seq,
            kind,
        }));
    }

    /// Runs the simulation until `t_end`, feeding every observation to
    /// `tap`. May be called repeatedly with increasing horizons — the
    /// Chapter 5/6 protocols interleave validation rounds this way.
    pub fn run_until<F: FnMut(&TapEvent)>(&mut self, t_end: SimTime, tap: F) {
        self.advance(t_end, false, tap);
    }

    /// [`run_until`](Self::run_until), but returning early — at the
    /// instant of the event — once an event has handed a control message
    /// up, so a host can answer it at that instant. Returns whether it
    /// stopped for one; the deliveries wait in
    /// [`take_control_deliveries`](Self::take_control_deliveries).
    pub fn run_until_control<F: FnMut(&TapEvent)>(&mut self, t_end: SimTime, tap: F) -> bool {
        self.advance(t_end, true, tap)
    }

    fn advance<F: FnMut(&TapEvent)>(
        &mut self,
        t_end: SimTime,
        to_control: bool,
        mut tap: F,
    ) -> bool {
        while let Some(Reverse(top)) = self.events.peek() {
            if top.time > t_end {
                break;
            }
            let Reverse(entry) = self.events.pop().expect("peeked");
            self.now = entry.time;
            self.dispatch(entry.kind);
            for ev in std::mem::take(&mut self.pending_taps) {
                tap(&ev);
            }
            if to_control && !self.control_inbox.is_empty() {
                return true;
            }
        }
        if self.now < t_end {
            self.now = t_end;
        }
        false
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrive { at, from, packet } => self.handle_arrival(at, from, packet),
            EventKind::TxComplete { from, to } => self.handle_tx_complete(from, to),
            EventKind::AgentTimer { agent, token } => self.handle_agent_timer(agent, token),
            EventKind::DelayedForward { at, next, packet } => self.enqueue(at, next, packet),
        }
    }

    pub(crate) fn emit(&mut self, ev: TapEvent) {
        match &ev {
            TapEvent::Injected { .. } => self.metrics.injected.inc(),
            TapEvent::Delivered { packet, .. } => {
                self.metrics.delivered.inc();
                if packet.kind != PacketKind::Control {
                    self.metrics.data_delivered.inc();
                }
                *self.delivered_per_flow.entry(packet.flow).or_insert(0) += 1;
            }
            TapEvent::Dropped { reason, .. } => match reason {
                DropReason::Congestion { .. } => self.metrics.congestive_drops.inc(),
                DropReason::Malicious => self.metrics.malicious_drops.inc(),
                DropReason::TtlExpired => self.metrics.ttl_drops.inc(),
                DropReason::NoRoute => self.metrics.no_route_drops.inc(),
                DropReason::Fault => self.metrics.fault_drops.inc(),
            },
            _ => {}
        }
        self.pending_taps.push(ev);
    }

    // ------------------------------------------------------------------
    // Forwarding
    // ------------------------------------------------------------------

    fn handle_arrival(&mut self, at: RouterId, from: Option<RouterId>, packet: Packet) {
        // A crashed router loses everything reaching it, control and data
        // alike — the benign-fault half of the §2.2.1 taxonomy.
        if self
            .fault
            .as_ref()
            .is_some_and(|f| f.plan.router_down(at, self.now))
        {
            self.emit(TapEvent::Dropped {
                router: at,
                next_hop: None,
                packet,
                reason: DropReason::Fault,
                time: self.now,
                queue_len: 0,
            });
            return;
        }
        self.emit(TapEvent::Arrived {
            router: at,
            from,
            packet,
            time: self.now,
        });
        if at == packet.dst {
            self.emit(TapEvent::Delivered {
                router: at,
                packet,
                time: self.now,
            });
            self.deliver_to_agent(packet);
            return;
        }
        self.forward(at, packet, from);
    }

    /// Injects a freshly built packet at its source.
    pub(crate) fn inject(
        &mut self,
        src: RouterId,
        dst: RouterId,
        flow: FlowId,
        kind: PacketKind,
        size: u32,
        seq: u64,
    ) -> PacketId {
        let id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        let packet = Packet {
            id,
            src,
            dst,
            flow,
            kind,
            size,
            seq,
            payload_tag: id.0.wrapping_mul(0x9E3779B97F4A7C15),
            ttl: Packet::DEFAULT_TTL,
            created_at: self.now,
        };
        self.emit(TapEvent::Injected {
            router: src,
            packet,
            time: self.now,
        });
        if src == dst {
            self.emit(TapEvent::Delivered {
                router: dst,
                packet,
                time: self.now,
            });
            self.deliver_to_agent(packet);
        } else {
            self.forward(src, packet, None);
        }
        id
    }

    fn next_hop_for(
        &self,
        at: RouterId,
        from: Option<RouterId>,
        packet: &Packet,
    ) -> Option<RouterId> {
        if let Some(p) = self.overrides.get(&(packet.src, packet.dst)) {
            if let Some(next) = p.next_hop(at, from) {
                return Some(next);
            }
            // Router not on the override path (e.g. packet was in flight
            // through the old route when the override landed): fall back to
            // the link-state route from here.
        }
        self.routes.next_hop(at, packet.dst)
    }

    /// Forwards `packet` on from `at`, which it reached from `from` (`None`:
    /// its source injects it).
    fn forward(&mut self, at: RouterId, mut packet: Packet, from: Option<RouterId>) {
        let is_source = from.is_none();
        if !is_source {
            if packet.ttl == 0 {
                self.emit(TapEvent::Dropped {
                    router: at,
                    next_hop: None,
                    packet,
                    reason: DropReason::TtlExpired,
                    time: self.now,
                    queue_len: 0,
                });
                return;
            }
            packet.ttl -= 1;
        }
        let Some(mut next) = self.next_hop_for(at, from, &packet) else {
            self.emit(TapEvent::Dropped {
                router: at,
                next_hop: None,
                packet,
                reason: DropReason::NoRoute,
                time: self.now,
                queue_len: 0,
            });
            return;
        };

        // A compromised router attacks only transit traffic: terminal
        // routers are assumed correct for traffic they originate (§2.1.4).
        if !is_source {
            match self.evaluate_attacks(at, next, &packet) {
                AttackAction::Forward => {}
                AttackAction::Drop => {
                    let qlen = self.queue_len(at, next);
                    self.emit(TapEvent::Dropped {
                        router: at,
                        next_hop: Some(next),
                        packet,
                        reason: DropReason::Malicious,
                        time: self.now,
                        queue_len: qlen,
                    });
                    return;
                }
                AttackAction::Modify => {
                    packet.payload_tag ^= 0x6D61_6C69_6369_6F75;
                    self.metrics.modified.inc();
                }
                AttackAction::Delay(extra) => {
                    let when = self.now + extra;
                    self.schedule(when, EventKind::DelayedForward { at, next, packet });
                    return;
                }
                AttackAction::Misroute => {
                    let alt = self
                        .topo
                        .neighbors(at)
                        .iter()
                        .map(|(n, _)| *n)
                        .find(|&n| n != next);
                    match alt {
                        Some(a) => {
                            self.metrics.misrouted.inc();
                            next = a;
                        }
                        None => {
                            // Nowhere to divert: the attack degenerates to
                            // a drop.
                            let qlen = self.queue_len(at, next);
                            self.emit(TapEvent::Dropped {
                                router: at,
                                next_hop: Some(next),
                                packet,
                                reason: DropReason::Malicious,
                                time: self.now,
                                queue_len: qlen,
                            });
                            return;
                        }
                    }
                }
            }
        }
        self.enqueue(at, next, packet);
    }

    fn evaluate_attacks(&mut self, at: RouterId, next: RouterId, packet: &Packet) -> AttackAction {
        let Some(attacks) = self.attacks.get(&at) else {
            return AttackAction::Forward;
        };
        // Clone the small attack list so `self.rng` and queue state can be
        // consulted without aliasing `self.attacks`.
        let attacks = attacks.clone();
        for a in &attacks {
            if !a.victims.matches(packet) {
                continue;
            }
            let action = match a.kind {
                AttackKind::Drop { fraction } => {
                    if self.rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                        Some(AttackAction::Drop)
                    } else {
                        None
                    }
                }
                AttackKind::DropWhenQueueAbove { fill, fraction } => {
                    let link = self.links.get(&(at, next));
                    let filled = link
                        .map(|l| l.queue.fill_fraction() >= fill)
                        .unwrap_or(false);
                    if filled && self.rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                        Some(AttackAction::Drop)
                    } else {
                        None
                    }
                }
                AttackKind::DropWhenAvgQueueAbove {
                    avg_bytes,
                    fraction,
                } => {
                    let link = self.links.get(&(at, next));
                    let triggered = link
                        .and_then(|l| l.queue.red_avg())
                        .map(|avg| avg >= avg_bytes)
                        .unwrap_or(false);
                    if triggered && self.rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                        Some(AttackAction::Drop)
                    } else {
                        None
                    }
                }
                AttackKind::Modify { fraction } => {
                    if self.rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                        Some(AttackAction::Modify)
                    } else {
                        None
                    }
                }
                AttackKind::Delay { extra, fraction } => {
                    if self.rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                        Some(AttackAction::Delay(extra))
                    } else {
                        None
                    }
                }
                AttackKind::Misroute { fraction } => {
                    if self.rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                        Some(AttackAction::Misroute)
                    } else {
                        None
                    }
                }
            };
            if let Some(act) = action {
                return act;
            }
        }
        AttackAction::Forward
    }

    fn enqueue(&mut self, from: RouterId, to: RouterId, mut packet: Packet) {
        let now = self.now;
        // Environmental faults act at the egress, before queueing:
        // structural outages (flaps, crashes) hit every packet, the
        // probabilistic faults only the control plane. Decisions are
        // computed first so the fault RNG borrow ends before emitting.
        if self.fault.is_some() {
            let (lose, corrupt, duplicate, reorder_extra) = {
                let f = self.fault.as_mut().expect("checked");
                let mut lose = f.plan.link_down(from, to, now) || f.plan.router_down(from, now);
                let mut corrupt = false;
                let mut duplicate = false;
                let mut reorder_extra = None;
                if !lose && packet.kind == PacketKind::Control {
                    let lf = f.plan.link_faults(from, to, now);
                    if !lf.is_none() {
                        lose = lf.loss > 0.0 && f.rng.gen_bool(lf.loss);
                        if !lose {
                            corrupt = lf.corrupt > 0.0 && f.rng.gen_bool(lf.corrupt);
                            duplicate = lf.duplicate > 0.0 && f.rng.gen_bool(lf.duplicate);
                            if lf.reorder > 0.0 && f.rng.gen_bool(lf.reorder) {
                                let span = lf.reorder_delay.as_ns().max(2);
                                reorder_extra = Some(SimTime::from_ns(f.rng.gen_range(1..span)));
                            }
                        }
                    }
                }
                (lose, corrupt, duplicate, reorder_extra)
            };
            if lose {
                let qlen = self.queue_len(from, to);
                self.emit(TapEvent::Dropped {
                    router: from,
                    next_hop: Some(to),
                    packet,
                    reason: DropReason::Fault,
                    time: now,
                    queue_len: qlen,
                });
                return;
            }
            if corrupt {
                packet.payload_tag ^= 0xFA17_C0DE;
                self.metrics.fault_corrupted.inc();
            }
            if duplicate || reorder_extra.is_some() {
                // Ghost copies and held-back packets bypass the queue and
                // arrive after the full link latency, so they are not
                // re-rolled against the fault probabilities (one network
                // traversal, one set of fault decisions).
                let link = self.links.get(&(from, to)).expect("link exists");
                let latency = SimTime::from_ns(link.params.tx_time_ns(packet.size))
                    + SimTime::from_ns(link.params.delay_ns);
                if duplicate {
                    self.metrics.fault_duplicated.inc();
                    self.schedule(
                        now + latency,
                        EventKind::Arrive {
                            at: to,
                            from: Some(from),
                            packet,
                        },
                    );
                }
                if let Some(extra) = reorder_extra {
                    self.schedule(
                        now + latency + extra,
                        EventKind::Arrive {
                            at: to,
                            from: Some(from),
                            packet,
                        },
                    );
                    return;
                }
            }
        }
        let link = self
            .links
            .get_mut(&(from, to))
            .unwrap_or_else(|| panic!("no link {from} -> {to}"));
        // One draw per early-drop offer and none otherwise: every RED
        // figure is this RNG stream.
        let dropped = match link.queue.offer(packet.size, now) {
            Offer::Accept => None,
            Offer::Forced => Some(1.0),
            Offer::Early(p) => self.rng.gen_bool(p).then_some(p),
        };
        let Some(drop_probability) = dropped else {
            link.queue.commit_enqueue(packet.size);
            link.fifo.push_back(packet);
            let qlen = link.queue.len_bytes();
            self.emit(TapEvent::Enqueued {
                router: from,
                next_hop: to,
                packet,
                time: now,
                queue_len_after: qlen,
            });
            self.try_start_tx(from, to);
            return;
        };
        link.queue.commit_drop();
        let (red_avg, qlen) = (link.queue.red_avg(), link.queue.len_bytes());
        self.emit(TapEvent::Dropped {
            router: from,
            next_hop: Some(to),
            packet,
            reason: DropReason::Congestion {
                red_avg,
                drop_probability,
            },
            time: now,
            queue_len: qlen,
        });
    }

    fn try_start_tx(&mut self, from: RouterId, to: RouterId) {
        let link = self.links.get_mut(&(from, to)).expect("link exists");
        if link.busy {
            return;
        }
        let Some(head) = link.fifo.front() else {
            return;
        };
        link.busy = true;
        let tx = SimTime::from_ns(link.params.tx_time_ns(head.size));
        let when = self.now + tx;
        self.schedule(when, EventKind::TxComplete { from, to });
    }

    fn handle_tx_complete(&mut self, from: RouterId, to: RouterId) {
        let link = self.links.get_mut(&(from, to)).expect("link exists");
        let packet = link.fifo.pop_front().expect("tx of empty queue");
        link.queue.commit_dequeue(packet.size, self.now);
        link.busy = false;
        let delay = SimTime::from_ns(link.params.delay_ns);
        self.emit(TapEvent::Transmitted {
            router: from,
            next_hop: to,
            packet,
            time: self.now,
        });
        let when = self.now + delay;
        self.schedule(
            when,
            EventKind::Arrive {
                at: to,
                from: Some(from),
                packet,
            },
        );
        self.try_start_tx(from, to);
    }

    /// Allocates a fresh flow id and binds it to an agent slot.
    pub(crate) fn register_flow(&mut self, agent: usize) -> FlowId {
        let flow = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        self.flow_agent.insert(flow, agent);
        flow
    }

    pub(crate) fn agent_for_flow(&self, flow: FlowId) -> Option<usize> {
        self.flow_agent.get(&flow).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_topology::{builtin, PathSegment};

    #[test]
    fn cbr_traffic_is_delivered_end_to_end() {
        let mut net = Network::new(builtin::line(4), 1);
        let a = net.topo.router_by_name("n0").unwrap();
        let d = net.topo.router_by_name("n3").unwrap();
        let flow = net.add_cbr_flow(
            a,
            d,
            1000,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(50)),
        );
        net.run_until(SimTime::from_secs(1), |_| {});
        let t = net.ground_truth();
        assert_eq!(t.injected, 50);
        assert_eq!(t.delivered, 50);
        assert_eq!(net.delivered_on_flow(flow), 50);
        assert_eq!(t.congestive_drops + t.malicious_drops, 0);
    }

    #[test]
    fn taps_observe_the_full_packet_lifecycle() {
        let mut net = Network::new(builtin::line(3), 1);
        let a = net.topo.router_by_name("n0").unwrap();
        let c = net.topo.router_by_name("n2").unwrap();
        net.add_cbr_flow(
            a,
            c,
            500,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(1)),
        );
        let mut kinds = Vec::new();
        net.run_until(SimTime::from_secs(1), |ev| {
            kinds.push(std::mem::discriminant(ev));
        });
        // One packet: Injected, Enqueued(x2), Transmitted(x2),
        // Arrived(x2: at n1 and n2), Delivered.
        assert_eq!(kinds.len(), 8);
    }

    #[test]
    fn bottleneck_queue_drops_by_congestion() {
        // Source link 10x faster than bottleneck; blast packets.
        let topo = builtin::fan_in(
            2,
            fatih_topology::LinkParams {
                bandwidth_bps: 8_000_000, // 1 kB/ms
                queue_limit_bytes: 5_000,
                ..fatih_topology::LinkParams::default()
            },
        );
        let mut net = Network::new(topo, 1);
        let r = net.topo.router_by_name("r").unwrap();
        let rd = net.topo.router_by_name("rd").unwrap();
        for i in 0..2 {
            let s = net.topo.router_by_name(&format!("s{i}")).unwrap();
            net.add_cbr_flow(
                s,
                rd,
                1000,
                SimTime::from_us(300),
                SimTime::ZERO,
                Some(SimTime::from_ms(200)),
            );
        }
        net.run_until(SimTime::from_secs(2), |_| {});
        let t = net.ground_truth();
        assert!(
            t.congestive_drops > 0,
            "expected overflow at the bottleneck"
        );
        assert_eq!(t.malicious_drops, 0);
        assert_eq!(net.queue_len(r, rd), 0, "queue drains by the end");
        assert_eq!(t.injected, t.delivered + t.congestive_drops);
    }

    #[test]
    fn malicious_drop_fraction_counted_as_ground_truth() {
        let mut net = Network::new(builtin::line(4), 3);
        let a = net.topo.router_by_name("n0").unwrap();
        let b = net.topo.router_by_name("n1").unwrap();
        let d = net.topo.router_by_name("n3").unwrap();
        let flow = net.add_cbr_flow(
            a,
            d,
            1000,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(1000)),
        );
        net.set_attacks(b, vec![Attack::drop_flows([flow], 0.2)]);
        net.run_until(SimTime::from_secs(3), |_| {});
        let t = net.ground_truth();
        assert_eq!(t.injected, 1000);
        assert!(
            t.malicious_drops > 120 && t.malicious_drops < 280,
            "~20% of 1000 expected, got {}",
            t.malicious_drops
        );
        assert_eq!(t.delivered + t.malicious_drops, 1000);
    }

    #[test]
    fn route_override_diverts_traffic() {
        let topo = builtin::abilene();
        let mut net = Network::new(topo, 1);
        let sun = net.topo.router_by_name("Sunnyvale").unwrap();
        let ny = net.topo.router_by_name("NewYork").unwrap();
        let kc = net.topo.router_by_name("KansasCity").unwrap();
        let la = net.topo.router_by_name("LosAngeles").unwrap();

        // Default route goes through Kansas City.
        let mut via_kc = 0;
        net.add_cbr_flow(
            sun,
            ny,
            500,
            SimTime::from_ms(10),
            SimTime::ZERO,
            Some(SimTime::from_ms(100)),
        );
        net.run_until(SimTime::from_ms(500), |ev| {
            if let TapEvent::Arrived { router, .. } = ev {
                if *router == kc {
                    via_kc += 1;
                }
            }
        });
        assert!(via_kc > 0);

        // Override to the southern route.
        let mut av = fatih_topology::DynamicTopology::new(net.topology().clone());
        av.exclude_segment(PathSegment::new(vec![
            net.topology().router_by_name("Denver").unwrap(),
            kc,
            net.topology().router_by_name("Indianapolis").unwrap(),
        ]));
        let detour = av.path(sun, ny).unwrap();
        net.set_route_override(sun, ny, detour);
        net.add_cbr_flow(
            sun,
            ny,
            500,
            SimTime::from_ms(10),
            net.now(),
            Some(net.now() + SimTime::from_ms(100)),
        );
        let mut via_kc2 = 0;
        let mut via_la = 0;
        net.run_until(net.now() + SimTime::from_ms(500), |ev| {
            if let TapEvent::Arrived { router, .. } = ev {
                if *router == kc {
                    via_kc2 += 1;
                }
                if *router == la {
                    via_la += 1;
                }
            }
        });
        assert_eq!(via_kc2, 0, "overridden traffic must avoid Kansas City");
        assert!(via_la > 0);
    }

    #[test]
    fn modification_attack_changes_payload() {
        let mut net = Network::new(builtin::line(3), 5);
        let a = net.topo.router_by_name("n0").unwrap();
        let b = net.topo.router_by_name("n1").unwrap();
        let c = net.topo.router_by_name("n2").unwrap();
        let flow = net.add_cbr_flow(
            a,
            c,
            500,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(10)),
        );
        net.set_attacks(
            b,
            vec![Attack {
                victims: crate::attack::VictimFilter::flows([flow]),
                kind: AttackKind::Modify { fraction: 1.0 },
            }],
        );
        let mut injected_tags = std::collections::HashMap::new();
        let mut delivered_modified = 0;
        net.run_until(SimTime::from_secs(1), |ev| match ev {
            TapEvent::Injected { packet, .. } => {
                injected_tags.insert(packet.id, packet.payload_tag);
            }
            TapEvent::Delivered { packet, .. }
                if injected_tags[&packet.id] != packet.payload_tag =>
            {
                delivered_modified += 1;
            }
            _ => {}
        });
        assert_eq!(delivered_modified, 10);
        assert_eq!(net.ground_truth().modified, 10);
    }

    #[test]
    fn delay_attack_adds_latency_without_loss() {
        let mut net = Network::new(builtin::line(3), 5);
        let a = net.topo.router_by_name("n0").unwrap();
        let b = net.topo.router_by_name("n1").unwrap();
        let c = net.topo.router_by_name("n2").unwrap();
        let flow = net.add_cbr_flow(
            a,
            c,
            500,
            SimTime::from_ms(5),
            SimTime::ZERO,
            Some(SimTime::from_ms(50)),
        );
        net.set_attacks(
            b,
            vec![Attack {
                victims: crate::attack::VictimFilter::flows([flow]),
                kind: AttackKind::Delay {
                    extra: SimTime::from_ms(100),
                    fraction: 1.0,
                },
            }],
        );
        let mut max_latency = SimTime::ZERO;
        net.run_until(SimTime::from_secs(2), |ev| {
            if let TapEvent::Delivered { packet, time, .. } = ev {
                max_latency = max_latency.max(time.since(packet.created_at));
            }
        });
        assert_eq!(net.ground_truth().delivered, 10);
        assert!(max_latency >= SimTime::from_ms(100));
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let mut net = Network::new(builtin::line(4), seed);
            let a = net.topo.router_by_name("n0").unwrap();
            let b = net.topo.router_by_name("n1").unwrap();
            let d = net.topo.router_by_name("n3").unwrap();
            let f = net.add_cbr_flow(
                a,
                d,
                1000,
                SimTime::from_ms(1),
                SimTime::ZERO,
                Some(SimTime::from_ms(200)),
            );
            net.set_attacks(b, vec![Attack::drop_flows([f], 0.3)]);
            net.run_until(SimTime::from_secs(1), |_| {});
            net.ground_truth()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).malicious_drops, run(10).malicious_drops);
    }

    #[test]
    fn control_messages_are_routed_and_delivered() {
        let mut net = Network::new(builtin::line(4), 1);
        let a = net.topo.router_by_name("n0").unwrap();
        let d = net.topo.router_by_name("n3").unwrap();
        net.send_control(a, d, 200, 0xABCD);
        net.run_until(SimTime::from_secs(1), |_| {});
        let deliveries = net.take_control_deliveries();
        assert_eq!(deliveries.len(), 1);
        let m = deliveries[0];
        assert_eq!((m.from, m.to, m.seq), (a, d, 0xABCD));
        assert!(m.intact);
        assert!(m.at > SimTime::ZERO, "control crosses real links");
        assert!(net.take_control_deliveries().is_empty(), "drained");
        let t = net.ground_truth();
        assert_eq!(
            (t.delivered, t.data_delivered),
            (1, 0),
            "control is no data"
        );
    }

    #[test]
    fn fault_loss_drops_control_but_not_data() {
        let mut net = Network::new(builtin::line(3), 1);
        let a = net.topo.router_by_name("n0").unwrap();
        let b = net.topo.router_by_name("n1").unwrap();
        let c = net.topo.router_by_name("n2").unwrap();
        net.set_fault_plan(Some(FaultPlan::new(9).with_link_faults(
            a,
            b,
            crate::fault::LinkFaults {
                loss: 1.0,
                ..Default::default()
            },
        )));
        net.add_cbr_flow(
            a,
            c,
            500,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(10)),
        );
        for i in 0..10 {
            net.send_control(a, c, 100, i);
        }
        net.run_until(SimTime::from_secs(1), |_| {});
        assert!(net.take_control_deliveries().is_empty());
        let t = net.ground_truth();
        assert_eq!(t.fault_drops, 10, "all control lost");
        assert_eq!(t.delivered, 10, "data untouched by control faults");
    }

    #[test]
    fn fault_duplication_and_corruption_of_control() {
        let mut net = Network::new(builtin::line(2), 1);
        let a = net.topo.router_by_name("n0").unwrap();
        let b = net.topo.router_by_name("n1").unwrap();
        net.set_fault_plan(Some(FaultPlan::new(3).with_link_faults(
            a,
            b,
            crate::fault::LinkFaults {
                duplicate: 1.0,
                corrupt: 1.0,
                ..Default::default()
            },
        )));
        net.send_control(a, b, 100, 7);
        net.run_until(SimTime::from_secs(1), |_| {});
        let deliveries = net.take_control_deliveries();
        assert_eq!(deliveries.len(), 2, "original + ghost copy");
        assert_eq!(deliveries[0].id, deliveries[1].id, "same message twice");
        assert!(deliveries.iter().all(|d| !d.intact), "corruption flagged");
        let t = net.ground_truth();
        assert_eq!(t.fault_duplicated, 1);
        assert_eq!(t.fault_corrupted, 1);
    }

    /// At rates strictly between 0 and 1, control packets are lost and
    /// duplicated about as often as the plan says.
    #[test]
    fn control_faults_happen_at_their_rates() {
        let delivered_per_sent = |faults: crate::fault::LinkFaults| {
            let mut net = Network::new(builtin::line(2), 1);
            let a = net.topo.router_by_name("n0").unwrap();
            let b = net.topo.router_by_name("n1").unwrap();
            net.set_fault_plan(Some(FaultPlan::new(42).with_default_link_faults(faults)));
            let n = 2000;
            for i in 0..n {
                net.send_control(a, b, 100, i);
                net.run_until(net.now() + SimTime::from_ms(1), |_| {});
            }
            net.run_until(net.now() + SimTime::from_secs(1), |_| {});
            net.take_control_deliveries().len() as f64 / n as f64
        };
        let survived = delivered_per_sent(crate::fault::LinkFaults {
            loss: 0.5,
            ..Default::default()
        });
        assert!((survived - 0.5).abs() < 0.05, "survival rate {survived}");
        let copies = delivered_per_sent(crate::fault::LinkFaults {
            duplicate: 0.5,
            ..Default::default()
        });
        assert!((copies - 1.5).abs() < 0.06, "copies per packet {copies}");
    }

    #[test]
    fn link_flap_downs_all_traffic_then_recovers() {
        let mut net = Network::new(builtin::line(2), 1);
        let a = net.topo.router_by_name("n0").unwrap();
        let b = net.topo.router_by_name("n1").unwrap();
        net.set_fault_plan(Some(FaultPlan::new(1).with_link_flap(
            a,
            b,
            SimTime::ZERO,
            SimTime::from_ms(50),
        )));
        // One packet per ms for 100 ms: first ~50 die, the rest deliver.
        net.add_cbr_flow(
            a,
            b,
            100,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(100)),
        );
        net.run_until(SimTime::from_secs(1), |_| {});
        let t = net.ground_truth();
        assert_eq!(t.injected, 100);
        assert_eq!(t.fault_drops, 50);
        assert_eq!(t.delivered, 50);
    }

    #[test]
    fn crashed_router_loses_transit_traffic_until_restart() {
        let mut net = Network::new(builtin::line(3), 1);
        let a = net.topo.router_by_name("n0").unwrap();
        let b = net.topo.router_by_name("n1").unwrap();
        let c = net.topo.router_by_name("n2").unwrap();
        net.set_fault_plan(Some(FaultPlan::new(1).with_crash(
            b,
            SimTime::from_ms(10),
            SimTime::from_ms(60),
        )));
        net.add_cbr_flow(
            a,
            c,
            100,
            SimTime::from_ms(1),
            SimTime::ZERO,
            Some(SimTime::from_ms(100)),
        );
        net.run_until(SimTime::from_secs(1), |_| {});
        let t = net.ground_truth();
        assert_eq!(t.injected, 100);
        assert!(t.fault_drops >= 49 && t.fault_drops <= 51, "{t:?}");
        assert_eq!(t.delivered + t.fault_drops, 100);
        let plan = net.fault_plan().expect("installed");
        assert!(!plan.router_down(b, net.now()), "restarted by the end");
    }

    #[test]
    fn fault_rng_does_not_perturb_traffic_stream() {
        let run = |faults: bool| {
            let mut net = Network::new(builtin::line(4), 5);
            let a = net.topo.router_by_name("n0").unwrap();
            let b = net.topo.router_by_name("n1").unwrap();
            let d = net.topo.router_by_name("n3").unwrap();
            if faults {
                net.set_fault_plan(Some(FaultPlan::new(77).with_default_link_faults(
                    crate::fault::LinkFaults {
                        loss: 0.5,
                        ..Default::default()
                    },
                )));
            }
            let f = net.add_cbr_flow(
                a,
                d,
                1000,
                SimTime::from_ms(1),
                SimTime::ZERO,
                Some(SimTime::from_ms(500)),
            );
            net.set_attacks(b, vec![Attack::drop_flows([f], 0.3)]);
            net.run_until(SimTime::from_secs(2), |_| {});
            net.ground_truth().malicious_drops
        };
        assert_eq!(run(false), run(true), "attack RNG stream unchanged");
    }

    #[test]
    fn clock_skew_applies() {
        let mut net = Network::new(builtin::line(2), 1);
        let a = net.topo.router_by_name("n0").unwrap();
        net.run_until(SimTime::from_ms(10), |_| {});
        assert_eq!(net.local_time(a), SimTime::from_ms(10));
        net.set_clock_skew(a, 2_000_000);
        assert_eq!(net.local_time(a), SimTime::from_ms(12));
    }
}
