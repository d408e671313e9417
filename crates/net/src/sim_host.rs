//! The live `Router` hosted by the simulator: every router of a
//! [`Network`] stepped on the engine's virtual clock, by one thread.
//!
//! The engine carries the data plane and its adversary — drops,
//! modification, delay, misrouting, queue-conditional attacks — and its
//! taps are what the routers observe. Every frame a router says crosses
//! the same network as an in-band control packet
//! ([`Network::send_control`]), so summaries, acks, alerts and link-state
//! floods meet the plan's loss, duplication, reordering, corruption and
//! outages, and attacks on transit traffic. The frame's bytes stay
//! with the host, keyed by the packet; a copy the engine corrupted is
//! handed over with a byte flipped, so the codec rejects it. Each router
//! keeps its own schedule — round ends, evaluations, the retransmission
//! pump, the churn script — and the host keeps one wheel of their
//! deadlines and steps a router with a timeout when its deadline comes,
//! the routers due at one instant in index order; rounds go on for as
//! long as the host runs. When a
//! router's route epoch moves its current path to every other router
//! becomes the engine's route override for what it sources: the response
//! reroutes the simulated traffic, control packets included. Routers of
//! one epoch hold one view, so the host searches each epoch's routes
//! once, one search per destination, and every router that moves to it
//! installs its own row.
//!
//! The host's axis starts at the deployment instant, [`Network::now`] when
//! the host is built: taps are restamped onto it, and round `r` covers
//! `[r·τ, (r+1)·τ)` after it. What is monitored follows the live
//! runtime's rule: the spec's monitor pairs, or with none the paths of the
//! traffic, the pairs of [`Network::traffic_pairs`] once the spec's flows
//! are added.
//!
//! One constructor, [`SimHost::new`], deploys what
//! [`LiveDeployment::run`](crate::LiveDeployment::run) takes — a
//! [`LiveSpec`] and a [`LiveConfig`] — on a network the caller built, so
//! one scenario runs on either host, and what only the engine has
//! (modification, delay and misrouting attacks, TCP flows, hand-placed
//! flows, per-link control faults) is added to the network first. Each
//! spec flow is an engine CBR flow on the live flow's phase, stopping at
//! `rounds·τ` as the live one does. Each dropper drops the spec flows'
//! data packets in transit at its rate from the start of its
//! `active_from` round, drawing from the engine's one random stream
//! rather than its own seed (DESIGN.md, "One scenario, two hosts"); so a
//! spec with droppers wants a network with no flows or attacks of its
//! own, which the droppers would ignore or replace. The churn script and
//! the initially-down routers go to the routers as written, and it is the
//! only description of outages the host reads: the network's fault plan
//! gains its physical side, and brings link faults of its own, never
//! outages, which no router would announce. A router is down from its
//! `Crash` — from just after its `Leave`, whose announcement still
//! leaves, and from the start if it is initially down — until its
//! `Restart` or `Join`, and a link, both ways, from a `LinkDown` by either
//! end until a `LinkUp`. The engine routes from the routers' initial
//! view, which avoids the initially-down routers.
//!
//! What an outage costs the rounds it overlaps is the live amnesty's to
//! forgive.

use crate::codec::{peek_type, MsgType};
use crate::flows::{flow_phase_ns, FLOW_LEAD_NS};
use crate::router::{routers, Input, Outputs, Router};
use crate::runtime::{ChurnAction, ChurnEvent, LiveConfig, LiveEvent, LiveSpec, NetMetrics};
use crate::timer::Schedule;
use fatih_core::spec::Suspicion;
use fatih_obs::{MetricsRegistry, MetricsSnapshot, TraceBuffer, TraceJournal, TraceKind};
use fatih_sim::{Attack, FaultPlan, Network, PacketKind, SimTime, TapEvent};
use fatih_topology::{Path, PathSegment, RouterId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Duration;

/// How long a control packet is on the simulated wire, whatever its frame
/// holds. The simulated links are scaled down (100 Mb/s, 64 KiB queues by
/// default): a round's full summaries, all sent as it ends, would fill the
/// queues of the traffic they summarise.
const CONTROL_BYTES: u32 = 256;

/// Every live router of a simulated network, stepped on its clock.
///
/// # Examples
///
/// A dropper on a 5-router line from round 1 (300 ms rounds, judged
/// 150 ms after they end) drops nothing before it, and is convicted once
/// that round is judged; the response excludes only segments that contain
/// it:
///
/// ```
/// use fatih_net::runtime::{DropperSpec, FlowSpec};
/// use fatih_net::{LiveConfig, LiveSpec, SimHost};
/// use fatih_sim::{Network, SimTime};
/// use fatih_topology::builtin;
/// use std::time::Duration;
///
/// let mut net = Network::new(builtin::line(5), 1);
/// let ids: Vec<_> = net.topology().routers().collect();
/// let spec = LiveSpec {
///     flows: vec![FlowSpec::new(ids[0], ids[4], 1000, Duration::from_millis(2))],
///     droppers: vec![DropperSpec { router: ids[2], rate: 0.3, seed: 1, active_from: 1 }],
///     ..LiveSpec::default()
/// };
/// let mut host = SimHost::new(&mut net, &spec, LiveConfig::default());
/// host.run(&mut net, SimTime::from_ms(300));
/// assert_eq!(net.ground_truth().malicious_drops, 0);
/// host.run(&mut net, SimTime::from_ms(750));
/// assert!(!host.suspicions().is_empty());
/// assert!(host.suspicions().iter().all(|s| s.segment.contains(ids[2])));
/// assert!(host.excluded_segments().iter().all(|s| s.contains(ids[2])));
/// ```
pub struct SimHost {
    /// Indexed by router id.
    routers: Vec<Router>,
    out: Outputs,
    cfg: LiveConfig,
    /// The deployment instant: time zero of the host's axis.
    epoch: SimTime,
    /// Every router's deadline, by index.
    schedule: Schedule,
    /// Scratch for the entries that fall due.
    fired: Vec<(u64, usize)>,
    /// Frames in flight by control packet id: when sent, and their bytes.
    in_flight: BTreeMap<u64, (SimTime, Vec<u8>)>,
    /// Where a delivered frame is handed over from.
    rx: Vec<u8>,
    /// Per router, the route epoch whose paths the engine follows for
    /// what it sources.
    installed: Vec<u64>,
    /// The path of every pair under each epoch a router moved to and some
    /// router still holds, searched when the first one moved to it.
    tables: HashMap<u64, HashMap<(RouterId, RouterId), Path>>,
    /// Per router: its Πk+2 frames never leave it.
    silent: Vec<bool>,
    events: Vec<(SimTime, LiveEvent)>,
    registry: MetricsRegistry,
    /// Droppers not started yet, latest onset first: when each starts on
    /// the engine's axis, where, and its attack.
    onsets: Vec<(SimTime, RouterId, Attack)>,
}

impl std::fmt::Debug for SimHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHost")
            .field("routers", &self.routers.len())
            .field("epoch", &self.epoch)
            .field("events", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl SimHost {
    /// Deploys one router per router of `net`'s topology at `net.now()`,
    /// running `spec` — its flows, droppers and churn, see the module doc —
    /// with `cfg`'s rounds, keys and policy. The spec's flows stop at
    /// `cfg.rounds`·τ; rounds go on for as long as [`run`](Self::run) is
    /// called.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < cfg.exchange_budget < cfg.tau`, and if `spec`
    /// has droppers while `net` already carries flows or attacks: a spec
    /// dropper drops only the spec's flows and takes its router's attack
    /// set over, so it would ignore the one and replace the other.
    pub fn new(net: &mut Network, spec: &LiveSpec, cfg: LiveConfig) -> Self {
        assert!(
            Duration::ZERO < cfg.exchange_budget && cfg.exchange_budget < cfg.tau,
            "exchange budget must lie in (0, tau)"
        );
        assert!(
            spec.droppers.is_empty()
                || (net.traffic_pairs().is_empty()
                    && net.topology().routers().all(|r| net.attacks(r).is_empty())),
            "a spec's droppers need a network with no flows or attacks of its own"
        );
        let epoch = net.now();
        let after = |d: SimTime| epoch.saturating_add(d);
        let tau = SimTime::from_ns(cfg.tau.as_nanos() as u64);
        let stop = after(tau.saturating_mul(cfg.rounds));
        let victims: Vec<_> = (spec.flows.iter().enumerate())
            .map(|(i, f)| {
                let start = FLOW_LEAD_NS + flow_phase_ns(i, spec.flows.len(), f.interval);
                let interval = SimTime::from_ns(f.interval.as_nanos() as u64);
                let start = after(SimTime::from_ns(start));
                net.add_cbr_flow(f.src, f.dst, f.size, interval, start, Some(stop))
            })
            .collect();
        // Installed again, the plan's fault stream restarts from its seed.
        // Only control packets draw from it, so on a network no host has
        // run on it has lost no draw.
        let plan = net.fault_plan().cloned().unwrap_or_default();
        net.set_fault_plan(Some(physical(spec, epoch, plan)));
        let mut script = LiveSpec {
            flows: Vec::new(),
            droppers: Vec::new(),
            ..spec.clone()
        };
        if script.monitor_pairs.is_empty() {
            script.monitor_pairs = net.traffic_pairs();
        }
        let registry = MetricsRegistry::new();
        let metrics = NetMetrics::registered(&registry);
        let unbounded = LiveConfig {
            rounds: u64::MAX,
            ..cfg
        };
        let (routers, _) = routers(net.topology(), &script, &unbounded, &metrics);
        assert!(routers.iter().enumerate().all(|(i, r)| r.id.index() == i));
        let mut schedule = Schedule::new(routers.len());
        let mut trace = TraceBuffer::new(0, cfg.trace_capacity);
        for (i, router) in routers.iter().enumerate() {
            schedule.arm(i, router.deadline());
            trace.record(0, TraceKind::RoundStart, u32::from(router.id), 0, 0);
        }
        // A router drops as its first dropper says, as a live one does.
        let mut seen = BTreeSet::new();
        let mut onsets: Vec<_> = (spec.droppers.iter())
            .filter(|d| seen.insert(d.router))
            .map(|d| {
                let attack = Attack::drop_flows(victims.iter().copied(), d.rate);
                (after(tau.saturating_mul(d.active_from)), d.router, attack)
            })
            .collect();
        onsets.sort_by_key(|&(at, ..)| Reverse(at));
        let mut host = Self {
            installed: routers.iter().map(Router::route_epoch).collect(),
            tables: HashMap::new(),
            silent: vec![false; routers.len()],
            routers,
            out: Outputs::new(trace),
            cfg,
            epoch,
            schedule,
            fired: Vec::new(),
            in_flight: BTreeMap::new(),
            rx: Vec::new(),
            events: Vec::new(),
            registry,
            onsets,
        };
        if !spec.initially_down.is_empty() {
            for i in 0..host.routers.len() {
                host.install_routes(net, i);
            }
        }
        host
    }

    /// Makes `router` withhold what it ends: none of its summaries,
    /// digests, pulls or replies leaves it (§2.2.1's silent protocol
    /// fault). Everything else it says still does.
    pub fn silence(&mut self, router: RouterId) {
        self.silent[router.index()] = true;
    }

    /// Runs the network and the routers until `until`: every tap, control
    /// delivery and timer up to and including that instant.
    pub fn run(&mut self, net: &mut Network, until: SimTime) {
        loop {
            self.start_droppers(net);
            let next = (self.schedule.next_deadline()).map(|ns| self.epoch + SimTime::from_ns(ns));
            // A dropper starts before anything at its onset happens.
            let onset = (self.onsets.last())
                .map(|&(at, ..)| SimTime::from_ns(at.as_ns().saturating_sub(1)));
            let horizon = [next, onset]
                .into_iter()
                .flatten()
                .fold(until, SimTime::min);
            if net.run_until_control(horizon, |ev| self.observe(ev)) {
                self.deliver(net);
            } else if next == Some(horizon) {
                self.fire_timeouts(net);
            } else if horizon == until {
                break;
            }
        }
    }

    /// Installs every dropper whose onset is at most one nanosecond away.
    fn start_droppers(&mut self, net: &mut Network) {
        while (self.onsets.last()).is_some_and(|&(at, ..)| at.as_ns() <= net.now().as_ns() + 1) {
            let (_, router, attack) = self.onsets.pop().expect("an onset is due");
            net.set_attacks(router, vec![attack]);
        }
    }

    /// Every event a router said, with the instant it said it.
    pub fn events(&self) -> &[(SimTime, LiveEvent)] {
        &self.events
    }

    /// Every suspicion raised so far, in the order raised.
    pub fn suspicions(&self) -> Vec<Suspicion> {
        (self.events.iter())
            .filter_map(|(_, e)| match e {
                LiveEvent::SuspicionRaised { suspicion, .. } => Some(suspicion.clone()),
                _ => None,
            })
            .collect()
    }

    /// The segments some router's view has excluded.
    pub fn excluded_segments(&self) -> BTreeSet<PathSegment> {
        (self.routers.iter())
            .flat_map(|r| r.excluded().iter().cloned())
            .collect()
    }

    /// The routers' `net.*` and `monitor.*` metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// What the routers traced so far, from the host's one ring.
    pub fn trace(&self) -> TraceJournal {
        TraceJournal::from_buffers([self.out.trace.clone()])
    }

    /// Hands a data-plane observation to the router that made it.
    fn observe(&mut self, ev: &TapEvent) {
        if ev.packet().kind == PacketKind::Control {
            return;
        }
        let mut ev = *ev;
        let (TapEvent::Enqueued { router, time, .. } | TapEvent::Arrived { router, time, .. }) =
            &mut ev
        else {
            return;
        };
        *time = SimTime::from_ns(time.as_ns().saturating_sub(self.epoch.as_ns()));
        let (i, now) = (router.index(), time.as_ns());
        self.routers[i].step(now, Input::Tap(ev), &mut self.out);
    }

    /// Hands every control packet just delivered to its router.
    fn deliver(&mut self, net: &mut Network) {
        for d in net.take_control_deliveries() {
            let Some((_, bytes)) = self.in_flight.get(&d.id.0) else {
                continue;
            };
            let mut rx = std::mem::take(&mut self.rx);
            rx.clear();
            rx.extend_from_slice(bytes);
            if !d.intact {
                // Corrupted on the way: so is what the codec reads.
                *rx.last_mut().expect("frames are not empty") ^= 1;
            }
            self.step(net, d.to.index(), Input::Frame(&rx));
            self.rx = rx;
        }
    }

    /// Steps every router whose deadline has come with a timeout, in index
    /// order; an entry whose router is not due any more steps nobody.
    fn fire_timeouts(&mut self, net: &mut Network) {
        let now = self.host_now(net);
        let mut fired = std::mem::take(&mut self.fired);
        self.schedule.pop_due(now, &mut fired);
        for &(_, i) in &fired {
            match self.routers[i].deadline() {
                Some(d) if d <= now => self.step(net, i, Input::Timeout),
                later => self.schedule.arm(i, later),
            }
        }
        self.fired = fired;
    }

    fn host_now(&self, net: &Network) -> u64 {
        net.now().as_ns().saturating_sub(self.epoch.as_ns())
    }

    /// Steps router `i` with `input` now and carries out what it said:
    /// frames into the network, events into the log, its deadline onto the
    /// schedule, and its paths into the engine if its route epoch moved.
    fn step(&mut self, net: &mut Network, i: usize, input: Input<'_>) {
        let (at, now) = (net.now(), self.host_now(net));
        let router = &mut self.routers[i];
        router.step(now, input, &mut self.out);
        self.out.timed = [false; 3];
        for (dst, span) in self.out.frames.drain(..) {
            let bytes = &self.out.bytes[span];
            let pik2 = matches!(
                peek_type(bytes),
                Some(MsgType::Summary | MsgType::SummaryDigest | MsgType::SummaryPull)
            );
            if self.silent[i] && pik2 {
                continue;
            }
            let id = net.send_control(router.id, dst, CONTROL_BYTES, 0);
            self.in_flight.insert(id.0, (at, bytes.to_vec()));
        }
        self.out.bytes.clear();
        self.events
            .extend(self.out.events.drain(..).map(|e| (at, e)));
        self.schedule.arm(i, router.deadline());
        if router.route_epoch() != self.installed[i] {
            self.install_routes(net, i);
        }
        // A copy still travelling after a round is as good as lost.
        while let Some(entry) = self.in_flight.first_entry() {
            if entry.get().0 + SimTime::from_ns(self.cfg.tau.as_nanos() as u64) >= at {
                break;
            }
            entry.remove();
        }
    }

    /// Makes router `i`'s current path to every other router the engine's
    /// route for what it sources.
    fn install_routes(&mut self, net: &mut Network, i: usize) {
        let router = &mut self.routers[i];
        let epoch = router.route_epoch();
        self.installed[i] = epoch;
        let table = (self.tables.entry(epoch)).or_insert_with(|| router.route_table());
        for dst in (0..self.installed.len() as u32).map(RouterId::from) {
            match table.get(&(router.id, dst)) {
                Some(path) => net.set_route_override(router.id, dst, path.clone()),
                None => net.clear_route_override(router.id, dst),
            }
        }
        let installed = &self.installed;
        self.tables.retain(|epoch, _| installed.contains(epoch));
    }
}

/// `plan` with the engine's side of `spec`'s churn added, on the axis of a
/// deployment at `epoch`: a router's data plane is down from its `Crash` —
/// one nanosecond after its `Leave`, whose announcement leaves first, and
/// from the start if it is initially down — until its `Restart` or `Join`;
/// a link, both ways, from a `LinkDown` by either end until a `LinkUp` by
/// either. An outage nothing ends lasts the run.
fn physical(spec: &LiveSpec, epoch: SimTime, mut plan: FaultPlan) -> FaultPlan {
    let mut script: Vec<&ChurnEvent> = spec.churn.iter().collect();
    script.sort_by_key(|e| e.at);
    let mut routers: BTreeMap<RouterId, SimTime> =
        (spec.initially_down.iter()).map(|&r| (r, epoch)).collect();
    let mut links: BTreeMap<(RouterId, RouterId), SimTime> = BTreeMap::new();
    let flap = |plan: FaultPlan, (a, b), down, up| {
        (plan.with_link_flap(a, b, down, up)).with_link_flap(b, a, down, up)
    };
    for e in script {
        let at = epoch.saturating_add(SimTime::from_ns(e.at.as_nanos() as u64));
        let link = |peer: RouterId| (e.actor.min(peer), e.actor.max(peer));
        match e.action {
            ChurnAction::Crash => {
                routers.entry(e.actor).or_insert(at);
            }
            ChurnAction::Leave => {
                routers.entry(e.actor).or_insert(at + SimTime::from_ns(1));
            }
            ChurnAction::Join | ChurnAction::Restart => {
                if let Some(down) = routers.remove(&e.actor) {
                    plan = plan.with_crash(e.actor, down, at);
                }
            }
            ChurnAction::LinkDown(peer) => {
                links.entry(link(peer)).or_insert(at);
            }
            ChurnAction::LinkUp(peer) => {
                if let Some(down) = links.remove(&link(peer)) {
                    plan = flap(plan, link(peer), down, at);
                }
            }
            ChurnAction::ReportDown(_) => {}
        }
    }
    let end = SimTime::from_ns(u64::MAX);
    for (router, down) in routers {
        plan = plan.with_crash(router, down, end);
    }
    for (link, down) in links {
        plan = flap(plan, link, down, end);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{DropperSpec, FlowSpec};
    use fatih_core::policy::Thresholds;
    use fatih_core::spec::SpecCheck;
    use fatih_sim::{AttackKind, FlowId, LinkFaults, VictimFilter};
    use fatih_topology::builtin;

    /// Chapter 5's deployment: τ = 5 s rounds judged 4 s after they end,
    /// 200 ms maturity lag, zero tolerance.
    fn chapter5(response: bool) -> LiveConfig {
        LiveConfig {
            tau: Duration::from_secs(5),
            exchange_budget: Duration::from_secs(4),
            maturity_lag: Duration::from_millis(200),
            thresholds: Thresholds::default(),
            response,
            ..LiveConfig::default()
        }
    }

    fn line(n: usize, seed: u64) -> (Network, Vec<RouterId>) {
        let net = Network::new(builtin::line(n), seed);
        let ids = net.topology().routers().collect();
        (net, ids)
    }

    fn flow(net: &mut Network, src: RouterId, dst: RouterId) -> fatih_sim::FlowId {
        net.add_cbr_flow(src, dst, 1000, SimTime::from_ms(2), SimTime::ZERO, None)
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// With nobody attacking, a link flap and a crash-restart on honest
    /// elements of a 6-line raise no suspicion: both are announced, the
    /// amnesty covers the rounds they disturb, and the restarted router's
    /// probation does not cut the line, so the rounds after are judged.
    #[test]
    fn an_honest_flap_and_crash_restart_raise_nothing() {
        let (mut net, ids) = line(6, 3);
        flow(&mut net, ids[0], ids[5]);
        flow(&mut net, ids[5], ids[0]);
        use ChurnAction::*;
        let mut churn = flap(ids[1], ids[2], 3_000, 4_500).to_vec();
        churn.extend([
            step(12_000, ids[4], Crash),
            step(12_000, ids[3], ReportDown(ids[4])),
            step(14_000, ids[4], Restart),
        ]);
        let spec = LiveSpec {
            churn,
            ..LiveSpec::default()
        };
        let mut host = SimHost::new(&mut net, &spec, chapter5(true));
        host.run(&mut net, secs(45));
        assert!(host.suspicions().is_empty(), "{:?}", host.suspicions());
        let m = host.metrics();
        assert_eq!(m.counter("net.probation_admitted"), 1);
        assert!(m.counter("net.probation_cleared") > 0);
        let judged_after = (host.events().iter()).any(|(_, e)| {
            matches!(e, LiveEvent::RoundEvaluated { round, lost, .. } if *round > 5 && *lost == 0)
        });
        assert!(judged_after, "no round after the outages was judged");
    }

    /// 10% control-plane loss everywhere: retransmission keeps every
    /// exchange alive, so a clean network yields a clean timeline and an
    /// attacked one still pins only segments containing the attacker.
    #[test]
    fn summaries_ride_control_plane_loss_without_false_accusations() {
        let (mut net, ids) = line(6, 11);
        net.set_fault_plan(Some(FaultPlan::new(13).with_default_link_faults(
            LinkFaults {
                loss: 0.10,
                ..LinkFaults::NONE
            },
        )));
        let f = flow(&mut net, ids[0], ids[5]);
        let mut host = SimHost::new(&mut net, &LiveSpec::default(), chapter5(true));
        host.run(&mut net, secs(15));
        let quiet = host.suspicions();
        assert!(quiet.is_empty(), "control loss alone accused: {quiet:?}");

        net.set_attacks(ids[3], vec![Attack::drop_flows([f], 0.3)]);
        host.run(&mut net, secs(35));
        assert!(
            !host.suspicions().is_empty(),
            "attacker undetected under control loss"
        );
        for seg in host.excluded_segments() {
            assert!(seg.contains(ids[3]), "false accusation: {seg}");
        }
        assert!(host.metrics().counter("net.retransmits") > 0);
    }

    /// 20% control-plane loss, one round, detection only: the attacker is
    /// caught and nobody correct is accused.
    #[test]
    fn a_round_rides_twenty_percent_control_loss() {
        let (mut net, ids) = line(6, 1);
        net.set_fault_plan(Some(FaultPlan::new(7).with_default_link_faults(
            LinkFaults {
                loss: 0.2,
                ..LinkFaults::NONE
            },
        )));
        let f = flow(&mut net, ids[0], ids[5]);
        net.set_attacks(ids[3], vec![Attack::drop_flows([f], 0.3)]);
        let mut host = SimHost::new(&mut net, &LiveSpec::default(), chapter5(false));
        host.run(&mut net, secs(9));
        let faulty = [ids[3]].into_iter().collect();
        let check = SpecCheck::evaluate(&host.suspicions(), &faulty);
        assert!(check.is_complete(), "missed: {:?}", check.missed_faulty);
        assert!(check.is_accurate(3), "{:?}", check.false_positives);
    }

    /// A fifth of the control packets on every link arrive corrupted: the
    /// codec refuses each (the host flips a byte of what the engine
    /// marked), an intact copy follows, and a clean network stays clean.
    #[test]
    fn a_corrupted_frame_is_refused_and_sent_again() {
        let (mut net, ids) = line(4, 2);
        net.set_fault_plan(Some(FaultPlan::new(3).with_default_link_faults(
            LinkFaults {
                corrupt: 0.2,
                ..LinkFaults::NONE
            },
        )));
        flow(&mut net, ids[0], ids[3]);
        let mut host = SimHost::new(&mut net, &LiveSpec::default(), chapter5(false));
        host.run(&mut net, secs(20));
        assert!(host.suspicions().is_empty(), "{:?}", host.suspicions());
        let m = host.metrics();
        assert!(m.counter("net.decode_failures") > 0);
        assert!(m.counter("net.retransmits") > 0);
        assert!(m.counter("net.summary_timeouts") == 0);
    }

    /// A 1.5 s outage of one link, announced by both its ends, accuses
    /// nobody, then or in the rounds after it.
    #[test]
    fn a_link_flap_during_a_round_accuses_nobody() {
        let (mut net, ids) = line(5, 9);
        flow(&mut net, ids[0], ids[4]);
        let spec = LiveSpec {
            churn: flap(ids[1], ids[2], 4_000, 5_500).to_vec(),
            ..LiveSpec::default()
        };
        let mut host = SimHost::new(&mut net, &spec, chapter5(true));
        host.run(&mut net, secs(15));
        assert!(host.suspicions().is_empty(), "{:?}", host.suspicions());
        host.run(&mut net, secs(30));
        assert!(host.suspicions().is_empty(), "{:?}", host.suspicions());
        let judged = |e: &LiveEvent| matches!(e, LiveEvent::RoundEvaluated { round: 3, .. });
        assert!(host.events().iter().any(|(_, e)| judged(e)));
    }

    /// A segment end that never sends its summary: its peer's exchange
    /// fails and the segment is suspected — timeout-as-accusation.
    #[test]
    fn a_silent_end_times_out_into_an_accusation() {
        let (mut net, ids) = line(4, 1);
        flow(&mut net, ids[0], ids[3]);
        let mut host = SimHost::new(&mut net, &LiveSpec::default(), chapter5(false));
        host.silence(ids[3]);
        host.run(&mut net, secs(9));
        let sus = host.suspicions();
        let faulty = [ids[3]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_complete(), "silent end escaped: {sus:?}");
        assert!(check.is_accurate(3));
        assert!(host.metrics().counter("net.summary_timeouts") > 0);
    }

    /// The middle link of a 4-line loses every control packet: each
    /// summary across it exhausts its sender's retries, and with both
    /// directions failed both ends of every segment raise — same segment,
    /// same interval.
    #[test]
    fn a_dead_link_exhausts_delivery_and_both_ends_raise() {
        let (mut net, ids) = line(4, 1);
        let dead = LinkFaults {
            loss: 1.0,
            ..LinkFaults::NONE
        };
        net.set_fault_plan(Some(
            FaultPlan::new(1)
                .with_link_faults(ids[1], ids[2], dead)
                .with_link_faults(ids[2], ids[1], dead),
        ));
        flow(&mut net, ids[0], ids[3]);
        let mut host = SimHost::new(&mut net, &LiveSpec::default(), chapter5(false));
        host.run(&mut net, secs(9));
        let exhausted = (host.events().iter())
            .filter(|(_, e)| matches!(e, LiveEvent::DeliveryExhausted { .. }))
            .count();
        assert!(exhausted > 0, "nothing exhausted");
        let mut raised: BTreeMap<PathSegment, Vec<Suspicion>> = BTreeMap::new();
        for s in host.suspicions() {
            raised.entry(s.segment.clone()).or_default().push(s);
        }
        // Both monitored segments, the 3-segments of the flow's path,
        // cross the middle link.
        let monitored = [&ids[..3], &ids[1..]].map(|s| PathSegment::new(s.to_vec()));
        assert!(raised.keys().eq(&monitored), "{raised:?}");
        for (seg, by) in &raised {
            assert_eq!(by.len(), 2, "{seg}: {by:?}");
            assert_eq!(by[0].interval, by[1].interval);
            let (a, b) = seg.ends();
            let raisers = (by[0].raised_by, by[1].raised_by);
            assert!(raisers == (a, b) || raisers == (b, a), "{by:?}");
        }
    }

    /// The Figure 5.7 scenario, compressed: traffic across Abilene, the
    /// Kansas City router compromised mid-run; its segments are convicted
    /// for the round the attack began in, routes move, segments on its
    /// other interfaces are convicted under the new routes, and no packet
    /// reaches it any more.
    #[test]
    fn abilene_attack_detected_and_rerouted() {
        let topo = builtin::abilene();
        let sun = topo.router_by_name("Sunnyvale").unwrap();
        let ny = topo.router_by_name("NewYork").unwrap();
        let kc = topo.router_by_name("KansasCity").unwrap();
        let den = topo.router_by_name("Denver").unwrap();
        let dc = topo.router_by_name("WashingtonDC").unwrap();
        let mut net = Network::new(topo, 7);
        net.add_cbr_flow(sun, ny, 1000, SimTime::from_ms(5), SimTime::ZERO, None);
        net.add_cbr_flow(ny, sun, 1000, SimTime::from_ms(7), SimTime::ZERO, None);
        // A flow that crosses Kansas City by another interface, which the
        // first reroute leaves in place.
        net.add_cbr_flow(den, dc, 800, SimTime::from_ms(9), SimTime::ZERO, None);
        let mut host = SimHost::new(&mut net, &LiveSpec::default(), chapter5(true));

        host.run(&mut net, secs(20));
        assert!(host.suspicions().is_empty(), "{:?}", host.suspicions());

        let all = VictimFilter::all();
        let drop = AttackKind::Drop { fraction: 0.2 };
        net.set_attacks(
            kc,
            vec![Attack {
                victims: all,
                kind: drop,
            }],
        );
        host.run(&mut net, secs(60));

        let raised: Vec<(SimTime, Suspicion)> = (host.events().iter())
            .filter_map(|(at, e)| match e {
                LiveEvent::SuspicionRaised { suspicion, .. } => Some((*at, suspicion.clone())),
                _ => None,
            })
            .collect();
        assert!(!raised.is_empty(), "attack never detected");
        for (_, s) in &raised {
            assert_eq!(s.interval.end.since(s.interval.start), secs(5), "{s}");
        }
        let excluded = host.excluded_segments();
        assert!(excluded.iter().all(|seg| seg.contains(kc)), "{excluded:?}");
        let first = raised[0].0;
        assert!(first >= secs(20));
        let moved = (host.events().iter())
            .find(|(at, e)| *at >= first && matches!(e, LiveEvent::LinkStateApplied { .. }))
            .map(|&(at, _)| at)
            .expect("routes moved");
        assert!(
            raised.iter().any(|(at, _)| *at > moved),
            "nothing convicted under the new routes: {raised:?}"
        );

        // Traffic no longer transits the compromised router.
        let mut via_kc = 0;
        net.run_until(net.now() + secs(10), |ev| {
            if matches!(ev, TapEvent::Arrived { router, .. } if *router == kc) {
                via_kc += 1;
            }
        });
        assert_eq!(via_kc, 0, "traffic still transits the compromised router");
    }

    /// Each router is stepped with a timeout exactly at its deadlines and
    /// no more: on a clean 4-line, three rounds' ends and evaluations are
    /// six steps a router, at those instants. The segment ends' summaries
    /// arm their pumps, the acks come back first, and the stale entries
    /// the pumps leave step nobody.
    #[test]
    fn a_router_is_stepped_at_its_deadlines_and_a_stale_entry_steps_nobody() {
        let (mut net, ids) = line(4, 5);
        flow(&mut net, ids[0], ids[3]);
        let cfg = LiveConfig {
            trace_capacity: 1 << 17, // every record of the run
            ..chapter5(false)
        };
        let mut host = SimHost::new(&mut net, &LiveSpec::default(), cfg);
        host.run(&mut net, secs(19));
        let trace = host.trace();
        assert_eq!(trace.dropped(), 0);
        let m = host.metrics();
        assert!(m.counter("net.control_bytes_sent") > 0, "no summary sent");
        assert_eq!(m.counter("net.retransmits"), 0);
        let due = [5_000, 9_000, 10_000, 14_000, 15_000, 19_000].map(|ms| ms * 1_000_000);
        for id in &ids {
            let at: Vec<u64> = (trace.events().iter())
                .filter(|e| e.kind == TraceKind::TimerFired && e.router == u32::from(*id))
                .map(|e| e.t_ns)
                .collect();
            assert_eq!(at, due, "router {id}");
        }
    }

    /// Reconcile mode with a sketch far smaller than a dropper's round of
    /// losses, over links that lose, duplicate and reorder control packets:
    /// the dropper's onset rounds are judged on their certified counts,
    /// their pulls are notices nobody can answer, and none reads as ⊥ —
    /// no summary times out — while the dropper is convicted, every later
    /// round is pulled whole, and no honest segment is accused.
    #[test]
    fn pulls_in_strip_mode_never_time_out() {
        let (mut net, ids) = line(5, 3);
        let shaky = LinkFaults {
            loss: 0.2,
            duplicate: 0.2,
            reorder: 0.2,
            reorder_delay: SimTime::from_ms(30),
            ..LinkFaults::NONE
        };
        let mut plan = FaultPlan::new(3);
        for w in ids.windows(2) {
            plan = plan
                .with_link_faults(w[0], w[1], shaky)
                .with_link_faults(w[1], w[0], shaky);
        }
        net.set_fault_plan(Some(plan));
        let f = flow(&mut net, ids[0], ids[4]);
        net.set_attacks(ids[2], vec![Attack::drop_flows([f], 0.3)]);
        let cfg = LiveConfig {
            summary: crate::runtime::SummaryMode::Reconcile { capacity: 4 },
            ..chapter5(false)
        };
        let mut host = SimHost::new(&mut net, &LiveSpec::default(), cfg);
        host.run(&mut net, secs(4 * 5 + 4));
        let m = host.metrics();
        assert!(
            m.counter("net.rounds_bounded") > 0,
            "no round judged on counts"
        );
        assert!(m.counter("net.digest_fallbacks") > m.counter("net.rounds_bounded"));
        assert_eq!(m.counter("net.summary_timeouts"), 0);
        let faulty = [ids[2]].into_iter().collect();
        let check = SpecCheck::evaluate(&host.suspicions(), &faulty);
        assert!(
            check.is_complete() && check.is_accurate(3),
            "{:?}",
            host.suspicions()
        );
    }

    /// One-second rounds judged half a second after they end.
    fn quick(response: bool) -> LiveConfig {
        LiveConfig {
            tau: Duration::from_secs(1),
            exchange_budget: Duration::from_millis(500),
            maturity_lag: Duration::from_millis(100),
            thresholds: Thresholds::default(),
            response,
            ..LiveConfig::default()
        }
    }

    fn step(ms: u64, actor: RouterId, action: ChurnAction) -> ChurnEvent {
        ChurnEvent {
            at: Duration::from_millis(ms),
            actor,
            action,
        }
    }

    /// The link `a`–`b` down from `down` to `up` ms, announced by both ends.
    fn flap(a: RouterId, b: RouterId, down: u64, up: u64) -> [ChurnEvent; 4] {
        use ChurnAction::*;
        [
            step(down, a, LinkDown(b)),
            step(down, b, LinkDown(a)),
            step(up, a, LinkUp(b)),
            step(up, b, LinkUp(a)),
        ]
    }

    /// A deployed spec's script is what its routers run, step for step,
    /// at its instants: a crash nobody reports stays unreported, a report
    /// one round after the crash comes then, and a link one end announces
    /// down is announced by that end alone.
    #[test]
    fn a_specs_script_reaches_the_routers_as_written() {
        let topo = builtin::ring(6);
        let r: Vec<RouterId> = topo.routers().collect();
        use ChurnAction::*;
        let spec = LiveSpec {
            churn: vec![
                step(1_500, r[1], Crash),
                step(4_500, r[1], Restart),
                step(2_200, r[4], Crash),
                step(3_200, r[3], ReportDown(r[4])),
                step(5_000, r[4], Restart),
                step(1_200, r[0], LinkDown(r[5])),
                step(3_700, r[0], LinkUp(r[5])),
            ],
            ..LiveSpec::default()
        };
        let mut net = Network::new(topo, 1);
        let mut host = SimHost::new(&mut net, &spec, quick(true));
        host.run(&mut net, secs(6));
        let mut ran: Vec<(u64, u32, u64)> = (host.trace().events().iter())
            .filter(|e| e.kind == TraceKind::ChurnEvent)
            .map(|e| (e.t_ns, e.router, e.value))
            .collect();
        ran.sort_unstable();
        // (when, by whom, which of its own steps): nothing else.
        let (ms, id) = (|t: u64| t * 1_000_000, |i: usize| u32::from(r[i]));
        let mut written = vec![
            (ms(1_500), id(1), 0),
            (ms(4_500), id(1), 1),
            (ms(2_200), id(4), 0),
            (ms(3_200), id(3), 0),
            (ms(5_000), id(4), 1),
            (ms(1_200), id(0), 0),
            (ms(3_700), id(0), 1),
        ];
        written.sort_unstable();
        assert_eq!(ran, written);
        let reports = (host.events().iter())
            .filter(|(_, e)| matches!(e, LiveEvent::LinkStateApplied { .. }))
            .count();
        assert!(reports > 0, "no announcement was flooded");
    }

    /// The engine's data plane is down exactly over the outages the script
    /// implies: a crash until its restart, a departure from just after its
    /// announcement until its join, an initially-down router until its
    /// join, a link both ways from one end's `LinkDown` until the other
    /// end's `LinkUp`, and a crash nothing ends for the rest of the run.
    #[test]
    fn the_engine_is_down_exactly_over_the_scripts_outages() {
        let topo = builtin::ring(6);
        let r: Vec<RouterId> = topo.routers().collect();
        use ChurnAction::*;
        let spec = LiveSpec {
            initially_down: vec![r[5]],
            churn: vec![
                step(1_000, r[1], Crash),
                step(2_000, r[1], Restart),
                step(3_000, r[2], Leave),
                step(4_000, r[2], Join),
                step(2_500, r[5], Join),
                step(1_500, r[3], LinkDown(r[4])),
                step(3_500, r[4], LinkUp(r[3])),
                step(4_200, r[3], ReportDown(r[0])),
                step(5_000, r[0], Crash),
            ],
            ..LiveSpec::default()
        };
        let mut net = Network::new(topo.clone(), 1);
        let _host = SimHost::new(&mut net, &spec, quick(true));
        let plan = net.fault_plan().expect("the script's outages");
        // Which routers, and which links of each direction, are down at `t`.
        let down = |t: SimTime| {
            let routers: Vec<usize> = (0..6).filter(|&i| plan.router_down(r[i], t)).collect();
            let mut links: Vec<(usize, usize)> = (topo.links())
                .filter(|l| plan.link_down(l.from, l.to, t))
                .map(|l| (l.from.index(), l.to.index()))
                .collect();
            links.sort_unstable();
            (routers, links)
        };
        let (ms, ns) = (SimTime::from_ms, SimTime::from_ns);
        let before = |t: SimTime| ns(t.as_ns() - 1);
        let link = vec![(3, 4), (4, 3)];
        // Both sides of every edge of every window.
        let expected = [
            (SimTime::ZERO, vec![5], vec![]),
            (before(ms(1_000)), vec![5], vec![]),
            (ms(1_000), vec![1, 5], vec![]),
            (before(ms(1_500)), vec![1, 5], vec![]),
            (ms(1_500), vec![1, 5], link.clone()),
            (before(ms(2_000)), vec![1, 5], link.clone()),
            (ms(2_000), vec![5], link.clone()),
            (before(ms(2_500)), vec![5], link.clone()),
            (ms(2_500), vec![], link.clone()),
            // The departure's announcement still leaves at its instant.
            (ms(3_000), vec![], link.clone()),
            (ms(3_000) + ns(1), vec![2], link.clone()),
            (before(ms(3_500)), vec![2], link.clone()),
            (ms(3_500), vec![2], vec![]),
            (before(ms(4_000)), vec![2], vec![]),
            (ms(4_000), vec![], vec![]),
            (before(ms(5_000)), vec![], vec![]),
            (ms(5_000), vec![0], vec![]),
            (ns(u64::MAX - 1), vec![0], vec![]),
        ];
        for (t, routers, links) in expected {
            assert_eq!(down(t), (routers, links), "at {t:?}");
        }
    }

    /// A network's own fault plan survives the constructor — its seed and
    /// its link faults — and gains the script's outages on the host's
    /// axis, which starts when the host is built.
    #[test]
    fn the_networks_own_faults_survive_alongside_the_scripts_outages() {
        let topo = builtin::line(4);
        let r: Vec<RouterId> = topo.routers().collect();
        let lossy = LinkFaults {
            loss: 0.25,
            ..LinkFaults::NONE
        };
        let mut net = Network::new(topo, 1);
        net.set_fault_plan(Some(FaultPlan::new(9).with_link_faults(r[0], r[1], lossy)));
        net.run_until(secs(1), |_| {});
        assert_eq!(net.now(), secs(1));
        use ChurnAction::*;
        let mut churn = flap(r[1], r[2], 500, 1_500).to_vec();
        churn.extend([step(2_000, r[3], Crash), step(2_500, r[3], Restart)]);
        let spec = LiveSpec {
            churn,
            ..LiveSpec::default()
        };
        let _host = SimHost::new(&mut net, &spec, quick(true));
        let plan = net.fault_plan().expect("the network's plan");
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.link_faults(r[0], r[1], secs(2)), lossy);
        assert!(plan.link_faults(r[1], r[0], secs(2)).is_none());
        let ms = SimTime::from_ms;
        let before = |t: SimTime| SimTime::from_ns(t.as_ns() - 1);
        for (a, b) in [(r[1], r[2]), (r[2], r[1])] {
            assert!(!plan.link_down(a, b, before(ms(1_500))));
            assert!(plan.link_down(a, b, ms(1_500)) && plan.link_down(a, b, before(ms(2_500))));
            assert!(!plan.link_down(a, b, ms(2_500)));
        }
        assert!(!plan.router_down(r[3], before(ms(3_000))));
        assert!(plan.router_down(r[3], ms(3_000)) && !plan.router_down(r[3], ms(3_500)));
    }

    /// An initially-down router carries no data before it joins: the
    /// engine routes from the routers' initial view, which avoids it, not
    /// from the base graph, whose route crosses it.
    #[test]
    fn an_initially_down_router_carries_nothing_before_it_joins() {
        let topo = builtin::ring(4);
        let r: Vec<RouterId> = topo.routers().collect();
        let base = (topo.link_state_routes().path(r[0], r[2])).expect("routed");
        assert!(base.routers().contains(&r[1]), "{base:?}");
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(r[0], r[2], 1000, Duration::from_millis(2))],
            initially_down: vec![r[1]],
            churn: vec![step(1_500, r[1], ChurnAction::Join)],
            ..LiveSpec::default()
        };
        let mut net = Network::new(topo, 1);
        let _host = SimHost::new(&mut net, &spec, quick(true));
        let mut at_down = 0;
        net.run_until(SimTime::from_ns(1_500_000_000 - 1), |ev| {
            let data = ev.packet().kind == PacketKind::Data;
            if data && matches!(ev, TapEvent::Arrived { router, .. } if *router == r[1]) {
                at_down += 1;
            }
        });
        assert_eq!(at_down, 0, "data reached the router before it joined");
        assert!(net.delivered_on_flow(FlowId(0)) > 500);
        assert_eq!(net.ground_truth().fault_drops, 0);
    }

    /// A spec with a dropper on the second router of a 4-line.
    fn dropper_spec(r: &[RouterId]) -> LiveSpec {
        LiveSpec {
            droppers: vec![DropperSpec {
                router: r[1],
                rate: 0.5,
                seed: 1,
                active_from: 0,
            }],
            ..LiveSpec::default()
        }
    }

    /// A spec's dropper drops only the spec's flows, so a network that
    /// carries flows of its own refuses it rather than have it ignore them.
    #[test]
    #[should_panic(expected = "no flows or attacks of its own")]
    fn spec_droppers_refuse_a_network_with_flows_of_its_own() {
        let (mut net, r) = line(4, 1);
        flow(&mut net, r[0], r[3]);
        SimHost::new(&mut net, &dropper_spec(&r), quick(false));
    }

    /// A spec's dropper takes its router's attack set over, so a network
    /// that carries attacks of its own refuses it rather than have it
    /// replace them.
    #[test]
    #[should_panic(expected = "no flows or attacks of its own")]
    fn spec_droppers_refuse_a_network_with_attacks_of_its_own() {
        let (mut net, r) = line(4, 1);
        net.set_attacks(r[2], vec![Attack::drop_flows([FlowId(0)], 0.5)]);
        SimHost::new(&mut net, &dropper_spec(&r), quick(false));
    }

    /// A dropper drops nothing before its onset round and only data after
    /// it: at rate 1 from round 2 it stops every packet of the flow, while
    /// the summaries that cross it all arrive, none sent twice.
    #[test]
    fn a_dropper_starts_at_its_round_and_drops_only_data() {
        let topo = builtin::line(5);
        let r: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(r[0], r[4], 1000, Duration::from_millis(2))],
            droppers: vec![DropperSpec {
                router: r[2],
                rate: 1.0,
                seed: 3,
                active_from: 2,
            }],
            ..LiveSpec::default()
        };
        let mut net = Network::new(topo, 1);
        let mut host = SimHost::new(&mut net, &spec, quick(false));
        host.run(&mut net, secs(2));
        assert_eq!(net.ground_truth().malicious_drops, 0);
        let before = net.delivered_on_flow(FlowId(0));
        assert!(before > 0);
        host.run(&mut net, SimTime::from_ms(3_500));
        let truth = net.ground_truth();
        assert!(truth.malicious_drops > 400, "{truth:?}");
        // What was past the dropper at its onset still arrives; no more.
        assert!(net.delivered_on_flow(FlowId(0)) < before + 10);
        let m = host.metrics();
        assert!(m.counter("net.control_bytes_sent") > 0);
        assert_eq!(m.counter("net.retransmits"), 0);
        assert_eq!(m.counter("net.summary_timeouts"), 0);
        let faulty = [r[2]].into_iter().collect();
        let check = SpecCheck::evaluate(&host.suspicions(), &faulty);
        assert!(check.is_complete() && check.is_accurate(3));
    }
}
