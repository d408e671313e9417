//! The sharded live runtime and deployment harness.
//!
//! Routers no longer get one OS thread each: a small pool of **shard
//! workers** (default `available_parallelism − 1`) each owns a shard of
//! router event loops and multiplexes them over non-blocking transport
//! receives, one shared [`TimerWheel`] per shard, and a lock-free
//! cross-shard [`mailbox`](crate::mailbox) for the optional in-process
//! frame fastpath. A worker blocks until one of its sockets is readable
//! or its next timer is due and then polls only the endpoints that have
//! something to say, serving each frame's next hop on the shard at once,
//! so an idle router costs nothing; endpoints that cannot be waited on
//! (in-memory transports, the mailbox) are swept on every pass instead.
//! Round boundaries, evaluation deadlines and the
//! retransmission pump are *batched per shard* — one timer fires and every
//! router in the shard does its round work — so a Rocketfuel-scale
//! deployment (hundreds of routers) costs hundreds of event loops but only
//! a handful of threads and timer streams.
//!
//! The protocol machinery is the simulator's own — [`SegmentMonitorSet`]
//! builds `info(r, π, τ)` from the router's real forwarding decisions, a
//! round's [`Window`] says what it judges, [`Retransmitter`] when a frame
//! is sent again, and a failed exchange becomes a timeout accusation — but
//! round boundaries are wall-clock deadlines and every message crosses a
//! real transport as encoded bytes.
//!
//! Records are **sliding windows in the recorder's own clock**, by the
//! rule of [`fatih_core::rounds`]: with `c_r` one maturity lag before the
//! end of round `r`, the round *judges* what a router observed in
//! `(c_{r−1}, c_r]`, a round-`r` summary or digest *holds* one lag more,
//! and once round `r` is evaluated what no later round reads is dropped.
//! Every observation falls in exactly one judged window, so a packet is
//! validated once and round-end work, memory and summary bytes follow the
//! round, not the run. Both ends apply the rule to their own timestamps;
//! nothing is agreed.
//!
//! Summary exchange has two modes ([`SummaryMode`]). In `Full` mode the
//! ends ship complete [`ContentSummary`](fatih_validation::summary::ContentSummary)-bearing
//! reports, costing control
//! bytes proportional to one window's traffic. In `Reconcile` mode they ship
//! fixed-size [`ContentDigest`]s (the Appendix A characteristic-polynomial
//! sketch plus certifying checksums) and each end *decodes* the peer's
//! summary from its own records plus the recovered difference; only when
//! the difference exceeds the sketch capacity does it pull the full
//! summary, and a counter records every fallback.
//!
//! Time axis: all shards share one epoch `Instant`; local observation
//! times are nanoseconds since that epoch, wrapped in [`SimTime`] so the
//! core validation code runs unchanged. The dissertation's synchronized
//! clocks assumption (§2.1.2) holds exactly — the routers literally share
//! a clock — and the maturity lag plays the role of the §5.3.1 skew/transit
//! tolerance.
//!
//! [`ContentDigest`]: fatih_validation::digest::ContentDigest

use crate::codec::{decode_frame, encode_frame, Frame, WireMessage};
use crate::linkstate::{
    sign_link_state, verify_link_state, Convergence, LinkStateUpdate, Plan, TopoUpdate,
};
use crate::mailbox::{mailboxes, MailboxRouter, ShardMailbox};
use crate::poller;
use crate::timer::TimerWheel;
use crate::transport::Transport;
use fatih_core::monitor::{MonitorMetrics, MonitorMode, SegmentMonitorSet};
use fatih_core::pik2::{Evidence, Message, Pik2Node, Received};
use fatih_core::policy::{Policy, Thresholds};
use fatih_core::reliable::{Retransmitter, RetryPolicy};
use fatih_core::rounds::Window;
use fatih_core::spec::{Interval, SignedAlert, Suspicion};
use fatih_crypto::{KeyStore, Signature};
use fatih_obs::trace::{NO_ROUND, NO_ROUTER};
use fatih_obs::{
    Counter, Histogram, MetricsRegistry, MetricsSnapshot, TraceBuffer, TraceJournal, TraceKind,
};
use fatih_sim::{FlowId, Packet, PacketId, PacketKind, SimTime, TapEvent};
use fatih_topology::{DynamicTopology, Path, PathSegment, RouterId, Routes, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A constant-bit-rate traffic flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Source router.
    pub src: RouterId,
    /// Destination router.
    pub dst: RouterId,
    /// Packet size in bytes.
    pub size: u32,
    /// Inter-packet interval.
    pub interval: Duration,
}

impl FlowSpec {
    /// A CBR flow from `src` to `dst`.
    pub fn new(src: RouterId, dst: RouterId, size: u32, interval: Duration) -> Self {
        Self {
            src,
            dst,
            size,
            interval,
        }
    }
}

/// A maliciously dropping router.
#[derive(Debug, Clone, Copy)]
pub struct DropperSpec {
    /// The compromised router.
    pub router: RouterId,
    /// Probability it silently drops each transit packet it should
    /// forward.
    pub rate: f64,
    /// Seed for its drop decisions.
    pub seed: u64,
    /// First round in which it misbehaves; earlier rounds it forwards
    /// faithfully. `0` drops from the start.
    pub active_from: u64,
}

/// One scripted topology change a router performs mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// The actor's duplex link to this peer goes down (announced).
    LinkDown(RouterId),
    /// The actor's duplex link to this peer comes back (announced).
    LinkUp(RouterId),
    /// Graceful departure: announce [`TopoUpdate::RouterDown`] for
    /// oneself, then go silent.
    Leave,
    /// An initially-down router comes alive and announces itself with
    /// incarnation 0 (no probation).
    Join,
    /// Silent crash: the router stops processing without any
    /// announcement. Peers learn of it via [`ChurnAction::ReportDown`] or
    /// through reliable-delivery exhaustion.
    Crash,
    /// Crash-restart: the actor returns with a bumped incarnation, fresh
    /// HMAC state and an empty link-state database, and re-enters under
    /// probation.
    Restart,
    /// The actor reports another router dead (it observed the crash) by
    /// originating [`TopoUpdate::RouterDown`] on its behalf.
    ReportDown(RouterId),
}

/// A scheduled churn event: at `at` after the deployment epoch, `actor`
/// performs `action`.
#[derive(Debug, Clone, Copy)]
pub struct ChurnEvent {
    /// When, relative to the deployment epoch.
    pub at: Duration,
    /// The router performing the action.
    pub actor: RouterId,
    /// What it does.
    pub action: ChurnAction,
}

/// What to run: traffic, adversaries, and which paths to monitor.
#[derive(Debug, Clone, Default)]
pub struct LiveSpec {
    /// Traffic flows.
    pub flows: Vec<FlowSpec>,
    /// Compromised routers.
    pub droppers: Vec<DropperSpec>,
    /// (source, destination) pairs whose routed paths get Πk+2 segment
    /// monitoring. Empty: monitor the flows' own paths.
    pub monitor_pairs: Vec<(RouterId, RouterId)>,
    /// Routers that start the run dead (they come alive via
    /// [`ChurnAction::Join`]). Initial routes avoid them.
    pub initially_down: Vec<RouterId>,
    /// Scripted topology churn: flaps, joins, leaves, crash-restarts.
    pub churn: Vec<ChurnEvent>,
}

/// How the segment ends exchange their round summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SummaryMode {
    /// Ship the complete report: control bytes grow with traffic volume.
    #[default]
    Full,
    /// Ship fixed-size [`ContentDigest`]s and decode the difference
    /// against local records; pull the full summary only when the
    /// difference exceeds the sketch `capacity` (Appendix A).
    ///
    /// [`ContentDigest`]: fatih_validation::digest::ContentDigest
    Reconcile {
        /// Sketch capacity: the largest distinct-fingerprint difference
        /// the digest can resolve without falling back.
        capacity: usize,
    },
}

/// Deployment-wide protocol timing and policy.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Πk+2 fault parameter: suspected segments have ≤ k+2 routers.
    pub k: usize,
    /// Round length τ (wall clock).
    pub tau: Duration,
    /// How long after a round boundary the ends wait for each other's
    /// summaries before evaluating (timeout-as-accusation deadline).
    pub exchange_budget: Duration,
    /// Maturity lag: packets observed upstream within this window before
    /// a round boundary are deferred to the next round rather than
    /// judged while possibly still in flight.
    pub maturity_lag: Duration,
    /// Number of rounds to run.
    pub rounds: u64,
    /// Benign-anomaly allowances for traffic validation.
    pub thresholds: Thresholds,
    /// Master seed for the deployment's key infrastructure.
    pub key_seed: u64,
    /// Worker shards multiplexing the router event loops. `0` = auto:
    /// `available_parallelism − 1`, at least 1, never more than routers.
    pub shards: usize,
    /// Summary-exchange mode (full transfer vs reconciliation).
    pub summary: SummaryMode,
    /// Route frames between co-resident routers through the lock-free
    /// cross-shard mailbox instead of the transport. Off by default so
    /// the wire-byte accounting reflects real transport traffic.
    pub mailbox_fastpath: bool,
    /// Capacity of each shard's trace ring ([`TraceBuffer`]): oldest
    /// events are overwritten beyond this, but per-kind totals survive.
    pub trace_capacity: usize,
    /// Whether convictions trigger the §2.4.3 response: flood a signed
    /// [`TopoUpdate::ExcludeSegment`], reroute around it and reconverge.
    /// Off, the runtime only detects (the pre-response behaviour).
    pub response: bool,
}

impl Default for LiveConfig {
    /// Timing tuned for loopback transports: 300ms rounds, an exchange
    /// budget long enough for ~6 retransmission attempts, and a small
    /// loss allowance so scheduling jitter never looks like an attack.
    fn default() -> Self {
        Self {
            k: 1,
            tau: Duration::from_millis(300),
            exchange_budget: Duration::from_millis(150),
            maturity_lag: Duration::from_millis(60),
            rounds: 3,
            thresholds: Thresholds {
                loss: 2,
                reorder: 0,
            },
            key_seed: 0xFA714,
            shards: 0,
            summary: SummaryMode::Full,
            mailbox_fastpath: false,
            trace_capacity: 32_768,
            response: true,
        }
    }
}

/// Something observable that happened during a live run.
#[derive(Debug, Clone)]
pub enum LiveEvent {
    /// One end evaluated one segment for one round.
    RoundEvaluated {
        /// Evaluating router.
        router: RouterId,
        /// Round index.
        round: u64,
        /// Segment evaluated.
        segment: PathSegment,
        /// Whether traffic validation passed.
        passed: bool,
        /// Whether the peer's summary was missing (⊥).
        bottom: bool,
        /// Mature packets lost across the segment.
        lost: usize,
        /// Mature packets fabricated within the segment.
        fabricated: usize,
    },
    /// A router raised a suspicion.
    SuspicionRaised {
        /// The suspicion.
        suspicion: Suspicion,
        /// Round it was raised in.
        round: u64,
    },
    /// A signed alert arrived and was signature-checked.
    AlertReceived {
        /// Receiving router.
        by: RouterId,
        /// Claimed origin.
        origin: RouterId,
        /// Suspected segment.
        segment: PathSegment,
        /// Whether the origin signature verified.
        sig_ok: bool,
    },
    /// A timeout accusation arrived.
    AccusationReceived {
        /// Receiving router.
        by: RouterId,
        /// Accusing router.
        from: RouterId,
        /// Accused segment.
        segment: PathSegment,
    },
    /// An expected summary never arrived by the evaluation deadline.
    SummaryTimeout {
        /// The end that timed out waiting.
        by: RouterId,
        /// The segment whose exchange failed.
        segment: PathSegment,
        /// The round.
        round: u64,
    },
    /// Reliable delivery gave up on a control frame.
    DeliveryExhausted {
        /// Sending router.
        by: RouterId,
        /// Unresponsive destination.
        dst: RouterId,
        /// Attempts made.
        attempts: u32,
    },
    /// A router applied a (signature-verified, fresh) link-state update
    /// and reconverged its routes.
    LinkStateApplied {
        /// The router that applied the update.
        by: RouterId,
        /// The update's origin.
        origin: RouterId,
        /// The origin's per-router update sequence number.
        update_seq: u64,
        /// The applier's route epoch after rebuilding.
        epoch: u64,
    },
    /// A restarted router finished probation and regained transit duty.
    /// Emitted once, by the cleared router itself.
    ProbationCleared {
        /// The router whose probation cleared.
        router: RouterId,
        /// The round boundary at which it cleared.
        round: u64,
    },
}

/// Aggregate counters across all routers of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Frames handed to transports (or the mailbox fastpath).
    pub frames_sent: u64,
    /// Frames received (before decoding).
    pub frames_received: u64,
    /// Data packets delivered to their destination router.
    pub data_delivered: u64,
    /// Data packets silently dropped by compromised routers.
    pub data_dropped: u64,
    /// Control-frame retransmissions.
    pub retransmits: u64,
    /// Frames rejected by the codec (bad MAC, garbage, truncation).
    pub decode_failures: u64,
    /// Frames that could not be encoded (oversize).
    pub encode_failures: u64,
    /// Encoded bytes of first-transmission data frames.
    pub data_bytes_sent: u64,
    /// Encoded bytes of control frames (summaries, digests, pulls, acks,
    /// alerts, accusations), including retransmissions.
    pub control_bytes_sent: u64,
    /// Bytes the transports actually put on the wire (excludes the
    /// mailbox fastpath).
    pub wire_bytes_sent: u64,
    /// Bytes the transports actually received off the wire.
    pub wire_bytes_recv: u64,
    /// Reconciliation-mode digest exchanges decoded without a full
    /// transfer.
    pub digests_resolved: u64,
    /// Reconciliation-mode digest exchanges that fell back to pulling the
    /// full summary.
    pub digest_fallbacks: u64,
}

impl LiveStats {
    /// Reconstructs the aggregate view from the `net.*` counters of a
    /// registry snapshot. Retransmitted bytes fold into
    /// `control_bytes_sent`, as the pre-registry accounting did.
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Self {
        Self {
            frames_sent: snap.counter("net.frames_sent"),
            frames_received: snap.counter("net.frames_received"),
            data_delivered: snap.counter("net.data_delivered"),
            data_dropped: snap.counter("net.data_dropped"),
            retransmits: snap.counter("net.retransmits"),
            decode_failures: snap.counter("net.decode_failures"),
            encode_failures: snap.counter("net.encode_failures"),
            data_bytes_sent: snap.counter("net.data_bytes_sent"),
            control_bytes_sent: snap.counter("net.control_bytes_sent")
                + snap.counter("net.retransmit_bytes"),
            wire_bytes_sent: snap.counter("net.wire_bytes_sent"),
            wire_bytes_recv: snap.counter("net.wire_bytes_recv"),
            digests_resolved: snap.counter("net.digests_resolved"),
            digest_fallbacks: snap.counter("net.digest_fallbacks"),
        }
    }
}

/// Registered handles for every metric the live runtime maintains. One
/// set of cells per deployment: each node clones the handles, so
/// increments from every shard aggregate with no collection step.
#[derive(Debug, Clone)]
struct NetMetrics {
    frames_sent: Counter,
    frames_received: Counter,
    data_delivered: Counter,
    data_dropped: Counter,
    retransmits: Counter,
    retransmit_bytes: Counter,
    decode_failures: Counter,
    encode_failures: Counter,
    data_bytes_sent: Counter,
    control_bytes_sent: Counter,
    wire_bytes_sent: Counter,
    wire_bytes_recv: Counter,
    digests_resolved: Counter,
    digest_fallbacks: Counter,
    accusations_raised: Counter,
    alerts_sent: Counter,
    summary_timeouts: Counter,
    mailbox_frames: Counter,
    epoch_transitions: Counter,
    ls_updates_sent: Counter,
    ls_updates_applied: Counter,
    untapped_drained: Counter,
    transition_forward_miss: Counter,
    purged_frames: Counter,
    probation_admitted: Counter,
    probation_cleared: Counter,
    routers_isolated: Counter,
    shard_passes: Counter,
    shard_waits: Counter,
    recv_polls: Counter,
    recv_polls_empty: Counter,
    stale_summaries: Counter,
    foreign_summaries: Counter,
    /// The `monitor.*` handles every node's monitor set counts into.
    monitor: MonitorMetrics,
    frame_bytes: Histogram,
    round_eval_ns: Histogram,
    round_end_ns: Histogram,
    digest_resolve_ns: Histogram,
    reroute_latency_ns: Histogram,
}

impl NetMetrics {
    fn registered(reg: &MetricsRegistry) -> Self {
        Self {
            frames_sent: reg.counter("net.frames_sent"),
            frames_received: reg.counter("net.frames_received"),
            data_delivered: reg.counter("net.data_delivered"),
            data_dropped: reg.counter("net.data_dropped"),
            retransmits: reg.counter("net.retransmits"),
            retransmit_bytes: reg.counter("net.retransmit_bytes"),
            decode_failures: reg.counter("net.decode_failures"),
            encode_failures: reg.counter("net.encode_failures"),
            data_bytes_sent: reg.counter("net.data_bytes_sent"),
            control_bytes_sent: reg.counter("net.control_bytes_sent"),
            wire_bytes_sent: reg.counter("net.wire_bytes_sent"),
            wire_bytes_recv: reg.counter("net.wire_bytes_recv"),
            digests_resolved: reg.counter("net.digests_resolved"),
            digest_fallbacks: reg.counter("net.digest_fallbacks"),
            accusations_raised: reg.counter("net.accusations_raised"),
            alerts_sent: reg.counter("net.alerts_sent"),
            summary_timeouts: reg.counter("net.summary_timeouts"),
            mailbox_frames: reg.counter("net.mailbox_frames"),
            epoch_transitions: reg.counter("net.epoch_transitions"),
            ls_updates_sent: reg.counter("net.ls_updates_sent"),
            ls_updates_applied: reg.counter("net.ls_updates_applied"),
            untapped_drained: reg.counter("net.untapped_drained"),
            transition_forward_miss: reg.counter("net.transition_forward_miss"),
            purged_frames: reg.counter("net.purged_frames"),
            probation_admitted: reg.counter("net.probation_admitted"),
            probation_cleared: reg.counter("net.probation_cleared"),
            routers_isolated: reg.counter("net.routers_isolated"),
            shard_passes: reg.counter("net.shard_passes"),
            shard_waits: reg.counter("net.shard_waits"),
            recv_polls: reg.counter("net.recv_polls"),
            recv_polls_empty: reg.counter("net.recv_polls_empty"),
            stale_summaries: reg.counter("net.stale_summaries"),
            foreign_summaries: reg.counter("net.foreign_summaries"),
            monitor: MonitorMetrics::registered(reg),
            frame_bytes: reg.histogram("net.frame_bytes"),
            round_eval_ns: reg.histogram("net.round_eval_ns"),
            round_end_ns: reg.histogram("net.round_end_ns"),
            digest_resolve_ns: reg.histogram("net.digest_resolve_ns"),
            reroute_latency_ns: reg.histogram("net.reroute_latency_ns"),
        }
    }
}

/// The result of a live run.
#[derive(Debug)]
pub struct LiveOutcome {
    /// Every suspicion raised by any router, in event order.
    pub suspicions: Vec<Suspicion>,
    /// Full event log.
    pub events: Vec<LiveEvent>,
    /// Aggregate counters (derived from [`LiveOutcome::metrics`]).
    pub stats: LiveStats,
    /// Final registry snapshot: every `net.*` counter and histogram.
    pub metrics: MetricsSnapshot,
    /// Cumulative snapshot taken shortly after each round's evaluation
    /// deadline; [`MetricsSnapshot::counter_delta`] between neighbours
    /// gives the per-round cost.
    pub round_metrics: Vec<MetricsSnapshot>,
    /// Merged trace journal from every shard's ring.
    pub trace: TraceJournal,
    /// The segments that were monitored.
    pub segments: Vec<PathSegment>,
}

/// Deploys the Πk+2 runtime over real transports.
///
/// # Examples
///
/// A clean one-round deployment over the in-memory loopback hub. The
/// outcome carries the protocol verdicts ([`LiveOutcome::suspicions`]),
/// the final metrics snapshot, per-round snapshots, and the merged trace
/// journal:
///
/// ```
/// use fatih_net::runtime::{FlowSpec, LiveConfig, LiveDeployment, LiveSpec};
/// use fatih_net::transport::LoopbackHub;
/// use fatih_topology::builtin;
/// use std::time::Duration;
///
/// let topo = builtin::line(3);
/// let ids: Vec<_> = topo.routers().collect();
/// let spec = LiveSpec {
///     flows: vec![FlowSpec::new(ids[0], ids[2], 500, Duration::from_millis(5))],
///     ..LiveSpec::default()
/// };
/// let cfg = LiveConfig {
///     tau: Duration::from_millis(120),
///     exchange_budget: Duration::from_millis(80),
///     maturity_lag: Duration::from_millis(30),
///     rounds: 1,
///     ..LiveConfig::default()
/// };
/// let outcome = LiveDeployment::run(&topo, &spec, &cfg, LoopbackHub::group(&ids));
/// assert!(outcome.suspicions.is_empty(), "clean run accuses nobody");
/// assert!(outcome.stats.data_delivered > 0);
/// assert_eq!(outcome.round_metrics.len(), 1);
/// assert_eq!(
///     outcome.metrics.counter("net.frames_sent"),
///     outcome.stats.frames_sent
/// );
/// assert!(!outcome.trace.is_empty());
/// ```
#[derive(Debug)]
pub struct LiveDeployment;

impl LiveDeployment {
    /// Runs `cfg.rounds` wall-clock rounds of Πk+2 end-to-end validation
    /// over the given transports (one per router, matched by
    /// [`Transport::local`]), injecting `spec`'s traffic and droppers.
    /// The routers are partitioned round-robin across `cfg.shards` worker
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if the transport set does not cover the topology's routers
    /// exactly, or if a flow endpoint has no route.
    pub fn run<T: Transport + 'static>(
        topo: &Topology,
        spec: &LiveSpec,
        cfg: &LiveConfig,
        transports: Vec<T>,
    ) -> LiveOutcome {
        let registry = MetricsRegistry::new();
        let metrics = NetMetrics::registered(&registry);
        let Prepared {
            shard_nodes,
            mut mailboxes,
            segments,
        } = Self::prepare(topo, spec, cfg, transports, &metrics);
        let n_shards = shard_nodes.len();

        let epoch = Instant::now() + Duration::from_millis(30);
        // Every round finishes before a shard stops: final evaluation
        // fires at rounds·τ + budget after the epoch, and the slack lets
        // the last alerts cross the wire.
        let stop = cfg.tau * (cfg.rounds as u32) + cfg.exchange_budget + Duration::from_millis(300);
        let (event_tx, event_rx) = mpsc::channel::<LiveEvent>();

        let mut handles = Vec::with_capacity(n_shards);
        for (s, nodes) in shard_nodes.into_iter().enumerate() {
            let shard = Shard::new(
                s as u32,
                nodes,
                *cfg,
                epoch,
                mailboxes[s].take(),
                metrics.clone(),
            );
            let tx = event_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("shard-{s}"))
                    .spawn(move || shard.run(stop.as_nanos() as u64, &tx))
                    .expect("spawn shard thread"),
            );
        }
        drop(event_tx);

        // Snapshot the registry just after each round's evaluation
        // deadline so callers can diff neighbouring snapshots into
        // per-round costs.
        let mut round_metrics = Vec::with_capacity(cfg.rounds as usize);
        for r in 0..cfg.rounds {
            let at =
                epoch + cfg.tau * (r as u32 + 1) + cfg.exchange_budget + Duration::from_millis(50);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            round_metrics.push(registry.snapshot());
        }

        let mut buffers = Vec::with_capacity(n_shards);
        for h in handles {
            buffers.push(h.join().expect("shard thread panicked"));
        }
        let trace = TraceJournal::from_buffers(buffers);
        let events: Vec<LiveEvent> = event_rx.iter().collect();
        let suspicions = events
            .iter()
            .filter_map(|e| match e {
                LiveEvent::SuspicionRaised { suspicion, .. } => Some(suspicion.clone()),
                _ => None,
            })
            .collect();
        let metrics = registry.snapshot();
        LiveOutcome {
            suspicions,
            events,
            stats: LiveStats::from_snapshot(&metrics),
            metrics,
            round_metrics,
            trace,
            segments,
        }
    }

    /// Everything a run sets up before its clock starts: keys, the shared
    /// initial routes and monitored segments, and one node per router,
    /// dealt round-robin onto the shards.
    fn prepare<T: Transport>(
        topo: &Topology,
        spec: &LiveSpec,
        cfg: &LiveConfig,
        transports: Vec<T>,
        metrics: &NetMetrics,
    ) -> Prepared<T> {
        let ids: Vec<RouterId> = topo.routers().collect();
        let mut by_router: HashMap<RouterId, T> =
            transports.into_iter().map(|t| (t.local(), t)).collect();
        assert_eq!(
            by_router.len(),
            ids.len(),
            "need exactly one transport per router"
        );

        let mut keys = KeyStore::with_seed(cfg.key_seed);
        for &id in &ids {
            keys.register(id.into());
        }
        let keys = Arc::new(keys);
        let routes = Arc::new(topo.link_state_routes());

        // The shared initial view: the base graph minus initially-down
        // routers. Every node starts from a clone of it and of the plan it
        // implies, and every rebuild plans again by the same machinery, so
        // forwarding, the path oracle and the monitored segments agree
        // from the first packet and through every reconvergence.
        let mut dyn0 = DynamicTopology::new(topo.clone());
        for &r in &spec.initially_down {
            dyn0.set_router_down(r);
        }
        let mut convergence = Convergence::new(dyn0, cfg.tau.as_nanos() as u64, PROBATION_ROUNDS);
        let flow_pairs: Vec<(RouterId, RouterId)> =
            spec.flows.iter().map(|f| (f.src, f.dst)).collect();
        let monitor_pairs = if spec.monitor_pairs.is_empty() {
            flow_pairs.clone()
        } else {
            spec.monitor_pairs.clone()
        };
        let plan = convergence.plan(&monitor_pairs, &flow_pairs, cfg.k);

        let n_shards = if cfg.shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1))
                .unwrap_or(1)
        } else {
            cfg.shards
        }
        .clamp(1, ids.len().max(1));

        let shard_of: HashMap<RouterId, usize> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i % n_shards))
            .collect();
        let (mail_router, mail_rx): (Option<MailboxRouter>, Vec<Option<ShardMailbox>>) =
            if cfg.mailbox_fastpath {
                let (mut r, boxes) = mailboxes(shard_of.clone(), n_shards);
                r.attach_counters(metrics.mailbox_frames.clone());
                (Some(r), boxes.into_iter().map(Some).collect())
            } else {
                (None, (0..n_shards).map(|_| None).collect())
            };

        // Build every node *before* fixing the epoch: monitor construction
        // for hundreds of routers must not eat into round 0.
        let mut shard_nodes: Vec<Vec<Node<T>>> = (0..n_shards).map(|_| Vec::new()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let transport = by_router.remove(&id).expect("transport per router");
            let node = Node::build(
                id,
                transport,
                spec,
                cfg,
                &keys,
                &routes,
                convergence.clone(),
                &plan,
                &monitor_pairs,
                mail_router.clone(),
                metrics.clone(),
            );
            shard_nodes[i % n_shards].push(node);
        }
        Prepared {
            shard_nodes,
            mailboxes: mail_rx,
            segments: plan.segments,
        }
    }
}

/// What [`LiveDeployment::prepare`] hands to `run`.
struct Prepared<T: Transport> {
    /// The nodes of each shard, in shard order.
    shard_nodes: Vec<Vec<Node<T>>>,
    /// Each shard's receiving mailbox, when the fastpath is on.
    mailboxes: Vec<Option<ShardMailbox>>,
    /// The segments under monitoring.
    segments: Vec<PathSegment>,
}

/// Timer payloads of a shard's wheel. Round work and the retransmission
/// pump are scheduled once per shard and fan out over every resident
/// node; only flow ticks stay per-(node, flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ShardTimer {
    /// Inject the next packet of `node`'s local flow `flow`.
    FlowTick {
        /// Index into the shard's node vector.
        node: usize,
        /// Index into that node's local flows.
        flow: usize,
    },
    /// A round boundary: every node snapshots and sends summaries.
    RoundEnd(u64),
    /// The exchange budget expired: every node validates the round.
    RoundEval(u64),
    /// Retransmission pump across the shard.
    Pump,
    /// `node` performs step `step` of its scripted churn.
    Churn {
        /// Index into the shard's node vector.
        node: usize,
        /// Index into that node's churn script.
        step: usize,
    },
    /// The run is over: the worker leaves its loop.
    Stop,
}

/// Per-node receive bound: how many frames one node may drain per pass
/// before yielding to its shard-mates.
const RECV_SWEEP: usize = 64;

/// When the first flow injects its first packet, after the epoch.
const FLOW_LEAD_NS: u64 = 2_000_000;

/// Flows that tick at the same instant.
///
/// A wake-up is the expensive part of an idle shard's packet: on a
/// 128-socket shard it costs ≈ 20 µs of CPU (the wait on the shard's
/// `epoll` set, and the packet's whole path run on cold caches), and what
/// a packet of a burst pays for it in return is the time the burst-mates
/// served before it take to cross the shard: a pass serves a tick's
/// packets one after another. Two to a tick cost 3–5 % more CPU per
/// packet than four on the one-shard ISP workloads, for about half the
/// latency; see DESIGN.md, "Flow phases".
const FLOWS_PER_TICK: usize = 4;

/// Reliable-delivery policy for summaries, pulls, alerts and link-state
/// updates: eight attempts, 25 ms apart at first and at most 100 ms, fit
/// the exchange budgets loopback deployments run with.
const RELIABLE: RetryPolicy = RetryPolicy {
    rto_ns: 25_000_000,
    max_backoff_ns: 100_000_000,
    max_attempts: 8,
};

/// How often a shard looks for frames due a retransmission: twice per
/// initial timeout.
const PUMP_STEP_NS: u64 = RELIABLE.rto_ns / 2;

/// Clean rounds a crash-restarted router must survive on probation (no
/// transit duty) before it carries transit traffic again.
const PROBATION_ROUNDS: u64 = 2;

/// Where in its interval flow `i` of `n` ticks: flows are dealt round-robin
/// to `⌈n / FLOWS_PER_TICK⌉` groups, the groups are spread evenly over the
/// interval and the flows of a group tick together. The phase depends on
/// the flow list alone — not on which router or shard carries the flow,
/// and (see `Node::flow_tick`) not on what happened since.
fn flow_phase_ns(i: usize, n: usize, interval: Duration) -> u64 {
    let groups = n.div_ceil(FLOWS_PER_TICK);
    interval.as_nanos() as u64 * (i % groups) as u64 / groups as u64
}

/// Longest an idle worker waits while something it serves cannot wake it:
/// an endpoint that is not in the poll set, or a mailbox.
const SWEEP_WAIT_NS: u64 = 500_000;

/// One worker thread's shard of router event loops.
struct Shard<T: Transport> {
    nodes: Vec<Node<T>>,
    index_of: HashMap<RouterId, usize>,
    /// Open endpoints that are not in this worker's poll set: nothing
    /// announces their frames, so every pass polls them. Whether an
    /// endpoint can be waited on is its own business — it registers on
    /// first poll or it does not — and it leaves this list once it has.
    swept: Vec<usize>,
    /// Due nodes, served depth-first: a pass pops the top one, takes one
    /// frame, and pushes every shard-mate the node sent to, so a forwarded
    /// frame is received next, whatever the index of the router it went
    /// to.
    work: Vec<usize>,
    /// Per node: a frame was announced that no poll has looked for yet —
    /// the poller said so, a node of this shard sent to it, or it yielded
    /// with frames left. An entry of `work` whose node is no longer due is
    /// skipped.
    due: Vec<bool>,
    /// Nodes that took a frame in this pass, polled again once `work` is
    /// empty until they come back empty: once per pass, however many
    /// frames came their way.
    drain: Vec<usize>,
    /// Per node: the pass it last received in, and how many frames it
    /// took in that pass.
    taken: Vec<(u64, usize)>,
    /// Nodes that took [`RECV_SWEEP`] frames in this pass: they are still
    /// due, and open the next pass.
    yielded: Vec<usize>,
    /// Passes made so far.
    passes: u64,
    /// Endpoints whose transport has not errored out.
    open: usize,
    /// The retransmission pump fell due: it runs after the next pass, so
    /// that the acks already queued are read before it resends.
    pump_due: bool,
    /// Scratch for the poller's answer.
    ready: Vec<RouterId>,
    wheel: TimerWheel<ShardTimer>,
    mailbox: Option<ShardMailbox>,
    cfg: LiveConfig,
    epoch: Instant,
    metrics: NetMetrics,
    /// This worker's trace ring: written only by this thread, handed
    /// back when it joins.
    trace: TraceBuffer,
}

impl<T: Transport> Shard<T> {
    fn new(
        shard: u32,
        mut nodes: Vec<Node<T>>,
        cfg: LiveConfig,
        epoch: Instant,
        mailbox: Option<ShardMailbox>,
        metrics: NetMetrics,
    ) -> Self {
        for node in &mut nodes {
            node.epoch = epoch;
        }
        let index_of = nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
        Self {
            swept: (0..nodes.len()).collect(),
            work: Vec::new(),
            due: vec![false; nodes.len()],
            drain: Vec::new(),
            taken: vec![(0, 0); nodes.len()],
            yielded: Vec::new(),
            passes: 0,
            open: nodes.len(),
            pump_due: false,
            ready: Vec::new(),
            nodes,
            index_of,
            wheel: TimerWheel::new(),
            mailbox,
            cfg,
            epoch,
            metrics,
            trace: TraceBuffer::new(shard, cfg.trace_capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64
    }

    /// Serves the shard until `stop_ns` after the epoch.
    fn run(mut self, stop_ns: u64, events: &mpsc::Sender<LiveEvent>) -> TraceBuffer {
        let tau = self.cfg.tau.as_nanos() as u64;
        let budget = self.cfg.exchange_budget.as_nanos() as u64;
        for (ni, node) in self.nodes.iter_mut().enumerate() {
            for (fi, flow) in node.flows.iter().enumerate() {
                self.wheel
                    .schedule(flow.next_due, ShardTimer::FlowTick { node: ni, flow: fi });
            }
            for (si, ev) in node.churn.iter().enumerate() {
                self.wheel.schedule(
                    ev.at.as_nanos() as u64,
                    ShardTimer::Churn { node: ni, step: si },
                );
            }
        }
        for r in 0..self.cfg.rounds {
            self.wheel.schedule((r + 1) * tau, ShardTimer::RoundEnd(r));
            self.wheel
                .schedule((r + 1) * tau + budget, ShardTimer::RoundEval(r));
        }
        self.wheel.schedule(PUMP_STEP_NS, ShardTimer::Pump);
        self.wheel.schedule(stop_ns, ShardTimer::Stop);
        self.trace
            .record(self.now_ns(), TraceKind::RoundStart, NO_ROUTER, 0, 0);

        // This worker's sockets find the poller through the thread, so
        // they register through whatever wraps them.
        let poller = poller::install();
        let mut handled = 0;
        // Until every transport closed under us, or the stop.
        while self.open > 0 {
            self.wait(&poller, handled);
            if !self.fire_timers(events) {
                break;
            }
            handled = self.pass(&poller, events);
            if std::mem::take(&mut self.pump_due) {
                self.for_each_node(|n, trace| n.pump(events, trace));
            }
        }

        for node in &mut self.nodes {
            node.finish();
        }
        self.trace
    }

    /// Runs every timer that is due, and marks due the shard-mates that
    /// the nodes it ran sent to. Returns false once the run is over.
    fn fire_timers(&mut self, events: &mpsc::Sender<LiveEvent>) -> bool {
        let now = self.now_ns();
        for t in self.wheel.pop_due(now) {
            self.trace
                .record(now, TraceKind::TimerFired, NO_ROUTER, NO_ROUND, 0);
            match t {
                ShardTimer::FlowTick { node, flow } => {
                    if let Some(next) = self.nodes[node].flow_tick(flow, &mut self.trace) {
                        self.wheel
                            .schedule(next, ShardTimer::FlowTick { node, flow });
                    }
                    self.mark_sent_due(node);
                }
                ShardTimer::RoundEnd(r) => {
                    self.for_each_node(|n, trace| n.round_end(r, trace));
                    // The summary sends above still belong to round
                    // r's slice; the next round opens after them.
                    self.trace
                        .record(self.now_ns(), TraceKind::RoundEnd, NO_ROUTER, r, 0);
                    if r + 1 < self.cfg.rounds {
                        self.trace.record(
                            self.now_ns(),
                            TraceKind::RoundStart,
                            NO_ROUTER,
                            r + 1,
                            0,
                        );
                    }
                }
                ShardTimer::RoundEval(r) => {
                    self.for_each_node(|n, trace| n.round_eval(r, events, trace));
                }
                ShardTimer::Pump => {
                    self.pump_due = true;
                    self.wheel.schedule(now + PUMP_STEP_NS, ShardTimer::Pump);
                }
                ShardTimer::Churn { node, step } => {
                    self.nodes[node].churn_step(step, events, &mut self.trace);
                    self.mark_sent_due(node);
                }
                ShardTimer::Stop => return false,
            }
        }
        true
    }

    /// Runs `f` on every node of the shard, in order, marking due the
    /// shard-mates each sent to.
    fn for_each_node(&mut self, mut f: impl FnMut(&mut Node<T>, &mut TraceBuffer)) {
        for ni in 0..self.nodes.len() {
            f(&mut self.nodes[ni], &mut self.trace);
            self.mark_sent_due(ni);
        }
    }

    /// Blocks until a socket of this shard is readable or the next timer
    /// is due, and marks the readable nodes due. It does not block while
    /// work is queued. `handled` is what the previous pass got done.
    fn wait(&mut self, poller: &poller::Installed, handled: usize) {
        // Only a shard driven by hand has an empty wheel.
        let until_timer = self
            .wheel
            .next_deadline()
            .map_or(SWEEP_WAIT_NS, |d| d.saturating_sub(self.now_ns()));
        // Nothing announces a frame for a swept endpoint or the mailbox:
        // while the last pass found work there may be more, and an idle
        // wait stays short.
        let swept = self.mailbox.is_some() || !self.swept.is_empty();
        let wait = match (swept, handled) {
            _ if !self.work.is_empty() => 0,
            (false, _) => until_timer,
            (true, 0) => until_timer.min(SWEEP_WAIT_NS),
            (true, _) => 0,
        };
        if wait > 0 {
            self.metrics.shard_waits.inc();
        }
        self.ready.clear();
        poller.wait(Duration::from_nanos(wait), &mut self.ready);
        // Only this shard's endpoints are ever polled on this thread.
        for id in &self.ready {
            let ni = self.index_of[id];
            self.due[ni] = true;
            self.work.push(ni);
        }
    }

    /// One receive pass, run to completion: drains the mailbox, then
    /// serves the due nodes one frame at a time, depth-first, so a frame
    /// forwarded to a shard-mate is received before anything else and a
    /// packet crosses every hop on this shard, one packet after another.
    /// Only then is each node that took a frame polled until it comes back
    /// empty. A node that took [`RECV_SWEEP`] frames yields, and opens the
    /// next pass. Returns the number of frames handled.
    fn pass(&mut self, poller: &poller::Installed, events: &mpsc::Sender<LiveEvent>) -> usize {
        self.metrics.shard_passes.inc();
        self.passes += 1;
        let mut handled = 0usize;
        if let Some(envelopes) = self.mailbox.as_mut().map(|mb| mb.drain(512)) {
            for env in envelopes {
                if let Some(&ni) = self.index_of.get(&env.dst) {
                    self.nodes[ni].handle_frame(&env.bytes, events, &mut self.trace);
                    self.mark_sent_due(ni);
                    handled += 1;
                }
            }
        }
        for &ni in &self.swept {
            self.due[ni] = true;
            self.work.push(ni);
        }
        let (mut polls, mut empty) = (0u64, 0u64);
        loop {
            let (ni, announced) = match self.work.pop() {
                Some(ni) => (ni, true),
                None => match self.drain.pop() {
                    Some(ni) => (ni, false),
                    None => break,
                },
            };
            let taken = &mut self.taken[ni];
            if taken.0 != self.passes {
                *taken = (self.passes, 0);
            }
            if (announced && !self.due[ni]) || !self.nodes[ni].open || taken.1 == RECV_SWEEP {
                continue;
            }
            self.due[ni] = false;
            polls += 1;
            // A crashed node is still drained (its frames fall on the
            // floor): a readable socket nobody reads would end every wait
            // at once.
            match self.nodes[ni].transport.try_recv() {
                Ok(Some(bytes)) => {
                    taken.1 += 1;
                    if taken.1 == RECV_SWEEP {
                        self.due[ni] = true;
                        self.yielded.push(ni);
                    } else if taken.1 == 1 || !announced {
                        self.drain.push(ni);
                    }
                    self.nodes[ni].handle_frame(&bytes, events, &mut self.trace);
                    self.mark_sent_due(ni);
                    handled += 1;
                }
                Ok(None) => empty += 1,
                Err(_) => {
                    empty += 1;
                    self.nodes[ni].open = false;
                    self.open -= 1;
                    poller.deregister(self.nodes[ni].id);
                }
            }
        }
        std::mem::swap(&mut self.work, &mut self.yielded);
        let nodes = &self.nodes;
        self.swept
            .retain(|&ni| nodes[ni].open && !poller.is_registered(nodes[ni].id));
        self.metrics.recv_polls.add(polls);
        self.metrics.recv_polls_empty.add(empty);
        handled
    }

    /// Marks due every node of this shard that node `ni` has sent to since
    /// it was last asked, the last one sent to on top.
    fn mark_sent_due(&mut self, ni: usize) {
        for dst in self.nodes[ni].sent_to.drain(..) {
            if let Some(&di) = self.index_of.get(&dst) {
                self.due[di] = true;
                self.work.push(di);
            }
        }
    }
}

struct LocalFlow {
    spec: FlowSpec,
    global_idx: u32,
    sent: u64,
    /// The deadline the pending tick was scheduled for. The next one is
    /// one interval after it, not after whenever the tick got to run, so
    /// wake-up latency does not stretch the period.
    next_due: u64,
}

struct Node<T: Transport> {
    id: RouterId,
    cfg: LiveConfig,
    epoch: Instant,
    transport: T,
    /// False once the transport errored out; the shard skips dead nodes.
    open: bool,
    /// Destinations of frames handed to the transport since the shard last
    /// collected them: a shard-mate among them is polled within the pass
    /// in progress instead of after the next wait.
    sent_to: Vec<RouterId>,
    /// False while crashed, departed or not yet joined: the node neither
    /// processes frames nor does round work, but its churn script still
    /// fires (a restart needs it).
    alive: bool,
    /// This router's incarnation; bumped on every crash-restart.
    incarnation: u32,
    keys: Arc<KeyStore>,
    /// Static link-state routes of the base graph: the stale-packet
    /// forwarding fallback during epoch transitions. They come from the
    /// same route computation as `paths`, so under a clean overlay a
    /// stranded packet drains along the route its epoch planned.
    routes: Arc<Routes>,
    /// The link-state database and the view of the network it implies:
    /// overlay, probation, amnesty horizon and route epoch.
    convergence: Convergence,
    /// Current forwarding paths per (source, destination) pair, rebuilt
    /// whenever the route epoch changes. Forwarding follows these, not
    /// `routes`.
    paths: HashMap<(RouterId, RouterId), Path>,
    /// The (source, destination) pairs under Πk+2 monitoring.
    monitor_pairs: Vec<(RouterId, RouterId)>,
    /// The flows' own endpoint pairs (kept routable for forwarding).
    flow_pairs: Vec<(RouterId, RouterId)>,
    monitors: SegmentMonitorSet,
    /// This router's end of every Πk+2 exchange: the segments it ends,
    /// what their other ends said about which round, and the verdicts.
    /// The node keeps the I/O: frames in and out, timers, metrics,
    /// alerts and the response.
    pik2: Pik2Node,
    flows: Vec<LocalFlow>,
    drop_rate: f64,
    /// First round the dropper misbehaves in.
    drop_from: u64,
    rng: StdRng,
    /// Reliable control frames awaiting their ack, as encoded, and the
    /// duplicate-suppression history.
    reliable: Retransmitter<Vec<u8>>,
    mailbox: Option<MailboxRouter>,
    metrics: NetMetrics,
    next_seq: u64,
    pkt_counter: u64,
    /// Tap events buffered for the monitors' batched ingest path: flushed
    /// when full and before any report is read, so a round boundary always
    /// sees every observation.
    obs_buf: Vec<TapEvent>,
    /// This node's next link-state origination sequence number.
    ls_seq: u64,
    /// This node's own churn script, in schedule order.
    churn: Vec<ChurnEvent>,
}

/// Buffered tap events before the node flushes them through
/// [`SegmentMonitorSet::observe_batch`]. Big enough to amortize the batch
/// setup, small enough that a flush never stalls the event loop.
const OBS_BUF_FLUSH: usize = 128;

impl<T: Transport> Node<T> {
    #[allow(clippy::too_many_arguments)]
    fn build(
        id: RouterId,
        transport: T,
        spec: &LiveSpec,
        cfg: &LiveConfig,
        keys: &Arc<KeyStore>,
        routes: &Arc<Routes>,
        convergence: Convergence,
        plan: &Plan,
        monitor_pairs: &[(RouterId, RouterId)],
        mailbox: Option<MailboxRouter>,
        metrics: NetMetrics,
    ) -> Self {
        // This set only ever sees this router's own taps.
        let (segments, oracle) = (plan.segments.clone(), plan.oracle.clone());
        let mut monitors =
            SegmentMonitorSet::new(segments, oracle, keys, MonitorMode::EndsOnly, None)
                .without_fingerprint_memo();
        monitors.attach_metrics(metrics.monitor.clone());
        let flows = spec
            .flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.src == id)
            .map(|(i, f)| LocalFlow {
                spec: *f,
                global_idx: i as u32,
                sent: 0,
                next_due: FLOW_LEAD_NS + flow_phase_ns(i, spec.flows.len(), f.interval),
            })
            .collect();
        let dropper = spec.droppers.iter().find(|d| d.router == id);
        Self {
            id,
            cfg: *cfg,
            epoch: Instant::now(), // provisional; the shard sets the shared epoch
            transport,
            open: true,
            sent_to: Vec::new(),
            alive: !spec.initially_down.contains(&id),
            incarnation: 0,
            keys: Arc::clone(keys),
            routes: Arc::clone(routes),
            convergence,
            paths: plan.paths.clone(),
            monitor_pairs: monitor_pairs.to_vec(),
            flow_pairs: spec.flows.iter().map(|f| (f.src, f.dst)).collect(),
            monitors,
            pik2: Pik2Node::new(id, &plan.segments),
            flows,
            drop_rate: dropper.map(|d| d.rate).unwrap_or(0.0),
            drop_from: dropper.map(|d| d.active_from).unwrap_or(0),
            rng: StdRng::seed_from_u64(
                dropper.map(|d| d.seed).unwrap_or(0) ^ (u64::from(u32::from(id)) << 32),
            ),
            reliable: Retransmitter::new(RELIABLE),
            mailbox,
            metrics,
            next_seq: 0,
            pkt_counter: 0,
            obs_buf: Vec::with_capacity(OBS_BUF_FLUSH),
            ls_seq: 0,
            churn: spec
                .churn
                .iter()
                .filter(|e| e.actor == id)
                .copied()
                .collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64
    }

    fn now_st(&self) -> SimTime {
        SimTime::from_ns(self.now_ns())
    }

    /// Round `r`'s window on this deployment's schedule. Round 0 has no
    /// lower bound: observations made before the deployment's epoch stamp
    /// as time 0 and are judged with it.
    fn window(&self, r: u64) -> Window {
        let ns = |d: Duration| SimTime::from_ns(d.as_nanos() as u64);
        Window::of_round(r, ns(self.cfg.tau), ns(self.cfg.maturity_lag))
    }

    /// Folds end-of-run transport wire bytes into the registry counters,
    /// flushes any buffered observations and publishes what the record
    /// still holds.
    fn finish(&mut self) {
        self.flush_observations();
        self.monitors.publish_held();
        self.metrics
            .wire_bytes_sent
            .add(self.transport.bytes_sent());
        self.metrics
            .wire_bytes_recv
            .add(self.transport.bytes_recv());
    }

    fn pump(&mut self, events: &mpsc::Sender<LiveEvent>, trace: &mut TraceBuffer) {
        if !self.alive {
            return;
        }
        let now = self.now_ns();
        let mut resent = 0;
        let exhausted = self.reliable.poll(now, |_, dst, frame| {
            let _ = self.transport.send(dst, frame); // best-effort resend
            self.metrics.retransmits.inc();
            self.metrics.retransmit_bytes.add(frame.len() as u64);
            resent += 1;
        });
        if resent > 0 {
            trace.record(
                now,
                TraceKind::Retransmit,
                u32::from(self.id),
                NO_ROUND,
                resent,
            );
        }
        for ex in exhausted {
            trace.record(
                now,
                TraceKind::DeliveryExhausted,
                u32::from(self.id),
                NO_ROUND,
                u64::from(u32::from(ex.dst)),
            );
            let _ = events.send(LiveEvent::DeliveryExhausted {
                by: self.id,
                dst: ex.dst,
                attempts: ex.attempts,
            });
            // Organic crash detection: a peer that exhausts reliable
            // delivery is reported down (unless it already is), so the
            // fabric reroutes around it without waiting for an operator.
            if self.cfg.response && !self.convergence.view().overlay.is_router_down(ex.dst) {
                self.originate_ls(TopoUpdate::RouterDown(ex.dst), events, trace);
            }
        }
    }

    /// Injects the next packet of local flow `i`; returns the next tick
    /// deadline, or `None` once the final round has closed.
    fn flow_tick(&mut self, i: usize, trace: &mut TraceBuffer) -> Option<u64> {
        let tau = self.cfg.tau.as_nanos() as u64;
        let now = self.now_ns();
        // Stop injecting once the final round has closed.
        if now >= self.cfg.rounds * tau {
            return None;
        }
        // On time, the period is exact; after a stall, one packet goes out
        // at once and the schedule resumes at the latest tick missed rather
        // than bursting through the backlog. The flow stays on its own
        // phase: restarting every stalled flow from `now` would put them
        // all on one phase, and they would tick as one burst ever after.
        let next = {
            let f = &mut self.flows[i];
            let interval = (f.spec.interval.as_nanos() as u64).max(1);
            f.next_due += interval;
            if f.next_due < now {
                f.next_due += (now - f.next_due) / interval * interval;
            }
            f.next_due
        };
        if !self.alive {
            // Keep ticking so the flow resumes after a restart.
            return Some(next);
        }
        let spec = {
            let f = &mut self.flows[i];
            f.sent += 1;
            f.spec
        };
        self.pkt_counter += 1;
        let id = PacketId(((u64::from(u32::from(self.id)) + 1) << 40) | self.pkt_counter);
        let packet = Packet {
            id,
            src: spec.src,
            dst: spec.dst,
            flow: FlowId(self.flows[i].global_idx),
            kind: PacketKind::Data,
            size: spec.size,
            seq: self.flows[i].sent,
            payload_tag: Packet::expected_tag(id),
            ttl: Packet::DEFAULT_TTL,
            created_at: self.now_st(),
        };
        if let Some(next_hop) = self.forward_hop(spec.src, spec.dst) {
            let t = self.now_st();
            self.tap(
                TapEvent::Enqueued {
                    router: self.id,
                    next_hop,
                    packet,
                    time: t,
                    queue_len_after: 0,
                },
                trace,
            );
            let epoch = self.convergence.view().epoch;
            self.send_frame(next_hop, WireMessage::Data { packet, epoch }, false);
        }
        Some(next)
    }

    /// The forwarding decision for a packet of the (source, destination)
    /// pair: the hop after this router on the pair's current path. `None`
    /// when the pair is unroutable or this router is not on the path (a
    /// stale transit placement mid-transition).
    fn forward_hop(&self, src: RouterId, dst: RouterId) -> Option<RouterId> {
        self.paths
            .get(&(src, dst))
            .and_then(|p| p.next_after(self.id))
    }

    /// Queues a data-plane observation for the batched monitor ingest,
    /// flushing once the buffer amortizes the batch setup.
    fn tap(&mut self, ev: TapEvent, trace: &mut TraceBuffer) {
        trace.record(
            ev.time().as_ns(),
            TraceKind::PacketTap,
            u32::from(self.id),
            NO_ROUND,
            u64::from(ev.packet().size),
        );
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

    fn round_end(&mut self, r: u64, trace: &mut TraceBuffer) {
        if !self.alive {
            return;
        }
        let began = self.now_ns();
        self.flush_observations();
        if r < self.convergence.view().eval_resume {
            // Reconvergence amnesty: this round straddles a topology
            // change, so neither end summarizes it — the transition can
            // never be mistaken for an attack.
            return;
        }
        let (sketch, kind) = match self.cfg.summary {
            SummaryMode::Full => (None, TraceKind::SummarySent),
            SummaryMode::Reconcile { capacity } => (Some(capacity.max(1)), TraceKind::DigestSent),
        };
        let window = self.window(r);
        for (to, seg, said) in (self.pik2).close_round(r, window, sketch, &self.monitors) {
            let message = Message {
                round: r,
                segment: self.monitors.segments()[seg].clone(),
                evidence: said,
            };
            self.send_frame(to, WireMessage::Pik2(message), true);
            trace.record(
                self.now_ns(),
                kind,
                u32::from(self.id),
                r,
                u64::from(u32::from(to)),
            );
        }
        let spent = self.now_ns().saturating_sub(began);
        self.metrics.round_end_ns.record(spent);
    }

    /// Hands the node a piece of evidence that arrived in a sealed frame.
    /// The seal says `from` is the registered router it claims to be;
    /// whether that router may speak for `segment` is the node's decision.
    /// The frame is acknowledged already, so a rejected one is not sent
    /// again.
    fn handle_evidence(&mut self, from: RouterId, message: Message, trace: &mut TraceBuffer) {
        self.flush_observations();
        let (round, segment) = (message.round, &message.segment);
        let is_digest = matches!(message.evidence, Evidence::Digest { .. });
        let (said, window) = (message.evidence, self.window(round));
        let began = self.now_ns();
        let received = (self.pik2).receive(from, round, segment, said, window, &self.monitors);
        if is_digest && matches!(received, Received::Stored | Received::Reply(_)) {
            let spent = self.now_ns().saturating_sub(began);
            self.metrics.digest_resolve_ns.record(spent);
        }
        let mut note = |counter: &Counter, kind| {
            counter.inc();
            let (by, peer) = (u32::from(self.id), u64::from(u32::from(from)));
            trace.record(self.now_ns(), kind, by, round, peer);
        };
        match received {
            Received::Stored if is_digest => {
                note(&self.metrics.digests_resolved, TraceKind::DigestResolved)
            }
            Received::Stored => {}
            Received::Reply(reply) => {
                if matches!(reply, Evidence::Pull) {
                    note(&self.metrics.digest_fallbacks, TraceKind::DigestFallback);
                }
                let reply = Message {
                    evidence: reply,
                    ..message
                };
                self.send_frame(from, WireMessage::Pik2(reply), true);
            }
            Received::Stale => self.metrics.stale_summaries.inc(),
            Received::Foreign => self.metrics.foreign_summaries.inc(),
            // A peer on another route epoch monitors other segments.
            Received::Unknown => {}
        }
    }

    fn round_eval(&mut self, r: u64, events: &mpsc::Sender<LiveEvent>, trace: &mut TraceBuffer) {
        if !self.alive {
            return;
        }
        // An amnesty round raises nothing (retiring it drops whatever
        // arrived for it). Both ends of every segment skip the same rounds
        // (the window is derived from the update's origin timestamp), so
        // nobody waits for a summary that will never come.
        if r >= self.convergence.view().eval_resume {
            self.judge_round(r, events, trace);
        }
        self.probation_tick(r, events, trace);
        // Round `r` is over for this node: evidence for it is stale from
        // here on — said again after the evaluation, since a conviction's
        // rebuild replans the node, which forgets — and the record forgets
        // what no later round reads. Readers trim to their own window, so
        // the pruning is a memory matter only.
        self.pik2.retire(r);
        self.flush_observations();
        if let Some(horizon) = self.window(r).forget_horizon() {
            self.monitors.prune(horizon);
        }
    }

    /// Has the node judge round `r` and acts on each verdict: events,
    /// metrics, the accusation or signed alert, and the response.
    fn judge_round(&mut self, r: u64, events: &mpsc::Sender<LiveEvent>, trace: &mut TraceBuffer) {
        let eval_began = self.now_ns();
        self.flush_observations();
        let tau = self.cfg.tau.as_nanos() as u64;
        let round_start = SimTime::from_ns(r * tau);
        let round_end = SimTime::from_ns((r + 1) * tau);
        let judged = self.pik2.evaluate(
            r,
            self.window(r),
            SimTime::ZERO,
            Policy::Content,
            &self.cfg.thresholds,
            &self.monitors,
        );
        // Convictions are originated after the loop: applying one rebuilds
        // the segment set, which would invalidate the indices still in use.
        let mut convictions: Vec<PathSegment> = Vec::new();
        for j in judged {
            let (peer, verdict, passed) = (j.peer, j.verdict, j.passed);
            let segment = self.monitors.segments()[j.segment].clone();
            if verdict.bottom {
                self.metrics.summary_timeouts.inc();
                trace.record(
                    self.now_ns(),
                    TraceKind::SummaryTimeout,
                    u32::from(self.id),
                    r,
                    u64::from(u32::from(peer)),
                );
                let _ = events.send(LiveEvent::SummaryTimeout {
                    by: self.id,
                    segment: segment.clone(),
                    round: r,
                });
            }
            let _ = events.send(LiveEvent::RoundEvaluated {
                router: self.id,
                round: r,
                segment: segment.clone(),
                passed,
                bottom: verdict.bottom,
                lost: verdict.lost.len(),
                fabricated: verdict.fabricated.len(),
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
            trace.record(
                self.now_ns(),
                TraceKind::AccusationRaised,
                u32::from(self.id),
                r,
                u64::from(u32::from(peer)),
            );
            let _ = events.send(LiveEvent::SuspicionRaised {
                suspicion: suspicion.clone(),
                round: r,
            });
            if verdict.bottom {
                // Timeout-as-accusation: the peer (or the path to it)
                // failed the exchange itself.
                self.send_frame(
                    peer,
                    WireMessage::Accusation {
                        segment: segment.clone(),
                        interval,
                    },
                    false,
                );
            } else {
                let alert = SignedAlert::sign(&self.keys, suspicion);
                self.send_frame(peer, WireMessage::Alert(alert), true);
                self.metrics.alerts_sent.inc();
                trace.record(
                    self.now_ns(),
                    TraceKind::AlertSent,
                    u32::from(self.id),
                    r,
                    u64::from(u32::from(peer)),
                );
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
            self.originate_ls(TopoUpdate::ExcludeSegment(segment), events, trace);
        }
        self.metrics
            .round_eval_ns
            .record(self.now_ns().saturating_sub(eval_began));
    }

    /// Closes round `r`. Probations that end at the boundary of `r + 1`
    /// are over — at every node alike, with no agreement traffic — and a
    /// router whose transit duty that restores is routed through again.
    fn probation_tick(
        &mut self,
        r: u64,
        events: &mpsc::Sender<LiveEvent>,
        trace: &mut TraceBuffer,
    ) {
        let before = self.convergence.view().epoch;
        let serving = self.convergence.view().probation.is_on_probation(self.id);
        self.convergence.round_closed(r);
        if serving && !self.convergence.view().probation.is_on_probation(self.id) {
            self.metrics.probation_cleared.inc();
            trace.record(
                self.now_ns(),
                TraceKind::ProbationCleared,
                u32::from(self.id),
                r + 1,
                0,
            );
            let _ = events.send(LiveEvent::ProbationCleared {
                router: self.id,
                round: r + 1,
            });
        }
        if self.convergence.view().epoch != before {
            self.rebuild(self.now_ns(), trace);
        }
    }

    fn send_frame(&mut self, dst: RouterId, msg: WireMessage, reliable: bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let is_data = matches!(msg, WireMessage::Data { .. });
        let frame = Frame {
            src: self.id,
            dst,
            seq,
            msg,
        };
        match encode_frame(&frame, &self.keys) {
            Ok(bytes) => {
                self.metrics.frames_sent.inc();
                self.metrics.frame_bytes.record(bytes.len() as u64);
                if is_data {
                    self.metrics.data_bytes_sent.add(bytes.len() as u64);
                } else {
                    self.metrics.control_bytes_sent.add(bytes.len() as u64);
                }
                let via_mailbox = self
                    .mailbox
                    .as_ref()
                    .is_some_and(|m| m.deliver(dst, bytes.clone()));
                if !via_mailbox {
                    let _ = self.transport.send(dst, &bytes);
                    self.sent_to.push(dst);
                }
                if reliable {
                    self.reliable.track(seq, dst, bytes, self.now_ns());
                }
            }
            Err(_) => self.metrics.encode_failures.inc(),
        }
    }

    fn handle_frame(
        &mut self,
        bytes: &[u8],
        events: &mpsc::Sender<LiveEvent>,
        trace: &mut TraceBuffer,
    ) {
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
                    self.send_frame(frame.src, WireMessage::Ack { msg_id: frame.seq }, false);
                }
                let now = self.now_ns();
                if !self.reliable.accept(frame.src, frame.seq, now) {
                    return;
                }
            }
        }
        match frame.msg {
            WireMessage::Data { packet, epoch } => {
                self.handle_data(frame.src, packet, epoch, trace)
            }
            WireMessage::Ack { msg_id } => {
                self.reliable.on_ack(msg_id);
            }
            WireMessage::Pik2(message) => self.handle_evidence(frame.src, message, trace),
            WireMessage::Alert(alert) => {
                let sig_ok = alert.verify(&self.keys);
                let _ = events.send(LiveEvent::AlertReceived {
                    by: self.id,
                    origin: alert.suspicion.raised_by,
                    segment: alert.suspicion.segment,
                    sig_ok,
                });
            }
            WireMessage::Accusation { segment, .. } => {
                let _ = events.send(LiveEvent::AccusationReceived {
                    by: self.id,
                    from: frame.src,
                    segment,
                });
            }
            WireMessage::LinkState { update, sig } => {
                if verify_link_state(&self.keys, &update, &sig)
                    && self.apply_ls(&update, &sig, events, trace)
                {
                    // Freshly applied: re-flood to every up neighbour
                    // except the hop it came from and its origin.
                    self.flood_ls(&update, &sig, Some(frame.src));
                }
            }
        }
    }

    fn handle_data(&mut self, from: RouterId, packet: Packet, epoch: u64, trace: &mut TraceBuffer) {
        let t = self.now_st();
        // Packets injected under an older route epoch drain without being
        // tapped: their upstream observations were recorded by monitors
        // that no longer exist, so tapping them here would misattribute
        // in-flight traffic across the transition.
        let current = epoch == self.convergence.view().epoch;
        if current {
            self.tap(
                TapEvent::Arrived {
                    router: self.id,
                    from: Some(from),
                    packet,
                    time: t,
                },
                trace,
            );
        } else {
            self.metrics.untapped_drained.inc();
        }
        if packet.dst == self.id {
            self.metrics.data_delivered.inc();
            return;
        }
        let tau = self.cfg.tau.as_nanos() as u64;
        if self.drop_rate > 0.0
            && self.now_ns() / tau >= self.drop_from
            && self.rng.gen_bool(self.drop_rate)
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
        let next_hop = match self.forward_hop(packet.src, packet.dst) {
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
            self.tap(
                TapEvent::Enqueued {
                    router: self.id,
                    next_hop,
                    packet,
                    time: t,
                    queue_len_after: 0,
                },
                trace,
            );
        }
        self.send_frame(next_hop, WireMessage::Data { packet, epoch }, false);
    }

    /// Originates a signed link-state update: applies it locally, then
    /// floods it reliably to every up neighbour.
    fn originate_ls(
        &mut self,
        update: TopoUpdate,
        events: &mpsc::Sender<LiveEvent>,
        trace: &mut TraceBuffer,
    ) {
        let ls = LinkStateUpdate {
            origin: self.id,
            update_seq: self.ls_seq,
            t_origin_ns: self.now_ns(),
            update,
        };
        self.ls_seq += 1;
        let sig = sign_link_state(&self.keys, &ls);
        self.apply_ls(&ls, &sig, events, trace);
        self.flood_ls(&ls, &sig, None);
    }

    /// Reliably sends `ls` to every up neighbour except `except` and the
    /// update's origin.
    fn flood_ls(&mut self, ls: &LinkStateUpdate, sig: &Signature, except: Option<RouterId>) {
        let overlay = &self.convergence.view().overlay;
        let targets: Vec<RouterId> = (overlay.base().neighbors(self.id).iter())
            .map(|&(n, _)| n)
            .filter(|&n| n != ls.origin && Some(n) != except && !overlay.is_router_down(n))
            .collect();
        for n in targets {
            self.send_ls(n, ls, sig);
        }
    }

    fn send_ls(&mut self, to: RouterId, ls: &LinkStateUpdate, sig: &Signature) {
        let (update, sig) = (ls.clone(), *sig);
        self.send_frame(to, WireMessage::LinkState { update, sig }, true);
        self.metrics.ls_updates_sent.inc();
    }

    /// Takes in a signature-verified link-state update: if it is fresh,
    /// the view is derived anew from the database, the transport and the
    /// metrics follow, and routes, segments and monitors are rebuilt iff
    /// the route epoch changed. Returns whether the update was fresh (and
    /// should be re-flooded).
    fn apply_ls(
        &mut self,
        ls: &LinkStateUpdate,
        sig: &Signature,
        events: &mpsc::Sender<LiveEvent>,
        trace: &mut TraceBuffer,
    ) -> bool {
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
                    // Database resync: a restarted neighbour lost its
                    // link-state DB with the crash; re-flood ours so it
                    // reconverges onto the fabric's current shape.
                    let db: Vec<_> = (self.convergence.database())
                        .filter(|(db_ls, _)| db_ls.origin != router)
                        .cloned()
                        .collect();
                    for (db_ls, db_sig) in &db {
                        self.send_ls(router, db_ls, db_sig);
                    }
                }
            }
            _ => {}
        }
        if self.convergence.view().epoch != before {
            self.rebuild(ls.t_origin_ns, trace);
        }
        trace.record(
            self.now_ns(),
            TraceKind::LinkStateApplied,
            u32::from(self.id),
            ls.t_origin_ns / self.cfg.tau.as_nanos() as u64,
            u64::from(u32::from(ls.origin)),
        );
        let _ = events.send(LiveEvent::LinkStateApplied {
            by: self.id,
            origin: ls.origin,
            update_seq: ls.update_seq,
            epoch: self.convergence.view().epoch,
        });
        true
    }

    /// Reconverges this node onto a changed topology overlay: recomputes
    /// the forwarding paths, re-derives the Πk+2 segment set from the
    /// rerouted monitor paths and retargets the monitors (keeping their
    /// registry-backed metric handles). Traffic in flight carries the
    /// epoch it was injected under and drains untapped.
    fn rebuild(&mut self, t_origin_ns: u64, trace: &mut TraceBuffer) {
        self.flush_observations();
        let plan = (self.convergence).plan(&self.monitor_pairs, &self.flow_pairs, self.cfg.k);
        self.monitors = self.monitors.retarget(
            plan.segments,
            plan.oracle,
            &self.keys,
            MonitorMode::EndsOnly,
            None,
        );
        self.paths = plan.paths;
        // Cross-epoch summary state is void: the segments it described no
        // longer exist, and the amnesty window covers the gap.
        self.pik2.replan(self.monitors.segments());
        self.obs_buf.clear();
        self.metrics.epoch_transitions.inc();
        self.metrics
            .reroute_latency_ns
            .record(self.now_ns().saturating_sub(t_origin_ns));
        trace.record(
            self.now_ns(),
            TraceKind::EpochTransition,
            u32::from(self.id),
            NO_ROUND,
            self.convergence.view().epoch,
        );
    }

    /// Performs step `step` of this node's churn script. Runs even while
    /// the node is dead — a restart has to.
    fn churn_step(
        &mut self,
        step: usize,
        events: &mpsc::Sender<LiveEvent>,
        trace: &mut TraceBuffer,
    ) {
        let ev = self.churn[step];
        trace.record(
            self.now_ns(),
            TraceKind::ChurnEvent,
            u32::from(self.id),
            NO_ROUND,
            step as u64,
        );
        match ev.action {
            ChurnAction::LinkDown(peer) => {
                self.originate_ls(TopoUpdate::LinkDown(self.id, peer), events, trace);
            }
            ChurnAction::LinkUp(peer) => {
                self.originate_ls(TopoUpdate::LinkUp(self.id, peer), events, trace);
            }
            ChurnAction::Leave => {
                self.originate_ls(TopoUpdate::RouterDown(self.id), events, trace);
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
                    // incarnation's traffic — and the node returns with an
                    // empty link-state DB (neighbours resync it) and a
                    // fresh sequence space disjoint from its old one.
                    self.incarnation += 1;
                    self.keys
                        .set_incarnation(u32::from(self.id), self.incarnation);
                    self.next_seq = u64::from(self.incarnation) << 48;
                    self.reliable = Retransmitter::new(RELIABLE);
                    self.convergence.reset();
                    self.metrics.probation_admitted.inc();
                    self.pik2 = Pik2Node::new(self.id, self.monitors.segments());
                    self.obs_buf.clear();
                }
                self.alive = true;
                // A restart's own `RouterUp` puts this router on probation,
                // which the reset overlay never has: the epoch moves and
                // `rebuild` drops the records from before the crash.
                self.originate_ls(
                    TopoUpdate::RouterUp {
                        router: self.id,
                        incarnation: self.incarnation,
                    },
                    events,
                    trace,
                );
            }
            ChurnAction::ReportDown(r) => {
                if !self.convergence.view().overlay.is_router_down(r) {
                    self.originate_ls(TopoUpdate::RouterDown(r), events, trace);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{LoopbackHub, NetError, UdpNet};
    use fatih_core::monitor::Report;
    use fatih_core::spec::SpecCheck;
    use fatih_topology::builtin;
    use fatih_validation::digest::ContentDigest;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fast end-to-end run over in-memory transports: a 5-router line
    /// with a 30% dropper at the middle hop must be caught, with zero
    /// suspicions of correct-only segments.
    #[test]
    fn loopback_line_catches_dropper() {
        let topo = builtin::line(5);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(
                ids[0],
                ids[4],
                1000,
                Duration::from_millis(2),
            )],
            droppers: vec![DropperSpec {
                router: ids[2],
                rate: 0.3,
                seed: 9,
                active_from: 0,
            }],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            maturity_lag: Duration::from_millis(50),
            rounds: 2,
            ..LiveConfig::default()
        };
        let transports = LoopbackHub::group(&ids);
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);

        assert!(outcome.stats.data_delivered > 0, "traffic flowed");
        assert!(outcome.stats.data_dropped > 0, "the dropper dropped");
        let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
        let check = SpecCheck::evaluate(&outcome.suspicions, &faulty);
        assert!(
            check.is_complete(),
            "dropper escaped: {:?}",
            outcome.suspicions
        );
        assert!(
            check.is_accurate(cfg.k + 2),
            "false positives: {:?}",
            check.false_positives
        );
    }

    /// With no adversary every round of every segment must pass — the
    /// runtime's timing (maturity lag, exchange budget) absorbs its own
    /// scheduling jitter instead of accusing someone.
    #[test]
    fn loopback_clean_run_raises_nothing() {
        let topo = builtin::line(4);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[3], 800, Duration::from_millis(2))],
            droppers: vec![],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            rounds: 2,
            ..LiveConfig::default()
        };
        let transports = LoopbackHub::group(&ids);
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);
        assert!(
            outcome.suspicions.is_empty(),
            "clean run accused someone: {:?}",
            outcome.suspicions
        );
        assert!(outcome.stats.data_delivered > 0);
    }

    /// Multi-router shards (2 workers for 5 routers) must reach the same
    /// verdicts as thread-per-router did: the dropper caught, nobody else.
    #[test]
    fn two_shards_catch_the_dropper() {
        let topo = builtin::line(5);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(
                ids[0],
                ids[4],
                1000,
                Duration::from_millis(2),
            )],
            droppers: vec![DropperSpec {
                router: ids[2],
                rate: 0.3,
                seed: 5,
                active_from: 0,
            }],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            maturity_lag: Duration::from_millis(50),
            rounds: 2,
            shards: 2,
            ..LiveConfig::default()
        };
        let transports = LoopbackHub::group(&ids);
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);
        let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
        let check = SpecCheck::evaluate(&outcome.suspicions, &faulty);
        assert!(check.is_complete(), "dropper escaped under sharding");
        assert!(
            check.is_accurate(cfg.k + 2),
            "false positives under sharding: {:?}",
            check.false_positives
        );
    }

    /// Reconciliation-mode exchange: a clean run resolves every digest
    /// without a single full-summary fallback and accuses nobody, and its
    /// summary traffic is a fraction of full mode's.
    #[test]
    fn reconcile_mode_clean_run_resolves_digests() {
        let topo = builtin::line(4);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[3], 800, Duration::from_millis(2))],
            droppers: vec![],
            ..LiveSpec::default()
        };
        let base = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            rounds: 2,
            ..LiveConfig::default()
        };
        let reconcile_cfg = LiveConfig {
            summary: SummaryMode::Reconcile { capacity: 24 },
            ..base
        };
        let full = LiveDeployment::run(&topo, &spec, &base, LoopbackHub::group(&ids));
        let rec = LiveDeployment::run(&topo, &spec, &reconcile_cfg, LoopbackHub::group(&ids));

        assert!(full.suspicions.is_empty() && rec.suspicions.is_empty());
        assert!(rec.stats.digests_resolved > 0, "no digest ever resolved");
        assert_eq!(rec.stats.digest_fallbacks, 0, "clean run fell back");
        assert!(
            rec.stats.control_bytes_sent < full.stats.control_bytes_sent,
            "reconciled control plane not cheaper: {} vs {}",
            rec.stats.control_bytes_sent,
            full.stats.control_bytes_sent
        );
    }

    /// Reconciliation-mode exchange still catches the dropper: either the
    /// decoded diff convicts directly, or the round's loss overflows the
    /// sketch and the fallback full transfer convicts.
    #[test]
    fn reconcile_mode_catches_dropper() {
        let topo = builtin::line(5);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(
                ids[0],
                ids[4],
                1000,
                Duration::from_millis(2),
            )],
            droppers: vec![DropperSpec {
                router: ids[2],
                rate: 0.3,
                seed: 9,
                active_from: 0,
            }],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            maturity_lag: Duration::from_millis(50),
            rounds: 2,
            summary: SummaryMode::Reconcile { capacity: 128 },
            ..LiveConfig::default()
        };
        let transports = LoopbackHub::group(&ids);
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);
        let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
        let check = SpecCheck::evaluate(&outcome.suspicions, &faulty);
        assert!(check.is_complete(), "dropper escaped in reconcile mode");
        assert!(
            check.is_accurate(cfg.k + 2),
            "false positives in reconcile mode: {:?}",
            check.false_positives
        );
        assert!(
            outcome.stats.digests_resolved + outcome.stats.digest_fallbacks > 0,
            "digest path never exercised"
        );
        // Every digest taken in is timed once, resolved or pulled.
        let timed = |name| outcome.metrics.histogram(name).map_or(0, |h| h.count);
        assert_eq!(
            timed("net.digest_resolve_ns"),
            outcome.stats.digests_resolved + outcome.stats.digest_fallbacks
        );
        assert!(timed("net.round_end_ns") > 0);
    }

    /// With the mailbox fastpath on, co-resident routers bypass the
    /// transport entirely: the run still validates cleanly and the wire
    /// counters show (almost) nothing crossed a transport.
    #[test]
    fn mailbox_fastpath_bypasses_the_wire() {
        let topo = builtin::line(4);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[3], 800, Duration::from_millis(2))],
            droppers: vec![],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            rounds: 2,
            shards: 2,
            mailbox_fastpath: true,
            ..LiveConfig::default()
        };
        let transports = LoopbackHub::group(&ids);
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);
        assert!(outcome.suspicions.is_empty());
        assert!(outcome.stats.data_delivered > 0);
        // First transmissions all ride the mailbox; only retransmissions
        // may touch the transport.
        assert!(
            outcome.stats.wire_bytes_sent < outcome.stats.data_bytes_sent / 2,
            "fastpath did not bypass the wire: {} wire vs {} data bytes",
            outcome.stats.wire_bytes_sent,
            outcome.stats.data_bytes_sent
        );
    }

    /// Forwards every `Transport` method to the endpoint it wraps, as a
    /// user's wrapper would, and counts the receive polls on the way.
    struct Counting<T> {
        inner: T,
        polls: Arc<AtomicU64>,
    }

    impl<T: Transport> Transport for Counting<T> {
        fn local(&self) -> RouterId {
            self.inner.local()
        }
        fn send(&mut self, dst: RouterId, frame: &[u8]) -> Result<(), NetError> {
            self.inner.send(dst, frame)
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
            self.inner.recv_timeout(timeout)
        }
        fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
            self.polls.fetch_add(1, Ordering::Relaxed);
            self.inner.try_recv()
        }
        fn max_datagram(&self) -> usize {
            self.inner.max_datagram()
        }
        fn bytes_sent(&self) -> u64 {
            self.inner.bytes_sent()
        }
        fn bytes_recv(&self) -> u64 {
            self.inner.bytes_recv()
        }
    }

    /// Sixteen routers on one worker, a trickle of traffic: receive polls
    /// must be of the order of the frames received, not of routers × loop
    /// iterations (775 polls for 412 frames; sweeping made 21 228).
    /// The sockets sit behind a wrapper that knows nothing of the poller,
    /// so this also shows that registration needs no help from wrappers.
    #[cfg(target_os = "linux")]
    #[test]
    fn idle_udp_endpoints_are_not_polled() {
        let topo = builtin::line(16);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(
                ids[0],
                ids[15],
                800,
                Duration::from_millis(20),
            )],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            rounds: 2,
            shards: 1,
            response: false,
            ..LiveConfig::default()
        };
        let polls = Arc::new(AtomicU64::new(0));
        let transports: Vec<_> = UdpNet::bind_group(&ids)
            .expect("bind loopback sockets")
            .into_iter()
            .map(|inner| Counting {
                inner,
                polls: Arc::clone(&polls),
            })
            .collect();
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);
        assert!(outcome.suspicions.is_empty(), "{:?}", outcome.suspicions);
        assert!(outcome.stats.data_delivered > 0);

        let polls = polls.load(Ordering::Relaxed);
        let frames = outcome.stats.frames_received;
        assert!(
            polls <= 3 * frames + 64,
            "{polls} receive polls for {frames} frames"
        );
        assert_eq!(polls, outcome.metrics.counter("net.recv_polls"));
        assert_eq!(
            polls - outcome.metrics.counter("net.recv_polls_empty"),
            frames
        );
    }

    /// Drives one shard by hand, pass by pass, over real sockets: a packet
    /// injected at the head of a 6-line reaches its tail within *one*
    /// pass, because every hop marks the next router due before the pass
    /// gets to it; an idle pass polls nobody; and a crashed router's
    /// socket is still drained, so it cannot keep the poller awake.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_forwarded_frame_is_received_within_the_same_pass() {
        let topo = builtin::line(6);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[5], 800, Duration::from_secs(1))],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            shards: 1,
            response: false,
            ..LiveConfig::default()
        };
        let registry = MetricsRegistry::new();
        let metrics = NetMetrics::registered(&registry);
        let transports = UdpNet::bind_group(&ids).expect("bind loopback sockets");
        let mut prepared = LiveDeployment::prepare(&topo, &spec, &cfg, transports, &metrics);
        let nodes = prepared.shard_nodes.remove(0);
        let mut shard = Shard::new(0, nodes, cfg, Instant::now(), None, metrics);
        let (events, _event_rx) = mpsc::channel();
        let poller = poller::install();
        let counter = |name: &str| registry.snapshot().counter(name);

        // Nothing is in flight: the first pass sweeps every endpoint once,
        // which is when each joins the poll set.
        assert_eq!(shard.pass(&poller, &events), 0);
        assert_eq!(counter("net.recv_polls"), 6);
        assert!(shard.swept.is_empty());

        // What a flow tick does: router 0 injects one packet.
        assert!(shard.nodes[0].flow_tick(0, &mut shard.trace).is_some());
        shard.mark_sent_due(0);
        assert_eq!(shard.due, [false, true, false, false, false, false]);
        assert_eq!(shard.pass(&poller, &events), 5, "five hops, one pass");
        assert_eq!(counter("net.data_delivered"), 1);
        assert_eq!(counter("net.shard_passes"), 2);
        // One frame and one empty poll at each of routers 1..=5.
        assert_eq!(counter("net.recv_polls"), 6 + 10);

        // Idle: the wait runs out with nothing readable, the pass visits
        // nobody.
        shard.wait(&poller, 5);
        assert_eq!(shard.pass(&poller, &events), 0);
        assert_eq!(counter("net.recv_polls"), 6 + 10);
        assert_eq!(counter("net.shard_waits"), 1);

        // Router 3 crashes: the next packet dies there, but its frame is
        // taken off the socket all the same and the shard goes quiet.
        shard.nodes[3].alive = false;
        assert!(shard.nodes[0].flow_tick(0, &mut shard.trace).is_some());
        shard.mark_sent_due(0);
        assert_eq!(shard.pass(&poller, &events), 3);
        assert_eq!(counter("net.data_delivered"), 1);
        shard.wait(&poller, 3);
        assert!(shard.due.iter().all(|&d| !d), "{:?}", shard.due);
    }

    /// Every router of `topo` on one hand-driven shard over real sockets,
    /// carrying one packet a second on each (source, destination) index
    /// pair of `flows`.
    #[cfg(target_os = "linux")]
    fn udp_shard(topo: &Topology, flows: &[(usize, usize)]) -> (Shard<UdpNet>, MetricsRegistry) {
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: flows
                .iter()
                .map(|&(s, d)| FlowSpec::new(ids[s], ids[d], 800, Duration::from_secs(1)))
                .collect(),
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            shards: 1,
            response: false,
            ..LiveConfig::default()
        };
        let registry = MetricsRegistry::new();
        let metrics = NetMetrics::registered(&registry);
        let transports = UdpNet::bind_group(&ids).expect("bind loopback sockets");
        let mut prepared = LiveDeployment::prepare(topo, &spec, &cfg, transports, &metrics);
        let nodes = prepared.shard_nodes.remove(0);
        let shard = Shard::new(0, nodes, cfg, Instant::now(), None, metrics);
        (shard, registry)
    }

    /// The other way along the 6-line: every hop goes to a lower-indexed
    /// router, and the packet still crosses in one pass, because a pass
    /// serves each frame's next hop at once, whatever its index. (Served
    /// in index order, each hop waited for the next pass: five passes.)
    #[cfg(target_os = "linux")]
    #[test]
    fn a_packet_crosses_a_descending_line_in_one_pass() {
        let (mut shard, registry) = udp_shard(&builtin::line(6), &[(5, 0)]);
        let (events, _event_rx) = mpsc::channel();
        let poller = poller::install();
        let counter = |name: &str| registry.snapshot().counter(name);

        assert_eq!(shard.pass(&poller, &events), 0);
        assert!(shard.nodes[5].flow_tick(0, &mut shard.trace).is_some());
        shard.mark_sent_due(5);
        assert_eq!(shard.pass(&poller, &events), 5, "five hops, one pass");
        assert_eq!(counter("net.data_delivered"), 1);
        assert_eq!(counter("net.shard_passes"), 2);
        // One frame and one empty poll at each of routers 4..=0.
        assert_eq!(counter("net.recv_polls"), 6 + 10);
    }

    /// Two flows that tick together on one shard, 3 → 0 and 7 → 4 on an
    /// 8-line: the first packet is delivered before the second one's
    /// second hop is received. Served in index order they crossed in lock
    /// step, a hop of each per pass, and finished together.
    #[cfg(target_os = "linux")]
    #[test]
    fn packets_that_tick_together_complete_one_after_the_other() {
        let (mut shard, registry) = udp_shard(&builtin::line(8), &[(3, 0), (7, 4)]);
        let (events, _event_rx) = mpsc::channel();
        let poller = poller::install();
        for node in [3, 7] {
            shard
                .wheel
                .schedule(0, ShardTimer::FlowTick { node, flow: 0 });
        }
        shard.fire_timers(&events);
        while shard.pass(&poller, &events) > 0 {}
        assert_eq!(registry.snapshot().counter("net.data_delivered"), 2);

        let trace = std::mem::replace(&mut shard.trace, TraceBuffer::new(0, 1));
        let journal = TraceJournal::from_buffers([trace]);
        let taps: Vec<u32> = journal
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::PacketTap)
            .map(|e| e.router)
            .collect();
        // Each router of the two paths is on one of them only.
        let at = |i: usize| {
            let id = u32::from(shard.nodes[i].id);
            taps.iter().position(|&r| r == id).expect("tapped")
        };
        let (first_sink, other_second_hop) = if at(0) < at(4) { (0, 5) } else { (4, 1) };
        assert!(
            at(first_sink) < at(other_second_hop),
            "taps in order: {taps:?}"
        );
    }

    /// A node with more than `RECV_SWEEP` frames queued takes that many in
    /// one pass and yields; it opens the next pass, with no wait between.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_node_yields_after_its_receive_bound_and_opens_the_next_pass() {
        let (mut shard, registry) = udp_shard(&builtin::line(3), &[(0, 2)]);
        let (events, _event_rx) = mpsc::channel();
        let poller = poller::install();
        let delivered = || registry.snapshot().counter("net.data_delivered");

        assert_eq!(shard.pass(&poller, &events), 0);
        let queued = RECV_SWEEP + 6;
        for _ in 0..queued {
            assert!(shard.nodes[0].flow_tick(0, &mut shard.trace).is_some());
        }
        shard.mark_sent_due(0);
        // Router 1 takes its bound; each frame it forwards is delivered.
        assert_eq!(shard.pass(&poller, &events), 2 * RECV_SWEEP);
        assert_eq!(delivered(), RECV_SWEEP as u64);
        assert_eq!(shard.pass(&poller, &events), 2 * (queued - RECV_SWEEP));
        assert_eq!(delivered(), queued as u64);
        assert_eq!(shard.pass(&poller, &events), 0);
    }

    /// A 3-line on one hand-driven shard over the loopback hub: its one
    /// monitored segment ⟨0, 1, 2⟩ has routers 0 and 2 as ends. Records
    /// are written with chosen timestamps and rounds are driven by calling
    /// the round methods, so window edges can be hit to the nanosecond.
    struct Line3 {
        shard: Shard<crate::transport::LoopbackNet>,
        registry: MetricsRegistry,
        events: mpsc::Sender<LiveEvent>,
        event_rx: mpsc::Receiver<LiveEvent>,
        poller: poller::Installed,
        ids: Vec<RouterId>,
        /// Not yet recorded: (time, event) per end, upstream first, in
        /// time order.
        pending: [Vec<(u64, TapEvent)>; 2],
        packets: u64,
    }

    const TAU: u64 = 200_000_000;
    const LAG: u64 = 50_000_000;

    impl Line3 {
        fn new(summary: SummaryMode) -> Self {
            let topo = builtin::line(3);
            let ids: Vec<RouterId> = topo.routers().collect();
            let spec = LiveSpec {
                flows: vec![FlowSpec::new(ids[0], ids[2], 800, Duration::from_secs(1))],
                ..LiveSpec::default()
            };
            let cfg = LiveConfig {
                tau: Duration::from_nanos(TAU),
                exchange_budget: Duration::from_millis(100),
                maturity_lag: Duration::from_nanos(LAG),
                thresholds: Thresholds::default(),
                shards: 1,
                response: false,
                summary,
                ..LiveConfig::default()
            };
            let registry = MetricsRegistry::new();
            let metrics = NetMetrics::registered(&registry);
            let mut prepared =
                LiveDeployment::prepare(&topo, &spec, &cfg, LoopbackHub::group(&ids), &metrics);
            let nodes = prepared.shard_nodes.remove(0);
            let (events, event_rx) = mpsc::channel();
            Self {
                shard: Shard::new(0, nodes, cfg, Instant::now(), None, metrics),
                registry,
                events,
                event_rx,
                poller: poller::install(),
                ids,
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

        /// The clock reaches `now`: both ends record what was planned up
        /// to then.
        fn advance(&mut self, now: u64) {
            for (end, node) in [(0, 0), (1, 2)] {
                let due = self.pending[end].partition_point(|&(t, _)| t <= now);
                let evs: Vec<TapEvent> = self.pending[end].drain(..due).map(|(_, ev)| ev).collect();
                self.shard.nodes[node].monitors.observe_batch(&evs);
            }
        }

        fn round_end(&mut self, node: usize, r: u64) {
            self.shard.nodes[node].round_end(r, &mut self.shard.trace);
            self.settle();
        }

        fn round_eval(&mut self, node: usize, r: u64) {
            self.shard.nodes[node].round_eval(r, &self.events, &mut self.shard.trace);
            self.settle();
        }

        /// A whole round at both ends, the clock standing at the
        /// evaluation deadline by the end of it.
        fn round(&mut self, r: u64) {
            self.advance((r + 1) * TAU);
            self.round_end(0, r);
            self.round_end(2, r);
            self.advance((r + 1) * TAU + 100_000_000);
            self.round_eval(0, r);
            self.round_eval(2, r);
        }

        /// Delivers frames until nobody has anything left to say.
        fn settle(&mut self) {
            for ni in 0..self.shard.nodes.len() {
                self.shard.mark_sent_due(ni);
            }
            while self.shard.pass(&self.poller, &self.events) > 0 {}
        }

        fn counter(&self, name: &str) -> u64 {
            self.registry.snapshot().counter(name)
        }

        /// The one monitored segment, ⟨0, 1, 2⟩.
        fn segment(&self) -> PathSegment {
            self.shard.nodes[0].monitors.segments()[0].clone()
        }

        /// Router `from` sends `msg` reliably to router `to`, and whatever
        /// that sets off runs its course.
        fn send(&mut self, from: usize, to: usize, msg: WireMessage) {
            let dst = self.ids[to];
            self.shard.nodes[from].send_frame(dst, msg, true);
            self.settle();
        }

        /// (passed, lost, fabricated) of every evaluation since the last
        /// call.
        fn verdicts(&self) -> Vec<(bool, usize, usize)> {
            self.event_rx
                .try_iter()
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
        let cfg = LiveConfig {
            shards: 1,
            ..LiveConfig::default()
        };
        let registry = MetricsRegistry::new();
        let metrics = NetMetrics::registered(&registry);
        let mut prepared =
            LiveDeployment::prepare(&topo, &spec, &cfg, LoopbackHub::group(&ids), &metrics);
        let mut nodes = prepared.shard_nodes.remove(0);
        let planned = topo.link_state_routes().path(s, d).unwrap();
        for node in &nodes {
            assert_eq!(node.paths[&(s, d)], planned, "at {}", node.id);
        }

        let transit = &mut nodes[planned.routers()[1].index()];
        transit.paths.clear();
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
        transit.handle_data(s, packet, epoch, &mut TraceBuffer::new(0, 1));
        assert_eq!(
            registry.snapshot().counter("net.transition_forward_miss"),
            1
        );
        assert_eq!(transit.sent_to, [planned.routers()[2]]);
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
            let held: usize = net.shard.nodes.iter().map(|n| n.monitors.held()).sum();
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
            net.round_end(0, r);
            assert_eq!(net.counter("net.digests_resolved"), 2 * r + 1, "round {r}");
            net.round_end(2, r);
            assert_eq!(net.counter("net.digests_resolved"), 2 * r + 2, "round {r}");
            net.round_eval(0, r);
            net.round_eval(2, r);
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
        net.advance(TAU);
        // Router 2 evaluates round 0 without having heard from router 0
        // (a timeout accusation, which is not the point here) ...
        net.round_end(2, 0);
        net.round_eval(2, 0);
        assert_eq!(net.counter("net.summary_timeouts"), 1);
        // ... and then router 0's summary for that round turns up.
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
        for node in &mut net.shard.nodes {
            node.pump(&net.events, &mut net.shard.trace);
        }
        assert_eq!(net.counter("net.retransmits"), 0);

        // The round after is live again.
        net.round_eval(0, 0);
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
        for node in &mut net.shard.nodes {
            node.pump(&net.events, &mut net.shard.trace);
        }
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
        let one_entry = net.shard.nodes[0].monitors.report(net.ids[0], 0);
        assert_eq!(one_entry.len(), 1);
        let frame = Frame {
            src: net.ids[0],
            dst: net.ids[2],
            seq: 1 << 40,
            msg: pik2(0, net.segment(), Evidence::Summary(one_entry)),
        };
        let keys = &net.shard.nodes[0].keys;
        let mut bytes = encode_frame(&frame, keys).unwrap();
        bytes.truncate(bytes.len() - fatih_crypto::frame::MAC_LEN);
        // The report is the body's last field: a count, then 20 bytes.
        let count = bytes.len() - 28;
        bytes[count..count + 8].copy_from_slice(&(1u64 + (1 << 62)).to_le_bytes());
        fatih_crypto::frame::seal_frame(&keys.pairwise_key(0, 2), &mut bytes);

        let failures = net.counter("net.decode_failures");
        net.shard.nodes[2].handle_frame(&bytes, &net.events, &mut net.shard.trace);
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
        net.shard.nodes[0].send_frame(dst, pull, true);
        let (events, trace) = (&net.events, &mut net.shard.trace);
        let node = &mut net.shard.nodes[0];
        node.originate_ls(TopoUpdate::RouterDown(dst), events, trace);
        // Nobody has acknowledged anything yet. A second later, of the two
        // frames router 0 sent only the update it flooded to router 1 is
        // sent again.
        node.epoch -= Duration::from_secs(1);
        node.pump(events, trace);
        assert_eq!(net.counter("net.purged_frames"), 1);
        assert_eq!(net.counter("net.retransmits"), 1);
    }

    /// Full mode used to ship the whole run's history and fell off the
    /// `MAX_FRAME` cliff after ≈ 2 300 entries per record. With windowed
    /// records a run several times that long encodes every summary,
    /// accuses nobody, and no router ever holds more than a window.
    #[test]
    fn full_mode_outlives_the_frame_cliff_with_bounded_records() {
        let topo = builtin::line(3);
        let ids: Vec<RouterId> = topo.routers().collect();
        let interval = Duration::from_micros(500);
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[2], 800, interval)],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            maturity_lag: Duration::from_millis(50),
            rounds: 12,
            summary: SummaryMode::Full,
            ..LiveConfig::default()
        };
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, LoopbackHub::group(&ids));
        assert!(
            outcome.stats.data_delivered > 3 * 2_300 / 2,
            "only {} packets: the run never reached the cliff",
            outcome.stats.data_delivered
        );
        assert_eq!(outcome.stats.encode_failures, 0);
        assert!(outcome.suspicions.is_empty(), "{:?}", outcome.suspicions);
        assert_eq!(outcome.metrics.counter("net.summary_timeouts"), 0);

        // Each end router keeps one record. Right before a prune it spans
        // τ + budget + 2·lag; allow half as much again.
        let window = cfg.tau + cfg.exchange_budget + 2 * cfg.maturity_lag;
        let bound = 1.5 * window.as_secs_f64() / interval.as_secs_f64();
        for (r, snap) in outcome.round_metrics.iter().enumerate() {
            let held = snap.gauge("monitor.entries_held_max");
            assert!(held > 0.0 && held <= bound, "round {r}: {held} > {bound}");
        }
        let m = &outcome.metrics;
        assert!(m.gauge("monitor.entries_held_max") <= bound);
        assert!(m.counter("monitor.entries_held_at_finish") as f64 <= 2.0 * bound);
        assert_eq!(
            m.counter("monitor.records") - m.counter("monitor.entries_pruned"),
            m.counter("monitor.entries_held_at_finish")
        );
    }

    /// The §2.4.3 response loop end to end: a ring carries one flow whose
    /// shortest path transits a dropper that activates in round 1. The
    /// segment ends convict it, flood the signed exclusion, every router
    /// reroutes the flow the long way around the ring, and traffic
    /// recovers — with zero false accusations through the transition.
    #[test]
    fn conviction_reroutes_around_the_dropper() {
        let topo = builtin::ring(6);
        let ids: Vec<RouterId> = topo.routers().collect();
        // Lowest-id tie-break routes 0 -> 3 via 1, 2.
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(
                ids[0],
                ids[3],
                1000,
                Duration::from_millis(2),
            )],
            droppers: vec![DropperSpec {
                router: ids[2],
                rate: 0.4,
                seed: 3,
                active_from: 1,
            }],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            maturity_lag: Duration::from_millis(50),
            rounds: 6,
            ..LiveConfig::default()
        };
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, LoopbackHub::group(&ids));

        assert!(outcome.stats.data_dropped > 0, "the dropper never fired");
        let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
        let check = SpecCheck::evaluate(&outcome.suspicions, &faulty);
        assert!(
            check.is_complete(),
            "dropper escaped: {:?}",
            outcome.suspicions
        );
        assert!(
            check.is_accurate(cfg.k + 2),
            "false positives through the transition: {:?}",
            check.false_positives
        );
        // The exclusion flooded to everyone and every router reconverged.
        assert!(
            outcome.metrics.counter("net.ls_updates_applied") >= ids.len() as u64,
            "exclusion did not reach every router"
        );
        assert!(
            outcome.metrics.counter("net.epoch_transitions") >= ids.len() as u64,
            "not every router opened a new route epoch"
        );
        // Traffic recovered on the avoidance route: the final round still
        // delivers, and the convicted router sees no transit any more.
        let last = outcome.round_metrics.last().expect("round snapshots");
        let prev = &outcome.round_metrics[outcome.round_metrics.len() - 2];
        assert!(
            last.counter("net.data_delivered") > prev.counter("net.data_delivered"),
            "no traffic delivered in the final round"
        );
        assert_eq!(
            last.counter("net.data_dropped"),
            prev.counter("net.data_dropped"),
            "the convicted router still saw transit traffic in the final round"
        );
    }

    /// Pure churn must never accuse anyone: an off-path link flaps down
    /// and back up, then an off-path router gracefully leaves and joins
    /// again, while a monitored flow keeps validating. Every applier lands
    /// inside the deterministic amnesty window, so the verdict log stays
    /// empty.
    #[test]
    fn pure_churn_raises_no_suspicions() {
        let topo = builtin::ring(6);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[3], 800, Duration::from_millis(2))],
            churn: vec![
                ChurnEvent {
                    at: Duration::from_millis(150),
                    actor: ids[4],
                    action: ChurnAction::LinkDown(ids[5]),
                },
                ChurnEvent {
                    at: Duration::from_millis(450),
                    actor: ids[4],
                    action: ChurnAction::LinkUp(ids[5]),
                },
                ChurnEvent {
                    at: Duration::from_millis(700),
                    actor: ids[5],
                    action: ChurnAction::Leave,
                },
                ChurnEvent {
                    at: Duration::from_millis(950),
                    actor: ids[5],
                    action: ChurnAction::Join,
                },
            ],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            maturity_lag: Duration::from_millis(50),
            rounds: 6,
            ..LiveConfig::default()
        };
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, LoopbackHub::group(&ids));
        assert!(
            outcome.suspicions.is_empty(),
            "pure churn accused someone: {:?}",
            outcome.suspicions
        );
        assert!(outcome.stats.data_delivered > 0, "traffic stopped");
        assert!(
            outcome.metrics.counter("net.epoch_transitions") > 0,
            "churn never triggered a reconvergence"
        );
    }

    /// A router that starts the run down (`LiveSpec::initially_down`) and
    /// joins mid-run: its `RouterUp` carries incarnation 0, so it is not
    /// put on probation; every router applies it and returns to the
    /// empty-overlay route epoch, 0; the flow the join shortens and the
    /// one it does not touch deliver in every round; nobody is accused.
    #[test]
    fn an_initially_down_router_joins_without_probation_or_accusation() {
        let topo = builtin::ring(6);
        let ids: Vec<RouterId> = topo.routers().collect();
        let every = Duration::from_millis(2);
        let spec = LiveSpec {
            // 3 → 5 runs the long way round until router 4 joins.
            flows: vec![
                FlowSpec::new(ids[0], ids[3], 800, every),
                FlowSpec::new(ids[3], ids[5], 800, every),
            ],
            initially_down: vec![ids[4]],
            churn: vec![ChurnEvent {
                at: Duration::from_millis(320),
                actor: ids[4],
                action: ChurnAction::Join,
            }],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            maturity_lag: Duration::from_millis(50),
            rounds: 6,
            ..LiveConfig::default()
        };
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, LoopbackHub::group(&ids));
        assert!(
            outcome.suspicions.is_empty(),
            "a join accused someone: {:?}",
            outcome.suspicions
        );
        assert_eq!(outcome.metrics.counter("net.probation_admitted"), 0);
        let appliers: BTreeSet<RouterId> = (outcome.events.iter())
            .filter_map(|e| match e {
                LiveEvent::LinkStateApplied {
                    by, origin, epoch, ..
                } if *origin == ids[4] => {
                    assert_eq!(*epoch, 0, "{by} did not return to the empty overlay");
                    Some(*by)
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            appliers.len(),
            ids.len(),
            "not every router applied the join"
        );
        assert_eq!(
            outcome.metrics.counter("net.epoch_transitions"),
            ids.len() as u64
        );
        let delivered: Vec<u64> = (outcome.round_metrics.iter())
            .map(|m| m.counter("net.data_delivered"))
            .collect();
        assert!(
            delivered.windows(2).all(|w| w[1] > w[0]) && delivered[0] > 0,
            "a round delivered nothing: cumulative {delivered:?}"
        );
    }

    /// Crash-restart with probation: a router silently dies, a peer
    /// reports it, and it returns with a bumped incarnation and an empty
    /// link-state DB. Neighbours resync the DB, the returnee sits out
    /// transit duty on probation, and is cleared after the configured
    /// clean rounds — all without a single accusation.
    #[test]
    fn crash_restart_serves_probation_then_clears() {
        let topo = builtin::ring(6);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[3], 800, Duration::from_millis(2))],
            churn: vec![
                ChurnEvent {
                    at: Duration::from_millis(120),
                    actor: ids[4],
                    action: ChurnAction::Crash,
                },
                ChurnEvent {
                    at: Duration::from_millis(320),
                    actor: ids[3],
                    action: ChurnAction::ReportDown(ids[4]),
                },
                ChurnEvent {
                    at: Duration::from_millis(520),
                    actor: ids[4],
                    action: ChurnAction::Restart,
                },
            ],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            maturity_lag: Duration::from_millis(50),
            rounds: 8,
            ..LiveConfig::default()
        };
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, LoopbackHub::group(&ids));
        assert!(
            outcome.suspicions.is_empty(),
            "crash-restart accused someone: {:?}",
            outcome.suspicions
        );
        assert_eq!(
            outcome.metrics.counter("net.probation_admitted"),
            1,
            "the returnee did not admit itself to probation"
        );
        assert_eq!(
            outcome.metrics.counter("net.probation_cleared"),
            1,
            "probation never cleared"
        );
        assert!(
            outcome.events.iter().any(|e| matches!(
                e,
                LiveEvent::ProbationCleared { router, .. } if *router == ids[4]
            )),
            "no ProbationCleared event for the returnee"
        );
        assert!(outcome.stats.data_delivered > 0, "traffic stopped");
    }

    #[test]
    fn flows_tick_four_to_a_phase_and_the_phases_are_spread_evenly() {
        let interval = Duration::from_millis(8);
        let phases =
            |n: usize| -> Vec<u64> { (0..n).map(|i| flow_phase_ns(i, n, interval)).collect() };
        assert_eq!(phases(1), [0]);
        assert_eq!(phases(4), [0; 4]);
        // Two groups of four, half an interval apart.
        assert_eq!(phases(8), [0, 4_000_000].repeat(4));
        // Nine flows make three groups of three.
        let mut nine = phases(9);
        nine.sort_unstable();
        nine.dedup();
        assert_eq!(nine.len(), 3);
        assert!(nine.windows(2).all(|w| w[1] - w[0] >= 8_000_000 / 3));
    }

    /// A flow that ran late by several intervals sends at once and resumes
    /// on its own phase: two stalled flows must not end up ticking together.
    #[test]
    fn a_stalled_flow_resumes_on_its_own_phase() {
        let mut line = Line3::new(SummaryMode::Full);
        let shard = &mut line.shard;
        let node = &mut shard.nodes[0];
        let interval = node.flows[0].spec.interval.as_nanos() as u64;
        let phase = FLOW_LEAD_NS + 123;
        node.cfg.rounds = 1_000; // still injecting three seconds in
        node.epoch = Instant::now() - Duration::from_secs(3);
        node.flows[0].next_due = phase;

        let before = node.now_ns();
        let next = node.flow_tick(0, &mut shard.trace).expect("injecting");
        assert_eq!(node.flows[0].sent, 1, "the late tick itself sends");
        assert_eq!((next - phase) % interval, 0, "left its phase");
        assert!(next <= node.now_ns(), "the latest missed tick is due now");
        assert!(next + interval > before, "skipped a tick still to come");
        // Caught up, the period is exact again.
        let after = node.flow_tick(0, &mut shard.trace).expect("injecting");
        assert_eq!(after, next + interval);
    }
}
