//! The live runtime's public surface: what to deploy ([`LiveSpec`],
//! [`LiveConfig`]), what a run reports ([`LiveOutcome`], [`LiveEvent`],
//! [`LiveStats`]) and [`LiveDeployment`], which runs it.
//!
//! A run is a few worker threads, each hosting a shard of routers; every
//! router is a sans-I/O step function fed frames and timers by its
//! worker. The protocol machinery is the simulator's own —
//! [`SegmentMonitorSet`](fatih_core::monitor::SegmentMonitorSet) builds
//! `info(r, π, τ)` from the router's real forwarding decisions, a round's
//! [`Window`](fatih_core::rounds::Window) says what it judges,
//! [`Retransmitter`](fatih_core::reliable::Retransmitter) when a frame is
//! sent again, and a failed exchange becomes a timeout accusation — but
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
//! summary from its own records plus the recovered difference. The
//! digests are kept running as observations arrive, and a segment end
//! holds exactly only the look-back strips its decoding reads. When the
//! difference exceeds the sketch capacity, the round is judged on the
//! digests' certified counts and the end's pull, counted as a fallback,
//! puts the segment in dispute: both ends hold it whole from then on, and
//! the pull of a later round is answered with the full summary.
//!
//! Time axis: one epoch `Instant` for the whole run, read by the workers
//! only. A worker steps a router with the nanoseconds since the epoch as
//! the step's `now`; routers read no clock, and stamp observations with
//! that `now`, wrapped in [`SimTime`](fatih_sim::SimTime) so the core
//! validation code runs unchanged. The dissertation's synchronized clocks
//! assumption (§2.1.2) holds exactly — every `now` comes off one clock —
//! and the maturity lag plays the role of the §5.3.1 skew/transit
//! tolerance.
//!
//! [`ContentDigest`]: fatih_validation::digest::ContentDigest

use fatih_core::monitor::MonitorMetrics;
use fatih_core::policy::Thresholds;
use fatih_core::spec::Suspicion;
use fatih_obs::{Counter, Histogram, MetricsRegistry, MetricsSnapshot, TraceJournal};
use fatih_topology::{PathSegment, RouterId};
use std::time::Duration;

pub use crate::shard::LiveDeployment;

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
    /// Probability it silently drops each transit data packet it should
    /// forward: never a control frame, nor a packet addressed to it.
    pub rate: f64,
    /// Seed for its live drop decisions (`SimHost` draws from its engine).
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
    /// Graceful departure: announce [`TopoUpdate::RouterDown`](crate::TopoUpdate::RouterDown) for
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
    /// originating [`TopoUpdate::RouterDown`](crate::TopoUpdate::RouterDown) on its behalf.
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

/// What to run: traffic, adversaries and churn. The flows' routed paths
/// get Πk+2 segment monitoring.
#[derive(Debug, Clone, Default)]
pub struct LiveSpec {
    /// Traffic flows.
    pub flows: Vec<FlowSpec>,
    /// Compromised routers.
    pub droppers: Vec<DropperSpec>,
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
    /// Every segment is in dispute: its ends hold whole records.
    #[default]
    Full,
    /// Ship fixed-size [`ContentDigest`]s, kept running as observations
    /// arrive, and decode the difference against local records; a
    /// difference beyond the sketch `capacity` (Appendix A) is judged on
    /// certified counts and puts the segment in dispute, whose later
    /// rounds are pulled whole. A segment end holds exactly only its
    /// look-back strips, unless the lag reaches a round (`maturity_lag ≥
    /// tau`), when it holds whole records as `Full` mode does.
    ///
    /// [`ContentDigest`]: fatih_validation::digest::ContentDigest
    Reconcile {
        /// Sketch capacity: the largest multiset difference the digest can
        /// resolve without falling back, as long as it holds no
        /// fingerprint twice (a repeated root does not decode).
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
    /// Capacity of each shard's trace ring ([`TraceBuffer`](fatih_obs::TraceBuffer)): oldest
    /// events are overwritten beyond this, but per-kind totals survive.
    /// The ring stores the control plane: round starts and ends, summaries
    /// and digests, accusations, alerts, retransmissions, link-state,
    /// epochs, churn and probation, and each timeout that did more than
    /// tick flows. It only counts the data plane — every packet tap, and each
    /// timeout that only ticked flows — so their totals are exact and they
    /// take no slot: what the ring must hold follows routers and rounds,
    /// not traffic (a 12 s run of 64 routers at 2 000 pkts/s keeps about
    /// 4 200 records).
    pub trace_capacity: usize,
    /// Whether convictions trigger the §2.4.3 response: flood a signed
    /// [`TopoUpdate::ExcludeSegment`](crate::TopoUpdate), reroute around it and reconverge.
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
pub(crate) struct NetMetrics {
    pub(crate) frames_sent: Counter,
    pub(crate) frames_received: Counter,
    pub(crate) data_delivered: Counter,
    pub(crate) data_dropped: Counter,
    pub(crate) retransmits: Counter,
    pub(crate) retransmit_bytes: Counter,
    pub(crate) decode_failures: Counter,
    pub(crate) encode_failures: Counter,
    pub(crate) data_bytes_sent: Counter,
    pub(crate) control_bytes_sent: Counter,
    pub(crate) wire_bytes_sent: Counter,
    pub(crate) wire_bytes_recv: Counter,
    pub(crate) digests_resolved: Counter,
    pub(crate) digest_fallbacks: Counter,
    pub(crate) accusations_raised: Counter,
    pub(crate) alerts_sent: Counter,
    pub(crate) summary_timeouts: Counter,
    /// Rounds a segment end judged on certified counts alone.
    pub(crate) rounds_bounded: Counter,
    pub(crate) mailbox_frames: Counter,
    pub(crate) epoch_transitions: Counter,
    pub(crate) ls_updates_sent: Counter,
    pub(crate) ls_updates_applied: Counter,
    pub(crate) untapped_drained: Counter,
    pub(crate) transition_forward_miss: Counter,
    pub(crate) purged_frames: Counter,
    pub(crate) probation_admitted: Counter,
    pub(crate) probation_cleared: Counter,
    pub(crate) routers_isolated: Counter,
    pub(crate) shard_passes: Counter,
    pub(crate) shard_waits: Counter,
    pub(crate) shard_sleeps: Counter,
    pub(crate) shard_busy_ns: Counter,
    pub(crate) recv_polls: Counter,
    pub(crate) recv_polls_empty: Counter,
    pub(crate) stale_summaries: Counter,
    pub(crate) foreign_summaries: Counter,
    /// The `monitor.*` handles every node's monitor set counts into.
    pub(crate) monitor: MonitorMetrics,
    pub(crate) frame_bytes: Histogram,
    pub(crate) round_eval_ns: Histogram,
    pub(crate) round_end_ns: Histogram,
    pub(crate) digest_resolve_ns: Histogram,
    pub(crate) reroute_latency_ns: Histogram,
}

impl NetMetrics {
    pub(crate) fn registered(reg: &MetricsRegistry) -> Self {
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
            rounds_bounded: reg.counter("net.rounds_bounded"),
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
            shard_sleeps: reg.counter("net.shard_sleeps"),
            shard_busy_ns: reg.counter("net.shard_busy_ns"),
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

#[cfg(test)]
mod tests {
    //! What only the wall-clock host has: shards, the mailbox, sockets,
    //! the stage timings a shard takes on its clock and its trace ring
    //! under a live data path. Verdicts — detection,
    //! conviction and reroute, churn, joins, crash-restart, Reconcile mode —
    //! are pinned on the simulator's clock (`SimHost`), where they depend on
    //! a seed and not on how loaded the machine is.

    use super::*;
    use crate::transport::{LoopbackHub, NetError, Transport, UdpNet};
    use fatih_core::spec::SpecCheck;
    use fatih_obs::TraceKind;
    use fatih_topology::builtin;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

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

    /// With the mailbox fastpath on, co-resident routers bypass the
    /// transport entirely: the run still validates cleanly and the wire
    /// counters show (almost) nothing crossed a transport. The shards
    /// time every stage a step ran: with no round under amnesty, each
    /// router's round ends and evaluations once a round, and every digest
    /// taken in once, resolved or pulled.
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
            summary: SummaryMode::Reconcile { capacity: 24 },
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
        let timed = |name| outcome.metrics.histogram(name).map_or(0, |h| h.count);
        let round_work = ids.len() as u64 * cfg.rounds;
        assert_eq!(timed("net.round_end_ns"), round_work);
        assert_eq!(timed("net.round_eval_ns"), round_work);
        let digests = outcome.stats.digests_resolved + outcome.stats.digest_fallbacks;
        assert!(digests > 0, "no digest taken in");
        assert_eq!(timed("net.digest_resolve_ns"), digests);
    }

    /// The trace ring keeps the control plane over a live data path: two
    /// flows' taps across a 16-line outnumber the default ring's slots
    /// more than four times over, and the ring overwrites nothing. Every
    /// kind but the taps and the timers that only ticked flows is kept
    /// whole. A stalled flow skips its missed ticks, so the tap total
    /// follows the host's speed: a debug build on 2 cores read ≈ 320 000
    /// alone and ≈ 295 000 beside the crate's other tests, against the
    /// 131 072 asserted. `SimHost` pins the exact total.
    #[cfg(target_os = "linux")]
    #[test]
    fn the_default_ring_keeps_every_control_record_over_udp() {
        let topo = builtin::line(16);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![
                FlowSpec::new(ids[0], ids[15], 64, Duration::from_micros(500)),
                FlowSpec::new(ids[15], ids[0], 64, Duration::from_micros(500)),
            ],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(500),
            exchange_budget: Duration::from_millis(200),
            rounds: 8,
            shards: 1,
            summary: SummaryMode::Reconcile { capacity: 32 },
            response: false,
            ..LiveConfig::default()
        };
        let transports = UdpNet::bind_group(&ids).expect("bind loopback sockets");
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);
        let trace = &outcome.trace;
        let taps = trace.recorded(TraceKind::PacketTap);
        assert!(taps >= 4 * cfg.trace_capacity as u64, "{taps} taps");
        assert_eq!(trace.dropped(), 0);
        for &kind in TraceKind::ALL {
            let kept = (trace.events().iter()).filter(|e| e.kind == kind).count() as u64;
            match kind {
                TraceKind::PacketTap => assert_eq!(kept, 0),
                // Kept when the step ran round work or the pump.
                TraceKind::TimerFired => assert!(kept < trace.recorded(kind)),
                _ => assert_eq!(kept, trace.recorded(kind), "{kind:?}"),
            }
        }
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
}
