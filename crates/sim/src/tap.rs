//! Packet taps: the observation stream monitors consume.
//!
//! The detection protocols are *passive monitors* (§2.4.1): each router
//! summarizes the traffic it forwards. The simulator exposes exactly the
//! observation points a real Fatih deployment instruments — packets
//! committed into an output queue, packets completing transmission, packets
//! arriving and being delivered, and every drop with its cause. The cause
//! carried in [`DropReason`] is *ground truth* for evaluating detectors; the
//! detectors themselves never see it.

use crate::packet::Packet;
use crate::time::SimTime;
use fatih_obs::{Counter, MetricsRegistry};
use fatih_topology::RouterId;

/// Why a packet was lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DropReason {
    /// Legitimate queue loss (overflow or RED early drop).
    Congestion {
        /// RED average queue size at the decision, if the queue is RED.
        red_avg: Option<f64>,
        /// Probability with which the discipline dropped (1.0 = forced).
        drop_probability: f64,
    },
    /// A compromised router dropped it (ground truth for evaluation).
    Malicious,
    /// Hop budget exhausted (e.g. due to a misrouting loop).
    TtlExpired,
    /// No route toward the destination (partition or total exclusion).
    NoRoute,
    /// Lost to an injected environmental fault — link flap, router crash,
    /// or probabilistic control-plane loss (benign per §2.2.1, never
    /// attributable to a router's misbehaviour).
    Fault,
}

impl DropReason {
    /// Whether the loss is attack ground truth.
    pub fn is_malicious(&self) -> bool {
        matches!(self, DropReason::Malicious)
    }
}

/// One observation event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TapEvent {
    /// `router` committed `packet` into its output queue toward
    /// `next_hop` at `time` (the packet *entered Q* — what neighbours
    /// compute as `t + d + ps/bw` in §6.2.1).
    Enqueued {
        /// Forwarding router.
        router: RouterId,
        /// Egress neighbour.
        next_hop: RouterId,
        /// The packet.
        packet: Packet,
        /// Enqueue time.
        time: SimTime,
        /// Queue occupancy in bytes immediately *after* the enqueue.
        queue_len_after: u32,
    },
    /// `packet` finished transmission from `router` toward `next_hop`
    /// (the packet *exited Q*).
    Transmitted {
        /// Transmitting router.
        router: RouterId,
        /// Egress neighbour.
        next_hop: RouterId,
        /// The packet.
        packet: Packet,
        /// Transmission-complete time.
        time: SimTime,
    },
    /// `packet` arrived at `router` from `from` (after link propagation).
    Arrived {
        /// Receiving router.
        router: RouterId,
        /// Upstream neighbour (`None` for locally injected traffic).
        from: Option<RouterId>,
        /// The packet.
        packet: Packet,
        /// Arrival time.
        time: SimTime,
    },
    /// `packet` reached its destination and left the network.
    Delivered {
        /// Destination router.
        router: RouterId,
        /// The packet.
        packet: Packet,
        /// Delivery time.
        time: SimTime,
    },
    /// `packet` was lost at `router` (before or inside the queue toward
    /// `next_hop`, when known).
    Dropped {
        /// Router where the loss happened.
        router: RouterId,
        /// Intended egress neighbour, if the loss happened at an egress.
        next_hop: Option<RouterId>,
        /// The packet.
        packet: Packet,
        /// Ground-truth cause.
        reason: DropReason,
        /// Drop time.
        time: SimTime,
        /// Queue occupancy in bytes at the drop decision.
        queue_len: u32,
    },
    /// A source injected `packet` into the network at `router`.
    Injected {
        /// Source router.
        router: RouterId,
        /// The packet.
        packet: Packet,
        /// Injection time.
        time: SimTime,
    },
}

impl TapEvent {
    /// The event's timestamp.
    pub fn time(&self) -> SimTime {
        match self {
            TapEvent::Enqueued { time, .. }
            | TapEvent::Transmitted { time, .. }
            | TapEvent::Arrived { time, .. }
            | TapEvent::Delivered { time, .. }
            | TapEvent::Dropped { time, .. }
            | TapEvent::Injected { time, .. } => *time,
        }
    }

    /// The packet the event concerns.
    pub fn packet(&self) -> &Packet {
        match self {
            TapEvent::Enqueued { packet, .. }
            | TapEvent::Transmitted { packet, .. }
            | TapEvent::Arrived { packet, .. }
            | TapEvent::Delivered { packet, .. }
            | TapEvent::Dropped { packet, .. }
            | TapEvent::Injected { packet, .. } => packet,
        }
    }
}

/// Aggregate ground-truth counters the engine maintains for evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroundTruth {
    /// Packets injected by sources.
    pub injected: u64,
    /// Packets delivered to destinations, control packets included.
    pub delivered: u64,
    /// Data-plane packets delivered to destinations: `delivered` without
    /// the protocols' own control packets.
    pub data_delivered: u64,
    /// Congestive losses (drop-tail overflow + RED early drops).
    pub congestive_drops: u64,
    /// Malicious losses.
    pub malicious_drops: u64,
    /// TTL-expiry losses.
    pub ttl_drops: u64,
    /// Losses for lack of a route.
    pub no_route_drops: u64,
    /// Losses to injected environmental faults (flaps, crashes,
    /// control-plane loss).
    pub fault_drops: u64,
    /// Packets whose payload a compromised router modified.
    pub modified: u64,
    /// Packets a compromised router misrouted.
    pub misrouted: u64,
    /// Control packets corrupted in flight by an injected fault.
    pub fault_corrupted: u64,
    /// Control packets duplicated in flight by an injected fault.
    pub fault_duplicated: u64,
}

/// Live [`Counter`] handles behind the engine's ground-truth accounting.
///
/// The engine increments these as events happen; [`GroundTruth`] is the
/// plain-`u64` snapshot read back through [`SimMetrics::snapshot`]. By
/// default the handles are private cells; a harness that wants the sim's
/// ground truth alongside its other metrics swaps in registered handles
/// with [`SimMetrics::registered`] (counter names `sim.injected`,
/// `sim.delivered`, `sim.congestive_drops`, ... matching the
/// [`GroundTruth`] field names).
#[derive(Debug, Clone, Default)]
pub struct SimMetrics {
    /// Packets injected by sources (`sim.injected`).
    pub injected: Counter,
    /// Packets delivered to destinations (`sim.delivered`).
    pub delivered: Counter,
    /// Data-plane packets delivered to destinations
    /// (`sim.data_delivered`).
    pub data_delivered: Counter,
    /// Congestive losses (`sim.congestive_drops`).
    pub congestive_drops: Counter,
    /// Malicious losses (`sim.malicious_drops`).
    pub malicious_drops: Counter,
    /// TTL-expiry losses (`sim.ttl_drops`).
    pub ttl_drops: Counter,
    /// Losses for lack of a route (`sim.no_route_drops`).
    pub no_route_drops: Counter,
    /// Losses to injected environmental faults (`sim.fault_drops`).
    pub fault_drops: Counter,
    /// Packets a compromised router modified (`sim.modified`).
    pub modified: Counter,
    /// Packets a compromised router misrouted (`sim.misrouted`).
    pub misrouted: Counter,
    /// Control packets corrupted by a fault (`sim.fault_corrupted`).
    pub fault_corrupted: Counter,
    /// Control packets duplicated by a fault (`sim.fault_duplicated`).
    pub fault_duplicated: Counter,
}

impl SimMetrics {
    /// Handles registered in `reg` under `sim.*` names, so registry
    /// snapshots include the simulator's ground truth.
    pub fn registered(reg: &MetricsRegistry) -> Self {
        Self {
            injected: reg.counter("sim.injected"),
            delivered: reg.counter("sim.delivered"),
            data_delivered: reg.counter("sim.data_delivered"),
            congestive_drops: reg.counter("sim.congestive_drops"),
            malicious_drops: reg.counter("sim.malicious_drops"),
            ttl_drops: reg.counter("sim.ttl_drops"),
            no_route_drops: reg.counter("sim.no_route_drops"),
            fault_drops: reg.counter("sim.fault_drops"),
            modified: reg.counter("sim.modified"),
            misrouted: reg.counter("sim.misrouted"),
            fault_corrupted: reg.counter("sim.fault_corrupted"),
            fault_duplicated: reg.counter("sim.fault_duplicated"),
        }
    }

    /// The current values as a plain [`GroundTruth`] snapshot.
    pub fn snapshot(&self) -> GroundTruth {
        GroundTruth {
            injected: self.injected.get(),
            delivered: self.delivered.get(),
            data_delivered: self.data_delivered.get(),
            congestive_drops: self.congestive_drops.get(),
            malicious_drops: self.malicious_drops.get(),
            ttl_drops: self.ttl_drops.get(),
            no_route_drops: self.no_route_drops.get(),
            fault_drops: self.fault_drops.get(),
            modified: self.modified.get(),
            misrouted: self.misrouted.get(),
            fault_corrupted: self.fault_corrupted.get(),
            fault_duplicated: self.fault_duplicated.get(),
        }
    }

    /// Copies current values from `other` into these handles (used when
    /// swapping registered handles into an engine that already counted).
    fn absorb(&self, other: &SimMetrics) {
        self.injected.add(other.injected.get());
        self.delivered.add(other.delivered.get());
        self.data_delivered.add(other.data_delivered.get());
        self.congestive_drops.add(other.congestive_drops.get());
        self.malicious_drops.add(other.malicious_drops.get());
        self.ttl_drops.add(other.ttl_drops.get());
        self.no_route_drops.add(other.no_route_drops.get());
        self.fault_drops.add(other.fault_drops.get());
        self.modified.add(other.modified.get());
        self.misrouted.add(other.misrouted.get());
        self.fault_corrupted.add(other.fault_corrupted.get());
        self.fault_duplicated.add(other.fault_duplicated.get());
    }

    /// Replaces `self` with handles registered in `reg`, carrying over any
    /// counts already accumulated in the private cells.
    pub(crate) fn register_into(&mut self, reg: &MetricsRegistry) {
        let registered = SimMetrics::registered(reg);
        registered.absorb(self);
        *self = registered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketId, PacketKind};

    fn pkt() -> Packet {
        Packet {
            id: PacketId(1),
            src: RouterId::from(0),
            dst: RouterId::from(1),
            flow: FlowId(0),
            kind: PacketKind::Data,
            size: 100,
            seq: 0,
            payload_tag: 0,
            ttl: 64,
            created_at: SimTime::ZERO,
        }
    }

    #[test]
    fn accessors() {
        let e = TapEvent::Delivered {
            router: RouterId::from(1),
            packet: pkt(),
            time: SimTime::from_ms(3),
        };
        assert_eq!(e.time(), SimTime::from_ms(3));
        assert_eq!(e.packet().id, PacketId(1));
    }

    #[test]
    fn malicious_reason() {
        assert!(DropReason::Malicious.is_malicious());
        assert!(!DropReason::Congestion {
            red_avg: None,
            drop_probability: 1.0
        }
        .is_malicious());
        assert!(!DropReason::TtlExpired.is_malicious());
        assert!(!DropReason::Fault.is_malicious());
    }
}
