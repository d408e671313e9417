//! A router's part of a run's traffic: the constant-bit-rate flows it
//! injects, on which phase of their interval, and — when the router is
//! compromised — which transit packets it drops. Times are nanoseconds on
//! the host's axis, handed in; nothing here reads a clock.

use crate::runtime::{FlowSpec, LiveSpec};
use fatih_sim::{FlowId, Packet, PacketId, PacketKind, SimTime};
use fatih_topology::RouterId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// When the first flow injects its first packet, after the epoch.
pub(crate) const FLOW_LEAD_NS: u64 = 2_000_000;

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

/// Where in its interval flow `i` of `n` ticks: flows are dealt round-robin
/// to `⌈n / FLOWS_PER_TICK⌉` groups, the groups are spread evenly over the
/// interval and the flows of a group tick together. The phase depends on
/// the flow list alone — not on which router or shard carries the flow,
/// and (see [`Traffic::advance`]) not on what happened since.
pub(crate) fn flow_phase_ns(i: usize, n: usize, interval: Duration) -> u64 {
    let groups = n.div_ceil(FLOWS_PER_TICK);
    interval.as_nanos() as u64 * (i % groups) as u64 / groups as u64
}

pub(crate) struct LocalFlow {
    pub(crate) spec: FlowSpec,
    global_idx: u32,
    pub(crate) sent: u64,
    /// The deadline of the pending tick; `u64::MAX` once the flow has
    /// stopped. The next one is one interval after it, not after whenever
    /// the tick got to run, so wake-up latency does not stretch the period.
    pub(crate) next_due: u64,
}

/// The traffic one router originates and, if it is a dropper, destroys.
pub(crate) struct Traffic {
    /// The flows it is the source of, each with its first deadline.
    pub(crate) flows: Vec<LocalFlow>,
    /// Packets injected so far over all its flows: the next packet's id.
    injected: u64,
    drop_rate: f64,
    /// First round the dropper misbehaves in.
    drop_from: u64,
    rng: StdRng,
}

impl Traffic {
    /// Router `id`'s part of `spec`.
    pub(crate) fn new(spec: &LiveSpec, id: RouterId) -> Self {
        let flows = (spec.flows.iter().enumerate())
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
            flows,
            injected: 0,
            drop_rate: dropper.map(|d| d.rate).unwrap_or(0.0),
            drop_from: dropper.map(|d| d.active_from).unwrap_or(0),
            rng: StdRng::seed_from_u64(
                dropper.map(|d| d.seed).unwrap_or(0) ^ (u64::from(u32::from(id)) << 32),
            ),
        }
    }

    /// Moves flow `i`, ticking at `now`, on to its next deadline. On time,
    /// the period is exact; after a stall, one packet
    /// goes out at once and the schedule resumes at the latest tick missed
    /// rather than bursting through the backlog. The flow stays on its own
    /// phase: restarting every stalled flow from `now` would put them all
    /// on one phase, and they would tick as one burst ever after.
    ///
    /// That latest missed tick is at or before `now`, so the router is due
    /// again at once. Whether the host steps it again at this instant or in
    /// its next batch is `timer::Schedule::next_due`'s batch rule, and it
    /// sets how many packets a stalled closed loop keeps in flight:
    /// `sat-line6`'s one packet depends on it.
    pub(crate) fn advance(&mut self, i: usize, now: u64) {
        let f = &mut self.flows[i];
        let interval = (f.spec.interval.as_nanos() as u64).max(1);
        f.next_due += interval;
        if f.next_due < now {
            f.next_due += (now - f.next_due) / interval * interval;
        }
    }

    /// The next packet of flow `i`, injected by router `id` at `now`.
    pub(crate) fn inject(&mut self, i: usize, id: RouterId, now: u64) -> Packet {
        let f = &mut self.flows[i];
        f.sent += 1;
        self.injected += 1;
        let pid = PacketId(((u64::from(u32::from(id)) + 1) << 40) | self.injected);
        Packet {
            id: pid,
            src: f.spec.src,
            dst: f.spec.dst,
            flow: FlowId(f.global_idx),
            kind: PacketKind::Data,
            size: f.spec.size,
            seq: f.sent,
            payload_tag: Packet::expected_tag(pid),
            ttl: Packet::DEFAULT_TTL,
            created_at: SimTime::from_ns(now),
        }
    }

    /// Whether the router silently drops the transit packet it is about to
    /// forward in round `round`.
    pub(crate) fn drops(&mut self, round: u64) -> bool {
        self.drop_rate > 0.0 && round >= self.drop_from && self.rng.gen_bool(self.drop_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// After a stall the next tick is the latest one missed, at or before
    /// `now`, never a later one: the flow is due again at once. On time,
    /// it is one interval on.
    #[test]
    fn after_a_stall_the_flow_resumes_at_the_latest_missed_tick() {
        let (src, dst) = (RouterId::from(0), RouterId::from(1));
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(src, dst, 100, Duration::from_nanos(10))],
            ..LiveSpec::default()
        };
        let mut traffic = Traffic::new(&spec, src);
        let first = traffic.flows[0].next_due;
        traffic.advance(0, first);
        assert_eq!(traffic.flows[0].next_due, first + 10, "on time");
        // Ticks at first + 20, + 30, + 40 and + 50 were missed.
        let now = first + 55;
        traffic.advance(0, now);
        assert_eq!(traffic.flows[0].next_due, first + 50);
        // On a tick's own instant, that tick is the latest missed.
        let now = first + 80;
        traffic.advance(0, now);
        assert_eq!(traffic.flows[0].next_due, now);
    }
}
