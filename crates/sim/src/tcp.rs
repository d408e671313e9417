//! A Reno-style TCP for the simulator.
//!
//! Chapter 6's premise is that congestion is *caused by TCP's own control
//! loop*: "the widely-used Transmission Control Protocol is designed to
//! cause such losses as part of its normal congestion control behavior"
//! (§1). The χ experiments therefore need flows that back off on loss,
//! retransmit, and — for the SYN-targeting attack of Fig 6.9 — pay a
//! multi-second timeout when a connection-establishment packet vanishes
//! (§6.1.1).
//!
//! The implementation is simulation-grade Reno: slow start, congestion
//! avoidance, triple-duplicate-ACK fast retransmit, RTO with exponential
//! backoff and Karn's rule, and a 3-second initial SYN timeout. Segments
//! are whole units (one MSS each); sequence numbers count segments.

use crate::engine::{EventKind, Network};
use crate::packet::{FlowId, Packet, PacketKind};
use crate::time::SimTime;
use fatih_topology::RouterId;
use std::collections::BTreeSet;

/// TCP tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Payload bytes per segment.
    pub mss: u32,
    /// Header bytes added to every packet (SYN/ACK packets are pure
    /// header).
    pub header_bytes: u32,
    /// Initial congestion window, in segments.
    pub initial_cwnd: f64,
    /// Initial slow-start threshold, in segments.
    pub initial_ssthresh: f64,
    /// Receiver advertised window, in segments.
    pub receiver_window: f64,
    /// Lower bound for the retransmission timeout.
    pub min_rto: SimTime,
    /// Initial SYN retransmission timeout — "the retransmission timeout
    /// must necessarily be very long (typically 3 seconds or more)"
    /// (§6.1.1).
    pub syn_rto: SimTime,
    /// Upper bound for any RTO after backoff.
    pub max_rto: SimTime,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            mss: 960,
            header_bytes: 40,
            initial_cwnd: 2.0,
            initial_ssthresh: 64.0,
            receiver_window: 64.0,
            min_rto: SimTime::from_ms(200),
            syn_rto: SimTime::from_secs(3),
            max_rto: SimTime::from_secs(60),
        }
    }
}

/// Observable statistics of one TCP flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpStats {
    /// When the three-way handshake completed at the sender.
    pub connected_at: Option<SimTime>,
    /// Highest cumulatively acknowledged segment (sender progress).
    pub acked_segments: u64,
    /// In-order segments delivered at the receiver.
    pub delivered_segments: u64,
    /// Data retransmissions (fast + timeout).
    pub retransmits: u64,
    /// Retransmission timeouts taken while established.
    pub timeouts: u64,
    /// SYN retransmissions.
    pub syn_retries: u32,
    /// When the whole transfer was acknowledged.
    pub completed_at: Option<SimTime>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Closed,
    SynSent,
    Established,
    Complete,
}

/// Full state of one simulated connection (both endpoints).
#[derive(Debug)]
pub(crate) struct TcpState {
    cfg: TcpConfig,
    pub(crate) src: RouterId,
    pub(crate) dst: RouterId,
    flow: FlowId,
    phase: Phase,
    total_segments: u64,
    // Sender.
    next_seq: u64,
    snd_una: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimTime,
    timer_token: u64,
    timer_armed: bool,
    /// The single in-flight RTT measurement: `(seq, first-send time)`.
    /// Classic Karn sampling — one segment timed per RTT, the pending
    /// sample discarded on any retransmission, so recovery stalls can
    /// never inflate srtt.
    rtt_sample: Option<(u64, SimTime)>,
    // Receiver.
    rcv_next: u64,
    out_of_order: BTreeSet<u64>,
    stats: TcpStats,
}

impl Network {
    /// Opens a TCP connection from `src` to `dst` transferring
    /// `total_segments` MSS-sized segments, starting (SYN sent) at `start`.
    /// Returns the flow id; observe progress with
    /// [`tcp_stats`](Self::tcp_stats).
    ///
    /// # Panics
    ///
    /// Panics if `total_segments` is zero.
    pub fn add_tcp_flow(
        &mut self,
        src: RouterId,
        dst: RouterId,
        cfg: TcpConfig,
        start: SimTime,
        total_segments: u64,
    ) -> FlowId {
        assert!(
            total_segments > 0,
            "transfer must move at least one segment"
        );
        let idx = self.agents.len();
        let flow = self.register_flow(idx);
        self.agents
            .push(crate::agent::AgentState::Tcp(Box::new(TcpState {
                cfg,
                src,
                dst,
                flow,
                phase: Phase::Closed,
                total_segments,
                next_seq: 0,
                snd_una: 0,
                cwnd: cfg.initial_cwnd,
                ssthresh: cfg.initial_ssthresh,
                dup_acks: 0,
                srtt: None,
                rttvar: 0.0,
                rto: cfg.syn_rto,
                timer_token: 0,
                timer_armed: false,
                rtt_sample: None,
                rcv_next: 0,
                out_of_order: BTreeSet::new(),
                stats: TcpStats::default(),
            })));
        let at = start.max(self.now());
        self.schedule(
            at,
            EventKind::AgentTimer {
                agent: idx,
                token: 0,
            },
        );
        flow
    }

    /// Statistics of a TCP flow.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is not TCP.
    pub fn tcp_stats(&self, flow: FlowId) -> TcpStats {
        let idx = self
            .agent_for_flow(flow)
            .unwrap_or_else(|| panic!("unknown flow {flow}"));
        match &self.agents[idx] {
            crate::agent::AgentState::Tcp(t) => t.stats,
            other => panic!("flow {flow} is not TCP: {other:?}"),
        }
    }

    pub(crate) fn tcp_timer(&mut self, t: &mut TcpState, idx: usize, token: u64) {
        match t.phase {
            Phase::Closed => {
                // Initial open.
                t.phase = Phase::SynSent;
                self.send_syn(t, idx);
            }
            Phase::SynSent => {
                if token != t.timer_token {
                    return; // stale timer
                }
                t.stats.syn_retries += 1;
                t.rto = (t.rto * 2).min(t.cfg.max_rto);
                self.send_syn(t, idx);
            }
            Phase::Established => {
                if token != t.timer_token || !t.timer_armed {
                    return;
                }
                if t.snd_una >= t.next_seq {
                    t.timer_armed = false;
                    return; // nothing outstanding
                }
                // Retransmission timeout.
                t.stats.timeouts += 1;
                t.ssthresh = (t.cwnd / 2.0).max(2.0);
                t.cwnd = 1.0;
                t.dup_acks = 0;
                t.rto = (t.rto * 2).min(t.cfg.max_rto);
                self.retransmit(t);
                self.arm_timer(t, idx);
            }
            Phase::Complete => {}
        }
    }

    pub(crate) fn tcp_deliver(&mut self, t: &mut TcpState, idx: usize, packet: &Packet) {
        match packet.kind {
            // --- receiver side (packets that arrived at dst) ---
            PacketKind::TcpSyn => {
                // Passive open: answer immediately.
                self.inject(
                    t.dst,
                    t.src,
                    t.flow,
                    PacketKind::TcpSynAck,
                    t.cfg.header_bytes,
                    0,
                );
            }
            PacketKind::TcpData => {
                let seq = packet.seq;
                if seq == t.rcv_next {
                    t.rcv_next += 1;
                    while t.out_of_order.remove(&t.rcv_next) {
                        t.rcv_next += 1;
                    }
                } else if seq > t.rcv_next {
                    t.out_of_order.insert(seq);
                }
                t.stats.delivered_segments = t.rcv_next;
                // Cumulative ACK.
                self.inject(
                    t.dst,
                    t.src,
                    t.flow,
                    PacketKind::TcpAck,
                    t.cfg.header_bytes,
                    t.rcv_next,
                );
            }
            // --- sender side (packets that arrived back at src) ---
            PacketKind::TcpSynAck if t.phase == Phase::SynSent => {
                t.phase = Phase::Established;
                t.stats.connected_at = Some(self.now());
                t.rto = t.cfg.min_rto.max(SimTime::from_ms(500));
                self.send_window(t, idx);
            }
            PacketKind::TcpAck => {
                if t.phase != Phase::Established {
                    return;
                }
                let ack = packet.seq;
                if ack > t.snd_una {
                    // New data acknowledged.
                    let newly = ack - t.snd_una;
                    if let Some((seq, sent)) = t.rtt_sample {
                        if ack > seq {
                            self.tcp_rtt_sample(t, self.now().since(sent));
                            t.rtt_sample = None;
                        }
                    }
                    for _ in 0..newly {
                        if t.cwnd < t.ssthresh {
                            t.cwnd += 1.0; // slow start
                        } else {
                            t.cwnd += 1.0 / t.cwnd; // congestion avoidance
                        }
                    }
                    t.snd_una = ack;
                    t.stats.acked_segments = ack;
                    t.dup_acks = 0;
                    // New data acknowledged: collapse any timeout backoff
                    // (RFC 6298 §5.7-style re-initialisation from srtt).
                    t.rto = match t.srtt {
                        Some(s) => SimTime::from_secs_f64(s + 4.0 * t.rttvar)
                            .max(t.cfg.min_rto)
                            .min(t.cfg.max_rto),
                        None => t.cfg.min_rto.max(SimTime::from_ms(500)),
                    };
                    if t.snd_una >= t.total_segments {
                        t.phase = Phase::Complete;
                        t.stats.completed_at = Some(self.now());
                        t.timer_token += 1; // cancel timer
                        t.timer_armed = false;
                        return;
                    }
                    self.arm_timer(t, idx);
                    self.send_window(t, idx);
                } else if t.snd_una < t.next_seq {
                    // Duplicate ACK while data is outstanding.
                    t.dup_acks += 1;
                    if t.dup_acks == 3 {
                        // Fast retransmit / recovery (simplified Reno).
                        t.ssthresh = (t.cwnd / 2.0).max(2.0);
                        t.cwnd = t.ssthresh;
                        self.retransmit(t);
                        self.arm_timer(t, idx);
                    }
                }
            }
            _ => {}
        }
    }

    fn send_syn(&mut self, t: &mut TcpState, idx: usize) {
        self.inject(
            t.src,
            t.dst,
            t.flow,
            PacketKind::TcpSyn,
            t.cfg.header_bytes,
            0,
        );
        t.timer_token += 1;
        let token = t.timer_token;
        let when = self.now() + t.rto;
        self.schedule(when, EventKind::AgentTimer { agent: idx, token });
    }

    fn send_window(&mut self, t: &mut TcpState, idx: usize) {
        let window = t.cwnd.min(t.cfg.receiver_window).floor() as u64;
        let limit = (t.snd_una + window.max(1)).min(t.total_segments);
        let mut sent_any = false;
        while t.next_seq < limit {
            let seq = t.next_seq;
            self.inject(
                t.src,
                t.dst,
                t.flow,
                PacketKind::TcpData,
                t.cfg.mss + t.cfg.header_bytes,
                seq,
            );
            if t.rtt_sample.is_none() {
                t.rtt_sample = Some((seq, self.now()));
            }
            t.next_seq += 1;
            sent_any = true;
        }
        if sent_any && !t.timer_armed {
            self.arm_timer(t, idx);
        }
    }

    fn retransmit(&mut self, t: &mut TcpState) {
        let seq = t.snd_una;
        t.stats.retransmits += 1;
        // Karn's rule: discard the pending measurement — after a
        // retransmission, no timing in this window is trustworthy.
        t.rtt_sample = None;
        self.inject(
            t.src,
            t.dst,
            t.flow,
            PacketKind::TcpData,
            t.cfg.mss + t.cfg.header_bytes,
            seq,
        );
    }

    fn arm_timer(&mut self, t: &mut TcpState, idx: usize) {
        t.timer_token += 1;
        t.timer_armed = true;
        let token = t.timer_token;
        let when = self.now() + t.rto;
        self.schedule(when, EventKind::AgentTimer { agent: idx, token });
    }

    fn tcp_rtt_sample(&mut self, t: &mut TcpState, rtt: SimTime) {
        let r = rtt.as_secs_f64();
        match t.srtt {
            None => {
                t.srtt = Some(r);
                t.rttvar = r / 2.0;
            }
            Some(s) => {
                t.rttvar = 0.75 * t.rttvar + 0.25 * (s - r).abs();
                t.srtt = Some(0.875 * s + 0.125 * r);
            }
        }
        let rto = SimTime::from_secs_f64(t.srtt.expect("just set") + 4.0 * t.rttvar);
        t.rto = rto.max(t.cfg.min_rto).min(t.cfg.max_rto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::Attack;
    use fatih_topology::{builtin, LinkParams};

    #[test]
    fn transfer_completes_on_clean_line() {
        let mut net = Network::new(builtin::line(3), 1);
        let a = net.topology().router_by_name("n0").unwrap();
        let c = net.topology().router_by_name("n2").unwrap();
        let flow = net.add_tcp_flow(a, c, TcpConfig::default(), SimTime::ZERO, 200);
        net.run_until(SimTime::from_secs(30), |_| {});
        let s = net.tcp_stats(flow);
        assert!(s.connected_at.is_some(), "handshake never completed");
        assert_eq!(s.acked_segments, 200);
        assert_eq!(s.delivered_segments, 200);
        assert!(s.completed_at.is_some());
        assert_eq!(s.syn_retries, 0);
    }

    #[test]
    fn congestion_triggers_retransmits_but_transfer_completes() {
        // Squeeze through a slow bottleneck with a small queue.
        let topo = builtin::fan_in(
            2,
            LinkParams {
                bandwidth_bps: 4_000_000,
                queue_limit_bytes: 6_000,
                ..LinkParams::default()
            },
        );
        let mut net = Network::new(topo, 2);
        let s0 = net.topology().router_by_name("s0").unwrap();
        let s1 = net.topology().router_by_name("s1").unwrap();
        let rd = net.topology().router_by_name("rd").unwrap();
        let f0 = net.add_tcp_flow(s0, rd, TcpConfig::default(), SimTime::ZERO, 400);
        let f1 = net.add_tcp_flow(s1, rd, TcpConfig::default(), SimTime::from_ms(3), 400);
        net.run_until(SimTime::from_secs(60), |_| {});
        let t = net.ground_truth();
        assert!(t.congestive_drops > 0, "expected congestive losses");
        let (a, b) = (net.tcp_stats(f0), net.tcp_stats(f1));
        assert_eq!(a.acked_segments, 400, "flow 0 incomplete: {a:?}");
        assert_eq!(b.acked_segments, 400, "flow 1 incomplete: {b:?}");
        assert!(a.retransmits + b.retransmits > 0);
    }

    #[test]
    fn syn_drop_attack_delays_connection_by_seconds() {
        let mut net = Network::new(builtin::line(4), 3);
        let a = net.topology().router_by_name("n0").unwrap();
        let b = net.topology().router_by_name("n1").unwrap();
        let d = net.topology().router_by_name("n3").unwrap();
        let flow = net.add_tcp_flow(a, d, TcpConfig::default(), SimTime::ZERO, 10);

        // The compromised router drops SYNs for the first five seconds.
        net.set_attacks(b, vec![Attack::drop_syns_to(d)]);
        // Run until the second SYN has been murdered, then lift the attack
        // (the real attack in Fig 6.9 targets a window in time).
        let mut syn_drops = 0;
        net.run_until(SimTime::from_secs(5), |ev| {
            if let crate::tap::TapEvent::Dropped { reason, packet, .. } = ev {
                if reason.is_malicious() && packet.is_syn() {
                    syn_drops += 1;
                }
            }
        });
        assert!(syn_drops >= 1);
        net.set_attacks(b, vec![]);
        net.run_until(SimTime::from_secs(40), |_| {});
        let s = net.tcp_stats(flow);
        // 3 s initial SYN timeout (plus backoff) before eventual success.
        let connected = s.connected_at.expect("finally connected");
        assert!(
            connected >= SimTime::from_secs(3),
            "connected at {connected}"
        );
        assert!(s.syn_retries >= 1);
        assert_eq!(s.acked_segments, 10);
    }

    #[test]
    fn malicious_mid_path_drops_slow_but_do_not_stop_tcp() {
        let mut net = Network::new(builtin::line(4), 4);
        let a = net.topology().router_by_name("n0").unwrap();
        let b = net.topology().router_by_name("n1").unwrap();
        let d = net.topology().router_by_name("n3").unwrap();
        let flow = net.add_tcp_flow(a, d, TcpConfig::default(), SimTime::ZERO, 100);
        net.set_attacks(b, vec![Attack::drop_flows([flow], 0.05)]);
        net.run_until(SimTime::from_secs(120), |_| {});
        let s = net.tcp_stats(flow);
        assert_eq!(s.acked_segments, 100, "{s:?}");
        assert!(s.retransmits > 0);
    }

    #[test]
    fn stats_accessor_panics_on_wrong_flow_kind() {
        let mut net = Network::new(builtin::line(2), 1);
        let a = net.topology().router_by_name("n0").unwrap();
        let b = net.topology().router_by_name("n1").unwrap();
        let flow = net.add_cbr_flow(a, b, 100, SimTime::from_ms(1), SimTime::ZERO, None);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.tcp_stats(flow)));
        assert!(r.is_err());
    }
}
