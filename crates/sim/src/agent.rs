//! Traffic agents: CBR sources and RTT probes.
//!
//! Traffic originates and terminates at terminal routers (hosts share fate
//! with their access router, §2.1.4), so agents are attached to routers.
//! CBR flows provide the background load of the Chapter 6 experiments; the
//! ping probe reproduces the New York ↔ Sunnyvale RTT measurement of
//! Figure 5.7. TCP flows live in [`crate::tcp`].

use crate::engine::{EventKind, Network};
use crate::packet::{FlowId, Packet, PacketKind};
use crate::tcp::TcpState;
use crate::time::SimTime;
use fatih_topology::RouterId;
use std::collections::BTreeMap;

/// Internal per-flow agent state.
#[derive(Debug)]
pub(crate) enum AgentState {
    /// Placeholder while the agent is borrowed out of the table.
    Detached,
    /// Constant-bit-rate source.
    Cbr(CbrState),
    /// Poisson (exponential inter-arrival) source.
    Poisson(PoissonState),
    /// Periodic echo prober.
    Ping(PingState),
    /// A TCP connection (both endpoints).
    Tcp(Box<TcpState>),
}

#[derive(Debug)]
pub(crate) struct PoissonState {
    src: RouterId,
    dst: RouterId,
    flow: FlowId,
    size: u32,
    mean_interval: SimTime,
    stop: Option<SimTime>,
    sent: u64,
}

#[derive(Debug)]
pub(crate) struct CbrState {
    src: RouterId,
    dst: RouterId,
    flow: FlowId,
    size: u32,
    interval: SimTime,
    stop: Option<SimTime>,
    sent: u64,
}

#[derive(Debug)]
pub(crate) struct PingState {
    src: RouterId,
    dst: RouterId,
    flow: FlowId,
    size: u32,
    interval: SimTime,
    stop: Option<SimTime>,
    next_seq: u64,
    outstanding: BTreeMap<u64, SimTime>,
    rtts: Vec<(SimTime, SimTime)>,
}

impl Network {
    /// Adds a constant-bit-rate flow: one `size`-byte datagram every
    /// `interval`, starting at `start`, stopping at `stop` (exclusive) if
    /// given. Returns the flow id.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn add_cbr_flow(
        &mut self,
        src: RouterId,
        dst: RouterId,
        size: u32,
        interval: SimTime,
        start: SimTime,
        stop: Option<SimTime>,
    ) -> FlowId {
        assert!(interval > SimTime::ZERO, "CBR interval must be positive");
        let idx = self.agents.len();
        let flow = self.register_flow(idx);
        self.agents.push(AgentState::Cbr(CbrState {
            src,
            dst,
            flow,
            size,
            interval,
            stop,
            sent: 0,
        }));
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

    /// Adds a periodic echo probe measuring round-trip times from `src` to
    /// `dst` (the destination echoes automatically). Returns the flow id;
    /// read samples with [`ping_rtts`](Self::ping_rtts).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn add_ping_probe(
        &mut self,
        src: RouterId,
        dst: RouterId,
        size: u32,
        interval: SimTime,
        start: SimTime,
        stop: Option<SimTime>,
    ) -> FlowId {
        assert!(interval > SimTime::ZERO, "probe interval must be positive");
        let idx = self.agents.len();
        let flow = self.register_flow(idx);
        self.agents.push(AgentState::Ping(PingState {
            src,
            dst,
            flow,
            size,
            interval,
            stop,
            next_seq: 0,
            outstanding: BTreeMap::new(),
            rtts: Vec::new(),
        }));
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

    /// Adds a Poisson source: `size`-byte datagrams with exponentially
    /// distributed inter-arrival times of the given mean — the memoryless
    /// arrival model §6.1.2's traffic-modeling discussion assumes.
    ///
    /// # Panics
    ///
    /// Panics if `mean_interval` is zero.
    pub fn add_poisson_flow(
        &mut self,
        src: RouterId,
        dst: RouterId,
        size: u32,
        mean_interval: SimTime,
        start: SimTime,
        stop: Option<SimTime>,
    ) -> FlowId {
        assert!(
            mean_interval > SimTime::ZERO,
            "Poisson mean interval must be positive"
        );
        let idx = self.agents.len();
        let flow = self.register_flow(idx);
        self.agents.push(AgentState::Poisson(PoissonState {
            src,
            dst,
            flow,
            size,
            mean_interval,
            stop,
            sent: 0,
        }));
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

    /// Every (source, destination) pair the traffic agents send on, in
    /// the order the agents were added, each once: an echo probe and a
    /// TCP connection send both ways.
    pub fn traffic_pairs(&self) -> Vec<(RouterId, RouterId)> {
        let mut pairs = Vec::new();
        for agent in &self.agents {
            let (src, dst, both_ways) = match agent {
                AgentState::Detached => continue,
                AgentState::Cbr(c) => (c.src, c.dst, false),
                AgentState::Poisson(p) => (p.src, p.dst, false),
                AgentState::Ping(p) => (p.src, p.dst, true),
                AgentState::Tcp(t) => (t.src, t.dst, true),
            };
            let back = both_ways.then_some((dst, src));
            for pair in std::iter::once((src, dst)).chain(back) {
                if !pairs.contains(&pair) {
                    pairs.push(pair);
                }
            }
        }
        pairs
    }

    /// RTT samples of a ping probe: `(send time, round-trip time)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is not a ping probe.
    pub fn ping_rtts(&self, flow: FlowId) -> &[(SimTime, SimTime)] {
        let idx = self
            .agent_for_flow(flow)
            .unwrap_or_else(|| panic!("unknown flow {flow}"));
        match &self.agents[idx] {
            AgentState::Ping(p) => &p.rtts,
            other => panic!("flow {flow} is not a ping probe: {other:?}"),
        }
    }

    /// Packets injected so far by a CBR source.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is not a CBR flow.
    pub fn cbr_sent(&self, flow: FlowId) -> u64 {
        let idx = self
            .agent_for_flow(flow)
            .unwrap_or_else(|| panic!("unknown flow {flow}"));
        match &self.agents[idx] {
            AgentState::Cbr(c) => c.sent,
            other => panic!("flow {flow} is not CBR: {other:?}"),
        }
    }

    pub(crate) fn handle_agent_timer(&mut self, idx: usize, token: u64) {
        let mut agent = std::mem::replace(&mut self.agents[idx], AgentState::Detached);
        match &mut agent {
            AgentState::Cbr(c) => self.cbr_timer(c, idx),
            AgentState::Poisson(p) => self.poisson_timer(p, idx),
            AgentState::Ping(p) => self.ping_timer(p, idx),
            AgentState::Tcp(t) => self.tcp_timer(t, idx, token),
            AgentState::Detached => {}
        }
        self.agents[idx] = agent;
    }

    pub(crate) fn deliver_to_agent(&mut self, packet: Packet) {
        // Control messages are handed up to the protocol stack, not to a
        // traffic agent; corruption is surfaced via the intact flag.
        if packet.kind == PacketKind::Control {
            self.push_control_delivery(&packet);
            return;
        }
        // Echo requests are answered by the destination's network stack.
        if packet.kind == PacketKind::Ping {
            self.inject(
                packet.dst,
                packet.src,
                packet.flow,
                PacketKind::Pong,
                packet.size,
                packet.seq,
            );
        }
        let Some(idx) = self.agent_for_flow(packet.flow) else {
            return;
        };
        let mut agent = std::mem::replace(&mut self.agents[idx], AgentState::Detached);
        match &mut agent {
            AgentState::Cbr(_) | AgentState::Poisson(_) => {} // pure sinks
            AgentState::Ping(p) => Self::ping_deliver(p, &packet, self.now()),
            AgentState::Tcp(t) => self.tcp_deliver(t, idx, &packet),
            AgentState::Detached => {}
        }
        self.agents[idx] = agent;
    }

    fn cbr_timer(&mut self, c: &mut CbrState, idx: usize) {
        if let Some(stop) = c.stop {
            if self.now() >= stop {
                return;
            }
        }
        self.inject(c.src, c.dst, c.flow, PacketKind::Data, c.size, c.sent);
        c.sent += 1;
        let next = self.now() + c.interval;
        self.schedule(
            next,
            EventKind::AgentTimer {
                agent: idx,
                token: 0,
            },
        );
    }

    fn poisson_timer(&mut self, p: &mut PoissonState, idx: usize) {
        if let Some(stop) = p.stop {
            if self.now() >= stop {
                return;
            }
        }
        self.inject(p.src, p.dst, p.flow, PacketKind::Data, p.size, p.sent);
        p.sent += 1;
        // Exponential inter-arrival via inverse transform.
        let u: f64 = rand::Rng::gen_range(&mut self.rng, 1e-12..1.0f64);
        let gap = SimTime::from_secs_f64(-u.ln() * p.mean_interval.as_secs_f64());
        let next = self.now() + gap.max(SimTime::from_ns(1));
        self.schedule(
            next,
            EventKind::AgentTimer {
                agent: idx,
                token: 0,
            },
        );
    }

    fn ping_timer(&mut self, p: &mut PingState, idx: usize) {
        if let Some(stop) = p.stop {
            if self.now() >= stop {
                return;
            }
        }
        let seq = p.next_seq;
        p.next_seq += 1;
        p.outstanding.insert(seq, self.now());
        self.inject(p.src, p.dst, p.flow, PacketKind::Ping, p.size, seq);
        let next = self.now() + p.interval;
        self.schedule(
            next,
            EventKind::AgentTimer {
                agent: idx,
                token: 0,
            },
        );
    }

    fn ping_deliver(p: &mut PingState, packet: &Packet, now: SimTime) {
        if packet.kind != PacketKind::Pong {
            return;
        }
        if let Some(sent) = p.outstanding.remove(&packet.seq) {
            p.rtts.push((sent, now.since(sent)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_topology::builtin;

    #[test]
    fn ping_measures_round_trip_time() {
        let t = builtin::abilene();
        let mut net = Network::new(t, 1);
        let ny = net.topology().router_by_name("NewYork").unwrap();
        let sun = net.topology().router_by_name("Sunnyvale").unwrap();
        let flow = net.add_ping_probe(
            ny,
            sun,
            100,
            SimTime::from_ms(100),
            SimTime::ZERO,
            Some(SimTime::from_secs(1)),
        );
        net.run_until(SimTime::from_secs(2), |_| {});
        let rtts = net.ping_rtts(flow);
        assert_eq!(rtts.len(), 10);
        for (_, rtt) in rtts {
            // One-way 25 ms propagation + transmission overheads.
            assert!(*rtt >= SimTime::from_ms(50), "rtt {rtt}");
            assert!(*rtt < SimTime::from_ms(52), "rtt {rtt}");
        }
    }

    /// One-way sources send one way, an echo probe and a TCP connection
    /// both; a pair two agents share is named once.
    #[test]
    fn traffic_pairs_name_every_direction_once() {
        let mut net = Network::new(builtin::line(4), 1);
        let r: Vec<RouterId> = net.topology().routers().collect();
        let (ms, zero) = (SimTime::from_ms(10), SimTime::ZERO);
        net.add_cbr_flow(r[0], r[3], 100, ms, zero, None);
        net.add_poisson_flow(r[1], r[2], 100, ms, zero, None);
        net.add_ping_probe(r[3], r[0], 100, ms, zero, None);
        net.add_tcp_flow(r[1], r[3], crate::tcp::TcpConfig::default(), zero, 1);
        assert_eq!(
            net.traffic_pairs(),
            [
                (r[0], r[3]),
                (r[1], r[2]),
                (r[3], r[0]),
                (r[1], r[3]),
                (r[3], r[1])
            ]
        );
    }

    #[test]
    fn cbr_stops_at_stop_time() {
        let mut net = Network::new(builtin::line(2), 1);
        let a = net.topology().router_by_name("n0").unwrap();
        let b = net.topology().router_by_name("n1").unwrap();
        let flow = net.add_cbr_flow(
            a,
            b,
            100,
            SimTime::from_ms(10),
            SimTime::ZERO,
            Some(SimTime::from_ms(95)),
        );
        net.run_until(SimTime::from_secs(1), |_| {});
        assert_eq!(net.cbr_sent(flow), 10); // t = 0, 10, …, 90
    }

    #[test]
    fn poisson_rate_approximates_mean() {
        let mut net = Network::new(builtin::line(2), 4);
        let a = net.topology().router_by_name("n0").unwrap();
        let b = net.topology().router_by_name("n1").unwrap();
        net.add_poisson_flow(
            a,
            b,
            200,
            SimTime::from_ms(10),
            SimTime::ZERO,
            Some(SimTime::from_secs(20)),
        );
        net.run_until(SimTime::from_secs(25), |_| {});
        let n = net.ground_truth().injected;
        // 20 s / 10 ms = 2000 expected; Poisson σ ≈ 45.
        assert!((1800..2200).contains(&n), "Poisson count {n}");
    }

    #[test]
    #[should_panic(expected = "not a ping probe")]
    fn ping_rtts_rejects_other_flows() {
        let mut net = Network::new(builtin::line(2), 1);
        let a = net.topology().router_by_name("n0").unwrap();
        let b = net.topology().router_by_name("n1").unwrap();
        let flow = net.add_cbr_flow(a, b, 100, SimTime::from_ms(10), SimTime::ZERO, None);
        let _ = net.ping_rtts(flow);
    }
}
