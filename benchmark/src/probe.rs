//! `Probe<T>`: the benchmark's only code in the measured path.
//!
//! A probe wraps one router's [`Transport`] and forwards every call
//! unchanged. What it adds depends on the mode:
//!
//! * **untraced** (end-to-end runs): only at routers that source or sink a
//!   flow, and only for `Data` frames, it decodes the frame, counts the
//!   source's injections, and for packets with `seq % sample_every == 0`
//!   stamps `Instant::now()` at the source's first send and at the sink's
//!   receive. Transit routers pay one branch per call.
//! * **traced** (per-layer runs): additionally every `send` / `try_recv` /
//!   `recv_timeout` call is timed as a span, frames and bytes are counted
//!   by kind, and a few frames of each [`MsgType`] are kept for replay.
//!
//! Everything a probe collects stays in its own vectors until it is
//! dropped (inside the runtime, when its shard thread winds down); only
//! then does it take the hub's lock, once.

use fatih_crypto::KeyStore;
use fatih_net::codec::{decode_frame, peek_type, MsgType, WireMessage};
use fatih_net::transport::{NetError, Transport};
use fatih_sim::{Packet, PacketId};
use fatih_topology::RouterId;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which transport call a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// [`Transport::send`].
    Send,
    /// [`Transport::try_recv`].
    TryRecv,
    /// [`Transport::recv_timeout`].
    RecvTimeout,
}

impl Op {
    /// Every call kind, in declaration order (`ALL[op as usize] == op`).
    pub const ALL: [Op; 3] = [Op::Send, Op::TryRecv, Op::RecvTimeout];

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Op::Send => "transport.send",
            Op::TryRecv => "transport.try_recv",
            Op::RecvTimeout => "transport.recv_timeout",
        }
    }
}

/// One timed transport call. Its parent span is the run itself.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call.
    pub op: Op,
    /// Router whose endpoint made it.
    pub router: u32,
    /// Start, nanoseconds since the hub was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u32,
    /// Frame bytes moved; 0 is an empty poll (or a failed send).
    pub bytes: u32,
}

/// How many frames of each control type one probe keeps from the start of
/// the run, and how many from its end (summaries grow over a run, so the
/// replay wants both). `Data` frames are all alike: only the head is kept.
const SAMPLES_HEAD: usize = 2;
const SAMPLES_TAIL: usize = 2;
/// Frames of one type kept across all probes after merging.
pub const SAMPLES_PER_TYPE: usize = 64;

/// What the probes of one deployment collected.
#[derive(Debug, Default)]
pub struct ProbeRecord {
    /// Data packets first sent by their source router.
    pub injected: u64,
    /// Sampled packets: source's first send.
    pub sent_at: Vec<(PacketId, Instant)>,
    /// Sampled packets: sink's receive.
    pub received_at: Vec<(PacketId, Instant)>,
    /// Traced mode: every transport call.
    pub spans: Vec<Span>,
    /// Traced mode: `Data` frames handed to `send`.
    pub data_frames_sent: u64,
    /// Traced mode: control frames handed to `send`.
    pub control_frames_sent: u64,
    /// Traced mode: captured frames for replay, as received.
    pub samples: Vec<(MsgType, Vec<u8>)>,
}

impl ProbeRecord {
    /// Source-send → sink-receive time of every sampled packet that
    /// arrived, in microseconds, ascending. Each sampled packet matches at
    /// most once; a duplicate receive is ignored.
    pub fn latencies_us(&self) -> Vec<f64> {
        let mut sent: HashMap<PacketId, Instant> = self.sent_at.iter().copied().collect();
        let mut out: Vec<f64> = self
            .received_at
            .iter()
            .filter_map(|(id, at)| {
                let t0 = sent.remove(id)?;
                Some(at.saturating_duration_since(t0).as_secs_f64() * 1e6)
            })
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Captured frames of one type, at most [`SAMPLES_PER_TYPE`].
    pub fn samples_of(&self, ty: MsgType) -> Vec<&[u8]> {
        self.samples
            .iter()
            .filter(|(t, _)| *t == ty)
            .map(|(_, b)| b.as_slice())
            .take(SAMPLES_PER_TYPE)
            .collect()
    }

    /// (calls, total nanoseconds, empty-handed calls) of each call kind,
    /// indexed by `Op as usize`, in one pass over the spans.
    pub fn call_totals(&self) -> [(u64, u64, u64); 3] {
        let mut totals = [(0, 0, 0); 3];
        for s in &self.spans {
            let t = &mut totals[s.op as usize];
            t.0 += 1;
            t.1 += u64::from(s.dur_ns);
            t.2 += u64::from(s.bytes == 0);
        }
        totals
    }
}

/// Where the probes of one deployment deliver their records.
#[derive(Debug, Clone)]
pub struct ProbeHub {
    record: Arc<Mutex<ProbeRecord>>,
    origin: Instant,
}

impl ProbeHub {
    /// Takes everything delivered so far. Call after
    /// `LiveDeployment::run` returns: the runtime has joined its shard
    /// threads by then, so every probe has been dropped.
    pub fn take(&self) -> ProbeRecord {
        std::mem::take(
            &mut *self
                .record
                .lock()
                .expect("no probe panics while delivering"),
        )
    }
}

/// Per-deployment probe settings.
#[derive(Debug, Clone)]
pub struct ProbeSetup {
    /// Routers that source a flow.
    pub sources: HashSet<RouterId>,
    /// Routers that sink a flow.
    pub sinks: HashSet<RouterId>,
    /// Latency-stamp every n-th packet of a flow (by `seq`).
    pub sample_every: u64,
    /// Time every transport call and capture frames for replay.
    pub traced: bool,
}

/// A measuring pass-through around one router's transport.
pub struct Probe<T: Transport> {
    inner: T,
    local: RouterId,
    is_source: bool,
    is_sink: bool,
    sample_every: u64,
    traced: bool,
    /// `Data` frames carry no MAC, so decoding them needs no key material.
    keys: Arc<KeyStore>,
    hub: ProbeHub,
    mine: ProbeRecord,
    tail: HashMap<MsgType, Vec<Vec<u8>>>,
    head_count: HashMap<MsgType, usize>,
}

impl<T: Transport> Probe<T> {
    /// Wraps every transport of a deployment; the hub receives their
    /// records as they are dropped.
    pub fn wrap_group(transports: Vec<T>, setup: &ProbeSetup) -> (Vec<Probe<T>>, ProbeHub) {
        let hub = ProbeHub {
            record: Arc::new(Mutex::new(ProbeRecord::default())),
            origin: Instant::now(),
        };
        let keys = Arc::new(KeyStore::with_seed(0));
        let probes = transports
            .into_iter()
            .map(|inner| {
                let local = inner.local();
                Probe {
                    inner,
                    local,
                    is_source: setup.sources.contains(&local),
                    is_sink: setup.sinks.contains(&local),
                    sample_every: setup.sample_every.max(1),
                    traced: setup.traced,
                    keys: Arc::clone(&keys),
                    hub: hub.clone(),
                    mine: ProbeRecord::default(),
                    tail: HashMap::new(),
                    head_count: HashMap::new(),
                }
            })
            .collect();
        (probes, hub)
    }

    fn data_packet(&self, frame: &[u8]) -> Option<Packet> {
        if peek_type(frame) != Some(MsgType::Data) {
            return None;
        }
        match decode_frame(frame, &self.keys).ok()?.msg {
            WireMessage::Data { packet, .. } => Some(packet),
            _ => None,
        }
    }

    /// Source side: count the injection and stamp sampled packets. Only a
    /// packet's first send counts — transit frames this router forwards
    /// for other flows have a decremented TTL or a different source.
    fn note_send(&mut self, frame: &[u8]) {
        let Some(p) = self.data_packet(frame) else {
            return;
        };
        if p.src != self.local || p.ttl != Packet::DEFAULT_TTL {
            return;
        }
        self.mine.injected += 1;
        if p.seq % self.sample_every == 0 {
            self.mine.sent_at.push((p.id, Instant::now()));
        }
    }

    /// Sink side: stamp sampled packets addressed to this router.
    fn note_recv(&mut self, frame: &[u8]) {
        let Some(p) = self.data_packet(frame) else {
            return;
        };
        if p.dst == self.local && p.seq % self.sample_every == 0 {
            self.mine.received_at.push((p.id, Instant::now()));
        }
    }

    fn span(&mut self, op: Op, t0: Instant, bytes: usize) {
        let dur = t0.elapsed();
        self.mine.spans.push(Span {
            op,
            router: u32::from(self.local),
            start_ns: t0.saturating_duration_since(self.hub.origin).as_nanos() as u64,
            dur_ns: u32::try_from(dur.as_nanos()).unwrap_or(u32::MAX),
            bytes: u32::try_from(bytes).unwrap_or(u32::MAX),
        });
    }

    fn capture(&mut self, frame: &[u8]) {
        let Some(ty) = peek_type(frame) else {
            return;
        };
        let head = self.head_count.entry(ty).or_insert(0);
        if *head < SAMPLES_HEAD {
            *head += 1;
            self.mine.samples.push((ty, frame.to_vec()));
        } else if ty != MsgType::Data {
            let tail = self.tail.entry(ty).or_default();
            if tail.len() == SAMPLES_TAIL {
                tail.remove(0);
            }
            tail.push(frame.to_vec());
        }
    }

    fn received(&mut self, op: Op, t0: Option<Instant>, got: &Result<Option<Vec<u8>>, NetError>) {
        let frame = got.as_ref().ok().and_then(|f| f.as_deref());
        if let Some(t0) = t0 {
            self.span(op, t0, frame.map_or(0, <[u8]>::len));
        }
        if let Some(frame) = frame {
            if self.is_sink {
                self.note_recv(frame);
            }
            if self.traced {
                self.capture(frame);
            }
        }
    }
}

impl<T: Transport> Transport for Probe<T> {
    fn local(&self) -> RouterId {
        self.local
    }

    fn send(&mut self, dst: RouterId, frame: &[u8]) -> Result<(), NetError> {
        if self.is_source {
            self.note_send(frame);
        }
        if !self.traced {
            return self.inner.send(dst, frame);
        }
        let t0 = Instant::now();
        let sent = self.inner.send(dst, frame);
        self.span(Op::Send, t0, if sent.is_ok() { frame.len() } else { 0 });
        if peek_type(frame) == Some(MsgType::Data) {
            self.mine.data_frames_sent += 1;
        } else {
            self.mine.control_frames_sent += 1;
        }
        sent
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
        let t0 = self.traced.then(Instant::now);
        let got = self.inner.recv_timeout(timeout);
        self.received(Op::RecvTimeout, t0, &got);
        got
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        let t0 = self.traced.then(Instant::now);
        let got = self.inner.try_recv();
        self.received(Op::TryRecv, t0, &got);
        got
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

impl<T: Transport> Drop for Probe<T> {
    fn drop(&mut self) {
        // A poisoned hub means another probe's thread panicked; the run is
        // already lost and `Drop` must not add a second panic.
        let Ok(mut all) = self.hub.record.lock() else {
            return;
        };
        let mine = std::mem::take(&mut self.mine);
        all.injected += mine.injected;
        all.sent_at.extend(mine.sent_at);
        all.received_at.extend(mine.received_at);
        all.spans.extend(mine.spans);
        all.data_frames_sent += mine.data_frames_sent;
        all.control_frames_sent += mine.control_frames_sent;
        all.samples.extend(mine.samples);
        for (ty, frames) in self.tail.drain() {
            all.samples.extend(frames.into_iter().map(|f| (ty, f)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_net::codec::{encode_frame, Frame};
    use fatih_net::runtime::{FlowSpec, LiveConfig, LiveDeployment, LiveSpec};
    use fatih_net::transport::LoopbackHub;
    use fatih_sim::{FlowId, PacketKind, SimTime};
    use fatih_topology::builtin;

    fn ids(n: usize) -> Vec<RouterId> {
        builtin::line(n).routers().collect()
    }

    fn data_frame(
        src: RouterId,
        dst: RouterId,
        hop: (RouterId, RouterId),
        seq: u64,
        ttl: u8,
    ) -> Vec<u8> {
        let id = PacketId(1_000 + seq);
        let packet = Packet {
            id,
            src,
            dst,
            flow: FlowId(0),
            kind: PacketKind::Data,
            size: 1000,
            seq,
            payload_tag: Packet::expected_tag(id),
            ttl,
            created_at: SimTime::ZERO,
        };
        let frame = Frame {
            src: hop.0,
            dst: hop.1,
            seq,
            msg: WireMessage::Data { packet, epoch: 0 },
        };
        encode_frame(&frame, &KeyStore::with_seed(0)).expect("data frames always encode")
    }

    fn setup(src: RouterId, dst: RouterId, sample_every: u64, traced: bool) -> ProbeSetup {
        ProbeSetup {
            sources: [src].into(),
            sinks: [dst].into(),
            sample_every,
            traced,
        }
    }

    #[test]
    fn every_sampled_packet_is_matched_exactly_once() {
        let r = ids(3);
        let (mut probes, hub) =
            Probe::wrap_group(LoopbackHub::group(&r), &setup(r[0], r[2], 4, false));
        let ttl = Packet::DEFAULT_TTL;
        for seq in 1..=40u64 {
            // r0 → r1 → r2, as the runtime forwards: TTL drops per hop.
            probes[0]
                .send(r[1], &data_frame(r[0], r[2], (r[0], r[1]), seq, ttl))
                .unwrap();
            let at_transit = probes[1].try_recv().unwrap().expect("frame queued");
            assert_eq!(peek_type(&at_transit), Some(MsgType::Data));
            probes[1]
                .send(r[2], &data_frame(r[0], r[2], (r[1], r[2]), seq, ttl - 1))
                .unwrap();
            assert!(probes[2].try_recv().unwrap().is_some());
        }
        // A duplicate delivery of a sampled packet must not match twice,
        // and a transit frame re-sent by the source must not count.
        probes[1]
            .send(r[2], &data_frame(r[0], r[2], (r[1], r[2]), 8, ttl - 1))
            .unwrap();
        assert!(probes[2].try_recv().unwrap().is_some());
        probes[0]
            .send(r[1], &data_frame(r[2], r[0], (r[0], r[1]), 4, ttl - 1))
            .unwrap();
        drop(probes);
        let rec = hub.take();
        assert_eq!(rec.injected, 40);
        assert_eq!(rec.sent_at.len(), 10, "seq 4, 8, …, 40");
        assert_eq!(rec.received_at.len(), 11, "ten sampled plus one duplicate");
        let lat = rec.latencies_us();
        assert_eq!(lat.len(), 10);
        assert!(lat.windows(2).all(|w| w[0] <= w[1]));
        assert!(rec.spans.is_empty(), "untraced probes time nothing");
    }

    #[test]
    fn pass_through_is_exact() {
        let r = ids(2);
        let (mut probes, hub) =
            Probe::wrap_group(LoopbackHub::group(&r), &setup(r[0], r[1], 1, true));
        assert_eq!(probes[0].local(), r[0]);
        assert_eq!(probes[1].local(), r[1]);
        let plain = LoopbackHub::group(&r);
        assert_eq!(probes[0].max_datagram(), plain[0].max_datagram());

        let frame = data_frame(r[0], r[1], (r[0], r[1]), 1, Packet::DEFAULT_TTL);
        probes[0].send(r[1], &frame).unwrap();
        probes[0].send(r[1], b"not a fatih frame").unwrap();
        assert_eq!(probes[0].bytes_sent(), (frame.len() + 17) as u64);
        assert_eq!(probes[1].try_recv().unwrap().as_deref(), Some(&frame[..]));
        assert_eq!(
            probes[1]
                .recv_timeout(Duration::from_millis(5))
                .unwrap()
                .as_deref(),
            Some(&b"not a fatih frame"[..])
        );
        assert_eq!(probes[1].try_recv().unwrap(), None);
        assert_eq!(probes[1].bytes_recv(), (frame.len() + 17) as u64);
        let oversize = vec![0u8; probes[0].max_datagram() + 1];
        assert!(matches!(
            probes[0].send(r[1], &oversize),
            Err(NetError::Oversize(_))
        ));
        assert_eq!(probes[0].bytes_sent(), (frame.len() + 17) as u64);

        drop(probes);
        let rec = hub.take();
        let [send, try_recv, recv_timeout] = rec.call_totals();
        assert_eq!((send.0, send.2), (3, 1), "three sends, one refused");
        assert_eq!((try_recv.0, try_recv.2), (2, 1), "one empty poll");
        assert_eq!(recv_timeout.0, 1);
        assert_eq!(rec.data_frames_sent, 1);
        assert_eq!(rec.control_frames_sent, 2);
        assert_eq!(rec.samples_of(MsgType::Data), vec![&frame[..]]);
        assert_eq!(rec.latencies_us().len(), 1);
    }

    fn clean_line_run(probed: bool) -> (usize, u64) {
        let topo = builtin::line(4);
        let r: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(r[0], r[3], 1000, Duration::from_millis(2))],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(150),
            exchange_budget: Duration::from_millis(80),
            maturity_lag: Duration::from_millis(40),
            rounds: 2,
            response: false,
            shards: 1,
            ..LiveConfig::default()
        };
        let outcome = if probed {
            let (probes, hub) =
                Probe::wrap_group(LoopbackHub::group(&r), &setup(r[0], r[3], 1, true));
            let outcome = LiveDeployment::run(&topo, &spec, &cfg, probes);
            let rec = hub.take();
            assert_eq!(rec.injected, rec.sent_at.len() as u64);
            assert_eq!(
                rec.latencies_us().len() as u64,
                outcome.stats.data_delivered,
                "every delivered packet was stamped at both ends"
            );
            assert!(rec.call_totals()[Op::TryRecv as usize].0 > 0);
            outcome
        } else {
            LiveDeployment::run(&topo, &spec, &cfg, LoopbackHub::group(&r))
        };
        (outcome.suspicions.len(), outcome.stats.data_delivered)
    }

    #[test]
    fn a_probed_run_raises_the_same_zero_suspicions() {
        let (plain_suspicions, plain_delivered) = clean_line_run(false);
        let (probed_suspicions, probed_delivered) = clean_line_run(true);
        assert_eq!(plain_suspicions, 0);
        assert_eq!(probed_suspicions, plain_suspicions);
        assert!(plain_delivered > 0 && probed_delivered > 0);
    }
}
