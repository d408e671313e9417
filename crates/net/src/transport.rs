//! Datagram transports for the wire runtime.
//!
//! A [`Transport`] moves encoded frames between routers. Three
//! implementations:
//!
//! * [`LoopbackHub`] / [`LoopbackNet`] — in-memory channels, zero
//!   configuration, used by unit tests and the in-process benchmarks;
//! * [`UdpNet`] — real UDP sockets bound to `127.0.0.1:0`, one per
//!   router, so the full runtime exercises the operating system's
//!   network stack;
//! * [`ChaosTransport`] — a shim that injects seeded, probabilistic
//!   loss and duplication on send. By default it faults **control
//!   frames only**, mirroring the simulator's `FaultPlan` semantics:
//!   faulting data frames would make an honest router look like a
//!   dropper, turning an environmental fault into a false accusation.

use crate::codec::{peek_type, MsgType, MAX_FRAME};
use crate::poller;
use fatih_topology::RouterId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::UdpSocket;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A transport failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination router has no known address.
    UnknownPeer(RouterId),
    /// The frame exceeds the transport's datagram limit.
    Oversize(usize),
    /// An operating-system level I/O failure.
    Io(String),
    /// The transport has been shut down.
    Closed,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownPeer(r) => write!(f, "no address for router {r}"),
            NetError::Oversize(n) => write!(f, "frame of {n} bytes exceeds the datagram limit"),
            NetError::Io(e) => write!(f, "i/o: {e}"),
            NetError::Closed => write!(f, "transport closed"),
        }
    }
}

impl std::error::Error for NetError {}

/// Moves encoded frames between routers.
///
/// Implementations are datagram-oriented: a send either delivers the whole
/// frame or nothing, and frames may be lost, duplicated or reordered —
/// the runtime's reliable layer handles control-plane delivery on top.
pub trait Transport: Send {
    /// The router this endpoint belongs to.
    fn local(&self) -> RouterId;

    /// Sends one frame to `dst`. Best-effort: a satisfied return means
    /// the frame was handed to the underlying medium, not delivered.
    fn send(&mut self, dst: RouterId, frame: &[u8]) -> Result<(), NetError>;

    /// Receives the next frame, waiting up to `timeout`. `Ok(None)` on
    /// timeout.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError>;

    /// Receives the next frame without blocking: `Ok(None)` when nothing
    /// is queued. The sharded runtime serves many endpoints per worker
    /// thread, so a blocking receive on one router would starve its
    /// shard-mates. The default falls back to a minimal-timeout receive.
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        self.recv_timeout(Duration::from_micros(1))
    }

    /// [`try_recv`](Self::try_recv) into a buffer the caller reuses:
    /// `Ok(Some(n))` when a frame arrived, which is then `buf[..n]`. The
    /// rest of `buf` is scratch, and its length is the transport's to
    /// manage. The default copies what `try_recv` returns; a transport
    /// overrides it to receive without allocating.
    fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<usize>, NetError> {
        Ok(self.try_recv()?.map(|frame| {
            buf.clear();
            buf.extend_from_slice(&frame);
            frame.len()
        }))
    }

    /// Largest frame this transport can carry.
    fn max_datagram(&self) -> usize {
        MAX_FRAME
    }

    /// Total payload bytes successfully handed to the medium. Chaos
    /// wrappers count what actually survived onto the wire (duplicates
    /// included, swallowed frames excluded), so overhead claims come from
    /// measurement rather than arithmetic.
    fn bytes_sent(&self) -> u64 {
        0
    }

    /// Total payload bytes received from the medium.
    fn bytes_recv(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------
// Loopback
// ---------------------------------------------------------------------

/// Factory for a group of in-memory transports that can reach each other.
#[derive(Debug)]
pub struct LoopbackHub;

impl LoopbackHub {
    /// Creates one connected [`LoopbackNet`] per router id.
    pub fn group(ids: &[RouterId]) -> Vec<LoopbackNet> {
        let mut senders = HashMap::new();
        let mut receivers = Vec::new();
        for &id in ids {
            let (tx, rx) = mpsc::channel();
            senders.insert(id, tx);
            receivers.push((id, rx));
        }
        let senders = Arc::new(senders);
        receivers
            .into_iter()
            .map(|(id, rx)| LoopbackNet {
                local: id,
                peers: Arc::clone(&senders),
                rx,
                sent_bytes: 0,
                recv_bytes: 0,
            })
            .collect()
    }
}

/// One router's endpoint on an in-memory [`LoopbackHub`] group.
#[derive(Debug)]
pub struct LoopbackNet {
    local: RouterId,
    peers: Arc<HashMap<RouterId, mpsc::Sender<Vec<u8>>>>,
    rx: mpsc::Receiver<Vec<u8>>,
    sent_bytes: u64,
    recv_bytes: u64,
}

impl Transport for LoopbackNet {
    fn local(&self) -> RouterId {
        self.local
    }

    fn send(&mut self, dst: RouterId, frame: &[u8]) -> Result<(), NetError> {
        if frame.len() > self.max_datagram() {
            return Err(NetError::Oversize(frame.len()));
        }
        let tx = self.peers.get(&dst).ok_or(NetError::UnknownPeer(dst))?;
        // A hung-up receiver models a crashed router: the datagram is
        // silently lost, exactly as UDP would lose it.
        let _ = tx.send(frame.to_vec());
        self.sent_bytes += frame.len() as u64;
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
        match self.rx.recv_timeout(timeout) {
            Ok(f) => {
                self.recv_bytes += f.len() as u64;
                Ok(Some(f))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        match self.rx.try_recv() {
            Ok(f) => {
                self.recv_bytes += f.len() as u64;
                Ok(Some(f))
            }
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(NetError::Closed),
        }
    }

    /// Moves the datagram in, with no copy: a loopback send already made
    /// the one copy an in-memory medium needs.
    fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<usize>, NetError> {
        Ok(self.try_recv()?.map(|frame| {
            *buf = frame;
            buf.len()
        }))
    }

    fn bytes_sent(&self) -> u64 {
        self.sent_bytes
    }

    fn bytes_recv(&self) -> u64 {
        self.recv_bytes
    }
}

// ---------------------------------------------------------------------
// UDP over localhost
// ---------------------------------------------------------------------

/// One router's endpoint on a group of real UDP loopback sockets.
///
/// The socket is non-blocking from the moment it is bound. Polled on a
/// shard worker, the endpoint registers itself with that thread's
/// readiness poller, through any wrapper, so the worker stops polling it
/// while it is idle.
#[derive(Debug)]
pub struct UdpNet {
    local: RouterId,
    socket: UdpSocket,
    peers: Arc<HashMap<RouterId, std::net::SocketAddr>>,
    /// The last thread poller this endpoint registered with (0: none).
    poller_seen: u64,
    sent_bytes: u64,
    recv_bytes: u64,
}

thread_local! {
    /// Where [`UdpNet::try_recv`]'s datagrams land before an exact-size
    /// copy leaves the call — the receive of [`UdpNet::recv_timeout`] and
    /// of any wrapper that does not forward [`Transport::recv_into`]: one
    /// per receiving thread, not per endpoint (65 kB × 128 routers would
    /// show in the process's peak memory) and not per call (an empty poll
    /// is then one `recv` and nothing else).
    static RECV_BUF: RefCell<Vec<u8>> = RefCell::new(vec![0u8; MAX_FRAME]);
}

impl UdpNet {
    /// Binds one `127.0.0.1:0` socket per router and wires up the shared
    /// address map, so every endpoint can reach every other.
    pub fn bind_group(ids: &[RouterId]) -> std::io::Result<Vec<UdpNet>> {
        let mut sockets = Vec::with_capacity(ids.len());
        let mut addrs = HashMap::new();
        for &id in ids {
            let socket = UdpSocket::bind("127.0.0.1:0")?;
            socket.set_nonblocking(true)?;
            addrs.insert(id, socket.local_addr()?);
            sockets.push((id, socket));
        }
        let addrs = Arc::new(addrs);
        Ok(sockets
            .into_iter()
            .map(|(id, socket)| UdpNet {
                local: id,
                socket,
                peers: Arc::clone(&addrs),
                poller_seen: 0,
                sent_bytes: 0,
                recv_bytes: 0,
            })
            .collect())
    }
}

impl Transport for UdpNet {
    fn local(&self) -> RouterId {
        self.local
    }

    fn send(&mut self, dst: RouterId, frame: &[u8]) -> Result<(), NetError> {
        if frame.len() > self.max_datagram() {
            return Err(NetError::Oversize(frame.len()));
        }
        let addr = self.peers.get(&dst).ok_or(NetError::UnknownPeer(dst))?;
        self.socket
            .send_to(frame, addr)
            .map_err(|e| NetError::Io(e.to_string()))?;
        self.sent_bytes += frame.len() as u64;
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
        let deadline = Instant::now() + timeout;
        let mut left = timeout;
        loop {
            // May wake without a datagram to read (or, where sockets
            // cannot be waited on, after a short sleep): hence the loop.
            poller::wait_readable(&self.socket, left);
            if let Some(frame) = self.try_recv()? {
                return Ok(Some(frame));
            }
            left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
        }
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        RECV_BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            Ok(self.recv_into(&mut buf)?.map(|n| buf[..n].to_vec()))
        })
    }

    /// Receives straight into `buf`, grown once to a whole datagram and
    /// left at that length.
    fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<usize>, NetError> {
        poller::register(&self.socket, self.local, &mut self.poller_seen);
        if buf.len() < MAX_FRAME {
            buf.resize(MAX_FRAME, 0);
        }
        match self.socket.recv(buf) {
            Ok(n) => {
                self.recv_bytes += n as u64;
                Ok(Some(n))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(NetError::Io(e.to_string())),
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.sent_bytes
    }

    fn bytes_recv(&self) -> u64 {
        self.recv_bytes
    }
}

// ---------------------------------------------------------------------
// Chaos shim
// ---------------------------------------------------------------------

/// One scheduled outage on an endpoint's outbound links: between `from`
/// and `until` (measured from the chaos epoch set by
/// [`ChaosTransport::set_flap_epoch`]), sends matching the window are
/// swallowed.
///
/// `peer: None` partitions the endpoint from everyone; `Some(r)` flaps a
/// single link. With `data_only` (the constructors' default) only data
/// frames are dropped, modelling a forwarding-plane outage whose control
/// traffic reroutes around the dead link — the configuration churn
/// scenarios use so a flap exercises reconvergence without faking a
/// summary-exchange failure. [`FlapWindow::all_traffic`] drops control
/// too, for full-partition tests.
#[derive(Debug, Clone, Copy)]
pub struct FlapWindow {
    /// The affected peer; `None` hits every destination (partition).
    pub peer: Option<RouterId>,
    /// Outage start, measured from the chaos epoch.
    pub from: Duration,
    /// Outage end (exclusive).
    pub until: Duration,
    /// Whether only data frames are dropped.
    pub data_only: bool,
}

impl FlapWindow {
    /// A single-link flap dropping data frames toward `peer`.
    pub fn link(peer: RouterId, from: Duration, until: Duration) -> Self {
        Self {
            peer: Some(peer),
            from,
            until,
            data_only: true,
        }
    }

    /// A partition: every outbound data frame dropped during the window.
    pub fn partition(from: Duration, until: Duration) -> Self {
        Self {
            peer: None,
            from,
            until,
            data_only: true,
        }
    }

    /// Extends the outage to control frames as well.
    pub fn all_traffic(mut self) -> Self {
        self.data_only = false;
        self
    }
}

/// Wraps any transport, injecting seeded probabilistic loss and
/// duplication on send, plus optional scheduled [`FlapWindow`] outages.
///
/// With `control_only` (the default via [`ChaosTransport::control`]),
/// data frames pass through untouched and only control frames are
/// faulted — the live mirror of the simulator's `FaultPlan`, which
/// faults `Control` packets so that environmental faults stress the
/// protocol's delivery machinery without framing honest forwarders.
#[derive(Debug)]
pub struct ChaosTransport<T: Transport> {
    inner: T,
    loss: f64,
    duplicate: f64,
    control_only: bool,
    rng: StdRng,
    flaps: Vec<FlapWindow>,
    flap_epoch: Option<Instant>,
    flap_drops: u64,
}

impl<T: Transport> ChaosTransport<T> {
    /// Chaos over control frames only (the standard configuration).
    pub fn control(inner: T, loss: f64, duplicate: f64, seed: u64) -> Self {
        Self {
            inner,
            loss,
            duplicate,
            control_only: true,
            rng: StdRng::seed_from_u64(seed),
            flaps: Vec::new(),
            flap_epoch: None,
            flap_drops: 0,
        }
    }

    /// Chaos over every frame, data included. Only meaningful for
    /// transport-level tests: data loss is indistinguishable from a
    /// malicious dropper by design.
    pub fn all_frames(inner: T, loss: f64, duplicate: f64, seed: u64) -> Self {
        Self {
            control_only: false,
            ..Self::control(inner, loss, duplicate, seed)
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Installs a seeded per-link up/down schedule. Windows are measured
    /// from the epoch set by [`set_flap_epoch`](Self::set_flap_epoch);
    /// until an epoch is set the schedule is dormant.
    pub fn with_flaps(mut self, flaps: Vec<FlapWindow>) -> Self {
        self.flaps = flaps;
        self
    }

    /// Anchors the flap schedule to a wall-clock instant (the deployment
    /// start), arming it.
    pub fn set_flap_epoch(&mut self, epoch: Instant) {
        self.flap_epoch = Some(epoch);
    }

    /// Frames swallowed by flap/partition windows so far.
    pub fn flap_drops(&self) -> u64 {
        self.flap_drops
    }

    fn flap_active(&self, dst: RouterId, is_data: bool) -> bool {
        let Some(epoch) = self.flap_epoch else {
            return false;
        };
        if self.flaps.is_empty() {
            return false;
        }
        let now = epoch.elapsed();
        self.flaps.iter().any(|w| {
            (w.peer.is_none() || w.peer == Some(dst))
                && now >= w.from
                && now < w.until
                && (is_data || !w.data_only)
        })
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn local(&self) -> RouterId {
        self.inner.local()
    }

    fn send(&mut self, dst: RouterId, frame: &[u8]) -> Result<(), NetError> {
        let is_data = peek_type(frame) == Some(MsgType::Data);
        if self.flap_active(dst, is_data) {
            self.flap_drops += 1;
            return Ok(()); // the link is down for this frame
        }
        if self.control_only && is_data {
            return self.inner.send(dst, frame);
        }
        if self.rng.gen_bool(self.loss) {
            return Ok(()); // swallowed by the network
        }
        self.inner.send(dst, frame)?;
        if self.rng.gen_bool(self.duplicate) {
            self.inner.send(dst, frame)?;
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
        self.inner.recv_timeout(timeout)
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(v: u32) -> RouterId {
        RouterId::from(v)
    }

    #[test]
    fn loopback_delivers_between_endpoints() {
        let mut group = LoopbackHub::group(&[rid(0), rid(1)]);
        let mut b = group.pop().unwrap();
        let mut a = group.pop().unwrap();
        a.send(rid(1), b"hello").unwrap();
        let got = b.recv_timeout(Duration::from_millis(200)).unwrap();
        assert_eq!(got.as_deref(), Some(&b"hello"[..]));
        assert_eq!(
            b.recv_timeout(Duration::from_millis(1)).unwrap(),
            None,
            "no further frames"
        );
    }

    #[test]
    fn udp_delivers_over_real_sockets() {
        let mut group = UdpNet::bind_group(&[rid(0), rid(1)]).unwrap();
        let mut b = group.pop().unwrap();
        let mut a = group.pop().unwrap();
        a.send(rid(1), b"over the kernel").unwrap();
        let got = b.recv_timeout(Duration::from_millis(500)).unwrap();
        assert_eq!(got.as_deref(), Some(&b"over the kernel"[..]));
        assert_eq!(b.recv_timeout(Duration::from_millis(1)).unwrap(), None);
    }

    #[test]
    fn unknown_peer_and_oversize_rejected() {
        let mut group = LoopbackHub::group(&[rid(0)]);
        let mut a = group.pop().unwrap();
        assert_eq!(a.send(rid(9), b"x"), Err(NetError::UnknownPeer(rid(9))));
        let big = vec![0u8; MAX_FRAME + 1];
        assert_eq!(a.send(rid(0), &big), Err(NetError::Oversize(big.len())));
    }

    #[test]
    fn byte_counters_track_wire_traffic() {
        // Loopback: sender counts what it sent, receiver what it drained.
        let mut group = LoopbackHub::group(&[rid(0), rid(1)]);
        let mut b = group.pop().unwrap();
        let mut a = group.pop().unwrap();
        a.send(rid(1), b"hello").unwrap();
        a.send(rid(1), b"worldwide").unwrap();
        assert_eq!(a.bytes_sent(), 5 + 9);
        assert_eq!(b.bytes_recv(), 0, "nothing drained yet");
        while b.try_recv().unwrap().is_some() {}
        assert_eq!(b.bytes_recv(), 5 + 9);
        assert_eq!(b.bytes_sent(), 0);

        // UDP: same invariant over real sockets, via both receive paths.
        let mut group = UdpNet::bind_group(&[rid(0), rid(1)]).unwrap();
        let mut b = group.pop().unwrap();
        let mut a = group.pop().unwrap();
        a.send(rid(1), b"abc").unwrap();
        a.send(rid(1), b"defg").unwrap();
        assert_eq!(a.bytes_sent(), 7);
        let mut drained = 0;
        for _ in 0..200 {
            match b.recv_timeout(Duration::from_millis(50)).unwrap() {
                Some(f) => drained += f.len(),
                None => break,
            }
            if drained == 7 {
                break;
            }
        }
        assert_eq!(b.bytes_recv() as usize, drained);
        assert_eq!(drained, 7);

        // Chaos: swallowed frames never reach the medium; duplicates are
        // charged twice. loss=1.0 → zero bytes; dup=1.0 → double bytes.
        let mut group = LoopbackHub::group(&[rid(0), rid(1)]);
        group.pop().unwrap();
        let a = group.pop().unwrap();
        let mut lossy = ChaosTransport::all_frames(a, 1.0, 0.0, 1);
        lossy.send(rid(1), b"gone").unwrap();
        assert_eq!(lossy.bytes_sent(), 0);

        let mut group = LoopbackHub::group(&[rid(0), rid(1)]);
        group.pop().unwrap();
        let a = group.pop().unwrap();
        let mut dupy = ChaosTransport::all_frames(a, 0.0, 1.0, 1);
        dupy.send(rid(1), b"twice").unwrap();
        assert_eq!(dupy.bytes_sent(), 10);
    }

    #[test]
    fn chaos_loss_rate_is_approximately_p() {
        let mut group = LoopbackHub::group(&[rid(0), rid(1)]);
        let mut b = group.pop().unwrap();
        let a = group.pop().unwrap();
        let mut chaotic = ChaosTransport::all_frames(a, 0.5, 0.0, 42);
        let n = 2000;
        for _ in 0..n {
            chaotic.send(rid(1), b"f").unwrap();
        }
        let mut received = 0;
        while b.recv_timeout(Duration::from_millis(1)).unwrap().is_some() {
            received += 1;
        }
        let rate = received as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.05, "survival rate {rate}");
    }

    #[test]
    fn chaos_duplication_produces_extras() {
        let mut group = LoopbackHub::group(&[rid(0), rid(1)]);
        let mut b = group.pop().unwrap();
        let a = group.pop().unwrap();
        let mut chaotic = ChaosTransport::all_frames(a, 0.0, 0.5, 7);
        let n = 1000;
        for _ in 0..n {
            chaotic.send(rid(1), b"f").unwrap();
        }
        let mut received = 0;
        while b.recv_timeout(Duration::from_millis(1)).unwrap().is_some() {
            received += 1;
        }
        assert!(received > n, "expected duplicates, got {received}");
        let dup_rate = (received - n) as f64 / n as f64;
        assert!((dup_rate - 0.5).abs() < 0.06, "duplication rate {dup_rate}");
    }

    /// A minimal frame whose header peeks as the given message type.
    fn raw_frame(ty: MsgType) -> Vec<u8> {
        let mut f = vec![0u8; crate::codec::HEADER_LEN];
        f[0] = crate::codec::MAGIC;
        f[1] = crate::codec::VERSION;
        f[2] = ty.as_byte();
        f
    }

    fn drain(t: &mut impl Transport) -> usize {
        let mut n = 0;
        while t.recv_timeout(Duration::from_millis(5)).unwrap().is_some() {
            n += 1;
        }
        n
    }

    #[test]
    fn flap_window_drops_data_only_on_the_flapped_link() {
        let mut group = LoopbackHub::group(&[rid(0), rid(1), rid(2)]);
        let mut c = group.pop().unwrap(); // rid(2)
        let mut b = group.pop().unwrap(); // rid(1)
        let a = group.pop().unwrap(); // rid(0)
        let hour = Duration::from_secs(3600);
        let mut chaos = ChaosTransport::control(a, 0.0, 0.0, 1).with_flaps(vec![FlapWindow::link(
            rid(1),
            Duration::ZERO,
            hour,
        )]);

        // Dormant until the epoch is set.
        chaos.send(rid(1), &raw_frame(MsgType::Data)).unwrap();
        assert_eq!(drain(&mut b), 1);

        chaos.set_flap_epoch(Instant::now());
        // Data toward the flapped peer is swallowed …
        chaos.send(rid(1), &raw_frame(MsgType::Data)).unwrap();
        assert_eq!(drain(&mut b), 0);
        assert_eq!(chaos.flap_drops(), 1);
        // … control toward it still flows (forwarding-plane outage) …
        chaos.send(rid(1), &raw_frame(MsgType::Ack)).unwrap();
        assert_eq!(drain(&mut b), 1);
        // … and other links are untouched.
        chaos.send(rid(2), &raw_frame(MsgType::Data)).unwrap();
        assert_eq!(drain(&mut c), 1);
    }

    #[test]
    fn partition_all_traffic_blocks_everything_only_inside_the_window() {
        let mut group = LoopbackHub::group(&[rid(0), rid(1), rid(2)]);
        let mut c = group.pop().unwrap();
        let mut b = group.pop().unwrap();
        let a = group.pop().unwrap();
        let hour = Duration::from_secs(3600);
        let mut chaos = ChaosTransport::control(a, 0.0, 0.0, 2).with_flaps(vec![
            FlapWindow::partition(Duration::ZERO, hour).all_traffic(),
            // A second window far in the future must not fire now.
            FlapWindow::partition(hour * 2, hour * 3),
        ]);
        chaos.set_flap_epoch(Instant::now());
        chaos.send(rid(1), &raw_frame(MsgType::Data)).unwrap();
        chaos.send(rid(1), &raw_frame(MsgType::Summary)).unwrap();
        chaos.send(rid(2), &raw_frame(MsgType::Ack)).unwrap();
        assert_eq!(drain(&mut b) + drain(&mut c), 0);
        assert_eq!(chaos.flap_drops(), 3);

        // An epoch far in the past puts "now" beyond the first window and
        // before the second: traffic flows again.
        let past = Instant::now() - hour - hour / 2;
        chaos.set_flap_epoch(past);
        chaos.send(rid(1), &raw_frame(MsgType::Data)).unwrap();
        assert_eq!(drain(&mut b), 1);
    }
}
