//! Datagram transports for the wire runtime.
//!
//! A [`Transport`] moves encoded frames between routers. Two
//! implementations:
//!
//! * [`LoopbackHub`] / [`LoopbackNet`] — in-memory channels, zero
//!   configuration, used by unit tests and the in-process benchmarks;
//! * [`UdpNet`] — real UDP sockets bound to `127.0.0.1:0`, one per
//!   router, so the full runtime exercises the operating system's
//!   network stack.
//!
//! Neither injects faults. Seeded loss, duplication, corruption,
//! reordering, flaps and crashes are `fatih_sim::FaultPlan`'s, met by the
//! live routers when [`SimHost`](crate::SimHost) hosts them on the
//! simulator's clock.

use crate::codec::MAX_FRAME;
use crate::poller;
use fatih_topology::RouterId;
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

    /// Total payload bytes successfully handed to the medium, so overhead
    /// claims come from measurement rather than arithmetic.
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
    }
}
