//! Readiness waiting for the shard loop — the one module of the
//! workspace that may contain `unsafe`.
//!
//! `std` has no way to wait on several sockets at once, so this module
//! declares `ppoll(2)` itself (there is no `libc` crate offline).
//! `ppoll` rather than `epoll`: one function instead of three, a
//! nanosecond `timespec` timeout (plain `poll` rounds to milliseconds,
//! which would make 4 ms flow ticks late), and no descriptor lifecycle
//! beyond a `Vec`.
//!
//! Registration is *ambient*, the way a tokio socket finds its reactor: a
//! worker [`install`]s a poller as its thread's current one, and a socket
//! transport [`register`]s itself with whatever poller is current the first
//! time it is polled on that thread. Transport wrappers therefore need to
//! know nothing about it. Endpoints that never register (in-memory
//! transports, every transport on a non-Linux target) are simply not
//! reported, and the caller keeps sweeping them.

use fatih_topology::RouterId;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const POLLIN: i16 = 0x001;
const POLLNVAL: i16 = 0x020;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use super::PollFd;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    /// `struct timespec` of the 64-bit Linux ABIs.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> std::ffi::c_int;
    }

    pub(super) fn fd_of(socket: &std::net::UdpSocket) -> Option<i32> {
        Some(socket.as_raw_fd())
    }

    /// Blocks until an entry of `fds` has an event or `timeout` elapsed and
    /// reports whether any `revents` was set.
    pub(super) fn wait(fds: &mut [PollFd], timeout: Duration) -> bool {
        let ts = Timespec {
            tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // structs laid out as `struct pollfd`, and its own length is the
        // count passed, so the kernel reads and writes inside it only;
        // `ts` lives across the call and is only read; a null signal mask
        // is allowed and leaves the mask alone. No pointer outlives the
        // call.
        let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as _, &ts, std::ptr::null()) };
        n > 0 // an interrupted or failed wait reports nothing ready
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    use super::PollFd;
    use std::time::Duration;

    pub(super) fn fd_of(_: &std::net::UdpSocket) -> Option<i32> {
        None
    }

    /// Nothing can be waited on here: sleep a short while and let the
    /// caller poll again.
    pub(super) fn wait(_: &mut [PollFd], timeout: Duration) -> bool {
        std::thread::sleep(timeout.min(Duration::from_micros(500)));
        false
    }
}

/// The descriptors one worker thread waits on, each keyed by the router
/// whose endpoint it is.
struct Poller {
    id: u64,
    fds: Vec<PollFd>,
    keys: Vec<RouterId>,
}

thread_local! {
    static CURRENT: RefCell<Option<Poller>> = const { RefCell::new(None) };
}

/// Distinguishes pollers, so a transport can tell whether it has already
/// registered with the current one. Only uniqueness matters: `Relaxed`.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Proof that this thread has a current poller; dropping it removes the
/// poller. Not `Send`: it must be dropped on the thread that installed it.
pub(crate) struct Installed(PhantomData<*const ()>);

/// Makes a fresh, empty poller the calling thread's current one.
pub(crate) fn install() -> Installed {
    let poller = Poller {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        fds: Vec::new(),
        keys: Vec::new(),
    };
    CURRENT.with(|c| *c.borrow_mut() = Some(poller));
    Installed(PhantomData)
}

impl Drop for Installed {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

impl Installed {
    fn with<R>(&self, f: impl FnOnce(&mut Poller) -> R) -> R {
        CURRENT.with(|c| f(c.borrow_mut().as_mut().expect("installed on this thread")))
    }

    /// Blocks until a registered socket is readable or `timeout` elapsed,
    /// and appends the keys of the readable ones to `ready`. Readiness is
    /// level-triggered: a socket stays ready until it is drained, so the
    /// caller must drain or [`deregister`](Self::deregister) what it is
    /// told about. Closed descriptors leave the set unreported.
    pub(crate) fn wait(&self, timeout: Duration, ready: &mut Vec<RouterId>) {
        self.with(|p| {
            if (p.fds.is_empty() && timeout.is_zero()) || !sys::wait(&mut p.fds, timeout) {
                return;
            }
            for i in (0..p.fds.len()).rev() {
                let revents = std::mem::take(&mut p.fds[i].revents);
                if revents & POLLNVAL != 0 {
                    p.fds.swap_remove(i);
                    p.keys.swap_remove(i);
                } else if revents != 0 {
                    ready.push(p.keys[i]);
                }
            }
        })
    }

    /// Whether a socket keyed `key` is in the set.
    pub(crate) fn is_registered(&self, key: RouterId) -> bool {
        self.with(|p| p.keys.contains(&key))
    }

    /// Removes the socket keyed `key`, if present.
    pub(crate) fn deregister(&self, key: RouterId) {
        self.with(|p| {
            if let Some(i) = p.keys.iter().position(|k| *k == key) {
                p.fds.swap_remove(i);
                p.keys.swap_remove(i);
            }
        })
    }
}

/// Adds `socket` under `key` to the calling thread's current poller,
/// unless `seen` says it is already there. `seen` is the caller's memory
/// of the last poller it registered with (0: none). Without a current
/// poller, or where sockets cannot be waited on, this does nothing.
pub(crate) fn register(socket: &UdpSocket, key: RouterId, seen: &mut u64) {
    CURRENT.with(|c| {
        let mut current = c.borrow_mut();
        let Some(p) = current.as_mut().filter(|p| p.id != *seen) else {
            return;
        };
        let Some(fd) = sys::fd_of(socket) else { return };
        *seen = p.id;
        // A descriptor number met again belongs to a new socket: the old
        // one was closed, or it could not have been reissued.
        match p.fds.iter().position(|e| e.fd == fd) {
            Some(i) => p.keys[i] = key,
            None => {
                p.fds.push(PollFd {
                    fd,
                    events: POLLIN,
                    revents: 0,
                });
                p.keys.push(key);
            }
        }
    })
}

/// Waits up to `timeout` for `socket` alone to become readable. May return
/// early or spuriously; the caller tries a receive and checks its clock.
pub(crate) fn wait_readable(socket: &UdpSocket, timeout: Duration) {
    let mut one = [PollFd {
        fd: sys::fd_of(socket).unwrap_or(-1), // a negative fd is ignored
        events: POLLIN,
        revents: 0,
    }];
    sys::wait(&mut one, timeout);
}

#[cfg(all(test, target_os = "linux", target_pointer_width = "64"))]
mod tests {
    use super::*;
    use std::time::Instant;

    fn rid(v: u32) -> RouterId {
        RouterId::from(v)
    }

    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        (a, b)
    }

    #[test]
    fn readable_socket_is_reported_and_idle_one_is_not() {
        let poller = install();
        let (a, b) = pair();
        let (mut seen_a, mut seen_b) = (0, 0);
        register(&a, rid(1), &mut seen_a);
        register(&b, rid(2), &mut seen_b);
        register(&b, rid(2), &mut seen_b); // a second call is a no-op
        assert!(poller.is_registered(rid(1)) && poller.is_registered(rid(2)));
        assert!(!poller.is_registered(rid(3)));

        a.send_to(b"x", b.local_addr().unwrap()).unwrap();
        let mut ready = Vec::new();
        poller.wait(Duration::from_millis(500), &mut ready);
        assert_eq!(ready, vec![rid(2)]);

        // Level-triggered: still ready until drained, then quiet.
        ready.clear();
        poller.wait(Duration::ZERO, &mut ready);
        assert_eq!(ready, vec![rid(2)]);
        b.recv_from(&mut [0u8; 8]).unwrap();
        ready.clear();
        poller.wait(Duration::ZERO, &mut ready);
        assert!(ready.is_empty());
    }

    #[test]
    fn timeout_is_honoured_below_a_millisecond() {
        let poller = install();
        let (a, _b) = pair();
        register(&a, rid(1), &mut 0);
        let mut ready = Vec::new();
        // The best of several tries: a loaded host may oversleep any one.
        let best = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                poller.wait(Duration::from_micros(200), &mut ready);
                t0.elapsed()
            })
            .min()
            .unwrap();
        assert!(ready.is_empty());
        assert!(best >= Duration::from_micros(200), "woke early: {best:?}");
        assert!(best < Duration::from_millis(1), "overslept: {best:?}");
    }

    #[test]
    fn deregistered_and_closed_sockets_are_neither_reported_nor_spun_on() {
        let poller = install();
        let (a, b) = pair();
        register(&b, rid(2), &mut 0);
        a.send_to(b"x", b.local_addr().unwrap()).unwrap();
        poller.deregister(rid(2));
        // A descriptor closed while registered: the kernel answers
        // POLLNVAL at once, on every call. (No real socket is closed here,
        // because a parallel test could be handed its number again.)
        poller.with(|p| {
            p.fds.push(PollFd {
                fd: i32::MAX,
                events: POLLIN,
                revents: 0,
            });
            p.keys.push(rid(3));
        });
        let mut ready = Vec::new();
        poller.wait(Duration::ZERO, &mut ready);
        assert!(ready.is_empty(), "reported {ready:?}");
        assert!(!poller.is_registered(rid(2)) && !poller.is_registered(rid(3)));
        // With the set empty again a wait lasts its whole timeout.
        let t0 = Instant::now();
        poller.wait(Duration::from_millis(2), &mut ready);
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn nothing_registers_without_a_current_poller() {
        let (a, _b) = pair();
        let mut seen = 0;
        register(&a, rid(1), &mut seen);
        assert_eq!(seen, 0);
        let poller = install();
        register(&a, rid(1), &mut seen);
        assert_ne!(seen, 0);
        drop(poller);
        // A later poller on this thread is a different one.
        let again = install();
        assert!(!again.is_registered(rid(1)));
        register(&a, rid(1), &mut seen);
        assert!(again.is_registered(rid(1)));
    }

    #[test]
    fn single_socket_wait_returns_when_readable() {
        let (a, b) = pair();
        a.send_to(b"x", b.local_addr().unwrap()).unwrap();
        let t0 = Instant::now();
        wait_readable(&b, Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
