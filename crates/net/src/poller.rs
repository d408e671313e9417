//! Readiness waiting for the shard loop — the one module of the
//! workspace that may contain `unsafe`.
//!
//! `std` has no way to wait on several sockets at once, so this module
//! declares `epoll(7)` itself (there is no `libc` crate offline). A worker
//! owns one `epoll` instance: a wait costs what the *ready* sockets cost,
//! not what the registered ones do. `ppoll` over a shard's descriptor
//! array made the kernel walk all of them on every call: 7.5 µs per call
//! with one of 128 UDP sockets ready, against 0.35 µs for `epoll_pwait2`
//! (DESIGN.md, "The readiness loop", has the measurement). `epoll_pwait2`
//! rather than `epoll_wait` for its nanosecond `timespec` timeout: a
//! millisecond one would make 4 ms flow ticks late. It needs Linux ≥ 5.11
//! and glibc ≥ 2.35.
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
use std::collections::HashMap;
use std::marker::PhantomData;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Most readiness events one wait reports. More ready sockets than this
/// are reported by the next waits: readiness is level-triggered, and the
/// kernel moves a reported socket to the back of its ready list.
const EVENTS: usize = 64;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::time::Duration;

    const EPOLL_CLOEXEC: c_int = 0o2_000_000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const POLLIN: i16 = 0x001;
    const EEXIST: i32 = 17;

    /// `struct timespec` of the 64-bit Linux ABIs.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    impl Timespec {
        fn of(d: Duration) -> Self {
            Timespec {
                tv_sec: i64::try_from(d.as_secs()).unwrap_or(i64::MAX),
                tv_nsec: i64::from(d.subsec_nanos()),
            }
        }
    }

    /// `struct epoll_event`: packed on x86_64 only, where the kernel ABI
    /// inherited the i386 layout.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_pwait2(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// One `epoll` instance, closed on drop.
    pub(super) struct Epoll {
        fd: OwnedFd,
        events: Vec<EpollEvent>,
    }

    impl Epoll {
        /// A fresh, empty instance; `None` if the kernel refuses one.
        pub(super) fn new() -> Option<Epoll> {
            // SAFETY: takes no pointers.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return None;
            }
            // SAFETY: a non-negative result is a new descriptor nobody
            // else owns, so `OwnedFd` may close it.
            let fd = unsafe { OwnedFd::from_raw_fd(fd) };
            Some(Epoll {
                fd,
                events: vec![EpollEvent { events: 0, data: 0 }; super::EVENTS],
            })
        }

        fn ctl(&self, op: c_int, fd: i32, key: u64) -> std::io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: key,
            };
            // SAFETY: `ev` lives across the call and is only read (the
            // kernel ignores it for a delete); no pointer outlives it.
            match unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) } {
                0 => Ok(()),
                _ => Err(std::io::Error::last_os_error()),
            }
        }

        /// Adds `socket`, level-triggered, reporting `key`, and returns
        /// its descriptor. A socket the set already holds is re-keyed.
        pub(super) fn add(&self, socket: &std::net::UdpSocket, key: u64) -> Option<i32> {
            let fd = socket.as_raw_fd();
            match self.ctl(EPOLL_CTL_ADD, fd, key) {
                Err(e) if e.raw_os_error() == Some(EEXIST) => {
                    self.ctl(EPOLL_CTL_MOD, fd, key).ok()?
                }
                r => r.ok()?,
            }
            Some(fd)
        }

        /// Removes `fd`; one already gone (closed) is no error.
        pub(super) fn del(&self, fd: i32) {
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0);
        }

        /// Blocks until a registered descriptor is readable or `timeout`
        /// elapsed, hands the key of each readable one to `ready`, and
        /// returns how many there were.
        pub(super) fn wait(&mut self, timeout: Duration, mut ready: impl FnMut(u64)) -> usize {
            let ts = Timespec::of(timeout);
            // SAFETY: `events` is an exclusively borrowed buffer of
            // `#[repr(C)]` structs laid out as `struct epoll_event`, and
            // its own length is the count passed, so the kernel writes
            // inside it only; `ts` lives across the call and is only read;
            // a null signal mask leaves the mask alone. No pointer
            // outlives the call.
            let n = unsafe {
                epoll_pwait2(
                    self.fd.as_raw_fd(),
                    self.events.as_mut_ptr(),
                    self.events.len() as c_int,
                    &ts,
                    std::ptr::null(),
                )
            };
            // An interrupted or failed wait reports nothing ready.
            let n = usize::try_from(n).unwrap_or(0);
            for ev in &self.events[..n] {
                ready(ev.data);
            }
            n
        }
    }

    /// Waits up to `timeout` for `socket` alone to become readable.
    pub(super) fn wait_readable(socket: &std::net::UdpSocket, timeout: Duration) {
        let mut one = PollFd {
            fd: socket.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec::of(timeout);
        // SAFETY: `one` is a single exclusively borrowed `struct pollfd`
        // and the count passed is 1; `ts` lives across the call and is
        // only read; a null signal mask is allowed. No pointer outlives
        // the call.
        unsafe { ppoll(&mut one, 1, &ts, std::ptr::null()) };
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    use std::time::Duration;

    /// Nothing can be waited on here, so there is never an instance.
    pub(super) enum Epoll {}

    impl Epoll {
        pub(super) fn new() -> Option<Epoll> {
            None
        }

        pub(super) fn add(&self, _: &std::net::UdpSocket, _: u64) -> Option<i32> {
            match *self {}
        }

        pub(super) fn del(&self, _: i32) {
            match *self {}
        }

        pub(super) fn wait(&mut self, _: Duration, _: impl FnMut(u64)) -> usize {
            match *self {}
        }
    }

    pub(super) fn wait_readable(_: &std::net::UdpSocket, timeout: Duration) {
        std::thread::sleep(timeout.min(Duration::from_micros(500)));
    }
}

/// The descriptors one worker thread waits on, each keyed by the router
/// whose endpoint it is.
struct Poller {
    id: u64,
    epoll: Option<sys::Epoll>,
    /// Descriptor → key of every socket registered and not deregistered.
    keys: HashMap<i32, RouterId>,
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
        epoll: sys::Epoll::new(),
        keys: HashMap::new(),
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
    /// told about. A closed socket leaves the set by itself, unreported.
    ///
    /// Returns whether the thread slept: a wait with a timeout looks
    /// without blocking first, and blocks only if nothing was ready.
    pub(crate) fn wait(&self, timeout: Duration, ready: &mut Vec<RouterId>) -> bool {
        let mut push = |key: u64| ready.push(RouterId::from(key as u32));
        self.with(|p| match &mut p.epoll {
            _ if p.keys.is_empty() && timeout.is_zero() => false,
            Some(epoll) => {
                // What is ready already is taken without sleeping.
                let found = epoll.wait(Duration::ZERO, &mut push);
                if found > 0 || timeout.is_zero() {
                    return false;
                }
                epoll.wait(timeout, push);
                true
            }
            // Nothing can be waited on: sleep a short while and let the
            // caller sweep again.
            None => {
                std::thread::sleep(timeout.min(Duration::from_micros(500)));
                true
            }
        })
    }

    /// Whether a socket keyed `key` is in the set.
    pub(crate) fn is_registered(&self, key: RouterId) -> bool {
        self.with(|p| p.keys.values().any(|k| *k == key))
    }

    /// Removes the socket keyed `key`, if present.
    pub(crate) fn deregister(&self, key: RouterId) {
        self.with(|p| {
            let Some(fd) = p.keys.iter().find(|(_, k)| **k == key).map(|(fd, _)| *fd) else {
                return;
            };
            p.keys.remove(&fd);
            if let Some(epoll) = &p.epoll {
                epoll.del(fd);
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
        let Some(fd) = p
            .epoll
            .as_ref()
            .and_then(|e| e.add(socket, key.index() as u64))
        else {
            return;
        };
        *seen = p.id;
        // A descriptor number met again belongs to a new socket (the old
        // one was closed, or it could not have been reissued): it replaces
        // the old key.
        p.keys.insert(fd, key);
    })
}

/// Waits up to `timeout` for `socket` alone to become readable. May return
/// early or spuriously; the caller tries a receive and checks its clock.
pub(crate) fn wait_readable(socket: &UdpSocket, timeout: Duration) {
    sys::wait_readable(socket, timeout);
}

#[cfg(all(test, target_os = "linux", target_pointer_width = "64"))]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::os::fd::AsRawFd;
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
    fn epoll_event_has_the_kernel_layout() {
        let expected = if cfg!(target_arch = "x86_64") { 12 } else { 16 };
        assert_eq!(std::mem::size_of::<sys::EpollEvent>(), expected);
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
        let c = UdpSocket::bind("127.0.0.1:0").unwrap();
        register(&b, rid(2), &mut 0);
        register(&c, rid(3), &mut 0);
        a.send_to(b"x", b.local_addr().unwrap()).unwrap();
        a.send_to(b"x", c.local_addr().unwrap()).unwrap();
        poller.deregister(rid(2));
        assert!(!poller.is_registered(rid(2)));
        // Closed while registered and readable: the kernel drops it from
        // the interest list, whoever is handed its number next.
        drop(c);
        let mut ready = Vec::new();
        poller.wait(Duration::ZERO, &mut ready);
        assert!(ready.is_empty(), "reported {ready:?}");
        // With nothing left to report a wait lasts its whole timeout.
        let t0 = Instant::now();
        poller.wait(Duration::from_millis(2), &mut ready);
        assert!(t0.elapsed() >= Duration::from_millis(2));
        assert!(ready.is_empty(), "reported {ready:?}");
    }

    #[test]
    fn a_reused_descriptor_number_registers_under_its_new_key() {
        let poller = install();
        let (a, old) = pair();
        register(&old, rid(1), &mut 0);
        let fd = old.as_raw_fd();
        drop(old);
        // The lowest free number is handed out next, unless a parallel
        // test takes it first: then wait for that one to let it go.
        let new = (0..1000)
            .find_map(|_| {
                let s = UdpSocket::bind("127.0.0.1:0").unwrap();
                if s.as_raw_fd() == fd {
                    return Some(s);
                }
                drop(s);
                std::thread::sleep(Duration::from_millis(1));
                None
            })
            .expect("descriptor number reissued");
        register(&new, rid(2), &mut 0);
        assert!(poller.is_registered(rid(2)) && !poller.is_registered(rid(1)));
        a.send_to(b"x", new.local_addr().unwrap()).unwrap();
        let mut ready = Vec::new();
        poller.wait(Duration::from_millis(500), &mut ready);
        assert_eq!(ready, vec![rid(2)]);

        // The same socket registered afresh (the set already holds it) is
        // re-keyed, not added twice.
        register(&new, rid(3), &mut 0);
        ready.clear();
        poller.wait(Duration::from_millis(500), &mut ready);
        assert_eq!(ready, vec![rid(3)]);
    }

    #[test]
    fn more_ready_sockets_than_one_wait_reports_are_all_reported() {
        let poller = install();
        let n = 2 * EVENTS + 5;
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let rx: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
            .collect();
        for (i, s) in rx.iter().enumerate() {
            register(s, rid(i as u32), &mut 0);
            tx.send_to(b"x", s.local_addr().unwrap()).unwrap();
        }
        // Nothing is drained: level-triggered readiness must still get to
        // every socket within ⌈n / EVENTS⌉ waits.
        let mut reported = HashSet::new();
        for _ in 0..n.div_ceil(EVENTS) {
            let mut ready = Vec::new();
            poller.wait(Duration::from_millis(500), &mut ready);
            assert!(ready.len() <= EVENTS);
            reported.extend(ready);
        }
        assert_eq!(reported.len(), n);
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
