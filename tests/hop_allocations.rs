//! A forwarded hop allocates nothing: counted, not timed.
//!
//! A counting global allocator counts the allocations each thread makes.
//! `line(6)` runs over UDP on one shard, its transports wrapped so that the
//! shard thread's count is read at the end of every send and receive. The
//! span between two such calls is round work of one of three kinds:
//!
//! - the round end, a span that ends with a digest sent;
//! - the exchange, a span that begins or ends with a control frame
//!   received (a digest, resolved against the receiver's own, or an ack);
//! - the evaluation, a span in which a round's evaluation falls. It sends
//!   nothing, since the run is clean and responds to nothing; its deadline
//!   is the exchange budget after the round's first digest.
//!
//! Shard 0 also snapshots the registry once a round, 50 ms after the
//! round's evaluation deadline reckoned from the shard's epoch: a span in
//! which such an instant falls is a snapshot's. The epoch is read off the
//! data frames: a packet's creation time, in the shard's clock, cannot be
//! later than the send that carries it. A round snapshot is filled in
//! place, its names set before the epoch, and must allocate nothing.
//!
//! Every other span is the datapath: a data frame received, decoded,
//! tapped, fingerprinted, forwarded, encoded and sent, the shard's pass
//! around it, its waits and its flow ticks.
//!
//! The flow is paced, so every round carries as many packets. Once the
//! first rounds have grown every buffer to its working size, the datapath
//! must allocate nothing at all, over more than 10 000 delivered packets.
//! The round end and the evaluation allocate, and they must not grow with
//! the packets a round carries: at a quarter of the rate they do as much
//! per round. The exchange goes with what the two ends' records differ by
//! (a packet in flight at the round end adds a difference to resolve), not
//! with the packets of the round; it is printed. (A closed loop would not
//! do here: its rate drifts from round to round, and a round that holds
//! more records than any before it grows them once, between round ends.)

use fatih::crypto::KeyStore;
use fatih::net::runtime::{FlowSpec, LiveConfig, LiveDeployment, LiveSpec, SummaryMode};
use fatih::net::transport::{NetError, Transport, UdpNet};
use fatih::net::{codec, MsgType, WireMessage};
use fatih::topology::{builtin, RouterId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

struct Counting;

thread_local! {
    /// Allocations made by this thread so far (const-initialised, so
    /// reading it allocates nothing).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn counted() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is passed to `System` unchanged; counting touches a
// thread-local `Cell` only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const ROUNDS: usize = 8;
const TAU: Duration = Duration::from_secs(1);
const BUDGET: Duration = Duration::from_millis(300);
/// The datapath is measured once more than this many rounds have ended:
/// the records, the trace ring and the scratch buffers have grown by then.
const WARM_ROUNDS: usize = 2;
/// How far from its deadline, reckoned from the round's first digest, a
/// round's evaluation may start: that digest leaves after the first
/// router's round-end work, and a busy shard fires a timer late.
const EVAL_SLACK_NS: u64 = 50_000_000;
/// How long after a round's evaluation deadline, on the shard's clock,
/// shard 0 snapshots the registry.
const SNAPSHOT_LAG_NS: u64 = 50_000_000;
/// How far before its instant, as estimated, and after it a round
/// snapshot may run: the epoch is read a few microseconds late, and a
/// shard wakes for an entry on its schedule late.
const SNAPSHOT_EARLY_NS: u64 = 1_000_000;
const SNAPSHOT_LATE_NS: u64 = 5_000_000;

/// The kinds of round work, as indices into [`Ledger::round_work`].
const ROUND_END: usize = 0;
const EXCHANGE: usize = 1;
const EVALUATION: usize = 2;
const SNAPSHOT: usize = 3;

/// What a transport call was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    SendData,
    SendControl,
    RecvData,
    RecvControl,
    RecvEmpty,
}

/// The shard thread's accounts, kept where the test can read them once
/// the thread is gone.
#[derive(Debug)]
struct Ledger {
    /// The allocation count and instant (ns since `BASE`) at the end of
    /// the previous call, and what it was; `None` before the first.
    last: Option<(u64, u64, Call)>,
    /// Each round's end: the instant of its first digest.
    round_ends: [u64; ROUNDS],
    ended: usize,
    /// The shard's epoch, or a few microseconds after it: the earliest
    /// send of a data frame less the packet's creation time.
    epoch: u64,
    /// Allocations of round work — round end, exchange, evaluation, round
    /// snapshot — by the round whose end came last.
    round_work: [[u64; 4]; ROUNDS],
    /// Spans booked as a round snapshot's, by the same round.
    snapshot_spans: [u64; ROUNDS],
    /// Datapath allocations after the warm-up rounds, and the packets
    /// delivered meanwhile.
    datapath: u64,
    delivered: u64,
}

impl Ledger {
    const fn new() -> Self {
        Self {
            last: None,
            round_ends: [0; ROUNDS],
            ended: 0,
            epoch: u64::MAX,
            round_work: [[0; 4]; ROUNDS],
            snapshot_spans: [0; ROUNDS],
            datapath: 0,
            delivered: 0,
        }
    }

    /// Books the span that `call`, ending at `t`, closes; a data frame
    /// sent brings the creation time of its packet, `created_ns`.
    fn book(&mut self, call: Call, t: u64, at_sink: bool, created_ns: Option<u64>) {
        let count = ALLOCATIONS.with(Cell::get);
        if let Some(created) = created_ns {
            self.epoch = self.epoch.min(t.saturating_sub(created));
        }
        let Some((last_count, last_t, prev)) = self.last.replace((count, t, call)) else {
            return;
        };
        let tau = TAU.as_nanos() as u64;
        if call == Call::SendControl
            && self.ended < ROUNDS
            && (self.ended == 0 || t > self.round_ends[self.ended - 1] + tau / 2)
        {
            self.round_ends[self.ended] = t;
            self.ended += 1;
        }
        if self.ended == 0 {
            return; // the first round: everything is still growing
        }
        let budget = BUDGET.as_nanos() as u64;
        let snapshots = (1..=self.ended as u64).any(|round| {
            let at = (self.epoch).saturating_add(round * tau + budget + SNAPSHOT_LAG_NS);
            last_t < at.saturating_add(SNAPSHOT_LATE_NS) && t + SNAPSHOT_EARLY_NS > at
        });
        let evaluates = self.round_ends[..self.ended].iter().any(|&end| {
            let due = end + budget;
            last_t < due + EVAL_SLACK_NS && t + EVAL_SLACK_NS > due
        });
        let kind = if snapshots {
            self.snapshot_spans[self.ended - 1] += 1;
            Some(SNAPSHOT)
        } else if evaluates {
            Some(EVALUATION)
        } else if prev == Call::RecvControl || call == Call::RecvControl {
            Some(EXCHANGE)
        } else if call == Call::SendControl {
            Some(ROUND_END)
        } else {
            None
        };
        let spent = count - last_count;
        let measured = self.ended > WARM_ROUNDS && self.ended < ROUNDS;
        match kind {
            Some(kind) => self.round_work[self.ended - 1][kind] += spent,
            None if measured => self.datapath += spent,
            None => {}
        }
        if measured && at_sink && call == Call::RecvData {
            self.delivered += 1;
        }
    }
}

static LEDGER: Mutex<Ledger> = Mutex::new(Ledger::new());
static BASE: OnceLock<Instant> = OnceLock::new();

/// A UDP endpoint that books every call it forwards.
struct Booked {
    inner: UdpNet,
    at_sink: bool,
    /// Reads data frames, which carry no seal: no key is needed.
    keys: KeyStore,
}

impl Booked {
    fn book(&self, call: Call, created_ns: Option<u64>) {
        let t = BASE.get().expect("base instant").elapsed().as_nanos() as u64;
        LEDGER
            .lock()
            .unwrap()
            .book(call, t, self.at_sink, created_ns);
    }
}

fn kind(frame: &[u8]) -> (Call, Call) {
    match codec::peek_type(frame) {
        Some(MsgType::Data) => (Call::SendData, Call::RecvData),
        _ => (Call::SendControl, Call::RecvControl),
    }
}

impl Transport for Booked {
    fn local(&self) -> RouterId {
        self.inner.local()
    }

    fn send(&mut self, dst: RouterId, frame: &[u8]) -> Result<(), NetError> {
        let sent = self.inner.send(dst, frame);
        let created = match codec::decode_frame(frame, &self.keys) {
            Ok(codec::Frame {
                msg: WireMessage::Data { packet, .. },
                ..
            }) => Some(packet.created_at.as_ns()),
            _ => None,
        };
        self.book(kind(frame).0, created);
        sent
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        self.inner.try_recv()
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<usize>, NetError> {
        let got = self.inner.recv_into(buf);
        let call = match got {
            Ok(Some(n)) => kind(&buf[..n]).1,
            _ => Call::RecvEmpty,
        };
        self.book(call, None);
        got
    }
}

/// Runs the line with its one flow injecting every `interval`, and
/// returns the shard thread's ledger.
fn run(interval: Duration) -> Ledger {
    BASE.get_or_init(Instant::now);
    *LEDGER.lock().unwrap() = Ledger::new();
    let topo = builtin::line(6);
    let ids: Vec<RouterId> = topo.routers().collect();
    let spec = LiveSpec {
        flows: vec![FlowSpec::new(ids[0], ids[5], 1000, interval)],
        ..LiveSpec::default()
    };
    let cfg = LiveConfig {
        k: 1,
        tau: TAU,
        exchange_budget: BUDGET,
        maturity_lag: Duration::from_millis(60),
        rounds: ROUNDS as u64,
        shards: 1,
        summary: SummaryMode::Reconcile { capacity: 32 },
        response: false,
        ..LiveConfig::default()
    };
    let transports: Vec<Booked> = UdpNet::bind_group(&ids)
        .expect("bind loopback sockets")
        .into_iter()
        .map(|inner| Booked {
            at_sink: inner.local() == ids[5],
            inner,
            keys: KeyStore::with_seed(0),
        })
        .collect();
    let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);
    assert!(outcome.suspicions.is_empty(), "{:?}", outcome.suspicions);
    std::mem::replace(&mut *LEDGER.lock().unwrap(), Ledger::new())
}

#[test]
fn a_forwarded_hop_allocates_nothing_between_round_ends() {
    // The median round's round end and evaluation, over the rounds whose
    // datapath was measured.
    let per_round = |l: &Ledger| {
        let mut work: Vec<u64> = (l.round_work[WARM_ROUNDS..ROUNDS - 1].iter())
            .map(|w| w[ROUND_END] + w[EVALUATION])
            .collect();
        work.sort_unstable();
        work[work.len() / 2]
    };
    let mut runs = vec![];
    for interval in [250, 1_000] {
        let ledger = run(Duration::from_micros(interval));
        eprintln!(
            "a packet every {interval} µs: {} datapath allocations for {} packets; \
             round end, exchange, evaluation and snapshot by round {:?} \
             (snapshot spans {:?})",
            ledger.datapath, ledger.delivered, ledger.round_work, ledger.snapshot_spans
        );
        assert_eq!(ledger.ended, ROUNDS, "every round ended");
        assert_eq!(
            ledger.datapath, 0,
            "{} allocations on the datapath for {} delivered packets",
            ledger.datapath, ledger.delivered
        );
        // A round snapshot was found in every measured round, and filled
        // its snapshot in place.
        let measured = WARM_ROUNDS..ROUNDS - 1;
        assert!(
            ledger.snapshot_spans[measured.clone()]
                .iter()
                .all(|&n| n > 0),
            "a round snapshot missed: {:?}",
            ledger.snapshot_spans
        );
        let snapshot_work: Vec<u64> = (ledger.round_work[measured].iter())
            .map(|w| w[SNAPSHOT])
            .collect();
        assert!(
            snapshot_work.iter().all(|&n| n == 0),
            "round snapshots allocated {snapshot_work:?}"
        );
        runs.push(ledger);
    }
    assert!(
        runs[0].delivered >= 10_000,
        "only {} packets measured",
        runs[0].delivered
    );
    let (many, few) = (per_round(&runs[0]), per_round(&runs[1]));
    assert!(
        many <= few + few / 10,
        "round work grew with the packets: {many} allocations a round, \
         {few} at a quarter of the rate"
    );
}
