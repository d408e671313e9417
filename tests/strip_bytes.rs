//! What a streamed segment end's record costs in bytes, counted, not
//! timed.
//!
//! Under `SummaryMode::Reconcile` a router's record keeps running digests
//! of each round and holds exactly only the look-back strips and the tail
//! of the round not yet evaluated (DESIGN.md "Streamed digests and strip
//! records"). Fed packets of one size at a steady rate, its peak — the
//! registry's `monitor.held_bytes_max`, taken before each retirement — must
//! be 12 bytes an entry of three lags of traffic plus the running digests,
//! against a whole record's round plus look-back and budget.

use fatih::crypto::KeyStore;
use fatih::obs::MetricsRegistry;
use fatih::protocols::monitor::{MonitorMetrics, MonitorPlan, PathOracle, SegmentMonitorSet};
use fatih::protocols::rounds::Window;
use fatih::sim::{FlowId, Packet, PacketId, PacketKind, SimTime, TapEvent};
use fatih::topology::{builtin, RouterId};

const TAU_NS: u64 = 1_000_000_000;
const LAG_NS: u64 = 60_000_000;
const BUDGET_NS: u64 = 300_000_000;
/// One packet every 100 µs: 10 000 a round.
const GAP_NS: u64 = 100_000;
const CAPACITY: usize = 32;

/// Router 0's own record of the one segment ⟨0, 1, 2⟩ on a 3-line, with
/// its metrics registered in `reg`.
fn upstream_end(reg: &MetricsRegistry) -> (Vec<RouterId>, SegmentMonitorSet) {
    let topo = builtin::line(3);
    let ids: Vec<RouterId> = topo.routers().collect();
    let path = (topo.link_state_routes().path(ids[0], ids[2])).expect("a line is connected");
    let segments = fatih::topology::pik2_segments_from_paths([path.clone()], 3, 1)
        .all_segments()
        .into_iter()
        .collect();
    let mut keys = KeyStore::with_seed(11);
    for &id in &ids {
        keys.register(id.into());
    }
    let plan = MonitorPlan::new(segments, PathOracle::from_paths([path]), &keys);
    let mut set = SegmentMonitorSet::for_router(&plan, ids[0]);
    set.attach_metrics(MonitorMetrics::registered(reg));
    (ids, set)
}

/// Packet `i`, 1 000 bytes long, as router 0 forwards it `i` gaps in.
fn forwarded(ids: &[RouterId], i: u64) -> TapEvent {
    TapEvent::Enqueued {
        router: ids[0],
        next_hop: ids[1],
        packet: Packet {
            id: PacketId(i),
            src: ids[0],
            dst: ids[2],
            flow: FlowId(0),
            kind: PacketKind::Data,
            size: 1000,
            seq: i,
            payload_tag: Packet::expected_tag(PacketId(i)),
            ttl: Packet::DEFAULT_TTL,
            created_at: SimTime::ZERO,
        },
        time: SimTime::from_ns(i * GAP_NS),
        queue_len_after: 0,
    }
}

/// Runs `rounds` rounds over `set`: observed up to each round's close,
/// closed, observed up to its evaluation, retired. Returns the most bytes
/// it held before a retirement.
fn run(ids: &[RouterId], set: &mut SegmentMonitorSet, rounds: u64) -> usize {
    let (tau, lag) = (SimTime::from_ns(TAU_NS), SimTime::from_ns(LAG_NS));
    let mut next = 1;
    let mut feed = |set: &mut SegmentMonitorSet, until_ns: u64| {
        let batch: Vec<TapEvent> = (next..=until_ns / GAP_NS)
            .map(|i| forwarded(ids, i))
            .collect();
        next = until_ns / GAP_NS + 1;
        for chunk in batch.chunks(128) {
            set.observe_batch(chunk);
        }
    };
    let mut peak = 0;
    for r in 0..rounds {
        let close = (r + 1) * TAU_NS;
        feed(set, close);
        set.closed(r);
        feed(set, close + BUDGET_NS);
        peak = peak.max(set.held_bytes());
        set.retire(r, Window::of_round(r, tau, lag));
    }
    peak
}

#[test]
fn a_streamed_record_holds_three_lags_of_traffic_and_its_digests() {
    const ROUNDS: u64 = 5;
    // At round r's evaluation: the strips of rounds r − 1 and r and the
    // tail of round r, 600 entries each, edges included.
    const HELD: usize = 3 * (LAG_NS / GAP_NS) as usize + 2;
    // Up to three rounds of (judged, strip) digests, each 34 evaluations,
    // a flow counter, a size and a checksum; and a few marks and runs.
    const DIGESTS: usize = 3 * 2 * ((CAPACITY + 2) * 8 + 32);
    const SLACK: usize = 64;
    let reg = MetricsRegistry::new();
    let (ids, mut streamed) = upstream_end(&reg);
    let (tau, lag) = (SimTime::from_ns(TAU_NS), SimTime::from_ns(LAG_NS));
    streamed.stream(tau, lag, CAPACITY);
    let peak = run(&ids, &mut streamed, ROUNDS);
    println!("streamed record: peak {peak} B");
    assert!(
        peak <= 12 * HELD + DIGESTS + SLACK,
        "{peak} B: more than 12 B an entry of three lags and the digests"
    );
    let gauge = reg.snapshot().gauge("monitor.held_bytes_max");
    assert_eq!(gauge, peak as f64, "the gauge reads the peak");

    // The whole record of the same traffic holds a round, its look-back
    // and the budget, 1.42 s of traffic to the strips' 0.18 s.
    let (_, mut whole) = upstream_end(&MetricsRegistry::new());
    let whole_peak = run(&ids, &mut whole, ROUNDS);
    println!("whole record: peak {whole_peak} B");
    assert!(
        peak * 7 < whole_peak,
        "streamed {peak} B against whole {whole_peak} B"
    );
}
