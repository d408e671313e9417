//! What a segment end's record costs in bytes, counted, not timed.
//!
//! A router's Πk+2 record keeps each entry's fingerprint and the low word
//! of its nanosecond time in columns, and its sizes and high time words as
//! runs (DESIGN.md "Sliding-window records"). Fed packets of one size, it
//! must hold 12 bytes an entry and a constant, over a span of time that
//! crosses 2³² ns twice; the registry's `monitor.held_bytes_max` must read
//! that peak, taken before a prune drops anything.

use fatih::crypto::KeyStore;
use fatih::obs::MetricsRegistry;
use fatih::protocols::monitor::{MonitorMetrics, MonitorPlan, PathOracle, SegmentMonitorSet};
use fatih::sim::{FlowId, Packet, PacketId, PacketKind, SimTime, TapEvent};
use fatih::topology::{builtin, RouterId};

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

/// `n` packets of 1 000 bytes forwarded by router 0, `gap_ns` apart from
/// `start_ns`.
fn forwarded(ids: &[RouterId], n: u64, start_ns: u64, gap_ns: u64) -> Vec<TapEvent> {
    (0..n)
        .map(|i| TapEvent::Enqueued {
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
            time: SimTime::from_ns(start_ns + i * gap_ns),
            queue_len_after: 0,
        })
        .collect()
}

#[test]
fn a_one_size_record_holds_twelve_bytes_an_entry() {
    const N: u64 = 20_000;
    // Three high words (two crossings of 2³² ns), one size: two marks more
    // than the first, one run.
    const SLACK: usize = 64;
    let reg = MetricsRegistry::new();
    let (ids, mut set) = upstream_end(&reg);
    // From 2 s before the first boundary to 6.6 s after it.
    let start = (1 << 32) - 2_000_000_000;
    let events = forwarded(&ids, N, start, 430_000);
    for batch in events.chunks(64) {
        set.observe_batch(batch);
    }
    assert_eq!(set.held(), N as usize);
    let bytes = set.held_bytes();
    println!("{N} one-size entries held in {bytes} B");
    assert!(
        bytes <= 12 * N as usize + SLACK,
        "{bytes} B for {N} entries: more than 12 B an entry"
    );

    // The gauge keeps the peak; the entry gauge reads after the prune.
    set.prune(SimTime::from_ns(start + N / 2 * 430_000));
    let snap = reg.snapshot();
    assert_eq!(snap.gauge("monitor.held_bytes_max"), bytes as f64);
    assert_eq!(snap.gauge("monitor.entries_held_max"), (N / 2 - 1) as f64);
    assert!(set.held_bytes() <= 12 * set.held() + SLACK);
}
