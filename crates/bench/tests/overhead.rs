//! The overhead table's predictions (`results/tab_overhead.csv`, written by
//! `tab_state`) held against the code they predict: the fingerprints a
//! simulated round actually records, and the lengths of real sealed
//! control frames. Counts only, no timing, so this runs in a debug build.

use fatih_bench::{control_frame_lens, fingerprints_per_packet};
use fatih_core::monitor::{MonitorMode, PathOracle, SegmentMonitorSet};
use fatih_crypto::KeyStore;
use fatih_sim::{Network, SimTime};
use fatih_topology::{builtin, pik2_segments_from_paths, RouterId};

/// Packets the simulated round sends.
const N: u64 = 200;

#[test]
fn a_lossless_line6_round_records_the_predicted_fingerprints_per_packet() {
    for k in [1, 2] {
        let topo = builtin::line(6);
        let mut keys = KeyStore::with_seed(3);
        topo.routers().for_each(|r| keys.register(r.into()));
        let (src, dst) = (RouterId::from(0), RouterId::from(5));
        let mut net = Network::new(topo, 3);
        let routes = net.routes().clone();
        let path = routes.path(src, dst).expect("a line is connected");
        let segments = pik2_segments_from_paths([path], 6, k).all_segments();
        let oracle = PathOracle::from_routes(&routes);
        let mut monitors = SegmentMonitorSet::new(
            segments.into_iter().collect(),
            oracle,
            &keys,
            MonitorMode::EndsOnly,
            None,
        );
        let gap = SimTime::from_ms(1);
        net.add_cbr_flow(src, dst, 1000, gap, SimTime::ZERO, Some(gap * N));
        net.run_until(SimTime::from_secs(1), |ev| monitors.observe(ev));

        let truth = net.ground_truth();
        assert_eq!((truth.injected, truth.delivered), (N, N), "k={k}: lossless");
        let predicted = N as usize * fingerprints_per_packet(6, k);
        assert_eq!(monitors.held(), predicted, "k={k}");
    }
}

#[test]
fn a_digest_frame_is_constant_in_set_size_and_a_full_one_grows_per_entry() {
    // A summary is its record's columns: the first entry also opens a time
    // mark and a size run (8 B each); the entries after it, of one size
    // and within one 2³² ns mark, cost 12 B each.
    let [empty, one, two] = [0, 1, 2].map(|e| {
        control_frame_lens(e, 32)
            .0
            .expect("a summary of at most two entries fits a frame")
    });
    let per_entry = two - one;
    assert_eq!(one - empty, per_entry + 2 * 8);
    let (full_10, digest_10, ack) = control_frame_lens(10, 32);
    let (full_1k, digest_1k, _) = control_frame_lens(1_000, 32);
    let (full_10k, digest_10k, _) = control_frame_lens(10_000, 32);
    assert_eq!((digest_1k, digest_10k), (digest_10, digest_10));
    assert_eq!(
        full_1k.zip(full_10).map(|(a, b)| a - b),
        Some(990 * per_entry)
    );
    // 10 000 entries are past MAX_FRAME: a `Full` round that large cannot
    // be sent at all, while its digest is the same 717 bytes. The cliff is
    // at 5 407 entries.
    assert_eq!(full_10k, None);
    let cliff = [5_406, 5_407].map(|e| control_frame_lens(e, 32).0.is_some());
    assert_eq!(cliff, [true, false]);
    assert_eq!((empty, digest_10, per_entry, ack), (102, 717, 12, 64));
    // A round end sends that digest at a prefix of capacity 4: 28
    // evaluations fewer in each of its two sketches. The 717 bytes go out
    // only when the prefix cannot certify.
    let (_, prefix_10, _) = control_frame_lens(10, 4);
    assert_eq!((prefix_10, digest_10 - prefix_10), (269, 2 * 28 * 8));
}
