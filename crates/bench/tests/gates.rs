//! The release gates: the throughput floors and live-deployment verdicts
//! the repository holds itself to, each asserted on fixed inputs.
//!
//! * **Codec** — Data frames (the forwarding fast path, no MAC) and
//!   HMAC-sealed 16-entry summaries (the control plane) round-trip through
//!   `encode_frame` / `decode_frame` fast enough that neither competes with
//!   forwarding, measured against plain encodes of the same frames.
//! * **Validation fast path** — the 4-lane fingerprint kernel against the
//!   scalar Horner baseline on MTU-sized packets, and the Abilene pipeline
//!   batched ingest → per-end reports → content summaries → `tv_content`
//!   against a scalar-fingerprint pass over the same tape.
//! * **Scale** — Πk+2 over real UDP loopback sockets on Sprintlink-shaped
//!   graphs ([`rocketfuel_like`]): no false accusation in `Full` or
//!   `Reconcile` mode, reconciled control bytes at most half of full
//!   transfer, and a mid-path dropper caught, detection only.
//! * **Response and churn** — with the §2.4.3 response on, a dropper is
//!   convicted, every router reconverges and delivery recovers; pure churn
//!   and a crash-restart accuse nobody.
//!
//! fatihbench (`benchmark/`) measures; these tests only assert. Run them
//! with `cargo test --release -p fatih-bench --test gates -- --nocapture`,
//! which prints each measured value. The throughput gates are ratios of
//! two rates measured in one process on one input, each the best of
//! [`TRIES`] interleaved passes, so the host's speed cancels; their
//! absolute rates are printed beside them. They are wall-clock gates that
//! hold only in an optimised build, so a debug build skips each one, its
//! `ignore` reason giving the debug reading where a debug run fails.
//! Every test takes [`serial`] first: no two measure at once, whatever the
//! harness's thread count.
//!
//! The five live-deployment verdicts (scale, response and churn) are
//! pinned on virtual time: the workspace root's
//! `tests/conviction_recovery.rs` and `tests/verdict_gates.rs` deploy the
//! same scenarios (`fatih_bench::scenario` and its siblings) on `SimHost`
//! in Tier-1, in a debug build, with every assertion and floor of the
//! tests here. Over UDP a round is wall-clock time, and a host under load
//! reads as loss: the conviction gate here read recovery 0.918–0.985
//! against its 0.99 floor in 4 of 20 consecutive release runs of this
//! target, and the floor stays. So the UDP runs here are the `live-net`
//! CI job's liveness smoke tests — sockets, shards and the wall clock
//! carrying the protocol whose verdicts the twins pin.

use fatih_bench::{
    add_dropper, churn, churn_cfg, churn_scenario, detect_only, scenario, ATTACK_ROUND,
    CHURN_FLOW_SEED, GATE_ROUTERS, RECONCILE, SCALE_FLOW_SEED,
};
use fatih_core::monitor::{
    MonitorMetrics, MonitorMode, PathOracle, Report, ReportEntry, SegmentMonitorSet,
};
use fatih_core::pik2::{Evidence, Message};
use fatih_core::spec::SpecCheck;
use fatih_core::wire::WireEncoder;
use fatih_crypto::{Fingerprint, KeyStore, UhashKey};
use fatih_net::codec::{decode_frame, encode_frame, Frame, WireMessage};
use fatih_net::runtime::{
    ChurnAction, LiveConfig, LiveDeployment, LiveOutcome, LiveSpec, SummaryMode,
};
use fatih_net::UdpNet;
use fatih_obs::MetricsRegistry;
use fatih_sim::{FlowId, Packet, PacketId, PacketKind, SimTime, TapEvent};
use fatih_topology::{builtin, Path, PathSegment, RouterId, Topology};
use fatih_validation::tv_content;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Holds the gate lock for the caller's lifetime. A gate that failed
/// poisons it; the next one measures all the same.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one live deployment over freshly bound UDP loopback sockets.
fn deploy(topo: &Topology, spec: &LiveSpec, cfg: &LiveConfig) -> LiveOutcome {
    let ids: Vec<RouterId> = topo.routers().collect();
    let transports = UdpNet::bind_group(&ids).expect("bind loopback sockets");
    LiveDeployment::run(topo, spec, cfg, transports)
}

/// Whether `outcome`'s verdicts catch `dropper` (complete) without
/// suspecting a segment of correct routers only (accurate).
fn complete_and_accurate(outcome: &LiveOutcome, dropper: RouterId, k: usize) -> (bool, bool) {
    let faulty: BTreeSet<RouterId> = [dropper].into_iter().collect();
    let check = SpecCheck::evaluate(&outcome.suspicions, &faulty);
    (check.is_complete(), check.is_accurate(k + 2))
}

// ---------------------------------------------------------------- codec

/// Floor on Data-frame encode+decode round trips per second, as a share
/// of encodes alone of the same frames, in the same process: decoding a
/// forwarded frame costs no more than encoding it again. 20 release runs
/// read 0.536–0.648; decoding every frame twice reads 0.405–0.439.
const CODEC_FLOOR: f64 = 0.5;

/// Floor on sealed-summary round trips per second, as a share of unsealed
/// encodes of the same summaries, in the same process: the HMAC seal and
/// its constant-time check, and the decode, stay within that cost, so
/// round bookkeeping never competes with forwarding. 20 release runs read
/// 0.023–0.036; sealing and decoding every frame twice reads 0.012–0.018.
const CONTROL_FLOOR: f64 = 0.02;

fn rid(v: u32) -> RouterId {
    RouterId::from(v)
}

fn data_frame(i: u64) -> Frame {
    let id = PacketId(i + 1);
    Frame {
        src: rid(0),
        dst: rid(1),
        seq: i,
        msg: WireMessage::Data {
            packet: Packet {
                id,
                src: rid(0),
                dst: rid(1),
                flow: FlowId(0),
                kind: PacketKind::Data,
                size: 1000,
                seq: i,
                payload_tag: Packet::expected_tag(id),
                ttl: 64,
                created_at: SimTime::from_ns(i * 1000),
            },
            epoch: 0,
        },
    }
}

fn summary_frame(i: u64) -> Frame {
    let entries = (0..16)
        .map(|j| ReportEntry {
            fingerprint: Fingerprint::new(i ^ j),
            size: 1000,
            time: SimTime::from_ns(j * 500),
        })
        .collect();
    Frame {
        src: rid(0),
        dst: rid(1),
        seq: i,
        msg: WireMessage::Pik2(Message {
            round: i,
            segment: PathSegment::new(vec![rid(0), rid(1)]),
            evidence: Evidence::Summary(Report { entries }),
        }),
    }
}

/// Timed passes of each side of a ratio gate: each side is its best pass,
/// so a pass the host preempted does not count.
const TRIES: usize = 5;

/// The best of `tries` pairs of rates from `measure`, side by side,
/// interleaved so that a slow spell of the host reaches both sides.
fn best_of(tries: usize, mut measure: impl FnMut() -> (f64, f64)) -> (f64, f64) {
    (0..tries)
        .map(|_| measure())
        .fold((0.0, 0.0), |(a, b), (x, y)| (a.max(x), b.max(y)))
}

/// Encode+decode round trips per second for frames from `make`.
fn codec_rate(make: impl Fn(u64) -> Frame, iters: u64, ks: &KeyStore) -> f64 {
    // Warm up, and keep a checksum live so nothing is optimized away.
    let mut sink = 0u64;
    for i in 0..iters.min(1000) {
        sink ^= encode_frame(&make(i), ks).expect("encodable").len() as u64;
    }
    let start = Instant::now();
    for i in 0..iters {
        let bytes = encode_frame(&make(i), ks).expect("encodable");
        sink ^= decode_frame(&bytes, ks).expect("decodable").seq;
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(sink != u64::MAX, "keep the checksum live");
    iters as f64 / secs
}

/// Unsealed encodes per second of the frames from `make`: the frame as
/// [`encode_frame`] writes it for a Data frame, and a summary's message as
/// its frame carries it, with no header or MAC.
fn encode_rate(make: impl Fn(u64) -> Frame, iters: u64, ks: &KeyStore) -> f64 {
    let mut sink = 0u64;
    let start = Instant::now();
    for i in 0..iters {
        let frame = make(i);
        sink ^= match &frame.msg {
            WireMessage::Pik2(message) => {
                let mut e = WireEncoder::new();
                message.encode_into(&mut e);
                e.into_bytes().len() as u64
            }
            _ => encode_frame(&frame, ks).expect("encodable").len() as u64,
        };
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(sink != u64::MAX, "keep the checksum live");
    iters as f64 / secs
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only wall-clock ratio (debug: Data frames 0.40× their encodes)"
)]
fn codec_round_trips_data_and_sealed_summaries_above_their_floors() {
    let _serial = serial();
    let mut ks = KeyStore::with_seed(0xBE7C);
    ks.register(0);
    ks.register(1);
    encode_rate(summary_frame, 1_000, &ks); // warm-up
    let (data, data_encode) = best_of(TRIES, || {
        let round_trips = codec_rate(data_frame, 50_000, &ks);
        (round_trips, encode_rate(data_frame, 50_000, &ks))
    });
    let (sealed, unsealed) = best_of(TRIES, || {
        let round_trips = codec_rate(summary_frame, 10_000, &ks);
        (round_trips, encode_rate(summary_frame, 10_000, &ks))
    });
    let (data_ratio, sealed_ratio) = (data / data_encode, sealed / unsealed);
    println!(
        "codec: Data {data:.0} msgs/s ({data_ratio:.3}× {data_encode:.0} encodes/s), sealed \
         16-entry summary {sealed:.0} msgs/s ({sealed_ratio:.3}× {unsealed:.0} unsealed encodes/s)"
    );
    assert!(
        data_ratio >= CODEC_FLOOR,
        "Data-frame codec is {data_ratio:.3}× its encodes, below the {CODEC_FLOOR}× floor"
    );
    assert!(
        sealed_ratio >= CONTROL_FLOOR,
        "sealed-summary codec is {sealed_ratio:.3}× its unsealed encodes, below the \
         {CONTROL_FLOOR}× floor"
    );
}

// -------------------------------------------------- validation fast path

/// The batched kernel must beat the scalar baseline by this factor on
/// MTU-sized packets.
const KERNEL_FLOOR: f64 = 3.0;

/// Floor on the monitor → summary → verdict pipeline's packets/s, as a
/// share of a scalar-fingerprint pass over the same tape in the same
/// process. 20 release runs read 0.071–0.098. The spread is wider than
/// what the batched fingerprint kernel is worth to the pipeline on 40-byte
/// invariants (with the scalar kernel in its place: 0.072–0.089), so this
/// floor catches a pipeline that got a third slower, not the kernel swap;
/// the kernel gate above holds the kernel.
const PIPELINE_FLOOR: f64 = 0.06;

/// Fingerprint throughput in bytes/s over `iters` copies of `msg`, scalar
/// Horner or the batched kernel in groups of 64.
fn fingerprint_rate(key: &UhashKey, msg: &[u8], iters: u64, batched: bool) -> f64 {
    const GROUP: u64 = 64;
    let msgs: Vec<&[u8]> = (0..GROUP).map(|_| msg).collect();
    let mut out = Vec::new();
    let mut sink = 0u64;
    let start = Instant::now();
    let hashed = if batched {
        for _ in 0..iters / GROUP {
            key.fingerprint_batch_into(&msgs, &mut out);
            sink ^= out[0].value();
        }
        iters / GROUP * GROUP
    } else {
        for _ in 0..iters {
            sink ^= key.fingerprint_scalar(msg).value();
        }
        iters
    };
    let secs = start.elapsed().as_secs_f64();
    assert!(sink != u64::MAX, "keep the checksum live");
    hashed as f64 * msg.len() as f64 / secs
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only wall-clock ratio (debug: batched kernel 1.7× scalar)"
)]
fn batched_fingerprint_kernel_is_three_times_scalar_on_1500_bytes() {
    let _serial = serial();
    let key = UhashKey::from_seed(0xDA7A);
    let msg = vec![0xA5u8; 1500];
    // Warm up both paths before timing.
    fingerprint_rate(&key, &msg, 1_000, false);
    fingerprint_rate(&key, &msg, 1_000, true);
    let (batch, scalar) = best_of(TRIES, || {
        let batch = fingerprint_rate(&key, &msg, 200_000, true);
        (batch, fingerprint_rate(&key, &msg, 200_000, false))
    });
    let speedup = batch / scalar;
    println!(
        "fingerprint kernel: scalar {:.0} MB/s, batched {:.0} MB/s ({speedup:.2}× scalar)",
        scalar / 1e6,
        batch / 1e6
    );
    assert!(
        speedup >= KERNEL_FLOOR,
        "batched kernel is only {speedup:.2}× the scalar baseline (floor {KERNEL_FLOOR}×)"
    );
}

/// How many packets later a packet's sink arrival comes in
/// [`abilene_tape`] than its source enqueue: two of the pipeline's
/// 512-event batches, as a path's latency puts them in a simulator run.
const TRAIL: usize = 512;

/// The Abilene tap tape, in time order: one source enqueue and one sink
/// arrival per packet, 1 500 B each, spread round-robin over the maximal
/// routed paths of three or more routers, each arrival [`TRAIL`] packets
/// after its enqueue. Only *maximal* paths are kept: a shortest path's
/// subpath is itself a routed path, and a nested segment would be fed the
/// tape's source events but not its sink events.
fn abilene_tape(packets: usize) -> (Vec<PathSegment>, PathOracle, Vec<TapEvent>) {
    let routes = builtin::abilene().link_state_routes();
    let all: Vec<Path> = routes
        .all_paths()
        .filter(|p| p.routers().len() >= 3)
        .collect();
    let paths: Vec<&Path> = all
        .iter()
        .filter(|p| {
            !all.iter()
                .any(|q| q.routers().len() > p.routers().len() && q.contains_segment(p.routers()))
        })
        .collect();
    let segments = paths
        .iter()
        .map(|p| PathSegment::new(p.routers().to_vec()))
        .collect();
    // Packet i is sent at 100·i ns and arrives 50 ns after packet
    // i + TRAIL is sent.
    let packet = |i: usize| {
        let routers = paths[i % paths.len()].routers();
        let id = PacketId(i as u64 + 1);
        let packet = Packet {
            id,
            src: routers[0],
            dst: routers[routers.len() - 1],
            flow: FlowId((i % paths.len()) as u32),
            kind: PacketKind::Data,
            size: 1500,
            seq: i as u64,
            payload_tag: Packet::expected_tag(id),
            ttl: Packet::DEFAULT_TTL,
            created_at: SimTime::from_ns(i as u64 * 100),
        };
        (packet, routers)
    };
    let mut events = Vec::with_capacity(packets * 2);
    for i in 0..packets + TRAIL {
        if i < packets {
            let (packet, routers) = packet(i);
            events.push(TapEvent::Enqueued {
                router: packet.src,
                next_hop: routers[1],
                packet,
                time: packet.created_at,
                queue_len_after: 0,
            });
        }
        if let Some(i) = i.checked_sub(TRAIL) {
            let (packet, routers) = packet(i);
            events.push(TapEvent::Arrived {
                router: packet.dst,
                from: Some(routers[routers.len() - 2]),
                packet,
                time: SimTime::from_ns((i + TRAIL) as u64 * 100 + 50),
            });
        }
    }
    (segments, PathOracle::from_routes(&routes), events)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only wall-clock ratio (debug: 0.12× a scalar pass, in 15 s)"
)]
fn abilene_validation_pipeline_clears_a_million_packets_per_second() {
    let _serial = serial();
    const PACKETS: usize = 200_000;
    let mut ks = KeyStore::with_seed(0xDA7A);
    for r in builtin::abilene().routers() {
        ks.register(u32::from(r));
    }
    let (segments, oracle, events) = abilene_tape(PACKETS);
    let mut memo = (0, 0);
    let (pps, scalar) = best_of(TRIES, || {
        let pps;
        (pps, memo) = pipeline_rate(&segments, &oracle, &ks, &events);
        (pps, scalar_pass_rate(&segments, &ks, &events))
    });
    let ratio = pps / scalar;
    println!(
        "validation pipeline: {:.2} M pkts/s over {} Abilene paths, {ratio:.3}× a scalar \
         fingerprint pass ({:.2} M pkts/s)",
        pps / 1e6,
        segments.len(),
        scalar / 1e6
    );
    assert!(
        ratio >= PIPELINE_FLOOR,
        "pipeline is {ratio:.3}× a scalar fingerprint pass, below the {PIPELINE_FLOOR}× floor"
    );
    // Each packet is tapped twice on its one segment. Its enqueue is its
    // first sight and misses the fingerprint memo; its arrival, two
    // batches later, hits the entry that miss left, unless the memo was
    // cleared in between. A miss that finds the memo at 2¹⁶ entries clears
    // it; batch 0 leaves 512 entries and each batch after it 256 (512 in
    // the batch after a clear), so clears fall in batches 255, 510 and
    // 765, each dropping the 256 entries of the batch before, whose
    // arrivals then miss.
    let cleared = 3 * 256;
    assert_eq!(
        memo,
        (PACKETS as u64 - cleared, PACKETS as u64 + cleared),
        "fingerprint memo (hits, misses) over the tape"
    );
}

/// Packets/s of the Abilene pipeline over `tape`: batched ingest, then
/// per-end reports, content summaries and `tv_content`, which must find
/// the clean tape clean. Also returns the fingerprint memo's hits and
/// misses.
fn pipeline_rate(
    segments: &[PathSegment],
    oracle: &PathOracle,
    ks: &KeyStore,
    tape: &[TapEvent],
) -> (f64, (u64, u64)) {
    let reg = MetricsRegistry::new();
    let (plan, mode) = (segments.to_vec(), MonitorMode::EndsOnly);
    let mut mon = SegmentMonitorSet::new(plan, oracle.clone(), ks, mode, None);
    mon.attach_metrics(MonitorMetrics::registered(&reg));
    let start = Instant::now();
    for chunk in tape.chunks(512) {
        mon.observe_batch(chunk);
    }
    let (mut lost, mut fabricated) = (0, 0);
    for (i, seg) in segments.iter().enumerate() {
        let up = mon.report(seg.source(), i).to_content();
        let down = mon.report(seg.sink(), i).to_content();
        let verdict = tv_content(&up, &down);
        lost += verdict.lost.len();
        fabricated += verdict.fabricated.len();
    }
    let pps = (tape.len() / 2) as f64 / start.elapsed().as_secs_f64();
    assert_eq!((lost, fabricated), (0, 0), "clean tape must validate clean");
    let snap = reg.snapshot();
    let memo = ["hits", "misses"].map(|c| snap.counter(&format!("monitor.fp_cache_{c}")));
    (pps, memo.into())
}

/// Packets/s of a scalar-fingerprint pass over `tape`: each tap's packet
/// fingerprinted on its own, by the scalar Horner loop, under the key of
/// the segment [`abilene_tape`] sent it along (its flow's).
fn scalar_pass_rate(segments: &[PathSegment], ks: &KeyStore, tape: &[TapEvent]) -> f64 {
    let keys: Vec<UhashKey> = (segments.iter())
        .map(|s| ks.segment_uhash_key(s.stable_id()))
        .collect();
    let mut sink = 0u64;
    let start = Instant::now();
    for ev in tape {
        let key = &keys[ev.packet().flow.0 as usize];
        let fingerprint = key.fingerprint_scalar(&ev.packet().invariant_bytes());
        sink ^= fingerprint.value();
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(sink != u64::MAX, "keep the checksum live");
    (tape.len() / 2) as f64 / secs
}

// ---------------------------------------------------------------- scale

/// Reconciled control bytes must come in at or below this fraction of
/// full-transfer control bytes at the gate size.
const RATIO_LIMIT: f64 = 0.5;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only wall-clock gate (debug: Reconcile/Full 0.59)"
)]
fn reconcile_costs_at_most_half_of_full_and_nobody_is_accused() {
    let _serial = serial();
    let mut gate_ratio = f64::NAN;
    for n in [48, GATE_ROUTERS] {
        let (topo, spec) = scenario(n, 5, SCALE_FLOW_SEED);
        let full = deploy(&topo, &spec, &detect_only(SummaryMode::Full));
        let rec = deploy(&topo, &spec, &detect_only(RECONCILE));
        let ratio = rec.stats.control_bytes_sent as f64 / full.stats.control_bytes_sent as f64;
        println!(
            "{n} routers: Reconcile/Full control bytes {ratio:.3} ({} resolved, {} fallbacks, \
             {} escalations); suspicions Full {} / Reconcile {}",
            rec.stats.digests_resolved,
            rec.stats.digest_fallbacks,
            rec.stats.digest_escalations,
            full.suspicions.len(),
            rec.suspicions.len(),
        );
        assert!(
            full.suspicions.is_empty() && rec.suspicions.is_empty(),
            "clean run at {n} routers accused: Full {:?}, Reconcile {:?}",
            full.suspicions,
            rec.suspicions
        );
        gate_ratio = ratio;
    }
    assert!(
        gate_ratio <= RATIO_LIMIT,
        "Reconcile/Full control bytes {gate_ratio:.3} exceed {RATIO_LIMIT} at {GATE_ROUTERS} routers"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only live gate: its wall-clock rounds assume an optimised build"
)]
fn mid_path_dropper_is_caught_at_128_routers_detection_only() {
    let _serial = serial();
    let (topo, mut spec) = scenario(GATE_ROUTERS, 5, SCALE_FLOW_SEED);
    let dropper = add_dropper(&topo, &mut spec, 0);
    let cfg = detect_only(RECONCILE);
    let outcome = deploy(&topo, &spec, &cfg);
    let (complete, accurate) = complete_and_accurate(&outcome, dropper, cfg.k);
    println!(
        "30 % dropper at {GATE_ROUTERS} routers: complete={complete} accurate={accurate}, \
         {} dropped ({} resolved, {} fallbacks, {} escalations)",
        outcome.stats.data_dropped,
        outcome.stats.digests_resolved,
        outcome.stats.digest_fallbacks,
        outcome.stats.digest_escalations,
    );
    assert!(outcome.stats.data_dropped > 0, "the dropper never fired");
    assert!(
        complete && accurate,
        "dropper detection failed: complete={complete} accurate={accurate} {:?}",
        outcome.suspicions
    );
}

// -------------------------------------------------- response and churn

/// Post-reconvergence delivery must reach this fraction of the
/// pre-attack per-round delivery.
const RECOVERY_FLOOR: f64 = 0.99;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only wall-clock gate (debug: dozens of suspicions, accurate=false)"
)]
fn convicted_dropper_is_routed_around_and_delivery_recovers() {
    let _serial = serial();
    let (topo, mut spec) = scenario(GATE_ROUTERS, 5, CHURN_FLOW_SEED);
    let dropper = add_dropper(&topo, &mut spec, ATTACK_ROUND as u64);
    let cfg = churn_cfg(9);
    let outcome = deploy(&topo, &spec, &cfg);
    let (complete, accurate) = complete_and_accurate(&outcome, dropper, cfg.k);
    let transitions = outcome.metrics.counter("net.epoch_transitions");

    // Per-round delivery: the baseline is the last window between two
    // snapshots that closes before the onset, the mean of the last two
    // complete rounds the recovered rate. Snapshot r is taken at
    // (r+1)·τ + budget + 50 ms, 370 + 200·r ms here, so the window between
    // snapshots A−3 and A−2 (370–570 ms) is the last one that closes
    // before the dropper starts at A·τ = 600 ms. The final round's
    // snapshot races teardown (its tail is cut), so it is left out.
    let delivered: Vec<u64> = (outcome.round_metrics.iter())
        .map(|m| m.counter("net.data_delivered"))
        .collect();
    let n = delivered.len();
    assert!(n >= ATTACK_ROUND + 5, "too few rounds to measure recovery");
    let baseline = (delivered[ATTACK_ROUND - 2] - delivered[ATTACK_ROUND - 3]) as f64;
    let recovered = (delivered[n - 2] - delivered[n - 4]) as f64 / 2.0;
    let ratio = recovered / baseline.max(1.0);
    let per_round: Vec<u64> = (0..n)
        .map(|i| delivered[i] - if i == 0 { 0 } else { delivered[i - 1] })
        .collect();
    println!(
        "conviction at {GATE_ROUTERS} routers: complete={complete} accurate={accurate}, \
         {transitions} epoch transitions; delivery {baseline:.0}/round pre-attack → \
         {recovered:.0}/round recovered (ratio {ratio:.3}); per round {per_round:?}"
    );
    assert!(
        complete && accurate,
        "conviction failed: complete={complete} accurate={accurate} ({} suspicions)",
        outcome.suspicions.len()
    );
    assert!(
        transitions >= GATE_ROUTERS as u64,
        "only {transitions} epoch transitions: not every router applied the exclusion"
    );
    assert!(
        ratio >= RECOVERY_FLOOR,
        "delivery recovered to {ratio:.3} of pre-attack, below {RECOVERY_FLOOR}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only live gate: its wall-clock rounds assume an optimised build"
)]
fn pure_churn_flap_leave_and_join_accuse_nobody() {
    let _serial = serial();
    let (topo, mut spec, actor, peer) = churn_scenario(48);
    spec.churn = vec![
        churn(250, actor, ChurnAction::LinkDown(peer)),
        churn(650, actor, ChurnAction::LinkUp(peer)),
        churn(900, actor, ChurnAction::Leave),
        churn(1300, actor, ChurnAction::Join),
    ];
    let outcome = deploy(&topo, &spec, &churn_cfg(8));
    let transitions = outcome.metrics.counter("net.epoch_transitions");
    println!(
        "pure churn at 48 routers: {} suspicions, {transitions} epoch transitions, {} delivered",
        outcome.suspicions.len(),
        outcome.stats.data_delivered
    );
    assert!(
        outcome.suspicions.is_empty(),
        "pure churn accused: {:?}",
        outcome.suspicions
    );
    assert!(transitions > 0, "pure churn never reconverged");
    assert!(
        outcome.stats.data_delivered > 0,
        "pure churn delivered nothing"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only live gate: its wall-clock rounds assume an optimised build"
)]
fn crash_restart_serves_probation_and_accuses_nobody() {
    let _serial = serial();
    let (topo, mut spec, actor, reporter) = churn_scenario(32);
    spec.churn = vec![
        churn(150, actor, ChurnAction::Crash),
        churn(450, reporter, ChurnAction::ReportDown(actor)),
        churn(800, actor, ChurnAction::Restart),
    ];
    let outcome = deploy(&topo, &spec, &churn_cfg(10));
    let admitted = outcome.metrics.counter("net.probation_admitted");
    let cleared = outcome.metrics.counter("net.probation_cleared");
    println!(
        "crash-restart at 32 routers: {} suspicions, probation {admitted} admitted / \
         {cleared} cleared, {} delivered",
        outcome.suspicions.len(),
        outcome.stats.data_delivered
    );
    assert!(
        outcome.suspicions.is_empty(),
        "crash-restart accused: {:?}",
        outcome.suspicions
    );
    assert!(
        admitted >= 1 && cleared >= 1,
        "probation never served: admitted={admitted} cleared={cleared}"
    );
    assert!(
        outcome.stats.data_delivered > 0,
        "crash-restart delivered nothing"
    );
}
