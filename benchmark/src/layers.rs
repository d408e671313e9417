//! Per-layer figures of a traced run, all obtained from outside the
//! program: the probes' spans and counts, the registry snapshot and trace
//! journal the deployment returns, and replays of captured or regenerated
//! inputs through each layer's public functions. Layer names are the
//! repository's crates and modules.

use crate::measure::{last_over_first, round_deltas};
use crate::probe::Op;
use crate::report::Metric;
use crate::run::{Deployed, EndToEnd};
use crate::verdict::Verdict;
use crate::workload::Workload;
use fatih_core::monitor::{MonitorMode, PathOracle, Report, SegmentMonitorSet};
use fatih_crypto::frame::{open_frame, seal_frame, MAC_LEN};
use fatih_crypto::hmac::hmac_sha256;
use fatih_crypto::KeyStore;
use fatih_net::codec::{decode_frame, encode_frame, Frame, MsgType};
use fatih_net::linkstate::{sign_link_state, verify_link_state, LinkStateUpdate, TopoUpdate};
use fatih_net::runtime::SummaryMode;
use fatih_net::timer::TimerWheel;
use fatih_obs::{MetricsRegistry, TraceBuffer, TraceKind};
use fatih_sim::{FlowId, Packet, PacketId, PacketKind, SimTime, TapEvent};
use fatih_topology::{pik2_segments_from_paths, DynamicTopology, Path, PathSegment, RouterId};
use fatih_validation::{diff_via_digest, tv_content, ContentDigest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Taps per `observe_batch` call, as the runtime's `OBS_BUF_FLUSH`.
const OBS_BATCH: usize = 128;
/// How long after a round's evaluation deadline `LiveDeployment::run`
/// takes that round's registry snapshot.
const SNAPSHOT_LAG: Duration = Duration::from_millis(50);
/// Time budget of one replayed micro-measurement.
const BUDGET: Duration = Duration::from_millis(25);

/// Mean nanoseconds per call of `f`, over at least `min_iters` calls and
/// at least [`BUDGET`]. `f` gets the call index so it can cycle inputs.
fn time_ns(min_iters: u64, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    let (mut done, mut batch) = (0u64, 1u64);
    loop {
        for _ in 0..batch {
            f(done as usize);
            done += 1;
        }
        let elapsed = t0.elapsed();
        if done >= min_iters && elapsed >= BUDGET {
            return elapsed.as_nanos() as f64 / done as f64;
        }
        if elapsed < BUDGET / 8 {
            batch *= 2;
        }
    }
}

/// [`time_ns`] over a sample set, 0 when the workload produced none.
fn time_over<T>(samples: &[T], min_iters: u64, mut f: impl FnMut(&T)) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    time_ns(min_iters, |i| f(&samples[i % samples.len()]))
}

/// The key store `LiveDeployment::run` derives for this workload.
fn keystore(w: &Workload) -> KeyStore {
    let mut keys = KeyStore::with_seed(w.cfg.key_seed);
    for r in w.topo.routers() {
        keys.register(r.into());
    }
    keys
}

/// The flows' paths on the runtime's routing, in flow order.
fn flow_paths(w: &Workload) -> Vec<Path> {
    let mut paths = DynamicTopology::new(w.topo.clone()).paths_for(w.flow_pairs());
    w.flow_pairs()
        .iter()
        .map(|pair| paths.remove(pair).expect("generated flows are routable"))
        .collect()
}

/// The `n`-th packet (from 1) of flow `flow` along `path`, exactly as the
/// runtime's flow tick builds it: same id, sequence number and invariants.
fn nth_packet(path: &Path, flow: usize, n: u64, created_ns: u64) -> Packet {
    let id = PacketId(((u64::from(u32::from(path.source())) + 1) << 40) | n);
    Packet {
        id,
        src: path.source(),
        dst: path.sink(),
        flow: FlowId(flow as u32),
        kind: PacketKind::Data,
        size: 1000,
        seq: n,
        payload_tag: Packet::expected_tag(id),
        ttl: Packet::DEFAULT_TTL,
        created_at: SimTime::from_ns(created_ns),
    }
}

/// Validation-layer costs at one history size, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
struct ValidationCosts {
    entries: usize,
    to_content: f64,
    digest_of: f64,
    diff_via_digest: f64,
    tv_content: f64,
}

/// What replaying the workload's tap sequence through `core::monitor` and
/// `validation` gave.
#[derive(Debug, Default)]
struct MonitorReplay {
    observe_ns_per_tap: f64,
    report_clone_us: [f64; 2],
    validation: [ValidationCosts; 2],
}

/// Regenerates the workload's tap sequence — the same packets (ids,
/// sequence numbers, invariants) along the same paths, `per_round` per
/// flow per round — and feeds each on-path router's own
/// `SegmentMonitorSet` through `observe_batch` in batches of
/// [`OBS_BATCH`], as the runtime does. History is never compacted, as in
/// the runtime, so `report()` is timed once holding round-1 history and
/// once holding the whole run's.
fn replay_monitor(w: &Workload, keys: &KeyStore, paths: &[Path], delivered: u64) -> MonitorReplay {
    let segments: Vec<PathSegment> =
        pik2_segments_from_paths(paths.to_vec(), w.topo.router_count(), w.cfg.k)
            .all_segments()
            .into_iter()
            .collect();
    let oracle = PathOracle::from_paths(paths.to_vec());
    let mut sets: HashMap<RouterId, (SegmentMonitorSet, Vec<TapEvent>)> = paths
        .iter()
        .flat_map(|p| p.routers().iter().copied())
        .map(|r| {
            let set = SegmentMonitorSet::new(
                segments.clone(),
                oracle.clone(),
                keys,
                MonitorMode::EndsOnly,
                None,
            );
            (r, (set, Vec::with_capacity(OBS_BATCH)))
        })
        .collect();
    let ends: Vec<(RouterId, usize)> = segments
        .iter()
        .enumerate()
        .flat_map(|(i, s)| [(s.source(), i), (s.sink(), i)])
        .collect();
    // Validation is timed on the first monitored segment of flow 0.
    let head = PathSegment::new(paths[0].routers()[..3].to_vec());
    let head_idx = segments
        .iter()
        .position(|s| *s == head)
        .expect("a 5-router path has its first 3-segment monitored");

    let rounds = w.cfg.rounds;
    let per_round = (delivered / rounds / paths.len() as u64).max(1);
    let (mut observe_ns, mut taps, mut clock) = (0u64, 0u64, 0u64);
    let mut out = MonitorReplay::default();
    let mut flush = |set: &mut SegmentMonitorSet, buf: &mut Vec<TapEvent>| {
        let t0 = Instant::now();
        set.observe_batch(buf);
        observe_ns += t0.elapsed().as_nanos() as u64;
        taps += buf.len() as u64;
        buf.clear();
    };
    for round in 0..rounds {
        for n in 0..per_round {
            for (fi, path) in paths.iter().enumerate() {
                let packet = nth_packet(path, fi, round * per_round + n + 1, clock);
                let hops = path.routers();
                for (i, &router) in hops.iter().enumerate() {
                    clock += 1_000;
                    let time = SimTime::from_ns(clock);
                    let (set, buf) = sets.get_mut(&router).expect("a set per on-path router");
                    if i > 0 {
                        buf.push(TapEvent::Arrived {
                            router,
                            from: Some(hops[i - 1]),
                            packet,
                            time,
                        });
                    }
                    if let Some(&next_hop) = hops.get(i + 1) {
                        buf.push(TapEvent::Enqueued {
                            router,
                            next_hop,
                            packet,
                            time,
                            queue_len_after: 0,
                        });
                    }
                    if buf.len() >= OBS_BATCH {
                        flush(set, buf);
                    }
                }
            }
        }
        let slot = match round {
            0 => 0,
            r if r + 1 == rounds => 1,
            _ => continue,
        };
        for (set, buf) in sets.values_mut() {
            flush(set, buf);
        }
        out.report_clone_us[slot] = time_over(&ends, 16, |&(router, seg)| {
            black_box(sets[&router].0.report(router, seg));
        }) / 1e3;
        let up = sets[&head.source()].0.report(head.source(), head_idx);
        let down = sets[&head.sink()].0.report(head.sink(), head_idx);
        out.validation[slot] = time_validation(w, &up, &down);
    }
    out.observe_ns_per_tap = observe_ns as f64 / taps.max(1) as f64;
    out
}

/// Times the validation layer on one segment's upstream and downstream
/// records. The digest is taken of the downstream record short of its last
/// three packets — a clean round's difference is a handful of packets
/// still in flight — so `diff_via_digest` decodes a real, small delta.
fn time_validation(w: &Workload, up: &Report, down: &Report) -> ValidationCosts {
    let capacity = match w.cfg.summary {
        SummaryMode::Reconcile { capacity } => capacity,
        SummaryMode::Full => 32,
    };
    let up_content = up.to_content();
    let down_content = down.to_content();
    let keep = down.entries.len().saturating_sub(3);
    let remote = ContentDigest::of(
        &Report {
            entries: down.entries[..keep].to_vec(),
        }
        .to_content(),
        capacity,
    );
    let mut rng = StdRng::seed_from_u64(w.cfg.key_seed);
    let us = |ns: f64| ns / 1e3;
    ValidationCosts {
        entries: up.len(),
        to_content: us(time_ns(8, |_| {
            black_box(up.to_content());
        })),
        digest_of: us(time_ns(8, |_| {
            black_box(ContentDigest::of(&up_content, capacity));
        })),
        diff_via_digest: us(time_ns(8, |_| {
            black_box(diff_via_digest(&remote, &up_content, &mut rng));
        })),
        tv_content: us(time_ns(8, |_| {
            black_box(tv_content(&up_content, &down_content));
        })),
    }
}

/// `net.codec` and `crypto` on the frames the probes captured.
struct FrameReplay {
    encode_data_ns: f64,
    decode_data_ns: f64,
    encode_summary_us: f64,
    decode_summary_us: f64,
    decode_digest_us: f64,
    seal_us: f64,
    open_us: f64,
}

fn replay_frames(d: &Deployed, keys: &KeyStore) -> FrameReplay {
    let decoded = |ty: MsgType| -> (Vec<&[u8]>, Vec<Frame>) {
        let raw = d.record.samples_of(ty);
        let frames = raw
            .iter()
            .filter_map(|b| decode_frame(b, keys).ok())
            .collect();
        (raw, frames)
    };
    let decode = |raw: &[&[u8]], min: u64| {
        time_over(raw, min, |b| {
            black_box(decode_frame(b, keys).is_ok());
        })
    };
    let encode = |frames: &[Frame], min: u64| {
        time_over(frames, min, |f| {
            black_box(encode_frame(f, keys).is_ok());
        })
    };
    let (data_raw, data) = decoded(MsgType::Data);
    let (summary_raw, summary) = decoded(MsgType::Summary);
    let (digest_raw, _) = decoded(MsgType::SummaryDigest);

    // Seal and open at the sizes of the captured control frames. The key
    // does not change the cost; the MAC trailer is cut off and re-made.
    let key = [7u8; 32];
    let mut sealed: Vec<Vec<u8>> = d
        .record
        .samples
        .iter()
        .filter(|(ty, b)| *ty != MsgType::Data && b.len() > MAC_LEN)
        .map(|(_, b)| {
            let mut body = b[..b.len() - MAC_LEN].to_vec();
            seal_frame(&key, &mut body);
            body
        })
        .collect();
    let open_us = time_over(&sealed, 64, |b| {
        black_box(open_frame(&key, b).is_some());
    }) / 1e3;
    let n = sealed.len();
    let seal_us = if n == 0 {
        0.0
    } else {
        time_ns(64, |i| {
            let buf = &mut sealed[i % n];
            buf.truncate(buf.len() - MAC_LEN);
            seal_frame(&key, buf);
        }) / 1e3
    };
    FrameReplay {
        encode_data_ns: encode(&data, 10_000),
        decode_data_ns: decode(&data_raw, 10_000),
        encode_summary_us: encode(&summary, 16) / 1e3,
        decode_summary_us: decode(&summary_raw, 16) / 1e3,
        decode_digest_us: decode(&digest_raw, 64) / 1e3,
        seal_us,
        open_us,
    }
}

/// `net.timer` at the workload's occupancy: one tick per flow, a round-end
/// and a round-eval timer per round, and the retransmission pump.
fn replay_timer(w: &Workload) -> (f64, f64) {
    let occupancy = w.spec.flows.len() as u64 + 2 * w.cfg.rounds + 1;
    let tau = w.cfg.tau.as_nanos() as u64;
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    for i in 0..occupancy {
        wheel.schedule(tau + i * tau / occupancy, i);
    }
    // The every-iteration case: nothing is due, all 64 slots are scanned.
    let pop_due_ns = time_ns(10_000, |i| {
        black_box(wheel.pop_due(i as u64 % 1_000).len());
    });
    // Flow ticks re-arm a few milliseconds ahead; time 64 of them at a
    // time so the two clock reads vanish, and drain them untimed.
    let (mut spent_ns, mut scheduled, mut now) = (0u64, 0u64, 1_000u64);
    while scheduled < 64 * 2_000 {
        let t0 = Instant::now();
        for k in 0..64 {
            wheel.schedule(now + k, k);
        }
        spent_ns += t0.elapsed().as_nanos() as u64;
        scheduled += 64;
        now += 64;
        black_box(wheel.pop_due(now).len());
    }
    (pop_due_ns, spent_ns as f64 / scheduled as f64)
}

/// Every per-layer metric of one traced run, in `BENCHMARK.json` order.
pub fn per_layer(
    w: &Workload,
    traced: &Deployed,
    traced_e2e: &EndToEnd,
    untraced_e2e: &EndToEnd,
    verdict: &Verdict,
) -> Vec<Metric> {
    let stats = &traced.outcome.stats;
    let snap = &traced.outcome.metrics;
    let delivered = stats.data_delivered as f64;
    let per_pkt = |x: f64| x / delivered;
    let keys = keystore(w);
    let paths = flow_paths(w);
    let cpu_ns = traced.cpu_s * 1e9;

    // net.transport: the probes' spans.
    let [(sends, send_ns, _), (polls, poll_ns, empty_polls), (_, blocked_ns, _)] =
        traced.record.call_totals();
    let span_ns = (send_ns + poll_ns + blocked_ns) as f64;

    let frames = replay_frames(traced, &keys);
    let monitor = replay_monitor(w, &keys, &paths, stats.data_delivered);
    let [first, last] = monitor.validation;
    let (pop_due_ns, schedule_ns) = replay_timer(w);

    // crypto: raw HMAC throughput and the batched fingerprint kernel on
    // the workload's own packet invariants.
    let block = vec![0xA5u8; 16 * 1024];
    let hmac_ns = time_ns(64, |_| {
        black_box(hmac_sha256(&[7u8; 32], &block));
    });
    let head = PathSegment::new(paths[0].routers()[..3].to_vec());
    let uhash_key = keys.segment_uhash_key(head.stable_id());
    let invariants: Vec<[u8; 40]> = (1..=OBS_BATCH as u64)
        .map(|n| nth_packet(&paths[0], 0, n, 0).invariant_bytes())
        .collect();
    let messages: Vec<&[u8]> = invariants.iter().map(|inv| &inv[..]).collect();
    let uhash_ns = time_ns(1_000, |_| {
        black_box(uhash_key.fingerprint_batch(&messages));
    }) / OBS_BATCH as f64;

    // topology: the reroute a conviction triggers, and the route build of
    // set-up. The excluded segment is the one around the dropper (or the
    // middle of flow 0's path where there is none).
    let mid = PathSegment::new(paths[0].routers()[1..4].to_vec());
    let pairs = w.flow_pairs();
    let reroute_ns = time_ns(8, |_| {
        let mut dynamic = DynamicTopology::new(w.topo.clone());
        dynamic.exclude_segment(mid.clone());
        black_box(dynamic.paths_for(pairs.iter().copied()));
    });
    let routes_ns = time_ns(4, |_| {
        black_box(w.topo.link_state_routes());
        black_box(pik2_segments_from_paths(
            paths.to_vec(),
            w.topo.router_count(),
            w.cfg.k,
        ));
    });

    // net.linkstate: sign and verify one exclusion.
    let update = LinkStateUpdate {
        origin: mid.source(),
        update_seq: 0,
        t_origin_ns: 1,
        update: TopoUpdate::ExcludeSegment(mid.clone()),
    };
    let sign_verify_ns = time_ns(64, |_| {
        let sig = sign_link_state(&keys, &update);
        black_box(verify_link_state(&keys, &update, &sig));
    });

    // obs: one trace record; one snapshot of a registry the size of the
    // runtime's (its counters and histograms, by the names it snapshots).
    let mut ring = TraceBuffer::new(0, 1 << 16);
    let trace_record_ns = time_ns(100_000, |i| {
        ring.record(i as u64, TraceKind::PacketTap, 1, 0, 1000);
    });
    let registry = MetricsRegistry::new();
    for name in snap.counters.keys() {
        registry.counter(name).inc();
    }
    for name in snap.histograms.keys() {
        registry.histogram(name).record(1_000);
    }
    let snapshot_ns = time_ns(64, |_| {
        black_box(registry.snapshot());
    });

    // How much of the run's CPU the outside view explains: each stage's
    // per-call cost times its calls (README, "trace.stage_sum_share").
    let taps = traced.outcome.trace.recorded(TraceKind::PacketTap) as f64;
    let data_frames = traced.record.data_frames_sent as f64;
    let control_frames = traced.record.control_frames_sent as f64;
    let nodes_per_shard = w.topo.router_count() as f64 / w.cfg.shards as f64;
    let iterations = empty_polls as f64 / nodes_per_shard;
    let ends = 2.0 * traced.outcome.segments.len() as f64;
    let mean = |f: fn(&ValidationCosts) -> f64| (f(&first) + f(&last)) / 2.0 * 1e3;
    let clone_ns = (monitor.report_clone_us[0] + monitor.report_clone_us[1]) / 2.0 * 1e3;
    let per_end_ns = match w.cfg.summary {
        // Sender: report, mature and full content, two digests. Receiver:
        // report, both contents again, two certified differences.
        SummaryMode::Reconcile { .. } => {
            2.0 * clone_ns
                + 4.0 * mean(|v| v.to_content)
                + 2.0 * mean(|v| v.digest_of)
                + 2.0 * mean(|v| v.diff_via_digest)
        }
        // Sender: report (sealing is in the control-frame term).
        // Evaluator: report, both contents, the comparison.
        SummaryMode::Full => 2.0 * clone_ns + 2.0 * mean(|v| v.to_content) + mean(|v| v.tv_content),
    };
    let stage_sum_ns = span_ns
        + data_frames * (frames.encode_data_ns + frames.decode_data_ns)
        + control_frames * (frames.seal_us + frames.open_us) * 1e3
        + taps * (monitor.observe_ns_per_tap + trace_record_ns)
        + iterations * pop_due_ns
        + ends * w.cfg.rounds as f64 * per_end_ns;

    let eval = snap
        .histogram("net.round_eval_ns")
        .copied()
        .unwrap_or_default();
    let deltas = round_deltas(&traced.outcome.round_metrics, "net.data_delivered");
    let retransmit_bytes = snap.counter("net.retransmit_bytes") as f64;
    let counter = |name: &str| snap.counter(name) as f64;
    let m = Metric::new;
    vec![
        m(
            "transport.send_ns_mean",
            send_ns as f64 / sends as f64,
            "ns",
        ),
        m(
            "transport.send_calls_per_pkt",
            per_pkt(sends as f64),
            "count",
        ),
        m(
            "transport.try_recv_ns_mean",
            poll_ns as f64 / polls as f64,
            "ns",
        ),
        m(
            "transport.try_recv_calls_per_pkt",
            per_pkt(polls as f64),
            "count",
        ),
        m(
            "transport.empty_poll_ratio",
            empty_polls as f64 / polls as f64,
            "ratio",
        ),
        m("transport.busy_share", span_ns / cpu_ns, "ratio"),
        m(
            "transport.wire_bytes_per_pkt",
            per_pkt(stats.wire_bytes_sent as f64),
            "B",
        ),
        m("codec.encode_data_ns", frames.encode_data_ns, "ns"),
        m("codec.decode_data_ns", frames.decode_data_ns, "ns"),
        m("codec.encode_summary_us", frames.encode_summary_us, "us"),
        m("codec.decode_summary_us", frames.decode_summary_us, "us"),
        m("codec.decode_digest_us", frames.decode_digest_us, "us"),
        m("crypto.seal_us", frames.seal_us, "us"),
        m("crypto.open_us", frames.open_us, "us"),
        m(
            "crypto.hmac_mb_per_s",
            block.len() as f64 / hmac_ns * 1e3,
            "MB/s",
        ),
        m("crypto.uhash_ns_per_pkt", uhash_ns, "ns"),
        m(
            "monitor.observe_ns_per_tap",
            monitor.observe_ns_per_tap,
            "ns",
        ),
        m(
            "monitor.report_clone_us_first",
            monitor.report_clone_us[0],
            "us",
        ),
        m(
            "monitor.report_clone_us_last",
            monitor.report_clone_us[1],
            "us",
        ),
        m(
            "validation.summary_entries_first",
            first.entries as f64,
            "count",
        ),
        m(
            "validation.summary_entries_last",
            last.entries as f64,
            "count",
        ),
        m("validation.to_content_us_first", first.to_content, "us"),
        m("validation.to_content_us", last.to_content, "us"),
        m("validation.digest_of_us_first", first.digest_of, "us"),
        m("validation.digest_of_us", last.digest_of, "us"),
        m(
            "validation.diff_via_digest_us_first",
            first.diff_via_digest,
            "us",
        ),
        m("validation.diff_via_digest_us", last.diff_via_digest, "us"),
        m("validation.tv_content_us_first", first.tv_content, "us"),
        m("validation.tv_content_us", last.tv_content, "us"),
        m(
            "runtime.frames_per_pkt",
            per_pkt(stats.frames_sent as f64),
            "count",
        ),
        m("runtime.round_eval_ms_p50", eval.p50 as f64 / 1e6, "ms"),
        m("runtime.round_eval_ms_p90", eval.p90 as f64 / 1e6, "ms"),
        m(
            "runtime.delivered_last_over_first",
            last_over_first(&deltas, w.cfg.tau, w.cfg.exchange_budget + SNAPSHOT_LAG)
                .unwrap_or(0.0),
            "ratio",
        ),
        m(
            "runtime.flow_rate_attained",
            traced_e2e.rate_attained.unwrap_or(0.0),
            "ratio",
        ),
        m(
            "runtime.digests_resolved",
            stats.digests_resolved as f64,
            "count",
        ),
        m(
            "runtime.digest_fallbacks",
            stats.digest_fallbacks as f64,
            "count",
        ),
        m(
            "runtime.untapped_drained",
            counter("net.untapped_drained"),
            "count",
        ),
        m(
            "runtime.transition_forward_miss",
            counter("net.transition_forward_miss"),
            "count",
        ),
        m("runtime.run_overhead_s", traced_e2e.run_overhead_s, "s"),
        m("runtime.fwd_latency_us_p90", traced_e2e.latency.p90, "us"),
        m("runtime.fwd_latency_us_p99", traced_e2e.latency.p99, "us"),
        m(
            "runtime.detect_latency_ms",
            verdict.detect_latency_ms.unwrap_or(0.0),
            "ms",
        ),
        m(
            "runtime.reroute_latency_ms",
            verdict.reroute_latency_ms.unwrap_or(0.0),
            "ms",
        ),
        m("reliable.retransmits", stats.retransmits as f64, "count"),
        m(
            "reliable.retransmit_byte_share",
            retransmit_bytes / stats.control_bytes_sent as f64,
            "ratio",
        ),
        m("timer.pop_due_ns", pop_due_ns, "ns"),
        m("timer.schedule_ns", schedule_ns, "ns"),
        m("topology.reroute_us", reroute_ns / 1e3, "us"),
        m("topology.routes_build_ms", routes_ns / 1e6, "ms"),
        m("linkstate.sign_verify_us", sign_verify_ns / 1e3, "us"),
        m(
            "linkstate.updates_applied",
            counter("net.ls_updates_applied"),
            "count",
        ),
        m("obs.trace_record_ns", trace_record_ns, "ns"),
        m("obs.snapshot_us", snapshot_ns / 1e3, "us"),
        m("trace.stage_sum_share", stage_sum_ns / cpu_ns, "ratio"),
        m(
            "trace.overhead_pct",
            (traced_e2e.cpu_us_per_pkt / untraced_e2e.cpu_us_per_pkt - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// Spans written in full to the trace file; the rest are only aggregated.
const SPANS_WRITTEN: usize = 200_000;

/// The trace file of one traced run: the run span, per-call aggregates and
/// the first [`SPANS_WRITTEN`] call spans as
/// `[op, router, start_ns, dur_ns, bytes]` rows (`op` indexes `ops`).
/// Every call span's parent is the run span.
pub fn trace_file(w: &Workload, seed: u64, d: &Deployed) -> String {
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \
         \"run\": {{\"name\": \"LiveDeployment::run\", \"dur_ns\": {}, \"cpu_ns\": {}}},\n \
         \"ops\": [",
        w.name,
        d.wall.as_nanos(),
        (d.cpu_s * 1e9) as u64
    );
    for (i, (op, (calls, ns, empty))) in Op::ALL.iter().zip(d.record.call_totals()).enumerate() {
        out.push_str(&format!(
            "{}{{\"name\": \"{}\", \"calls\": {calls}, \"total_ns\": {ns}, \"empty\": {empty}}}",
            if i > 0 { ", " } else { "" },
            op.name()
        ));
    }
    let written = d.record.spans.len().min(SPANS_WRITTEN);
    out.push_str(&format!(
        "],\n \"spans_total\": {}, \"spans_written\": {written},\n \"spans\": [",
        d.record.spans.len()
    ));
    for (i, s) in d.record.spans[..written].iter().enumerate() {
        let op = s.op as usize;
        out.push_str(&format!(
            "{}[{op},{},{},{},{}]",
            if i > 0 { "," } else { "" },
            s.router,
            s.start_ns,
            s.dur_ns,
            s.bytes
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ns_runs_the_minimum_and_cycles_inputs() {
        let mut calls = 0u64;
        let ns = time_ns(1_000, |_| calls += 1);
        assert!(calls >= 1_000 && ns > 0.0);
        assert_eq!(time_over::<u8>(&[], 10, |_| unreachable!()), 0.0);
        let mut seen = [0u32; 3];
        time_over(&[0usize, 1, 2], 30, |&i| seen[i] += 1);
        assert!(seen.iter().all(|&n| n >= 10));
    }
}
