//! netbench — load harness for the fatih-net wire runtime.
//!
//! Measures, on this machine:
//!
//! * **codec throughput** — encode+decode round trips per second for
//!   unauthenticated Data frames (the forwarding fast path, the headline
//!   number) and for HMAC-sealed Summary frames (the control plane);
//! * **transport latency** — request/response RTT p50/p99 over the
//!   in-memory loopback hub and over real UDP sockets on 127.0.0.1.
//!
//! Writes `BENCH_net.json` to the current directory and fails (exit ≠ 0)
//! if Data-frame codec throughput drops below 100k msgs/sec.
//!
//! Run with `cargo run --release -p fatih-bench --bin netbench`. The
//! default is a seconds-scale smoke run; pass `-- --full` for the full
//! measurement CI records (`--smoke` is still accepted as an explicit
//! alias of the default).

use fatih_core::monitor::{Report, ReportEntry};
use fatih_core::pik2::{Evidence, Message};
use fatih_crypto::{Fingerprint, KeyStore};
use fatih_net::codec::{decode_frame, encode_frame, Frame, WireMessage};
use fatih_net::{LoopbackHub, Transport, UdpNet};
use fatih_obs::{Histogram, MetricsRegistry};
use fatih_sim::{FlowId, Packet, PacketId, PacketKind, SimTime};
use fatih_topology::{PathSegment, RouterId};
use std::time::{Duration, Instant};

/// Floor on Data-frame codec throughput (msgs/sec) before the run fails.
const CODEC_FLOOR: f64 = 100_000.0;

/// Floor on sealed Summary-frame throughput (msgs/sec): the control plane
/// must seal+open summaries fast enough that round bookkeeping never
/// competes with forwarding (measured ~144k on the reference machine).
const CONTROL_FLOOR: f64 = 50_000.0;

fn rid(v: u32) -> RouterId {
    RouterId::from(v)
}

fn keys() -> KeyStore {
    let mut ks = KeyStore::with_seed(0xBE7C);
    ks.register(0);
    ks.register(1);
    ks
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
    Frame {
        src: rid(0),
        dst: rid(1),
        seq: i,
        msg: WireMessage::Pik2(Message {
            round: i,
            segment: PathSegment::new(vec![rid(0), rid(1)]),
            evidence: Evidence::Summary(Report {
                entries: (0..16)
                    .map(|j| ReportEntry {
                        fingerprint: Fingerprint::new(i ^ j),
                        size: 1000,
                        time: SimTime::from_ns(j * 500),
                    })
                    .collect(),
            }),
        }),
    }
}

/// Encode+decode round trips per second for frames from `make`.
fn codec_rate(make: impl Fn(u64) -> Frame, iters: u64, ks: &KeyStore) -> f64 {
    // Warm up, and keep a checksum live so nothing is optimized away.
    let mut sink = 0u64;
    for i in 0..iters.min(1000) {
        let bytes = encode_frame(&make(i), ks).expect("encodable");
        sink ^= bytes.len() as u64;
    }
    let start = Instant::now();
    for i in 0..iters {
        let frame = make(i);
        let bytes = encode_frame(&frame, ks).expect("encodable");
        let back = decode_frame(&bytes, ks).expect("decodable");
        sink ^= back.seq;
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(sink != u64::MAX, "keep the checksum live");
    iters as f64 / secs
}

/// RTT percentiles over `n` request/response exchanges between two
/// transports, echoing on a second thread. Every sample is also recorded
/// into `hist` so the registry snapshot carries the full distribution;
/// the returned p50/p99 are exact (sorted-sample) values.
fn rtt_percentiles<T: Transport + 'static>(
    mut a: T,
    mut b: T,
    n: usize,
    hist: &Histogram,
) -> (u64, u64) {
    let ks = keys();
    let echo = std::thread::spawn(move || {
        let me = b.local();
        let mut served = 0;
        while served < n {
            match b.recv_timeout(Duration::from_millis(200)) {
                Ok(Some(bytes)) => {
                    let f = decode_frame(&bytes, &keys()).expect("echo decode");
                    let reply = Frame {
                        src: me,
                        dst: f.src,
                        seq: f.seq,
                        msg: f.msg,
                    };
                    let out = encode_frame(&reply, &keys()).expect("echo encode");
                    b.send(f.src, &out).expect("echo send");
                    served += 1;
                }
                Ok(None) => {}
                Err(_) => break,
            }
        }
    });
    let peer = rid(1);
    let mut rtts_ns: Vec<u64> = Vec::with_capacity(n);
    for i in 0..n {
        let bytes = encode_frame(&data_frame(i as u64), &ks).expect("encodable");
        let t0 = Instant::now();
        a.send(peer, &bytes).expect("send");
        match a.recv_timeout(Duration::from_millis(200)) {
            Ok(Some(reply)) => {
                let f = decode_frame(&reply, &ks).expect("reply decode");
                assert_eq!(f.seq, i as u64, "echo out of order");
            }
            Ok(None) => panic!("echo timed out"),
            Err(e) => panic!("transport error: {e:?}"),
        }
        let rtt = t0.elapsed().as_nanos() as u64;
        hist.record(rtt);
        rtts_ns.push(rtt);
    }
    echo.join().expect("echo thread");
    rtts_ns.sort_unstable();
    let pct = |p: f64| rtts_ns[(((rtts_ns.len() - 1) as f64) * p) as usize];
    (pct(0.50), pct(0.99))
}

fn main() {
    let smoke = !std::env::args().any(|a| a == "--full");
    let (codec_iters, rtt_n) = if smoke {
        (50_000, 500)
    } else {
        (500_000, 5_000)
    };
    let ks = keys();
    let reg = MetricsRegistry::new();

    println!("netbench ({})", if smoke { "smoke" } else { "full" });

    let data_rate = codec_rate(data_frame, codec_iters, &ks);
    reg.gauge("netbench.codec_msgs_per_sec").set(data_rate);
    reg.counter("netbench.codec_iters").add(codec_iters);
    println!(
        "  codec Data    : {:>12.0} msgs/sec (encode+decode)",
        data_rate
    );
    let control_rate = codec_rate(summary_frame, codec_iters / 5, &ks);
    reg.gauge("netbench.control_msgs_per_sec").set(control_rate);
    println!(
        "  codec Summary : {:>12.0} msgs/sec (seal+open, 16-entry report)",
        control_rate
    );

    let hub = LoopbackHub::group(&[rid(0), rid(1)]);
    let mut it = hub.into_iter();
    let (a, b) = (it.next().unwrap(), it.next().unwrap());
    let loop_hist = reg.histogram("netbench.loopback_rtt_ns");
    let (loop_p50, loop_p99) = rtt_percentiles(a, b, rtt_n, &loop_hist);
    println!(
        "  loopback RTT  : p50 {:>8} ns   p99 {:>8} ns",
        loop_p50, loop_p99
    );

    let udp = UdpNet::bind_group(&[rid(0), rid(1)]).expect("bind loopback sockets");
    let mut it = udp.into_iter();
    let (a, b) = (it.next().unwrap(), it.next().unwrap());
    let udp_hist = reg.histogram("netbench.udp_rtt_ns");
    let (udp_p50, udp_p99) = rtt_percentiles(a, b, rtt_n, &udp_hist);
    println!(
        "  UDP RTT       : p50 {:>8} ns   p99 {:>8} ns",
        udp_p50, udp_p99
    );
    reg.counter("netbench.rtt_samples").add(2 * rtt_n as u64);

    let snap = reg.snapshot();
    let json = format!(
        "{{\n  \"bench\": \"netbench\",\n  \"mode\": \"{}\",\n  \
         \"codec_msgs_per_sec\": {:.0},\n  \
         \"control_msgs_per_sec\": {:.0},\n  \
         \"loopback_rtt_ns\": {{ \"p50\": {}, \"p99\": {} }},\n  \
         \"udp_rtt_ns\": {{ \"p50\": {}, \"p99\": {} }},\n  \
         \"codec_iters\": {},\n  \"rtt_samples\": {},\n  \
         \"metrics\": {}\n}}\n",
        if smoke { "smoke" } else { "full" },
        data_rate,
        control_rate,
        loop_p50,
        loop_p99,
        udp_p50,
        udp_p99,
        codec_iters,
        rtt_n,
        snap.to_json()
    );
    std::fs::write("BENCH_net.json", &json).expect("write BENCH_net.json");
    println!("\nwrote BENCH_net.json");

    assert!(
        data_rate >= CODEC_FLOOR,
        "Data-frame codec throughput {data_rate:.0} msgs/sec is below the \
         {CODEC_FLOOR:.0} floor"
    );
    println!("codec throughput gate (>= {CODEC_FLOOR:.0} msgs/sec): ok");
    assert!(
        control_rate >= CONTROL_FLOOR,
        "Summary-frame throughput {control_rate:.0} msgs/sec is below the \
         {CONTROL_FLOOR:.0} floor"
    );
    println!("control throughput gate (>= {CONTROL_FLOOR:.0} msgs/sec): ok");
}
