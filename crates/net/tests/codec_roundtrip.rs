//! Round-trip and adversarial-input tests for the wire codec.
//!
//! Two properties, checked for every message type:
//!
//! 1. `decode(encode(msg)) == msg` — the codec is lossless.
//! 2. Malformed input — truncations at every length, bit flips at every
//!    position, arbitrary random bytes — always yields `Err`, never a
//!    panic and never a silently-wrong frame.

use fatih_core::monitor::{Report, ReportEntry};
use fatih_core::pik2::{Evidence, Message};
use fatih_core::spec::{Interval, SignedAlert, Suspicion};
use fatih_crypto::{Fingerprint, KeyStore};
use fatih_net::codec::{decode_frame, encode_frame, Frame, WireMessage};
use fatih_sim::{FlowId, Packet, PacketId, PacketKind, SimTime};
use fatih_topology::{PathSegment, RouterId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn keys() -> KeyStore {
    let mut ks = KeyStore::with_seed(0xC0DEC);
    for id in 0..8u32 {
        ks.register(id);
    }
    ks
}

fn rid(v: u32) -> RouterId {
    RouterId::from(v)
}

fn random_packet(rng: &mut StdRng) -> Packet {
    let id = PacketId(rng.gen::<u64>());
    Packet {
        id,
        src: rid(rng.gen_range(0..4)),
        dst: rid(rng.gen_range(4..8)),
        flow: FlowId(rng.gen::<u32>()),
        kind: match rng.gen_range(0u32..4) {
            0 => PacketKind::Data,
            1 => PacketKind::TcpSyn,
            2 => PacketKind::TcpAck,
            _ => PacketKind::TcpData,
        },
        size: rng.gen_range(40..1500),
        seq: rng.gen::<u64>(),
        payload_tag: Packet::expected_tag(id),
        ttl: rng.gen_range(1u8..65),
        created_at: SimTime::from_ns(rng.gen_range(0..u64::MAX / 2)),
    }
}

fn random_segment(rng: &mut StdRng) -> PathSegment {
    let len = rng.gen_range(2usize..6);
    let start = rng.gen_range(0usize..(8 - len));
    PathSegment::new((start..start + len).map(|v| rid(v as u32)).collect())
}

fn random_report(rng: &mut StdRng) -> Report {
    let n = rng.gen_range(0usize..20);
    // Observation times ascend, as a correct recorder appends them —
    // the codec rejects out-of-order reports as malformed.
    let mut t = 0u64;
    Report {
        entries: (0..n)
            .map(|_| {
                t += rng.gen_range(0u64..1 << 30);
                ReportEntry {
                    fingerprint: Fingerprint::new(rng.gen::<u64>()),
                    size: rng.gen_range(40..1500),
                    time: SimTime::from_ns(t),
                }
            })
            .collect(),
    }
}

fn random_interval(rng: &mut StdRng) -> Interval {
    let start = rng.gen_range(0..1u64 << 40);
    let end = start + rng.gen_range(0..1u64 << 30);
    Interval::new(SimTime::from_ns(start), SimTime::from_ns(end))
}

/// One random frame of every message type.
fn sample_frames(ks: &KeyStore, seed: u64) -> Vec<Frame> {
    let mut rng = StdRng::seed_from_u64(seed);
    let seg = random_segment(&mut rng);
    let iv = random_interval(&mut rng);
    let origin = rid(rng.gen_range(0..8));
    let alert = SignedAlert::sign(
        ks,
        Suspicion {
            segment: seg.clone(),
            interval: iv,
            raised_by: origin,
        },
    );
    vec![
        Frame {
            src: rid(0),
            dst: rid(1),
            seq: rng.gen::<u64>(),
            msg: WireMessage::Data {
                packet: random_packet(&mut rng),
                epoch: rng.gen::<u64>(),
            },
        },
        Frame {
            src: rid(2),
            dst: rid(3),
            seq: rng.gen::<u64>(),
            msg: WireMessage::Pik2(Message {
                round: rng.gen::<u64>(),
                segment: random_segment(&mut rng),
                evidence: Evidence::Summary(random_report(&mut rng)),
            }),
        },
        Frame {
            src: rid(4),
            dst: rid(5),
            seq: rng.gen::<u64>(),
            msg: WireMessage::Ack {
                msg_id: rng.gen::<u64>(),
            },
        },
        Frame {
            src: rid(6),
            dst: rid(7),
            seq: rng.gen::<u64>(),
            msg: WireMessage::Alert(alert),
        },
        Frame {
            src: rid(1),
            dst: rid(6),
            seq: rng.gen::<u64>(),
            msg: WireMessage::Accusation {
                segment: seg,
                interval: iv,
            },
        },
    ]
}

#[test]
fn every_message_type_round_trips() {
    let ks = keys();
    for seed in 0..20 {
        for frame in sample_frames(&ks, seed) {
            let bytes = encode_frame(&frame, &ks).expect("encodable");
            let back = decode_frame(&bytes, &ks).expect("decodable");
            assert_eq!(back, frame, "round-trip mismatch (seed {seed})");
        }
    }
}

#[test]
fn truncation_at_every_length_errors_never_panics() {
    let ks = keys();
    for frame in sample_frames(&ks, 7) {
        let bytes = encode_frame(&frame, &ks).expect("encodable");
        for cut in 0..bytes.len() {
            assert!(
                decode_frame(&bytes[..cut], &ks).is_err(),
                "truncated frame ({cut}/{} bytes) decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn bit_flips_never_panic_and_never_forge_control_frames() {
    let ks = keys();
    for frame in sample_frames(&ks, 11) {
        let is_control = !matches!(frame.msg, WireMessage::Data { .. });
        let bytes = encode_frame(&frame, &ks).expect("encodable");
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupted = bytes.clone();
                corrupted[pos] ^= 1 << bit;
                let decoded = decode_frame(&corrupted, &ks);
                if is_control {
                    // MAC'd frames: any single-bit change must be
                    // rejected outright.
                    assert!(
                        decoded.is_err(),
                        "flipped bit {bit} at byte {pos} still authenticated"
                    );
                } else {
                    // Data frames carry no MAC (integrity comes from the
                    // fingerprinting layer); decoding may succeed but must
                    // never panic — reaching this point is the assertion.
                    let _ = decoded;
                }
            }
        }
    }
}

#[test]
fn arbitrary_bytes_error_never_panic() {
    let ks = keys();
    let mut rng = StdRng::seed_from_u64(0xFEED);
    for _ in 0..2000 {
        let len = rng.gen_range(0usize..256);
        let junk: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        assert!(decode_frame(&junk, &ks).is_err());
    }
    // Junk that starts with a plausible header prefix.
    for _ in 0..2000 {
        let len = rng.gen_range(2usize..128);
        let mut junk: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        junk[0] = 0xF7; // MAGIC
        junk[1] = 0x01; // VERSION
        assert!(decode_frame(&junk, &ks).is_err());
    }
}
