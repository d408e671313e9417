//! Golden bytes: one frame of each Πk+2 control type, captured from the
//! commit before the codec began carrying `fatih-core`'s message types
//! (`fatih_core::pik2::Message`, `fatih_core::spec::SignedAlert`). Where a
//! message's fields are laid out may move; the bytes on the live wire may
//! not — a router at that commit and one at this must read each other's
//! frames.
//!
//! One exception: `SUMMARY` was recorded again when a summary's report
//! began crossing the wire in its record's columns (`monitor::Record`:
//! fingerprints, low time words, time marks, size runs) instead of 20-byte
//! rows. Its frame is 16 bytes longer here, since the two entries' sizes
//! differ. Every other frame is the bytes it was.

use fatih_core::monitor::{Report, ReportEntry};
use fatih_core::pik2::{Evidence, Message};
use fatih_core::spec::{Interval, SignedAlert, Suspicion};
use fatih_crypto::{Fingerprint, KeyStore};
use fatih_net::codec::{decode_frame, encode_frame, peek_type, Frame, MsgType, WireMessage};
use fatih_sim::SimTime;
use fatih_topology::{PathSegment, RouterId};
use fatih_validation::digest::ContentDigest;
use fatih_validation::summary::ContentSummary;

const SUMMARY: &[&str] = &[
    "f70102030000000400000001000000000000005f000000020200000000000000",
    "0503000000030000000600000004000000064000000002000000000000000100",
    "000002000000050000000000000013f0ad0befbead1ec0c62d0000093d000000",
    "000000000000000000008403000001000000dc050000e3cb4fba9b46f1ce6e82",
    "652870f58415ce7599688ac38bb15c8c3fe1537ac2d5",
];

const SUMMARY_DIGEST: &[&str] = &[
    "f7010602000000050000000400000000000000d6000000020300000000000000",
    "0503000000020000000700000005000000010400000002040000000000000006",
    "30000000d0192d0700000000e8862e0800000000606036090000000088b9440a",
    "00000000c8a5590b00000000a038750c0000000002040000000000000002100e",
    "00000000000002a1c690b882cf4c4c0104000000020600000000000000063000",
    "0000c061c84f9f260000c0ac17022f2c0000406e3afaea310000b00f8d01d437",
    "000040b2a6e3ea3d000080e55c6e304400000206000000000000000218150000",
    "0000000002a7e5548984d866b72af3afec8d90ad42065e7831071003314b4df4",
    "73f880d26a47b9aeb387bd5df2",
];

const SUMMARY_PULL: &[&str] = &[
    "f7010704000000010000000c0000000000000016000000020900000000000000",
    "050200000001000000040000002ef925fcdd209430766034727bd63b5f47e9d6",
    "7f491b6515d29d2fc4b44fd59e",
];

const ALERT: &[&str] = &[
    "f70104010000000300000009000000000000004d000000030100000005030000",
    "000100000002000000030000000400000000000000000400ca9a3b0000000006",
    "2000000015e40c76aecfd74ee4f5733468ba74e781d1928f8e1c1f325307c7c5",
    "cc41801dfba6160bb7be9a7992ab10d6c769d37a9605f4dfe9471b25a521b67b",
    "ea2e5564",
];

fn rid(v: u32) -> RouterId {
    RouterId::from(v)
}

fn seg(routers: &[u32]) -> PathSegment {
    PathSegment::new(routers.iter().map(|&r| rid(r)).collect())
}

fn pik2(src: u32, dst: u32, seq: u64, round: u64, segment: PathSegment, said: Evidence) -> Frame {
    let message = Message {
        round,
        segment,
        evidence: said,
    };
    Frame {
        src: rid(src),
        dst: rid(dst),
        seq,
        msg: WireMessage::Pik2(message),
    }
}

#[test]
fn control_frames_are_the_bytes_they_were() {
    let mut ks = KeyStore::with_seed(11);
    for r in 0..8 {
        ks.register(r);
    }
    let report = Report {
        entries: vec![
            ReportEntry {
                fingerprint: Fingerprint::new(5),
                size: 900,
                time: SimTime::from_ms(3),
            },
            ReportEntry {
                fingerprint: Fingerprint::new(0xDEAD_BEEF_0BAD_F00D),
                size: 1500,
                time: SimTime::from_ms(4),
            },
        ],
    };
    let mut judged = ContentSummary::default();
    let mut held = ContentSummary::default();
    for i in 0u64..6 {
        held.observe(Fingerprint::new(i * 131 + 7), 900);
        if i < 4 {
            judged.observe(Fingerprint::new(i * 131 + 7), 900);
        }
    }
    let digests = Evidence::Digest {
        judged: ContentDigest::of(&judged, 4),
        held: ContentDigest::of(&held, 4),
    };
    let suspicion = Suspicion {
        segment: seg(&[1, 2, 3]),
        interval: Interval::new(SimTime::ZERO, SimTime::from_secs(1)),
        raised_by: rid(1),
    };
    let alert = Frame {
        src: rid(1),
        dst: rid(3),
        seq: 9,
        msg: WireMessage::Alert(SignedAlert::sign(&ks, suspicion)),
    };
    let cases = [
        (
            MsgType::Summary,
            pik2(3, 4, 1, 2, seg(&[3, 6, 4]), Evidence::Summary(report)),
            SUMMARY,
        ),
        (
            MsgType::SummaryDigest,
            pik2(2, 5, 4, 3, seg(&[2, 7, 5]), digests),
            SUMMARY_DIGEST,
        ),
        (
            MsgType::SummaryPull,
            pik2(4, 1, 12, 9, seg(&[1, 4]), Evidence::Pull),
            SUMMARY_PULL,
        ),
        (MsgType::Alert, alert, ALERT),
    ];
    for (ty, frame, golden) in cases {
        let bytes = encode_frame(&frame, &ks).expect("encodable");
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden.concat(), "{ty:?} frame changed on the wire");
        assert_eq!(peek_type(&bytes), Some(ty));
        assert_eq!(decode_frame(&bytes, &ks).expect("decodable"), frame);
    }
}
