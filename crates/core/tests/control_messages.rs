//! The one wire form of each Πk+2 control message — the exchange message
//! (`pik2::Message`, in its three kinds) and the signed alert
//! (`spec::SignedAlert`) — as any host's decoder meets it: with no seal
//! round it, since a peer that holds the key is the adversary too.
//!
//! For each: encode → decode is the identity; a truncation at every length
//! is an error; every single-bit flip is an error or a different value,
//! never a panic; and a digest's sketch capacity is refused on sight,
//! before the bytes behind it are looked at.

use fatih_core::monitor::{Report, ReportEntry};
use fatih_core::pik2::{Evidence, EvidenceKind, Message};
use fatih_core::spec::{Interval, SignedAlert, Suspicion};
use fatih_core::wire::{WireEncoder, WireError, WireReader, MAX_SKETCH_CAPACITY};
use fatih_crypto::{Fingerprint, KeyStore};
use fatih_sim::SimTime;
use fatih_topology::{PathSegment, RouterId};
use fatih_validation::digest::ContentDigest;
use fatih_validation::summary::ContentSummary;

fn segment() -> PathSegment {
    PathSegment::new([3, 6, 4].map(RouterId::from).to_vec())
}

/// One message of each kind.
fn messages() -> Vec<(EvidenceKind, Message)> {
    let entry = |i: u64| ReportEntry {
        fingerprint: Fingerprint::new(i * 131 + 7),
        size: 900,
        time: SimTime::from_ms(i),
    };
    let report = Report {
        entries: (0..6).map(entry).collect(),
    };
    let digest = |n: usize| {
        let mut summary = ContentSummary::default();
        for e in &report.entries[..n] {
            summary.observe(e.fingerprint, u64::from(e.size));
        }
        ContentDigest::of(&summary, 4)
    };
    let digests = Evidence::Digest {
        judged: digest(4),
        held: digest(6),
    };
    let said = [
        (EvidenceKind::Summary, Evidence::Summary(report.clone())),
        (EvidenceKind::Digest, digests),
        (EvidenceKind::Pull, Evidence::Pull),
    ];
    let message = |evidence| Message {
        round: 7,
        segment: segment(),
        evidence,
    };
    said.map(|(kind, evidence)| (kind, message(evidence)))
        .to_vec()
}

fn alert() -> SignedAlert {
    let mut keys = KeyStore::with_seed(11);
    keys.register(3);
    let suspicion = Suspicion {
        segment: segment(),
        interval: Interval::new(SimTime::from_secs(5), SimTime::from_secs(10)),
        raised_by: RouterId::from(3),
    };
    SignedAlert::sign(&keys, suspicion)
}

fn encoded(write: impl FnOnce(&mut WireEncoder)) -> Vec<u8> {
    let mut e = WireEncoder::new();
    write(&mut e);
    e.into_bytes()
}

/// A whole-input decode: the value, and nothing after it.
fn whole<T>(
    bytes: &[u8],
    read: impl FnOnce(&mut WireReader<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut rd = WireReader::new(bytes);
    let value = read(&mut rd)?;
    rd.done()?;
    Ok(value)
}

/// Round trip, truncations and bit flips of one encoded value.
fn check<T: PartialEq + std::fmt::Debug>(
    value: &T,
    bytes: &[u8],
    read: impl Fn(&mut WireReader<'_>) -> Result<T, WireError>,
) {
    assert_eq!(whole(bytes, &read).as_ref(), Ok(value));
    for cut in 0..bytes.len() {
        let short = whole(&bytes[..cut], &read);
        assert!(short.is_err(), "{cut} of {} bytes decoded", bytes.len());
    }
    let mut flipped = bytes.to_vec();
    for bit in 0..8 * bytes.len() {
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Ok(other) = whole(&flipped, &read) {
            assert_ne!(&other, value, "bit {bit} does not count");
        }
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

#[test]
fn an_exchange_message_of_each_kind_survives_the_wire_and_nothing_else_does() {
    for (kind, message) in messages() {
        let bytes = encoded(|e| message.encode_into(e));
        check(&message, &bytes, |rd| Message::decode_from(kind, rd));
    }
}

#[test]
fn a_signed_alert_survives_the_wire_and_nothing_else_does() {
    let alert = alert();
    let bytes = encoded(|e| alert.encode_into(e));
    check(&alert, &bytes, SignedAlert::decode_from);
}

/// Read as another kind, a message's bytes are too long or too short: the
/// kind its carrier names is part of what is authenticated.
#[test]
fn a_message_does_not_decode_as_another_kind() {
    let kinds = messages();
    for (kind, message) in &kinds {
        let bytes = encoded(|e| message.encode_into(e));
        for (other, _) in kinds.iter().filter(|(other, _)| other != kind) {
            let misread = whole(&bytes, |rd| Message::decode_from(*other, rd));
            assert!(misread.is_err(), "{kind:?} read as {other:?}");
        }
    }
}

/// The capacity is the first field of a digest: 0 and one past the cap are
/// refused there, with the rest of the digest not even present.
#[test]
fn a_sketch_capacity_out_of_bounds_is_refused_before_the_sketch_is_read() {
    for (capacity, refusal) in [
        (0, WireError::Invalid),
        (MAX_SKETCH_CAPACITY as u32 + 1, WireError::Oversize),
    ] {
        let bytes = encoded(|e| {
            e.u64(7).segment(&segment()).u32(capacity);
        });
        let read = whole(&bytes, |rd| Message::decode_from(EvidenceKind::Digest, rd));
        assert_eq!(read, Err(refusal), "capacity {capacity}");
    }
    // The largest capacity allowed is only short of its evaluations.
    let bytes = encoded(|e| {
        e.u64(7).segment(&segment()).u32(MAX_SKETCH_CAPACITY as u32);
    });
    let read = whole(&bytes, |rd| Message::decode_from(EvidenceKind::Digest, rd));
    assert_eq!(read, Err(WireError::UnexpectedEnd));
}
