//! The fatih wire format: binary frames for data and control messages.
//!
//! Every frame is laid out as
//!
//! ```text
//! offset  size  field
//! 0       1     magic (0xF7)
//! 1       1     version (0x01)
//! 2       1     message type ([`MsgType`], table below)
//! 3       4     source router id, u32 LE
//! 7       4     destination router id, u32 LE
//! 11      8     frame sequence number, u64 LE
//! 19      4     body length in bytes, u32 LE
//! 23      n     tagged body (fatih_core::wire::WireEncoder layout)
//! [23+n]  32    HMAC-SHA256 trailer — control frames only
//! ```
//!
//! Control frames (everything except [`MsgType::Data`]) are sealed with an
//! HMAC-SHA256 trailer under the **pairwise key** of the frame's source
//! and destination (`fatih_crypto::frame`), computed over the entire
//! preceding frame, header included. A forged, truncated, or bit-flipped
//! control frame is therefore rejected before any field is interpreted.
//! Data frames are not MAC'd — exactly as in the simulator, transit
//! traffic is instead covered by the keyed per-segment fingerprints and
//! the packet's own integrity tag ([`Packet::intact`]), so a modification
//! in flight surfaces as a traffic-validation failure, not a codec error.
//!
//! Alerts and link-state updates additionally carry an **inner signature**
//! by their origin router over their semantic content, so one relayed by a
//! third party is still attributable to its origin.
//!
//! The eight message types, and where each body's fields are laid out —
//! this module frames, seals and dispatches on the type byte; a Πk+2
//! control message has its one encoding beside its type in `fatih-core`:
//!
//! ```text
//! byte  type           body
//! 1     Data           the packet and its route epoch         here
//! 2     Summary        round, segment, report                 fatih_core::pik2::Message
//! 3     Ack            the acknowledged sequence number       here
//! 4     Alert          suspicion, origin's signature          fatih_core::spec::SignedAlert
//! 5     Accusation     segment, interval                      here
//! 6     SummaryDigest  round, segment, judged + held digest   fatih_core::pik2::Message
//! 7     SummaryPull    round, segment                         fatih_core::pik2::Message
//! 8     LinkState      update, origin's signature             crate::linkstate::LinkStateUpdate
//! ```
//!
//! A Summary's report is one length-framed field in its record's columns
//! (`fatih_core::monitor::Report::encode`, the layout of
//! `fatih_core::monitor::Record`), little-endian:
//!
//! ```text
//! size  field
//! 8     entry count n
//! 4     time marks m
//! 4     size runs s
//! 8n    fingerprints
//! 4n    low 32 bits of each entry's ns time
//! 8m    marks: (first index, high 32 bits of the time)
//! 8s    runs: (first index, size)
//! ```

use crate::linkstate::LinkStateUpdate;
use fatih_core::pik2::{Evidence, EvidenceKind, Message};
use fatih_core::spec::{Interval, SignedAlert};
use fatih_core::wire::{WireEncoder, WireError, WireReader};
use fatih_crypto::frame::{open_frame, MAC_LEN};
use fatih_crypto::hmac::hmac_sha256;
use fatih_crypto::{KeyStore, Signature};
use fatih_sim::{FlowId, Packet, PacketId, PacketKind};
use fatih_topology::{PathSegment, RouterId};

/// First byte of every fatih frame.
pub const MAGIC: u8 = 0xF7;
/// Wire-format version this codec speaks.
pub const VERSION: u8 = 0x01;
/// Fixed header length in bytes (before the tagged body).
pub const HEADER_LEN: usize = 23;
/// Largest frame this codec will emit or accept — fits one UDP datagram.
pub const MAX_FRAME: usize = 65_000;

/// Message type discriminant, third byte of the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgType {
    /// A transit data packet (hop-by-hop forwarded, not MAC'd).
    Data,
    /// A per-segment traffic summary `info(r, π, τ)` for one round.
    Summary,
    /// Acknowledgment of a reliable control frame.
    Ack,
    /// A signed alert: the raiser's suspicion, attributable to its origin.
    Alert,
    /// A timeout accusation: the peer's summary never arrived.
    Accusation,
    /// Fixed-size digests of a per-segment record (reconciliation first).
    SummaryDigest,
    /// Fallback request for the full summary after a digest failed to
    /// reconcile.
    SummaryPull,
    /// A flooded, origin-signed topology change (conviction, join/leave,
    /// link flap).
    LinkState,
}

impl MsgType {
    /// The header byte for this type.
    pub fn as_byte(self) -> u8 {
        match self {
            MsgType::Data => 1,
            MsgType::Summary => 2,
            MsgType::Ack => 3,
            MsgType::Alert => 4,
            MsgType::Accusation => 5,
            MsgType::SummaryDigest => 6,
            MsgType::SummaryPull => 7,
            MsgType::LinkState => 8,
        }
    }

    /// Parses a header byte.
    pub fn from_byte(b: u8) -> Option<MsgType> {
        match b {
            1 => Some(MsgType::Data),
            2 => Some(MsgType::Summary),
            3 => Some(MsgType::Ack),
            4 => Some(MsgType::Alert),
            5 => Some(MsgType::Accusation),
            6 => Some(MsgType::SummaryDigest),
            7 => Some(MsgType::SummaryPull),
            8 => Some(MsgType::LinkState),
            _ => None,
        }
    }

    /// Whether frames of this type carry a MAC trailer.
    pub fn is_control(self) -> bool {
        self != MsgType::Data
    }
}

/// The payload of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMessage {
    /// A transit data packet, tagged with the routing epoch it was emitted
    /// under. After a reconvergence, frames from the old epoch keep
    /// draining hop-by-hop but are no longer fed to traffic validation —
    /// the epoch tag is how receivers tell the difference.
    Data {
        /// The packet itself.
        packet: Packet,
        /// Routing epoch of the emitting flow source.
        epoch: u64,
    },
    /// What one end of a segment tells the other about a round: a summary,
    /// digests of it, or a pull ([`MsgType::Summary`],
    /// [`MsgType::SummaryDigest`], [`MsgType::SummaryPull`] on the wire).
    Pik2(Message),
    /// Acknowledges the reliable control frame with sequence `msg_id`.
    Ack {
        /// Sequence number of the acknowledged frame.
        msg_id: u64,
    },
    /// A suspicion, signed by its origin so relays stay attributable.
    Alert(SignedAlert),
    /// Timeout-as-accusation: the sender never received its peer's
    /// summary for this segment and interval.
    Accusation {
        /// The segment whose exchange timed out.
        segment: PathSegment,
        /// The measurement interval of the missing summary.
        interval: Interval,
    },
    /// A flooded topology change, attributable to its origin via the inner
    /// signature over [`crate::linkstate::ls_sign_bytes`].
    LinkState {
        /// The update being flooded.
        update: LinkStateUpdate,
        /// The origin's signature over the update's semantic content.
        sig: Signature,
    },
}

impl WireMessage {
    /// This message's wire type.
    pub fn msg_type(&self) -> MsgType {
        match self {
            WireMessage::Data { .. } => MsgType::Data,
            WireMessage::Pik2(m) => match m.evidence {
                Evidence::Summary(_) => MsgType::Summary,
                Evidence::Digest { .. } => MsgType::SummaryDigest,
                Evidence::Pull => MsgType::SummaryPull,
            },
            WireMessage::Ack { .. } => MsgType::Ack,
            WireMessage::Alert(_) => MsgType::Alert,
            WireMessage::Accusation { .. } => MsgType::Accusation,
            WireMessage::LinkState { .. } => MsgType::LinkState,
        }
    }
}

/// One addressed frame: what a [`crate::transport::Transport`] carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sending router (the MAC key is the (src, dst) pairwise key).
    pub src: RouterId,
    /// Receiving router.
    pub dst: RouterId,
    /// Per-sender frame sequence number (acked by reliable control).
    pub seq: u64,
    /// The payload.
    pub msg: WireMessage,
}

/// Why a byte string was rejected by [`decode_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Shorter than the fixed header.
    TooShort,
    /// First byte is not [`MAGIC`].
    BadMagic,
    /// Unsupported version byte.
    BadVersion(u8),
    /// Unknown message-type byte.
    UnknownType(u8),
    /// The header's body length disagrees with the frame length.
    BadLength,
    /// A control frame's MAC trailer failed to verify.
    BadMac,
    /// The frame names a router the key store has never registered.
    UnknownRouter(u32),
    /// A tagged body field failed to decode.
    Field(WireError),
    /// A value this module decodes violates its invariants (unknown packet
    /// kind or link-state variant, frame too large to emit).
    Invalid,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::TooShort => write!(f, "frame shorter than the header"),
            CodecError::BadMagic => write!(f, "bad magic byte"),
            CodecError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            CodecError::UnknownType(t) => write!(f, "unknown message type {t}"),
            CodecError::BadLength => write!(f, "body length disagrees with frame length"),
            CodecError::BadMac => write!(f, "control frame MAC rejected"),
            CodecError::UnknownRouter(r) => write!(f, "unregistered router {r}"),
            CodecError::Field(e) => write!(f, "body field: {e}"),
            CodecError::Invalid => write!(f, "decoded value violates invariants"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> Self {
        CodecError::Field(e)
    }
}

fn kind_code(kind: PacketKind) -> u32 {
    match kind {
        PacketKind::Data => 0,
        PacketKind::TcpSyn => 1,
        PacketKind::TcpSynAck => 2,
        PacketKind::TcpAck => 3,
        PacketKind::TcpData => 4,
        PacketKind::Ping => 5,
        PacketKind::Pong => 6,
        PacketKind::Control => 7,
    }
}

fn kind_from_code(code: u32) -> Option<PacketKind> {
    Some(match code {
        0 => PacketKind::Data,
        1 => PacketKind::TcpSyn,
        2 => PacketKind::TcpSynAck,
        3 => PacketKind::TcpAck,
        4 => PacketKind::TcpData,
        5 => PacketKind::Ping,
        6 => PacketKind::Pong,
        7 => PacketKind::Control,
        _ => return None,
    })
}

fn encode_body(msg: &WireMessage, e: &mut WireEncoder) {
    match msg {
        WireMessage::Data { packet: p, epoch } => {
            e.u64(p.id.0)
                .router(p.src)
                .router(p.dst)
                .u32(p.flow.0)
                .u32(kind_code(p.kind))
                .u32(p.size)
                .u64(p.seq)
                .u64(p.payload_tag)
                .u32(p.ttl as u32)
                .time(p.created_at)
                .u64(*epoch);
        }
        WireMessage::Pik2(message) => message.encode_into(e),
        WireMessage::Ack { msg_id } => {
            e.u64(*msg_id);
        }
        WireMessage::Alert(alert) => alert.encode_into(e),
        WireMessage::Accusation { segment, interval } => {
            e.segment(segment);
            interval.encode_into(e);
        }
        WireMessage::LinkState { update, sig } => {
            update.encode_into(e);
            e.signature(sig);
        }
    }
}

/// Encodes (and for control frames, seals) one frame for the wire.
///
/// Fails with [`CodecError::Invalid`] if the frame would exceed
/// [`MAX_FRAME`], and with [`CodecError::UnknownRouter`] if a control
/// frame's endpoints are not both registered with the key store.
pub fn encode_frame(frame: &Frame, keys: &KeyStore) -> Result<Vec<u8>, CodecError> {
    // Room for a data frame or an ack: one allocation.
    let mut out = Vec::with_capacity(256);
    encode_frame_into(frame, keys, &mut out)?;
    Ok(out)
}

/// [`encode_frame`] appended to `buf`, with no allocation once `buf` has
/// room: the header, then the body through a [`WireEncoder`] over the same
/// buffer, then the body length patched into the header, then the MAC over
/// everything from the header on. On an error `buf` is as it was.
pub fn encode_frame_into(
    frame: &Frame,
    keys: &KeyStore,
    buf: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let ty = frame.msg.msg_type();
    let (src, dst) = (u32::from(frame.src), u32::from(frame.dst));
    let start = buf.len();
    buf.extend_from_slice(&[MAGIC, VERSION, ty.as_byte()]);
    buf.extend_from_slice(&src.to_le_bytes());
    buf.extend_from_slice(&dst.to_le_bytes());
    buf.extend_from_slice(&frame.seq.to_le_bytes());
    buf.extend_from_slice(&[0; 4]); // the body length, once known
    let mut e = WireEncoder::over(std::mem::take(buf));
    encode_body(&frame.msg, &mut e);
    *buf = e.into_bytes();
    let body = buf.len() - start - HEADER_LEN;
    let mac = if ty.is_control() { MAC_LEN } else { 0 };
    if HEADER_LEN + body + mac > MAX_FRAME {
        buf.truncate(start);
        return Err(CodecError::Invalid);
    }
    let at = start + HEADER_LEN - 4;
    buf[at..at + 4].copy_from_slice(&(body as u32).to_le_bytes());
    if ty.is_control() {
        for r in [src, dst] {
            if !keys.contains(r) {
                buf.truncate(start);
                return Err(CodecError::UnknownRouter(r));
            }
        }
        let mac = hmac_sha256(&keys.pairwise_key(src, dst), &buf[start..]);
        buf.extend_from_slice(&mac.0);
    }
    Ok(())
}

/// Peeks a frame's message type without decoding it: how
/// [`SimHost::silence`](crate::SimHost::silence) picks out the Πk+2
/// frames a silenced router withholds. `None` if the bytes are not even a
/// plausible frame header.
pub fn peek_type(bytes: &[u8]) -> Option<MsgType> {
    if bytes.len() < HEADER_LEN || bytes[0] != MAGIC || bytes[1] != VERSION {
        return None;
    }
    MsgType::from_byte(bytes[2])
}

/// Decodes (and for control frames, authenticates) one frame.
///
/// Never panics: arbitrary, truncated or bit-flipped input yields a
/// [`CodecError`], and so does a malformed body under a valid seal — a
/// peer that holds the pairwise key is exactly the protocol-faulty router
/// of §2.2.1.
pub fn decode_frame(bytes: &[u8], keys: &KeyStore) -> Result<Frame, CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::TooShort);
    }
    if bytes[0] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    if bytes[1] != VERSION {
        return Err(CodecError::BadVersion(bytes[1]));
    }
    let ty = MsgType::from_byte(bytes[2]).ok_or(CodecError::UnknownType(bytes[2]))?;
    let src_raw = u32::from_le_bytes(bytes[3..7].try_into().expect("4 bytes"));
    let dst_raw = u32::from_le_bytes(bytes[7..11].try_into().expect("4 bytes"));
    let seq = u64::from_le_bytes(bytes[11..19].try_into().expect("8 bytes"));
    let body_len = u32::from_le_bytes(bytes[19..23].try_into().expect("4 bytes")) as usize;

    let body = if ty.is_control() {
        // Authenticate before interpreting a single body field.
        if !keys.contains(src_raw) {
            return Err(CodecError::UnknownRouter(src_raw));
        }
        if !keys.contains(dst_raw) {
            return Err(CodecError::UnknownRouter(dst_raw));
        }
        let key = keys.pairwise_key(src_raw, dst_raw);
        let authed = open_frame(&key, bytes).ok_or(CodecError::BadMac)?;
        if authed.len() != HEADER_LEN + body_len {
            return Err(CodecError::BadLength);
        }
        &authed[HEADER_LEN..]
    } else {
        if bytes.len() != HEADER_LEN + body_len {
            return Err(CodecError::BadLength);
        }
        &bytes[HEADER_LEN..]
    };

    let mut rd = WireReader::new(body);
    let msg = match ty {
        MsgType::Data => {
            let id = PacketId(rd.u64()?);
            let src = rd.router()?;
            let dst = rd.router()?;
            let flow = FlowId(rd.u32()?);
            let kind = kind_from_code(rd.u32()?).ok_or(CodecError::Invalid)?;
            let size = rd.u32()?;
            let pseq = rd.u64()?;
            let payload_tag = rd.u64()?;
            let ttl = u8::try_from(rd.u32()?).map_err(|_| CodecError::Invalid)?;
            let created_at = rd.time()?;
            let epoch = rd.u64()?;
            WireMessage::Data {
                packet: Packet {
                    id,
                    src,
                    dst,
                    flow,
                    kind,
                    size,
                    seq: pseq,
                    payload_tag,
                    ttl,
                    created_at,
                },
                epoch,
            }
        }
        MsgType::Summary => pik2(EvidenceKind::Summary, &mut rd)?,
        MsgType::SummaryDigest => pik2(EvidenceKind::Digest, &mut rd)?,
        MsgType::SummaryPull => pik2(EvidenceKind::Pull, &mut rd)?,
        MsgType::Ack => WireMessage::Ack { msg_id: rd.u64()? },
        MsgType::Alert => WireMessage::Alert(SignedAlert::decode_from(&mut rd)?),
        MsgType::Accusation => WireMessage::Accusation {
            segment: rd.segment()?,
            interval: Interval::decode_from(&mut rd)?,
        },
        MsgType::LinkState => {
            let update = LinkStateUpdate::decode_from(&mut rd)?.ok_or(CodecError::Invalid)?;
            let sig = rd.signature()?;
            WireMessage::LinkState { update, sig }
        }
    };
    rd.done()?;
    Ok(Frame {
        src: RouterId::from(src_raw),
        dst: RouterId::from(dst_raw),
        seq,
        msg,
    })
}

fn pik2(kind: EvidenceKind, rd: &mut WireReader<'_>) -> Result<WireMessage, CodecError> {
    Ok(WireMessage::Pik2(Message::decode_from(kind, rd)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_core::monitor::{Report, ReportEntry};
    use fatih_core::spec::Suspicion;
    use fatih_crypto::frame::seal_frame;
    use fatih_crypto::Fingerprint;
    use fatih_sim::SimTime;
    use fatih_validation::digest::ContentDigest;

    fn keystore() -> KeyStore {
        let mut ks = KeyStore::with_seed(11);
        for r in 0..8 {
            ks.register(r);
        }
        ks
    }

    fn sample_packet() -> Packet {
        Packet {
            id: PacketId(99),
            src: RouterId::from(0),
            dst: RouterId::from(5),
            flow: FlowId(2),
            kind: PacketKind::Data,
            size: 1000,
            seq: 17,
            payload_tag: Packet::expected_tag(PacketId(99)),
            ttl: 61,
            created_at: SimTime::from_ms(42),
        }
    }

    #[test]
    fn data_frame_round_trips_without_mac() {
        let ks = keystore();
        let f = Frame {
            src: RouterId::from(1),
            dst: RouterId::from(2),
            seq: 7,
            msg: WireMessage::Data {
                packet: sample_packet(),
                epoch: 3,
            },
        };
        let bytes = encode_frame(&f, &ks).unwrap();
        assert_eq!(peek_type(&bytes), Some(MsgType::Data));
        assert_eq!(decode_frame(&bytes, &ks).unwrap(), f);
    }

    #[test]
    fn link_state_frame_round_trips_and_authenticates() {
        use crate::linkstate::{sign_link_state, verify_link_state, TopoUpdate};
        let ks = keystore();
        let update = LinkStateUpdate {
            origin: RouterId::from(2),
            update_seq: 5,
            t_origin_ns: 900_000_000,
            update: TopoUpdate::ExcludeSegment(PathSegment::new(vec![
                RouterId::from(2),
                RouterId::from(6),
                RouterId::from(4),
            ])),
        };
        let sig = sign_link_state(&ks, &update);
        let f = Frame {
            src: RouterId::from(2),
            dst: RouterId::from(6),
            seq: 11,
            msg: WireMessage::LinkState {
                update: update.clone(),
                sig,
            },
        };
        let bytes = encode_frame(&f, &ks).unwrap();
        assert_eq!(peek_type(&bytes), Some(MsgType::LinkState));
        match decode_frame(&bytes, &ks).unwrap().msg {
            WireMessage::LinkState { update: u, sig: s } => {
                assert_eq!(u, update);
                assert!(verify_link_state(&ks, &u, &s));
            }
            other => panic!("wrong message: {other:?}"),
        }

        // Link-state frames are control frames: a bit flip is caught by the
        // hop MAC before the inner signature is even consulted.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 4] ^= 0x08;
        assert_eq!(decode_frame(&bad, &ks), Err(CodecError::BadMac));
    }

    #[test]
    fn summary_frame_round_trips_and_authenticates() {
        let ks = keystore();
        let report = Report {
            entries: vec![ReportEntry {
                fingerprint: Fingerprint::new(5),
                size: 900,
                time: SimTime::from_ms(3),
            }],
        };
        let f = Frame {
            src: RouterId::from(3),
            dst: RouterId::from(4),
            seq: 1,
            msg: WireMessage::Pik2(Message {
                round: 2,
                segment: PathSegment::new(vec![
                    RouterId::from(3),
                    RouterId::from(6),
                    RouterId::from(4),
                ]),
                evidence: Evidence::Summary(report),
            }),
        };
        let bytes = encode_frame(&f, &ks).unwrap();
        assert_eq!(peek_type(&bytes), Some(MsgType::Summary));
        assert_eq!(decode_frame(&bytes, &ks).unwrap(), f);

        // A bit flip anywhere in a control frame is caught by the MAC.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 2] ^= 0x40;
        assert_eq!(decode_frame(&bad, &ks), Err(CodecError::BadMac));
    }

    /// The seal says who wrote a frame, not that it is well-formed: a peer
    /// holding the pairwise key seals a summary whose report claims
    /// 1 + 2^62 entries over one entry's bytes (the count that wraps the
    /// length check round to the true length). An error like any other.
    #[test]
    fn a_crafted_report_under_a_valid_seal_is_an_error_not_a_panic() {
        let ks = keystore();
        let one_entry = Report {
            entries: vec![ReportEntry {
                fingerprint: Fingerprint::new(5),
                size: 900,
                time: SimTime::from_ms(3),
            }],
        };
        let f = Frame {
            src: RouterId::from(3),
            dst: RouterId::from(4),
            seq: 1,
            msg: WireMessage::Pik2(Message {
                round: 2,
                segment: PathSegment::new(vec![RouterId::from(3), RouterId::from(4)]),
                evidence: Evidence::Summary(one_entry),
            }),
        };
        let mut bytes = encode_frame(&f, &ks).unwrap();
        bytes.truncate(bytes.len() - MAC_LEN);
        // The report is the body's last field: a 16-byte header, count
        // first, then one entry's 12 bytes, a time mark and a size run;
        // 12 × (1 + 2^62) + 16 wraps round to those 28 bytes.
        let count = bytes.len() - 44;
        assert_eq!(bytes[count..count + 8], 1u64.to_le_bytes());
        bytes[count..count + 8].copy_from_slice(&(1u64 + (1 << 62)).to_le_bytes());
        seal_frame(&ks.pairwise_key(3, 4), &mut bytes);
        assert_eq!(
            decode_frame(&bytes, &ks),
            Err(CodecError::Field(WireError::Invalid))
        );
    }

    #[test]
    fn summary_digest_round_trips_and_authenticates() {
        use fatih_validation::summary::ContentSummary;
        let ks = keystore();
        let mut mature = ContentSummary::default();
        let mut full = ContentSummary::default();
        for i in 0u64..300 {
            full.observe(Fingerprint::new(i * 131 + 7), 900);
            if i < 250 {
                mature.observe(Fingerprint::new(i * 131 + 7), 900);
            }
        }
        let f = Frame {
            src: RouterId::from(2),
            dst: RouterId::from(5),
            seq: 4,
            msg: WireMessage::Pik2(Message {
                round: 3,
                segment: PathSegment::new(vec![
                    RouterId::from(2),
                    RouterId::from(7),
                    RouterId::from(5),
                ]),
                evidence: Evidence::Digest {
                    judged: ContentDigest::of(&mature, 16),
                    held: ContentDigest::of(&full, 16),
                },
            }),
        };
        let bytes = encode_frame(&f, &ks).unwrap();
        assert_eq!(peek_type(&bytes), Some(MsgType::SummaryDigest));
        assert_eq!(decode_frame(&bytes, &ks).unwrap(), f);
        // The digest frame is fixed-size: far smaller than the ~300-entry
        // full summary it stands in for.
        assert!(
            bytes.len() < 300 * 12 / 2,
            "digest frame {} bytes",
            bytes.len()
        );

        // Digest frames are control frames: bit flips are caught.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 9] ^= 0x01;
        assert_eq!(decode_frame(&bad, &ks), Err(CodecError::BadMac));
    }

    #[test]
    fn summary_pull_round_trips() {
        let ks = keystore();
        let f = Frame {
            src: RouterId::from(4),
            dst: RouterId::from(1),
            seq: 12,
            msg: WireMessage::Pik2(Message {
                round: 9,
                segment: PathSegment::new(vec![RouterId::from(1), RouterId::from(4)]),
                evidence: Evidence::Pull,
            }),
        };
        let bytes = encode_frame(&f, &ks).unwrap();
        assert_eq!(peek_type(&bytes), Some(MsgType::SummaryPull));
        assert_eq!(decode_frame(&bytes, &ks).unwrap(), f);
    }

    #[test]
    fn alert_inner_signature_survives_the_frame() {
        let ks = keystore();
        let suspicion = Suspicion {
            segment: PathSegment::new(vec![
                RouterId::from(1),
                RouterId::from(2),
                RouterId::from(3),
            ]),
            interval: Interval::new(SimTime::ZERO, SimTime::from_secs(1)),
            raised_by: RouterId::from(1),
        };
        let f = Frame {
            src: RouterId::from(1),
            dst: RouterId::from(3),
            seq: 9,
            msg: WireMessage::Alert(SignedAlert::sign(&ks, suspicion)),
        };
        let bytes = encode_frame(&f, &ks).unwrap();
        assert_eq!(peek_type(&bytes), Some(MsgType::Alert));
        match decode_frame(&bytes, &ks).unwrap().msg {
            WireMessage::Alert(alert) => assert!(alert.verify(&ks)),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn wrong_pairwise_key_rejected() {
        let ks = keystore();
        let f = Frame {
            src: RouterId::from(1),
            dst: RouterId::from(2),
            seq: 3,
            msg: WireMessage::Ack { msg_id: 8 },
        };
        let mut bytes = encode_frame(&f, &ks).unwrap();
        // Redirect the frame to a different destination: the MAC no longer
        // matches the claimed (src, dst) pair.
        bytes[7..11].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(decode_frame(&bytes, &ks), Err(CodecError::BadMac));
    }

    #[test]
    fn unregistered_endpoints_rejected() {
        let ks = keystore();
        let f = Frame {
            src: RouterId::from(100),
            dst: RouterId::from(2),
            seq: 0,
            msg: WireMessage::Ack { msg_id: 1 },
        };
        assert_eq!(encode_frame(&f, &ks), Err(CodecError::UnknownRouter(100)));
    }

    #[test]
    fn garbage_and_header_errors() {
        let ks = keystore();
        assert_eq!(decode_frame(b"short", &ks), Err(CodecError::TooShort));
        let mut bytes = encode_frame(
            &Frame {
                src: RouterId::from(0),
                dst: RouterId::from(1),
                seq: 0,
                msg: WireMessage::Data {
                    packet: sample_packet(),
                    epoch: 0,
                },
            },
            &ks,
        )
        .unwrap();
        let good = bytes.clone();
        bytes[0] = 0x00;
        assert_eq!(decode_frame(&bytes, &ks), Err(CodecError::BadMagic));
        bytes = good.clone();
        bytes[1] = 0x09;
        assert_eq!(decode_frame(&bytes, &ks), Err(CodecError::BadVersion(0x09)));
        bytes = good.clone();
        bytes[2] = 0xEE;
        assert_eq!(
            decode_frame(&bytes, &ks),
            Err(CodecError::UnknownType(0xEE))
        );
        // Truncated data frame: length disagreement.
        assert_eq!(
            decode_frame(&good[..good.len() - 1], &ks),
            Err(CodecError::BadLength)
        );
    }
}
