//! Canonical byte encoding for signed protocol messages.
//!
//! Protocol Π2 disseminates digitally signed traffic reports
//! (`[info(i, π, τ)]_i`, Figure 5.1) and Protocol Πk+2 exchanges MAC'd
//! summaries; both need a deterministic byte representation to sign.
//!
//! [`WireEncoder`] / [`WireReader`] are the tagged, self-describing layout
//! every control message is written in — the Πk+2 exchange message
//! ([`crate::pik2::Message`]) and the signed alert
//! ([`crate::spec::SignedAlert`]) here, the rest in the `fatih-net` wire
//! codec that frames them: every field is prefixed with a type tag, and
//! variable-length fields also carry an explicit byte length, so no two
//! distinct field sequences share an encoding and a decoder can reject
//! malformed input field by field, before it allocates for it.

use fatih_crypto::{Digest, Signature};
use fatih_sim::SimTime;
use fatih_topology::{PathSegment, RouterId};
use fatih_validation::digest::ContentDigest;
use fatih_validation::field::Fe;
use fatih_validation::reconcile::SetSketch;
use fatih_validation::summary::FlowCounter;

/// Field type tags of the self-describing layout. Every field starts with
/// one of these bytes; variable-length fields add a u32 byte/element
/// count, so adjacent fields can never collide into one another.
mod tag {
    pub const U32: u8 = 0x01;
    pub const U64: u8 = 0x02;
    pub const ROUTER: u8 = 0x03;
    pub const TIME: u8 = 0x04;
    pub const SEGMENT: u8 = 0x05;
    pub const BYTES: u8 = 0x06;
}

/// Largest element count a [`WireReader`] accepts for a variable-length
/// field — rejects length fields that would ask for absurd allocations on
/// adversarial input.
pub const MAX_WIRE_ELEMS: u32 = 1 << 20;

/// Largest sketch capacity a decoded digest may claim, bounding the
/// allocation a single control message can demand.
pub const MAX_SKETCH_CAPACITY: usize = 4_096;

/// Incremental **tagged** encoder: the field-tagged, length-framed layout
/// of the `fatih-net` wire protocol. Decode with [`WireReader`].
///
/// # Examples
///
/// ```
/// use fatih_core::wire::{WireEncoder, WireReader};
/// let mut enc = WireEncoder::new();
/// enc.u64(7).bytes(b"payload");
/// let mut rd = WireReader::new(enc.finish());
/// assert_eq!(rd.u64().unwrap(), 7);
/// assert_eq!(rd.bytes().unwrap(), b"payload");
/// assert!(rd.done().is_ok());
/// ```
#[derive(Debug, Default)]
pub struct WireEncoder {
    bytes: Vec<u8>,
}

impl WireEncoder {
    /// Fresh encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An encoder appending to `bytes`, which [`into_bytes`](Self::into_bytes)
    /// hands back: a caller that owns a buffer encodes into it in place.
    pub fn over(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// Appends a tagged u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes.push(tag::U64);
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a tagged u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes.push(tag::U32);
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a tagged router id.
    pub fn router(&mut self, r: RouterId) -> &mut Self {
        self.bytes.push(tag::ROUTER);
        self.bytes.extend_from_slice(&u32::from(r).to_le_bytes());
        self
    }

    /// Appends a tagged time.
    pub fn time(&mut self, t: SimTime) -> &mut Self {
        self.bytes.push(tag::TIME);
        self.bytes.extend_from_slice(&t.as_ns().to_le_bytes());
        self
    }

    /// Appends a tagged, length-framed path segment.
    pub fn segment(&mut self, seg: &PathSegment) -> &mut Self {
        self.bytes.push(tag::SEGMENT);
        self.bytes
            .extend_from_slice(&(seg.len() as u32).to_le_bytes());
        for &r in seg.routers() {
            self.bytes.extend_from_slice(&u32::from(r).to_le_bytes());
        }
        self
    }

    /// Appends a tagged, length-framed opaque byte string.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.bytes.push(tag::BYTES);
        self.bytes
            .extend_from_slice(&(b.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(b);
        self
    }

    /// Appends an Appendix A content digest: sketch capacity, set size,
    /// the sketch's evaluations as one byte string, flow counters, mix sum.
    pub fn digest(&mut self, d: &ContentDigest) -> &mut Self {
        self.u32(d.sketch().capacity() as u32).u64(d.sketch().len());
        let mut evals = Vec::with_capacity(d.sketch().evals().len() * 8);
        for fe in d.sketch().evals() {
            evals.extend_from_slice(&fe.value().to_le_bytes());
        }
        let flow = d.flow();
        self.bytes(&evals)
            .u64(flow.packets)
            .u64(flow.bytes)
            .u64(d.mix_sum())
    }

    /// Appends a signature or MAC as a 32-byte string.
    pub fn signature(&mut self, sig: &Signature) -> &mut Self {
        self.bytes(&sig.0 .0)
    }

    /// The encoded bytes.
    pub fn finish(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Decoding failure of the tagged layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended inside a field.
    UnexpectedEnd,
    /// The next field's tag differs from the one the schema expects.
    WrongTag {
        /// Tag the caller asked for.
        expected: u8,
        /// Tag found in the input.
        found: u8,
    },
    /// A length field exceeds [`MAX_WIRE_ELEMS`].
    Oversize,
    /// A decoded value violates its type's invariants (e.g. a path
    /// segment with fewer than two routers).
    Invalid,
    /// Bytes remain after the schema's last field.
    Trailing,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "input ended inside a field"),
            WireError::WrongTag { expected, found } => {
                write!(f, "expected field tag {expected:#04x}, found {found:#04x}")
            }
            WireError::Oversize => write!(f, "length field exceeds the wire limit"),
            WireError::Invalid => write!(f, "decoded value violates its invariants"),
            WireError::Trailing => write!(f, "trailing bytes after the last field"),
        }
    }
}

impl std::error::Error for WireError {}

/// Streaming decoder for [`WireEncoder`]'s output. Every read checks the
/// field tag and bounds, so truncated or corrupted input yields
/// [`WireError`] instead of a panic or a misparse.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Reads from `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The bytes consumed so far: what a trailing MAC covers.
    pub fn consumed(&self) -> &'a [u8] {
        &self.bytes[..self.pos]
    }

    /// Succeeds iff every byte has been consumed.
    pub fn done(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }

    fn expect_tag(&mut self, expected: u8) -> Result<(), WireError> {
        let found = *self.bytes.get(self.pos).ok_or(WireError::UnexpectedEnd)?;
        if found != expected {
            return Err(WireError::WrongTag { expected, found });
        }
        self.pos += 1;
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::UnexpectedEnd)?;
        if end > self.bytes.len() {
            return Err(WireError::UnexpectedEnd);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn raw_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn raw_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a tagged u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.expect_tag(tag::U32)?;
        self.raw_u32()
    }

    /// Reads a tagged u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.expect_tag(tag::U64)?;
        self.raw_u64()
    }

    /// Reads a tagged router id.
    pub fn router(&mut self) -> Result<RouterId, WireError> {
        self.expect_tag(tag::ROUTER)?;
        Ok(RouterId::from(self.raw_u32()?))
    }

    /// Reads a tagged time.
    pub fn time(&mut self) -> Result<SimTime, WireError> {
        self.expect_tag(tag::TIME)?;
        Ok(SimTime::from_ns(self.raw_u64()?))
    }

    /// Reads a tagged, length-framed path segment.
    pub fn segment(&mut self) -> Result<PathSegment, WireError> {
        self.expect_tag(tag::SEGMENT)?;
        let n = self.raw_u32()?;
        if n > MAX_WIRE_ELEMS {
            return Err(WireError::Oversize);
        }
        if n < 2 {
            return Err(WireError::Invalid);
        }
        // The routers must be there before anything is reserved for them.
        let raw = self.take(4 * n as usize)?;
        let routers = raw.chunks_exact(4).map(|c| {
            let id: [u8; 4] = c.try_into().expect("chunks of 4");
            RouterId::from(u32::from_le_bytes(id))
        });
        Ok(PathSegment::new(routers.collect()))
    }

    /// Reads a tagged, length-framed opaque byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        self.expect_tag(tag::BYTES)?;
        let n = self.raw_u32()?;
        if n > MAX_WIRE_ELEMS {
            return Err(WireError::Oversize);
        }
        self.take(n as usize)
    }

    /// Reads a content digest, refusing a sketch capacity of 0 or above
    /// [`MAX_SKETCH_CAPACITY`] before anything is allocated for it.
    pub fn digest(&mut self) -> Result<ContentDigest, WireError> {
        let capacity = self.u32()? as usize;
        if capacity == 0 {
            return Err(WireError::Invalid);
        }
        if capacity > MAX_SKETCH_CAPACITY {
            return Err(WireError::Oversize);
        }
        let size = self.u64()?;
        let raw = self.bytes()?;
        if raw.len() % 8 != 0 {
            return Err(WireError::Invalid);
        }
        let evals = raw
            .chunks_exact(8)
            .map(|c| Fe::new(u64::from_le_bytes(c.try_into().expect("chunks of 8"))))
            .collect();
        let sketch = SetSketch::from_parts(capacity, size, evals).ok_or(WireError::Invalid)?;
        let (packets, bytes) = (self.u64()?, self.u64()?);
        let flow = FlowCounter { packets, bytes };
        Ok(ContentDigest::from_parts(sketch, flow, self.u64()?))
    }

    /// Reads a signature or MAC: a byte string of exactly 32 bytes.
    pub fn signature(&mut self) -> Result<Signature, WireError> {
        let raw: [u8; 32] = self.bytes()?.try_into().map_err(|_| WireError::Invalid)?;
        Ok(Signature(Digest(raw)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_encoding_includes_order() {
        let s1 = PathSegment::new(vec![RouterId::from(1), RouterId::from(2)]);
        let s2 = PathSegment::new(vec![RouterId::from(2), RouterId::from(1)]);
        let mut e1 = WireEncoder::new();
        e1.segment(&s1);
        let mut e2 = WireEncoder::new();
        e2.segment(&s2);
        assert_ne!(e1.finish(), e2.finish());
    }

    /// A segment ⟨1, 2⟩ and the unrelated field sequence `u32(2), u32(1),
    /// u32(2)` carry the same numbers; the tags keep their encodings
    /// apart, and the decoder refuses to read one as the other.
    #[test]
    fn a_segment_is_never_mistaken_for_its_numbers() {
        let seg = PathSegment::new(vec![RouterId::from(1), RouterId::from(2)]);
        let mut tagged_seg = WireEncoder::new();
        tagged_seg.segment(&seg);
        let mut tagged_u32s = WireEncoder::new();
        tagged_u32s.u32(2).u32(1).u32(2);
        assert_ne!(tagged_seg.finish(), tagged_u32s.finish());
        let mut rd = WireReader::new(tagged_seg.finish());
        assert!(matches!(rd.u32(), Err(WireError::WrongTag { .. })));
    }

    #[test]
    fn tagged_fields_round_trip() {
        let seg = PathSegment::new(vec![
            RouterId::from(5),
            RouterId::from(9),
            RouterId::from(2),
        ]);
        let mut e = WireEncoder::new();
        e.u64(u64::MAX)
            .u32(0)
            .router(RouterId::from(77))
            .time(SimTime::from_ms(1234))
            .segment(&seg)
            .bytes(b"")
            .bytes(&[0xff; 64]);
        let mut rd = WireReader::new(e.finish());
        assert_eq!(rd.u64().unwrap(), u64::MAX);
        assert_eq!(rd.u32().unwrap(), 0);
        assert_eq!(rd.router().unwrap(), RouterId::from(77));
        assert_eq!(rd.time().unwrap(), SimTime::from_ms(1234));
        assert_eq!(rd.segment().unwrap(), seg);
        assert_eq!(rd.bytes().unwrap(), b"");
        assert_eq!(rd.bytes().unwrap(), &[0xff; 64]);
        rd.done().unwrap();
    }

    #[test]
    fn tagged_decoder_rejects_truncation_at_every_length() {
        let mut e = WireEncoder::new();
        e.u64(42)
            .segment(&PathSegment::new(vec![
                RouterId::from(1),
                RouterId::from(2),
            ]))
            .bytes(b"abcdef");
        let full = e.finish();
        for cut in 0..full.len() {
            let mut rd = WireReader::new(&full[..cut]);
            // Whichever field the cut lands in, some read in the schema
            // must fail; none may panic.
            let result = rd
                .u64()
                .map(|_| ())
                .and_then(|()| rd.segment().map(|_| ()))
                .and_then(|()| rd.bytes().map(|_| ()))
                .and_then(|()| rd.done());
            assert!(result.is_err(), "truncation to {cut} bytes was accepted");
        }
    }

    #[test]
    fn tagged_decoder_rejects_oversize_lengths() {
        let mut raw = vec![0x06u8]; // BYTES tag
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut rd = WireReader::new(&raw);
        assert_eq!(rd.bytes().unwrap_err(), WireError::Oversize);

        let mut raw = vec![0x05u8]; // SEGMENT tag
        raw.extend_from_slice(&(MAX_WIRE_ELEMS + 1).to_le_bytes());
        let mut rd = WireReader::new(&raw);
        assert_eq!(rd.segment().unwrap_err(), WireError::Oversize);
    }

    /// A count is not taken at its word: a 9-byte field that claims 2^20
    /// routers (4 MiB of them) is short of what it claims, and nothing is
    /// reserved before that is known.
    #[test]
    fn a_segment_claiming_more_routers_than_it_holds_is_truncated() {
        let mut raw = vec![0x05u8]; // SEGMENT tag
        raw.extend_from_slice(&MAX_WIRE_ELEMS.to_le_bytes());
        raw.extend_from_slice(&7u32.to_le_bytes());
        assert_eq!(raw.len(), 9);
        let mut rd = WireReader::new(&raw);
        assert_eq!(rd.segment().unwrap_err(), WireError::UnexpectedEnd);
    }

    #[test]
    fn tagged_decoder_rejects_undersized_segment() {
        // A 1-router "segment" would panic PathSegment::new; the decoder
        // must reject it instead.
        let mut raw = vec![0x05u8]; // SEGMENT tag
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&7u32.to_le_bytes());
        let mut rd = WireReader::new(&raw);
        assert_eq!(rd.segment().unwrap_err(), WireError::Invalid);
    }
}
