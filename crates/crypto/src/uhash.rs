//! UHASH-style keyed universal hashing for packet fingerprints.
//!
//! The Fatih prototype computes a fingerprint for every forwarded packet
//! (dissertation §5.3.1) and explicitly uses the UHASH universal hash family
//! because a full cryptographic hash per packet is too expensive on the
//! forwarding path (§7.1). We implement the same idea: a keyed polynomial
//! hash over the Mersenne prime `p = 2⁶¹ − 1`. For two distinct messages of
//! at most `n` 8-byte words, the collision probability over a random key is
//! at most `(n + 1)/p` — cryptographically small for any realistic MTU.
//!
//! The key is secret and shared only by the routers monitoring a given path
//! segment, so a compromised router on the segment cannot craft a
//! substitute packet with a colliding fingerprint (it does not know the
//! polynomial evaluation point).
//!
//! Fingerprints are also exactly the field elements consumed by the
//! set-reconciliation algorithm of Appendix A (`fatih-validation`), which
//! works over the same prime field.
//!
//! # The fast kernel (§7.1 "Computing fingerprints")
//!
//! The hash is a Horner evaluation `acc ← acc·x + wᵢ (mod p)`, which is a
//! serial dependency chain: each step waits for the previous multiply.
//! Because `p` is a Mersenne prime, `2⁶¹ ≡ 1 (mod p)`, so reduction is two
//! shift/mask folds and one conditional subtract — no division anywhere.
//! On top of that the kernel breaks the multiply chain three ways, all
//! **bit-identical** to the scalar recurrence (they compute the same field
//! element, and every step produces the canonical representative in
//! `[0, p)`):
//!
//! * **4-lane interleaved Horner** for long messages: the word stream is
//!   split by index mod 4 into four sub-polynomials in `x⁴` that advance
//!   independently (4 multiplies in flight) and are recombined with the
//!   precomputed key schedule (`x²`, `x⁴`) at the end;
//! * **cross-message lanes** ([`UhashKey::fingerprint_batch`]) for batches
//!   of short messages (packet invariants are 40 bytes — too short for
//!   intra-message lanes): four messages advance in lock step, each lane an
//!   independent scalar Horner;
//! * **streaming** ([`FingerprintHasher`]) so callers can feed fields
//!   directly without materializing a contiguous buffer first.
//!
//! [`UhashKey::fingerprint_scalar`] preserves the textbook recurrence as
//! the reference the property tests and the batched-kernel release gate
//! (`crates/bench/tests/gates.rs`) compare against.

/// The Mersenne prime 2⁶¹ − 1 used as the fingerprint field modulus.
pub const FINGERPRINT_PRIME: u64 = (1u64 << 61) - 1;

/// A 61-bit packet fingerprint: an element of GF(2⁶¹ − 1).
///
/// # Examples
///
/// ```
/// use fatih_crypto::{Fingerprint, UhashKey};
/// let key = UhashKey::from_seed(1);
/// let fp = key.fingerprint(b"payload");
/// assert!(fp.value() < fatih_crypto::uhash::FINGERPRINT_PRIME);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Wraps a raw value, reducing it into the field.
    pub fn new(value: u64) -> Self {
        Self(value % FINGERPRINT_PRIME)
    }

    /// The underlying field element.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl From<Fingerprint> for u64 {
    fn from(fp: Fingerprint) -> u64 {
        fp.0
    }
}

/// Multiplication in GF(2⁶¹ − 1) using the Mersenne folding trick.
#[inline]
pub fn mul_mod(a: u64, b: u64) -> u64 {
    let wide = a as u128 * b as u128;
    let lo = (wide & FINGERPRINT_PRIME as u128) as u64;
    let hi = (wide >> 61) as u64;
    let mut s = lo + hi;
    if s >= FINGERPRINT_PRIME {
        s -= FINGERPRINT_PRIME;
    }
    s
}

/// Addition in GF(2⁶¹ − 1).
#[inline]
pub fn add_mod(a: u64, b: u64) -> u64 {
    let mut s = a + b; // both < 2^61, no overflow in u64
    if s >= FINGERPRINT_PRIME {
        s -= FINGERPRINT_PRIME;
    }
    s
}

/// Reduces an arbitrary `u64` into `[0, p)` with the Mersenne fold:
/// `2⁶¹ ≡ 1 (mod p)`, so `x = q·2⁶¹ + r ≡ q + r`, and `q + r < p + 8`
/// needs at most one subtraction. Agrees exactly with `x % p` — the per-word
/// reduction of the scalar recurrence — without the multiply/shift sequence
/// a constant division compiles to.
#[inline]
pub fn reduce_mod(x: u64) -> u64 {
    let mut r = (x & FINGERPRINT_PRIME) + (x >> 61);
    if r >= FINGERPRINT_PRIME {
        r -= FINGERPRINT_PRIME;
    }
    r
}

/// Fused `acc·x + w (mod p)` for `acc, x, w < p`: one widening multiply,
/// two folds, one conditional subtract. Produces the canonical
/// representative, so it is interchangeable with
/// `add_mod(mul_mod(acc, x), w)` bit for bit.
#[inline]
fn mul_add_mod(acc: u64, x: u64, w: u64) -> u64 {
    let t = acc as u128 * x as u128 + w as u128;
    // t < p² + p < 2¹²², so the first fold fits u64: lo ≤ p, hi < 2⁶¹.
    let s = (t & FINGERPRINT_PRIME as u128) as u64 + (t >> 61) as u64;
    // s < 2⁶², second fold leaves r ≤ p + 1.
    let mut r = (s & FINGERPRINT_PRIME) + (s >> 61);
    if r >= FINGERPRINT_PRIME {
        r -= FINGERPRINT_PRIME;
    }
    r
}

/// Lazy lane step: `acc·x + w`, folded back under 2⁶² but **not**
/// canonicalized — no conditional subtract and the message word goes in
/// raw (unreduced). Exact mod p at every step (folds use `2⁶¹ ≡ 1` and the
/// raw word is congruent to its reduction), so a final [`reduce_mod`]
/// yields the same canonical value the strict ops produce.
///
/// Bounds: `acc < 2⁶²`, `x < 2⁶¹`, raw `w < 2⁶⁴` give
/// `t < 2¹²³ + 2⁶⁴ < 2¹²⁴`; first fold `s ≤ p + t»61 < 2⁶⁴`; second fold
/// `≤ p + 7 < 2⁶²`, restoring the invariant.
#[inline]
fn lazy_step(acc: u64, x: u64, w: u64) -> u64 {
    let t = acc as u128 * x as u128 + w as u128;
    let s = (t & FINGERPRINT_PRIME as u128) as u64 + (t >> 61) as u64;
    (s & FINGERPRINT_PRIME) + (s >> 61)
}

#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Byte length above which the intra-message 4-lane kernel pays for its
/// setup/recombine cost (two 32-byte blocks).
const LANE_MIN_BYTES: usize = 64;

/// A secret universal-hash key: the evaluation point of the polynomial hash,
/// carried with its precomputed schedule (`x²`, `x⁴`) for the lane kernels.
///
/// Routers monitoring the same path segment must share the same key so their
/// fingerprints for the same packet agree.
///
/// # Examples
///
/// ```
/// use fatih_crypto::UhashKey;
/// let upstream = UhashKey::from_seed(99);
/// let downstream = UhashKey::from_seed(99);
/// // Shared key => identical fingerprints at both ends of the segment.
/// assert_eq!(upstream.fingerprint(b"pkt"), downstream.fingerprint(b"pkt"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UhashKey {
    point: u64,
    offset: u64,
    /// Key schedule: `point²` (lane recombination).
    point2: u64,
    /// Key schedule: `point⁴` (4-lane block stride).
    point4: u64,
}

impl UhashKey {
    /// Derives a key deterministically from a 64-bit seed (for tests and the
    /// simulated key infrastructure; real deployments would draw the key
    /// from the pairwise key exchange of §2.1.5).
    pub fn from_seed(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into two field elements.
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        // Avoid the degenerate evaluation points 0 and 1.
        let mut point = next() % FINGERPRINT_PRIME;
        while point < 2 {
            point = next() % FINGERPRINT_PRIME;
        }
        let offset = next() % FINGERPRINT_PRIME;
        Self::from_parts(point, offset)
    }

    /// Builds a key from raw field elements.
    ///
    /// # Panics
    ///
    /// Panics if `point < 2` (degenerate hash) or either value is outside
    /// the field.
    pub fn from_parts(point: u64, offset: u64) -> Self {
        assert!(
            (2..FINGERPRINT_PRIME).contains(&point),
            "evaluation point must be in [2, p)"
        );
        assert!(offset < FINGERPRINT_PRIME, "offset must be in [0, p)");
        let point2 = mul_mod(point, point);
        let point4 = mul_mod(point2, point2);
        Self {
            point,
            offset,
            point2,
            point4,
        }
    }

    /// Hashes a message to a fingerprint.
    ///
    /// The message is consumed as little-endian 8-byte words (final partial
    /// word zero-padded) and the bit length is mixed in as a final word, so
    /// messages differing only by trailing zeros hash differently.
    ///
    /// Long messages take the 4-lane interleaved Horner path; the result is
    /// bit-identical to [`fingerprint_scalar`](Self::fingerprint_scalar).
    pub fn fingerprint(&self, message: &[u8]) -> Fingerprint {
        let acc = self.horner_body(self.offset, message);
        Fingerprint(mul_add_mod(
            acc,
            self.point,
            (message.len() as u64) % FINGERPRINT_PRIME,
        ))
    }

    /// The textbook scalar recurrence — the reference implementation the
    /// kernels are verified against (and the release gate's baseline).
    pub fn fingerprint_scalar(&self, message: &[u8]) -> Fingerprint {
        let mut acc = self.offset;
        let mut chunks = message.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            acc = add_mod(mul_mod(acc, self.point), word % FINGERPRINT_PRIME);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            let word = u64::from_le_bytes(buf);
            acc = add_mod(mul_mod(acc, self.point), word % FINGERPRINT_PRIME);
        }
        let len_word = (message.len() as u64) % FINGERPRINT_PRIME;
        acc = add_mod(mul_mod(acc, self.point), len_word);
        Fingerprint(acc)
    }

    /// Fingerprints a batch of messages, breaking the multiply dependency
    /// chain *across* messages: runs of four equal-length messages advance
    /// in four independent lanes (the monitor ingest case — 40-byte packet
    /// invariants). Each result is bit-identical to
    /// [`fingerprint`](Self::fingerprint) of that message.
    pub fn fingerprint_batch(&self, messages: &[&[u8]]) -> Vec<Fingerprint> {
        let mut out = Vec::with_capacity(messages.len());
        self.fingerprint_batch_into(messages, &mut out);
        out
    }

    /// [`fingerprint_batch`](Self::fingerprint_batch) into a caller-owned
    /// buffer (cleared first), so a hot ingest loop can reuse its
    /// allocation.
    pub fn fingerprint_batch_into<M: AsRef<[u8]>>(
        &self,
        messages: &[M],
        out: &mut Vec<Fingerprint>,
    ) {
        out.clear();
        out.reserve(messages.len());
        let mut groups = messages.chunks_exact(4);
        for g in &mut groups {
            let g = [g[0].as_ref(), g[1].as_ref(), g[2].as_ref(), g[3].as_ref()];
            let len = g[0].len();
            // Cross-message lanes need lock-step word counts; long messages
            // already get intra-message lanes from `fingerprint`.
            if len < LANE_MIN_BYTES && g[1..].iter().all(|m| m.len() == len) {
                out.extend(self.lane4_equal_len(g));
            } else {
                out.extend(g.iter().map(|m| self.fingerprint(m)));
            }
        }
        out.extend((groups.remainder().iter()).map(|m| self.fingerprint(m.as_ref())));
    }

    /// Four equal-length messages, one per lane, in lock step.
    fn lane4_equal_len(&self, msgs: [&[u8]; 4]) -> [Fingerprint; 4] {
        let len = msgs[0].len();
        let words = len / 8;
        let mut acc = [self.offset; 4];
        for j in 0..words {
            let at = j * 8;
            for (l, m) in msgs.iter().enumerate() {
                acc[l] = lazy_step(acc[l], self.point, le_word(&m[at..at + 8]));
            }
        }
        let rem = len % 8;
        if rem != 0 {
            for (l, m) in msgs.iter().enumerate() {
                let mut buf = [0u8; 8];
                buf[..rem].copy_from_slice(&m[len - rem..]);
                acc[l] = lazy_step(acc[l], self.point, u64::from_le_bytes(buf));
            }
        }
        let len_word = (len as u64) % FINGERPRINT_PRIME;
        acc.map(|a| Fingerprint(mul_add_mod(reduce_mod(a), self.point, len_word)))
    }

    /// Horner over the message body (full words + zero-padded partial word,
    /// no length word), starting from `acc`. Long bodies split the word
    /// stream by index mod 4 into four sub-polynomials in `x⁴`:
    ///
    /// `acc·xⁿ + Σ wⱼ·xⁿ⁻¹⁻ʲ  =  A₀·x³ + A₁·x² + A₂·x + A₃`
    ///
    /// where lane `Aᵢ` Horner-accumulates words `j ≡ i (mod 4)` with stride
    /// `x⁴` and lane 3 (combine factor `x⁰`) carries the incoming `acc`, so
    /// `acc` ends up with exponent exactly `n`. The recombination uses the
    /// key schedule: `(A₀·x + A₁)·x² + (A₂·x + A₃)`.
    fn horner_body(&self, mut acc: u64, body: &[u8]) -> u64 {
        let mut tail = body;
        if body.len() >= LANE_MIN_BYTES {
            let mut blocks = body.chunks_exact(32);
            let (mut a0, mut a1, mut a2, mut a3) = (0u64, 0u64, 0u64, acc);
            for b in &mut blocks {
                a0 = lazy_step(a0, self.point4, le_word(&b[0..8]));
                a1 = lazy_step(a1, self.point4, le_word(&b[8..16]));
                a2 = lazy_step(a2, self.point4, le_word(&b[16..24]));
                a3 = lazy_step(a3, self.point4, le_word(&b[24..32]));
            }
            tail = blocks.remainder();
            let (a0, a1) = (reduce_mod(a0), reduce_mod(a1));
            let (a2, a3) = (reduce_mod(a2), reduce_mod(a3));
            acc = add_mod(
                mul_mod(mul_add_mod(a0, self.point, a1), self.point2),
                mul_add_mod(a2, self.point, a3),
            );
        }
        let mut words = tail.chunks_exact(8);
        for w in &mut words {
            acc = mul_add_mod(acc, self.point, reduce_mod(le_word(w)));
        }
        let rem = words.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            acc = mul_add_mod(acc, self.point, reduce_mod(u64::from_le_bytes(buf)));
        }
        acc
    }

    /// The secret evaluation point (exposed for tests and key accounting).
    pub fn point(&self) -> u64 {
        self.point
    }
}

/// Incremental fingerprinting: feed a message in arbitrary pieces and get
/// the same fingerprint the one-shot [`UhashKey::fingerprint`] produces for
/// their concatenation — no intermediate buffer of the whole message.
///
/// # Examples
///
/// ```
/// use fatih_crypto::{FingerprintHasher, UhashKey};
/// let key = UhashKey::from_seed(5);
/// let mut h = FingerprintHasher::new(&key);
/// h.update(b"hel");
/// h.update(b"lo world");
/// assert_eq!(h.finalize(), key.fingerprint(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    key: UhashKey,
    acc: u64,
    buf: [u8; 8],
    buf_len: usize,
    total_len: u64,
}

impl FingerprintHasher {
    /// Starts a fresh hash under `key`.
    pub fn new(key: &UhashKey) -> Self {
        Self {
            key: *key,
            acc: key.offset,
            buf: [0u8; 8],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs the next piece of the message.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len += data.len() as u64;
        if self.buf_len > 0 {
            let take = (8 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 8 {
                return;
            }
            self.acc = mul_add_mod(
                self.acc,
                self.key.point,
                reduce_mod(u64::from_le_bytes(self.buf)),
            );
            self.buf_len = 0;
        }
        let full = data.len() & !7;
        self.acc = self.key.horner_body(self.acc, &data[..full]);
        let rem = &data[full..];
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Mixes in the partial word and total length, returning the
    /// fingerprint.
    pub fn finalize(self) -> Fingerprint {
        let mut acc = self.acc;
        if self.buf_len > 0 {
            let mut buf = [0u8; 8];
            buf[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            acc = mul_add_mod(acc, self.key.point, reduce_mod(u64::from_le_bytes(buf)));
        }
        Fingerprint(mul_add_mod(
            acc,
            self.key.point,
            self.total_len % FINGERPRINT_PRIME,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_key() {
        let k = UhashKey::from_seed(42);
        assert_eq!(k.fingerprint(b"hello"), k.fingerprint(b"hello"));
    }

    #[test]
    fn different_seeds_differ() {
        let a = UhashKey::from_seed(1).fingerprint(b"hello");
        let b = UhashKey::from_seed(2).fingerprint(b"hello");
        assert_ne!(a, b);
    }

    #[test]
    fn sensitive_to_every_byte() {
        let k = UhashKey::from_seed(7);
        let base = k.fingerprint(&[0u8; 64]);
        for i in 0..64 {
            let mut m = [0u8; 64];
            m[i] = 1;
            assert_ne!(k.fingerprint(&m), base, "byte {i} not mixed in");
        }
    }

    #[test]
    fn length_extension_distinguished() {
        let k = UhashKey::from_seed(7);
        assert_ne!(k.fingerprint(b""), k.fingerprint(&[0u8]));
        assert_ne!(k.fingerprint(&[0u8; 8]), k.fingerprint(&[0u8; 16]));
        assert_ne!(k.fingerprint(&[0u8; 7]), k.fingerprint(&[0u8; 8]));
    }

    #[test]
    fn collision_rate_is_tiny_over_random_inputs() {
        use std::collections::HashSet;
        let k = UhashKey::from_seed(3);
        let mut seen = HashSet::new();
        let mut x = 88172645463325252u64;
        for _ in 0..20_000 {
            // xorshift64 message generator
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let msg = x.to_le_bytes();
            seen.insert(k.fingerprint(&msg));
        }
        assert_eq!(seen.len(), 20_000, "unexpected fingerprint collision");
    }

    #[test]
    fn mul_mod_agrees_with_u128_reference() {
        let pairs = [
            (0u64, 0u64),
            (1, FINGERPRINT_PRIME - 1),
            (FINGERPRINT_PRIME - 1, FINGERPRINT_PRIME - 1),
            (
                123456789012345678 % FINGERPRINT_PRIME,
                987654321098765432 % FINGERPRINT_PRIME,
            ),
        ];
        for (a, b) in pairs {
            let want = ((a as u128 * b as u128) % FINGERPRINT_PRIME as u128) as u64;
            assert_eq!(mul_mod(a, b), want, "{a} * {b}");
        }
    }

    #[test]
    fn reduce_mod_agrees_with_division_on_edges() {
        for x in [
            0u64,
            1,
            FINGERPRINT_PRIME - 1,
            FINGERPRINT_PRIME,
            FINGERPRINT_PRIME + 1,
            2 * FINGERPRINT_PRIME,
            2 * FINGERPRINT_PRIME + 3,
            u64::MAX,
        ] {
            assert_eq!(reduce_mod(x), x % FINGERPRINT_PRIME, "x = {x}");
        }
    }

    #[test]
    fn mul_add_mod_matches_composed_ops() {
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..1000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = x % FINGERPRINT_PRIME;
            let b = x.rotate_left(17) % FINGERPRINT_PRIME;
            let w = x.rotate_left(43) % FINGERPRINT_PRIME;
            assert_eq!(mul_add_mod(a, b, w), add_mod(mul_mod(a, b), w));
        }
        // Field edges.
        let p1 = FINGERPRINT_PRIME - 1;
        for (a, b, w) in [(0, 0, 0), (p1, p1, p1), (1, p1, 0), (p1, 1, p1)] {
            assert_eq!(mul_add_mod(a, b, w), add_mod(mul_mod(a, b), w));
        }
    }

    #[test]
    fn kernel_matches_scalar_across_lengths() {
        let k = UhashKey::from_seed(17);
        let mut msg = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..=300 {
            while msg.len() < len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                msg.push(x as u8);
            }
            assert_eq!(
                k.fingerprint(&msg[..len]),
                k.fingerprint_scalar(&msg[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn batch_matches_one_shot() {
        let k = UhashKey::from_seed(23);
        let msgs: Vec<Vec<u8>> = (0..13u8)
            .map(|i| (0..40).map(|j| i.wrapping_mul(31) ^ j).collect())
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let got = k.fingerprint_batch(&refs);
        for (m, fp) in refs.iter().zip(&got) {
            assert_eq!(*fp, k.fingerprint(m));
        }
    }

    #[test]
    fn streaming_matches_one_shot_at_any_split() {
        let k = UhashKey::from_seed(29);
        let msg: Vec<u8> = (0..100u8).collect();
        let want = k.fingerprint(&msg);
        for split in 0..=msg.len() {
            let mut h = FingerprintHasher::new(&k);
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), want, "split {split}");
        }
    }

    #[test]
    fn all_variants_match_scalar_for_random_keys_and_payloads() {
        // Bit-for-bit agreement of the 4-lane kernel, the batch path and
        // the streaming hasher with the scalar baseline, for every length
        // 0..=64, across many random keys and payloads.
        let mut x = 0xD1B5_4A32_D192_ED03u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..16 {
            let k = UhashKey::from_seed(rand());
            for len in 0..=64usize {
                let msgs: Vec<Vec<u8>> = (0..5)
                    .map(|_| (0..len).map(|_| rand() as u8).collect())
                    .collect();
                let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
                let batch = k.fingerprint_batch(&refs);
                for (m, batch_fp) in refs.iter().zip(&batch) {
                    let want = k.fingerprint_scalar(m);
                    assert_eq!(k.fingerprint(m), want, "kernel, len {len}");
                    assert_eq!(*batch_fp, want, "batch, len {len}");
                    let mut h = FingerprintHasher::new(&k);
                    let split = len / 3;
                    h.update(&m[..split]);
                    h.update(&m[split..]);
                    assert_eq!(h.finalize(), want, "streaming, len {len}");
                }
            }
        }
    }

    #[test]
    fn fingerprints_stay_in_field() {
        let k = UhashKey::from_seed(11);
        for i in 0u64..500 {
            let fp = k.fingerprint(&i.to_le_bytes());
            assert!(fp.value() < FINGERPRINT_PRIME);
        }
    }

    #[test]
    #[should_panic(expected = "evaluation point")]
    fn rejects_degenerate_point() {
        let _ = UhashKey::from_parts(1, 0);
    }
}
