//! The failure-detector specification of dissertation §4.2.2.
//!
//! Detectors report *suspicions* `(π, τ)` — "some router in path-segment π
//! was faulty during interval τ" — and are judged by three properties:
//!
//! * **a-Accuracy** — every suspicion of a correct router names a segment
//!   of length ≤ a containing at least one actually-faulty router;
//! * **a-Completeness** (FI or the weaker FC variant) — every traffic-faulty
//!   router eventually lands inside some suspected segment;
//! * **Precision** — the maximum suspected segment length (2 for Π2,
//!   k+2 for Πk+2).
//!
//! This module carries the shared types — with the one wire form of a
//! suspicion that travels, the origin-signed alert of Figure 5.3 — plus
//! evaluation helpers that check the properties against simulator ground
//! truth.

use crate::wire::{WireEncoder, WireError, WireReader};
use fatih_crypto::{KeyStore, Signature};
use fatih_sim::SimTime;
use fatih_topology::{PathSegment, RouterId};
use std::collections::BTreeSet;

/// A closed measurement interval `τ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// Interval start (inclusive).
    pub start: SimTime,
    /// Interval end (inclusive).
    pub end: SimTime,
}

impl Interval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(end >= start, "interval ends before it starts");
        Self { start, end }
    }

    /// Whether `t` lies inside the interval.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t <= self.end
    }

    /// Appends the interval's wire form: start, then end.
    pub fn encode_into(&self, e: &mut WireEncoder) {
        e.time(self.start).time(self.end);
    }

    /// Reads [`encode_into`](Self::encode_into)'s output; a backwards
    /// interval is refused here, where [`Interval::new`] would panic.
    pub fn decode_from(rd: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (start, end) = (rd.time()?, rd.time()?);
        if end < start {
            return Err(WireError::Invalid);
        }
        Ok(Self { start, end })
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

/// A failure-detector report: a path segment suspected of containing at
/// least one faulty router during an interval.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Suspicion {
    /// The suspected path segment `π`.
    pub segment: PathSegment,
    /// The measurement interval `τ`.
    pub interval: Interval,
    /// The router that raised the suspicion (for response: only suspicions
    /// adjacent to the raiser elicit countermeasures, §4.2.2).
    pub raised_by: RouterId,
}

impl Suspicion {
    /// Length of the suspected segment — must not exceed the detector's
    /// claimed precision.
    pub fn precision(&self) -> usize {
        self.segment.len()
    }

    /// Appends the suspicion's wire form: raiser, segment, interval.
    pub fn encode_into(&self, e: &mut WireEncoder) {
        e.router(self.raised_by).segment(&self.segment);
        self.interval.encode_into(e);
    }

    /// Reads [`encode_into`](Self::encode_into)'s output.
    pub fn decode_from(rd: &mut WireReader<'_>) -> Result<Self, WireError> {
        let raised_by = rd.router()?;
        let segment = rd.segment()?;
        let interval = Interval::decode_from(rd)?;
        Ok(Self {
            segment,
            interval,
            raised_by,
        })
    }

    fn sign_bytes(&self) -> Vec<u8> {
        let mut e = WireEncoder::new();
        self.encode_into(&mut e);
        e.into_bytes()
    }
}

/// The signed alert of Figure 5.3: a suspicion and its raiser's signature
/// over it, so an alert relayed by a third party stays attributable to its
/// origin. The origin signs the suspicion's wire form — its semantic
/// content, independent of which host or hop-by-hop frame carries it —
/// and the alert's wire form is those bytes followed by the signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedAlert {
    /// What is suspected, when, and by whom (`raised_by` is the origin).
    pub suspicion: Suspicion,
    /// The origin's signature over the suspicion.
    pub sig: Signature,
}

impl SignedAlert {
    /// Signs `suspicion` on behalf of the router that raised it.
    ///
    /// # Panics
    ///
    /// Panics if that router is not registered with `keys`.
    pub fn sign(keys: &KeyStore, suspicion: Suspicion) -> Self {
        let sig = keys.sign(suspicion.raised_by.into(), &suspicion.sign_bytes());
        Self { suspicion, sig }
    }

    /// Whether the signature is the origin's over this suspicion; `false`
    /// for an origin `keys` has never registered.
    pub fn verify(&self, keys: &KeyStore) -> bool {
        let s = &self.suspicion;
        keys.verify(s.raised_by.into(), &s.sign_bytes(), &self.sig)
    }

    /// Appends the alert's wire form.
    pub fn encode_into(&self, e: &mut WireEncoder) {
        self.suspicion.encode_into(e);
        e.signature(&self.sig);
    }

    /// Reads [`encode_into`](Self::encode_into)'s output. The signature is
    /// not checked: [`verify`](Self::verify) does that.
    pub fn decode_from(rd: &mut WireReader<'_>) -> Result<Self, WireError> {
        let suspicion = Suspicion::decode_from(rd)?;
        let sig = rd.signature()?;
        Ok(Self { suspicion, sig })
    }
}

impl std::fmt::Display for Suspicion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} suspected by {} during {}",
            self.segment, self.raised_by, self.interval
        )
    }
}

/// Evaluation verdict for a batch of suspicions against ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecCheck {
    /// Suspicions whose segment contains at least one truly faulty router.
    pub accurate: Vec<Suspicion>,
    /// Suspicions naming only correct routers — accuracy violations
    /// (unless raised by a faulty router, which the spec permits).
    pub false_positives: Vec<Suspicion>,
    /// Faulty routers covered by at least one suspicion.
    pub detected_faulty: BTreeSet<RouterId>,
    /// Faulty routers not covered — completeness gaps.
    pub missed_faulty: BTreeSet<RouterId>,
    /// Maximum suspected segment length observed.
    pub max_precision: usize,
}

impl SpecCheck {
    /// Checks a batch of suspicions raised by **correct** routers against
    /// the ground-truth faulty set.
    ///
    /// Suspicions raised by faulty routers are excluded first — §4.2.2:
    /// "since we are assuming arbitrarily faulty routers, we have to allow
    /// faulty routers to suspect correct routers".
    pub fn evaluate<'a, I>(suspicions: I, faulty: &BTreeSet<RouterId>) -> Self
    where
        I: IntoIterator<Item = &'a Suspicion>,
    {
        let mut accurate = Vec::new();
        let mut false_positives = Vec::new();
        let mut detected: BTreeSet<RouterId> = BTreeSet::new();
        let mut max_precision = 0;
        for s in suspicions {
            if faulty.contains(&s.raised_by) {
                continue;
            }
            max_precision = max_precision.max(s.precision());
            let hits: Vec<RouterId> = s
                .segment
                .routers()
                .iter()
                .copied()
                .filter(|r| faulty.contains(r))
                .collect();
            if hits.is_empty() {
                false_positives.push(s.clone());
            } else {
                detected.extend(hits);
                accurate.push(s.clone());
            }
        }
        let missed: BTreeSet<RouterId> = faulty.difference(&detected).copied().collect();
        Self {
            accurate,
            false_positives,
            detected_faulty: detected,
            missed_faulty: missed,
            max_precision,
        }
    }

    /// Whether the batch satisfies a-Accuracy.
    pub fn is_accurate(&self, a: usize) -> bool {
        self.false_positives.is_empty() && self.max_precision <= a
    }

    /// Whether every faulty router was covered (completeness for the
    /// routers that actually misbehaved this run).
    pub fn is_complete(&self) -> bool {
        self.missed_faulty.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(v: u32) -> RouterId {
        RouterId::from(v)
    }

    fn susp(routers: &[u32], by: u32) -> Suspicion {
        Suspicion {
            segment: PathSegment::new(routers.iter().map(|&v| rid(v)).collect()),
            interval: Interval::new(SimTime::ZERO, SimTime::from_secs(5)),
            raised_by: rid(by),
        }
    }

    #[test]
    fn interval_contains() {
        let i = Interval::new(SimTime::from_ms(10), SimTime::from_ms(20));
        assert!(i.contains(SimTime::from_ms(10)));
        assert!(i.contains(SimTime::from_ms(20)));
        assert!(!i.contains(SimTime::from_ms(21)));
    }

    #[test]
    #[should_panic(expected = "ends before")]
    fn backwards_interval_rejected() {
        let _ = Interval::new(SimTime::from_ms(2), SimTime::from_ms(1));
    }

    #[test]
    fn an_alert_is_attributable_to_its_origin_and_tamper_evident() {
        let mut ks = KeyStore::with_seed(11);
        for r in 0..8 {
            ks.register(r);
        }
        let alert = SignedAlert::sign(&ks, susp(&[1, 2, 3], 1));
        assert!(alert.verify(&ks));
        // Not attributable to anyone else — registered or not — and bound
        // to the segment and interval it was raised for.
        for other in [2, 100] {
            let mut stolen = alert.clone();
            stolen.suspicion.raised_by = rid(other);
            assert!(!stolen.verify(&ks));
        }
        let mut moved = alert.clone();
        moved.suspicion.segment = PathSegment::new(vec![rid(1), rid(4)]);
        assert!(!moved.verify(&ks));
        let mut later = alert.clone();
        later.suspicion.interval.end = SimTime::from_secs(6);
        assert!(!later.verify(&ks));
    }

    #[test]
    fn evaluate_classifies_hits_and_misses() {
        let faulty: BTreeSet<RouterId> = [rid(2), rid(7)].into_iter().collect();
        let sus = vec![
            susp(&[1, 2], 0), // accurate: contains 2
            susp(&[3, 4], 0), // false positive
            susp(&[5, 6], 9), // hmm raised by 9 (correct): false positive
        ];
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert_eq!(check.accurate.len(), 1);
        assert_eq!(check.false_positives.len(), 2);
        assert!(check.detected_faulty.contains(&rid(2)));
        assert!(check.missed_faulty.contains(&rid(7)));
        assert!(!check.is_accurate(2));
        assert!(!check.is_complete());
    }

    #[test]
    fn faulty_raisers_are_ignored() {
        let faulty: BTreeSet<RouterId> = [rid(2)].into_iter().collect();
        // Router 2 (faulty) frames the correct segment ⟨5, 6⟩.
        let sus = vec![susp(&[5, 6], 2), susp(&[1, 2], 0)];
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(check.false_positives.is_empty());
        assert!(check.is_accurate(2));
        assert!(check.is_complete());
    }

    #[test]
    fn precision_is_max_segment_length() {
        let faulty: BTreeSet<RouterId> = [rid(1)].into_iter().collect();
        let sus = vec![susp(&[1, 2], 0), susp(&[1, 2, 3, 4], 0)];
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert_eq!(check.max_precision, 4);
        assert!(check.is_accurate(4));
        assert!(!check.is_accurate(2));
    }
}
