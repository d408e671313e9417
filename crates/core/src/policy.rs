//! Conservation policies and report-level traffic validation shared by the
//! Chapter 5 protocols, plus the protocol-faulty report behaviours of
//! §2.2.1.
//!
//! Validation is *maturity-windowed*: only packets observed at or before
//! a cutoff are judged, so packets still in flight at a round boundary are
//! deferred instead of miscounted. Which window a round judges is
//! [`crate::rounds::Window`]'s business; [`tv_pair`] is handed the bounds.

use crate::monitor::{Report, ReportEntry};
use fatih_crypto::Fingerprint;
use fatih_sim::SimTime;
use std::collections::BTreeMap;

/// Which conservation-of-traffic property the detector validates (§2.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Volume only (WATCHERS-class; blind to modification, which swaps
    /// one packet for another).
    Flow,
    /// Fingerprint multisets (loss + modification + fabrication).
    Content,
    /// Ordered fingerprints (adds reordering).
    Order,
}

/// Allowances for benign anomalies (congestive loss, internal
/// multiplexing) — the thresholds of §4.2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    /// Tolerated lost packets per segment per round.
    pub loss: usize,
    /// Tolerated reordering (order policy only).
    pub reorder: usize,
}

impl Default for Thresholds {
    /// Zero tolerance — appropriate for uncongested control experiments;
    /// congested deployments raise `loss` (or use Protocol χ instead,
    /// which is the whole point of Chapter 6).
    fn default() -> Self {
        Self {
            loss: 0,
            reorder: 0,
        }
    }
}

/// The outcome of validating one adjacent (or end-to-end) pair of reports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PairVerdict {
    /// Mature upstream packets never seen downstream.
    pub lost: Vec<Fingerprint>,
    /// Mature downstream packets never sent upstream.
    pub fabricated: Vec<Fingerprint>,
    /// Whether either report was ⊥ (missing/unauthenticated).
    pub bottom: bool,
}

impl PairVerdict {
    /// Whether the pair conserves traffic under `policy` and `thresholds`:
    /// its volume under [`Policy::Flow`], its content under the other two.
    /// [`Policy::Order`]'s bound on reordering is not a verdict's: it reads
    /// the sequences ([`Window::reordered`](crate::rounds::Window::reordered)),
    /// and Π2 applies it.
    pub fn passes(&self, policy: Policy, thresholds: &Thresholds) -> bool {
        if self.bottom {
            return false;
        }
        match policy {
            // Flow sees only net volume: a modification (one lost + one
            // fabricated) cancels out — the documented blindness of the
            // conservation-of-flow policy.
            Policy::Flow => self.lost.len().abs_diff(self.fabricated.len()) <= thresholds.loss,
            Policy::Content | Policy::Order => {
                self.fabricated.is_empty() && self.lost.len() <= thresholds.loss
            }
        }
    }
}

/// Evaluates `TV(π, info(up), info(down))` for one pair of reports,
/// judging the packets either end observed in `(judged_from, cutoff]`
/// against everything the other end's report holds. `None` for a report
/// models ⊥ — a missing or unauthenticated report, which only a
/// protocol-faulty router causes, so ⊥ always fails.
///
/// Soundness of the upper bound: an upstream observation at `t ≤ cutoff`
/// reaches the downstream recorder within the transit bound that the
/// caller builds into `cutoff`, so a mature upstream packet absent
/// downstream really was dropped; and a mature downstream packet was
/// observed upstream strictly earlier, so its absence upstream really is
/// fabrication.
///
/// `judged_from` is the lower bound of a sliding-window record
/// ([`crate::rounds::Window`], which every protocol host calls this
/// through): the previous round's cutoff, or `None` in a first round. The
/// reports hold one transit bound more than that, so a packet is lost or
/// fabricated in exactly one round. A downstream entry of the look-back
/// slice must not read as fabricated — its upstream entry may be gone
/// already — which is why the bound applies to both sets.
///
/// `fabrication_floor` guards against monitors attached to a live
/// network: packets already in flight when monitoring began appear
/// downstream with no upstream record; downstream entries observed before
/// the floor are therefore never judged as fabrication.
pub fn tv_pair(
    upstream: Option<&Report>,
    downstream: Option<&Report>,
    judged_from: Option<SimTime>,
    cutoff: SimTime,
    fabrication_floor: SimTime,
) -> PairVerdict {
    let (Some(up), Some(down)) = (upstream, downstream) else {
        return PairVerdict {
            bottom: true,
            ..PairVerdict::default()
        };
    };
    let up_judged = up.window(judged_from, Some(cutoff));
    let down_judged = down.window(judged_from, Some(cutoff));

    let lost = unmatched(&up_judged, down).map(|e| e.fingerprint).collect();
    let fabricated = unmatched(&down_judged, up)
        .filter(|e| e.time >= fabrication_floor)
        .map(|e| e.fingerprint)
        .collect();
    PairVerdict {
        lost,
        fabricated,
        bottom: false,
    }
}

/// The entries of `judged` left over once each entry of `held` has
/// matched at most one of them by fingerprint: a multiset difference.
fn unmatched<'a>(judged: &'a Report, held: &Report) -> impl Iterator<Item = &'a ReportEntry> {
    let mut counts: BTreeMap<Fingerprint, u32> = BTreeMap::new();
    for e in &held.entries {
        *counts.entry(e.fingerprint).or_insert(0) += 1;
    }
    judged
        .entries
        .iter()
        .filter(move |e| match counts.get_mut(&e.fingerprint) {
            Some(c) if *c > 0 => {
                *c -= 1;
                false
            }
            _ => true,
        })
}

/// Protocol-faulty report behaviour (§2.2.1: a router that "misbehaves
/// with respect to the proposed protocol by not participating, announcing
/// incorrect reports, or colluding").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFault {
    /// Sends no reports / refuses the exchange.
    Silent,
    /// Reports that it forwarded exactly what it received — the natural
    /// cover story for its own drops.
    HideDrops,
    /// Pads its report with `n` fabricated fingerprints (e.g. to "fudge"
    /// WATCHERS-style counters, §2.4.1).
    Inflate(u32),
}

/// Applies a report fault. `received` is what the liar actually received
/// from upstream (available to it, and what [`ReportFault::HideDrops`]
/// claims it forwarded). Returns `None` for [`ReportFault::Silent`].
pub fn distort(
    fault: Option<ReportFault>,
    own: &Report,
    received: Option<&Report>,
    salt: u64,
) -> Option<Report> {
    match fault {
        None => Some(own.clone()),
        Some(ReportFault::Silent) => None,
        Some(ReportFault::HideDrops) => Some(received.cloned().unwrap_or_else(|| own.clone())),
        Some(ReportFault::Inflate(n)) => {
            let mut r = own.clone();
            let last_time = r.entries.last().map(|e| e.time).unwrap_or(SimTime::ZERO);
            for i in 0..n {
                // Fabricated fingerprints; deterministic per salt.
                let v = (salt ^ 0xFAB0_0000)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64);
                r.entries.push(crate::monitor::ReportEntry {
                    fingerprint: Fingerprint::new(v),
                    size: 1000,
                    time: last_time,
                });
            }
            Some(r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(fps: &[u64]) -> Report {
        Report {
            entries: fps
                .iter()
                .enumerate()
                .map(|(i, &v)| ReportEntry {
                    fingerprint: Fingerprint::new(v),
                    size: 100,
                    time: SimTime::from_ms(i as u64),
                })
                .collect(),
        }
    }

    const LATE: SimTime = SimTime::from_secs(100);

    #[test]
    fn equal_reports_pass_all_policies() {
        let r = report(&[1, 2, 3]);
        let v = tv_pair(Some(&r), Some(&r), None, LATE, SimTime::ZERO);
        for p in [Policy::Flow, Policy::Content, Policy::Order] {
            assert!(v.passes(p, &Thresholds::default()));
        }
    }

    #[test]
    fn loss_fails_within_threshold_semantics() {
        let up = report(&[1, 2, 3]);
        let down = report(&[1, 3]);
        let v = tv_pair(Some(&up), Some(&down), None, LATE, SimTime::ZERO);
        assert_eq!(v.lost.len(), 1);
        let th0 = Thresholds::default();
        let th1 = Thresholds {
            loss: 1,
            reorder: 0,
        };
        for p in [Policy::Flow, Policy::Content, Policy::Order] {
            assert!(!v.passes(p, &th0), "{p:?}");
            assert!(v.passes(p, &th1), "{p:?}");
        }
    }

    #[test]
    fn flow_misses_modification_but_content_catches_it() {
        let up = report(&[1, 2, 3]);
        let down = report(&[1, 2, 99]); // packet 3 modified into 99
        let v = tv_pair(Some(&up), Some(&down), None, LATE, SimTime::ZERO);
        assert_eq!(v.lost.len(), 1);
        assert_eq!(v.fabricated.len(), 1);
        let th = Thresholds {
            loss: 1,
            reorder: 0,
        };
        assert!(v.passes(Policy::Flow, &th));
        assert!(!v.passes(Policy::Content, &th));
    }

    #[test]
    fn flow_and_content_pass_reordering() {
        let up = report(&[1, 2, 3]);
        let down = report(&[2, 1, 3]);
        let v = tv_pair(Some(&up), Some(&down), None, LATE, SimTime::ZERO);
        let th = Thresholds::default();
        assert!(v.passes(Policy::Flow, &th));
        assert!(v.passes(Policy::Content, &th));
    }

    #[test]
    fn immature_packets_are_not_judged() {
        // Upstream saw packet 3 after the cutoff; downstream hasn't seen
        // it at all (in flight). Not a loss.
        let up = report(&[1, 2, 3]); // times 0ms, 1ms, 2ms
        let down = report(&[1, 2]);
        let v = tv_pair(
            Some(&up),
            Some(&down),
            None,
            SimTime::from_ms(1),
            SimTime::ZERO,
        );
        assert!(v.lost.is_empty(), "{v:?}");
        assert!(v.passes(Policy::Content, &Thresholds::default()));
    }

    #[test]
    fn young_downstream_extras_are_not_fabrication() {
        // Downstream observed a packet after the cutoff that upstream
        // recorded (normal in-flight); and one genuinely fabricated mature
        // packet must still be caught.
        let up = report(&[1, 2]);
        let mut down = report(&[1, 99, 2]); // 99 mature, never upstream
        down.entries[2].time = SimTime::from_secs(99); // 2 still young
        let v = tv_pair(
            Some(&up),
            Some(&down),
            None,
            SimTime::from_ms(10),
            SimTime::ZERO,
        );
        assert_eq!(v.fabricated, vec![Fingerprint::new(99)]);
    }

    #[test]
    fn bottom_always_fails() {
        let r = report(&[1]);
        for (a, b) in [(None, Some(&r)), (Some(&r), None), (None, None)] {
            let v = tv_pair(a, b, None, LATE, SimTime::ZERO);
            assert!(v.bottom);
            assert!(!v.passes(Policy::Flow, &Thresholds::default()));
        }
    }

    #[test]
    fn fabrication_floor_suppresses_warmup_phantoms() {
        // Downstream observed a packet the (late-attached) upstream
        // monitor never saw; inside the warm-up window it is not judged.
        let up = report(&[1]);
        let down = report(&[99, 1]); // 99 at t=0ms, unknown upstream
        let v = tv_pair(Some(&up), Some(&down), None, LATE, SimTime::from_ms(1));
        assert!(v.fabricated.is_empty());
        // After the floor it is.
        let v = tv_pair(Some(&up), Some(&down), None, LATE, SimTime::ZERO);
        assert_eq!(v.fabricated, vec![Fingerprint::new(99)]);
    }

    #[test]
    fn distortions() {
        let own = report(&[1]);
        let received = report(&[1, 2, 3]);
        assert_eq!(distort(None, &own, Some(&received), 0), Some(own.clone()));
        assert_eq!(
            distort(Some(ReportFault::Silent), &own, Some(&received), 0),
            None
        );
        assert_eq!(
            distort(Some(ReportFault::HideDrops), &own, Some(&received), 0),
            Some(received.clone())
        );
        let inflated = distort(Some(ReportFault::Inflate(2)), &own, None, 7).unwrap();
        assert_eq!(inflated.len(), 3);
    }
}
