//! Crash-restart re-admission: the probation state machine.
//!
//! A router that crashes and restarts returns with fresh HMAC state (its
//! incarnation is bumped by the key authority) but no recent behavioural
//! history — the traffic-validation record that vouched for it died with
//! the crash. Re-admitting it straight into the transit fabric would let a
//! compromised router launder its record by rebooting. Instead, a restarted
//! router rejoins **on probation**: it may source and sink its own traffic
//! (so its operators can reach it), but carries transit traffic only as a
//! last resort — for pairs no route around it serves — until it has
//! survived `K` clean validation rounds. A conviction touching the
//! probationer resets it to the start of probation.
//!
//! The tracker is deliberately deterministic: admission and clearing are
//! functions of round numbers, so every correct router that applies the
//! same link-state updates reaches the same verdict at the same round
//! boundary without extra agreement traffic.

use fatih_topology::RouterId;
use std::collections::HashMap;

/// Where a router stands with the re-admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbationStatus {
    /// Not under probation (never restarted, or fully cleared).
    Clear,
    /// Readmitted but not yet trusted with transit traffic; clears at the
    /// contained round boundary.
    Probation {
        /// First round whose validation verdict counts toward clearing.
        since_round: u64,
        /// Round boundary at which the router regains transit duty.
        clears_at_round: u64,
    },
}

/// Tracks probation for every restarted router a node knows about.
///
/// # Examples
///
/// ```
/// use fatih_core::probation::{ProbationStatus, ProbationTracker};
/// use fatih_topology::RouterId;
/// let mut t = ProbationTracker::new(2);
/// let r = RouterId::from(7);
/// t.admit(r, 10);
/// assert!(t.is_on_probation(r));
/// assert_eq!(t.clear_due(11), vec![]);
/// assert_eq!(t.clear_due(12), vec![(r, 12)]);
/// assert_eq!(t.status(r), ProbationStatus::Clear);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbationTracker {
    /// Clean rounds required before a probationer carries transit traffic.
    k: u64,
    probation: HashMap<RouterId, ProbationStatus>,
}

impl ProbationTracker {
    /// A tracker requiring `k` clean rounds (the re-admission policy's K).
    pub fn new(k: u64) -> Self {
        Self {
            k: k.max(1),
            probation: HashMap::new(),
        }
    }

    /// The configured number of clean rounds.
    pub fn required_rounds(&self) -> u64 {
        self.k
    }

    /// Puts a restarted router on probation starting at `from_round`.
    /// Re-admitting a router already on probation restarts its clock (a
    /// second crash during probation starts over).
    pub fn admit(&mut self, router: RouterId, from_round: u64) {
        self.probation.insert(
            router,
            ProbationStatus::Probation {
                since_round: from_round,
                clears_at_round: from_round + self.k,
            },
        );
    }

    /// A conviction or accusation touching the probationer during its
    /// probation window: the clock restarts from `round`, unless it
    /// already started later — a conviction older than the admission
    /// never shortens the probation.
    pub fn violation(&mut self, router: RouterId, round: u64) -> bool {
        match self.status(router) {
            ProbationStatus::Probation { since_round, .. } => {
                self.admit(router, round.max(since_round));
                true
            }
            ProbationStatus::Clear => false,
        }
    }

    /// The router's current standing.
    pub fn status(&self, router: RouterId) -> ProbationStatus {
        self.probation
            .get(&router)
            .copied()
            .unwrap_or(ProbationStatus::Clear)
    }

    /// Whether the router is still barred from transit duty.
    pub fn is_on_probation(&self, router: RouterId) -> bool {
        matches!(self.status(router), ProbationStatus::Probation { .. })
    }

    /// Routers currently on probation, in id order.
    pub fn on_probation(&self) -> Vec<RouterId> {
        let mut v: Vec<RouterId> = self
            .probation
            .iter()
            .filter(|(_, s)| matches!(s, ProbationStatus::Probation { .. }))
            .map(|(r, _)| *r)
            .collect();
        v.sort();
        v
    }

    /// Evaluated at the boundary of `round` (i.e. once rounds `< round`
    /// have verdicts): clears every probationer whose window has elapsed
    /// and returns each with the boundary its window ended at, in id
    /// order. The boundary is the router's own, not `round`: a caller that
    /// looks late learns the same boundary as one that looked on time.
    pub fn clear_due(&mut self, round: u64) -> Vec<(RouterId, u64)> {
        let mut cleared: Vec<(RouterId, u64)> = self
            .probation
            .iter()
            .filter_map(|(r, s)| match s {
                ProbationStatus::Probation {
                    clears_at_round, ..
                } if round >= *clears_at_round => Some((*r, *clears_at_round)),
                _ => None,
            })
            .collect();
        cleared.sort();
        for (r, _) in &cleared {
            self.probation.remove(r);
        }
        cleared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RouterId {
        RouterId::from(i)
    }

    #[test]
    fn admits_and_clears_after_k_rounds() {
        let mut t = ProbationTracker::new(3);
        t.admit(r(1), 5);
        assert!(t.is_on_probation(r(1)));
        assert_eq!(
            t.status(r(1)),
            ProbationStatus::Probation {
                since_round: 5,
                clears_at_round: 8,
            }
        );
        assert!(t.clear_due(7).is_empty());
        assert_eq!(t.clear_due(8), vec![(r(1), 8)]);
        assert!(!t.is_on_probation(r(1)));
        // Idempotent once cleared.
        assert!(t.clear_due(9).is_empty());
    }

    #[test]
    fn violation_restarts_the_clock() {
        let mut t = ProbationTracker::new(2);
        t.admit(r(4), 10);
        assert!(t.violation(r(4), 11));
        assert!(t.clear_due(12).is_empty());
        assert_eq!(t.clear_due(13), vec![(r(4), 13)]);
        // Violations against clear routers are not probation business.
        assert!(!t.violation(r(4), 14));
    }

    /// A conviction from before the admission, learnt after it, must not
    /// move the clock back: a restarted router learns old convictions from
    /// the resync *after* its own admission, and would otherwise clear a
    /// round before the routers that saw them in order.
    #[test]
    fn an_older_violation_never_rewinds_the_clock() {
        let mut t = ProbationTracker::new(2);
        t.admit(r(4), 3);
        assert!(t.violation(r(4), 2));
        assert!(t.clear_due(4).is_empty());
        assert_eq!(t.clear_due(5), vec![(r(4), 5)]);
    }

    #[test]
    fn readmission_during_probation_restarts() {
        let mut t = ProbationTracker::new(2);
        t.admit(r(2), 3);
        t.admit(r(2), 6); // crashed again mid-probation
        assert!(t.clear_due(5).is_empty());
        assert_eq!(t.clear_due(9), vec![(r(2), 8)], "late look, same boundary");
    }

    #[test]
    fn multiple_probationers_clear_in_id_order() {
        let mut t = ProbationTracker::new(1);
        t.admit(r(9), 0);
        t.admit(r(3), 0);
        t.admit(r(7), 5);
        assert_eq!(t.on_probation(), vec![r(3), r(7), r(9)]);
        assert_eq!(t.clear_due(1), vec![(r(3), 1), (r(9), 1)]);
        assert_eq!(t.on_probation(), vec![r(7)]);
    }

    #[test]
    fn k_is_at_least_one() {
        let mut t = ProbationTracker::new(0);
        assert_eq!(t.required_rounds(), 1);
        t.admit(r(0), 2);
        assert!(t.clear_due(2).is_empty());
        assert_eq!(t.clear_due(3), vec![(r(0), 3)]);
    }
}
