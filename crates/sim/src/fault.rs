//! Deterministic control-plane fault injection.
//!
//! The dissertation's threat model (§2.1.3, §5.1.1) has protocol traffic —
//! summaries, acknowledgments, alerts — traverse the *same adversarial
//! network* it polices. A [`FaultPlan`] makes that concrete: per-link
//! probabilities of control-message loss, duplication, reordering and
//! corruption, plus scheduled link flaps and router crash–restart windows.
//!
//! Faults are *benign* in the §2.2.1 taxonomy: they are environmental, not
//! attributable misbehaviour, so the detectors must tolerate them without
//! accusing anyone. They compose with the [`crate::attack`] machinery — a
//! run may have both a compromised router and a lossy control plane.
//!
//! Structural faults (flaps, crashes) affect **every** packet crossing the
//! affected element. The probabilistic faults apply only to
//! [`PacketKind::Control`](crate::packet::PacketKind::Control) packets: the
//! data plane already has congestion and attacks for loss, while the
//! control plane needs its own adversary to exercise retry, dedup and
//! timeout-as-accusation logic. All decisions come from a dedicated RNG
//! seeded from the plan, so a run is reproducible from `(topology seed,
//! fault seed)` alone.

use crate::time::SimTime;
use fatih_topology::RouterId;
use std::collections::BTreeMap;

/// Per-link control-message fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a control packet is silently lost on the link.
    pub loss: f64,
    /// Probability a control packet is delivered twice.
    pub duplicate: f64,
    /// Probability a control packet's payload is corrupted in flight
    /// (receivers see a failed integrity check, as with a MAC mismatch).
    pub corrupt: f64,
    /// Probability a control packet is held back and overtaken by later
    /// traffic (delivered out of order).
    pub reorder: f64,
    /// Maximum extra latency a held-back packet experiences.
    pub reorder_delay: SimTime,
}

impl Default for LinkFaults {
    fn default() -> Self {
        Self {
            loss: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            reorder_delay: SimTime::from_ms(10),
        }
    }
}

impl LinkFaults {
    /// A link with no probabilistic faults.
    pub const NONE: LinkFaults = LinkFaults {
        loss: 0.0,
        duplicate: 0.0,
        corrupt: 0.0,
        reorder: 0.0,
        reorder_delay: SimTime::from_ms(10),
    };

    /// Whether any probabilistic fault can fire.
    pub fn is_none(&self) -> bool {
        self.loss == 0.0 && self.duplicate == 0.0 && self.corrupt == 0.0 && self.reorder == 0.0
    }
}

/// A scheduled full outage of one directional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkFlap {
    /// Link tail.
    from: RouterId,
    /// Link head.
    to: RouterId,
    /// Outage start (inclusive).
    down_at: SimTime,
    /// Outage end (exclusive).
    up_at: SimTime,
}

/// A scheduled crash–restart window of one router. While down, the router
/// forwards nothing and loses everything addressed to or through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CrashWindow {
    /// The crashing router.
    router: RouterId,
    /// Crash time (inclusive).
    down_at: SimTime,
    /// Restart time (exclusive).
    up_at: SimTime,
}

/// A deterministic, seed-driven fault schedule for one simulation run.
///
/// # Examples
///
/// ```
/// use fatih_sim::{FaultPlan, LinkFaults, SimTime};
///
/// let plan = FaultPlan::new(7).with_default_link_faults(LinkFaults {
///     loss: 0.10,
///     duplicate: 0.05,
///     ..LinkFaults::default()
/// });
/// assert_eq!(plan.seed(), 7);
/// assert!(plan.quiesced_after() == SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    default_link: LinkFaults,
    per_link: BTreeMap<(RouterId, RouterId), LinkFaults>,
    flaps: Vec<LinkFlap>,
    crashes: Vec<CrashWindow>,
    probabilistic_until: Option<SimTime>,
}

impl FaultPlan {
    /// An empty plan whose fault RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The fault RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the fault probabilities applied to links without an explicit
    /// per-link entry.
    pub fn with_default_link_faults(mut self, faults: LinkFaults) -> Self {
        self.default_link = faults;
        self
    }

    /// Sets the fault probabilities of one directional link.
    pub fn with_link_faults(mut self, from: RouterId, to: RouterId, faults: LinkFaults) -> Self {
        self.per_link.insert((from, to), faults);
        self
    }

    /// Schedules a full outage of `from → to` during `[down_at, up_at)`.
    pub fn with_link_flap(
        mut self,
        from: RouterId,
        to: RouterId,
        down_at: SimTime,
        up_at: SimTime,
    ) -> Self {
        self.flaps.push(LinkFlap {
            from,
            to,
            down_at,
            up_at,
        });
        self
    }

    /// Schedules a crash–restart of `router` during `[down_at, up_at)`.
    pub fn with_crash(mut self, router: RouterId, down_at: SimTime, up_at: SimTime) -> Self {
        self.crashes.push(CrashWindow {
            router,
            down_at,
            up_at,
        });
        self
    }

    /// Stops all probabilistic link faults from `t` on (exclusive). A plan
    /// with this horizon set is *transient*: after
    /// [`quiesced_after`](Self::quiesced_after) the control plane is clean.
    pub fn with_probabilistic_until(mut self, t: SimTime) -> Self {
        self.probabilistic_until = Some(t);
        self
    }

    /// The fault probabilities in force on `from → to` at time `at`.
    pub fn link_faults(&self, from: RouterId, to: RouterId, at: SimTime) -> LinkFaults {
        if let Some(until) = self.probabilistic_until {
            if at >= until {
                return LinkFaults::NONE;
            }
        }
        self.per_link
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// Whether `from → to` is flapped down at `at`.
    pub fn link_down(&self, from: RouterId, to: RouterId, at: SimTime) -> bool {
        self.flaps
            .iter()
            .any(|f| f.from == from && f.to == to && f.down_at <= at && at < f.up_at)
    }

    /// Whether `router` is crashed at `at`.
    pub fn router_down(&self, router: RouterId, at: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|c| c.router == router && c.down_at <= at && at < c.up_at)
    }

    /// The time after which no fault is active: the last flap or crash
    /// recovery, or the probabilistic horizon if later. Plans without a
    /// probabilistic horizon never quiesce their link faults; only the
    /// structural end is reported.
    pub fn quiesced_after(&self) -> SimTime {
        let flap_end = self.flaps.iter().map(|f| f.up_at).max();
        let crash_end = self.crashes.iter().map(|c| c.up_at).max();
        flap_end
            .max(crash_end)
            .max(self.probabilistic_until)
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_link_overrides_default() {
        let a = RouterId::from(0);
        let b = RouterId::from(1);
        let plan = FaultPlan::new(1)
            .with_default_link_faults(LinkFaults {
                loss: 0.1,
                ..LinkFaults::default()
            })
            .with_link_faults(
                a,
                b,
                LinkFaults {
                    loss: 0.5,
                    ..LinkFaults::default()
                },
            );
        assert_eq!(plan.link_faults(a, b, SimTime::ZERO).loss, 0.5);
        assert_eq!(plan.link_faults(b, a, SimTime::ZERO).loss, 0.1);
        let transient = plan.with_probabilistic_until(SimTime::from_secs(1));
        assert_eq!(transient.link_faults(a, b, SimTime::from_ms(999)).loss, 0.5);
        assert!(transient.link_faults(a, b, SimTime::from_secs(1)).is_none());
    }

    #[test]
    fn flap_and_crash_windows_are_half_open() {
        let a = RouterId::from(0);
        let b = RouterId::from(1);
        let plan = FaultPlan::new(1)
            .with_link_flap(a, b, SimTime::from_ms(10), SimTime::from_ms(20))
            .with_crash(b, SimTime::from_ms(5), SimTime::from_ms(15));
        assert!(!plan.link_down(a, b, SimTime::from_ms(9)));
        assert!(plan.link_down(a, b, SimTime::from_ms(10)));
        assert!(plan.link_down(a, b, SimTime::from_ms(19)));
        assert!(!plan.link_down(a, b, SimTime::from_ms(20)));
        assert!(!plan.link_down(b, a, SimTime::from_ms(15)));
        assert!(plan.router_down(b, SimTime::from_ms(5)));
        assert!(!plan.router_down(b, SimTime::from_ms(15)));
        assert!(!plan.router_down(a, SimTime::from_ms(10)));
        assert_eq!(plan.quiesced_after(), SimTime::from_ms(20));
    }
}
