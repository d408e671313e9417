//! The static-threshold baseline (dissertation §6.1.1).
//!
//! "Most traffic validation protocols … analyze aggregate traffic over some
//! period of time … all of these systems employ a pre-defined threshold:
//! too many dropped packets implies some router is compromised. However,
//! this heuristic is fundamentally flawed: how does one choose the
//! threshold?" — this detector exists to lose fairly against Protocol χ in
//! the §6.4.3 comparison: it watches the same queue with the same
//! observations and flags a round whenever the loss fraction exceeds a
//! user-chosen constant.

use crate::chi::QueueTap;
use fatih_crypto::{Fingerprint, KeyStore};
use fatih_sim::{Packet, SimTime, TapEvent};
use fatih_topology::{RouterId, Topology};
use std::collections::HashSet;

/// A static-threshold loss detector for one output interface, consuming
/// the same neighbour observations as Protocol χ's validator.
#[derive(Debug)]
pub struct ThresholdDetector {
    tap: QueueTap,
    loss_fraction_threshold: f64,
    exits: HashSet<Fingerprint>,
}

/// One round's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdVerdict {
    /// Packets that should have crossed the interface.
    pub offered: usize,
    /// Packets observed downstream.
    pub forwarded: usize,
    /// Observed loss fraction.
    pub loss_fraction: f64,
    /// Whether the threshold fired.
    pub detected: bool,
}

impl ThresholdDetector {
    /// Builds the detector for queue `router → egress` with the given
    /// loss-fraction threshold in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist or the threshold is out of range.
    pub fn new(
        topo: &Topology,
        keystore: &KeyStore,
        router: RouterId,
        egress: RouterId,
        loss_fraction_threshold: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss_fraction_threshold),
            "threshold must be a fraction"
        );
        Self {
            tap: QueueTap::new(topo, keystore, router, egress),
            loss_fraction_threshold,
            exits: HashSet::new(),
        }
    }

    /// Feeds one simulator observation (same information set as
    /// [`crate::chi::QueueValidator::observe`]).
    pub fn observe(&mut self, ev: &TapEvent, next_hop_of: impl Fn(&Packet) -> Option<RouterId>) {
        self.tap.observe(ev, next_hop_of);
    }

    /// Ends the round at `now`, judging only entries old enough that their
    /// exits must have been seen.
    pub fn end_round(&mut self, now: SimTime) -> ThresholdVerdict {
        self.exits
            .extend(self.tap.take_exits().iter().map(|e| e.fingerprint));
        let due = self.tap.end_round(now).entries;
        let offered = due.len();
        let forwarded = (due.iter())
            .filter(|e| self.exits.remove(&e.fingerprint))
            .count();
        let loss_fraction = if offered == 0 {
            0.0
        } else {
            (offered - forwarded) as f64 / offered as f64
        };
        ThresholdVerdict {
            offered,
            forwarded,
            loss_fraction,
            detected: offered > 0 && loss_fraction > self.loss_fraction_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_sim::{Attack, Network};
    use fatih_topology::{builtin, LinkParams};

    fn fixture(q_limit: u32) -> (Network, KeyStore, RouterId, RouterId) {
        let topo = builtin::fan_in(
            3,
            LinkParams {
                bandwidth_bps: 8_000_000,
                queue_limit_bytes: q_limit,
                ..LinkParams::default()
            },
        );
        let mut ks = KeyStore::with_seed(4);
        for r in topo.routers() {
            ks.register(r.into());
        }
        let r = topo.router_by_name("r").unwrap();
        let rd = topo.router_by_name("rd").unwrap();
        (Network::new(topo, 3), ks, r, rd)
    }

    fn drive(net: &mut Network, det: &mut ThresholdDetector, until_secs: u64) -> ThresholdVerdict {
        let routes = net.routes().clone();
        let at = det.tap.router();
        let end = SimTime::from_secs(until_secs);
        net.run_until(end, |ev| {
            det.observe(ev, |p| {
                routes
                    .path(p.src, p.dst)
                    .and_then(|path| path.next_after(at))
            })
        });
        det.end_round(end)
    }

    #[test]
    fn congestion_trips_a_tight_threshold() {
        // The unsoundness: a 1% threshold false-positives under plain
        // congestion.
        let (mut net, ks, r, rd) = fixture(8_000);
        let mut det = ThresholdDetector::new(net.topology(), &ks, r, rd, 0.01);
        for i in 0..3 {
            let s = net.topology().router_by_name(&format!("s{i}")).unwrap();
            net.add_cbr_flow(
                s,
                rd,
                1000,
                SimTime::from_us(1100),
                SimTime::ZERO,
                Some(SimTime::from_secs(5)),
            );
        }
        let v = drive(&mut net, &mut det, 7);
        assert!(net.ground_truth().congestive_drops > 0);
        assert!(v.detected, "no false positive at 1%: {v:?}");
    }

    #[test]
    fn loose_threshold_misses_a_subtle_attack() {
        // …while a threshold loose enough to absorb congestion (20%)
        // misses a 5% targeted attack on an uncongested queue.
        let (mut net, ks, r, rd) = fixture(64_000);
        let mut det = ThresholdDetector::new(net.topology(), &ks, r, rd, 0.20);
        let s0 = net.topology().router_by_name("s0").unwrap();
        let flow = net.add_cbr_flow(
            s0,
            rd,
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            Some(SimTime::from_secs(5)),
        );
        net.set_attacks(r, vec![Attack::drop_flows([flow], 0.05)]);
        let v = drive(&mut net, &mut det, 7);
        assert!(net.ground_truth().malicious_drops > 0);
        assert!(!v.detected, "20% threshold should sleep through 5%: {v:?}");
        assert!(v.loss_fraction > 0.0);
    }

    #[test]
    fn blatant_attack_is_caught() {
        let (mut net, ks, r, rd) = fixture(64_000);
        let mut det = ThresholdDetector::new(net.topology(), &ks, r, rd, 0.20);
        let s0 = net.topology().router_by_name("s0").unwrap();
        let flow = net.add_cbr_flow(
            s0,
            rd,
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            Some(SimTime::from_secs(5)),
        );
        net.set_attacks(r, vec![Attack::drop_flows([flow], 0.5)]);
        let v = drive(&mut net, &mut det, 7);
        assert!(v.detected);
        assert!(v.loss_fraction > 0.3);
    }

    #[test]
    fn idle_round_is_clean() {
        let (mut net, ks, r, rd) = fixture(64_000);
        let mut det = ThresholdDetector::new(net.topology(), &ks, r, rd, 0.0);
        let v = drive(&mut net, &mut det, 1);
        assert_eq!(v.offered, 0);
        assert!(!v.detected);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_out_of_range_threshold() {
        let (net, ks, r, rd) = fixture(64_000);
        let _ = ThresholdDetector::new(net.topology(), &ks, r, rd, 1.5);
    }
}
