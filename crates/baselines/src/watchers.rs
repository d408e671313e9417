//! The WATCHERS baseline (dissertation §3.1): conservation-of-flow
//! detection with per-router counters, including the consorting-routers
//! weakness of its aggregate-counter form.
//!
//! Every router keeps byte counters per incident link (Figure 3.1):
//! `S_{x,y}` (traffic it originated), `T_{x,y}` (transit), `D_{x,y}`
//! (traffic to be absorbed). Snapshots are flooded; the conservation-of-
//! flow test checks, for each router b, that what entered b equals what
//! left b (± originated/absorbed) up to a threshold `T`.
//!
//! The original protocol aggregated counters per neighbour; Bradley et al.
//! moved to per-destination counters after noticing that *consorting*
//! faulty routers can launder dropped transit traffic as locally-absorbed
//! traffic. Both modes are implemented so the `watchers_flaw` experiment
//! can demonstrate exactly that: [`WatchersMode::Aggregate`] passes the
//! laundering attack, [`WatchersMode::PerDestination`] catches it.

use fatih_core::spec::{Interval, Suspicion};
use fatih_sim::{SimTime, TapEvent};
use fatih_topology::{PathSegment, RouterId, Topology};
use std::collections::{BTreeMap, BTreeSet};

/// Counter granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchersMode {
    /// One counter set per neighbour (the original, flawed form —
    /// `O(R)` counters per router).
    Aggregate,
    /// One counter set per neighbour per destination (the fixed form —
    /// `O(R·N)` counters per router, §3.1).
    PerDestination,
}

/// Counter tampering by consorting faulty routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterFault {
    /// Launder this router's transit drops as traffic destined to
    /// `partner`, with the partner corroborating (the Figure 3.3 attack).
    AbsorbDrops {
        /// The consorting downstream neighbour.
        partner: RouterId,
    },
}

/// Configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchersConfig {
    /// Counter granularity.
    pub mode: WatchersMode,
    /// Conservation-of-flow slack `T`, in bytes.
    pub threshold_bytes: u64,
}

impl Default for WatchersConfig {
    /// Per-destination counters with 10 kB of slack — enough to absorb
    /// packets in flight at a round boundary on our fixtures, and exactly
    /// the kind of arbitrary constant §6.1.1 criticizes.
    fn default() -> Self {
        Self {
            mode: WatchersMode::PerDestination,
            threshold_bytes: 10_000,
        }
    }
}

/// The WATCHERS detector (global orchestration of the flooded snapshots).
#[derive(Debug)]
pub struct WatchersDetector {
    cfg: WatchersConfig,
    neighbors: BTreeMap<RouterId, Vec<RouterId>>,
    /// `(x, y, dest) → bytes` — x's view of what it sent to y.
    sent: BTreeMap<(RouterId, RouterId, RouterId), u64>,
    /// `(x, y, dest) → bytes` — y's view of what it received from x.
    recv: BTreeMap<(RouterId, RouterId, RouterId), u64>,
    /// `(router, dest) → bytes` originated at router.
    injected: BTreeMap<(RouterId, RouterId), u64>,
    /// `router → bytes` absorbed (delivered) at router.
    absorbed: BTreeMap<RouterId, u64>,
    faults: BTreeMap<RouterId, CounterFault>,
    round_start: SimTime,
}

impl WatchersDetector {
    /// Builds the detector over a topology.
    pub fn new(topo: &Topology, cfg: WatchersConfig) -> Self {
        let neighbors = topo
            .routers()
            .map(|r| (r, topo.neighbors(r).iter().map(|&(n, _)| n).collect()))
            .collect();
        Self {
            cfg,
            neighbors,
            sent: BTreeMap::new(),
            recv: BTreeMap::new(),
            injected: BTreeMap::new(),
            absorbed: BTreeMap::new(),
            faults: BTreeMap::new(),
            round_start: SimTime::ZERO,
        }
    }

    /// Installs counter tampering at a faulty router.
    pub fn set_counter_fault(&mut self, router: RouterId, fault: CounterFault) {
        self.faults.insert(router, fault);
    }

    /// Feeds one simulator observation.
    pub fn observe(&mut self, ev: &TapEvent) {
        match ev {
            TapEvent::Enqueued {
                router,
                next_hop,
                packet,
                ..
            } => {
                *self
                    .sent
                    .entry((*router, *next_hop, packet.dst))
                    .or_insert(0) += packet.size as u64;
            }
            TapEvent::Arrived {
                router,
                from: Some(from),
                packet,
                ..
            } => {
                *self.recv.entry((*from, *router, packet.dst)).or_insert(0) += packet.size as u64;
            }
            TapEvent::Injected { router, packet, .. } => {
                *self.injected.entry((*router, packet.dst)).or_insert(0) += packet.size as u64;
            }
            TapEvent::Delivered { router, packet, .. } => {
                *self.absorbed.entry(*router).or_insert(0) += packet.size as u64;
            }
            _ => {}
        }
    }

    /// Ends the round: applies counter tampering, floods snapshots, runs
    /// link validation and the conservation-of-flow test.
    pub fn end_round(&mut self, now: SimTime) -> Vec<Suspicion> {
        let interval = Interval::new(self.round_start, now);
        self.round_start = now;
        let mut sent = std::mem::take(&mut self.sent);
        let mut recv = std::mem::take(&mut self.recv);
        let injected = std::mem::take(&mut self.injected);
        let _absorbed = std::mem::take(&mut self.absorbed);

        // Consorting tampering: compute each liar's per-destination transit
        // deficit and launder it as traffic destined to the partner.
        let faults = self.faults.clone();
        for (&c, &CounterFault::AbsorbDrops { partner: d }) in &faults {
            // in(c, dest) from honest upstream receive views; out(c, dest)
            // from c's sent view.
            let mut deficit: BTreeMap<RouterId, u64> = BTreeMap::new();
            for ((_, to, dest), bytes) in &recv {
                if *to == c && *dest != c {
                    *deficit.entry(*dest).or_insert(0) += bytes;
                }
            }
            for ((rtr, dest), bytes) in &injected {
                if *rtr == c && *dest != c {
                    *deficit.entry(*dest).or_insert(0) += bytes;
                }
            }
            for ((from, _, dest), bytes) in &sent {
                if *from == c {
                    let e = deficit.entry(*dest).or_insert(0);
                    *e = e.saturating_sub(*bytes);
                }
            }
            let total: u64 = deficit.values().sum();
            if total == 0 {
                continue;
            }
            // c claims it forwarded the missing bytes to d as traffic
            // *destined to d*; d corroborates on its receive side.
            *sent.entry((c, d, d)).or_insert(0) += total;
            *recv.entry((c, d, d)).or_insert(0) += total;
        }

        let mut out: BTreeSet<Suspicion> = BTreeSet::new();

        // Phase 1 — link validation: x's sent view vs y's receive view.
        // (Queue losses at x happen before its sent counter, so honest
        // links agree exactly in-process.)
        let mut links: BTreeSet<(RouterId, RouterId)> = BTreeSet::new();
        for &(x, y, _) in sent.keys() {
            links.insert((x, y));
        }
        for &(x, y, _) in recv.keys() {
            links.insert((x, y));
        }
        for (x, y) in links {
            let mismatch = match self.cfg.mode {
                WatchersMode::Aggregate => {
                    let s: u64 = sent
                        .iter()
                        .filter(|((a, b, _), _)| *a == x && *b == y)
                        .map(|(_, v)| *v)
                        .sum();
                    let r: u64 = recv
                        .iter()
                        .filter(|((a, b, _), _)| *a == x && *b == y)
                        .map(|(_, v)| *v)
                        .sum();
                    s.abs_diff(r) > self.cfg.threshold_bytes
                }
                WatchersMode::PerDestination => {
                    let dests: BTreeSet<RouterId> = sent
                        .keys()
                        .chain(recv.keys())
                        .filter(|(a, b, _)| *a == x && *b == y)
                        .map(|&(_, _, d)| d)
                        .collect();
                    dests.iter().any(|&d| {
                        sent.get(&(x, y, d))
                            .copied()
                            .unwrap_or(0)
                            .abs_diff(recv.get(&(x, y, d)).copied().unwrap_or(0))
                            > self.cfg.threshold_bytes
                    })
                }
            };
            if mismatch {
                out.insert(Suspicion {
                    segment: PathSegment::new(vec![x, y]),
                    interval,
                    raised_by: y,
                });
            }
        }

        // Phase 2 — conservation of flow per router b, judged by every
        // neighbour from the flooded (neighbour-side) counters.
        for (&b, nbrs) in &self.neighbors {
            let violated = match self.cfg.mode {
                WatchersMode::Aggregate => {
                    let mut inflow: u64 = 0;
                    let mut outflow: u64 = 0;
                    let mut absorbed_in: u64 = 0;
                    for ((_, to, dest), bytes) in &recv {
                        if *to == b {
                            if *dest == b {
                                absorbed_in += bytes;
                            } else {
                                inflow += bytes;
                            }
                        }
                    }
                    let _ = absorbed_in;
                    for ((rtr, dest), bytes) in &injected {
                        if *rtr == b && *dest != b {
                            inflow += bytes;
                        }
                    }
                    for ((from, _, dest), bytes) in &sent {
                        if *from == b && *dest != b {
                            outflow += bytes;
                        }
                    }
                    // Aggregate mode cannot tell transit from to-be-absorbed
                    // traffic, so claimed dest==b bytes sent by b's
                    // upstream count as absorbed and are excluded — the
                    // laundering loophole.
                    inflow.abs_diff(outflow) > self.cfg.threshold_bytes
                }
                WatchersMode::PerDestination => {
                    let mut per_dest: BTreeMap<RouterId, (u64, u64)> = BTreeMap::new();
                    for ((_, to, dest), bytes) in &recv {
                        if *to == b && *dest != b {
                            per_dest.entry(*dest).or_insert((0, 0)).0 += bytes;
                        }
                    }
                    for ((rtr, dest), bytes) in &injected {
                        if *rtr == b && *dest != b {
                            per_dest.entry(*dest).or_insert((0, 0)).0 += bytes;
                        }
                    }
                    for ((from, _, dest), bytes) in &sent {
                        if *from == b && *dest != b {
                            per_dest.entry(*dest).or_insert((0, 0)).1 += bytes;
                        }
                    }
                    per_dest
                        .values()
                        .any(|&(i, o)| i.abs_diff(o) > self.cfg.threshold_bytes)
                }
            };
            if violated {
                for &n in nbrs {
                    out.insert(Suspicion {
                        segment: PathSegment::new(vec![n, b]),
                        interval,
                        raised_by: n,
                    });
                }
            }
        }
        out.into_iter().collect()
    }
}

/// Counters a WATCHERS router maintains (§3.1 / §5.1.1's comparison):
/// seven per neighbour per destination in the fixed protocol.
pub fn watchers_counter_count(topo: &Topology, router: RouterId) -> usize {
    7 * topo.degree(router) * topo.router_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_core::spec::SpecCheck;
    use fatih_sim::{Attack, Network};
    use fatih_topology::builtin;

    fn line5() -> (Network, Vec<RouterId>) {
        let topo = builtin::line(5);
        let ids: Vec<RouterId> = (0..5)
            .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
            .collect();
        (Network::new(topo, 1), ids)
    }

    fn run_round(net: &mut Network, det: &mut WatchersDetector, secs: u64) -> Vec<Suspicion> {
        let end = net.now() + SimTime::from_secs(secs);
        net.run_until(end, |ev| det.observe(ev));
        det.end_round(end)
    }

    #[test]
    fn clean_network_raises_nothing() {
        let (mut net, ids) = line5();
        let mut det = WatchersDetector::new(net.topology(), WatchersConfig::default());
        net.add_cbr_flow(
            ids[0],
            ids[4],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.add_cbr_flow(
            ids[4],
            ids[1],
            700,
            SimTime::from_ms(3),
            SimTime::ZERO,
            None,
        );
        let sus = run_round(&mut net, &mut det, 5);
        assert!(sus.is_empty(), "{sus:?}");
    }

    #[test]
    fn honest_dropper_fails_conservation_of_flow() {
        let (mut net, ids) = line5();
        let mut det = WatchersDetector::new(net.topology(), WatchersConfig::default());
        let flow = net.add_cbr_flow(
            ids[0],
            ids[4],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(ids[2], vec![Attack::drop_flows([flow], 0.3)]);
        let sus = run_round(&mut net, &mut det, 5);
        let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(check.is_complete(), "dropper escaped CoF");
        assert!(check.is_accurate(2), "{:?}", check.false_positives);
    }

    #[test]
    fn consorting_launder_fools_aggregate_mode() {
        // The Figure 3.3 flaw: c (= n2) drops transit to e and, with its
        // consort d (= n3), relabels the loss as traffic destined to d.
        let (mut net, ids) = line5();
        let mut det = WatchersDetector::new(
            net.topology(),
            WatchersConfig {
                mode: WatchersMode::Aggregate,
                threshold_bytes: 10_000,
            },
        );
        let flow = net.add_cbr_flow(
            ids[0],
            ids[4],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(ids[2], vec![Attack::drop_flows([flow], 0.3)]);
        det.set_counter_fault(ids[2], CounterFault::AbsorbDrops { partner: ids[3] });
        let sus = run_round(&mut net, &mut det, 5);
        let faulty: BTreeSet<RouterId> = [ids[2], ids[3]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(
            !check.is_complete(),
            "aggregate WATCHERS unexpectedly caught the launder: {sus:?}"
        );
    }

    #[test]
    fn consorting_launder_caught_by_per_destination_mode() {
        let (mut net, ids) = line5();
        let mut det = WatchersDetector::new(net.topology(), WatchersConfig::default());
        let flow = net.add_cbr_flow(
            ids[0],
            ids[4],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(ids[2], vec![Attack::drop_flows([flow], 0.3)]);
        det.set_counter_fault(ids[2], CounterFault::AbsorbDrops { partner: ids[3] });
        let sus = run_round(&mut net, &mut det, 5);
        let faulty: BTreeSet<RouterId> = [ids[2], ids[3]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(
            !check.detected_faulty.is_empty(),
            "per-destination WATCHERS missed the launder entirely"
        );
        assert!(check.is_accurate(2), "{:?}", check.false_positives);
    }

    #[test]
    fn congestive_losses_need_a_threshold() {
        // WATCHERS' fundamental weakness (§6.1.1): congestion trips a
        // zero-threshold CoF test; a big threshold masks it but also masks
        // attacks of the same size.
        let topo = builtin::fan_in(
            3,
            fatih_topology::LinkParams {
                bandwidth_bps: 8_000_000,
                queue_limit_bytes: 8_000,
                ..fatih_topology::LinkParams::default()
            },
        );
        let ids: Vec<RouterId> = topo.routers().collect();
        let rd = topo.router_by_name("rd").unwrap();
        let mut net = Network::new(topo, 2);
        for i in 0..3 {
            let s = net.topology().router_by_name(&format!("s{i}")).unwrap();
            net.add_cbr_flow(s, rd, 1000, SimTime::from_us(1100), SimTime::ZERO, None);
        }
        let mut det0 = WatchersDetector::new(net.topology(), WatchersConfig::default());
        let end = SimTime::from_secs(5);
        net.run_until(end, |ev| det0.observe(ev));
        let sus = det0.end_round(end);
        // Congestive drops at r produce CoF "violations" — false positives.
        let faulty: BTreeSet<RouterId> = BTreeSet::new();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(
            !check.false_positives.is_empty(),
            "expected congestion false positives at zero threshold"
        );
        let _ = ids;
    }

    #[test]
    fn counter_count_formula() {
        let topo = builtin::line(4);
        let r = topo.router_by_name("n1").unwrap();
        assert_eq!(watchers_counter_count(&topo, r), 7 * 2 * 4);
    }
}
