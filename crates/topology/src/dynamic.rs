//! Dynamic topology: a base [`Topology`] plus a mutable overlay of down
//! routers, down links, no-transit (probation) routers and convicted path
//! segments.
//!
//! The static crates model the dissertation's stable state: one global
//! graph, one set of deterministic routes. A live deployment is not that —
//! routers crash and restart, links flap, and the §2.4.3 response excises
//! convicted segments mid-run. `DynamicTopology` is the incremental
//! recompute API the runtime drives: paths are computed on demand by [the
//! one route computation](crate::routing#the-rule) — one search per
//! destination, the overlay handed to it as a link predicate and the
//! excluded-segment automaton, no masked copy of the graph and nothing to
//! invalidate — and [`digest`](DynamicTopology::digest) names the
//! overlay's content, however it was reached. With an empty overlay every
//! path is the link-state route, ties included.
//!
//! Masking semantics:
//!
//! * a **down router** loses every incident link (it can neither source,
//!   sink nor transit traffic);
//! * a **down link** is removed in both directions (duplex flap);
//! * a **no-transit router** (one the convictions pinpoint) keeps its links
//!   only on paths where it is the source or the sink — it may originate
//!   and terminate traffic but carries nobody else's;
//! * a **last-resort router** (crash-restart probation, §2.4.3
//!   re-admission) is avoided as transit wherever a path around it exists,
//!   and carries the pairs no such path serves — RFC 6987's stub router,
//!   so a probation never partitions the fabric;
//! * an **excluded segment** is the §2.4.3 conviction response: no path may
//!   traverse the segment as a contiguous subsequence.
//!
//! Masking never renumbers: ids keep indexing the routers of the base
//! topology everywhere.

use crate::avoidance::{AvoidanceError, SegmentAutomaton};
use crate::graph::{RouterId, Topology};
use crate::routing::{Path, Toward};
use crate::segments::PathSegment;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// A base topology with a churn overlay and the avoidance paths it
/// implies.
///
/// # Examples
///
/// ```
/// use fatih_topology::{builtin, DynamicTopology};
/// let topo = builtin::abilene();
/// let routes = topo.link_state_routes();
/// let mut dyn_topo = DynamicTopology::new(topo.clone());
/// let src = topo.router_by_name("Sunnyvale").unwrap();
/// let dst = topo.router_by_name("NewYork").unwrap();
/// // With no overlay the dynamic path matches the link-state one.
/// assert_eq!(dyn_topo.path(src, dst).unwrap(), routes.path(src, dst).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct DynamicTopology {
    /// Shared by every clone: the overlay is what differs between them.
    base: Arc<Topology>,
    down_routers: BTreeSet<RouterId>,
    down_links: BTreeSet<(RouterId, RouterId)>,
    no_transit: BTreeSet<RouterId>,
    last_resort: BTreeSet<RouterId>,
    excluded: Vec<PathSegment>,
    /// Rejects `excluded`; rebuilt when a segment is added.
    automaton: SegmentAutomaton,
}

impl DynamicTopology {
    /// Wraps a base topology with an empty overlay.
    pub fn new(base: Topology) -> Self {
        Self {
            base: Arc::new(base),
            down_routers: BTreeSet::new(),
            down_links: BTreeSet::new(),
            no_transit: BTreeSet::new(),
            last_resort: BTreeSet::new(),
            excluded: Vec::new(),
            automaton: SegmentAutomaton::reversed(&[]),
        }
    }

    /// The unmasked base topology.
    pub fn base(&self) -> &Topology {
        &self.base
    }

    /// A 64-bit name for the overlay's content: FNV-1a over the down
    /// routers, down links, no-transit and last-resort sets and the
    /// excluded segments in sorted order, each list length-prefixed. Equal overlays digest
    /// alike whatever order of mutations built them, and an empty overlay
    /// digests to 0.
    pub fn digest(&self) -> u64 {
        fn push_ids(words: &mut Vec<u32>, ids: impl Iterator<Item = RouterId>) {
            let at = words.len();
            words.push(0);
            words.extend(ids.map(u32::from));
            words[at] = (words.len() - at - 1) as u32;
        }
        let mut excluded: Vec<&PathSegment> = self.excluded.iter().collect();
        excluded.sort();
        let mut words = Vec::new();
        push_ids(&mut words, self.down_routers.iter().copied());
        push_ids(
            &mut words,
            self.down_links.iter().flat_map(|&(a, b)| [a, b]),
        );
        push_ids(&mut words, self.no_transit.iter().copied());
        push_ids(&mut words, self.last_resort.iter().copied());
        for seg in excluded {
            push_ids(&mut words, seg.routers().iter().copied());
        }
        if words == [0, 0, 0, 0] {
            return 0;
        }
        // Word-wise FNV-1a, as `PathSegment::stable_id`.
        let fnv = |h: u64, word: u32| (h ^ u64::from(word)).wrapping_mul(0x0100_0000_01b3);
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, fnv).max(1)
    }

    /// Currently excluded (convicted) segments.
    pub fn excluded(&self) -> &[PathSegment] {
        &self.excluded
    }

    /// Routers currently marked down.
    pub fn down_routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.down_routers.iter().copied()
    }

    /// Whether `r` is currently down.
    pub fn is_router_down(&self, r: RouterId) -> bool {
        self.down_routers.contains(&r)
    }

    /// Whether the duplex link `a – b` is currently down.
    pub fn is_link_down(&self, a: RouterId, b: RouterId) -> bool {
        self.down_links.contains(&(a, b)) || self.down_links.contains(&(b, a))
    }

    /// Whether `r` is in the no-transit set.
    pub fn is_no_transit(&self, r: RouterId) -> bool {
        self.no_transit.contains(&r)
    }

    /// Whether `r` is transit of last resort (on probation).
    pub fn is_last_resort(&self, r: RouterId) -> bool {
        self.last_resort.contains(&r)
    }

    /// Marks a router down. Returns whether anything changed.
    pub fn set_router_down(&mut self, r: RouterId) -> bool {
        self.down_routers.insert(r)
    }

    /// Brings a router back up (it typically re-enters on probation,
    /// [`set_last_resort`](Self::set_last_resort)). Returns whether
    /// anything changed.
    pub fn set_router_up(&mut self, r: RouterId) -> bool {
        self.down_routers.remove(&r)
    }

    /// Takes the duplex link `a – b` down. Returns whether anything
    /// changed.
    pub fn set_link_down(&mut self, a: RouterId, b: RouterId) -> bool {
        self.down_links.insert((a, b)) | self.down_links.insert((b, a))
    }

    /// Restores the duplex link `a – b`. Returns whether anything changed.
    pub fn set_link_up(&mut self, a: RouterId, b: RouterId) -> bool {
        self.down_links.remove(&(a, b)) | self.down_links.remove(&(b, a))
    }

    /// Puts `r` in the no-transit set. Returns whether anything changed.
    pub fn set_no_transit(&mut self, r: RouterId) -> bool {
        self.no_transit.insert(r)
    }

    /// Removes `r` from the no-transit set. Returns whether anything
    /// changed.
    pub fn clear_no_transit(&mut self, r: RouterId) -> bool {
        self.no_transit.remove(&r)
    }

    /// Makes `r` transit of last resort (probation). Returns whether
    /// anything changed.
    pub fn set_last_resort(&mut self, r: RouterId) -> bool {
        self.last_resort.insert(r)
    }

    /// Adds a convicted segment to the exclusion set (§2.4.3 response).
    /// Deduplicated; returns whether anything changed.
    pub fn exclude_segment(&mut self, seg: PathSegment) -> bool {
        if self.excluded.contains(&seg) {
            return false;
        }
        self.excluded.push(seg);
        self.automaton = SegmentAutomaton::reversed(&self.excluded);
        true
    }

    /// The avoidance path for one pair under the current overlay. (It
    /// takes `&mut self`, as the mutators do, because that is the
    /// signature `benchmark/` compiles against.)
    ///
    /// # Panics
    ///
    /// Panics on router ids from another topology.
    pub fn path(&mut self, src: RouterId, dst: RouterId) -> Result<Path, AvoidanceError> {
        (self.route(&self.toward(dst, false), src, dst))
            .or_else(|_| self.route(&self.toward(dst, true), src, dst))
    }

    /// The search toward `dst` over the links the overlay leaves usable,
    /// through last-resort routers too if `last_resort`.
    fn toward(
        &self,
        dst: RouterId,
        last_resort: bool,
    ) -> Toward<'_, impl Fn(RouterId, RouterId) -> bool + '_> {
        // A link carries traffic bound for `dst` if both its ends and the
        // link itself are up and it does not lead into a router barred
        // from transit short of `dst`. Such a router may still be where
        // the path starts: the search reaches it over its out-links and
        // stops.
        let link_ok = move |from: RouterId, to: RouterId| {
            !self.down_routers.contains(&from)
                && !self.down_routers.contains(&to)
                && !self.down_links.contains(&(from, to))
                && (to == dst
                    || !(self.no_transit.contains(&to)
                        || !last_resort && self.last_resort.contains(&to)))
        };
        Toward::search(&self.base, link_ok, &self.automaton, dst)
    }

    fn route(
        &self,
        toward: &Toward<'_, impl Fn(RouterId, RouterId) -> bool>,
        src: RouterId,
        dst: RouterId,
    ) -> Result<Path, AvoidanceError> {
        // A down router is nobody's source or sink, not even its own.
        if self.is_router_down(src) || self.is_router_down(dst) {
            return Err(AvoidanceError::Disconnected { src, dst });
        }
        toward.route(src)
    }

    /// Paths for a set of pairs — one search per destination, whatever the
    /// number of its sources; unroutable pairs are silently dropped (the
    /// runtime surfaces those through its own metrics).
    pub fn paths_for(
        &mut self,
        pairs: impl IntoIterator<Item = (RouterId, RouterId)>,
    ) -> HashMap<(RouterId, RouterId), Path> {
        let mut sources_of: BTreeMap<RouterId, BTreeSet<RouterId>> = BTreeMap::new();
        for (src, dst) in pairs.into_iter().filter(|(src, dst)| src != dst) {
            sources_of.entry(dst).or_default().insert(src);
        }
        let mut paths = HashMap::new();
        for (dst, mut sources) in sources_of {
            // Around every last-resort router first, then through them
            // for whatever that leaves unrouted.
            for last_resort in [false, true] {
                if sources.is_empty() || last_resort && self.last_resort.is_empty() {
                    break;
                }
                let toward = self.toward(dst, last_resort);
                sources.retain(|&src| {
                    let Ok(path) = self.route(&toward, src, dst) else {
                        return true;
                    };
                    paths.insert((src, dst), path);
                    false
                });
            }
        }
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use crate::graph::LinkParams;

    /// r0 - r1 - r2 - r3 line plus a bypass r0 - r4 - r5 - r3 at cost 2.
    fn line_with_bypass() -> (Topology, Vec<RouterId>) {
        let mut t = Topology::new();
        let rs: Vec<RouterId> = (0..6).map(|i| t.add_router(&format!("n{i}"))).collect();
        let p = LinkParams::default();
        t.add_duplex_link(rs[0], rs[1], p);
        t.add_duplex_link(rs[1], rs[2], p);
        t.add_duplex_link(rs[2], rs[3], p);
        let dear = LinkParams {
            cost: 2,
            ..LinkParams::default()
        };
        t.add_duplex_link(rs[0], rs[4], dear);
        t.add_duplex_link(rs[4], rs[5], dear);
        t.add_duplex_link(rs[5], rs[3], dear);
        (t, rs)
    }

    /// Tie-free and tie-rich graphs: Abilene, the Rocketfuel stand-ins,
    /// the two ISP-like graphs fatihbench deploys on, and regular and
    /// seeded random meshes.
    fn graphs() -> Vec<Topology> {
        let isp = |n: usize| builtin::isp_like("isp", n, n * 972 / 315, 45, 0xF00D ^ n as u64);
        let mut graphs = vec![
            line_with_bypass().0,
            builtin::abilene(),
            builtin::sprintlink_like(1),
            builtin::ebone_like(1),
            isp(64),
            isp(128),
            builtin::ring(8),
            builtin::grid(4, 5),
        ];
        graphs.extend((0..6).map(|seed| builtin::random_connected(40, 30, seed)));
        graphs
    }

    #[test]
    fn clean_overlay_matches_link_state() {
        for t in graphs() {
            let mut d = DynamicTopology::new(t.clone());
            let routes = t.link_state_routes();
            let pairs = t
                .routers()
                .flat_map(|s| t.routers().map(move |dst| (s, dst)));
            let paths = d.paths_for(pairs);
            assert_eq!(paths.len(), routes.all_paths().count());
            for p in routes.all_paths() {
                assert_eq!(paths[&(p.source(), p.sink())], p);
            }
            assert_eq!(d.digest(), 0);
        }
    }

    /// Down routers, down links and a no-transit set are the link-state
    /// routes of the graph with those links taken out — built here, link
    /// by link, from the masking semantics in the module doc.
    #[test]
    fn masked_overlay_matches_link_state_of_the_masked_graph() {
        let small = [
            builtin::abilene(),
            builtin::ring(8),
            builtin::grid(4, 4),
            builtin::random_connected(16, 12, 3),
            builtin::random_connected(16, 12, 4),
        ];
        for t in small {
            let id = |i: u32| RouterId::from(i);
            let (down, no_transit) = ([id(2)], [id(1), id(5)]);
            let (a, b) = (id(3), t.neighbors(id(3))[0].0);
            let mut d = DynamicTopology::new(t.clone());
            d.set_router_down(down[0]);
            d.set_link_down(a, b);
            d.set_no_transit(no_transit[0]);
            d.set_no_transit(no_transit[1]);
            for s in t.routers() {
                for dst in t.routers() {
                    let banned = |r: RouterId| {
                        down.contains(&r) || no_transit.contains(&r) && r != s && r != dst
                    };
                    let mut masked = Topology::new();
                    for r in t.routers() {
                        masked.add_router(t.name(r));
                    }
                    for l in t.links() {
                        let flapped = (l.from, l.to) == (a, b) || (l.from, l.to) == (b, a);
                        if !flapped && !banned(l.from) && !banned(l.to) {
                            masked.add_link(l.from, l.to, l.params);
                        }
                    }
                    let expected = masked.link_state_routes().path(s, dst);
                    let expected = expected.filter(|_| !down.contains(&s));
                    assert_eq!(d.path(s, dst).ok(), expected, "{s} -> {dst}");
                }
            }
        }
    }

    /// A few convictions: the middles of some long link-state routes.
    fn convictions(routes: &crate::Routes) -> Vec<PathSegment> {
        (routes.all_paths().filter(|p| p.len() >= 4))
            .step_by(17)
            .take(5)
            .map(|p| PathSegment::new(p.routers()[1..p.len() - 1].to_vec()))
            .collect()
    }

    /// A last-resort router is routed around wherever a path around it
    /// exists, and carries what no such path serves; a no-transit one
    /// carries nothing. `path` and `paths_for` agree.
    #[test]
    fn a_last_resort_router_carries_only_what_nothing_else_can() {
        let (t, rs) = line_with_bypass();
        let mut d = DynamicTopology::new(t);
        d.set_last_resort(rs[2]);
        let walk = |ids: &[usize]| Path::new(ids.iter().map(|&i| rs[i]).collect());
        assert_eq!(d.path(rs[0], rs[3]), Ok(walk(&[0, 4, 5, 3])));
        assert_eq!(d.path(rs[2], rs[3]), Ok(walk(&[2, 3])), "its own traffic");
        d.set_router_down(rs[4]);
        assert_eq!(d.path(rs[0], rs[3]), Ok(walk(&[0, 1, 2, 3])));
        let pairs = [(rs[0], rs[3]), (rs[1], rs[3]), (rs[5], rs[0])];
        let all = d.paths_for(pairs);
        for (src, dst) in pairs {
            assert_eq!(
                all.get(&(src, dst)).cloned().ok_or(()),
                d.path(src, dst).map_err(|_| ())
            );
        }
        d.set_no_transit(rs[2]);
        assert!(d.path(rs[0], rs[3]).is_err());
    }

    /// With exclusions the answer is the overlay's, not its history's, and
    /// it is least disruptive (§2.4.3): a pair whose link-state route
    /// crosses no excluded segment keeps that route.
    #[test]
    fn excluded_paths_are_order_independent_and_least_disruptive() {
        for t in graphs().into_iter().filter(|t| t.router_count() <= 64) {
            let routes = t.link_state_routes();
            let segs = convictions(&routes);
            let mut forward = DynamicTopology::new(t.clone());
            let mut backward = DynamicTopology::new(t.clone());
            for seg in &segs {
                forward.exclude_segment(seg.clone());
            }
            backward.set_router_down(RouterId::from(0)); // a state `forward` never saw
            for seg in segs.iter().rev() {
                backward.exclude_segment(seg.clone());
            }
            backward.set_router_up(RouterId::from(0));
            let crosses = |p: &Path| segs.iter().any(|s| p.contains_segment(s.routers()));
            for s in t.routers() {
                for dst in t.routers() {
                    let got = forward.path(s, dst);
                    assert_eq!(got, backward.path(s, dst), "{s} -> {dst}");
                    let plain = routes.path(s, dst).unwrap();
                    match got {
                        Ok(p) if crosses(&plain) => assert!(!crosses(&p), "{s} -> {dst}"),
                        Ok(p) => assert_eq!(p, plain),
                        Err(e) => {
                            assert_eq!(e, AvoidanceError::AllPathsExcluded { src: s, dst })
                        }
                    }
                }
            }
        }
    }

    /// The rule, checked against every walk: on graphs small enough to
    /// enumerate, the path is the cheapest walk that completes no excluded
    /// segment, and among the cheapest the one with the lowest router ids,
    /// hop by hop.
    #[test]
    fn excluded_paths_are_the_lowest_cheapest_compliant_walk() {
        /// Every compliant walk from the end of `walk` to `dst` within
        /// `budget`, as `(cost, routers)`.
        fn walks(
            t: &Topology,
            segs: &[PathSegment],
            walk: &mut Vec<RouterId>,
            cost: u64,
            budget: u64,
            dst: RouterId,
            found: &mut Vec<(u64, Vec<RouterId>)>,
        ) {
            let at = *walk.last().unwrap();
            if at == dst {
                found.push((cost, walk.clone()));
                return;
            }
            for &(v, p) in t.neighbors(at) {
                let cost = cost + u64::from(p.cost);
                walk.push(v);
                if cost <= budget && !segs.iter().any(|s| walk.ends_with(s.routers())) {
                    walks(t, segs, walk, cost, budget, dst, found);
                }
                walk.pop();
            }
        }
        let small = [
            line_with_bypass().0,
            builtin::ring(8),
            builtin::grid(3, 3),
            builtin::random_connected(10, 8, 1),
            builtin::random_connected(10, 8, 2),
        ];
        for t in small {
            let segs = convictions(&t.link_state_routes());
            let mut d = DynamicTopology::new(t.clone());
            for seg in &segs {
                d.exclude_segment(seg.clone());
            }
            for s in t.routers() {
                for dst in t.routers() {
                    let mut found = Vec::new();
                    walks(&t, &segs, &mut vec![s], 0, 9, dst, &mut found);
                    let lowest = found
                        .into_iter()
                        .min()
                        .map(|(_, routers)| Path::new(routers));
                    assert_eq!(d.path(s, dst).ok(), lowest, "{s} -> {dst}");
                }
            }
        }
    }

    #[test]
    fn router_down_forces_detour_and_up_restores() {
        let (t, rs) = line_with_bypass();
        let mut d = DynamicTopology::new(t);
        assert!(d.set_router_down(rs[1]));
        assert!(!d.set_router_down(rs[1])); // idempotent
        let p = d.path(rs[0], rs[3]).unwrap();
        assert_eq!(p.routers(), &[rs[0], rs[4], rs[5], rs[3]]);
        // The down router is unreachable even as an endpoint.
        assert_eq!(
            d.path(rs[0], rs[1]),
            Err(AvoidanceError::Disconnected {
                src: rs[0],
                dst: rs[1]
            })
        );
        assert!(d.set_router_up(rs[1]));
        let p = d.path(rs[0], rs[3]).unwrap();
        assert_eq!(p.routers(), &[rs[0], rs[1], rs[2], rs[3]]);
    }

    #[test]
    fn link_flap_is_duplex_and_reversible() {
        let (t, rs) = line_with_bypass();
        let mut d = DynamicTopology::new(t);
        assert!(d.set_link_down(rs[1], rs[2]));
        assert!(d.is_link_down(rs[2], rs[1]));
        assert_eq!(
            d.path(rs[0], rs[3]).unwrap().routers(),
            &[rs[0], rs[4], rs[5], rs[3]]
        );
        assert_eq!(
            d.path(rs[3], rs[0]).unwrap().routers(),
            &[rs[3], rs[5], rs[4], rs[0]]
        );
        assert!(d.set_link_up(rs[2], rs[1]));
        assert_eq!(
            d.path(rs[0], rs[3]).unwrap().routers(),
            &[rs[0], rs[1], rs[2], rs[3]]
        );
    }

    #[test]
    fn no_transit_router_still_terminates_traffic() {
        let (t, rs) = line_with_bypass();
        let mut d = DynamicTopology::new(t);
        assert!(d.set_no_transit(rs[1]));
        // r1 cannot transit r0 -> r3 …
        assert_eq!(
            d.path(rs[0], rs[3]).unwrap().routers(),
            &[rs[0], rs[4], rs[5], rs[3]]
        );
        // … but can still be spoken to and speak.
        assert_eq!(d.path(rs[0], rs[1]).unwrap().routers(), &[rs[0], rs[1]]);
        assert_eq!(d.path(rs[1], rs[2]).unwrap().routers(), &[rs[1], rs[2]]);
        assert!(d.clear_no_transit(rs[1]));
        assert_eq!(
            d.path(rs[0], rs[3]).unwrap().routers(),
            &[rs[0], rs[1], rs[2], rs[3]]
        );
    }

    #[test]
    fn excluded_segment_dedups_and_detours() {
        let (t, rs) = line_with_bypass();
        let mut d = DynamicTopology::new(t);
        let seg = PathSegment::new(vec![rs[1], rs[2]]);
        assert!(d.exclude_segment(seg.clone()));
        assert!(!d.exclude_segment(seg));
        assert_eq!(
            d.path(rs[0], rs[3]).unwrap().routers(),
            &[rs[0], rs[4], rs[5], rs[3]]
        );
    }

    #[test]
    fn digest_names_the_overlay_not_its_history() {
        let (t, rs) = line_with_bypass();
        let (s1, s2) = (
            PathSegment::new(vec![rs[1], rs[2]]),
            PathSegment::new(vec![rs[0], rs[4], rs[5]]),
        );
        let mut a = DynamicTopology::new(t.clone());
        a.exclude_segment(s1.clone());
        a.set_router_down(rs[4]);
        a.exclude_segment(s2.clone());
        a.set_no_transit(rs[2]);
        a.set_link_down(rs[5], rs[3]);
        let mut b = DynamicTopology::new(t);
        b.set_link_down(rs[3], rs[5]);
        b.set_router_down(rs[0]); // a detour through states `a` never saw
        b.set_no_transit(rs[2]);
        b.exclude_segment(s2);
        b.set_router_up(rs[0]);
        b.set_router_down(rs[4]);
        b.exclude_segment(s1);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), 0);
        // Every part of the overlay is covered.
        let full = a.digest();
        a.clear_no_transit(rs[2]);
        assert_ne!(a.digest(), full);
        a.set_no_transit(rs[2]);
        a.set_last_resort(rs[1]);
        assert_ne!(a.digest(), full);
        a.last_resort.clear();
        a.set_link_up(rs[5], rs[3]);
        assert_ne!(a.digest(), full);
        a.set_link_down(rs[5], rs[3]);
        a.set_router_up(rs[4]);
        assert_ne!(a.digest(), full);
        a.set_router_down(rs[4]);
        assert_eq!(a.digest(), full);
        // The same ids in another role are another overlay.
        let mut c = DynamicTopology::new(a.base().clone());
        c.set_router_down(rs[1]);
        let mut d = DynamicTopology::new(a.base().clone());
        d.set_no_transit(rs[1]);
        assert_ne!(c.digest(), d.digest());
        let mut e = DynamicTopology::new(a.base().clone());
        e.set_last_resort(rs[1]);
        assert_ne!(d.digest(), e.digest());
    }

    #[test]
    fn combined_overlay_can_disconnect_with_typed_error() {
        let (t, rs) = line_with_bypass();
        let mut d = DynamicTopology::new(t);
        d.exclude_segment(PathSegment::new(vec![rs[1], rs[2]]));
        d.set_router_down(rs[4]);
        // Bypass cut by the down router, primary cut only by the exclusion:
        // the masked graph is still connected, so the error blames the
        // exclusion.
        assert_eq!(
            d.path(rs[0], rs[3]),
            Err(AvoidanceError::AllPathsExcluded {
                src: rs[0],
                dst: rs[3]
            })
        );
        // Taking the primary's interior down too genuinely disconnects.
        d.set_router_down(rs[2]);
        assert_eq!(
            d.path(rs[0], rs[3]),
            Err(AvoidanceError::Disconnected {
                src: rs[0],
                dst: rs[3]
            })
        );
    }

    #[test]
    fn paths_for_drops_unroutable_pairs() {
        let (t, rs) = line_with_bypass();
        let mut d = DynamicTopology::new(t);
        d.set_router_down(rs[3]);
        let paths = d.paths_for([(rs[0], rs[2]), (rs[0], rs[3]), (rs[2], rs[2])]);
        assert_eq!(paths.len(), 1);
        assert!(paths.contains_key(&(rs[0], rs[2])));
    }

    #[test]
    fn queries_repeat_and_follow_mutations() {
        let (t, rs) = line_with_bypass();
        let mut d = DynamicTopology::new(t);
        let before = d.path(rs[0], rs[3]).unwrap();
        assert_eq!(d.path(rs[0], rs[3]).unwrap(), before);
        d.set_link_down(rs[1], rs[2]);
        let after = d.path(rs[0], rs[3]).unwrap();
        assert_ne!(before, after);
    }
}
