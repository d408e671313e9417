//! Dynamic topology: a base [`Topology`] plus a mutable overlay of down
//! routers, down links, no-transit (probation) routers and convicted path
//! segments.
//!
//! The static crates model the dissertation's stable state: one global
//! graph, one set of deterministic routes. A live deployment is not that —
//! routers crash and restart, links flap, and the §2.4.3 response excises
//! convicted segments mid-run. `DynamicTopology` is the incremental
//! recompute API the runtime drives: paths are recomputed lazily per
//! (source, destination) pair through [`AvoidingRoutes`] over the masked
//! graph, with a per-pair cache that is invalidated wholesale on the next
//! mutation, and [`digest`](DynamicTopology::digest) names the overlay's
//! content, however it was reached.
//!
//! Masking semantics:
//!
//! * a **down router** loses every incident link (it can neither source,
//!   sink nor transit traffic);
//! * a **down link** is removed in both directions (duplex flap);
//! * a **no-transit router** (crash-restart probation, §2.4.3 re-admission)
//!   keeps its links only on paths where it is the source or the sink — it
//!   may originate and terminate traffic but carries nobody else's;
//! * an **excluded segment** is the §2.4.3 conviction response: no path may
//!   traverse the segment as a contiguous subsequence.
//!
//! `RouterId`s stay stable across masking: the masked graphs contain every
//! router of the base topology (possibly with zero links), so ids keep
//! indexing the same routers everywhere.

use crate::avoidance::{AvoidanceError, AvoidingRoutes};
use crate::graph::{RouterId, Topology};
use crate::routing::Path;
use crate::segments::PathSegment;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A base topology with a churn overlay and lazily recomputed avoidance
/// paths.
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
    excluded: Vec<PathSegment>,
    masked: Option<Topology>,
    cache: HashMap<(RouterId, RouterId), Result<Path, AvoidanceError>>,
}

impl DynamicTopology {
    /// Wraps a base topology with an empty overlay.
    pub fn new(base: Topology) -> Self {
        Self {
            base: Arc::new(base),
            down_routers: BTreeSet::new(),
            down_links: BTreeSet::new(),
            no_transit: BTreeSet::new(),
            excluded: Vec::new(),
            masked: None,
            cache: HashMap::new(),
        }
    }

    /// The unmasked base topology.
    pub fn base(&self) -> &Topology {
        &self.base
    }

    /// A 64-bit name for the overlay's content: FNV-1a over the down
    /// routers, down links, no-transit set and the excluded segments in
    /// sorted order, each list length-prefixed. Equal overlays digest
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
        for seg in excluded {
            push_ids(&mut words, seg.routers().iter().copied());
        }
        if words == [0, 0, 0] {
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

    /// Whether `r` is in the no-transit (probation) set.
    pub fn is_no_transit(&self, r: RouterId) -> bool {
        self.no_transit.contains(&r)
    }

    fn bump(&mut self) {
        self.masked = None;
        self.cache.clear();
    }

    /// Marks a router down. Returns whether anything changed.
    pub fn set_router_down(&mut self, r: RouterId) -> bool {
        let changed = self.down_routers.insert(r);
        if changed {
            self.bump();
        }
        changed
    }

    /// Brings a router back up (it typically re-enters via
    /// [`set_no_transit`](Self::set_no_transit) probation). Returns whether
    /// anything changed.
    pub fn set_router_up(&mut self, r: RouterId) -> bool {
        let changed = self.down_routers.remove(&r);
        if changed {
            self.bump();
        }
        changed
    }

    /// Takes the duplex link `a – b` down. Returns whether anything
    /// changed.
    pub fn set_link_down(&mut self, a: RouterId, b: RouterId) -> bool {
        let changed = self.down_links.insert((a, b)) | self.down_links.insert((b, a));
        if changed {
            self.bump();
        }
        changed
    }

    /// Restores the duplex link `a – b`. Returns whether anything changed.
    pub fn set_link_up(&mut self, a: RouterId, b: RouterId) -> bool {
        let changed = self.down_links.remove(&(a, b)) | self.down_links.remove(&(b, a));
        if changed {
            self.bump();
        }
        changed
    }

    /// Puts `r` in the no-transit set (probation). Returns whether anything
    /// changed.
    pub fn set_no_transit(&mut self, r: RouterId) -> bool {
        let changed = self.no_transit.insert(r);
        if changed {
            self.bump();
        }
        changed
    }

    /// Removes `r` from the no-transit set (probation cleared). Returns
    /// whether anything changed.
    pub fn clear_no_transit(&mut self, r: RouterId) -> bool {
        let changed = self.no_transit.remove(&r);
        if changed {
            self.bump();
        }
        changed
    }

    /// Adds a convicted segment to the exclusion set (§2.4.3 response).
    /// Deduplicated; returns whether anything changed.
    pub fn exclude_segment(&mut self, seg: PathSegment) -> bool {
        if self.excluded.contains(&seg) {
            return false;
        }
        self.excluded.push(seg);
        self.bump();
        true
    }

    /// The base graph with down routers and down links masked out (every
    /// router kept, so ids stay stable). No-transit masking is per-pair and
    /// not applied here.
    pub fn masked_topology(&mut self) -> &Topology {
        if self.masked.is_none() {
            self.masked = Some(self.build_masked(None));
        }
        self.masked.as_ref().expect("just built")
    }

    /// Builds the masked graph; when `endpoints` is given, routers in the
    /// no-transit set — other than the endpoints themselves — also lose
    /// their links.
    fn build_masked(&self, endpoints: Option<(RouterId, RouterId)>) -> Topology {
        let mut t = Topology::new();
        for r in self.base.routers() {
            t.add_router(self.base.name(r));
        }
        let transit_banned = |r: RouterId| {
            self.no_transit.contains(&r) && endpoints.is_some_and(|(s, d)| r != s && r != d)
        };
        for l in self.base.links() {
            if self.down_routers.contains(&l.from) || self.down_routers.contains(&l.to) {
                continue;
            }
            if self.down_links.contains(&(l.from, l.to)) {
                continue;
            }
            if transit_banned(l.from) || transit_banned(l.to) {
                continue;
            }
            t.add_link(l.from, l.to, l.params);
        }
        t
    }

    /// The avoidance path for one pair under the current overlay, cached
    /// until the next mutation.
    ///
    /// # Panics
    ///
    /// Panics on router ids from another topology.
    pub fn path(&mut self, src: RouterId, dst: RouterId) -> Result<Path, AvoidanceError> {
        if let Some(r) = self.cache.get(&(src, dst)) {
            return r.clone();
        }
        let result = self.compute_path(src, dst);
        self.cache.insert((src, dst), result.clone());
        result
    }

    fn compute_path(&mut self, src: RouterId, dst: RouterId) -> Result<Path, AvoidanceError> {
        if self.down_routers.contains(&src) || self.down_routers.contains(&dst) {
            return Err(AvoidanceError::Disconnected { src, dst });
        }
        if src == dst {
            return Ok(Path::new(vec![src]));
        }
        let needs_pair_mask = self.no_transit.iter().any(|&r| r != src && r != dst);
        if needs_pair_mask {
            let topo = self.build_masked(Some((src, dst)));
            AvoidingRoutes::new(&topo, self.excluded.clone()).route(src, dst)
        } else {
            let excluded = self.excluded.clone();
            let topo = self.masked_topology();
            AvoidingRoutes::new(topo, excluded).route(src, dst)
        }
    }

    /// Paths for a set of pairs; unroutable pairs are silently dropped
    /// (the runtime surfaces those through its own metrics).
    pub fn paths_for(
        &mut self,
        pairs: impl IntoIterator<Item = (RouterId, RouterId)>,
    ) -> HashMap<(RouterId, RouterId), Path> {
        let mut out = HashMap::new();
        for (s, d) in pairs {
            if s == d {
                continue;
            }
            if let Ok(p) = self.path(s, d) {
                out.insert((s, d), p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn clean_overlay_matches_link_state() {
        let (t, _) = line_with_bypass();
        let mut d = DynamicTopology::new(t.clone());
        let routes = t.link_state_routes();
        for s in t.routers() {
            for dst in t.routers() {
                if s == dst {
                    continue;
                }
                assert_eq!(d.path(s, dst).ok(), routes.path(s, dst));
            }
        }
        assert_eq!(d.digest(), 0);
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
    fn cache_survives_queries_and_resets_on_mutation() {
        let (t, rs) = line_with_bypass();
        let mut d = DynamicTopology::new(t);
        let before = d.path(rs[0], rs[3]).unwrap();
        assert_eq!(d.path(rs[0], rs[3]).unwrap(), before);
        d.set_link_down(rs[1], rs[2]);
        let after = d.path(rs[0], rs[3]).unwrap();
        assert_ne!(before, after);
    }
}
