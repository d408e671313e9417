//! Signed link-state updates: the control-plane vocabulary of the
//! conviction → reroute → reconverge loop.
//!
//! When a router convicts a path segment (§2.4.3), observes a peer die, or
//! restarts, it originates a [`LinkStateUpdate`] and floods it reliably to
//! its neighbours. Every update is signed by its **origin** over the
//! update's semantic content ([`ls_sign_bytes`]), so a relayed update stays
//! attributable no matter which hop-by-hop frame carried it — a compromised
//! router cannot forge exclusions in someone else's name, and (checked at
//! application time) may only originate `ExcludeSegment` for segments it is
//! an end of, which is exactly the set it monitors under Πk+2.
//!
//! Updates are deduplicated by `(origin, update_seq)` and carry the
//! origin's wall-clock `t_origin_ns`, from which every applier derives the
//! same deterministic *amnesty window*: validation rounds overlapping the
//! reconvergence are neither summarized nor evaluated, so the transition
//! itself can never produce a false accusation.
//!
//! What a router makes of the updates it holds is `Convergence`: a value
//! derived from the *set* of updates and the last round closed, never from
//! the order they arrived in. Πk+2's accuracy needs both ends of a segment
//! to predict the same paths (§4.1), and a crash-restarted router never
//! sees the stream its peers saw — it gets the database back in one burst,
//! in another order.

use fatih_core::monitor::PathOracle;
use fatih_core::probation::ProbationTracker;
use fatih_core::wire::{WireEncoder, WireError, WireReader};
use fatih_crypto::{KeyStore, Signature};
use fatih_topology::{pik2_segments_from_paths, DynamicTopology, Path, PathSegment, RouterId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One topology change, as flooded through the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoUpdate {
    /// A convicted path segment: no route may traverse it any more
    /// (§2.4.3 response). Only a segment *end* may originate this.
    ExcludeSegment(PathSegment),
    /// A router has left or died; its links are withdrawn.
    RouterDown(RouterId),
    /// A router (re)joined with the given incarnation. Incarnation 0 is a
    /// first join; higher incarnations are crash-restarts, which re-enter
    /// under probation.
    RouterUp {
        /// The (re)joining router.
        router: RouterId,
        /// Its incarnation number (bumped by the key authority per
        /// restart).
        incarnation: u32,
    },
    /// A duplex link went down.
    LinkDown(RouterId, RouterId),
    /// A duplex link came back.
    LinkUp(RouterId, RouterId),
}

impl TopoUpdate {
    fn tag(&self) -> u32 {
        match self {
            TopoUpdate::ExcludeSegment(_) => 0,
            TopoUpdate::RouterDown(_) => 1,
            TopoUpdate::RouterUp { .. } => 2,
            TopoUpdate::LinkDown(..) => 3,
            TopoUpdate::LinkUp(..) => 4,
        }
    }
}

impl std::fmt::Display for TopoUpdate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopoUpdate::ExcludeSegment(seg) => write!(f, "exclude {seg}"),
            TopoUpdate::RouterDown(r) => write!(f, "{r} down"),
            TopoUpdate::RouterUp {
                router,
                incarnation,
            } => write!(f, "{router} up (incarnation {incarnation})"),
            TopoUpdate::LinkDown(a, b) => write!(f, "link {a} – {b} down"),
            TopoUpdate::LinkUp(a, b) => write!(f, "link {a} – {b} up"),
        }
    }
}

/// A flooded, origin-attributable topology change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStateUpdate {
    /// The router that originated (and signed) the update.
    pub origin: RouterId,
    /// Per-origin sequence number; `(origin, update_seq)` deduplicates
    /// re-floods.
    pub update_seq: u64,
    /// The origin's clock when it generated the update, in nanoseconds
    /// since the deployment epoch — every applier derives the same amnesty
    /// window from this.
    pub t_origin_ns: u64,
    /// The change itself.
    pub update: TopoUpdate,
}

impl LinkStateUpdate {
    /// Serializes the update's semantic content (everything the origin
    /// signs) into `e`.
    pub fn encode_into(&self, e: &mut WireEncoder) {
        e.router(self.origin)
            .u64(self.update_seq)
            .u64(self.t_origin_ns)
            .u32(self.update.tag());
        match &self.update {
            TopoUpdate::ExcludeSegment(seg) => {
                e.segment(seg);
            }
            TopoUpdate::RouterDown(r) => {
                e.router(*r);
            }
            TopoUpdate::RouterUp {
                router,
                incarnation,
            } => {
                e.router(*router).u32(*incarnation);
            }
            TopoUpdate::LinkDown(a, b) | TopoUpdate::LinkUp(a, b) => {
                e.router(*a).router(*b);
            }
        }
    }

    /// Deserializes an update; `Ok(None)` on an unknown variant tag.
    pub fn decode_from(rd: &mut WireReader<'_>) -> Result<Option<Self>, WireError> {
        let origin = rd.router()?;
        let update_seq = rd.u64()?;
        let t_origin_ns = rd.u64()?;
        let update = match rd.u32()? {
            0 => TopoUpdate::ExcludeSegment(rd.segment()?),
            1 => TopoUpdate::RouterDown(rd.router()?),
            2 => TopoUpdate::RouterUp {
                router: rd.router()?,
                incarnation: rd.u32()?,
            },
            3 => TopoUpdate::LinkDown(rd.router()?, rd.router()?),
            4 => TopoUpdate::LinkUp(rd.router()?, rd.router()?),
            _ => return Ok(None),
        };
        Ok(Some(Self {
            origin,
            update_seq,
            t_origin_ns,
            update,
        }))
    }
}

/// The bytes a link-state update's origin signs: its semantic content,
/// independent of which hop-by-hop frame carries it.
pub fn ls_sign_bytes(update: &LinkStateUpdate) -> Vec<u8> {
    let mut e = WireEncoder::new();
    update.encode_into(&mut e);
    e.into_bytes()
}

/// Signs a link-state update on behalf of its origin.
pub fn sign_link_state(keys: &KeyStore, update: &LinkStateUpdate) -> Signature {
    keys.sign(update.origin.into(), &ls_sign_bytes(update))
}

/// Verifies a link-state update's inner origin signature.
pub fn verify_link_state(keys: &KeyStore, update: &LinkStateUpdate, sig: &Signature) -> bool {
    keys.verify(update.origin.into(), &ls_sign_bytes(update), sig)
}

/// Whether the convicted segments identify `r` as faulty: it appears in
/// at least two of them and is their only common member. Πk+2's accuracy
/// guarantee (every convicted segment contains a faulty router) then names
/// `r`, and it loses transit duty outright — segment-by-segment exclusion
/// alone converges one neighbour pair per conviction cycle.
fn is_pinpointed(convicted: &[PathSegment], r: RouterId) -> bool {
    let with_r: Vec<&PathSegment> = convicted.iter().filter(|s| s.contains(r)).collect();
    with_r.len() >= 2
        && with_r[0]
            .routers()
            .iter()
            .all(|&x| x == r || !with_r.iter().all(|s| s.contains(x)))
}

/// What a router has converged on: everything it derives from link-state
/// updates. Equal overlays give equal paths, segments, monitors and
/// `epoch`.
#[derive(Debug, Clone)]
pub(crate) struct View {
    /// The base graph under the churn overlay: down routers and links,
    /// convicted segments, no transit duty for pinpointed routers and
    /// transit of last resort for routers on probation.
    pub overlay: DynamicTopology,
    /// Restarted routers still serving probation.
    pub probation: ProbationTracker,
    /// Routers the convicted segments pinpoint as faulty. They never
    /// regain transit duty: a crash-restart launders nothing.
    pub pinpointed: BTreeSet<RouterId>,
    /// First round that is summarized and evaluated again. The round an
    /// update was originated in and the one after it, and the round a
    /// probation cleared in, fall under amnesty.
    pub eval_resume: u64,
    /// The route epoch, [`DynamicTopology::digest`] of `overlay`: data
    /// frames carry the epoch they were injected under and only
    /// current-epoch frames are tapped.
    pub epoch: u64,
}

/// A (source, destination) pair.
type Pair = (RouterId, RouterId);

/// Forwarding paths, and the Πk+2 segments and path oracle that monitor
/// them, for one overlay ([`Convergence::plan`]).
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    /// The path of every routable monitored or flow pair.
    pub paths: HashMap<Pair, Path>,
    /// The segments under monitoring.
    pub segments: Vec<PathSegment>,
    /// Predicts the path of any packet the flows can produce.
    pub oracle: PathOracle,
}

/// The link-state database and the [`View`] it implies.
///
/// The view after any sequence of calls depends only on the set of updates
/// inserted and the highest round closed: the database is kept in
/// `(t_origin_ns, origin, update_seq)` order and the view is re-derived by
/// folding it from the initial overlay, so the last writer per router or
/// link is the one with the latest origin timestamp, wherever it arrived.
#[derive(Debug, Clone)]
pub(crate) struct Convergence {
    initial: DynamicTopology,
    tau_ns: u64,
    probation_rounds: u64,
    db: BTreeMap<(u64, RouterId, u64), (LinkStateUpdate, Signature)>,
    closed: Option<u64>,
    view: View,
}

impl Convergence {
    /// Nothing heard yet: the view is `initial` (the base graph minus the
    /// routers that start the run down). Rounds last `tau_ns`; a restarted
    /// router serves `probation_rounds` clean rounds.
    pub fn new(initial: DynamicTopology, tau_ns: u64, probation_rounds: u64) -> Self {
        Self {
            view: View {
                epoch: initial.digest(),
                overlay: initial.clone(),
                probation: ProbationTracker::new(probation_rounds),
                pinpointed: BTreeSet::new(),
                eval_resume: 0,
            },
            initial,
            tau_ns: tau_ns.max(1),
            probation_rounds,
            db: BTreeMap::new(),
            closed: None,
        }
    }

    /// The current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// The database in canonical order: what a restarted neighbour is sent
    /// to resynchronize.
    pub fn database(&self) -> impl Iterator<Item = &(LinkStateUpdate, Signature)> {
        self.db.values()
    }

    /// Records an update the caller has verified. Returns whether it was
    /// fresh — not seen before by `(origin, update_seq)` — and should be
    /// re-flooded.
    pub fn insert(&mut self, ls: &LinkStateUpdate, sig: &Signature) -> bool {
        let seen =
            |&(_, origin, seq): &(u64, RouterId, u64)| origin == ls.origin && seq == ls.update_seq;
        if self.db.keys().any(seen) {
            return false;
        }
        let key = (ls.t_origin_ns, ls.origin, ls.update_seq);
        self.db.insert(key, (ls.clone(), *sig));
        self.view = self.derive();
        true
    }

    /// Round `r` has been evaluated: probations that end at the boundary
    /// of `r + 1` or earlier are over.
    pub fn round_closed(&mut self, r: u64) {
        if self.closed.is_none_or(|done| r > done) {
            self.closed = Some(r);
            // All a boundary can do to the view is end a probation.
            if !self.view.probation.on_probation().is_empty() {
                self.view = self.derive();
            }
        }
    }

    /// Whether the current view routes `src` to `dst` at all.
    pub fn reaches(&mut self, src: RouterId, dst: RouterId) -> bool {
        self.view.overlay.path(src, dst).is_ok()
    }

    /// A crash: the database and the round count are lost.
    pub fn reset(&mut self) {
        self.db.clear();
        self.closed = None;
        self.view = self.derive();
    }

    /// The current view's path for every pair it routes: one search per
    /// destination.
    pub fn all_paths(&mut self) -> HashMap<Pair, Path> {
        let ids: Vec<RouterId> = self.view.overlay.base().routers().collect();
        let pairs = ids.iter().flat_map(|&s| ids.iter().map(move |&d| (s, d)));
        self.view.overlay.paths_for(pairs)
    }

    /// What the current overlay implies for forwarding and monitoring:
    /// routers with equal epochs plan alike.
    pub fn plan(&mut self, monitored: &[Pair], flows: &[Pair], k: usize) -> Plan {
        let overlay = &mut self.view.overlay;
        let paths = overlay.paths_for(monitored.iter().chain(flows).copied());
        let routed = |pairs: &[Pair]| -> Vec<Path> {
            pairs.iter().filter_map(|p| paths.get(p).cloned()).collect()
        };
        let monitored = routed(monitored);
        // Monitored segments: all ≤(k+2)-windows of the monitored paths.
        let segments =
            pik2_segments_from_paths(monitored.clone(), overlay.base().router_count(), k)
                .all_segments()
                .into_iter()
                .collect();
        // One oracle over the monitored paths plus the flows' own: every
        // packet that can exist resolves as under a full all-pairs oracle,
        // at a fraction of the memory.
        let oracle = PathOracle::from_paths(monitored.into_iter().chain(routed(flows)));
        Plan {
            paths,
            segments,
            oracle,
        }
    }

    fn derive(&self) -> View {
        let mut overlay = self.initial.clone();
        let mut probation = ProbationTracker::new(self.probation_rounds);
        // Per router, the latest incarnation a `RouterUp` announced.
        let mut incarnations: BTreeMap<RouterId, u32> = BTreeMap::new();
        let mut eval_resume = 0u64;
        // A probation that ended at `boundary` or before is over; the
        // clearing reroutes mid-round, so that round gets amnesty too.
        let settle = |probation: &mut ProbationTracker, boundary: u64, resume: &mut u64| {
            for (_, cleared_at) in probation.clear_due(boundary) {
                *resume = (*resume).max(cleared_at + 1);
            }
        };
        for (ls, _) in self.db.values() {
            let round = ls.t_origin_ns / self.tau_ns;
            // An update from round `o` shows the fabric got that far: the
            // boundaries before `o` have passed whether or not this router
            // was up to close them. A conviction originated in round `o`
            // judges round `o − 1`, so it still finds a probation due to
            // end at `o`.
            if let Some(passed) = round.checked_sub(1) {
                settle(&mut probation, passed, &mut eval_resume);
            }
            match &ls.update {
                TopoUpdate::ExcludeSegment(seg) => {
                    overlay.exclude_segment(seg.clone());
                    for &r in seg.routers() {
                        probation.violation(r, round + 1);
                    }
                }
                TopoUpdate::RouterDown(r) => {
                    overlay.set_router_down(*r);
                }
                TopoUpdate::RouterUp {
                    router,
                    incarnation,
                } => {
                    overlay.set_router_up(*router);
                    // Incarnation 0 is a first join, and one announced
                    // before is a refutation of a false report of the
                    // router down; a crash-restart re-enters under
                    // probation: it sources and sinks its own traffic, and
                    // carries transit only where no path around it serves.
                    let known = incarnations.entry(*router).or_default();
                    if *incarnation > *known {
                        *known = *incarnation;
                        probation.admit(*router, round + 1);
                    }
                }
                TopoUpdate::LinkDown(a, b) => {
                    overlay.set_link_down(*a, *b);
                }
                TopoUpdate::LinkUp(a, b) => {
                    overlay.set_link_up(*a, *b);
                }
            }
            eval_resume = eval_resume.max(round + 2);
        }
        if let Some(closed) = self.closed {
            settle(&mut probation, closed + 1, &mut eval_resume);
        }
        let convicted = overlay.excluded();
        let pinpointed: BTreeSet<RouterId> = (convicted.iter())
            .flat_map(|s| s.routers().iter().copied())
            .filter(|&r| is_pinpointed(convicted, r))
            .collect();
        for &r in &pinpointed {
            overlay.set_no_transit(r);
        }
        for r in probation.on_probation() {
            if !pinpointed.contains(&r) {
                overlay.set_last_resort(r);
            }
        }
        View {
            epoch: overlay.digest(),
            overlay,
            probation,
            pinpointed,
            eval_resume,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_core::probation::ProbationStatus;
    use fatih_crypto::Digest;
    use fatih_topology::builtin;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const TAU: u64 = 200_000_000;
    const SIG: Signature = Signature(Digest([0; 32]));

    fn r(i: u32) -> RouterId {
        RouterId::from(i)
    }

    fn seg(routers: &[u32]) -> PathSegment {
        PathSegment::new(routers.iter().map(|&i| r(i)).collect())
    }

    /// A 6-ring, 200 ms rounds, two rounds of probation.
    fn ring6() -> Convergence {
        Convergence::new(DynamicTopology::new(builtin::ring(6)), TAU, 2)
    }

    fn at_ms(t_ms: u64, origin: u32, update_seq: u64, update: TopoUpdate) -> LinkStateUpdate {
        LinkStateUpdate {
            origin: r(origin),
            update_seq,
            t_origin_ns: t_ms * 1_000_000,
            update,
        }
    }

    fn up(router: u32, incarnation: u32) -> TopoUpdate {
        TopoUpdate::RouterUp {
            router: r(router),
            incarnation,
        }
    }

    /// Everything a view says, spelt out so that a difference names the
    /// part that differs (the epoch alone would only say "something").
    #[derive(Debug, PartialEq)]
    struct Told {
        epoch: u64,
        eval_resume: u64,
        probation: Vec<(RouterId, ProbationStatus)>,
        down: Vec<RouterId>,
        no_transit: Vec<RouterId>,
        last_resort: Vec<RouterId>,
        pinpointed: Vec<RouterId>,
        links_down: Vec<(RouterId, RouterId)>,
        excluded: Vec<PathSegment>,
    }

    fn told(c: &Convergence) -> Told {
        let v = c.view();
        let base = v.overlay.base();
        let mut excluded = v.overlay.excluded().to_vec();
        excluded.sort();
        Told {
            epoch: v.epoch,
            eval_resume: v.eval_resume,
            probation: (v.probation.on_probation().into_iter())
                .map(|x| (x, v.probation.status(x)))
                .collect(),
            down: v.overlay.down_routers().collect(),
            no_transit: base
                .routers()
                .filter(|&x| v.overlay.is_no_transit(x))
                .collect(),
            last_resort: base
                .routers()
                .filter(|&x| v.overlay.is_last_resort(x))
                .collect(),
            pinpointed: v.pinpointed.iter().copied().collect(),
            links_down: (base.links().map(|l| (l.from, l.to)))
                .filter(|&(a, b)| a < b && v.overlay.is_link_down(a, b))
                .collect(),
            excluded,
        }
    }

    /// The reference: a fresh database given `set` in canonical order and
    /// told only of the highest round closed.
    fn from_scratch(set: &[LinkStateUpdate], closed: Option<u64>) -> Told {
        let mut sorted = set.to_vec();
        sorted.sort_by_key(|u| (u.t_origin_ns, u.origin, u.update_seq));
        let mut c = ring6();
        for u in &sorted {
            assert!(c.insert(u, &SIG));
        }
        if let Some(round) = closed {
            c.round_closed(round);
        }
        told(&c)
    }

    /// Five or six updates over rounds 0..6 of a 6-ring, every kind among
    /// them, aimed at few enough routers and links that they collide:
    /// restarts inside convicted segments, convictions that intersect,
    /// downs and ups of one router, flaps of one link.
    fn seeded_set(seed: u64) -> Vec<LinkStateUpdate> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 5 + (seed % 2) as usize;
        (0..n)
            .map(|i| {
                let x = rng.gen_range(0..3u32);
                let update = match (i + seed as usize) % 5 {
                    0 => TopoUpdate::ExcludeSegment(seg(&[x, x + 1, x + 2])),
                    1 => TopoUpdate::RouterDown(r(x + 1)),
                    2 => up(x + 1, rng.gen_range(0..3u32)),
                    3 => TopoUpdate::LinkDown(r(x), r(x + 1)),
                    _ => TopoUpdate::LinkUp(r(x + 1), r(x)),
                };
                // Coarse timestamps, so some tie and fall to (origin, seq).
                at_ms(rng.gen_range(0..24u64) * 50, x, i as u64, update)
            })
            .collect()
    }

    fn for_each_permutation<T: Clone>(items: &mut Vec<T>, k: usize, f: &mut impl FnMut(&[T])) {
        if k == items.len() {
            return f(items);
        }
        for i in k..items.len() {
            items.swap(k, i);
            for_each_permutation(items, k + 1, f);
            items.swap(k, i);
        }
    }

    /// After any sequence of inserts and `round_closed` calls — every
    /// arrival order of the set, rounds closed in between, some skipped as
    /// a restarted router skips them — the view is the one a fresh
    /// database derives from the same set and the same highest round.
    #[test]
    fn the_view_depends_on_the_set_and_the_round_and_nothing_else() {
        let mut kinds_seen = [false; 5];
        let mut sequences = 0;
        for seed in 0..12u64 {
            let set = seeded_set(seed);
            for u in &set {
                kinds_seen[u.update.tag() as usize] = true;
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
            for_each_permutation(&mut set.clone(), 0, &mut |order| {
                let mut c = ring6();
                let mut closed = None;
                for (i, u) in order.iter().enumerate() {
                    assert!(c.insert(u, &SIG));
                    assert!(!c.insert(u, &SIG), "a duplicate was taken for fresh");
                    if rng.gen_bool(0.4) {
                        let next = closed.map_or(0, |done| done + 1) + rng.gen_range(0..3u64);
                        c.round_closed(next);
                        c.round_closed(next.saturating_sub(1)); // never goes back
                        closed = Some(next);
                    }
                    let want = from_scratch(&order[..=i], closed);
                    assert_eq!(told(&c), want, "seed {seed}, order {order:?}, step {i}");
                }
                // Rounds close one by one from here; each boundary tells
                // the same everywhere.
                for round in closed.map_or(0, |done| done + 1)..10 {
                    c.round_closed(round);
                    assert_eq!(told(&c), from_scratch(order, Some(round)), "seed {seed}");
                }
                sequences += 1;
            });
        }
        assert_eq!(kinds_seen, [true; 5]);
        assert!(sequences > 5_000, "{sequences}");
    }

    /// `tests/epoch_probe.rs`, as the two update streams it produces: ring
    /// routers see the conviction of ⟨4, 5, 0⟩ (router 0 timed out on the
    /// crashed router 4), the down-report and the restart as they happen;
    /// router 4 starts from its own `RouterUp` and is then resynchronized
    /// with the conviction alone. Same epoch, router 4 alone without
    /// transit duty, probation over at the boundary of round 5 for both.
    #[test]
    fn a_restarted_router_converges_with_the_routers_that_stayed_up() {
        let exclude = at_ms(300, 0, 0, TopoUpdate::ExcludeSegment(seg(&[4, 5, 0])));
        let down = at_ms(320, 3, 0, TopoUpdate::RouterDown(r(4)));
        let restart = at_ms(520, 4, 0, up(4, 1));

        let mut ring = ring6();
        for (round, u) in [&exclude, &down, &restart].into_iter().enumerate() {
            ring.round_closed(round as u64);
            assert!(ring.insert(u, &SIG));
        }
        let mut restarted = ring6();
        restarted.insert(&exclude, &SIG);
        restarted.reset();
        assert_eq!(
            told(&restarted),
            told(&ring6()),
            "a reset forgets everything"
        );
        assert!(restarted.insert(&restart, &SIG));
        assert!(restarted.insert(&exclude, &SIG));

        let on_probation = |c: &Convergence| c.view().probation.status(r(4));
        for round in 3..=5 {
            // What the two tell differs in nothing but the round count.
            assert_eq!(told(&ring), told(&restarted), "before round {round} closes");
            assert_ne!(ring.view().epoch, 0);
            let serving = round < 5;
            assert_eq!(
                told(&ring).last_resort,
                if serving { vec![r(4)] } else { vec![] }
            );
            assert_eq!(
                on_probation(&ring),
                if serving {
                    ProbationStatus::Probation {
                        since_round: 3,
                        clears_at_round: 5,
                    }
                } else {
                    ProbationStatus::Clear
                }
            );
            // Rounds 1–3 are the updates' amnesty, round 5 the clearing's.
            assert_eq!(ring.view().eval_resume, if serving { 4 } else { 6 });
            ring.round_closed(round);
            restarted.round_closed(round);
        }
        assert_eq!(told(&ring).excluded, [seg(&[4, 5, 0])]);
    }

    /// An update that changes nothing in the overlay — a `RouterDown`
    /// arriving behind the `RouterUp` that answered it — leaves the epoch
    /// alone (the caller keeps its records) though the amnesty may move.
    #[test]
    fn a_superseded_straggler_moves_no_epoch() {
        let mut c = ring6();
        c.insert(&at_ms(100, 3, 0, up(3, 0)), &SIG);
        assert_eq!((c.view().epoch, c.view().eval_resume), (0, 2));
        assert!(c.insert(&at_ms(50, 2, 0, TopoUpdate::RouterDown(r(3))), &SIG));
        assert_eq!(c.view().epoch, 0);
        assert!(!c.view().overlay.is_router_down(r(3)));
        // The later word wins whichever arrived first; flaps likewise.
        assert!(c.insert(&at_ms(900, 2, 1, TopoUpdate::RouterDown(r(3))), &SIG));
        assert!(c.view().overlay.is_router_down(r(3)));
        assert_eq!(c.view().eval_resume, 6);
        c.insert(&at_ms(1000, 1, 0, TopoUpdate::LinkUp(r(1), r(2))), &SIG);
        c.insert(&at_ms(950, 2, 2, TopoUpdate::LinkDown(r(2), r(1))), &SIG);
        assert!(!c.view().overlay.is_link_down(r(1), r(2)));
    }

    /// Two convictions whose only common member is router 2 pinpoint it.
    /// It loses transit duty for good: a crash-restart puts it on
    /// probation, the probation ends, the isolation does not.
    #[test]
    fn a_pinpointed_router_cannot_launder_its_isolation_by_restarting() {
        let mut c = ring6();
        c.insert(
            &at_ms(250, 1, 0, TopoUpdate::ExcludeSegment(seg(&[1, 2, 3]))),
            &SIG,
        );
        assert_eq!(told(&c).no_transit, []);
        c.insert(
            &at_ms(260, 4, 0, TopoUpdate::ExcludeSegment(seg(&[0, 1, 2]))),
            &SIG,
        );
        assert_eq!(told(&c).no_transit, [], "1 and 2 are both in both");
        c.insert(
            &at_ms(450, 2, 0, TopoUpdate::ExcludeSegment(seg(&[2, 3, 4]))),
            &SIG,
        );
        assert_eq!(told(&c).no_transit, [r(2)]);
        assert_eq!(told(&c).pinpointed, [r(2)]);

        c.insert(&at_ms(700, 2, 1, up(2, 1)), &SIG);
        assert!(c.view().probation.is_on_probation(r(2)));
        let serving = c.view().epoch;
        c.round_closed(5);
        assert!(!c.view().probation.is_on_probation(r(2)));
        assert_eq!(told(&c).no_transit, [r(2)]);
        assert_eq!(c.view().epoch, serving, "nothing to reroute");
        assert_eq!(c.view().eval_resume, 7, "the boundary is still an amnesty");
    }

    /// A conviction that touches a probationer restarts its clock; one
    /// originated after the probation ended is none of its business, and
    /// which is which is read off the origin timestamps, not the arrivals.
    #[test]
    fn a_conviction_restarts_a_probation_only_while_it_lasts() {
        let restart = at_ms(250, 2, 0, up(2, 1)); // serves rounds 2 and 3
        let judging_3 = at_ms(850, 1, 0, TopoUpdate::ExcludeSegment(seg(&[1, 2, 3])));
        let judging_4 = at_ms(1050, 1, 0, TopoUpdate::ExcludeSegment(seg(&[1, 2, 3])));
        let status = |conviction: &LinkStateUpdate| {
            let mut c = ring6();
            c.insert(conviction, &SIG);
            c.insert(&restart, &SIG);
            c.view().probation.status(r(2))
        };
        assert_eq!(
            status(&judging_3),
            ProbationStatus::Probation {
                since_round: 5,
                clears_at_round: 7,
            }
        );
        // An update from round 5 shows the boundary of round 4 has passed,
        // though this database was never told that a round closed.
        assert_eq!(status(&judging_4), ProbationStatus::Clear);
    }

    fn keystore() -> KeyStore {
        let mut ks = KeyStore::with_seed(23);
        for r in 0..6 {
            ks.register(r);
        }
        ks
    }

    fn sample_updates() -> Vec<LinkStateUpdate> {
        let r = RouterId::from;
        vec![
            LinkStateUpdate {
                origin: r(0),
                update_seq: 1,
                t_origin_ns: 5_000_000,
                update: TopoUpdate::ExcludeSegment(PathSegment::new(vec![r(0), r(2), r(4)])),
            },
            LinkStateUpdate {
                origin: r(1),
                update_seq: 9,
                t_origin_ns: 0,
                update: TopoUpdate::RouterDown(r(3)),
            },
            LinkStateUpdate {
                origin: r(3),
                update_seq: 2,
                t_origin_ns: 77,
                update: TopoUpdate::RouterUp {
                    router: r(3),
                    incarnation: 2,
                },
            },
            LinkStateUpdate {
                origin: r(5),
                update_seq: 3,
                t_origin_ns: 123,
                update: TopoUpdate::LinkDown(r(5), r(0)),
            },
            LinkStateUpdate {
                origin: r(5),
                update_seq: 4,
                t_origin_ns: 456,
                update: TopoUpdate::LinkUp(r(5), r(0)),
            },
        ]
    }

    #[test]
    fn encode_decode_round_trips_every_variant() {
        for u in sample_updates() {
            let mut e = WireEncoder::new();
            u.encode_into(&mut e);
            let bytes = e.into_bytes();
            let mut rd = WireReader::new(&bytes);
            let back = LinkStateUpdate::decode_from(&mut rd).unwrap().unwrap();
            assert_eq!(back, u);
        }
    }

    #[test]
    fn unknown_variant_tag_is_none_not_panic() {
        let mut e = WireEncoder::new();
        e.router(RouterId::from(0)).u64(1).u64(2).u32(99);
        let bytes = e.into_bytes();
        let mut rd = WireReader::new(&bytes);
        assert_eq!(LinkStateUpdate::decode_from(&mut rd).unwrap(), None);
    }

    #[test]
    fn signature_is_attributable_and_tamper_evident() {
        let ks = keystore();
        for u in sample_updates() {
            let sig = sign_link_state(&ks, &u);
            assert!(verify_link_state(&ks, &u, &sig), "{u:?}");
            // Any semantic change invalidates the signature.
            let mut forged = u.clone();
            forged.update_seq += 1;
            assert!(!verify_link_state(&ks, &forged, &sig));
            // And nobody can claim someone else's update as their own.
            let mut stolen = u.clone();
            stolen.origin = RouterId::from(u32::from(u.origin) ^ 1);
            assert!(!verify_link_state(&ks, &stolen, &sig));
        }
    }
}
