//! Link-state routing (dissertation §4.1) and the one route computation
//! of the workspace.
//!
//! The detection protocols assume that forwarding tables come from a
//! link-state protocol (OSPF/IS-IS) giving every router a consistent global
//! view, and that each router can *predict* the path any packet will take —
//! real routers resolve equal-cost ties with a deterministic hash (Cisco
//! CEF, Juniper IP ASIC). The result is a single, globally agreed path per
//! (source, destination) pair, which is what the path-segment enumeration
//! of Chapter 5 consumes.
//!
//! # The rule
//!
//! The route from `src` to `dst` is the cheapest *compliant* path — over
//! usable links, completing no excluded segment — and among equally cheap
//! ones the path that takes, hop by hop, the **lowest next-hop id** that
//! some cheapest compliant path continues through. It is a function of the
//! graph, the usable links and the excluded segments only, so every router
//! that holds the same view predicts the same path. (Compliance is judged
//! on router sequences, so where exclusions leave nothing better the
//! cheapest compliant route may be a walk that passes a router twice.)
//!
//! `Toward` is the only implementation: one Dijkstra toward the
//! destination over in-edges, parameterised by a link predicate and the
//! excluded-segment automaton (`SegmentAutomaton`, built over the
//! *reversed* segments because the search reads paths back to front; with
//! nothing excluded it has one state). [`Topology::link_state_routes`]
//! is that search with every link usable and nothing excluded, run toward
//! a destination the first time a route to it is asked for;
//! [`DynamicTopology`](crate::DynamicTopology) adds the automaton and the
//! overlay's predicate. Every search counts in [`searches_on_this_thread`].

use crate::avoidance::{AvoidanceError, SegmentAutomaton};
use crate::graph::{RouterId, Topology};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

thread_local! {
    static SEARCHES: Cell<u64> = const { Cell::new(0) };
}

/// How many route searches this thread has run, through any API: a search
/// is one destination's column of costs. Route work is counted with it
/// rather than timed.
pub fn searches_on_this_thread() -> u64 {
    SEARCHES.with(Cell::get)
}

/// A loop-free sequence of adjacent routers (dissertation §4.1: "a path
/// defines a sequence of routers that a packet can follow"; the first
/// router is the *source*, the last the *sink*).
///
/// # Examples
///
/// ```
/// use fatih_topology::{builtin, Path};
/// let t = builtin::abilene();
/// let routes = t.link_state_routes();
/// let src = t.router_by_name("Sunnyvale").unwrap();
/// let dst = t.router_by_name("NewYork").unwrap();
/// let path: Path = routes.path(src, dst).unwrap();
/// assert_eq!(path.source(), src);
/// assert_eq!(path.sink(), dst);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path(Vec<RouterId>);

impl Path {
    /// Wraps a router sequence.
    ///
    /// # Panics
    ///
    /// Panics if empty — a path has at least one router (§4.1: "a path
    /// might consist of only one router").
    pub fn new(routers: Vec<RouterId>) -> Self {
        assert!(!routers.is_empty(), "a path has at least one router");
        Path(routers)
    }

    /// The first router.
    pub fn source(&self) -> RouterId {
        self.0[0]
    }

    /// The last router.
    pub fn sink(&self) -> RouterId {
        *self.0.last().expect("non-empty")
    }

    /// Routers in order.
    pub fn routers(&self) -> &[RouterId] {
        &self.0
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Always false: a path has at least one router by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the path is the trivial single-router path.
    pub fn is_trivial(&self) -> bool {
        self.0.len() == 1
    }

    /// Whether `segment` occurs as a *contiguous* subsequence (the notion
    /// of path-segment membership from §4.1).
    pub fn contains_segment(&self, segment: &[RouterId]) -> bool {
        if segment.is_empty() || segment.len() > self.0.len() {
            return false;
        }
        self.0.windows(segment.len()).any(|w| w == segment)
    }

    /// The hop after the first pass through `at`, if any: where a packet
    /// that starts at `at` goes next.
    pub fn next_after(&self, at: RouterId) -> Option<RouterId> {
        self.next_hop(at, None)
    }

    /// The hop after `at` for a packet that reached it from `from`
    /// (`None`: it starts at `at`). A route may be a walk that passes a
    /// router twice; the pass the packet entered by decides, and a packet
    /// that entered by neither goes on as from the first.
    pub fn next_hop(&self, at: RouterId, from: Option<RouterId>) -> Option<RouterId> {
        let mut passes = (self.0.iter().enumerate()).filter(|&(_, &r)| r == at);
        let first = passes.clone().next()?.0;
        let entered = passes.find(|&(i, _)| i.checked_sub(1).map(|j| self.0[j]) == from);
        self.0.get(entered.map_or(first, |(i, _)| i) + 1).copied()
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.0.iter().map(|r| r.to_string()).collect();
        write!(f, "⟨{}⟩", names.join(", "))
    }
}

/// Link-state routes: next hops, costs and paths toward any destination.
///
/// A destination's column — every router's next hop and cost toward it —
/// is one search, run the first time `next_hop`, `cost` or `path` asks
/// for that destination and kept; a table nothing is routed through costs
/// no search. Columns fill in behind `&self`, so one table can be shared
/// between threads.
#[derive(Debug, Clone)]
pub struct Routes {
    topo: Topology,
    /// `columns[dst]`, once asked for.
    columns: Vec<OnceLock<Column>>,
}

/// Every router's route toward one destination: `column[u]` is the
/// forwarding decision of router `u` and the route's total cost
/// (`u64::MAX` if unreachable).
type Column = Vec<(Option<RouterId>, u64)>;

/// Cheapest compliant costs toward one destination, and the paths
/// [the rule](self#the-rule) picks among them.
///
/// A search state is `(router, automaton state)`: the automaton has read
/// the path from the destination back to the router, so two suffixes that
/// constrain what may precede them differently are kept apart.
pub(crate) struct Toward<'a, L> {
    topo: &'a Topology,
    link_ok: L,
    automaton: &'a SegmentAutomaton,
    dst: RouterId,
    /// `dist[router · states + state]`, `u64::MAX` where unreachable.
    dist: Vec<u64>,
}

impl<'a, L: Fn(RouterId, RouterId) -> bool> Toward<'a, L> {
    /// Searches from `dst` over in-edges: `link_ok(from, to)` says whether
    /// the link `from → to` may carry traffic bound for `dst`, `automaton`
    /// which router sequences (read back to front) may not be completed.
    ///
    /// # Panics
    ///
    /// Panics if a usable link has cost 0 (link-state metrics are ≥ 1; a
    /// zero-cost cycle would leave the lowest-next-hop walk without an end).
    pub(crate) fn search(
        topo: &'a Topology,
        link_ok: L,
        automaton: &'a SegmentAutomaton,
        dst: RouterId,
    ) -> Self {
        SEARCHES.with(|n| n.set(n.get() + 1));
        let states = automaton.state_count();
        let mut dist = vec![u64::MAX; topo.router_count() * states];
        let mut heap = BinaryHeap::new();
        let start = automaton.step(0, dst);
        dist[dst.index() * states + start] = 0;
        heap.push(Reverse((0u64, dst, start)));
        while let Some(Reverse((cost, w, state))) = heap.pop() {
            if cost > dist[w.index() * states + state] {
                continue;
            }
            for &(u, link_cost) in topo.in_neighbors(w) {
                if !link_ok(u, w) {
                    continue;
                }
                assert!(link_cost >= 1, "link {u} -> {w} has cost 0");
                let before = automaton.step(state, u);
                if automaton.is_terminal(before) {
                    continue; // would complete an excluded segment
                }
                let cand = cost + u64::from(link_cost);
                let slot = &mut dist[u.index() * states + before];
                if cand < *slot {
                    *slot = cand;
                    heap.push(Reverse((cand, u, before)));
                }
            }
        }
        Self {
            topo,
            link_ok,
            automaton,
            dst,
            dist,
        }
    }

    fn states_at(&self, r: RouterId) -> &[u64] {
        let states = self.automaton.state_count();
        &self.dist[r.index() * states..][..states]
    }

    /// Cost of the cheapest compliant path from `src`, if there is one.
    pub(crate) fn cost(&self, src: RouterId) -> Option<u64> {
        let cheapest = self.states_at(src).iter().copied().min();
        cheapest.filter(|&cost| cost != u64::MAX)
    }

    /// One hop of the rule. A cheapest compliant path has reached `at` with
    /// `remaining` cost to go, and `live` holds the automaton states its
    /// possible suffixes are in: returns the lowest-id neighbour one of
    /// them continues through and the cost left there, and leaves that
    /// neighbour's live states in `next`.
    fn hop(
        &self,
        at: RouterId,
        remaining: u64,
        live: &[usize],
        next: &mut Vec<usize>,
    ) -> Option<(RouterId, u64)> {
        let mut best: Option<(RouterId, u64)> = None;
        for &(v, p) in self.topo.neighbors(at) {
            let Some(rest) = remaining.checked_sub(u64::from(p.cost)) else {
                continue;
            };
            if best.is_some_and(|(b, _)| v >= b) || !(self.link_ok)(at, v) {
                continue;
            }
            for (state, &d) in self.states_at(v).iter().enumerate() {
                if d == rest && live.contains(&self.automaton.step(state, at)) {
                    if best != Some((v, rest)) {
                        best = Some((v, rest));
                        next.clear();
                    }
                    next.push(state);
                }
            }
        }
        best
    }

    /// The route from `src`: `None` if no compliant path exists.
    pub(crate) fn path(&self, src: RouterId) -> Option<Path> {
        let mut remaining = self.cost(src)?;
        let at_src = self.states_at(src).iter().enumerate();
        let mut live: Vec<usize> = at_src
            .filter_map(|(state, &d)| (d == remaining).then_some(state))
            .collect();
        let mut next = Vec::new();
        let mut routers = vec![src];
        let mut at = src;
        while at != self.dst {
            (at, remaining) = self
                .hop(at, remaining, &live, &mut next)
                .expect("a finite cost has a continuation");
            std::mem::swap(&mut live, &mut next);
            routers.push(at);
        }
        Some(Path::new(routers))
    }

    /// Like [`path`](Self::path), but says why there is none: the same
    /// search with nothing excluded tells a destination that was never
    /// reachable from one the exclusions isolate.
    pub(crate) fn route(&self, src: RouterId) -> Result<Path, AvoidanceError> {
        self.path(src).ok_or_else(|| {
            let (nothing_excluded, dst) = (SegmentAutomaton::reversed(&[]), self.dst);
            match Toward::search(self.topo, &self.link_ok, &nothing_excluded, dst).cost(src) {
                Some(_) => AvoidanceError::AllPathsExcluded { src, dst },
                None => AvoidanceError::Disconnected { src, dst },
            }
        })
    }
}

impl Topology {
    /// Deterministic shortest-path routes: [the rule](self#the-rule) with
    /// every link usable and nothing excluded. Building the table searches
    /// nothing; each destination costs one search, the first time a route
    /// toward it is asked for.
    ///
    /// Ties are broken toward the lowest next-hop id, modelling the
    /// deterministic ECMP hash of §4.1; all routers agree on the result, so
    /// any router can predict any packet's path in the stable state.
    ///
    /// # Panics
    ///
    /// Panics here, not at the first query, if any link has cost 0
    /// (link-state metrics are ≥ 1; zero-cost links would allow zero-length
    /// cycles in the next-hop derivation).
    pub fn link_state_routes(&self) -> Routes {
        if let Some(l) = self.links().find(|l| l.params.cost == 0) {
            panic!("link {} -> {} has cost 0", l.from, l.to);
        }
        Routes {
            topo: self.clone(),
            columns: (0..self.router_count()).map(|_| OnceLock::new()).collect(),
        }
    }
}

impl Routes {
    /// The column toward `dst`, searched on first use.
    fn column(&self, dst: RouterId) -> &Column {
        self.columns[dst.index()].get_or_init(|| {
            let nothing_excluded = SegmentAutomaton::reversed(&[]);
            let toward = Toward::search(&self.topo, |_, _| true, &nothing_excluded, dst);
            let mut scratch = Vec::new();
            // Nothing excluded: the automaton's one state is live at every
            // router.
            let mut hop = |u, cost| toward.hop(u, cost, &[0], &mut scratch).map(|(v, _)| v);
            (self.topo.routers())
                .map(|u| toward.cost(u).map_or((None, u64::MAX), |c| (hop(u, c), c)))
                .collect()
        })
    }

    /// The forwarding decision of `at` for destination `dst`; `None` when
    /// unreachable or already delivered.
    pub fn next_hop(&self, at: RouterId, dst: RouterId) -> Option<RouterId> {
        if at == dst {
            return None;
        }
        self.column(dst)[at.index()].0
    }

    /// Total route cost, if reachable.
    pub fn cost(&self, src: RouterId, dst: RouterId) -> Option<u64> {
        let d = self.column(dst)[src.index()].1;
        (d != u64::MAX).then_some(d)
    }

    /// Extracts the full path by following next hops; `None` if `dst` is
    /// unreachable from `src`. `path(r, r)` is the trivial path `⟨r⟩`.
    pub fn path(&self, src: RouterId, dst: RouterId) -> Option<Path> {
        let mut routers = vec![src];
        let mut at = src;
        while at != dst {
            at = self.next_hop(at, dst)?;
            routers.push(at);
            assert!(
                routers.len() <= self.columns.len(),
                "routing loop between {src} and {dst}"
            );
        }
        Some(Path::new(routers))
    }

    /// Iterates the paths of every ordered reachable pair (excluding
    /// trivial self-paths) — the route set the Chapter 5 protocols monitor.
    /// It searches toward every destination.
    pub fn all_paths(&self) -> impl Iterator<Item = Path> + '_ {
        let n = self.columns.len() as u32;
        (0..n).flat_map(move |s| {
            (0..n).filter_map(move |d| {
                if s == d {
                    None
                } else {
                    self.path(RouterId(s), RouterId(d))
                }
            })
        })
    }

    /// Number of routers the table covers.
    pub fn router_count(&self) -> usize {
        self.columns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LinkParams;

    /// a - b - c with a direct (more expensive) a - c link.
    fn weighted_triangle() -> (Topology, [RouterId; 3]) {
        let mut t = Topology::new();
        let a = t.add_router("a");
        let b = t.add_router("b");
        let c = t.add_router("c");
        let cheap = LinkParams {
            cost: 1,
            ..LinkParams::default()
        };
        let dear = LinkParams {
            cost: 5,
            ..LinkParams::default()
        };
        t.add_duplex_link(a, b, cheap);
        t.add_duplex_link(b, c, cheap);
        t.add_duplex_link(a, c, dear);
        (t, [a, b, c])
    }

    #[test]
    fn shortest_path_prefers_lower_cost() {
        let (t, [a, b, c]) = weighted_triangle();
        let r = t.link_state_routes();
        let p = r.path(a, c).unwrap();
        assert_eq!(p.routers(), &[a, b, c]);
        assert_eq!(r.cost(a, c), Some(2));
    }

    #[test]
    fn equal_cost_tie_breaks_to_lowest_id() {
        // A diamond: s -> {m1, m2} -> t with equal costs.
        let mut t = Topology::new();
        let s = t.add_router("s");
        let m1 = t.add_router("m1");
        let m2 = t.add_router("m2");
        let d = t.add_router("d");
        let p = LinkParams::default();
        t.add_duplex_link(s, m1, p);
        t.add_duplex_link(s, m2, p);
        t.add_duplex_link(m1, d, p);
        t.add_duplex_link(m2, d, p);
        let r = t.link_state_routes();
        assert_eq!(r.path(s, d).unwrap().routers(), &[s, m1, d]);
        // And every recomputation agrees (determinism).
        let r2 = t.link_state_routes();
        assert_eq!(r.path(s, d), r2.path(s, d));
    }

    #[test]
    fn self_path_is_trivial() {
        let (t, [a, ..]) = weighted_triangle();
        let r = t.link_state_routes();
        let p = r.path(a, a).unwrap();
        assert!(p.is_trivial());
        assert_eq!(p.source(), p.sink());
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        let b = t.add_router("b");
        let r = t.link_state_routes();
        assert_eq!(r.path(a, b), None);
        assert_eq!(r.cost(a, b), None);
        assert_eq!(r.next_hop(a, b), None);
    }

    #[test]
    fn directed_reachability() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        let b = t.add_router("b");
        t.add_link(a, b, LinkParams::default());
        let r = t.link_state_routes();
        assert!(r.path(a, b).is_some());
        assert!(r.path(b, a).is_none());
    }

    #[test]
    fn subpath_consistency() {
        // The suffix of any shortest path is itself the routed path — this
        // is what lets every router predict a transit packet's remaining
        // route (§4.1).
        let (t, _) = weighted_triangle();
        let r = t.link_state_routes();
        for p in r.all_paths() {
            for (i, &mid) in p.routers().iter().enumerate() {
                let sub = r.path(mid, p.sink()).unwrap();
                assert_eq!(sub.routers(), &p.routers()[i..]);
            }
        }
    }

    #[test]
    fn all_paths_count() {
        let (t, _) = weighted_triangle();
        let r = t.link_state_routes();
        assert_eq!(r.all_paths().count(), 6); // 3·2 ordered pairs
    }

    #[test]
    fn contains_segment_and_next_after() {
        let (t, [a, b, c]) = weighted_triangle();
        let r = t.link_state_routes();
        let p = r.path(a, c).unwrap();
        assert!(p.contains_segment(&[a, b]));
        assert!(p.contains_segment(&[a, b, c]));
        assert!(!p.contains_segment(&[a, c]));
        assert!(!p.contains_segment(&[]));
        assert_eq!(p.next_after(b), Some(c));
        assert_eq!(p.next_after(c), None);
    }

    /// A walk passes a router twice: each pass leaves by its own hop.
    #[test]
    fn a_walk_is_followed_pass_by_pass() {
        let [d, k, h, i] = [0, 1, 2, 3].map(RouterId::from);
        let walk = Path::new(vec![d, k, h, k, i]);
        assert_eq!(walk.next_hop(d, None), Some(k));
        assert_eq!(walk.next_hop(k, Some(d)), Some(h));
        assert_eq!(walk.next_hop(h, Some(k)), Some(k));
        assert_eq!(walk.next_hop(k, Some(h)), Some(i));
        assert_eq!(
            walk.next_hop(k, None),
            Some(h),
            "a stray goes on as from the first"
        );
        assert_eq!(walk.next_hop(i, Some(k)), None);
    }

    #[test]
    #[should_panic(expected = "cost 0")]
    fn zero_cost_links_rejected() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        let b = t.add_router("b");
        t.add_link(
            a,
            b,
            LinkParams {
                cost: 0,
                ..LinkParams::default()
            },
        );
        let _ = t.link_state_routes();
    }
}
