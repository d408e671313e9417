//! The response mechanism (dissertation §2.4.3): routing around suspected
//! path segments.
//!
//! When detection raises a suspicion `(π, τ)`, the *least disruptive*
//! countermeasure — and the one the dissertation chooses — is to remove only
//! the path-segment `π` from the routing fabric: "routers update their
//! forwarding tables such that no traffic traverses along the suspected
//! path-segment anymore", while the member routers may keep forwarding
//! other traffic. Fatih realizes this with source-prefix policy routing
//! (§5.3.1); we realize the identical reachability semantics by never
//! *completing* a suspected segment.
//!
//! Which router sequences are forbidden is an Aho–Corasick automaton over
//! router ids: states are prefixes of suspected segments, and any
//! transition that would complete a full segment is removed. The search
//! over (router, automaton state), and the tie-break that makes the
//! answer least disruptive — a pair whose link-state route crosses no
//! suspected segment keeps it — are [the one route
//! computation](crate::routing#the-rule); a
//! [`DynamicTopology`](crate::DynamicTopology) with segments excluded
//! ([`exclude_segment`](crate::DynamicTopology::exclude_segment)) routes
//! around them.

use crate::graph::RouterId;
use crate::segments::PathSegment;
use std::collections::HashMap;

/// Why an avoidance route could not be produced.
///
/// The distinction matters to the response layer: a [`Disconnected`]
/// destination was unreachable before any exclusion was applied (a
/// partitioned or down router — nothing the response can do), while
/// [`AllPathsExcluded`] means connectivity exists but every route would
/// complete a suspected segment — the §2.4.3 "uniformly malicious router
/// ends up completely isolated" outcome, which a caller may want to
/// surface rather than silently treat as a dead destination.
///
/// [`Disconnected`]: AvoidanceError::Disconnected
/// [`AllPathsExcluded`]: AvoidanceError::AllPathsExcluded
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AvoidanceError {
    /// `dst` is unreachable from `src` in the underlying graph, exclusions
    /// aside.
    Disconnected {
        /// Requested source.
        src: RouterId,
        /// Unreachable destination.
        dst: RouterId,
    },
    /// `dst` is reachable, but every path completes an excluded segment.
    AllPathsExcluded {
        /// Requested source.
        src: RouterId,
        /// Destination isolated by the exclusions.
        dst: RouterId,
    },
}

impl std::fmt::Display for AvoidanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AvoidanceError::Disconnected { src, dst } => {
                write!(f, "{dst} is disconnected from {src} in the topology")
            }
            AvoidanceError::AllPathsExcluded { src, dst } => {
                write!(
                    f,
                    "every path from {src} to {dst} traverses an excluded segment"
                )
            }
        }
    }
}

impl std::error::Error for AvoidanceError {}

/// Aho–Corasick automaton over router sequences, specialized to *rejecting*
/// walks that contain any pattern as a contiguous subsequence.
#[derive(Debug, Clone)]
pub(crate) struct SegmentAutomaton {
    /// goto[state] : router -> next state.
    transitions: Vec<HashMap<RouterId, usize>>,
    /// Failure links.
    fail: Vec<usize>,
    /// Whether the state corresponds to a complete pattern (forbidden).
    terminal: Vec<bool>,
}

impl SegmentAutomaton {
    /// The automaton that rejects every segment of `patterns` read back
    /// to front — the direction a search toward the destination reads a
    /// path in. No patterns give the one-state automaton that rejects
    /// nothing.
    pub(crate) fn reversed(patterns: &[PathSegment]) -> Self {
        let mut automaton = Self {
            transitions: vec![HashMap::new()],
            fail: vec![0],
            terminal: vec![false],
        };
        // Trie construction.
        for p in patterns {
            let mut state = 0usize;
            for &r in p.routers().iter().rev() {
                let fresh = automaton.transitions.len();
                state = *automaton.transitions[state].entry(r).or_insert(fresh);
                if state == fresh {
                    automaton.transitions.push(HashMap::new());
                    automaton.fail.push(0);
                    automaton.terminal.push(false);
                }
            }
            automaton.terminal[state] = true;
        }
        // Failure links by BFS (standard Aho–Corasick): the root's children
        // fall back to the root, a deeper state to wherever its parent's
        // fallback goes on the same router.
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(state) = queue.pop_front() {
            let edges: Vec<(RouterId, usize)> = (automaton.transitions[state].iter())
                .map(|(&r, &next)| (r, next))
                .collect();
            for (r, next) in edges {
                if state != 0 {
                    automaton.fail[next] = automaton.step(automaton.fail[state], r);
                }
                // A state whose failure state is terminal contains a
                // pattern as a suffix.
                automaton.terminal[next] |= automaton.terminal[automaton.fail[next]];
                queue.push_back(next);
            }
        }
        automaton
    }

    /// The state reached from `state` on symbol `r`.
    pub(crate) fn step(&self, mut state: usize, r: RouterId) -> usize {
        loop {
            if let Some(&next) = self.transitions[state].get(&r) {
                return next;
            }
            if state == 0 {
                return 0;
            }
            state = self.fail[state];
        }
    }

    pub(crate) fn is_terminal(&self, state: usize) -> bool {
        self.terminal[state]
    }

    pub(crate) fn state_count(&self) -> usize {
        self.transitions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicTopology;
    use crate::graph::{LinkParams, Topology};

    /// `t` with `excluded` routed around.
    fn avoiding(t: &Topology, excluded: Vec<PathSegment>) -> DynamicTopology {
        let mut overlay = DynamicTopology::new(t.clone());
        for seg in excluded {
            overlay.exclude_segment(seg);
        }
        overlay
    }

    /// r0 - r1 - r2 - r3 line plus a bypass r0 - r4 - r5 - r3.
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
    fn no_exclusions_matches_link_state_route() {
        let (t, _) = line_with_bypass();
        let mut av = avoiding(&t, vec![]);
        let routes = t.link_state_routes();
        for plain in routes.all_paths() {
            let (src, dst) = (plain.source(), plain.sink());
            assert_eq!(av.path(src, dst), Ok(plain));
        }
    }

    #[test]
    fn excluded_segment_forces_detour() {
        let (t, rs) = line_with_bypass();
        let seg = PathSegment::new(vec![rs[1], rs[2]]);
        let mut av = avoiding(&t, vec![seg]);
        let p = av.path(rs[0], rs[3]).unwrap();
        assert_eq!(p.routers(), &[rs[0], rs[4], rs[5], rs[3]]);
    }

    #[test]
    fn interior_router_stays_usable_elsewhere() {
        // Excluding ⟨r1, r2⟩ must not stop r0 -> r1 or r2 -> r3 traffic.
        let (t, rs) = line_with_bypass();
        let seg = PathSegment::new(vec![rs[1], rs[2]]);
        let mut av = avoiding(&t, vec![seg]);
        assert_eq!(av.path(rs[0], rs[1]).unwrap().routers(), &[rs[0], rs[1]]);
        assert_eq!(av.path(rs[2], rs[3]).unwrap().routers(), &[rs[2], rs[3]]);
    }

    #[test]
    fn three_router_segment_blocks_only_the_full_sequence() {
        let (t, rs) = line_with_bypass();
        // Exclude ⟨r0, r1, r2⟩ but not ⟨r1, r2⟩ itself.
        let seg = PathSegment::new(vec![rs[0], rs[1], rs[2]]);
        let mut av = avoiding(&t, vec![seg]);
        // r0 -> r3 must detour…
        let p = av.path(rs[0], rs[3]).unwrap();
        assert!(!p.contains_segment(&[rs[0], rs[1], rs[2]]));
        // …but r1 -> r3 may still go through r2.
        assert_eq!(
            av.path(rs[1], rs[3]).unwrap().routers(),
            &[rs[1], rs[2], rs[3]]
        );
    }

    #[test]
    fn unreachable_when_all_paths_forbidden() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        let b = t.add_router("b");
        let c = t.add_router("c");
        t.add_duplex_link(a, b, LinkParams::default());
        t.add_duplex_link(b, c, LinkParams::default());
        let mut av = avoiding(&t, vec![PathSegment::new(vec![a, b])]);
        assert!(av.path(a, c).is_err());
        // Reverse direction unaffected (segments are directional).
        assert!(av.path(c, a).is_ok());
    }

    #[test]
    fn overlapping_segments_all_respected() {
        let (t, rs) = line_with_bypass();
        let mut av = avoiding(
            &t,
            vec![
                PathSegment::new(vec![rs[1], rs[2]]),
                PathSegment::new(vec![rs[4], rs[5]]),
            ],
        );
        // Both the primary and the bypass are now cut in the forward
        // direction.
        assert!(av.path(rs[0], rs[3]).is_err());
    }

    #[test]
    fn suffix_pattern_matching_works() {
        // Pattern ⟨r2, r3⟩ must be caught even after a longer non-matching
        // prefix (exercises the failure links).
        let (t, rs) = line_with_bypass();
        let mut av = avoiding(&t, vec![PathSegment::new(vec![rs[2], rs[3]])]);
        let p = av.path(rs[0], rs[3]).unwrap();
        assert_eq!(p.routers(), &[rs[0], rs[4], rs[5], rs[3]]);
        // r0 -> r2 is fine.
        assert_eq!(
            av.path(rs[0], rs[2]).unwrap().routers(),
            &[rs[0], rs[1], rs[2]]
        );
    }

    #[test]
    fn trivial_path_allowed() {
        let (t, rs) = line_with_bypass();
        let mut av = avoiding(&t, vec![PathSegment::new(vec![rs[0], rs[1]])]);
        assert!(av.path(rs[0], rs[0]).unwrap().is_trivial());
    }

    #[test]
    fn multiple_overlapping_exclusions_yield_typed_error() {
        // Three exclusions that overlap pairwise on r1, r2 and r4: every
        // forward route from r0 to r3 is cut, but the graph itself remains
        // connected — so the typed error must say *excluded*, not
        // *disconnected*.
        let (t, rs) = line_with_bypass();
        let mut av = avoiding(
            &t,
            vec![
                PathSegment::new(vec![rs[0], rs[1], rs[2]]),
                PathSegment::new(vec![rs[1], rs[2], rs[3]]),
                PathSegment::new(vec![rs[0], rs[4]]),
            ],
        );
        assert_eq!(
            av.path(rs[0], rs[3]),
            Err(AvoidanceError::AllPathsExcluded {
                src: rs[0],
                dst: rs[3],
            })
        );
        // Partially overlapping routes not covered by any full pattern
        // still work: r1 -> r3 avoids ⟨r1, r2, r3⟩ by detouring is
        // impossible on the line, so it is excluded too…
        assert_eq!(
            av.path(rs[1], rs[3]),
            Err(AvoidanceError::AllPathsExcluded {
                src: rs[1],
                dst: rs[3],
            })
        );
        // …while r2 -> r3 (a strict suffix of an excluded pattern, not a
        // match) is unaffected.
        assert_eq!(av.path(rs[2], rs[3]).unwrap().routers(), &[rs[2], rs[3]]);
    }

    #[test]
    fn disconnected_destination_yields_typed_error_not_panic() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        let b = t.add_router("b");
        let island = t.add_router("island");
        t.add_duplex_link(a, b, LinkParams::default());
        let mut av = avoiding(&t, vec![PathSegment::new(vec![a, b])]);
        assert_eq!(
            av.path(a, island),
            Err(AvoidanceError::Disconnected {
                src: a,
                dst: island
            })
        );
        // Reachable but fully excluded on the same instance still reports
        // the exclusion variant.
        assert_eq!(
            av.path(a, b),
            Err(AvoidanceError::AllPathsExcluded { src: a, dst: b })
        );
    }

    #[test]
    fn avoidance_error_displays_both_variants() {
        let (_, rs) = line_with_bypass();
        let e1 = AvoidanceError::Disconnected {
            src: rs[0],
            dst: rs[3],
        };
        let e2 = AvoidanceError::AllPathsExcluded {
            src: rs[0],
            dst: rs[3],
        };
        assert!(e1.to_string().contains("disconnected"));
        assert!(e2.to_string().contains("excluded"));
    }
}
