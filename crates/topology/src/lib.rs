//! Network topology, link-state routing and response for the `fatih`
//! malicious-router detection suite.
//!
//! This crate models the network of dissertation §4.1 — routers joined by
//! directional point-to-point links, forwarding hop-by-hop under a
//! link-state protocol with deterministic equal-cost tie-breaks — and the
//! structures Chapter 5 builds on it:
//!
//! * [`graph`] — [`Topology`], [`RouterId`], [`LinkParams`];
//! * [`routing`] — the one route computation, and the deterministic
//!   shortest paths it gives, searched per destination on demand
//!   ([`Routes`], [`Path`]);
//! * [`segments`] — [`PathSegment`] and the monitored sets `P_r` for
//!   Protocol Π2 ([`pi2_segments`]) and Protocol Πk+2 ([`pik2_segments`]);
//! * [`avoidance`] — the §2.4.3 response: the automaton that keeps a
//!   search from completing a suspected segment, which
//!   [`DynamicTopology::exclude_segment`] routes around;
//! * [`builtin`] — Abilene (Fig 5.6), synthetic Sprintlink/EBONE stand-ins
//!   (Figs 5.2/5.4), and test fixtures.
//!
//! # Examples
//!
//! ```
//! use fatih_topology::{builtin, pik2_segments};
//!
//! let topo = builtin::abilene();
//! let routes = topo.link_state_routes();
//! // Which segments does each router monitor under AdjacentFault(1)?
//! let sets = pik2_segments(&routes, 1);
//! let sizes = sets.sizes();
//! assert_eq!(sizes.len(), topo.router_count());
//! assert!(sizes.iter().all(|&s| s > 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avoidance;
pub mod builtin;
pub mod disjoint;
pub mod dynamic;
pub mod graph;
pub mod routing;
pub mod segments;

pub use avoidance::AvoidanceError;
pub use dynamic::DynamicTopology;
pub use graph::{Link, LinkParams, RouterId, Topology};
pub use routing::{searches_on_this_thread, Path, Routes};
pub use segments::{
    pi2_segment_counts, pi2_segments, pik2_segment_counts, pik2_segments, pik2_segments_from_paths,
    PathSegment, SegmentSets,
};
