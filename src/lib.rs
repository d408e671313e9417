//! # fatih — detecting malicious routers
//!
//! A Rust reproduction of the protocol suite behind *"Brief Announcement:
//! Detecting Malicious Routers"* (Mızrak, Marzullo, Savage — PODC 2004) and
//! its full version, the UCSD dissertation *"Detecting Malicious Routers"*
//! (Mızrak, 2007): traffic validation, distributed detection and response
//! for routers that maliciously drop, modify, reorder or delay transit
//! packets.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`stats`] — error function, normal distribution, Z-tests,
//!   descriptive statistics, histograms;
//! * [`crypto`] — SHA-256, HMAC, universal hashing, packet fingerprints;
//! * [`validation`] — conservation-of-traffic summaries, Bloom filters and
//!   polynomial set reconciliation;
//! * [`topology`] — network graphs, link-state routing, path segments and
//!   the response mechanism;
//! * [`sim`] — a discrete-event packet network simulator with DropTail and
//!   RED queues, TCP, and attack injection;
//! * [`protocols`] — the detectors themselves: Protocol Π2, Protocol Πk+2's
//!   per-router exchange, Protocol χ, and the WATCHERS, static-threshold
//!   and other Chapter 3 baselines;
//! * [`net`] — the runtime that runs Πk+2 and the response: a sans-I/O
//!   router and its binary wire codec, stepped by sharded event loops over
//!   UDP or loopback sockets on the wall clock, or by `SimHost` on the
//!   simulator's virtual clock;
//! * [`obs`] — zero-dependency observability: a metrics registry (atomic
//!   counters, gauges, log-bucketed histograms) and a structured trace
//!   journal with JSONL and chrome://tracing export.
//!
//! # Quick start
//!
//! ```
//! use fatih::topology::{builtin, Topology};
//!
//! // Build the Abilene backbone used in the Fatih evaluation (Fig. 5.6).
//! let topo: Topology = builtin::abilene();
//! assert_eq!(topo.router_count(), 11);
//! let routes = topo.link_state_routes();
//! // Link-state routing computes a single deterministic path per pair.
//! let path = routes.path(topo.router_by_name("Sunnyvale").unwrap(),
//!                        topo.router_by_name("NewYork").unwrap()).unwrap();
//! assert!(path.len() >= 2);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! regenerators of every figure and table in the paper's evaluation.

#![forbid(unsafe_code)]

pub use fatih_core as protocols;
pub use fatih_crypto as crypto;
pub use fatih_net as net;
pub use fatih_obs as obs;
pub use fatih_sim as sim;
pub use fatih_stats as stats;
pub use fatih_topology as topology;
pub use fatih_validation as validation;
