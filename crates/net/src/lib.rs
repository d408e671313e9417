//! A real wire-protocol runtime for the fatih detection protocols.
//!
//! The live Fatih router — segment monitors, maturity-windowed traffic
//! validation, timeout-as-accusation, signed alerts, the link-state flood
//! and the reroute — written once, as a step function with no I/O
//! (`router`), and hosted two ways: over real byte streams and wall-clock
//! time by a deployment's shard threads, and on the simulator's virtual
//! clock, under its data-plane adversary and its `FaultPlan`, by
//! [`SimHost`]:
//!
//! * [`codec`] — the binary wire format: length-prefixed, version-byte
//!   framed, field-tagged messages with an HMAC-SHA256 trailer on every
//!   control frame (summaries, acks, alerts, accusations);
//! * [`transport`] — the [`Transport`] abstraction with an in-memory
//!   loopback implementation ([`LoopbackHub`]) and a real
//!   UDP-over-localhost implementation ([`UdpNet`]);
//! * [`linkstate`] — origin-signed topology updates (segment convictions,
//!   join/leave, crash-restart incarnations, link flaps) flooded through
//!   the control plane, and (crate-private) `Convergence`, the view of
//!   the network a router derives from the set of them it holds;
//! * [`timer`] — a deadline-ordered timer queue (one binary heap), on
//!   which each host keeps its routers' deadlines;
//! * [`mailbox`] — lock-free cross-shard frame queues that let co-resident
//!   routers bypass the kernel when the fastpath is enabled;
//! * [`runtime`] — the live runtime's public types and the
//!   [`LiveDeployment`] harness that deploys a topology, injects traffic
//!   and droppers, and collects suspicions; summaries travel whole or, in
//!   reconciliation mode ([`SummaryMode::Reconcile`](runtime::SummaryMode)),
//!   as digests. Crate-private, split at the I/O seam: `router` (a router
//!   as a sans-I/O step function), `flows` (its traffic) and `shard` (the
//!   worker threads that host routers over their transports);
//! * [`SimHost`] — every router of a simulated `fatih_sim::Network`,
//!   stepped by one thread on the engine's clock, its frames carried as
//!   in-band control packets: a run is a function of its seeds.
//!
//! # Examples
//!
//! Run a 6-router line over real UDP loopback sockets and catch a dropper:
//!
//! ```no_run
//! use fatih_net::runtime::{DropperSpec, FlowSpec, LiveConfig, LiveDeployment, LiveSpec};
//! use fatih_net::transport::UdpNet;
//! use fatih_topology::builtin;
//!
//! let topo = builtin::line(6);
//! let ids: Vec<_> = topo.routers().collect();
//! let spec = LiveSpec {
//!     flows: vec![FlowSpec::new(ids[0], ids[5], 1000, std::time::Duration::from_millis(3))],
//!     droppers: vec![DropperSpec { router: ids[3], rate: 0.3, seed: 1, active_from: 0 }],
//!     ..LiveSpec::default()
//! };
//! let cfg = LiveConfig::default();
//! let transports = UdpNet::bind_group(&ids).unwrap();
//! let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);
//! assert!(outcome.suspicions.iter().all(|s| s.segment.contains(ids[3])));
//! ```

// `deny`, not `forbid`, so that exactly one module can opt out: `poller`
// declares the `epoll(7)` calls `std` lacks. CI fails if the keyword, a
// foreign function block, or a second opt-out appears anywhere else under
// `crates/`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod flows;
pub mod linkstate;
pub mod mailbox;
#[allow(unsafe_code)]
mod poller;
mod router;
pub mod runtime;
mod shard;
mod sim_host;
pub mod timer;
pub mod transport;

pub use codec::{decode_frame, encode_frame, CodecError, Frame, MsgType, WireMessage};
pub use linkstate::{LinkStateUpdate, TopoUpdate};
pub use runtime::{
    ChurnAction, ChurnEvent, LiveConfig, LiveDeployment, LiveEvent, LiveOutcome, LiveSpec,
    SummaryMode,
};
pub use sim_host::SimHost;
pub use transport::{LoopbackHub, NetError, Transport, UdpNet};
