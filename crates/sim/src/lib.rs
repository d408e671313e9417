//! A deterministic discrete-event packet-network simulator for the `fatih`
//! malicious-router detection suite.
//!
//! Replaces the dissertation's evaluation substrates — NS-2 (§6.4.1),
//! Emulab (§6.4.2), and the UML-based Abilene emulation (§5.3.2) — with one
//! from-scratch engine (see `DESIGN.md`, substitution 2):
//!
//! * [`engine`] — the event loop, forwarding, links and route overrides;
//! * [`queue`] — drop-tail and RED output queues (the object Protocol χ
//!   validates);
//! * [`tcp`] — Reno-style TCP with slow start, fast retransmit, RTO and
//!   the 3-second SYN timeout;
//! * `agent` (internal) — CBR sources and RTT probes;
//! * [`attack`] — the §2.2.1 adversary: selective/percentage drops,
//!   queue-conditional drops, SYN targeting, modification, delay,
//!   misrouting;
//! * [`fault`] — the benign half of §2.2.1: seed-driven control-plane
//!   loss/duplication/reordering/corruption, link flaps and router
//!   crash–restart windows;
//! * [`tap`] — the observation stream detectors consume, with
//!   ground-truth drop causes for evaluation only.
//!
//! # Examples
//!
//! ```
//! use fatih_sim::{Attack, Network, SimTime, TapEvent};
//! use fatih_topology::builtin;
//!
//! let mut net = Network::new(builtin::line(4), 7);
//! let topo = net.topology();
//! let (a, b, d) = (
//!     topo.router_by_name("n0").unwrap(),
//!     topo.router_by_name("n1").unwrap(),
//!     topo.router_by_name("n3").unwrap(),
//! );
//! let flow = net.add_cbr_flow(a, d, 1000, SimTime::from_ms(1),
//!                             SimTime::ZERO, Some(SimTime::from_ms(100)));
//! net.set_attacks(b, vec![Attack::drop_flows([flow], 0.5)]);
//! let mut observed_drops = 0;
//! net.run_until(SimTime::from_secs(1), |ev| {
//!     if matches!(ev, TapEvent::Dropped { .. }) {
//!         observed_drops += 1;
//!     }
//! });
//! assert!(observed_drops > 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
pub mod attack;
pub mod engine;
pub mod fault;
pub mod packet;
pub mod queue;
pub mod tap;
pub mod tcp;
pub mod time;

pub use attack::{Attack, AttackKind, VictimFilter};
pub use engine::{ControlDelivery, Network};
pub use fault::{FaultPlan, LinkFaults};
pub use packet::{FlowId, Packet, PacketId, PacketKind};
pub use queue::{QueueDiscipline, RedParams};
pub use tap::{DropReason, GroundTruth, SimMetrics, TapEvent};
pub use tcp::{TcpConfig, TcpStats};
pub use time::SimTime;
