//! Detecting malicious routers — the protocol suite of Mızrak, Marzullo &
//! Savage (PODC 2004 brief announcement; full version: the 2007 UCSD
//! dissertation *"Detecting Malicious Routers"*).
//!
//! A compromised router can drop, modify, reorder, delay or divert the
//! transit packets it forwards. Detection decomposes into three
//! subproblems (§1): **traffic validation** (is traffic conserved across a
//! region?), **distributed detection** (agreeing on who to suspect from
//! mutually untrusted reports), and **response** (routing around suspected
//! path segments). This crate implements the paper's protocols on those
//! substrates:
//!
//! * [`spec`] — the failure-detector specification: suspicions,
//!   a-Accuracy, a-Completeness, precision (§4.2.2), and the signed alert
//!   a suspicion travels as (`SignedAlert`, Figure 5.3);
//! * [`monitor`] — building `info(r, π, τ)` from local observations;
//! * [`rounds`] — the round rule: the window of observations a round
//!   judges, holds and afterwards forgets, one definition under the
//!   in-memory Π2 detector and the live runtime;
//! * [`probation`] — crash-restart re-admission: restarted routers are
//!   transit of last resort until they survive K clean rounds;
//! * [`consensus`] — Dolev–Strong authenticated broadcast for Π2's
//!   report dissemination;
//! * [`pi2`] — **Protocol Π2**: every segment member validates every
//!   adjacent pair; strong-complete, accurate, precision 2 (§5.1);
//! * [`pik2`] — **Protocol Πk+2**: only segment ends validate;
//!   strong-complete, accurate, precision k+2, cheap enough to deploy
//!   (§5.2). The exchange is the per-router, sans-I/O `Pik2Node`, hosted
//!   by the live runtime's `Router` (over sockets, or on the simulator's
//!   clock), and what a host puts on its wire is a `pik2::Message`,
//!   encoded here;
//! * [`chi`] — **Protocol χ**: congestion-aware loss detection by queue
//!   replay with statistical confidence tests, for drop-tail and RED
//!   queues (Chapter 6);
//! * [`watchers`] — the WATCHERS conservation-of-flow baseline with the
//!   consorting-routers flaw demonstrable (§3.1);
//! * [`threshold`] — the static-threshold baseline χ is compared against
//!   (§6.4.3);
//! * [`zhang`], [`herzberg`], [`sectrace`] — the remaining baselines of
//!   the Chapter 3 literature review: the per-interface rate model, the
//!   ack/timeout per-packet protocols, and Secure Traceroute with its
//!   framing weakness;
//! * [`reliable`] — the sans-I/O retransmission core: backoff, retry
//!   budget and bounded duplicate suppression, hosted by the live router;
//! * [`wire`] — the tagged byte layout every control message is written
//!   in and signed over;
//! * [`perlman`] — Byzantine-robust multipath forwarding under
//!   `TotalFault(f)` (§3.7).
//!
//! # Examples
//!
//! Deploy Protocol Π2 on a simulated line network and catch a dropper
//! (Πk+2 runs in the live `Router` of `fatih-net`, which its `SimHost`
//! steps on the simulator's clock):
//!
//! ```
//! use fatih_core::pi2::{Pi2Config, Pi2Detector};
//! use fatih_core::spec::SpecCheck;
//! use fatih_crypto::KeyStore;
//! use fatih_sim::{Attack, Network, SimTime};
//! use fatih_topology::builtin;
//!
//! let topo = builtin::line(5);
//! let mut keystore = KeyStore::with_seed(1);
//! for r in topo.routers() {
//!     keystore.register(r.into());
//! }
//! let mut net = Network::new(topo, 1);
//! let ids: Vec<_> = net.topology().routers().collect();
//! let mut detector = Pi2Detector::new(net.routes(), keystore, Pi2Config::default());
//!
//! let flow = net.add_cbr_flow(ids[0], ids[4], 1000, SimTime::from_ms(2),
//!                             SimTime::ZERO, None);
//! net.set_attacks(ids[2], vec![Attack::drop_flows([flow], 0.3)]);
//!
//! let end = SimTime::from_secs(5);
//! net.run_until(end, |ev| detector.observe(ev));
//! let suspicions = detector.end_round(end);
//!
//! let faulty = [ids[2]].into_iter().collect();
//! let check = SpecCheck::evaluate(&suspicions, &faulty);
//! assert!(check.is_complete() && check.is_accurate(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chi;
pub mod consensus;
pub mod herzberg;
pub mod monitor;
pub mod perlman;
pub mod pi2;
pub mod pik2;
pub mod policy;
pub mod probation;
pub mod reliable;
pub mod rounds;
pub mod sectrace;
pub mod spec;
pub mod threshold;
pub mod watchers;
pub mod wire;
pub mod zhang;

pub use chi::{ChiConfig, ChiVerdict, QueueTap, QueueValidator};
pub use pi2::{Pi2Config, Pi2Detector};
pub use policy::{Policy, ReportFault, Thresholds};
pub use probation::{ProbationStatus, ProbationTracker};
pub use spec::{Interval, SignedAlert, SpecCheck, Suspicion};
pub use threshold::{ThresholdDetector, ThresholdVerdict};
pub use watchers::{WatchersConfig, WatchersDetector, WatchersMode};
pub use zhang::{ZhangConfig, ZhangDetector, ZhangVerdict};
