//! The prior work the fatih protocols are measured against: the detectors
//! and forwarding schemes of the dissertation's Chapter 3 literature
//! review, kept apart from the paper's own protocols in `fatih-core`.
//!
//! * [`watchers`] — the WATCHERS conservation-of-flow baseline with the
//!   consorting-routers flaw demonstrable (§3.1);
//! * [`threshold`] — the static-threshold baseline χ is compared against
//!   (§6.4.3);
//! * [`zhang`], [`herzberg`], [`sectrace`] — the per-interface rate model,
//!   the ack/timeout per-packet protocols, and Secure Traceroute with its
//!   framing weakness;
//! * [`perlman`] — Byzantine-robust multipath forwarding under
//!   `TotalFault(f)` (§3.7).
//!
//! `threshold` and `zhang` watch a queue through χ's
//! [`QueueTap`](fatih_core::chi::QueueTap), so all three see the same
//! traffic; the detectors report `fatih_core::spec` suspicions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod herzberg;
pub mod perlman;
pub mod sectrace;
pub mod threshold;
pub mod watchers;
pub mod zhang;

pub use threshold::{ThresholdDetector, ThresholdVerdict};
pub use watchers::{WatchersConfig, WatchersDetector, WatchersMode};
pub use zhang::{ZhangConfig, ZhangDetector, ZhangVerdict};
