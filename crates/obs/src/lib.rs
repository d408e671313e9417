//! Observability for the fatih runtimes: metrics, traces, and their
//! exports.
//!
//! Chapter 7 of the dissertation is an *accounting* argument — per-router
//! state, control bytes per round, validation cost per packet — and a
//! watchdog-style detection system is only trustworthy when its decisions
//! are auditable after the fact. This crate is the shared instrumentation
//! substrate those two needs meet in. It has no dependencies and three
//! pieces:
//!
//! * [`metrics`] — a process-wide [`MetricsRegistry`] of named, atomic
//!   [`Counter`]s, [`Gauge`]s and log-bucketed [`Histogram`]s, snapshot
//!   at any time into an immutable [`MetricsSnapshot`] with p50/p90/p99
//!   summaries and a JSON export. The live runtime, the monitors, the
//!   simulator and the bench harnesses all register into one of these
//!   instead of growing bespoke counter structs.
//! * [`trace`] — a structured trace journal: each shard of the live
//!   runtime owns a [`TraceBuffer`] (a bounded ring it alone writes to —
//!   no locks anywhere on the hot path) of typed [`TraceEvent`]s with
//!   per-shard sequence numbers and monotonic timestamps. After a run the
//!   buffers merge into a [`TraceJournal`] that keeps their 32-byte slots
//!   in place, yields events by value as it is read, and drains to JSONL
//!   and to the `chrome://tracing` trace-event format for
//!   flamegraph-style inspection.
//! * [`json`] — the minimal JSON writer/parser the exports are built on
//!   (and round-trip tested against), so nothing here needs serde.
//!
//! # Examples
//!
//! Count, observe, snapshot:
//!
//! ```
//! use fatih_obs::{MetricsRegistry};
//!
//! let reg = MetricsRegistry::new();
//! let delivered = reg.counter("net.data_delivered");
//! let rtt = reg.histogram("net.rtt_ns");
//! for i in 0..100 {
//!     delivered.inc();
//!     rtt.record(1_000 + i * 10);
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("net.data_delivered"), 100);
//! let h = snap.histogram("net.rtt_ns").unwrap();
//! assert_eq!(h.count, 100);
//! assert!(h.p50 >= 1_000 && h.p99 <= h.max * 2);
//! assert!(snap.to_json().contains("net.data_delivered"));
//! ```
//!
//! Trace a round and drain the journal:
//!
//! ```
//! use fatih_obs::{TraceBuffer, TraceJournal, TraceKind};
//!
//! let mut shard0 = TraceBuffer::new(0, 1024);
//! shard0.record(10, TraceKind::RoundStart, 3, 0, 0);
//! shard0.record(25, TraceKind::AccusationRaised, 3, 0, 1);
//! shard0.record(40, TraceKind::RoundEnd, 3, 0, 0);
//! let journal = TraceJournal::from_buffers([shard0]);
//! assert_eq!(journal.recorded(TraceKind::AccusationRaised), 1);
//! let jsonl = journal.to_jsonl();
//! let back = TraceJournal::from_jsonl(&jsonl).unwrap();
//! assert_eq!(back.events(), journal.events());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::{JsonError, JsonValue};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{TraceBuffer, TraceEvent, TraceEvents, TraceEventsIter, TraceJournal, TraceKind};
