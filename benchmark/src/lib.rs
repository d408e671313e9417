//! `fatihbench`: the repository's one benchmark.
//!
//! Four workloads run the live Πk+2 runtime (`LiveDeployment::run`) over
//! real UDP loopback sockets and are measured strictly from outside — see
//! `benchmark/README.md` for the workloads, the metrics, what each layer
//! figure is expected to move, and the findings that shaped the design.

#![warn(missing_docs)]

pub mod catalog;
pub mod layers;
pub mod measure;
pub mod probe;
pub mod report;
pub mod run;
pub mod suite;
pub mod verdict;
pub mod workload;
