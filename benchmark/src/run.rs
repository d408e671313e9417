//! One run: set-up cycles, the measured deployment, end-to-end metrics.
//!
//! Everything is measured from outside the program: process CPU and peak
//! RSS from `/proc/self`, counters from the `net.*` registry snapshot the
//! deployment returns, packet latency from the probes' stamps.

use crate::measure::{
    highest_supported_percentile, median, peak_rss_mib, percentile, process_cpu_seconds,
    setup_seconds,
};
use crate::probe::{Probe, ProbeRecord};
use crate::report::Metric;
use crate::verdict::Verdict;
use crate::workload::Workload;
use fatih_net::runtime::{LiveConfig, LiveDeployment, LiveOutcome};
use fatih_net::UdpNet;
use fatih_topology::RouterId;
use std::time::{Duration, Instant};

/// Set-up cycles per run; `setup_s` is their median.
pub const SETUP_CYCLES: usize = 5;

/// One finished deployment, as seen from outside.
pub struct Deployed {
    /// What the runtime returned.
    pub outcome: LiveOutcome,
    /// What the probes collected.
    pub record: ProbeRecord,
    /// Wall time of `LiveDeployment::run`.
    pub wall: Duration,
    /// Process CPU seconds (user + system) across `LiveDeployment::run`.
    pub cpu_s: f64,
    /// Peak RSS of the process right after the deployment.
    pub peak_rss_mib: f64,
}

/// Binds loopback UDP sockets, wraps them in probes and runs `cfg`.
pub fn deploy(w: &Workload, cfg: &LiveConfig, traced: bool) -> Result<Deployed, String> {
    let ids: Vec<RouterId> = w.topo.routers().collect();
    let sockets = UdpNet::bind_group(&ids).map_err(|e| format!("bind loopback sockets: {e}"))?;
    let (probes, hub) = Probe::wrap_group(sockets, &w.probe_setup(traced));
    let cpu0 = process_cpu_seconds();
    let t0 = Instant::now();
    let outcome = LiveDeployment::run(&w.topo, &w.spec, cfg, probes);
    let wall = t0.elapsed();
    Ok(Deployed {
        outcome,
        record: hub.take(),
        wall,
        cpu_s: process_cpu_seconds() - cpu0,
        peak_rss_mib: peak_rss_mib(),
    })
}

/// One set-up cycle: bind the sockets and deploy one 200 ms round of `w`.
/// Returns the cycle's wall time beyond the schedule it ran: socket bind,
/// key / route / monitor build, thread spawn and join, trace merge.
/// Generating `w` is the benchmark's own work and is not counted.
pub fn setup_cycle(w: &Workload) -> Result<f64, String> {
    let cfg = w.setup_cycle_cfg();
    let t0 = Instant::now();
    deploy(w, &cfg, false)?;
    Ok(setup_seconds(t0.elapsed(), Workload::schedule(&cfg)))
}

/// Median of [`SETUP_CYCLES`] set-up cycles. The cycles double as warm-up
/// for the measured deployment that follows.
pub fn measure_setup(w: &Workload) -> Result<f64, String> {
    let samples = (0..SETUP_CYCLES)
        .map(|_| setup_cycle(w))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&samples).expect("SETUP_CYCLES > 0"))
}

/// Packet latency as the probes saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median, µs.
    pub p50: f64,
    /// 90th percentile, µs (diagnostic).
    pub p90: f64,
    /// 99th percentile, µs (diagnostic).
    pub p99: f64,
    /// The highest percentile with at least ten samples beyond it.
    pub highest_supported: Option<f64>,
    /// Sampled packets that arrived.
    pub samples: usize,
}

impl Latency {
    /// Summarises ascending latencies; `None` when no packet was sampled.
    pub fn of(sorted_us: &[f64]) -> Option<Self> {
        Some(Self {
            p50: percentile(sorted_us, 0.5)?,
            p90: percentile(sorted_us, 0.9)?,
            p99: percentile(sorted_us, 0.99)?,
            highest_supported: highest_supported_percentile(sorted_us.len()),
            samples: sorted_us.len(),
        })
    }
}

/// The numbers a user of the system would see, for one measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// `net.data_delivered / (rounds·τ)`.
    pub delivered_pps: f64,
    /// Process CPU across the deployment ÷ delivered. Idle polling is
    /// included by intent: it is what an operator pays per validated
    /// packet.
    pub cpu_us_per_pkt: f64,
    /// Source-send → sink-receive latency.
    pub latency: Latency,
    /// `(control_bytes_sent + retransmit_bytes) / delivered`.
    pub ctl_bytes_per_pkt: f64,
    /// `VmHWM` after the deployment.
    pub peak_rss_mb: f64,
    /// Wall time of the measured deployment beyond its schedule.
    pub run_overhead_s: f64,
    /// delivered ÷ nominal on paced workloads.
    pub rate_attained: Option<f64>,
    /// Suspicions raised.
    pub suspicions: u64,
    /// Full summaries pulled after a digest failed to reconcile.
    pub digest_fallbacks: u64,
    /// Link-state updates applied, over all routers.
    pub ls_updates_applied: u64,
}

impl EndToEnd {
    /// Derives the end-to-end figures of one deployment of `w`.
    pub fn of(w: &Workload, d: &Deployed) -> Result<Self, String> {
        let delivered = d.outcome.stats.data_delivered;
        if delivered == 0 {
            return Err("no packet was delivered".into());
        }
        let per_pkt = |x: f64| x / delivered as f64;
        let latency =
            Latency::of(&d.record.latencies_us()).ok_or("no sampled packet reached its sink")?;
        let delivered_pps = delivered as f64 / w.measured_seconds();
        Ok(Self {
            delivered_pps,
            cpu_us_per_pkt: per_pkt(d.cpu_s * 1e6),
            latency,
            // `stats.control_bytes_sent` already folds retransmits in.
            ctl_bytes_per_pkt: per_pkt(d.outcome.stats.control_bytes_sent as f64),
            peak_rss_mb: d.peak_rss_mib,
            run_overhead_s: setup_seconds(d.wall, Workload::schedule(&w.cfg)),
            rate_attained: w.nominal_pps.map(|n| delivered_pps / n),
            suspicions: d.outcome.suspicions.len() as u64,
            digest_fallbacks: d.outcome.stats.digest_fallbacks,
            ls_updates_applied: d.outcome.metrics.counter("net.ls_updates_applied"),
        })
    }

    /// The gated metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self, setup_s: f64) -> Vec<Metric> {
        vec![
            Metric::new("delivered_pps", self.delivered_pps, "1/s"),
            Metric::new("cpu_us_per_pkt", self.cpu_us_per_pkt, "us"),
            Metric::new("fwd_latency_us_p50", self.latency.p50, "us"),
            Metric::new("ctl_bytes_per_pkt", self.ctl_bytes_per_pkt, "B"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MiB"),
            Metric::new("setup_s", setup_s, "s"),
        ]
    }

    /// Printed beside the gated metrics but not gated: tail latencies
    /// spread 5–40 % between identical runs, and the two attack latencies
    /// exist on one workload only.
    pub fn diagnostics(&self, v: &Verdict) -> Vec<Metric> {
        let mut out = vec![
            Metric::new("fwd_latency_us_p90", self.latency.p90, "us"),
            Metric::new("fwd_latency_us_p99", self.latency.p99, "us"),
            Metric::new(
                "fwd_latency_highest_supported_pct",
                self.latency.highest_supported.map_or(50.0, |q| q * 100.0),
                "%",
            ),
            Metric::new("fwd_latency_samples", self.latency.samples as f64, "count"),
            Metric::new("run_overhead_s", self.run_overhead_s, "s"),
            Metric::new("suspicions_raised", self.suspicions as f64, "count"),
            Metric::new("digest_fallbacks", self.digest_fallbacks as f64, "count"),
            Metric::new(
                "ls_updates_applied",
                self.ls_updates_applied as f64,
                "count",
            ),
        ];
        if let Some(r) = self.rate_attained {
            out.push(Metric::new("flow_rate_attained", r, "ratio"));
        }
        if let Some(ms) = v.detect_latency_ms {
            out.push(Metric::new("detect_latency_ms", ms, "ms"));
        }
        if let Some(ms) = v.reroute_latency_ms {
            out.push(Metric::new("reroute_latency_ms", ms, "ms"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_reports_the_percentile_the_sample_supports() {
        let us: Vec<f64> = (1..=2_000).map(f64::from).collect();
        let l = Latency::of(&us).unwrap();
        assert_eq!((l.p50, l.p90, l.p99), (1_000.0, 1_800.0, 1_980.0));
        assert_eq!(l.highest_supported, Some(0.99));
        assert_eq!(l.samples, 2_000);
        assert_eq!(Latency::of(&[]), None);
        assert_eq!(Latency::of(&[5.0]).unwrap().highest_supported, None);
    }
}
