//! The metrics registry: named atomic counters, gauges and log-bucketed
//! histograms, snapshot on demand.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap clones of an
//! `Arc`'d atomic cell: registration takes a short-lived lock once, but
//! every increment/record afterwards is a single relaxed atomic operation,
//! so instrumented hot paths (per-packet taps, per-frame sends) pay
//! nanoseconds. A handle that was never registered still works — it just
//! counts into a private cell — which lets library types default their
//! instrumentation and have a runtime swap registered handles in.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing atomic counter.
///
/// ```
/// use fatih_obs::Counter;
/// let c = Counter::default();
/// let c2 = c.clone(); // same cell
/// c.inc();
/// c2.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge holding an `f64` (stored as its bit pattern in
/// an atomic word, so readers never see a torn value).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger: a high-water mark that
    /// many writers can share.
    #[inline]
    pub fn set_max(&self, v: f64) {
        // `fetch_update` retries only when another writer got in between.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (v > f64::from_bits(cur)).then(|| v.to_bits())
            });
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Buckets: values 0..16 exact, then 16 log-linear sub-buckets per power
/// of two. Relative quantile error is bounded by 1/16 ≈ 6.25%.
const SUB_BUCKETS: usize = 16;
const SUB_SHIFT: u32 = 4;
const BUCKETS: usize = SUB_BUCKETS + (64 - SUB_SHIFT as usize) * SUB_BUCKETS;

/// Bucket index of a value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_SHIFT)) & (SUB_BUCKETS as u64 - 1)) as usize;
    SUB_BUCKETS + (msb - SUB_SHIFT) as usize * SUB_BUCKETS + sub
}

/// Smallest value that lands in bucket `i` (inverse of [`bucket_of`]).
fn bucket_floor(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let rest = i - SUB_BUCKETS;
    let msb = rest / SUB_BUCKETS + SUB_SHIFT as usize;
    let sub = (rest % SUB_BUCKETS) as u64;
    (1u64 << msb) + (sub << (msb - SUB_SHIFT as usize))
}

#[derive(Debug)]
struct HistCell {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCell {
    fn default() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A lock-free log-linear histogram of `u64` samples (latencies in
/// nanoseconds, sizes in bytes).
///
/// Samples land in one of ~1000 fixed buckets (16 linear sub-buckets per
/// power of two), so quantiles read back within ≈6% of the true value
/// while `record` stays a couple of relaxed atomic operations.
///
/// ```
/// use fatih_obs::Histogram;
/// let h = Histogram::default();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let s = h.snapshot();
/// assert_eq!((s.count, s.min, s.max), (1000, 1, 1000));
/// assert!(s.p50 >= 450 && s.p50 <= 550, "p50 was {}", s.p50);
/// assert!(s.p99 >= 930, "p99 was {}", s.p99);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistCell>);

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &*self.0;
        c.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// An immutable summary of everything recorded so far.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &*self.0;
        let buckets: Vec<u64> = c
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((count as f64) * q).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= target {
                    return bucket_floor(i);
                }
            }
            bucket_floor(BUCKETS - 1)
        };
        let min = c.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: c.max.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Wrapping sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median (bucket-resolution, ≈6% relative error).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of metrics, shared by cloning.
///
/// One registry spans a whole deployment: every shard, node, monitor and
/// transport registers its handles here, and [`snapshot`] reads them all
/// coherently enough for accounting (each cell is read atomically; the
/// set is not read in one global instant — fine for counters that only
/// grow).
///
/// [`snapshot`]: MetricsRegistry::snapshot
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use. Subsequent calls
    /// (from any clone of the registry) return a handle to the same cell.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Reads every registered metric into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// An immutable point-in-time view of a [`MetricsRegistry`].
///
/// ```
/// use fatih_obs::MetricsRegistry;
/// let reg = MetricsRegistry::new();
/// reg.counter("a.hits").add(7);
/// reg.gauge("a.rate").set(1.5);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("a.hits"), 7);
/// assert_eq!(snap.counter("a.misses"), 0); // absent reads as zero
/// let json = snap.to_json();
/// let parsed = fatih_obs::JsonValue::parse(&json).unwrap();
/// assert_eq!(parsed.pointer(&["counters", "a.hits"]).unwrap().as_u64(), Some(7));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value (0 if it was never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (0.0 if it was never registered).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// A histogram's summary, if it was registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Counter-wise difference `self − earlier` (saturating at zero), for
    /// per-round deltas out of cumulative counters. Gauges and histograms
    /// are carried from `self` unchanged.
    pub fn counter_delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// Serializes the snapshot as a JSON object with `counters`, `gauges`
    /// and `histograms` members.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            crate::json::write_string(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            crate::json::write_string(&mut out, k);
            out.push_str(&format!(": {}", crate::json::fmt_f64(*v)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            crate::json::write_string(&mut out, k);
            out.push_str(&format!(
                ": {{ \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {} }}",
                h.count,
                h.sum,
                h.min,
                h.max,
                crate::json::fmt_f64(h.mean()),
                h.p50,
                h.p90,
                h.p99
            ));
        }
        out.push_str("\n  }\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trips_its_floor() {
        for i in 0..BUCKETS {
            let f = bucket_floor(i);
            assert_eq!(bucket_of(f), i, "floor of bucket {i} maps back");
        }
    }

    #[test]
    fn bucket_bounds_relative_error() {
        for &v in &[1u64, 15, 16, 17, 100, 999, 1_000_000, u64::MAX / 3] {
            let f = bucket_floor(bucket_of(v));
            assert!(f <= v, "floor {f} above value {v}");
            assert!(
                (v - f) as f64 <= v as f64 / 16.0 + 1.0,
                "bucket floor {f} more than 1/16 below {v}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_on_uniform_data() {
        let h = Histogram::default();
        for v in 0..10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 9_999);
        let rel = |got: u64, want: u64| (got as f64 - want as f64).abs() / want as f64;
        assert!(rel(s.p50, 5_000) < 0.07, "p50 {}", s.p50);
        assert!(rel(s.p90, 9_000) < 0.07, "p90 {}", s.p90);
        assert!(rel(s.p99, 9_900) < 0.07, "p99 {}", s.p99);
    }

    #[test]
    fn registry_shares_cells_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.clone().counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counter("x"), 3);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let h = Histogram::default();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn gauge_set_max_keeps_the_high_water_mark() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("peak");
        g.set_max(3.0);
        reg.gauge("peak").set_max(7.5);
        g.set_max(5.0);
        assert_eq!(reg.snapshot().gauge("peak"), 7.5);
    }

    #[test]
    fn counter_delta_subtracts_saturating() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        c.add(5);
        let early = reg.snapshot();
        c.add(3);
        let late = reg.snapshot();
        assert_eq!(late.counter_delta(&early).counter("n"), 3);
        assert_eq!(early.counter_delta(&late).counter("n"), 0);
    }

    #[test]
    fn snapshot_json_parses_back() {
        let reg = MetricsRegistry::new();
        reg.counter("c\"quoted\"").add(1);
        reg.gauge("g").set(-2.25);
        reg.histogram("h").record(42);
        let json = reg.snapshot().to_json();
        let v = crate::json::JsonValue::parse(&json).expect("valid json");
        assert_eq!(
            v.pointer(&["counters", "c\"quoted\""]).unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(v.pointer(&["gauges", "g"]).unwrap().as_f64(), Some(-2.25));
        assert_eq!(
            v.pointer(&["histograms", "h", "count"]).unwrap().as_u64(),
            Some(1)
        );
    }
}
