//! The arithmetic every later performance claim rests on: percentile
//! selection, `/proc` parsing, set-up subtraction and per-round deltas.
//! Kept free of I/O (except the two `/proc/self` readers at the bottom) so
//! each rule is unit-tested on literal inputs.

use fatih_obs::MetricsSnapshot;
use std::time::Duration;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. Linux fixes
/// `USER_HZ` at 100 on every architecture it exports this file on; without
/// libc there is no `sysconf` to ask.
pub const USER_HZ: f64 = 100.0;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q·n` samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median by the same nearest-rank rule (the lower middle of an even
/// sample, never an interpolated value that no run produced).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The sample-count rule: the highest of p90 / p99 / p99.9 that still has
/// at least ten samples beyond it. Below 100 samples even p90 is noise and
/// only the median is reported.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // In whole per-mille, so that 100 samples × 10 % is exactly ten.
    [(0.999, 1), (0.99, 10), (0.9, 100)]
        .into_iter()
        .find(|(_, beyond_per_mille)| samples * beyond_per_mille >= 10_000)
        .map(|(q, _)| q)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so `--noise` reports the same spread the
/// driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 on a 1-based axis; the index is clamped into
        // the sample but the weight is not, so tiny samples extrapolate
        // exactly as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(2), at(3)))
}

/// Inter-quartile distance as a share of the median: the driver's spread.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// Set-up time of one deployment: its wall time minus the schedule it was
/// asked to run (rounds, final exchange budget, drain). Whatever the
/// program does outside the rounds — input generation, socket bind, key,
/// route and monitor build, thread spawn and join, trace merge — is what
/// remains. Never negative: a deployment cannot finish early.
pub fn setup_seconds(wall: Duration, schedule: Duration) -> f64 {
    wall.saturating_sub(schedule).as_secs_f64()
}

/// Per-round increments of counter `name` out of the cumulative
/// `round_metrics` snapshots: element 0 is the first snapshot itself.
pub fn round_deltas(round_metrics: &[MetricsSnapshot], name: &str) -> Vec<u64> {
    let mut prev = 0;
    round_metrics
        .iter()
        .map(|snap| {
            let now = snap.counter(name);
            let delta = now.saturating_sub(prev);
            prev = now;
            delta
        })
        .collect()
}

/// Delivery rate of the last round over that of the first, 1.0 meaning a
/// stationary runtime. Snapshots are taken `slack` (budget + 50 ms) after
/// each boundary and injection stops at the last boundary, so delta 0
/// covers `tau + slack`, the final delta `tau − slack` and only interior
/// deltas exactly `tau`. With four or more rounds the first and last
/// *interior* rounds (deltas 1 and n−2) are compared as they are; with
/// fewer (`sat-line6` has three) the end rounds are compared as rates over
/// the time each really covers. `None` with one round or an empty first.
pub fn last_over_first(deltas: &[u64], tau: Duration, slack: Duration) -> Option<f64> {
    let n = deltas.len();
    let (first, last) = match n {
        0 | 1 => return None,
        2 | 3 => (
            deltas[0] as f64 / (tau + slack).as_secs_f64(),
            deltas[n - 1] as f64 / tau.saturating_sub(slack).as_secs_f64(),
        ),
        _ => (deltas[1] as f64, deltas[n - 2] as f64),
    };
    (first > 0.0 && last.is_finite()).then(|| last / first)
}

/// CPU seconds (user + system, all threads, dead ones included) this
/// process has consumed so far.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat") as f64 / USER_HZ
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_obs::MetricsRegistry;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn median_sorts_and_never_interpolates() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&v), Some(1.0));
    }

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let plain = "4242 (fatihbench) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                     117 33 0 0 20 0 3 0 1234 99 88";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(150));
        let hostile = "7 (a b) c) R 1 7 7 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 1 1";
        assert_eq!(parse_stat_cpu_ticks(hostile), Some(11));
        assert_eq!(parse_stat_cpu_ticks("7 (short) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status = "Name:\tfatihbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20_480));
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t12 kB\n"), None);
    }

    #[test]
    fn proc_self_is_readable_here() {
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn setup_subtracts_the_schedule_and_saturates() {
        let s = setup_seconds(Duration::from_millis(12_850), Duration::from_millis(12_600));
        assert!((s - 0.25).abs() < 1e-9);
        assert_eq!(
            setup_seconds(Duration::from_millis(10), Duration::from_millis(20)),
            0.0
        );
    }

    fn snapshots(cumulative: &[u64]) -> Vec<MetricsSnapshot> {
        let reg = MetricsRegistry::new();
        let c = reg.counter("net.data_delivered");
        let mut prev = 0;
        cumulative
            .iter()
            .map(|&v| {
                c.add(v - prev);
                prev = v;
                reg.snapshot()
            })
            .collect()
    }

    #[test]
    fn round_deltas_difference_neighbouring_snapshots() {
        let snaps = snapshots(&[130, 230, 320, 400, 440]);
        let deltas = round_deltas(&snaps, "net.data_delivered");
        assert_eq!(deltas, vec![130, 100, 90, 80, 40]);
        assert_eq!(round_deltas(&snaps, "net.absent"), vec![0; 5]);
        // Interior rounds only: 80 / 100, not 40 / 130.
        let (tau, slack) = (Duration::from_secs(1), Duration::from_millis(350));
        assert_eq!(last_over_first(&deltas, tau, slack), Some(0.8));
        assert_eq!(last_over_first(&[5, 0, 3, 2], tau, slack), None);
        // Three rounds have one interior round: compare the ends as rates,
        // 1350 in 1.35 s against 585 in 0.65 s.
        let r = last_over_first(&[1_350, 1_000, 585], tau, slack).unwrap();
        assert!((r - 0.9).abs() < 1e-9, "{r}");
        assert_eq!(last_over_first(&[5], tau, slack), None);
    }
}
