//! The metric catalogue: what `BENCHMARK.json` declares, as constants the
//! runner checks its own output against. A test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A gated end-to-end metric: (name, unit, direction, regression bound as
/// a share of the parent's median).
pub type EndToEndSpec = (&'static str, &'static str, Better, f64);

/// The end-to-end metrics every workload reports with `--trace 0`.
///
/// One bound per metric has to cover all four workloads, and `sat-line6` —
/// one busy thread, so it tracks the host's speed — spreads 6–14 % between
/// identical runs on every metric that is per packet or per second (README,
/// finding 6). Hence the contract's ceiling of 25 % throughout; the paced
/// workloads alone would hold 10 %.
pub const END_TO_END: [EndToEndSpec; 6] = [
    ("delivered_pps", "1/s", Better::Higher, 0.25),
    ("cpu_us_per_pkt", "us", Better::Lower, 0.25),
    ("fwd_latency_us_p50", "us", Better::Lower, 0.25),
    ("ctl_bytes_per_pkt", "B", Better::Lower, 0.25),
    ("peak_rss_mb", "MiB", Better::Lower, 0.25),
    ("setup_s", "s", Better::Lower, 0.25),
];

/// The per-layer metrics every workload reports with `--trace 1`:
/// (name, unit, direction).
pub const PER_LAYER: [(&str, &str, Better); 55] = [
    ("transport.send_ns_mean", "ns", Better::Lower),
    ("transport.send_calls_per_pkt", "count", Better::Lower),
    ("transport.try_recv_ns_mean", "ns", Better::Lower),
    ("transport.try_recv_calls_per_pkt", "count", Better::Lower),
    ("transport.empty_poll_ratio", "ratio", Better::Lower),
    ("transport.busy_share", "ratio", Better::Lower),
    ("transport.wire_bytes_per_pkt", "B", Better::Lower),
    ("codec.encode_data_ns", "ns", Better::Lower),
    ("codec.decode_data_ns", "ns", Better::Lower),
    ("codec.encode_summary_us", "us", Better::Lower),
    ("codec.decode_summary_us", "us", Better::Lower),
    ("codec.decode_digest_us", "us", Better::Lower),
    ("crypto.seal_us", "us", Better::Lower),
    ("crypto.open_us", "us", Better::Lower),
    ("crypto.hmac_mb_per_s", "MB/s", Better::Higher),
    ("crypto.uhash_ns_per_pkt", "ns", Better::Lower),
    ("monitor.observe_ns_per_tap", "ns", Better::Lower),
    ("monitor.report_clone_us_first", "us", Better::Lower),
    ("monitor.report_clone_us_last", "us", Better::Lower),
    ("validation.summary_entries_first", "count", Better::Lower),
    ("validation.summary_entries_last", "count", Better::Lower),
    ("validation.to_content_us_first", "us", Better::Lower),
    ("validation.to_content_us", "us", Better::Lower),
    ("validation.digest_of_us_first", "us", Better::Lower),
    ("validation.digest_of_us", "us", Better::Lower),
    ("validation.diff_via_digest_us_first", "us", Better::Lower),
    ("validation.diff_via_digest_us", "us", Better::Lower),
    ("validation.tv_content_us_first", "us", Better::Lower),
    ("validation.tv_content_us", "us", Better::Lower),
    ("runtime.frames_per_pkt", "count", Better::Lower),
    ("runtime.round_eval_ms_p50", "ms", Better::Lower),
    ("runtime.round_eval_ms_p90", "ms", Better::Lower),
    ("runtime.delivered_last_over_first", "ratio", Better::Higher),
    ("runtime.flow_rate_attained", "ratio", Better::Higher),
    ("runtime.digests_resolved", "count", Better::Higher),
    ("runtime.digest_fallbacks", "count", Better::Lower),
    ("runtime.untapped_drained", "count", Better::Lower),
    ("runtime.transition_forward_miss", "count", Better::Lower),
    ("runtime.run_overhead_s", "s", Better::Lower),
    ("runtime.fwd_latency_us_p90", "us", Better::Lower),
    ("runtime.fwd_latency_us_p99", "us", Better::Lower),
    ("runtime.detect_latency_ms", "ms", Better::Lower),
    ("runtime.reroute_latency_ms", "ms", Better::Lower),
    ("reliable.retransmits", "count", Better::Lower),
    ("reliable.retransmit_byte_share", "ratio", Better::Lower),
    ("timer.pop_due_ns", "ns", Better::Lower),
    ("timer.schedule_ns", "ns", Better::Lower),
    ("topology.reroute_us", "us", Better::Lower),
    ("topology.routes_build_ms", "ms", Better::Lower),
    ("linkstate.sign_verify_us", "us", Better::Lower),
    ("linkstate.updates_applied", "count", Better::Lower),
    ("obs.trace_record_ns", "ns", Better::Lower),
    ("obs.snapshot_us", "us", Better::Lower),
    ("trace.stage_sum_share", "ratio", Better::Higher),
    ("trace.overhead_pct", "%", Better::Lower),
];

/// Checks that a run's metrics are exactly the catalogue's, in order.
pub fn check(metrics: &[crate::report::Metric], traced: bool) -> Result<(), String> {
    let declared: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    let printed: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    if printed == declared {
        Ok(())
    } else {
        Err(format!(
            "metrics printed differ from the catalogue:\n printed  {printed:?}\n declared {declared:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_obs::JsonValue;

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn strings(doc: &JsonValue, list: &str, keys: &[&str]) -> Vec<Vec<String>> {
        doc.get(list)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("{list} is a list"))
            .iter()
            .map(|entry| {
                keys.iter()
                    .map(|k| match entry.get(k) {
                        Some(JsonValue::Str(s)) => s.clone(),
                        Some(other) => other.as_f64().expect("string or number").to_string(),
                        None => panic!("{list} entry lacks {k}"),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        let doc = benchmark_json();
        let e2e: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|(n, u, b, bound)| {
                vec![
                    n.to_string(),
                    u.to_string(),
                    b.word().into(),
                    bound.to_string(),
                ]
            })
            .collect();
        assert_eq!(
            strings(&doc, "end_to_end", &["name", "unit", "better", "bound"]),
            e2e
        );
        let layers: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|(n, u, b)| vec![n.to_string(), u.to_string(), b.word().into()])
            .collect();
        assert_eq!(
            strings(&doc, "per_layer", &["name", "unit", "better"]),
            layers
        );
        let names: Vec<Vec<String>> = crate::workload::NAMES
            .iter()
            .map(|n| vec![n.to_string()])
            .collect();
        assert_eq!(strings(&doc, "workloads", &["name"]), names);
        let paths = doc.get("paths").and_then(JsonValue::as_array);
        assert_eq!(paths.map(<[JsonValue]>::len), Some(1), "one directory");
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| (m.0, m.1, m.2) == ("setup_s", "s", Better::Lower)));
    }
}
