//! Observability invariants of the live runtime.
//!
//! An Abilene deployment with a mid-path dropper must leave a trace
//! journal that is *consistent with* the metrics registry — the per-kind
//! `recorded` totals (which survive ring overwrite) must equal the
//! corresponding counters — over real sockets and, under control-plane
//! loss and duplication, on the simulator's clock. Over sockets the
//! journal's two export formats must hold up too: JSONL round-trips to an
//! identical journal, and the chrome://tracing export parses as a JSON
//! array with one entry per event.

use fatih::net::runtime::{DropperSpec, FlowSpec, LiveConfig, LiveDeployment, LiveSpec};
use fatih::net::{SimHost, UdpNet};
use fatih::obs::{JsonValue, MetricsSnapshot, TraceJournal, TraceKind};
use fatih::sim::{Attack, FaultPlan, LinkFaults, Network, SimTime};
use fatih::topology::{builtin, RouterId, Topology};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The counters that the code recording a trace kind increments with it.
const PAIRS: [(&str, TraceKind); 5] = [
    ("net.accusations_raised", TraceKind::AccusationRaised),
    ("net.alerts_sent", TraceKind::AlertSent),
    ("net.summary_timeouts", TraceKind::SummaryTimeout),
    ("net.digests_resolved", TraceKind::DigestResolved),
    ("net.digest_fallbacks", TraceKind::DigestFallback),
];

/// Asserts that the journal records what the registry counts.
fn assert_parity(metrics: &MetricsSnapshot, trace: &TraceJournal) {
    assert!(
        trace.recorded(TraceKind::AccusationRaised) > 0,
        "dropper raised no accusations"
    );
    for (counter, kind) in PAIRS {
        assert_eq!(
            metrics.counter(counter),
            trace.recorded(kind),
            "counter {counter} disagrees with trace kind {kind:?}"
        );
    }
}

/// A long routed Abilene flow, (source, destination), and the router in
/// the middle of its path, so that a dropper there is accused.
fn flow_and_dropper(topo: &Topology) -> (RouterId, RouterId, RouterId) {
    let routes = topo.link_state_routes();
    let (src, dst) = routes
        .all_paths()
        .filter(|p| p.routers().len() >= 4)
        .map(|p| (p.routers()[0], *p.routers().last().unwrap()))
        .next()
        .expect("abilene has a 4-router path");
    let path = routes.path(src, dst).unwrap();
    (src, dst, path.routers()[path.len() / 2])
}

/// Two rounds of 200 ms, judged 120 ms after they end. Steady-state: no
/// conviction-driven rerouting, so the counter/trace parity covers the
/// full accusation flow.
fn two_rounds() -> LiveConfig {
    LiveConfig {
        tau: Duration::from_millis(200),
        exchange_budget: Duration::from_millis(120),
        maturity_lag: Duration::from_millis(50),
        rounds: 2,
        response: false,
        ..LiveConfig::default()
    }
}

/// One Abilene run over UDP shared by every assertion below, and its wall
/// time.
fn udp_run() -> (fatih::net::runtime::LiveOutcome, Duration) {
    let topo = builtin::abilene();
    let ids: Vec<RouterId> = topo.routers().collect();
    let (src, dst, dropper) = flow_and_dropper(&topo);
    let spec = LiveSpec {
        flows: vec![FlowSpec::new(src, dst, 1000, Duration::from_millis(2))],
        droppers: vec![DropperSpec {
            router: dropper,
            rate: 0.3,
            seed: 42,
            active_from: 0,
        }],
        ..LiveSpec::default()
    };
    let transports = UdpNet::bind_group(&ids).expect("bind loopback sockets");
    let start = Instant::now();
    let outcome = LiveDeployment::run(&topo, &spec, &two_rounds(), transports);
    (outcome, start.elapsed())
}

#[test]
fn trace_journal_agrees_with_metrics_and_exports_round_trip() {
    let (outcome, wall) = udp_run();

    // The run must have done real work and traced it.
    assert!(outcome.stats.data_delivered > 0, "no traffic delivered");
    assert!(!outcome.trace.is_empty(), "trace journal is empty");
    assert!(
        outcome.trace.recorded(TraceKind::PacketTap) > 0,
        "no packet taps traced"
    );
    // Per-kind recorded totals survive ring overwrite, so they must equal
    // the registry counters the same code paths incremented.
    assert_parity(&outcome.metrics, &outcome.trace);

    // Every receive poll that did not come back empty handed the runtime
    // exactly one frame (no router is ever down in this run), and a
    // worker makes a pass after every wait but its last, the one its stop
    // timer ends.
    let polls = outcome.metrics.counter("net.recv_polls");
    let empty = outcome.metrics.counter("net.recv_polls_empty");
    assert!(empty > 0 && empty < polls, "{empty} of {polls} polls empty");
    assert_eq!(
        polls - empty,
        outcome.metrics.counter("net.frames_received"),
        "non-empty receive polls disagree with frames received"
    );
    let shards = (outcome.trace.events().iter())
        .map(|e| e.shard)
        .collect::<BTreeSet<_>>()
        .len() as u64;
    let waits = outcome.metrics.counter("net.shard_waits");
    let passes = outcome.metrics.counter("net.shard_passes");
    assert!(
        waits <= passes + shards,
        "{waits} waits, {passes} passes on {shards} shards"
    );
    // A wait that slept is a wait that meant to; and the workers, at most
    // one per core, were busy no longer than they ran.
    let sleeps = outcome.metrics.counter("net.shard_sleeps");
    assert!(sleeps > 0 && sleeps <= outcome.metrics.counter("net.shard_waits"));
    let busy_ns = outcome.metrics.counter("net.shard_busy_ns");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u128;
    assert!(busy_ns > 0 && u128::from(busy_ns) <= cores * wall.as_nanos());

    // The records are sliding windows: what was recorded and not pruned
    // since is exactly what the routers still held when they finished,
    // and no router ever held more than a window's worth after a prune
    // (500 pkts/s over budget + 2·lag, on at most two records).
    let m = &outcome.metrics;
    let pruned = m.counter("monitor.entries_pruned");
    let held = m.counter("monitor.entries_held_at_finish");
    assert!(pruned > 0 && held > 0, "{pruned} pruned, {held} held");
    assert_eq!(m.counter("monitor.records") - pruned, held);
    let held_max = m.gauge("monitor.entries_held_max");
    assert!(held_max > 0.0 && held_max <= 2.0 * 1.5 * 500.0 * 0.22);

    // JSONL export is lossless: parsing it back yields the same events
    // and the same per-kind recorded totals.
    let jsonl = outcome.trace.to_jsonl();
    let back = TraceJournal::from_jsonl(&jsonl).expect("JSONL parses");
    assert_eq!(
        back.events(),
        outcome.trace.events(),
        "JSONL round trip changed the events"
    );
    for &kind in TraceKind::ALL {
        assert_eq!(
            back.recorded(kind),
            outcome.trace.recorded(kind),
            "JSONL round trip changed recorded({kind:?})"
        );
    }

    // The chrome://tracing export is a traceEvents array with one entry
    // per event, each carrying the trace-event-format required fields.
    let chrome = outcome.trace.to_chrome_trace();
    let parsed = JsonValue::parse(&chrome).expect("chrome trace parses");
    let entries = parsed
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("chrome trace has a traceEvents array");
    assert_eq!(entries.len(), outcome.trace.len());
    for e in entries {
        assert!(e.get("ph").and_then(JsonValue::as_str).is_some());
        assert!(e.get("name").and_then(JsonValue::as_str).is_some());
        assert!(e.get("ts").is_some());
        assert!(e.get("pid").and_then(JsonValue::as_u64).is_some());
        assert!(e.get("tid").is_some());
    }

    // Per-round snapshots are cumulative, so counters are monotone across
    // rounds and bounded by the final snapshot.
    let mut prev = 0;
    for snap in &outcome.round_metrics {
        let sent = snap.counter("net.frames_sent");
        assert!(sent >= prev, "per-round frames_sent went backwards");
        prev = sent;
    }
    assert!(outcome.metrics.counter("net.frames_sent") >= prev);
}

/// The same flow and dropper on the simulator's clock, under 5 % control
/// loss and 2 % duplication on every link: the journal still records what
/// the registry counts.
#[test]
fn trace_journal_agrees_with_metrics_under_control_faults() {
    let mut net = Network::new(builtin::abilene(), 9000);
    net.set_fault_plan(Some(FaultPlan::new(9000).with_default_link_faults(
        LinkFaults {
            loss: 0.05,
            duplicate: 0.02,
            ..LinkFaults::NONE
        },
    )));
    let (src, dst, dropper) = flow_and_dropper(net.topology());
    let flow = net.add_cbr_flow(src, dst, 1000, SimTime::from_ms(2), SimTime::ZERO, None);
    net.set_attacks(dropper, vec![Attack::drop_flows([flow], 0.3)]);
    let cfg = two_rounds();
    let until = cfg.tau * 2 + cfg.exchange_budget;
    let mut host = SimHost::new(&net, cfg);
    host.run(&mut net, SimTime::from_ns(until.as_nanos() as u64));

    assert!(net.delivered_on_flow(flow) > 0, "no traffic delivered");
    let trace = host.trace();
    assert!(
        trace.recorded(TraceKind::PacketTap) > 0,
        "no packet taps traced"
    );
    assert_parity(&host.metrics(), &trace);
}
