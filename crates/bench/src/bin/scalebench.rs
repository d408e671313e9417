//! scalebench — Rocketfuel-scale sweep of the sharded live runtime.
//!
//! Deploys the Πk+2 live runtime over real UDP loopback sockets on
//! Rocketfuel-proportioned ISP topologies (the Sprintlink AS1239 shape:
//! ~3.1 duplex links per router, degree capped at 45) and sweeps router
//! count, measuring for each size:
//!
//! * **pkts/sec validated** — data packets delivered through monitored
//!   paths per wall-clock second of the deployment;
//! * **control bytes per data packet** — the control-plane cost of the
//!   summary exchange, in `Full` transfer mode versus `Reconcile`
//!   (digest + certified difference decode) mode.
//!
//! Writes `BENCH_scale.json` to the current directory and fails
//! (exit ≠ 0) unless:
//!
//! 1. the largest deployment completes every detection round with **zero
//!    false accusations** in both modes, and with a mid-path dropper
//!    injected, catches it (completeness) without accusing any
//!    correct-only segment (accuracy);
//! 2. at the largest size, reconciled summary exchange costs **≤ 0.5×**
//!    the control bytes of full exchange (small-difference regime).
//!
//! Run with `cargo run --release -p fatih-bench --bin scalebench`
//! (`-- --smoke` for the reduced CI sweep; the 128-router gate runs in
//! both modes).

use fatih_bench::pick_flows;
use fatih_core::spec::SpecCheck;
use fatih_net::runtime::{
    DropperSpec, LiveConfig, LiveDeployment, LiveOutcome, LiveSpec, SummaryMode,
};
use fatih_net::UdpNet;
use fatih_topology::{builtin, RouterId, Topology};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Sketch capacity of reconciliation mode: spans clean-run differences
/// (boundary crossers + in-flight packets) with generous headroom.
const SKETCH_CAPACITY: usize = 32;

/// Reconciled control bytes must come in at or below this fraction of
/// full-transfer control bytes at the largest sweep size.
const RATIO_LIMIT: f64 = 0.5;

/// Seeds which routers carry the flows.
const FLOW_SEED: u64 = 0x5CA1E;

/// The router count the headline gates are enforced at.
const GATE_ROUTERS: usize = 128;

/// A Sprintlink-proportioned topology with `n` routers.
fn rocketfuel_like(n: usize) -> Topology {
    // 972 links / 315 routers ≈ 3.09 links per router (AS1239 shape).
    let links = (n * 972 / 315).max(n - 1);
    builtin::isp_like("scale", n, links, 45, 0xF00D ^ n as u64)
}

/// One live deployment; returns the outcome and the wall time it took.
fn deploy(topo: &Topology, spec: &LiveSpec, cfg: &LiveConfig) -> (LiveOutcome, f64) {
    let ids: Vec<RouterId> = topo.routers().collect();
    let transports = UdpNet::bind_group(&ids).expect("bind loopback sockets");
    let t0 = Instant::now();
    let outcome = LiveDeployment::run(topo, spec, cfg, transports);
    (outcome, t0.elapsed().as_secs_f64())
}

struct ModeResult {
    pkts_per_sec: f64,
    control_bytes: u64,
    control_bytes_per_pkt: f64,
    data_delivered: u64,
    digests_resolved: u64,
    digest_fallbacks: u64,
    suspicions: usize,
}

fn run_mode(topo: &Topology, spec: &LiveSpec, cfg: &LiveConfig) -> ModeResult {
    let (outcome, secs) = deploy(topo, spec, cfg);
    let s = outcome.stats;
    ModeResult {
        pkts_per_sec: s.data_delivered as f64 / secs,
        control_bytes: s.control_bytes_sent,
        control_bytes_per_pkt: s.control_bytes_sent as f64 / s.data_delivered.max(1) as f64,
        data_delivered: s.data_delivered,
        digests_resolved: s.digests_resolved,
        digest_fallbacks: s.digest_fallbacks,
        suspicions: outcome.suspicions.len(),
    }
}

fn mode_json(m: &ModeResult) -> String {
    format!(
        "{{ \"pkts_per_sec\": {:.0}, \"control_bytes\": {}, \
         \"control_bytes_per_pkt\": {:.1}, \"data_delivered\": {}, \
         \"digests_resolved\": {}, \"digest_fallbacks\": {}, \
         \"suspicions\": {} }}",
        m.pkts_per_sec,
        m.control_bytes,
        m.control_bytes_per_pkt,
        m.data_delivered,
        m.digests_resolved,
        m.digest_fallbacks,
        m.suspicions
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke {
        &[48, GATE_ROUTERS]
    } else {
        &[32, 64, GATE_ROUTERS]
    };
    let rounds = if smoke { 2 } else { 3 };
    let interval = Duration::from_millis(4);

    println!("scalebench ({})", if smoke { "smoke" } else { "full" });

    // Detection-only: the conviction→reroute response loop would reroute
    // around the injected dropper mid-measurement and skew the
    // control-byte comparison; churnbench gates the response path.
    let cfg_full = LiveConfig {
        rounds,
        summary: SummaryMode::Full,
        response: false,
        ..LiveConfig::default()
    };
    let cfg_rec = LiveConfig {
        summary: SummaryMode::Reconcile {
            capacity: SKETCH_CAPACITY,
        },
        ..cfg_full
    };

    let mut sweep_rows = Vec::new();
    let mut gate_ratio = f64::NAN;
    let mut gate_clean = true;
    for &n in sizes {
        let topo = rocketfuel_like(n);
        let flows = pick_flows(&topo, (n / 16).max(4), 5, interval, FLOW_SEED);
        let spec = LiveSpec {
            flows,
            ..LiveSpec::default()
        };

        let full = run_mode(&topo, &spec, &cfg_full);
        let rec = run_mode(&topo, &spec, &cfg_rec);
        let ratio = rec.control_bytes as f64 / full.control_bytes.max(1) as f64;
        println!(
            "  n={n:>4}: full {:>7.0} pkts/s, {:>6.1} ctl B/pkt | reconciled \
             {:>6.1} ctl B/pkt (ratio {ratio:.3}, {} resolved, {} fallbacks)",
            full.pkts_per_sec,
            full.control_bytes_per_pkt,
            rec.control_bytes_per_pkt,
            rec.digests_resolved,
            rec.digest_fallbacks,
        );
        if full.suspicions + rec.suspicions > 0 {
            gate_clean = false;
            println!(
                "  n={n:>4}: FALSE ACCUSATIONS (full {}, reconciled {})",
                full.suspicions, rec.suspicions
            );
        }
        if n == GATE_ROUTERS {
            gate_ratio = ratio;
        }
        sweep_rows.push(format!(
            "    {{ \"routers\": {n}, \"links\": {}, \"flows\": {}, \
             \"interval_ms\": {}, \"full\": {}, \"reconciled\": {}, \
             \"ratio\": {ratio:.4} }}",
            topo.link_count(),
            spec.flows.len(),
            interval.as_millis(),
            mode_json(&full),
            mode_json(&rec),
        ));
    }

    // Adversarial run at the gate size: a mid-path dropper must be caught
    // (completeness) without accusing a correct-only segment (accuracy),
    // with the cumulative loss overflowing the sketch into full-pull
    // fallbacks rather than a wrong verdict.
    let topo = rocketfuel_like(GATE_ROUTERS);
    let flows = pick_flows(&topo, (GATE_ROUTERS / 16).max(4), 5, interval, FLOW_SEED);
    let victim = flows[0];
    let routes = topo.link_state_routes();
    let path = routes.path(victim.src, victim.dst).expect("routed flow");
    let dropper = path.routers()[path.len() / 2];
    let spec = LiveSpec {
        flows,
        droppers: vec![DropperSpec {
            router: dropper,
            rate: 0.3,
            seed: 77,
            active_from: 0,
        }],
        ..LiveSpec::default()
    };
    let (outcome, _) = deploy(&topo, &spec, &cfg_rec);
    assert!(outcome.stats.data_dropped > 0, "the dropper never fired");
    let faulty: BTreeSet<RouterId> = [dropper].into_iter().collect();
    let check = SpecCheck::evaluate(&outcome.suspicions, &faulty);
    let complete = check.is_complete();
    let accurate = check.is_accurate(cfg_rec.k + 2);
    println!(
        "  dropper @ {GATE_ROUTERS} routers: complete={complete} accurate={accurate} \
         ({} resolved, {} fallbacks; {} trace events, {} overwritten)",
        outcome.stats.digests_resolved,
        outcome.stats.digest_fallbacks,
        outcome.trace.len(),
        outcome.trace.dropped(),
    );

    let json = format!(
        "{{\n  \"bench\": \"scalebench\",\n  \"mode\": \"{}\",\n  \
         \"sketch_capacity\": {SKETCH_CAPACITY},\n  \"rounds\": {rounds},\n  \
         \"sweep\": [\n{}\n  ],\n  \
         \"dropper_check\": {{ \"routers\": {GATE_ROUTERS}, \"complete\": {complete}, \
         \"accurate\": {accurate}, \"digest_fallbacks\": {} }},\n  \
         \"trace\": {{ \"events\": {}, \"overwritten\": {} }},\n  \
         \"metrics\": {},\n  \
         \"gates\": {{ \"gate_routers\": {GATE_ROUTERS}, \
         \"zero_false_accusations\": {gate_clean}, \
         \"reconcile_ratio\": {gate_ratio:.4}, \"ratio_limit\": {RATIO_LIMIT} }}\n}}\n",
        if smoke { "smoke" } else { "full" },
        sweep_rows.join(",\n"),
        outcome.stats.digest_fallbacks,
        outcome.trace.len(),
        outcome.trace.dropped(),
        outcome.metrics.to_json(),
    );
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("\nwrote BENCH_scale.json");

    assert!(
        gate_clean,
        "a clean run at some sweep size raised false accusations"
    );
    println!("clean-run gate ({GATE_ROUTERS} routers, zero false accusations): ok");
    assert!(
        complete && accurate,
        "dropper detection at {GATE_ROUTERS} routers failed: complete={complete} \
         accurate={accurate}"
    );
    println!("dropper gate ({GATE_ROUTERS} routers, complete + accurate): ok");
    assert!(
        gate_ratio <= RATIO_LIMIT,
        "reconciled control bytes ratio {gate_ratio:.3} exceeds the {RATIO_LIMIT} limit"
    );
    println!("control-byte gate (reconciled <= {RATIO_LIMIT}x full): ok");
}
