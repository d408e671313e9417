//! Figure 5.7: "Fatih in progress" — the system timeline on the Abilene
//! topology. Routing converges, steady coast-to-coast traffic flows with
//! a ~50 ms New York ↔ Sunnyvale RTT, the Kansas City router is
//! compromised at t ≈ 117 s (dropping 20% of transit traffic), Fatih's
//! validators detect within one τ = 5 s round, and after the OSPF delay +
//! hold the new routing table sends traffic via Los Angeles/Houston/
//! Atlanta — RTT rises to ~56 ms and Kansas City carries no more transit
//! traffic.
//!
//! Run with `cargo run --release -p fatih-bench --bin fig5_7`.

use fatih_bench::{render_table, write_csv};
use fatih_core::fatih_system::{FatihConfig, FatihEvent, FatihSystem};
use fatih_crypto::KeyStore;
use fatih_sim::{Attack, AttackKind, Network, SimTime, VictimFilter};
use fatih_topology::builtin;

const CONVERGED_AT: u64 = 55; // OSPF convergence period modeled as idle
const ATTACK_AT: u64 = 117;
const END_AT: u64 = 200;

fn main() {
    let topo = builtin::abilene();
    let mut ks = KeyStore::with_seed(1);
    for r in topo.routers() {
        ks.register(r.into());
    }
    let sun = topo.router_by_name("Sunnyvale").unwrap();
    let ny = topo.router_by_name("NewYork").unwrap();
    let kc = topo.router_by_name("KansasCity").unwrap();

    let mut net = Network::new(topo, 7);
    // "After roughly 55 seconds all routers have agreed on a common
    // topology" — we model the convergence window by starting traffic then.
    let t0 = SimTime::from_secs(CONVERGED_AT);
    net.add_cbr_flow(sun, ny, 1000, SimTime::from_ms(5), t0, None);
    net.add_cbr_flow(ny, sun, 1000, SimTime::from_ms(7), t0, None);
    for (a, b) in [("Seattle", "Atlanta"), ("Denver", "WashingtonDC")] {
        let a = net.topology().router_by_name(a).unwrap();
        let b = net.topology().router_by_name(b).unwrap();
        net.add_cbr_flow(a, b, 800, SimTime::from_ms(9), t0, None);
    }
    let ping = net.add_ping_probe(ny, sun, 100, SimTime::from_ms(500), t0, None);

    // Let the network settle, then hand control to Fatih.
    net.run_until(t0, |_| {});
    let mut system = FatihSystem::new(&net, ks, FatihConfig::default());

    // Clean period until the attack.
    system.run(&mut net, SimTime::from_secs(ATTACK_AT));
    let clean_events = system.timeline().len();

    // Compromise Kansas City: 20% transit drop (§5.3.2).
    net.set_attacks(
        kc,
        vec![Attack {
            victims: VictimFilter::all(),
            kind: AttackKind::Drop { fraction: 0.2 },
        }],
    );
    println!("t={ATTACK_AT:>3}s  ATTACK: KansasCity compromised (drops 20% of transit)");
    system.run(&mut net, SimTime::from_secs(END_AT));

    // Timeline.
    println!("\n== Fatih timeline (Figure 5.7) ==");
    assert_eq!(clean_events, 0, "false detections before the attack");
    for ev in system.timeline() {
        match ev {
            FatihEvent::Detection { at, suspicion } => {
                println!("t={:>7.1}s  detection: {}", at.as_secs_f64(), suspicion);
            }
            FatihEvent::RouteUpdate { at, excluded } => {
                println!(
                    "t={:>7.1}s  new routing table installed ({excluded} path segments excluded)",
                    at.as_secs_f64()
                );
            }
        }
    }

    // RTT series (the right axis of Figure 5.7).
    let rtts = net.ping_rtts(ping);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut last_bucket = 0u64;
    for (sent, rtt) in rtts {
        csv.push(vec![
            format!("{:.3}", sent.as_secs_f64()),
            format!("{:.3}", rtt.as_secs_f64() * 1000.0),
        ]);
        let bucket = sent.as_ns() / 10_000_000_000; // 10 s buckets
        if bucket != last_bucket || rows.is_empty() {
            rows.push(vec![
                format!("{:.0}", sent.as_secs_f64()),
                format!("{:.1}", rtt.as_secs_f64() * 1000.0),
            ]);
            last_bucket = bucket;
        }
    }
    println!("\nNY ↔ Sunnyvale RTT (sampled every ~10 s):");
    println!("{}", render_table(&["t (s)", "RTT (ms)"], &rows));
    write_csv("fig5_7_rtt", &["t_s", "rtt_ms"], &csv);

    // Verify the headline numbers.
    let before: Vec<f64> = rtts
        .iter()
        .filter(|(s, _)| s.as_secs_f64() < ATTACK_AT as f64)
        .map(|(_, r)| r.as_secs_f64() * 1000.0)
        .collect();
    let after: Vec<f64> = rtts
        .iter()
        .filter(|(s, _)| s.as_secs_f64() > 150.0)
        .map(|(_, r)| r.as_secs_f64() * 1000.0)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\nmean RTT before attack: {:.1} ms (paper: ~50 ms)\n\
         mean RTT after reroute: {:.1} ms (paper: ~56 ms)",
        mean(&before),
        mean(&after)
    );
    // §2.4.3: only path segments with *observed* faulty behaviour are
    // excluded, so a uniformly malicious router is isolated progressively —
    // traffic diverted onto its other interfaces is attacked there, gets
    // detected, and those segments are excluded in following rounds. Let
    // the control loop run on until that converges.
    system.run(&mut net, SimTime::from_secs(END_AT + 80));
    let mut via_kc = 0u64;
    net.run_until(net.now() + SimTime::from_secs(5), |ev| {
        if let fatih_sim::TapEvent::Arrived { router, .. } = ev {
            if *router == kc {
                via_kc += 1;
            }
        }
    });
    println!(
        "transit packets through KansasCity once isolation converges: {via_kc} \
         (paper: completely isolated; {} segments excluded)",
        system.excluded_segments().len()
    );
}
