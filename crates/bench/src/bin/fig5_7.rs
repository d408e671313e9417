//! Figure 5.7: "Fatih in progress" — the system timeline on the Abilene
//! topology. Routing converges, steady coast-to-coast traffic flows with
//! a ~50 ms New York ↔ Sunnyvale RTT, the Kansas City router is
//! compromised at t ≈ 117 s (dropping 20% of transit traffic), its
//! neighbours' segment ends convict it at the end of the τ = 5 s round
//! the attack began in, and the exclusion they flood reroutes traffic via
//! Los Angeles/Houston/Atlanta — RTT rises to ~56 ms and Kansas City
//! carries no more transit traffic.
//!
//! The routers are the live runtime's, stepped on the simulator's clock
//! by [`SimHost`]: the loop is the one fatihbench measures. It has no SPF
//! delay or hold timer, so routes move as soon as the exclusion floods.
//!
//! Run with `cargo run --release -p fatih-bench --bin fig5_7`.

use fatih_bench::{render_table, write_csv};
use fatih_core::policy::Thresholds;
use fatih_net::{LiveConfig, LiveEvent, SimHost};
use fatih_sim::{Attack, AttackKind, Network, SimTime, TapEvent, VictimFilter};
use fatih_topology::{builtin, RouterId};
use std::collections::BTreeMap;
use std::time::Duration;

const CONVERGED_AT: u64 = 55; // OSPF convergence period modeled as idle
const ATTACK_AT: u64 = 117;
const END_AT: u64 = 200;

fn main() {
    let topo = builtin::abilene();
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

    // Fatih runs from time zero, so no packet is in flight when it starts
    // watching; 55 s is a whole number of rounds, so rounds still open at
    // 55 + 5k s.
    let cfg = LiveConfig {
        tau: Duration::from_secs(5),
        // The live retransmission policy gives up 675 ms after a first
        // send; Abilene's round trip, under 100 ms, on top of that.
        exchange_budget: Duration::from_secs(1),
        maturity_lag: Duration::from_millis(200),
        thresholds: Thresholds::default(),
        ..LiveConfig::default()
    };
    let mut host = SimHost::new(&net, cfg);

    // Clean period until the attack.
    host.run(&mut net, SimTime::from_secs(ATTACK_AT));
    assert!(
        host.suspicions().is_empty(),
        "false detections before the attack: {:?}",
        host.suspicions()
    );

    // Compromise Kansas City: 20% transit drop (§5.3.2).
    net.set_attacks(
        kc,
        vec![Attack {
            victims: VictimFilter::all(),
            kind: AttackKind::Drop { fraction: 0.2 },
        }],
    );
    println!("t={ATTACK_AT:>3}s  ATTACK: KansasCity compromised (drops 20% of transit)");
    host.run(&mut net, SimTime::from_secs(END_AT));

    // Timeline: every suspicion, and when each flooded update had reached
    // every router.
    println!("\n== Fatih timeline (Figure 5.7) ==");
    let mut lines: Vec<(SimTime, String)> = Vec::new();
    let mut floods: BTreeMap<(RouterId, u64), (SimTime, usize)> = BTreeMap::new();
    for (at, ev) in host.events() {
        match ev {
            LiveEvent::SuspicionRaised { suspicion, .. } => {
                lines.push((*at, format!("suspicion: {suspicion}")));
            }
            LiveEvent::LinkStateApplied {
                origin, update_seq, ..
            } => {
                let (last, applied) = floods.entry((*origin, *update_seq)).or_default();
                (*last, *applied) = (*at, *applied + 1);
            }
            _ => {}
        }
    }
    let routers = net.topology().router_count();
    let mut reroutes = Vec::new();
    for (&(origin, seq), &(at, applied)) in &floods {
        if applied == routers {
            let name = net.topology().name(origin);
            lines.push((
                at,
                format!("routes moved: {name}'s update {seq} applied at every router"),
            ));
            reroutes.push(at);
        }
    }
    lines.sort_by_key(|&(at, _)| at);
    for (at, line) in &lines {
        println!("t={:>7.3}s  {line}", at.as_secs_f64());
    }
    let suspected = |(at, ev): &(SimTime, LiveEvent)| match ev {
        LiveEvent::SuspicionRaised { suspicion, .. } => Some((*at, suspicion.clone())),
        _ => None,
    };
    let (raised, first) = host
        .events()
        .iter()
        .find_map(suspected)
        .expect("attack detected");
    let judged = (
        first.interval.start.as_secs_f64(),
        first.interval.end.as_secs_f64(),
    );
    assert_eq!(judged, (115.0, 120.0), "first suspicion judges {first}");
    assert!(raised <= SimTime::from_secs(121), "raised at {raised:?}");
    let moved = *reroutes
        .iter()
        .filter(|&&at| at >= raised)
        .min()
        .expect("routes moved");
    println!(
        "first suspicion raised at t={:.3}s for round [{:.0} s, {:.0} s); routes moved {:.0} ms later",
        raised.as_secs_f64(),
        judged.0,
        judged.1,
        (moved.as_secs_f64() - raised.as_secs_f64()) * 1e3
    );

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
    // detected, and those segments are excluded in following rounds, until
    // the convicted segments pinpoint it and it loses transit duty. Let the
    // loop run on until that converges.
    host.run(&mut net, SimTime::from_secs(END_AT + 80));
    // No path the traffic uses crosses it now, and it ends no monitored
    // segment: no packet reaches it, data or control.
    let mut at_kc = 0u64;
    net.run_until(net.now() + SimTime::from_secs(5), |ev| {
        if matches!(ev, TapEvent::Arrived { router, .. } if *router == kc) {
            at_kc += 1;
        }
    });
    let excluded = host.excluded_segments();
    println!(
        "packets reaching KansasCity once isolation converges: {at_kc} \
         (paper: completely isolated; {} segments excluded)",
        excluded.len()
    );
    assert_eq!(at_kc, 0, "Kansas City still carries traffic");
    assert!(excluded.iter().all(|seg| seg.contains(kc)), "{excluded:?}");
}
