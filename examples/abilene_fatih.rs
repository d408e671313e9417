//! The Fatih system end to end on the Abilene backbone (§5.3): detection
//! integrated with link-state routing and automatic response. A condensed
//! version of the Figure 5.7 experiment, run by the live routers on the
//! simulator's clock.
//!
//! ```sh
//! cargo run --release --example abilene_fatih
//! ```

use fatih::net::{LiveConfig, LiveEvent, SimHost};
use fatih::protocols::policy::Thresholds;
use fatih::sim::{Attack, AttackKind, Network, SimTime, VictimFilter};
use fatih::topology::builtin;
use std::time::Duration;

fn main() {
    let topo = builtin::abilene();
    let sun = topo.router_by_name("Sunnyvale").unwrap();
    let ny = topo.router_by_name("NewYork").unwrap();
    let kc = topo.router_by_name("KansasCity").unwrap();

    let mut net = Network::new(topo, 9);
    net.add_cbr_flow(sun, ny, 1_000, SimTime::from_ms(5), SimTime::ZERO, None);
    net.add_cbr_flow(ny, sun, 1_000, SimTime::from_ms(7), SimTime::ZERO, None);
    let ping = net.add_ping_probe(ny, sun, 100, SimTime::from_ms(500), SimTime::ZERO, None);

    let cfg = LiveConfig {
        tau: Duration::from_secs(5),
        exchange_budget: Duration::from_secs(4),
        maturity_lag: Duration::from_millis(200),
        thresholds: Thresholds::default(),
        ..LiveConfig::default()
    };
    let mut host = SimHost::new(&net, cfg);

    // 20 clean seconds.
    host.run(&mut net, SimTime::from_secs(20));
    println!("t=20s: {} suspicions (expect 0)", host.suspicions().len());

    // Compromise Kansas City.
    net.set_attacks(
        kc,
        vec![Attack {
            victims: VictimFilter::all(),
            kind: AttackKind::Drop { fraction: 0.2 },
        }],
    );
    println!("t=20s: KansasCity compromised — drops 20% of transit traffic");
    host.run(&mut net, SimTime::from_secs(60));

    for (at, ev) in host.events() {
        match ev {
            LiveEvent::SuspicionRaised { suspicion, .. } => {
                println!("t={:>6.3}s  suspicion   {suspicion}", at.as_secs_f64());
            }
            LiveEvent::LinkStateApplied { by, origin, .. } if by == origin => {
                println!(
                    "t={:>6.3}s  {origin} floods its exclusion",
                    at.as_secs_f64()
                );
            }
            _ => {}
        }
    }

    // The RTT tells the rerouting story: ~50 ms on the Kansas City route,
    // ~56 ms via Los Angeles/Houston/Atlanta after the response.
    let rtts = net.ping_rtts(ping);
    let early: Vec<f64> = rtts
        .iter()
        .filter(|(t, _)| t.as_secs_f64() < 20.0)
        .map(|(_, r)| r.as_secs_f64() * 1e3)
        .collect();
    let late: Vec<f64> = rtts
        .iter()
        .filter(|(t, _)| t.as_secs_f64() > 45.0)
        .map(|(_, r)| r.as_secs_f64() * 1e3)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\nRTT before: {:.1} ms — after response: {:.1} ms",
        mean(&early),
        mean(&late)
    );
    let excluded = host.excluded_segments();
    assert!(!excluded.is_empty(), "the attack was never answered");
    assert!(
        excluded.iter().all(|seg| seg.contains(kc)),
        "response must only exclude segments containing the compromised router"
    );
    println!("all excluded segments contain KansasCity ✓");
}
