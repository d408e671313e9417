//! Live Πk+2 over the Abilene backbone — real UDP, real threads, real time.
//!
//! Eleven router processes (one OS thread + one UDP socket each, all on
//! 127.0.0.1) run the Πk+2 end-to-end validation protocol against the
//! wall clock. CBR traffic flows Sunnyvale ↔ New York; the Kansas City
//! PoP is compromised and silently drops 20% of the transit packets it
//! should forward. Within three 300ms rounds every segment covering
//! Kansas City is suspected, and no correct-only segment is accused.
//!
//! Run with: `cargo run --release --example live_abilene`

use fatih::net::runtime::{DropperSpec, FlowSpec, LiveConfig, LiveDeployment, LiveEvent, LiveSpec};
use fatih::net::UdpNet;
use fatih::protocols::spec::SpecCheck;
use fatih::topology::{builtin, RouterId};
use std::collections::BTreeSet;
use std::time::Duration;

fn main() {
    let topo = builtin::abilene();
    let ids: Vec<RouterId> = topo.routers().collect();
    let name = |id: RouterId| topo.name(id).to_string();
    let sunnyvale = topo.router_by_name("Sunnyvale").expect("PoP");
    let newyork = topo.router_by_name("NewYork").expect("PoP");
    let kansascity = topo.router_by_name("KansasCity").expect("PoP");

    let routes = topo.link_state_routes();
    let path = routes
        .path(sunnyvale, newyork)
        .expect("coast-to-coast route");
    println!("route Sunnyvale -> NewYork:");
    println!(
        "  {}",
        path.routers()
            .iter()
            .map(|&r| name(r))
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    assert!(
        path.routers().contains(&kansascity),
        "expected the 25ms route via Kansas City"
    );

    let spec = LiveSpec {
        flows: vec![
            FlowSpec::new(sunnyvale, newyork, 1000, Duration::from_millis(3)),
            FlowSpec::new(newyork, sunnyvale, 1000, Duration::from_millis(3)),
        ],
        droppers: vec![DropperSpec {
            router: kansascity,
            rate: 0.20,
            seed: 1,
            active_from: 0,
        }],
        ..LiveSpec::default()
    };
    // k = 1, τ = 300ms, 3 rounds; detection only — the conviction→reroute
    // response loop is exercised by `crates/bench/tests/gates.rs`.
    let cfg = LiveConfig {
        response: false,
        ..LiveConfig::default()
    };

    println!(
        "\nbinding {} UDP sockets on 127.0.0.1, one router thread each...",
        ids.len()
    );
    let transports = UdpNet::bind_group(&ids).expect("bind loopback sockets");
    let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);

    println!("\ntimeline:");
    for ev in &outcome.events {
        match ev {
            LiveEvent::SuspicionRaised { suspicion, round } => {
                println!(
                    "  round {round}: {} suspects segment <{}>",
                    name(suspicion.raised_by),
                    suspicion
                        .segment
                        .routers()
                        .iter()
                        .map(|&r| name(r))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
            LiveEvent::SummaryTimeout { by, round, .. } => {
                println!(
                    "  round {round}: {} timed out waiting for a summary",
                    name(*by)
                );
            }
            LiveEvent::AlertReceived {
                by, origin, sig_ok, ..
            } => {
                println!(
                    "  alert: {} <- {} (signature {})",
                    name(*by),
                    name(*origin),
                    if *sig_ok { "ok" } else { "BAD" }
                );
            }
            _ => {}
        }
    }

    println!("\nstats: {:?}", outcome.stats);
    println!(
        "monitored {} segments, raised {} suspicions",
        outcome.segments.len(),
        outcome.suspicions.len()
    );

    // The paper's two correctness properties, on live traffic.
    let faulty: BTreeSet<RouterId> = [kansascity].into_iter().collect();
    let check = SpecCheck::evaluate(&outcome.suspicions, &faulty);
    assert!(outcome.stats.data_dropped > 0, "the dropper never fired");
    assert!(
        check.is_complete(),
        "Kansas City escaped detection within {} rounds",
        cfg.rounds
    );
    assert!(
        check.is_accurate(cfg.k + 2),
        "a correct router was accused: {:?}",
        check.false_positives
    );
    let earliest = outcome
        .events
        .iter()
        .filter_map(|e| match e {
            LiveEvent::SuspicionRaised { round, .. } => Some(*round),
            _ => None,
        })
        .min()
        .expect("at least one suspicion");
    println!(
        "\nverdict: Kansas City detected in round {} (wall clock ~{}ms), \
         zero false accusations",
        earliest + 1,
        (earliest + 1) * cfg.tau.as_millis() as u64 + cfg.exchange_budget.as_millis() as u64
    );
}
