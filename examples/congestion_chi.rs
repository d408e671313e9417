//! Protocol χ (Chapter 6): telling malicious losses from congestion.
//!
//! Two back-to-back scenarios on the Fig 6.4 fan-in topology:
//! 1. an honestly congested bottleneck — thousands of real drops, no
//!    detection;
//! 2. the same bottleneck with a compromised router quietly dropping 2%
//!    of one flow — detected, because the replayed queue shows those
//!    packets had room.
//!
//! ```sh
//! cargo run --release --example congestion_chi
//! ```

use fatih::crypto::KeyStore;
use fatih::protocols::chi::{ChiConfig, QueueValidator};
use fatih::sim::{Attack, Network, QueueDiscipline, SimTime};
use fatih::topology::{builtin, LinkParams};

fn scenario(attack_fraction: f64, congested: bool) {
    let bottleneck = LinkParams {
        bandwidth_bps: 8_000_000, // 1 kB/ms
        queue_limit_bytes: 16_000,
        ..LinkParams::default()
    };
    let topo = builtin::fan_in(3, bottleneck);
    let mut ks = KeyStore::with_seed(3);
    for r in topo.routers() {
        ks.register(r.into());
    }
    let r = topo.router_by_name("r").unwrap();
    let rd = topo.router_by_name("rd").unwrap();
    let discipline = QueueDiscipline::DropTail;
    let mut validator = QueueValidator::new(&topo, &ks, r, rd, discipline, ChiConfig::default());

    let mut net = Network::new(topo, 17);
    net.set_queue_discipline(r, rd, discipline);
    // Offered load: 3 × 1000 B per interval; 1.1 ms ≈ 2.7× capacity
    // (congested), 4 ms ≈ 0.75× (uncongested).
    let interval = if congested { 1_100 } else { 4_000 };
    let mut victim = None;
    for i in 0..3 {
        let s = net.topology().router_by_name(&format!("s{i}")).unwrap();
        let f = net.add_cbr_flow(
            s,
            rd,
            1_000,
            SimTime::from_us(interval),
            SimTime::ZERO,
            Some(SimTime::from_secs(10)),
        );
        if i == 0 {
            victim = Some(f);
        }
    }
    if attack_fraction > 0.0 {
        net.set_attacks(
            r,
            vec![Attack::drop_flows(
                [victim.expect("victim flow")],
                attack_fraction,
            )],
        );
    }

    let routes = net.routes().clone();
    let end = SimTime::from_secs(12);
    net.run_until(end, |ev| {
        validator.observe(ev, |p| {
            routes
                .path(p.src, p.dst)
                .and_then(|path| path.next_after(r))
        })
    });
    let verdict = validator.end_round(end);
    let truth = net.ground_truth();
    println!(
        "  drops: {:>5} observed ({:>5} congestive GT, {:>3} malicious GT) | \
         congestion-consistent: {:>5} | outcome mismatches: {:>3} | detected: {}",
        verdict.total_drops(),
        truth.congestive_drops,
        truth.malicious_drops,
        verdict.congestion_consistent,
        verdict.outcome_mismatches,
        if verdict.detected { "YES" } else { "no" }
    );
    assert_eq!(verdict.detected, truth.malicious_drops > 0);
}

fn main() {
    println!("honest congestion (2.7× offered load, 16 kB buffer):");
    scenario(0.0, true);
    println!("\nsubtle attack on an uncongested queue (2% of one flow):");
    scenario(0.02, false);
    println!("\nsubtle attack *hidden inside* congestion (2% of one flow):");
    scenario(0.02, true);
    println!(
        "\nχ never confuses the two: real congestive drops replay as\n\
         queue-full events, while the attacked packets had room (Chapter 6)."
    );
}
