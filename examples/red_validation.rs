//! Protocol χ over a RED queue (§6.5): validating *probabilistic*
//! drops by replaying RED's average-queue state and per-packet drop
//! probabilities from the monitors' traffic information (Figure 6.10).
//!
//! ```sh
//! cargo run --release --example red_validation
//! ```

use fatih::crypto::KeyStore;
use fatih::protocols::chi::{ChiConfig, QueueValidator};
use fatih::sim::{Attack, AttackKind, Network, QueueDiscipline, RedParams, SimTime, VictimFilter};
use fatih::topology::{builtin, LinkParams};

fn main() {
    let red = QueueDiscipline::Red(RedParams {
        min_threshold: 20_000.0,
        max_threshold: 40_000.0,
        max_p: 0.1,
        weight: 0.002,
        mean_packet_size: 1_000.0,
    });
    let bottleneck = LinkParams {
        bandwidth_bps: 8_000_000,
        queue_limit_bytes: 60_000,
        ..LinkParams::default()
    };
    let topo = builtin::fan_in(3, bottleneck);
    let mut ks = KeyStore::with_seed(4);
    for r in topo.routers() {
        ks.register(r.into());
    }
    let r = topo.router_by_name("r").unwrap();
    let rd = topo.router_by_name("rd").unwrap();

    for (label, attacked) in [
        ("RED early drops only", false),
        ("plus an avg-queue-triggered attack", true),
    ] {
        let mut validator = QueueValidator::new(&topo, &ks, r, rd, red, ChiConfig::default());
        let mut net = Network::new(topo.clone(), 23);
        net.set_queue_discipline(r, rd, red);
        let mut victim = None;
        for i in 0..3 {
            let s = net.topology().router_by_name(&format!("s{i}")).unwrap();
            let f = net.add_cbr_flow(
                s,
                rd,
                1_000,
                SimTime::from_us(1_100),
                SimTime::ZERO,
                Some(SimTime::from_secs(10)),
            );
            if i == 0 {
                victim = Some(f);
            }
        }
        if attacked {
            // §6.5.3-style attack: drop the victim whenever RED's EWMA
            // average is above a mid-band trigger — every individual loss
            // looks like a plausible RED drop.
            net.set_attacks(
                r,
                vec![Attack {
                    victims: VictimFilter::flows([victim.expect("victim")]),
                    kind: AttackKind::DropWhenAvgQueueAbove {
                        avg_bytes: 30_000.0,
                        fraction: 1.0,
                    },
                }],
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
        println!("{label}:");
        println!(
            "  {} drops observed ({} RED GT, {} malicious GT), combined confidence {:?}, detected: {}",
            verdict.total_drops(),
            truth.congestive_drops,
            truth.malicious_drops,
            verdict.combined_confidence.map(|c| (c * 1000.0).round() / 1000.0),
            if verdict.detected { "YES" } else { "no" }
        );
        assert_eq!(verdict.detected, attacked && truth.malicious_drops > 0);
    }
    println!(
        "\nthe validator steps the simulator's own RED core (outcomes are known from\n\
         the exit records), so the expected number of early drops is known —\n\
         an attacker shadowing RED's average adds drops the model cannot\n\
         explain (§6.5.2)."
    );
}
