//! §2.2.1 / §2.4.1 coverage matrix: which conservation-of-traffic policy
//! detects which attack. Flow conservation sees only volume (blind to
//! modification and reordering), content adds fingerprints, order adds
//! sequencing — reproduced live with Protocol Π2 over the simulator.
//!
//! Run with `cargo run --release -p fatih-bench --bin tab_policies`.

use fatih_bench::publish;
use fatih_core::pi2::{Pi2Config, Pi2Detector};
use fatih_core::spec::SpecCheck;
use fatih_core::{Policy, Thresholds};
use fatih_crypto::KeyStore;
use fatih_sim::{Attack, AttackKind, Network, SimTime, VictimFilter};
use fatih_topology::{builtin, RouterId};
use std::collections::BTreeSet;

#[derive(Clone, Copy)]
enum Scenario {
    Drop,
    Modify,
    Reorder,
}

fn run(scenario: Scenario, policy: Policy) -> bool {
    let topo = builtin::line(5);
    let ids: Vec<RouterId> = topo.routers().collect();
    let mut ks = KeyStore::with_seed(14);
    for r in topo.routers() {
        ks.register(r.into());
    }
    let mut net = Network::new(topo, 14);
    // Generous loss allowance so only the *targeted* signal can fire, and
    // a zero reorder allowance for the order policy.
    let thresholds = match scenario {
        // For the drop scenario the loss signal is the point.
        Scenario::Drop => Thresholds {
            loss: 5,
            reorder: 5,
        },
        // For modify/reorder, mask the loss channel entirely so the table
        // shows which policy sees the *content*/*order* signal.
        Scenario::Modify | Scenario::Reorder => Thresholds {
            loss: usize::MAX,
            reorder: 0,
        },
    };
    let mut det = Pi2Detector::new(
        net.routes(),
        ks,
        Pi2Config {
            policy,
            thresholds,
            ..Pi2Config::default()
        },
    );
    let flow = net.add_cbr_flow(
        ids[0],
        ids[4],
        1000,
        SimTime::from_ms(2),
        SimTime::ZERO,
        None,
    );
    let kind = match scenario {
        Scenario::Drop => AttackKind::Drop { fraction: 0.3 },
        Scenario::Modify => AttackKind::Modify { fraction: 0.3 },
        Scenario::Reorder => AttackKind::Delay {
            extra: SimTime::from_ms(7),
            fraction: 0.3,
        },
    };
    net.set_attacks(
        ids[2],
        vec![Attack {
            victims: VictimFilter::flows([flow]),
            kind,
        }],
    );
    let end = SimTime::from_secs(5);
    net.run_until(end, |ev| det.observe(ev));
    let suspicions = det.end_round(end);
    let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
    SpecCheck::evaluate(&suspicions, &faulty).is_complete()
}

fn main() {
    println!("== §2.4.1: conservation policies vs attacks (Protocol Π2, 30% attack) ==\n");
    let mut rows = Vec::new();
    for (label, scenario, expect) in [
        ("packet loss", Scenario::Drop, [true, true, true]),
        ("modification", Scenario::Modify, [false, true, true]),
        (
            "reordering (via delay)",
            Scenario::Reorder,
            [false, false, true],
        ),
    ] {
        let mut cells = vec![label.to_string()];
        for (i, policy) in [Policy::Flow, Policy::Content, Policy::Order]
            .into_iter()
            .enumerate()
        {
            let caught = run(scenario, policy);
            cells.push(if caught {
                "detected".into()
            } else {
                "blind".into()
            });
            assert_eq!(
                caught, expect[i],
                "{label} under {policy:?}: expected {}",
                expect[i]
            );
        }
        rows.push(cells);
    }
    let headers = ["attack", "flow", "content", "order"];
    publish("tab_policies", &headers, &rows);
    println!(
        "\nPaper shape to compare against: §2.4.1's hierarchy — flow\n\
         conservation catches loss only (modification balances the books),\n\
         content adds modification/fabrication, and only the order policy\n\
         sees reordering."
    );
}
