//! Figures 6.5–6.9: Protocol χ on the drop-tail Emulab setup (Fig 6.4's
//! fan-in topology, TCP workload), per-round detection series under:
//!
//! * `none`   — no attack (Fig 6.5: no false detection),
//! * `drop20` — drop 20% of the selected flows (Fig 6.6),
//! * `q90`    — drop the selected flows when the queue is 90% full (Fig 6.7),
//! * `q95`    — same at 95% (Fig 6.8),
//! * `syn`    — target a host opening connections by dropping SYNs (Fig 6.9).
//!
//! Run one scenario with
//! `cargo run --release -p fatih-bench --bin fig6_x -- <scenario>`, or all
//! of them with no argument.

use fatih_bench::{ChiAttack, ChiExperiment, Workload};
use fatih_sim::SimTime;

fn scenario(name: &str) -> Option<(ChiAttack, &'static str)> {
    match name {
        "none" => Some((ChiAttack::None, "Fig 6.5: no attack")),
        "drop20" => Some((
            ChiAttack::DropFraction(0.2),
            "Fig 6.6: drop 20% of selected flows",
        )),
        "q90" => Some((
            ChiAttack::QueueConditional(0.90),
            "Fig 6.7: drop selected flows when queue ≥ 90% full",
        )),
        "q95" => Some((
            ChiAttack::QueueConditional(0.95),
            "Fig 6.8: drop selected flows when queue ≥ 95% full",
        )),
        "syn" => Some((ChiAttack::SynDrop, "Fig 6.9: drop a victim host's SYNs")),
        _ => None,
    }
}

fn run_one(name: &str) {
    let (attack, title) = scenario(name).unwrap_or_else(|| {
        eprintln!("unknown scenario {name}; use none|drop20|q90|q95|syn");
        std::process::exit(2);
    });
    // Queue sized so the 90%/95% triggers sit *below* the overflow
    // boundary (fill·q_limit < q_limit − MTU): the attack then denies
    // service the honest queue would have granted — the dissertation's
    // Emulab queue, measured in packets, had the same property.
    let exp = ChiExperiment {
        attack,
        workload: Workload::Tcp,
        q_limit: 64_000,
        rounds: 12,
        round: SimTime::from_secs(5),
        ..ChiExperiment::default()
    };
    exp.run_scenario(&format!("fig6_x_{name}"), title);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        for name in ["none", "drop20", "q90", "q95", "syn"] {
            run_one(name);
        }
    } else {
        for name in &args {
            run_one(name);
        }
    }
    println!(
        "Paper shape to compare against: the no-attack run never detects\n\
         despite real congestive drops, while every attack — including the\n\
         queue-conditional ones crafted to hide inside congestion and the\n\
         handful-of-packets SYN attack — is flagged (dissertation\n\
         Figs 6.5–6.9)."
    );
}
