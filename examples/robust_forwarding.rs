//! Perlman's alternative to detection (§3.7): *Byzantine-robust
//! forwarding* — duplicate every packet over f+1 vertex-disjoint paths so
//! at least one copy always dodges the faulty routers. Robustness without
//! ever learning who is compromised, at (f+1)× the traffic.
//!
//! ```sh
//! cargo run --release --example robust_forwarding
//! ```

use fatih::baselines::perlman::RobustForwarding;
use fatih::topology::{builtin, RouterId};
use std::collections::BTreeSet;

fn main() {
    let topo = builtin::abilene();
    let sun = topo.router_by_name("Sunnyvale").unwrap();
    let ny = topo.router_by_name("NewYork").unwrap();

    let plan = RobustForwarding::plan(&topo, sun, ny, 1).expect("Abilene is 2-connected");
    println!("TotalFault(1) plan, Sunnyvale → NewYork:");
    for p in plan.paths() {
        let names: Vec<&str> = p.routers().iter().map(|&r| topo.name(r)).collect();
        println!("  {}", names.join(" → "));
    }

    // Exhaustively compromise each interior router; a copy always gets
    // through.
    let ids: Vec<RouterId> = topo.routers().collect();
    for &evil in &ids {
        if evil == sun || evil == ny {
            continue;
        }
        let faulty: BTreeSet<RouterId> = [evil].into_iter().collect();
        assert!(plan.survives(&faulty));
    }
    println!("\nevery single-router compromise leaves a surviving copy ✓");

    // But the line topology admits no such plan — path diversity is the
    // necessary condition (§2.1.3).
    let line = builtin::line(5);
    let l: Vec<RouterId> = line.routers().collect();
    let err = RobustForwarding::plan(&line, l[0], l[4], 1).unwrap_err();
    println!(
        "on a line: {err} — detection (Chapters 5–6) is what's left when\n\
         you can't afford {}× traffic or the diversity isn't there",
        2
    );
}
