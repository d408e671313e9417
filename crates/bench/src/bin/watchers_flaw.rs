//! §3.1 — the WATCHERS consorting-routers experiment (Figure 3.3): on the
//! line a–b–c–d–e, routers c and d collude: c drops transit traffic
//! destined for e and, with d corroborating, launders the missing bytes
//! as traffic destined to d. Aggregate conservation-of-flow counters pass
//! the laundering; per-destination counters (the fixed protocol) catch it.
//!
//! Run with `cargo run --release -p fatih-bench --bin watchers_flaw`.

use fatih_baselines::watchers::{
    watchers_counter_count, CounterFault, WatchersConfig, WatchersDetector, WatchersMode,
};
use fatih_bench::render_table;
use fatih_core::spec::SpecCheck;
use fatih_crypto::KeyStore;
use fatih_sim::{Attack, Network, SimTime};
use fatih_topology::{builtin, RouterId};
use std::collections::BTreeSet;

fn run(mode: WatchersMode) -> (usize, usize, bool) {
    let topo = builtin::line(5);
    let ids: Vec<RouterId> = (0..5)
        .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
        .collect();
    let mut ks = KeyStore::with_seed(1);
    for r in topo.routers() {
        ks.register(r.into());
    }
    let mut net = Network::new(topo, 1);
    let flow = net.add_cbr_flow(
        ids[0],
        ids[4],
        1000,
        SimTime::from_ms(2),
        SimTime::ZERO,
        Some(SimTime::from_secs(10)),
    );
    net.set_attacks(ids[2], vec![Attack::drop_flows([flow], 0.3)]);
    let mut det = WatchersDetector::new(
        net.topology(),
        WatchersConfig {
            mode,
            threshold_bytes: 10_000,
        },
    );
    det.set_counter_fault(ids[2], CounterFault::AbsorbDrops { partner: ids[3] });
    let end = SimTime::from_secs(12);
    net.run_until(end, |ev| det.observe(ev));
    let suspicions = det.end_round(end);
    let faulty: BTreeSet<RouterId> = [ids[2], ids[3]].into_iter().collect();
    let check = SpecCheck::evaluate(&suspicions, &faulty);
    (
        suspicions.len(),
        check.detected_faulty.len(),
        check.false_positives.is_empty(),
    )
}

fn main() {
    println!("== §3.1: WATCHERS and the consorting-routers flaw (Figure 3.3) ==\n");
    println!("scenario: c (n2) drops 30% of a→e transit; c and d launder the");
    println!("missing bytes as traffic destined to d, corroborating each other.\n");

    let mut rows = Vec::new();
    for (label, mode) in [
        ("aggregate counters (original)", WatchersMode::Aggregate),
        (
            "per-destination counters (fixed)",
            WatchersMode::PerDestination,
        ),
    ] {
        let (suspicions, caught, accurate) = run(mode);
        rows.push(vec![
            label.to_string(),
            suspicions.to_string(),
            caught.to_string(),
            if caught > 0 { "detected" } else { "LAUNDERED" }.into(),
            if accurate { "yes" } else { "no" }.into(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "counter mode",
                "suspicions",
                "faulty caught",
                "outcome",
                "accurate"
            ],
            &rows
        )
    );

    // The price of the fix (§3.1: O(R·N) counters).
    let sl = builtin::sprintlink_like(1);
    let counts: Vec<usize> = sl
        .routers()
        .map(|r| watchers_counter_count(&sl, r))
        .collect();
    let avg = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    let max = counts.iter().max().copied().unwrap_or(0);
    println!(
        "\ncost of the per-destination fix on the Sprintlink shape:\n\
         avg {avg:.0} counters/router, max {max} (paper: ≈13,605 avg / 99,225 max)."
    );
    println!(
        "\nPaper shape to compare against: the aggregate protocol reports\n\
         nothing (the launder balances its books), the per-destination\n\
         protocol catches the consorting pair — at an O(R·N) state cost\n\
         that motivates the path-segment protocols of Chapter 5."
    );
}
