//! The §5.1.1 / §5.2.1 state-size comparison: counters maintained per
//! router under WATCHERS (7 per neighbour per destination) versus the
//! per-segment state of Protocol Π2 and Protocol Πk+2 (one counter per
//! monitored segment per direction under conservation of flow).
//!
//! Dissertation reference points (real Sprintlink map): WATCHERS ≈ 13,605
//! average / 99,225 max; Π2 @ AdjacentFault(2): 216 avg / 2,172 max;
//! Πk+2 @ AdjacentFault(2): 232 avg / 496 max (×2 directions, §5.2.1
//! footnote); @ AdjacentFault(7): 616 avg / 626 max.
//!
//! It also writes `results/tab_overhead.csv`: Chapter 7's *predicted*
//! overhead of Πk+2 as counted operations, one `scope,quantity,value` row
//! each, for the fatihbench workload shapes (`benchmark/src/workload.rs`)
//! and the topologies above. `fatih_bench` counts; this bin lays out.
//!
//! Run with `cargo run --release -p fatih-bench --bin tab_state`.

use fatih_baselines::watchers::watchers_counter_count;
use fatih_bench::{
    chi_replay_counts, control_frame_lens, dolev_strong_counts, fingerprints_per_packet, publish,
    rocketfuel_like, sketch_points,
};
use fatih_stats::Summary;
use fatih_topology::{builtin, pi2_segment_counts, pik2_segment_counts, Topology};
use std::fmt::Write as _;

/// `Reconcile` mode's sketch capacity in the fatihbench workloads.
const CAPACITY: usize = 32;
/// The capacity of the prefix a round end sends its digests at.
const PREFIX: usize = 4;

/// A state-table row: `label`, then the mean and the maximum of `counts`.
fn row(label: String, counts: impl IntoIterator<Item = usize>) -> Vec<String> {
    let s = Summary::from_iter(counts.into_iter().map(|c| c as f64));
    vec![label, format!("{:.0}", s.mean()), format!("{:.0}", s.max())]
}

fn run(name: &str, topo: &Topology) {
    println!(
        "== State comparison — {name}: {} routers, {} links ==",
        topo.router_count(),
        topo.duplex_link_count()
    );
    let routes = topo.link_state_routes();
    let watchers = topo.routers().map(|r| watchers_counter_count(topo, r));
    let mut rows = vec![row("WATCHERS (7·deg·N)".into(), watchers)];
    for k in [2usize, 7] {
        rows.push(row(
            format!("Π2, AdjacentFault({k})"),
            pi2_segment_counts(&routes, k),
        ));
        // Πk+2 keeps two counters per monitored segment (one per
        // direction, §5.2.1).
        let counts = pik2_segment_counts(&routes, k).into_iter().map(|c| c * 2);
        rows.push(row(format!("Πk+2, AdjacentFault({k})"), counts));
    }
    let headers = ["protocol", "avg counters", "max counters"];
    publish(&format!("tab_state_{name}"), &headers, &rows);
}

/// Writes `results/tab_overhead.csv`. A fatihbench workload's `flows`
/// k = 1 flows run on `path`-router paths sharing no monitored segment,
/// each sending `per` packets a round (0: a closed loop); on the state
/// table's topologies every routed pair is a flow. A segment end sends its
/// `Reconcile{32}` digest or `Full` summary and acks its peer's; each of
/// the four frames is sealed and opened once: 8 MACs per segment, so 4 per
/// fingerprint a packet costs. Data frames carry no MAC. A `Full` summary
/// is its record's columns: 12 B an entry, and 8 B for each time mark and
/// size run, the first entry opening one of each.
fn overhead() {
    let (_, digest, ack) = control_frame_lens(0, CAPACITY);
    let prefix = control_frame_lens(0, PREFIX).1;
    let [empty, one, two] = [0, 1, 2].map(|n| control_frame_lens(n, CAPACITY).0.expect("fits"));
    let entry = two - one;
    let list = (one - empty - entry) / 2;
    let points = sketch_points(CAPACITY);
    let (entries, exits, losses) = chi_replay_counts();
    let mut csv = format!(
        "any segment end,Reconcile{{32}} digest frame bytes,{digest}\n\
         any segment end,Reconcile{{32}} round-end prefix digest frame bytes,{prefix}\n\
         any segment end,ack frame bytes,{ack}\n\
         any segment end,Full summary frame bytes at 0 entries,{empty}\n\
         any segment end,Full summary frame bytes per entry,{entry}\n\
         any segment end,Full summary frame bytes per time mark or size run,{list}\n\
         any segment end,polynomial evaluation points per Reconcile{{32}} digest,{points}\n\
         any data frame,MACs,0\n\
         chi fan_in(3) congested round,queue entries replayed,{entries}\n\
         chi fan_in(3) congested round,queue exits replayed,{exits}\n\
         chi fan_in(3) congested round,losses judged,{losses}\n"
    );
    for n in [3, 5, 8] {
        let (messages, signatures, checks) = dolev_strong_counts(n);
        let _ = write!(
            csv,
            "Dolev-Strong n={n},messages,{messages}\n\
             Dolev-Strong n={n},signatures made,{signatures}\n\
             Dolev-Strong n={n},signature checks,{checks}\n"
        );
    }
    for (scope, topo, path, flows, per) in [
        ("sat-line6", builtin::line(6), 6, 1, 0),
        ("paced-isp64 attack-isp64", rocketfuel_like(64), 5, 8, 250),
        ("ctl-full-isp128", rocketfuel_like(128), 5, 8, 125),
        ("sprintlink all pairs", builtin::sprintlink_like(1), 0, 0, 0),
        ("ebone all pairs", builtin::ebone_like(1), 0, 0, 0),
        ("abilene all pairs", builtin::abilene(), 0, 0, 0),
    ] {
        let routes = topo.link_state_routes();
        let counts = pik2_segment_counts(&routes, 1);
        let state = Summary::from_iter(counts.iter().map(|&c| 2.0 * c as f64));
        let _ = write!(
            csv,
            "{scope},routers,{}\n\
             {scope},state counters per router k=1 avg,{:.1}\n\
             {scope},state counters per router k=1 max,{}\n",
            topo.router_count(),
            state.mean(),
            state.max()
        );
        // Four control frames per segment a round, fingerprints / 2 segments.
        let control = 2 * flows * fingerprints_per_packet(path, 1);
        if path > 0 {
            let _ = write!(
                csv,
                "{scope},data frames per packet,{}\n\
                 {scope},control frames per round k=1,{control}\n",
                path - 1
            );
        }
        for k in [1, 2] {
            let per_path = |len| fingerprints_per_packet(len, k) as f64;
            let fp = match path {
                0 => Summary::from_iter(routes.all_paths().map(|p| per_path(p.len()))).mean(),
                _ => per_path(path),
            };
            let _ = writeln!(csv, "{scope},fingerprints per packet k={k},{fp:.2}");
            if per > 0 {
                let macs = 4.0 * fp / per as f64;
                let _ = writeln!(csv, "{scope},control MACs per packet k={k},{macs:.3}");
            }
        }
        if per > 0 {
            let full = control_frame_lens(per, CAPACITY).0.expect("fits a frame");
            let frames = (path - 1) as f64 + control as f64 / flows as f64 / per as f64;
            let _ = write!(
                csv,
                "{scope},Full summary frame bytes at {per} entries,{full}\n\
                 {scope},frames per packet k=1,{frames:.3}\n"
            );
        }
    }
    println!("== Chapter 7 overhead, predicted ==");
    let rows: Vec<Vec<String>> = csv
        .lines()
        .map(|l| l.split(',').map(Into::into).collect())
        .collect();
    publish("tab_overhead", &["scope", "quantity", "value"], &rows);
}

fn main() {
    run("sprintlink", &builtin::sprintlink_like(1));
    run("ebone", &builtin::ebone_like(1));
    run("abilene", &builtin::abilene());
    overhead();
    println!(
        "Paper shape to compare against: WATCHERS orders of magnitude above\n\
         both protocols; Πk+2's maximum far below Π2's and nearly flat in k."
    );
}
