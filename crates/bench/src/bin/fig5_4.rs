//! Figure 5.4: for Protocol Πk+2 under `AdjacentFault(k)`, the maximum,
//! average and median `|P_r|` — the number of path segments whose *end*
//! a router is — for k = 1..8, on the Sprintlink and EBONE shapes.
//! Compare with Figure 5.2: per-router state is bounded by roughly the
//! network size N instead of exploding with k.
//!
//! Run with `cargo run --release -p fatih-bench --bin fig5_4`.

use fatih_bench::segment_count_figure;
use fatih_topology::pik2_segment_counts;

fn main() {
    segment_count_figure("Figure 5.4 (Protocol Πk+2)", "fig5_4", pik2_segment_counts);
    println!(
        "Paper shape to compare against: values far below Figure 5.2's,\n\
         with the maximum flattening toward ~N as k grows (dissertation\n\
         Fig 5.4: Sprintlink max ≈ 300s vs Fig 5.2's thousands)."
    );
}
