//! Figure 5.2: for Protocol Π2 under `AdjacentFault(k)`, the maximum,
//! average and median number of path segments `|P_r|` monitored by an
//! individual router, for k = 1..8, on Rocketfuel-shaped Sprintlink and
//! EBONE topologies.
//!
//! Run with `cargo run --release -p fatih-bench --bin fig5_2`.

use fatih_bench::segment_count_figure;
use fatih_topology::pi2_segment_counts;

fn main() {
    segment_count_figure("Figure 5.2 (Protocol Π2)", "fig5_2", pi2_segment_counts);
    println!(
        "Paper shape to compare against: max ≫ average ≫ median, all growing\n\
         with k; Sprintlink max reaches thousands by k=8 while the median\n\
         stays comparatively small (dissertation Fig 5.2)."
    );
}
