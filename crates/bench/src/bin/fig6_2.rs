//! Figure 6.2: the confidence value of the single-packet-loss test —
//! `c_single = P(X ≤ q_limit − q_pred − ps)` for the learned error model
//! `X ~ N(µ, σ)` — as a function of the predicted queue length at the
//! moment of the drop.
//!
//! Run with `cargo run --release -p fatih-bench --bin fig6_2`.

use fatih_bench::{render_table, write_csv};
use fatih_stats::normal;

fn main() {
    let q_limit = 64_000.0f64;
    let ps = 1_000.0f64;
    let mu = 0.0f64;
    let sigmas = [300.0f64, 1_500.0, 6_000.0];

    println!("== Figure 6.2: single-loss confidence vs predicted queue length ==");
    println!("q_limit = {q_limit} B, packet = {ps} B, µ = {mu}\n");

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let steps = 32;
    for i in 0..=steps {
        let q_pred = q_limit * i as f64 / steps as f64;
        let mut cells = vec![format!("{q_pred:.0}")];
        let mut csv_row = vec![format!("{q_pred:.0}")];
        for &sigma in &sigmas {
            let c = normal::cdf((q_limit - q_pred - ps - mu) / sigma);
            cells.push(format!("{c:.4}"));
            csv_row.push(format!("{c:.6}"));
        }
        rows.push(cells);
        csv.push(csv_row);
    }
    let headers = ["q_pred (B)", "c (σ=300)", "c (σ=1500)", "c (σ=6000)"];
    println!("{}", render_table(&headers, &rows));
    write_csv("fig6_2", &headers, &csv);
    println!(
        "\nPaper shape to compare against: confidence ≈ 1 while the queue\n\
         has room, collapsing to ≈ 0 as q_pred + ps approaches q_limit,\n\
         with the transition width set by σ (dissertation Fig 6.2)."
    );
}
