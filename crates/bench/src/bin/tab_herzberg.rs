//! §3.3's trade-off, tabulated: detection time vs communication for the
//! HERZBERG per-packet protocols on a 16-processor path, as the fault
//! position varies.
//!
//! Run with `cargo run --release -p fatih-bench --bin tab_herzberg`.

use fatih_baselines::herzberg::{transmit, Variant};
use fatih_bench::{render_table, write_csv};
use std::collections::BTreeSet;

const N: usize = 16;

fn main() {
    println!("== §3.3 HERZBERG: ack placement trade-off (path of {N} processors) ==\n");

    // Success-path costs first.
    let mut rows = Vec::new();
    for (label, v) in [
        ("end-to-end", Variant::EndToEnd),
        ("hop-by-hop", Variant::HopByHop),
        ("checkpoints s=4", Variant::Checkpoints { spacing: 4 }),
    ] {
        let ok = transmit(N, &BTreeSet::new(), v);
        let acks = match v {
            Variant::EndToEnd => 1,
            Variant::HopByHop => N - 1,
            Variant::Checkpoints { spacing } => (N - 2) / spacing + 1,
        };
        rows.push(vec![
            label.to_string(),
            acks.to_string(),
            ok.ack_hops.to_string(),
            ok.time.to_string(),
        ]);
    }
    println!("fault-free delivery:");
    println!(
        "{}",
        render_table(&["variant", "ack msgs", "ack hops", "confirm time"], &rows)
    );

    // Detection behaviour per fault position.
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for f in [1usize, 4, 8, 12, 14] {
        let droppers: BTreeSet<usize> = [f].into_iter().collect();
        let mut cells = vec![f.to_string()];
        let mut csv_row = vec![f.to_string()];
        for v in [
            Variant::EndToEnd,
            Variant::HopByHop,
            Variant::Checkpoints { spacing: 4 },
        ] {
            let out = transmit(N, &droppers, v);
            let (lo, hi) = out.detection.expect("fault detected");
            cells.push(format!("t={} ⟨{lo}..{hi}⟩", out.time));
            csv_row.push(out.time.to_string());
            csv_row.push(out.precision().to_string());
        }
        rows.push(cells);
        csv.push(csv_row);
    }
    println!("fault at position f — detection time and suspected window:");
    println!(
        "{}",
        render_table(&["f", "end-to-end", "hop-by-hop", "checkpoints s=4"], &rows)
    );
    write_csv(
        "tab_herzberg",
        &[
            "f", "e2e_t", "e2e_prec", "hbh_t", "hbh_prec", "cp4_t", "cp4_prec",
        ],
        &csv,
    );
    println!(
        "\nPaper shape to compare against: end-to-end pays one ack but waits\n\
         a full round trip and suspects the whole path; hop-by-hop detects\n\
         within two hops at precision 2 but sends an ack per hop;\n\
         checkpoints interpolate (HERZBERG-optimal, §3.3)."
    );
}
