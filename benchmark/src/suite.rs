//! The suite runner: one child process per (workload, repetition),
//! repetitions interleaved across workloads (w1, w2, w3, w4, w1, …) so
//! slow drift of the machine lands on every workload alike, then medians,
//! quartiles and — in `--noise` mode — the agreement of two full sets.

use crate::catalog::{Better, END_TO_END};
use crate::measure::{iqr_share, median, quartiles};
use crate::report::{ParsedReport, RunReport};
use crate::workload::NAMES;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// What the suite was asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteArgs {
    /// Repetitions per workload.
    pub reps: usize,
    /// Restrict to one workload.
    pub only: Option<String>,
    /// Workload seed handed to every child.
    pub seed: u64,
    /// Seconds of rounds per run.
    pub seconds: u64,
    /// Also make one traced run per workload.
    pub traced: bool,
    /// Run two full sets and compare them.
    pub noise: bool,
}

/// One child's output: the result line plus its `diag` lines.
#[derive(Debug, Clone)]
struct ChildResult {
    report: ParsedReport,
    diagnostics: Vec<(String, f64, String)>,
}

/// Runs one workload once in a child process of this executable.
fn run_child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}:\n{stdout}",
            output.status
        ));
    }
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let report = RunReport::parse(last.ok_or("child printed nothing")?)?;
    let diagnostics = stdout
        .lines()
        .filter_map(|l| {
            let mut p = l.strip_prefix("diag ")?.split_ascii_whitespace();
            Some((
                p.next()?.to_string(),
                p.next()?.parse().ok()?,
                p.next()?.to_string(),
            ))
        })
        .collect();
    Ok(ChildResult {
        report,
        diagnostics,
    })
}

/// (workload, metric) → (unit, one value per run) of one set of runs.
type Table = BTreeMap<(String, String), (String, Vec<f64>)>;

/// One interleaved set: `reps` untraced runs of each workload.
fn run_set(
    args: &SuiteArgs,
    workloads: &[&str],
    label: &str,
) -> Result<(Table, Table, u64), String> {
    let (mut gated, mut diag): (Table, Table) = Default::default();
    let mut failed = 0;
    for rep in 0..args.reps {
        for &w in workloads {
            eprintln!("[{label}] {w} repetition {}/{}", rep + 1, args.reps);
            let child = run_child(w, args.seed, args.seconds, false)?;
            if !child.report.correct {
                return Err(format!("{w}: outputs incorrect"));
            }
            failed += child.report.failed;
            for (table, rows) in [
                (&mut gated, child.report.metrics),
                (&mut diag, child.diagnostics),
            ] {
                for (name, value, unit) in rows {
                    let row = table.entry((w.to_string(), name)).or_default();
                    row.0 = unit;
                    row.1.push(value);
                }
            }
        }
    }
    Ok((gated, diag, failed))
}

/// (max − min) / median of a sample.
fn range_share(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values).unwrap_or(f64::NAN).abs()
}

fn print_table(title: &str, table: &Table) {
    println!("\n{title}");
    println!(
        "{:<16} {:<34} {:>12} {:>12} {:>12} {:>9}  unit",
        "workload", "metric", "median", "q1", "q3", "range/med"
    );
    for ((w, name), (unit, values)) in table {
        let (q1, _, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        println!(
            "{w:<16} {name:<34} {:>12.4} {q1:>12.4} {q3:>12.4} {:>8.2}%  {unit}",
            median(values).unwrap_or(f64::NAN),
            range_share(values) * 100.0,
        );
    }
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative: better).
fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Runs the suite; `Err` carries what to print before a non-zero exit.
pub fn run(args: &SuiteArgs) -> Result<(), String> {
    let workloads: Vec<&str> = match &args.only {
        Some(one) => vec![*NAMES
            .iter()
            .find(|n| *n == one)
            .ok_or_else(|| format!("unknown workload {one:?}; one of {NAMES:?}"))?],
        None => NAMES.to_vec(),
    };
    println!(
        "fatihbench suite: {} workload(s) x {} repetition(s), seed {}, {} s of rounds per run, \
         {} core(s)",
        workloads.len(),
        args.reps,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let (first, diag, failed) = run_set(args, &workloads, "set 1")?;
    print_table("End-to-end metrics (gated)", &first);
    print_table("Diagnostics (printed, not gated)", &diag);
    println!("\nops_failed across all runs: {failed}");

    let mut problems = Vec::new();
    if failed > 0 {
        problems.push(format!("{failed} operation(s) failed; the baseline is 0"));
    }
    if args.noise {
        let (second, _, failed2) = run_set(args, &workloads, "set 2")?;
        if failed2 > 0 {
            problems.push(format!("{failed2} operation(s) failed in set 2"));
        }
        println!("\nTwo sets of the same code against the declared bounds");
        println!("(iqr = inter-quartile distance / median, the driver's spread; gap = how much");
        println!(" worse set 2's median is than set 1's; both must stay within the bound)");
        println!(
            "{:<16} {:<20} {:>12} {:>12} {:>8} {:>8} {:>9} {:>9} {:>6}  verdict",
            "workload", "metric", "median 1", "median 2", "iqr 1", "iqr 2", "range", "gap", "bound"
        );
        for ((w, name), (_, a)) in &first {
            let b = &second[&(w.clone(), name.clone())].1;
            let spec = END_TO_END
                .iter()
                .find(|m| m.0 == name)
                .ok_or_else(|| format!("{name} is not in the catalogue"))?;
            let (ma, mb) = (median(a).unwrap_or(f64::NAN), median(b).unwrap_or(f64::NAN));
            let gap = worsening(ma, mb, spec.2);
            let (iqr_a, iqr_b) = (
                iqr_share(a).unwrap_or(f64::NAN),
                iqr_share(b).unwrap_or(f64::NAN),
            );
            // setup_s is gated on its medians only, as the driver does.
            let held = gap <= spec.3 && (name == "setup_s" || iqr_a.max(iqr_b) <= spec.3);
            println!(
                "{w:<16} {name:<20} {ma:>12.4} {mb:>12.4} {:>7.2}% {:>7.2}% {:>8.2}% {:>8.2}% {:>5.0}%  {}",
                iqr_a * 100.0,
                iqr_b * 100.0,
                range_share(a).max(range_share(b)) * 100.0,
                gap * 100.0,
                spec.3 * 100.0,
                if held { "held" } else { "NOT HELD" }
            );
            if !held {
                problems.push(format!("{w}/{name} did not hold its bound"));
            }
        }
    }
    if args.traced {
        for &w in &workloads {
            eprintln!("[traced] {w}");
            let child = run_child(w, args.seed, args.seconds, true)?;
            if !child.report.correct {
                return Err(format!("{w}: traced run incorrect"));
            }
            println!("\nPer-layer metrics of {w} (traced run)");
            for (name, value, unit) in &child.report.metrics {
                println!("  {name:<40} {value:>14.4} {unit}");
            }
        }
    }
    if problems.is_empty() {
        println!("\nall checks passed");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn range_share_is_max_minus_min_over_median() {
        assert!((range_share(&[95.0, 100.0, 105.0]) - 0.1).abs() < 1e-12);
    }
}
