//! `fatihbench` command line.
//!
//! One run (what the driver calls; the last stdout line is the result):
//!
//! ```text
//! fatihbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The suite (no `--workload`): every workload in child processes,
//! repetitions interleaved:
//!
//! ```text
//! fatihbench [--reps N] [--only <name>] [--seed N] [--seconds S]
//!            [--traced] [--noise] [--smoke]
//! ```

use fatihbench::report::RunReport;
use fatihbench::run::{deploy, measure_setup, setup_cycle, EndToEnd};
use fatihbench::suite::{self, SuiteArgs};
use fatihbench::verdict::judge;
use fatihbench::workload::generate;
use fatihbench::{catalog, layers};
use std::process::ExitCode;

const USAGE: &str = "usage:
  fatihbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  fatihbench [--reps N] [--only <name>] [--seed N] [--seconds S] [--traced] [--noise] [--smoke]
workloads: sat-line6 paced-isp64 ctl-full-isp128 attack-isp64";

/// Where traced runs write their span files, relative to the repository
/// root the command is run from.
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<u64>,
    reps: Option<usize>,
    only: Option<String>,
    traced: bool,
    noise: bool,
    smoke: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--only" => args.only = Some(value()?),
            "--seed" => args.seed = Some(number(value()?)?),
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--trace" => args.trace = Some(number(value()?)?),
            "--reps" => args.reps = Some(number(value()?)? as usize),
            "--traced" => args.traced = true,
            "--noise" => args.noise = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One run of one workload; prints every metric, the result line last.
fn run_once(name: &str, seed: u64, seconds: u64, traced: bool) -> Result<bool, String> {
    let w = generate(name, seed, seconds)?;
    let report = if traced {
        // One cycle to warm up, an untraced deployment as the reference
        // for the tracing overhead, then the traced one.
        setup_cycle(&w)?;
        let reference = EndToEnd::of(&w, &deploy(&w, &w.cfg, false)?)?;
        let run = deploy(&w, &w.cfg, true)?;
        let verdict = judge(&w, &run.outcome, run.record.injected);
        let e2e = EndToEnd::of(&w, &run)?;
        let metrics = layers::per_layer(&w, &run, &e2e, &reference, &verdict);
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{name}.json");
        std::fs::write(&path, layers::trace_file(&w, seed, &run))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("spans written to {path}");
        report_of(&verdict, metrics, true)?
    } else {
        let setup_s = measure_setup(&w)?;
        let run = deploy(&w, &w.cfg, false)?;
        let verdict = judge(&w, &run.outcome, run.record.injected);
        let e2e = EndToEnd::of(&w, &run)?;
        for m in e2e.diagnostics(&verdict) {
            println!("diag {} {} {}", m.name, m.value, m.unit);
        }
        report_of(&verdict, e2e.metrics(setup_s), false)?
    };
    for m in &report.metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "ops_attempted {} ops_failed {} correct {}",
        report.attempted, report.failed, report.correct
    );
    println!("{}", report.to_json_line());
    Ok(report.correct)
}

fn report_of(
    verdict: &fatihbench::verdict::Verdict,
    metrics: Vec<fatihbench::report::Metric>,
    traced: bool,
) -> Result<RunReport, String> {
    catalog::check(&metrics, traced)?;
    for (what, n) in &verdict.failures {
        println!("failed {what} {n}");
    }
    for reason in &verdict.fatal {
        println!("incorrect: {reason}");
    }
    Ok(RunReport {
        correct: verdict.correct(),
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
    })
}

fn real_main() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    if let Some(name) = &args.workload {
        let trace = args.trace.unwrap_or(0);
        if trace > 1 {
            return Err("--trace takes 0 or 1".into());
        }
        return run_once(
            name,
            args.seed.unwrap_or(1),
            args.seconds.unwrap_or(12),
            trace == 1,
        );
    }
    let suite = SuiteArgs {
        reps: if args.smoke {
            1
        } else {
            args.reps.unwrap_or(5)
        },
        only: args.only,
        seed: args.seed.unwrap_or(1),
        seconds: if args.smoke {
            3
        } else {
            args.seconds.unwrap_or(12)
        },
        traced: args.traced || args.smoke,
        noise: args.noise,
    };
    if suite.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    suite::run(&suite).map(|()| true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("fatihbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
