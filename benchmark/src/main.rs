//! `gfs-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! A run is a fixed number of passes (`run::PASSES`); `--seconds` is
//! accepted and changes nothing. `BENCHMARK.json` gives as `run_seconds`
//! what a run takes on the box the workloads were sized on.
//!
//! Prints every metric by name with its unit, the operations attempted
//! and failed, and — as the last line of standard output — one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero
//! when any operation or check failed. `--aa K` compares repeated runs;
//! see `README.md`.

use std::path::Path;
use std::process::ExitCode;

use gfs_benchmark::compare;
use gfs_benchmark::run::{run_traced, run_untraced};
use gfs_benchmark::stats::pin_malloc_thresholds;
use gfs_benchmark::workloads::{Scale, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: gfs-benchmark [--workload paper_light|paper_backlog|fleet_sparse|churn_recover|all] \
[--seed N] [--seconds S] [--trace 0|1] [--aa K]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    trace: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        trace: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or_else(|| format!("no workload {value}"))?);
            }
            "--seed" => args.seed = number()?,
            // a run is `PASSES` passes whatever the budget, so that parent
            // and change, a quiet hour and a busy one, measure the same work
            "--seconds" => drop(number()?),
            "--trace" => args.trace = number()? != 0,
            "--aa" => args.aa = Some(number()?.max(1) as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.aa.is_some() && args.trace {
        return Err("--aa compares end-to-end metrics, which come from untraced runs".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    pin_malloc_thresholds();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let compared = match (args.aa, args.workload) {
        (Some(k), _) => Some(compare::aa(k, args.seed)),
        (None, None) => Some(compare::all(args.seed, args.trace)),
        (None, Some(_)) => None,
    };
    if let Some(outcome) = compared {
        return match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let workload = args.workload.expect("a single workload is left");
    let result = if args.trace {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        run_traced(workload, args.seed, Scale::FULL, Some(&out))
    } else {
        run_untraced(workload, args.seed, Scale::FULL)
    };
    println!("workload {} seed {}", workload.name(), args.seed);
    print!("{}", result.text);
    println!(
        "operations: {} attempted, {} failed",
        result.attempted,
        result.failures.len()
    );
    for failure in &result.failures {
        eprintln!("FAILED: {failure}");
    }
    println!("{}", result.result_line());
    if result.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
