//! The repository's end-to-end benchmark. One binary, two workloads:
//!
//! - `encrypted-suite`: encrypted requests over seven programs at N = 2^11;
//! - `serve-mix`: open-loop traffic against the multi-session server.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! ```
//!
//! It prints a `detail` JSON line (every metric measured, exact counts and
//! notes), then, as its last line, the result: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. With `--trace 1` it
//! also writes the recorded spans to `DIR/spans-<workload>-<seed>.json`.

mod alloc;
mod compiles;
mod encrypted;
mod programs;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Report, E2E};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = value()? == "1",
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

/// An output passes when its largest slot error is below 2^-7 of the
/// reference's magnitude (at least 1).
pub fn within_tolerance(max_abs_err: f64, reference: &[Vec<f64>]) -> bool {
    let magnitude = reference
        .iter()
        .flatten()
        .fold(1.0f64, |m, v| m.max(v.abs()));
    max_abs_err <= magnitude * 2f64.powi(-7)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        trace::enable();
    }
    let mut rep = Report::default();
    let outcome = match args.workload.as_str() {
        "encrypted-suite" => encrypted::run(&args, &mut rep),
        "serve-mix" => serve::run(&args, &mut rep),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    rep.layer("fail_rate", rep.failed as f64 / rep.attempted.max(1) as f64);
    if args.trace {
        let path = args
            .out
            .join(format!("spans-{}-{}.json", args.workload, args.seed));
        match trace::write_chrome(&path) {
            Ok(n) => {
                rep.layer("trace.spans", n as f64);
                rep.note("spans_file", path.display().to_string());
            }
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let missing: Vec<&str> = E2E
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !rep.e2e.get(*n).is_some_and(|v| v.is_finite()))
        .collect();
    if !missing.is_empty() {
        eprintln!("perfbench: no value for {missing:?}");
        return ExitCode::FAILURE;
    }
    let correct = rep.failed == 0 && rep.attempted > 0;
    println!("{}", rep.detail_json(&args.workload, args.seed, args.trace));
    println!("{}", rep.result_json(args.trace, correct));
    ExitCode::SUCCESS
}
