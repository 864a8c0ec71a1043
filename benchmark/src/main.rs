//! `ghost-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! One invocation runs one workload at one seed. `--trace 0` is the timed
//! run and prints the end-to-end metrics; `--trace 1` (or `--traced`) is
//! the traced run and prints the per-layer metrics. `--list` prints every
//! metric name and unit. The last line of standard output is the JSON
//! object the driver reads; the exit code is non-zero when a correctness
//! check failed.

use ghost_benchmark::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use ghost_benchmark::report::{print, Outcome};
use ghost_benchmark::timing::RunArgs;
use ghost_benchmark::{des, live};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: ghost-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> | --list";

fn list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<24} {why}");
    }
    for (title, defs) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        println!("{title} metrics:");
        for d in defs {
            println!("  {:<48} {:<6} better: {}", d.name, d.unit, d.better);
        }
    }
}

/// Parses the command line; `Ok(None)` means `--list` was handled.
fn parse(started: Instant) -> Result<Option<(String, RunArgs, bool)>, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => {
                list();
                return Ok(None);
            }
            "--traced" => traced = true,
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let args = RunArgs {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        started,
    };
    Ok(Some((
        workload.ok_or("--workload is required")?,
        args,
        traced,
    )))
}

fn run(workload: &str, args: &RunArgs, traced: bool) -> Result<Outcome, String> {
    match (workload, traced) {
        ("des-pulse-central", false) => des::pulse_timed(args),
        ("des-pulse-central", true) => des::pulse_traced(args),
        ("des-fig5-rome256", false) => des::fig5_timed(args),
        ("des-fig5-rome256", true) => des::fig5_traced(args),
        ("des-tournament-traced", false) => des::tournament_timed(args),
        ("des-tournament-traced", true) => des::tournament_traced(args),
        ("live-closed-central", false) => live::closed_timed(args),
        ("live-closed-central", true) => live::closed_traced(args),
        ("live-open-percpu", false) => live::open_timed(args),
        ("live-open-percpu", true) => live::open_traced(args),
        _ => Err(format!("unknown workload {workload}; try --list")),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let (workload, args, traced) = match parse(started) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let printed = run(&workload, &args, traced).and_then(|outcome| {
        println!(
            "# {workload} seed {} {} run, {:.1} s wall",
            args.seed,
            if traced { "traced" } else { "timed" },
            started.elapsed().as_secs_f64()
        );
        let defs = if traced { PER_LAYER } else { END_TO_END };
        print(&outcome, defs, !traced).map(|()| outcome.errors.is_empty())
    });
    match printed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ghost-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
