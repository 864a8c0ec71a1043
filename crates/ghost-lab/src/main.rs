//! The `ghost-lab` CLI: play the policy tournament and print its league
//! table.
//!
//! ```text
//! cargo run --release -p ghost-lab -- tournament --bounded --jobs 4
//! cargo run --release -p ghost-lab -- tournament --bounded --cache lab-cache --digest digest.txt
//! ```
//!
//! The digest file pairs each cell label with its result hash; diffing
//! the digests of a `--jobs 1` and a `--jobs N` run proves the parallel
//! run is byte-identical to the serial one, and a rerun against the same
//! `--cache` executes no cell (CI checks both).

use ghost_lab::scenario::PolicyKind;
use ghost_lab::tournament::{league_table, run_tournament, TournamentOpts};
use ghost_lab::Cache;
use ghost_sim::time::{MICROS, MILLIS};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: ghost-lab tournament [--jobs N] [--seed S] [--horizon-ms N] [--slo-us N]\n\
         \x20                           [--policy NAME] [--bounded] [--cache DIR]\n\
         \x20                           [--digest FILE]\n\
         \n\
         tournament: runs every registered policy over the scenario x fault\n\
         matrix, prints the ranked league table, and exits 1 if any cell\n\
         violated a trace invariant or dropped trace records.\n\
         \n\
         --jobs N        worker threads (default 1)\n\
         --seed S        shared cell seed (default 1)\n\
         --horizon-ms N  virtual horizon per cell (default 60)\n\
         --slo-us N      wakeup-to-run latency SLO in microseconds (default 1000)\n\
         --policy NAME   restrict the field to one policy: {}\n\
         --bounded       bounded fault subset (CI matrix)\n\
         --cache DIR     content-addressed result cache directory\n\
         --digest FILE   write per-cell 'label hash points' lines",
        PolicyKind::registered()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn tournament_main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut opts = TournamentOpts::default();
    let mut jobs = 1usize;
    let mut cache_dir: Option<String> = None;
    let mut digest: Option<String> = None;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--jobs" => jobs = value("--jobs").parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--horizon-ms" => {
                let ms: u64 = value("--horizon-ms").parse().unwrap_or_else(|_| usage());
                opts.horizon = ms * MILLIS;
            }
            "--slo-us" => {
                let us: u64 = value("--slo-us").parse().unwrap_or_else(|_| usage());
                opts.slo = us * MICROS;
            }
            "--policy" => {
                let name = value("--policy");
                let p = PolicyKind::from_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown policy '{name}'");
                    usage()
                });
                opts.policies = vec![p];
            }
            "--bounded" => opts.bounded = true,
            "--cache" => cache_dir = Some(value("--cache")),
            "--digest" => digest = Some(value("--digest")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
    }
    let cache = match &cache_dir {
        Some(dir) => match Cache::open(dir) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("cannot open cache {dir}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let started = Instant::now();
    let report = run_tournament(&opts, jobs, cache.as_ref());
    let elapsed = started.elapsed();

    for c in &report.cells {
        let src = if c.cached { "cached" } else { "ran" };
        let recovery = c
            .score
            .recovery_ns
            .map(|ns| format!("  recovery {:.2} ms", ns as f64 / 1e6))
            .unwrap_or_default();
        println!(
            "{:>44}  p99 {:>9} ns  slo-viol {:>6}  compl {:>6}  pts {:>2}  {src}{recovery}{}",
            c.label,
            c.score.p99_ns,
            c.score.slo_violations,
            c.score.completions,
            c.points,
            if c.pass { "" } else { "  INVARIANT-FAIL" },
        );
    }
    println!();
    print!("{}", league_table(&report));
    println!(
        "played {} cells with {} job(s) in {:.2?}: {} executed, {} cached",
        report.cells.len(),
        jobs,
        elapsed,
        report.executed,
        report.cached
    );
    if let Some(path) = &digest {
        if let Err(e) = std::fs::write(path, report.digest()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote digest to {path}");
    }
    if report.all_passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!("tournament FAILED: at least one cell violated a trace invariant");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("tournament") => tournament_main(args),
        _ => usage(),
    }
}
