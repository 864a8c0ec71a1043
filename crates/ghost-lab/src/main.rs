//! The `ghost-lab` CLI: run a matrix of scenarios on the parallel
//! sweep engine and print (or write) the per-scenario result digest,
//! or play the policy tournament and print its league table.
//!
//! ```text
//! cargo run -p ghost-lab -- sweep --scenarios 20 --jobs 4
//! cargo run -p ghost-lab -- sweep --jobs 4 --cache lab-cache --digest digest.txt
//! cargo run --release -p ghost-lab -- tournament --bounded --jobs 4
//! ```
//!
//! The digest file pairs each scenario label with its result hash;
//! diffing the digests of a `--jobs 1` and a `--jobs N` run proves the
//! parallel sweep is byte-identical to the serial one (CI does exactly
//! this for the chaos recovery sweep).

use ghost_lab::engine::run_sweep;
use ghost_lab::scenario::{PolicyKind, Scenario, WorkloadSpec};
use ghost_lab::tournament::{league_table, run_tournament, TournamentOpts};
use ghost_lab::Cache;
use ghost_sim::time::{MICROS, MILLIS};
use std::process::ExitCode;
use std::time::Instant;

struct Opts {
    scenarios: u64,
    jobs: usize,
    seed_base: u64,
    policy: Option<PolicyKind>,
    cache: Option<String>,
    digest: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ghost-lab sweep [--scenarios N] [--jobs N] [--seed-base S] [--policy NAME]\n\
         \x20                      [--cache DIR] [--digest FILE]\n\
         \x20      ghost-lab tournament [--jobs N] [--seed S] [--horizon-ms N] [--slo-us N]\n\
         \x20                           [--policy NAME] [--bounded] [--cache DIR]\n\
         \x20                           [--digest FILE]\n\
         \n\
         sweep: runs an N-scenario pulse-workload matrix (round-robin over the\n\
         five evaluation policies) on the deterministic parallel sweep engine.\n\
         \n\
         --scenarios N   matrix size (default 10)\n\
         --jobs N        worker threads (default 1)\n\
         --seed-base S   first seed (default 1)\n\
         --policy NAME   restrict to one policy: {}\n\
         --cache DIR     content-addressed result cache directory\n\
         --digest FILE   write 'label hash' lines for serial-vs-parallel diffing\n\
         \n\
         tournament: runs every registered policy over the scenario x fault\n\
         matrix, prints the ranked league table, and exits 1 if any cell\n\
         violated a trace invariant or dropped trace records.\n\
         \n\
         --jobs N        worker threads (default 1)\n\
         --seed S        shared cell seed (default 1)\n\
         --horizon-ms N  virtual horizon per cell (default 60)\n\
         --slo-us N      wakeup-to-run latency SLO in microseconds (default 1000)\n\
         --policy NAME   restrict the field to one policy\n\
         --bounded       bounded fault subset (CI matrix)\n\
         --cache DIR     content-addressed result cache directory\n\
         --digest FILE   write per-cell 'label hash points' lines",
        PolicyKind::evaluation_matrix()
            .iter()
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

fn parse_opts() -> Opts {
    let mut opts = Opts {
        scenarios: 10,
        jobs: 1,
        seed_base: 1,
        policy: None,
        cache: None,
        digest: None,
    };
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("sweep") => {}
        _ => usage(),
    }
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--scenarios" => {
                opts.scenarios = value("--scenarios").parse().unwrap_or_else(|_| usage());
            }
            "--jobs" => opts.jobs = value("--jobs").parse().unwrap_or_else(|_| usage()),
            "--seed-base" => {
                opts.seed_base = value("--seed-base").parse().unwrap_or_else(|_| usage());
            }
            "--policy" => {
                let name = value("--policy");
                opts.policy = Some(PolicyKind::from_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown policy '{name}'");
                    usage()
                }));
            }
            "--cache" => opts.cache = Some(value("--cache")),
            "--digest" => opts.digest = Some(value("--digest")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
    }
    opts
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("tournament") {
        return tournament_main(std::env::args().skip(2));
    }
    let opts = parse_opts();
    let policies: Vec<PolicyKind> = match opts.policy {
        Some(p) => vec![p],
        None => PolicyKind::evaluation_matrix(),
    };
    let scenarios: Vec<Scenario> = (0..opts.scenarios)
        .map(|i| {
            let policy = policies[(i % policies.len() as u64) as usize];
            let seed = opts.seed_base + i;
            Scenario::builder()
                .name(format!("{}/seed={seed}", policy.name()))
                .cpus(8)
                .policy(policy)
                .workload(WorkloadSpec::pulse(5))
                .seed(seed)
                .horizon(50 * MILLIS)
                .watchdog(20 * MILLIS)
                .trace_capacity(1 << 16)
                .build()
        })
        .collect();

    let cache = match &opts.cache {
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
    let report = run_sweep(&scenarios, opts.jobs, cache.as_ref());
    let elapsed = started.elapsed();

    for item in &report.items {
        let src = if item.cached { "cached" } else { "ran" };
        println!("{:>32}  {:016x}  {src}", item.label, item.result.hash);
    }
    println!(
        "swept {} scenarios with {} job(s) in {:.2?}: {} executed, {} cached",
        report.items.len(),
        opts.jobs,
        elapsed,
        report.executed,
        report.cached
    );
    if let Some(path) = &opts.digest {
        if let Err(e) = std::fs::write(path, report.digest()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote digest to {path}");
    }
    ExitCode::SUCCESS
}
