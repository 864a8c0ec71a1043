//! The `ghost-chaos` CLI: pick a family by switch and sweep it, or
//! replay one `repro.json`. Everything past flag parsing is
//! [`ghost_chaos::driver`].
//!
//! ```text
//! cargo run -p ghost-chaos -- --combos 64           # the CI smoke sweep
//! cargo run -p ghost-chaos -- --combos 64 --jobs 4  # same results, faster
//! cargo run -p ghost-chaos -- --policy shinjuku     # one policy only
//! cargo run -p ghost-chaos -- --replay repro.json   # replay by "kind"
//! ```

use ghost_chaos::{rerun_file, Family, Opts, PolicyKind, FAMILIES};
use std::process::ExitCode;

fn usage(problem: &str) -> ! {
    let defaults: Vec<String> = FAMILIES
        .iter()
        .filter(|f| f.combos != FAMILIES[0].combos)
        .map(|f| format!("{} with {}", f.combos, f.flag))
        .collect();
    let policies: Vec<&str> = PolicyKind::registered().map(|p| p.name()).collect();
    eprintln!(
        "{problem}\n\
         usage: ghost-chaos [FAMILY] [--combos N] [--seed-base S] [--out DIR] [--policy NAME]\n\
         \x20                  [--jobs N] [--cache DIR] [--digest FILE]\n\
         \x20      ghost-chaos --replay FILE\n\
         \n\
         Sweeps N seeded cases of one family through the ghOSt runtime. A failing\n\
         case is written to DIR as repro-<i>.json plus trace-<i>.json (Chrome\n\
         format); simulated families first shrink it to a 1-minimal repro.\n\
         \n\
         FAMILY (at most one; default: fault plans on the simulated kernel)\n\
         --recovery      every plan crashes an agent or upgrades in place; odd\n\
         \x20               crash seeds arm a hot standby (bounded-recovery oracle)\n\
         --byzantine     hostile ABI call sequences from a co-resident enclave\n\
         \x20               (never-panic, typed-rejection, victim-liveness oracles)\n\
         --live          crash/hang/slow plans on the real-thread backend, judged\n\
         \x20               on the wall clock; runs serially, unshrunk\n\
         --lending       two simulated enclaves and the resource manager under\n\
         \x20               four control-plane fault rows (no stranded lease, full\n\
         \x20               grant accounting)\n\
         --lending-live  the same rows at wall-clock marks on real threads\n\
         \n\
         --combos N      cases to run (default {}; {})\n\
         --seed-base S   first seed (default 1)\n\
         --out DIR       directory for repros and traces (default chaos-out)\n\
         --policy NAME   sweep one policy of the family's pool; known policies:\n\
         \x20               {}\n\
         --replay FILE   run one repro.json instead of sweeping (kind auto-detected)\n\
         --jobs N        worker threads; results are byte-identical for every N\n\
         --cache DIR     ghost-lab result cache: unchanged cases are not re-run\n\
         --digest FILE   write 'label hash' lines, for diffing two sweeps\n\
         \x20               (--jobs, --cache, --digest: simulated families only)",
        FAMILIES[0].combos,
        defaults.join(", "),
        policies.join(", "),
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut opts = Opts {
        seed_base: 1,
        out_dir: "chaos-out".to_string(),
        ..Opts::default()
    };
    let mut family: Option<&Family> = None;
    let mut replay = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> T {
            text.parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: '{text}' is not a number")))
        }
        match arg.as_str() {
            "--combos" => opts.combos = Some(number(&arg, value())),
            "--seed-base" => opts.seed_base = number(&arg, value()),
            "--out" => opts.out_dir = value(),
            "--policy" => {
                let name = value();
                let policy = PolicyKind::from_name(&name);
                opts.policy = policy.or_else(|| usage(&format!("unknown policy '{name}'")));
            }
            "--replay" => replay = Some(value()),
            "--jobs" => opts.jobs = Some(number(&arg, value())),
            "--cache" => opts.cache = Some(value()),
            "--digest" => opts.digest = Some(value()),
            "--help" | "-h" => usage("ghost-chaos: fault-injection sweeps for the ghOSt runtime"),
            flag => match FAMILIES.iter().find(|f| f.flag == flag) {
                Some(f) => {
                    if let Some(first) = family.replace(f) {
                        usage(&format!("{} and {flag}: pick one family", first.flag));
                    }
                }
                None => usage(&format!("unknown argument '{flag}'")),
            },
        }
    }
    let verdict = match &replay {
        Some(path) => rerun_file(path, &FAMILIES),
        None => (family.unwrap_or(&FAMILIES[0]).sweep)(&opts),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(problem) => {
            eprintln!("ghost-chaos: {problem} (--help for usage)");
            ExitCode::from(2)
        }
    }
}
