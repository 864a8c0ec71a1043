//! The `ghost-chaos` CLI: sweep fault-injected combos across all five
//! evaluation policies, shrink any failure to a minimal repro, and write
//! `repro.json` + a Chrome trace for offline debugging.
//!
//! The sweep runs on the `ghost-lab` parallel experiment engine: each
//! combo is a deterministic single-threaded simulation, so `--jobs N`
//! changes wall-clock time and nothing else — per-combo result hashes
//! (and any repro/trace files) are byte-identical to a serial run. CI
//! diffs the `--digest` output of a `--jobs 1` and a `--jobs 4` run to
//! enforce exactly that. Shrinking happens serially after the sweep,
//! so repro files never depend on worker scheduling either.
//!
//! ```text
//! cargo run -p ghost-chaos -- --combos 64           # the CI smoke sweep
//! cargo run -p ghost-chaos -- --combos 64 --jobs 4  # same results, faster
//! cargo run -p ghost-chaos -- --policy shinjuku     # one policy only
//! cargo run -p ghost-chaos -- --replay repro.json   # deterministic replay
//! ```

use ghost_chaos::repro::{
    is_byzantine_repro, is_lending_live_repro, is_lending_repro, is_live_repro,
};
use ghost_chaos::{
    byz_from_json, byz_to_json, combo_from_json, combo_to_json, lending_combo, lending_from_json,
    lending_live_from_json, lending_live_policies, lending_live_to_json, lending_policies,
    lending_to_json, live_from_json, live_policies, live_to_json, run_byzantine, run_combo,
    run_lending_live, run_live_combo, shrink, shrink_byzantine, ByzCombo, ByzExperiment, Combo,
    ComboExperiment, LendingLiveCombo, LiveCombo, PolicyKind,
};
use ghost_lab::bench::{merged_bench_json, BenchRow};
use ghost_lab::lease_reclaim_rows;
use ghost_lab::LendingScenario;
use ghost_lab::{run_sweep, Cache};
use std::process::ExitCode;
use std::time::Instant;

struct Opts {
    combos: Option<u64>,
    seed_base: u64,
    out_dir: String,
    policy: Option<PolicyKind>,
    replay: Option<String>,
    recovery: bool,
    byzantine: bool,
    live: bool,
    lending: bool,
    lending_live: bool,
    bench_out: Option<String>,
    jobs: usize,
    cache: Option<String>,
    digest: Option<String>,
}

impl Opts {
    /// Sweep size: 64 for simulated fault sweeps, 16 for `--lending`
    /// (2 policies x 4 faults x 2 seeds), 6 for `--live`, and 4 for
    /// `--lending-live` (one wall-clock run per fault row) unless
    /// `--combos` says otherwise.
    fn combos(&self) -> u64 {
        self.combos.unwrap_or(if self.lending {
            16
        } else if self.lending_live {
            4
        } else if self.live {
            6
        } else {
            64
        })
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ghost-chaos [--combos N] [--seed-base S] [--out DIR] [--policy NAME] \
         [--replay FILE] [--jobs N] [--cache DIR] [--digest FILE]\n\
         \n\
         Sweeps N (policy x workload x fault-plan x seed) combos through the\n\
         simulated ghOSt runtime. Failing combos are shrunk to a minimal fault\n\
         plan; DIR receives repro-<i>.json plus trace-<i>.json (Chrome format).\n\
         \n\
         --combos N      number of combos to run (default 64; 6 with --live)\n\
         --seed-base S   first seed (default 1)\n\
         --out DIR       output directory for repros (default chaos-out)\n\
         --policy NAME   restrict to one policy: {}\n\
         --replay FILE   replay one repro.json instead of sweeping\n\
         --recovery      recovery sweep: every plan crashes an agent or\n\
                         upgrades in place; odd crash seeds arm a hot\n\
                         standby judged by the bounded-recovery oracle\n\
         --byzantine     byzantine sweep: each combo runs a seeded hostile\n\
                         ABI call sequence from a co-resident malicious\n\
                         enclave, judged by the never-panic,\n\
                         typed-rejection, and victim-liveness oracles\n\
         --live          live sweep: inject crash/hang/slow plans into the\n\
                         ghost-live real-thread backend, judged by\n\
                         wall-clock oracles (grace-windowed invariants,\n\
                         stranded workers, recovery within 1 s); failures\n\
                         capture repro.json without shrinking\n\
         --lending       multi-enclave lending sweep: rotate the four\n\
                         control-plane fault rows (rm-crash,\n\
                         borrower-crash, revoke-reconstruct,\n\
                         deadline-stress) x policies through the simulated\n\
                         two-enclave RM harness; oracles require zero\n\
                         stranded leases and full grant accounting\n\
         --lending-live  the same four lending fault rows on the\n\
                         real-thread backend, injected at wall-clock\n\
                         marks; failures capture repro.json unshrunk\n\
         --bench-out F   (--live, --lending, --lending-live) write/merge\n\
                         measured rows (recovery/shed, lease-reclaim\n\
                         latency) into bench JSON file F\n\
         --jobs N        worker threads for the sweep (default 1); results\n\
                         are byte-identical for every N\n\
         --cache DIR     ghost-lab result cache: unchanged combos are not\n\
                         re-simulated\n\
         --digest FILE   write 'label hash' lines for serial-vs-parallel\n\
                         comparison",
        PolicyKind::evaluation_matrix()
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        combos: None,
        seed_base: 1,
        out_dir: "chaos-out".to_string(),
        policy: None,
        replay: None,
        recovery: false,
        byzantine: false,
        live: false,
        lending: false,
        lending_live: false,
        bench_out: None,
        jobs: 1,
        cache: None,
        digest: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--combos" => {
                opts.combos = Some(value("--combos").parse().unwrap_or_else(|_| usage()));
            }
            "--seed-base" => {
                opts.seed_base = value("--seed-base").parse().unwrap_or_else(|_| usage());
            }
            "--out" => opts.out_dir = value("--out"),
            "--policy" => {
                let name = value("--policy");
                opts.policy = Some(PolicyKind::from_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown policy '{name}'");
                    usage()
                }));
            }
            "--replay" => opts.replay = Some(value("--replay")),
            "--recovery" => opts.recovery = true,
            "--byzantine" => opts.byzantine = true,
            "--live" => opts.live = true,
            "--lending" => opts.lending = true,
            "--lending-live" => opts.lending_live = true,
            "--bench-out" => opts.bench_out = Some(value("--bench-out")),
            "--jobs" => opts.jobs = value("--jobs").parse().unwrap_or_else(|_| usage()),
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

fn replay_byzantine(path: &str, doc: &str) -> ExitCode {
    let combo = match byz_from_json(doc) {
        Ok(combo) => combo,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {path}: byzantine victim={} seed={} ops={}",
        combo.victim.name(),
        combo.seed,
        combo.ops.len()
    );
    let report = run_byzantine(&combo);
    println!(
        "  victim_completions={} hostile_rejected={} abi_rejects={} quarantined={}",
        report.victim_completions,
        report.hostile_rejected,
        report.stats.abi_rejects_total(),
        report.quarantined
    );
    if report.failures.is_empty() {
        println!("  PASS: all oracles clean");
        ExitCode::SUCCESS
    } else {
        for f in &report.failures {
            println!("  FAIL {f}");
        }
        ExitCode::FAILURE
    }
}

fn replay_live(path: &str, doc: &str) -> ExitCode {
    let combo = match live_from_json(doc) {
        Ok(combo) => combo,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {path}: live policy={} seed={} faults={} (wall-clock; \
         plan replays exactly, interleaving is best-effort)",
        combo.policy.name(),
        combo.seed,
        combo.plan.events.len()
    );
    let report = run_live_combo(&combo);
    println!(
        "  completed={} shed={} failed={} respawns={} reconstructions={} recovery={}",
        report.completed,
        report.shed,
        report.failed,
        report.stats.respawns,
        report.stats.reconstructions,
        report
            .recovery_wall_ns
            .map(|ns| format!("{:.1} ms", ns as f64 / 1e6))
            .unwrap_or_else(|| "-".into()),
    );
    if report.failures.is_empty() {
        println!("  PASS: all oracles clean");
        ExitCode::SUCCESS
    } else {
        for f in &report.failures {
            println!("  FAIL {f}");
        }
        ExitCode::FAILURE
    }
}

fn replay_lending(path: &str, doc: &str) -> ExitCode {
    let sc = match lending_from_json(doc) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {path}: lending policy={} workload={} fault={} seed={}",
        sc.policy.name(),
        sc.workload.name(),
        sc.fault.name(),
        sc.seed
    );
    let result = sc.run();
    for line in &result.lines {
        println!("  {line}");
    }
    if result.pass {
        println!("  PASS: all oracles clean");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn replay_lending_live(path: &str, doc: &str) -> ExitCode {
    let combo = match lending_live_from_json(doc) {
        Ok(combo) => combo,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {path}: lending-live policy={} fault={} seed={} (wall-clock; \
         the fault schedule replays exactly, interleaving is best-effort)",
        combo.policy.name(),
        combo.fault.name(),
        combo.seed
    );
    let report = run_lending_live(&combo);
    print_lending_live_report(&report);
    if report.failures.is_empty() {
        println!("  PASS: all oracles clean");
        ExitCode::SUCCESS
    } else {
        for f in &report.failures {
            println!("  FAIL {f}");
        }
        ExitCode::FAILURE
    }
}

fn print_lending_live_report(report: &ghost_chaos::LendingLiveReport) {
    let s = &report.lease_stats;
    println!(
        "  completed={} granted={} returned={} expired={} borrower-deaths={} \
         lender-deaths={} outstanding={} rm-restarts={} reclaim-p99={}",
        report.completed,
        s.granted,
        s.returned,
        s.expired,
        s.borrower_deaths,
        s.lender_deaths,
        report.outstanding,
        report.rm_restarts,
        percentile(&report.reclaim_spans, 0.99)
            .map(|ns| format!("{:.2} ms", ns as f64 / 1e6))
            .unwrap_or_else(|| "-".into()),
    );
}

/// Nearest-rank percentile over an unsorted span list.
fn percentile(spans: &[u64], q: f64) -> Option<u64> {
    if spans.is_empty() {
        return None;
    }
    let mut sorted = spans.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

fn replay(path: &str) -> ExitCode {
    let doc = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if is_byzantine_repro(&doc) {
        return replay_byzantine(path, &doc);
    }
    if is_live_repro(&doc) {
        return replay_live(path, &doc);
    }
    if is_lending_repro(&doc) {
        return replay_lending(path, &doc);
    }
    if is_lending_live_repro(&doc) {
        return replay_lending_live(path, &doc);
    }
    let combo = match combo_from_json(&doc) {
        Ok(combo) => combo,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {path}: policy={} seed={} faults={}",
        combo.policy.name(),
        combo.seed,
        combo.plan.events.len()
    );
    let report = run_combo(&combo);
    println!(
        "  completions={} txns={} watchdog_destroys={} upgrades={}",
        report.completions,
        report.stats.txns_committed,
        report.stats.watchdog_destroys,
        report.stats.upgrades
    );
    if report.failures.is_empty() {
        println!("  PASS: all oracles clean");
        ExitCode::SUCCESS
    } else {
        for f in &report.failures {
            println!("  FAIL {f}");
        }
        ExitCode::FAILURE
    }
}

fn open_cache(dir: Option<&String>) -> Result<Option<Cache>, ExitCode> {
    match dir {
        Some(dir) => match Cache::open(dir) {
            Ok(c) => Ok(Some(c)),
            Err(e) => {
                eprintln!("cannot open cache {dir}: {e}");
                Err(ExitCode::from(2))
            }
        },
        None => Ok(None),
    }
}

fn write_byz_repro(out_dir: &str, index: u64, combo: &ByzCombo) {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return;
    }
    let repro_path = format!("{out_dir}/repro-{index}.json");
    let trace_path = format!("{out_dir}/trace-{index}.json");
    if let Err(e) = std::fs::write(&repro_path, byz_to_json(combo)) {
        eprintln!("cannot write {repro_path}: {e}");
    }
    // Re-run the shrunk combo to capture the trace of the minimal repro.
    let report = run_byzantine(combo);
    if let Err(e) = std::fs::write(&trace_path, ghost_trace::chrome::export(&report.records)) {
        eprintln!("cannot write {trace_path}: {e}");
    }
    println!("  wrote {repro_path} and {trace_path}");
}

// Byzantine sweep: hostile ABI call sequences from a co-resident
// malicious enclave, rotated over the victim policies. Failing combos
// shrink to a 1-minimal op sequence, serially, like the fault sweep.
fn byzantine_sweep(opts: &Opts) -> ExitCode {
    let victims: Vec<PolicyKind> = match opts.policy {
        Some(p) if ByzCombo::victims().contains(&p) => vec![p],
        Some(p) => {
            eprintln!(
                "policy '{}' cannot be a byzantine victim (it cannot co-reside \
                 with the hostile enclave)",
                p.name()
            );
            return ExitCode::from(2);
        }
        None => ByzCombo::victims(),
    };
    let exps: Vec<ByzExperiment> = (0..opts.combos())
        .map(|i| {
            let victim = victims[(i % victims.len() as u64) as usize];
            ByzExperiment(ByzCombo::generated(victim, opts.seed_base + i))
        })
        .collect();
    let cache = match open_cache(opts.cache.as_ref()) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let started = Instant::now();
    let report = run_sweep(&exps, opts.jobs, cache.as_ref());
    let elapsed = started.elapsed();
    let mut failed = 0u64;
    for (i, item) in report.items.iter().enumerate() {
        if item.result.pass {
            continue;
        }
        failed += 1;
        let combo = &exps[i].0;
        println!(
            "combo {i}: byzantine victim={} seed={} ops={} FAILED:",
            combo.victim.name(),
            combo.seed,
            combo.ops.len()
        );
        for line in item.result.lines.iter() {
            if let Some(f) = line.strip_prefix("failure ") {
                println!("  {f}");
            }
        }
        let minimal = shrink_byzantine(combo);
        println!(
            "  shrunk op sequence: {} -> {} op(s)",
            combo.ops.len(),
            minimal.ops.len()
        );
        write_byz_repro(&opts.out_dir, i as u64, &minimal);
    }
    println!(
        "swept {} byzantine combos across {} victim(s) with {} job(s) in {:.2?} \
         ({} executed, {} cached): {} failed",
        opts.combos(),
        victims.len(),
        opts.jobs,
        elapsed,
        report.executed,
        report.cached,
        failed
    );
    if let Some(path) = &opts.digest {
        if let Err(e) = std::fs::write(path, report.digest()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote digest to {path}");
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_live_repro(
    out_dir: &str,
    index: u64,
    combo: &LiveCombo,
    records: &[ghost_trace::TraceRecord],
) {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return;
    }
    let repro_path = format!("{out_dir}/repro-{index}.json");
    let trace_path = format!("{out_dir}/trace-{index}.json");
    if let Err(e) = std::fs::write(&repro_path, live_to_json(combo)) {
        eprintln!("cannot write {repro_path}: {e}");
    }
    // Live runs are not replayed for the trace: export the failing
    // run's own recording (re-running would observe a different
    // interleaving).
    if let Err(e) = std::fs::write(&trace_path, ghost_trace::chrome::export(records)) {
        eprintln!("cannot write {trace_path}: {e}");
    }
    println!("  wrote {repro_path} and {trace_path}");
}

// Live sweep: wall-clock fault injection on the real-thread backend.
// Serial on purpose — combos run real OS threads and would contend for
// cores — and unshrunk on purpose: re-running a live combo observes a
// different interleaving, so a failure captures its plan and its trace.
fn live_sweep(opts: &Opts) -> ExitCode {
    let policies: Vec<PolicyKind> = match opts.policy {
        Some(p) if live_policies().contains(&p) => vec![p],
        Some(p) => {
            eprintln!(
                "policy '{}' has no live sweep (only centralized-fifo and per-cpu \
                 run on the real-thread backend)",
                p.name()
            );
            return ExitCode::from(2);
        }
        None => live_policies(),
    };
    let combos = opts.combos();
    let started = Instant::now();
    let mut failed = 0u64;
    let mut recovery_rows: Vec<BenchRow> = Vec::new();
    let mut shed_total = 0u64;
    let mut shed_wall: u128 = 0;
    for i in 0..combos {
        let policy = policies[(i % policies.len() as u64) as usize];
        let combo = LiveCombo::generated(policy, opts.seed_base + i);
        let kinds: Vec<&str> = combo
            .plan
            .events
            .iter()
            .map(|fe| fe.kind.name())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let report = run_live_combo(&combo);
        println!(
            "combo {i}: live policy={} seed={} fault={} completed={} shed={} failed={} \
             recovery={} wall={:.2} s{}",
            policy.name(),
            combo.seed,
            kinds.join("+"),
            report.completed,
            report.shed,
            report.failed,
            report
                .recovery_wall_ns
                .map(|ns| format!("{:.1} ms", ns as f64 / 1e6))
                .unwrap_or_else(|| "-".into()),
            report.wall_ns as f64 / 1e9,
            if report.failures.is_empty() {
                ""
            } else {
                " FAILED:"
            },
        );
        if let Some(ns) = report.recovery_wall_ns {
            recovery_rows.push(BenchRow::measured(
                format!("chaos-recovery-{}", policy.name()),
                "live",
                ns as u128,
                None,
                report.stats.respawns,
            ));
        }
        shed_total += report.shed;
        shed_wall += report.wall_ns;
        if !report.failures.is_empty() {
            failed += 1;
            for f in &report.failures {
                println!("  {f}");
            }
            write_live_repro(&opts.out_dir, i, &combo, &report.records);
        }
    }
    println!(
        "swept {combos} live combos across {} policies in {:.2?}: {failed} failed",
        policies.len(),
        started.elapsed(),
    );
    if let Some(path) = &opts.bench_out {
        let mut rows = recovery_rows;
        rows.push(BenchRow::measured(
            "chaos-degraded-shed",
            "live",
            shed_wall.max(1),
            None,
            shed_total,
        ));
        let existing = std::fs::read_to_string(path).ok();
        match std::fs::write(path, merged_bench_json(existing.as_deref(), &rows)) {
            Ok(()) => println!("wrote {} bench row(s) to {path}", rows.len()),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_lending_repro(out_dir: &str, index: u64, sc: &LendingScenario) {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return;
    }
    let repro_path = format!("{out_dir}/repro-{index}.json");
    let trace_path = format!("{out_dir}/trace-{index}.json");
    if let Err(e) = std::fs::write(&repro_path, lending_to_json(sc)) {
        eprintln!("cannot write {repro_path}: {e}");
    }
    // Deterministic simulation: re-run the scenario to capture the
    // failing run's trace.
    let (_, sink) = sc.run_traced();
    if let Err(e) = std::fs::write(&trace_path, ghost_trace::chrome::export(&sink.snapshot())) {
        eprintln!("cannot write {trace_path}: {e}");
    }
    println!("  wrote {repro_path} and {trace_path}");
}

// Lending sweep: the four control-plane fault rows x protected-enclave
// policies on the simulated two-enclave RM harness. Parallel-safe and
// digest-diffable like the fault sweep; failures replay exactly.
fn lending_sweep(opts: &Opts) -> ExitCode {
    let policies: Vec<PolicyKind> = match opts.policy {
        Some(p) if lending_policies().contains(&p) => vec![p],
        Some(p) => {
            eprintln!(
                "policy '{}' is not in the lending sweep (centralized \
                 protected-enclave policies only)",
                p.name()
            );
            return ExitCode::from(2);
        }
        None => lending_policies(),
    };
    let exps: Vec<LendingScenario> = (0..opts.combos())
        .map(|i| lending_combo(i, opts.seed_base, &policies))
        .collect();
    let cache = match open_cache(opts.cache.as_ref()) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let started = Instant::now();
    let report = run_sweep(&exps, opts.jobs, cache.as_ref());
    let elapsed = started.elapsed();
    let mut failed = 0u64;
    for (i, item) in report.items.iter().enumerate() {
        if item.result.pass {
            continue;
        }
        failed += 1;
        println!("combo {i}: {} FAILED:", item.label);
        for line in item.result.lines.iter() {
            if let Some(f) = line.strip_prefix("oracle-fail ") {
                println!("  {f}");
            }
        }
        write_lending_repro(&opts.out_dir, i as u64, &exps[i]);
    }
    println!(
        "swept {} lending combos across {} policies x 4 fault rows with {} job(s) \
         in {:.2?} ({} executed, {} cached): {} failed",
        opts.combos(),
        policies.len(),
        opts.jobs,
        elapsed,
        report.executed,
        report.cached,
        failed
    );
    if let Some(path) = &opts.digest {
        if let Err(e) = std::fs::write(path, report.digest()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote digest to {path}");
    }
    if let Some(path) = &opts.bench_out {
        let rows = lease_reclaim_rows(&policies, opts.seed_base);
        let existing = std::fs::read_to_string(path).ok();
        match std::fs::write(path, merged_bench_json(existing.as_deref(), &rows)) {
            Ok(()) => println!("wrote {} lease-reclaim row(s) to {path}", rows.len()),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// Live lending sweep: the same fault rows at wall-clock marks on the
// real-thread backend. Serial and unshrunk for the same reasons as
// `live_sweep`.
fn lending_live_sweep(opts: &Opts) -> ExitCode {
    let policies: Vec<PolicyKind> = match opts.policy {
        Some(p) if lending_live_policies().contains(&p) => vec![p],
        Some(p) => {
            eprintln!(
                "policy '{}' has no live lending sweep (only centralized-fifo and \
                 per-cpu run on the real-thread backend)",
                p.name()
            );
            return ExitCode::from(2);
        }
        None => lending_live_policies(),
    };
    let combos = opts.combos();
    let started = Instant::now();
    let mut failed = 0u64;
    let mut spans_by_policy: std::collections::BTreeMap<&'static str, Vec<u64>> =
        std::collections::BTreeMap::new();
    let mut wall_by_policy: std::collections::BTreeMap<&'static str, u128> =
        std::collections::BTreeMap::new();
    for i in 0..combos {
        let policy = policies[(i % policies.len() as u64) as usize];
        let combo = LendingLiveCombo::generated(policy, opts.seed_base + i);
        let report = run_lending_live(&combo);
        println!(
            "combo {i}: lending-live policy={} seed={} fault={} wall={:.2} s{}",
            policy.name(),
            combo.seed,
            combo.fault.name(),
            report.wall_ns as f64 / 1e9,
            if report.failures.is_empty() {
                ""
            } else {
                " FAILED:"
            },
        );
        print_lending_live_report(&report);
        spans_by_policy
            .entry(policy.name())
            .or_default()
            .extend(&report.reclaim_spans);
        *wall_by_policy.entry(policy.name()).or_default() += report.wall_ns;
        if !report.failures.is_empty() {
            failed += 1;
            for f in &report.failures {
                println!("  {f}");
            }
            if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
                eprintln!("cannot create {}: {e}", opts.out_dir);
            } else {
                let repro_path = format!("{}/repro-{i}.json", opts.out_dir);
                let trace_path = format!("{}/trace-{i}.json", opts.out_dir);
                if let Err(e) = std::fs::write(&repro_path, lending_live_to_json(&combo)) {
                    eprintln!("cannot write {repro_path}: {e}");
                }
                if let Err(e) =
                    std::fs::write(&trace_path, ghost_trace::chrome::export(&report.records))
                {
                    eprintln!("cannot write {trace_path}: {e}");
                }
                println!("  wrote {repro_path} and {trace_path}");
            }
        }
    }
    println!(
        "swept {combos} live lending combos across {} policies in {:.2?}: {failed} failed",
        policies.len(),
        started.elapsed(),
    );
    if let Some(path) = &opts.bench_out {
        let rows: Vec<BenchRow> = spans_by_policy
            .iter()
            .filter(|(_, spans)| !spans.is_empty())
            .map(|(name, spans)| BenchRow {
                name: format!("lease-reclaim-{name}"),
                backend: "live",
                wall_ns: *wall_by_policy.get(name).unwrap_or(&1),
                sim_ns: None,
                work_items: spans.len() as u64,
                score: Some(ghost_lab::ScoreCols {
                    p50_ns: percentile(spans, 0.5).unwrap_or(0),
                    p99_ns: percentile(spans, 0.99).unwrap_or(0),
                    p999_ns: percentile(spans, 0.999).unwrap_or(0),
                    slo_violations: 0,
                    recovery_ns: None,
                    points: 0,
                }),
            })
            .collect();
        let existing = std::fs::read_to_string(path).ok();
        match std::fs::write(path, merged_bench_json(existing.as_deref(), &rows)) {
            Ok(()) => println!("wrote {} lease-reclaim row(s) to {path}", rows.len()),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_repro(out_dir: &str, index: u64, combo: &Combo) {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return;
    }
    let repro_path = format!("{out_dir}/repro-{index}.json");
    let trace_path = format!("{out_dir}/trace-{index}.json");
    if let Err(e) = std::fs::write(&repro_path, combo_to_json(combo)) {
        eprintln!("cannot write {repro_path}: {e}");
    }
    // Re-run the shrunk combo to capture the trace of the minimal repro.
    let report = run_combo(combo);
    if let Err(e) = std::fs::write(&trace_path, ghost_trace::chrome::export(&report.records)) {
        eprintln!("cannot write {trace_path}: {e}");
    }
    println!("  wrote {repro_path} and {trace_path}");
}

fn main() -> ExitCode {
    let opts = parse_opts();
    if let Some(path) = &opts.replay {
        return replay(path);
    }
    if opts.byzantine {
        return byzantine_sweep(&opts);
    }
    if opts.live {
        return live_sweep(&opts);
    }
    if opts.lending {
        return lending_sweep(&opts);
    }
    if opts.lending_live {
        return lending_live_sweep(&opts);
    }

    let policies: Vec<PolicyKind> = match opts.policy {
        Some(p) => vec![p],
        None => PolicyKind::evaluation_matrix(),
    };
    let exps: Vec<ComboExperiment> = (0..opts.combos())
        .map(|i| {
            let policy = policies[(i % policies.len() as u64) as usize];
            let seed = opts.seed_base + i;
            ComboExperiment(if opts.recovery {
                Combo::generated_recovery(policy, seed)
            } else {
                Combo::generated(policy, seed)
            })
        })
        .collect();

    let cache = match open_cache(opts.cache.as_ref()) {
        Ok(c) => c,
        Err(code) => return code,
    };

    let started = Instant::now();
    let report = run_sweep(&exps, opts.jobs, cache.as_ref());
    let elapsed = started.elapsed();

    // Failing combos are shrunk serially, after the parallel sweep, so
    // repro files are independent of worker count and scheduling.
    let mut failed = 0u64;
    let mut per_policy = vec![0u64; policies.len()];
    for (i, item) in report.items.iter().enumerate() {
        if item.result.pass {
            per_policy[i % policies.len()] += 1;
            continue;
        }
        failed += 1;
        let combo = &exps[i].0;
        println!(
            "combo {i}: policy={} seed={} faults={} FAILED:",
            combo.policy.name(),
            combo.seed,
            combo.plan.events.len()
        );
        for line in item.result.lines.iter() {
            if let Some(f) = line.strip_prefix("failure ") {
                println!("  {f}");
            }
        }
        let minimal = shrink(combo);
        println!(
            "  shrunk fault plan: {} -> {} event(s)",
            combo.plan.events.len(),
            minimal.plan.events.len()
        );
        write_repro(&opts.out_dir, i as u64, &minimal);
    }
    println!(
        "swept {} combos across {} policies with {} job(s) in {:.2?} \
         ({} executed, {} cached): {} failed",
        opts.combos(),
        policies.len(),
        opts.jobs,
        elapsed,
        report.executed,
        report.cached,
        failed
    );
    for (j, p) in policies.iter().enumerate() {
        println!("  {:>16}: {} clean", p.name(), per_policy[j]);
    }
    if let Some(path) = &opts.digest {
        if let Err(e) = std::fs::write(path, report.digest()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote digest to {path}");
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
