//! Fig. 5: the scalability of a global agent — committed transactions
//! per second vs. number of scheduled CPUs, on the Skylake (112 CPU) and
//! Haswell (72 CPU) machines.
//!
//! The printed series reproduces the paper's three regimes:
//! ❶ ramp-up, ❷ a drop once the agent's SMT sibling runs work, and
//! ❸ a decline across the NUMA boundary. Peak throughput must exceed
//! 1.5 M txn/s (paper: "over 2 million"; see EXPERIMENTS.md for the
//! absolute-number discussion).
//!
//! A last row runs the point at scale — one million threads on the
//! 1,024-CPU Zen machine — and reports how fast the simulator gets
//! through it (wall seconds, and simulated seconds per wall second) and
//! what it costs in memory: the process's peak RSS (`VmHWM`), which this
//! point sets.

use ghost_bench::fig5;
use ghost_metrics::Table;
use ghost_sim::time::MILLIS;
use ghost_sim::topology::Topology;
use std::time::Instant;

fn run_machine(name: &str, topo: Topology) -> Vec<fig5::Fig5Point> {
    let work = fig5::work_for(&topo);
    let points = fig5::run_sweep(topo, work, true);
    let mut t = Table::new(vec!["scheduled CPUs", "M txns/s"])
        .with_title(format!("Fig. 5 ({name}): global agent scalability"));
    for p in &points {
        t.row(vec![
            p.cpus.to_string(),
            format!("{:.3}", p.txns_per_sec / 1e6),
        ]);
    }
    t.print();
    println!();
    points
}

/// `fig5-zen-1024-1m`: a global agent committing a million yield-loop
/// threads onto the other 1,023 CPUs. The agent first drains ~2 M startup
/// messages (thread created + wakeup) at ~265 ns each, over half a second
/// of virtual time; the 800 ms warmup covers that drain, and the 1 ms
/// work segment bounds the event count. The wall clock includes building
/// the machine: at this size that is part of the cost being measured.
fn run_at_scale() {
    let topo = Topology::zen_1024();
    let scheduled = topo.num_cpus() - 1;
    let (warmup, measure) = (800 * MILLIS, 200 * MILLIS);
    let started = Instant::now();
    let point =
        fig5::run_point_with_threads(topo, scheduled, 1_000_000, MILLIS, warmup, measure, true);
    let wall_s = started.elapsed().as_secs_f64();
    let mut t = Table::new(vec![
        "point",
        "M txns/s",
        "wall s",
        "sim-s/s",
        "peak RSS MiB",
    ])
    .with_title("Fig. 5 at scale: 1,024 CPUs, 1 M threads");
    t.row(vec![
        "fig5-zen-1024-1m".to_string(),
        format!("{:.3}", point.txns_per_sec / 1e6),
        format!("{wall_s:.2}"),
        format!("{:.2}", (warmup + measure) as f64 / 1e9 / wall_s),
        peak_rss_mib().map_or("n/a".into(), |m| format!("{m:.1}")),
    ]);
    t.print();
}

/// This process's peak resident set so far (`VmHWM` in
/// `/proc/self/status`), or `None` where there is no procfs.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

fn main() {
    let skylake = run_machine("Skylake, 112 CPUs", Topology::skylake_112());
    let haswell = run_machine("Haswell, 72 CPUs", Topology::haswell_72());

    for (name, points, socket_cpus) in [
        ("skylake", &skylake, 56usize),
        ("haswell", &haswell, 36usize),
    ] {
        let at = |n: usize| -> f64 {
            points
                .iter()
                .filter(|p| p.cpus <= n)
                .map(|p| p.txns_per_sec)
                .fold(0.0, f64::max)
        };
        let peak_local = at(socket_cpus - 2); // ❶ peak before the sibling joins.
        let after_sibling = points
            .iter()
            .find(|p| p.cpus >= socket_cpus - 1 && p.cpus <= socket_cpus + 1)
            .map(|p| p.txns_per_sec)
            .unwrap_or(0.0);
        let last = points.last().expect("points").txns_per_sec;

        // ❶ Ramp: the single-CPU point is far below the peak.
        let first = points.first().expect("points").txns_per_sec;
        assert!(
            peak_local > 10.0 * first,
            "{name}: no ramp-up ({first} -> {peak_local})"
        );
        // ❷ Drop at SMT co-location.
        assert!(
            after_sibling < peak_local * 0.99,
            "{name}: no SMT drop (peak {peak_local:.0} -> sibling {after_sibling:.0})"
        );
        // ❸ Cross-socket decline: the full-machine point is below the
        // local-socket peak.
        assert!(
            last < peak_local * 0.95,
            "{name}: no NUMA decline (peak {peak_local:.0} -> last {last:.0})"
        );
        println!(
            "{name}: ramp to {:.2} M/s, SMT drop to {:.2} M/s, cross-socket floor {:.2} M/s  -- shape OK",
            peak_local / 1e6,
            after_sibling / 1e6,
            last / 1e6
        );
    }
    // Peak throughput claim (paper: >2 M with all overheads amortized).
    let peak = skylake.iter().map(|p| p.txns_per_sec).fold(0.0, f64::max);
    assert!(
        peak > 1.5e6,
        "Skylake peak should exceed 1.5 M txn/s, got {peak:.0}"
    );
    println!("Skylake peak: {:.2} M txn/s (paper: >2 M)", peak / 1e6);
    println!();
    run_at_scale();
}
