//! Tournament determinism and the self-tuning policy's win condition.
//!
//! Three contracts:
//!
//! * The league table — every cell hash, every point award, the
//!   rendered standings — is byte-identical between a serial
//!   (`jobs=1`) and a parallel (`jobs=4`) run of the same matrix.
//! * The adaptive policy's knob trajectory is a deterministic artifact
//!   of the scenario seed: same seed, same trajectory, sample for
//!   sample; and the knobs actually move under queue pressure.
//! * Self-tuning Shinjuku beats static Shinjuku on p99 wakeup-to-run
//!   in at least one cell of the matrix (the overload column is where
//!   the shrunken quantum pays), and never loses a cell by more than
//!   the tie margin elsewhere is *not* required — only the win is.

use ghost_lab::scenario::{attach_workload, PolicyKind, Scenario, WorkloadSpec};
use ghost_lab::tournament::{league_table, run_tournament, TournamentOpts};
use ghost_policies::{KnobProbe, KnobSample, ShinjukuAdaptivePolicy};
use ghost_sim::time::{MICROS, MILLIS};
use std::sync::{Arc, Mutex};

/// A small bounded matrix: three policies over every scenario column
/// and the bounded fault rows, short horizon. Big enough to exercise
/// grouping, ranking, and fault handling; small enough for a test.
fn small_opts() -> TournamentOpts {
    TournamentOpts {
        policies: vec![
            PolicyKind::CentralizedFifo,
            PolicyKind::Shinjuku,
            PolicyKind::ShinjukuAdaptive,
        ],
        seed: 1,
        horizon: 20 * MILLIS,
        slo: MILLIS,
        bounded: true,
        trace_capacity: 1 << 18,
    }
}

#[test]
fn league_table_is_byte_identical_serial_vs_parallel() {
    let opts = small_opts();
    let serial = run_tournament(&opts, 1, None);
    let parallel = run_tournament(&opts, 4, None);
    assert_eq!(serial.digest(), parallel.digest());
    assert_eq!(league_table(&serial), league_table(&parallel));
    assert!(serial.all_passed(), "matrix cells must pass invariants");
}

/// Serial ≡ parallel only shows the two runs agree with each other; this
/// pins the bytes they agree on, so a change to the trace path (ring,
/// replay, derive, check) that shifts any cell's result lines is caught
/// even when it shifts both runs alike. A deliberate change to the
/// simulation or the cell schema re-freezes it.
#[test]
fn small_matrix_digest_is_frozen() {
    let report = run_tournament(&small_opts(), 1, None);
    assert_eq!(
        ghost_lab::fnv64(report.digest().as_bytes()),
        0x538c_2353_f8c8_da9d,
        "tournament digest moved:\n{}",
        report.digest()
    );
}

/// The same freeze over every registered policy. `small_opts()` leaves
/// five policies out, and `digest_freeze`'s pulse never backs a queue
/// up, so the overload / antagonist / flash-crowd columns here are what
/// pins the preemption, steal and tier paths of `snap`, `search`,
/// `core-sched`, `per-cpu` and `shinjuku-shenango`. Captured before the
/// policies were re-expressed on the shared kernel; a policy refactor
/// must leave it alone.
#[test]
fn all_policy_matrix_digest_is_frozen() {
    let opts = TournamentOpts {
        policies: PolicyKind::registered().collect(),
        ..small_opts()
    };
    let report = run_tournament(&opts, 2, None);
    assert!(report.all_passed(), "matrix cells must pass invariants");
    assert_eq!(
        ghost_lab::fnv64(report.digest().as_bytes()),
        0x9294_b283_2973_24bf,
        "all-policy tournament digest moved:\n{}",
        report.digest()
    );
}

#[test]
fn adaptive_beats_static_shinjuku_on_p99_in_at_least_one_cell() {
    let opts = TournamentOpts {
        policies: vec![PolicyKind::Shinjuku, PolicyKind::ShinjukuAdaptive],
        seed: 1,
        horizon: 40 * MILLIS,
        slo: MILLIS,
        bounded: true,
        trace_capacity: 1 << 19,
    };
    let report = run_tournament(&opts, 2, None);
    assert!(report.all_passed());
    let mut wins = Vec::new();
    for sc in ["fig5-pulse", "fig6-overload", "antagonist", "flash-crowd"] {
        for fault in ["none", "agent-crash", "queue-overflow"] {
            let static_p99 = report
                .cell_p99(PolicyKind::Shinjuku, sc, fault)
                .expect("static cell played");
            let adaptive_p99 = report
                .cell_p99(PolicyKind::ShinjukuAdaptive, sc, fault)
                .expect("adaptive cell played");
            if adaptive_p99 < static_p99 {
                wins.push(format!("{sc}+{fault}: {adaptive_p99} < {static_p99}"));
            }
        }
    }
    assert!(
        !wins.is_empty(),
        "self-tuning Shinjuku must beat static on p99 in at least one cell"
    );
}

/// Builds the overload scenario around a hand-constructed adaptive
/// policy carrying a knob probe, runs it, and returns the observed
/// trajectory.
fn probed_trajectory(seed: u64) -> Vec<KnobSample> {
    let probe: KnobProbe = Arc::new(Mutex::new(Vec::new()));
    let policy = ShinjukuAdaptivePolicy::new().with_probe(Arc::clone(&probe));
    let kind = PolicyKind::ShinjukuAdaptive;
    let workload = WorkloadSpec::Pulse {
        threads: 24,
        seg: (50 * MICROS, 150 * MICROS),
        period: (200 * MICROS, 400 * MICROS),
    };
    let mut sim = Scenario::builder()
        .name(format!("probe/seed={seed}"))
        .cpus(8)
        .seed(seed)
        .enclave_cpus(1..8)
        .build_with(kind.enclave_config("probe"), Box::new(policy));
    let (_tids, _completions) =
        attach_workload(&mut sim.kernel, &sim.enclave, &workload, seed, kind);
    sim.kernel.run_until(30 * MILLIS);
    let out = probe.lock().unwrap().clone();
    out
}

#[test]
fn knob_trajectory_is_deterministic_per_seed_and_moves_under_pressure() {
    let a = probed_trajectory(7);
    let b = probed_trajectory(7);
    assert_eq!(a, b, "same seed must produce the identical knob trajectory");
    assert!(
        a.len() >= 10,
        "30 ms at a 1 ms epoch must record many knob samples, got {}",
        a.len()
    );
    // Under sustained overload the tuner must actually shrink the
    // quantum below the static 30 us default.
    let min_slice = a.iter().map(|s| s.timeslice).min().unwrap();
    assert!(
        min_slice < 30 * MICROS,
        "overload must shrink the quantum, trajectory floor was {min_slice} ns"
    );
    // A different seed reshapes the workload and with it the measured
    // waits; the recorded p99 stream must differ even if the knob
    // endpoints agree.
    let c = probed_trajectory(8);
    assert_ne!(
        a.iter().map(|s| s.p99_wait).collect::<Vec<_>>(),
        c.iter().map(|s| s.p99_wait).collect::<Vec<_>>(),
        "different seeds must observe different wait streams"
    );
}
