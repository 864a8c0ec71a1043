//! `--live` sweep: the same deterministic fault plans, injected into
//! the real-thread backend and judged by wall-clock oracles.
//!
//! A [`LiveCombo`] mirrors [`crate::run::Combo`] for `ghost-live`: the
//! plan is still a [`FaultPlan`] (one type, both backends), but `at` and
//! `dur` are read against the monotonic wall clock, the workload is the
//! closed-loop KV service, and the run takes real time on real OS
//! threads. That changes what the harness can promise: a live run is
//! *not* bit-reproducible, so there is no shrinking — a failing combo is
//! captured as `repro.json` (plan + seed + shape) for best-effort replay
//! plus the full trace for offline reading.
//!
//! The oracles are the live analogues of [`crate::oracle`]:
//!
//! * **trace-invariant** — the `ghost-trace` checker with the shared
//!   [`LIVE_GRACE_NS`] window for host-scheduler jitter.
//! * **live-stranded** — at end of run no workload thread may be left
//!   runnable in the ghOSt class with nobody scheduled to run it.
//! * **recovery** / **recovery-slo** — crash combos must respawn and
//!   reconstruct (§3.4), and the measured wall-clock gap from
//!   `RecoveryStart` to `ReconstructDone` must fit
//!   [`RECOVERY_WALL_SLO`].
//! * **recovery-reclaim** — after a survived recovery no thread stays
//!   on the transient CFS excursion (unless the commit governor shed it
//!   deliberately).
//! * **progress** / **live-timeout** — the KV loop completed, and every
//!   admitted request terminated as completed, shed, or failed.

use crate::oracle::Failure;
use ghost_core::StandbyConfig;
use ghost_live::{DegradedLimits, KvService, LiveConfig, LiveKernel, LiveStats};
use ghost_sim::faults::{FaultEvent, FaultKind, FaultPlan};
use ghost_sim::thread::{ThreadKind, ThreadState};
use ghost_sim::time::{Nanos, MICROS, MILLIS, SECS};
use ghost_sim::topology::CpuId;
use ghost_sim::{CpuSet, CLASS_CFS, CLASS_GHOST};
use ghost_trace::check::{self, LIVE_GRACE_NS};
use ghost_trace::{TraceEvent, TraceRecord, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use ghost_lab::scenario::PolicyKind;

/// Policies swept on the live backend, queried from the registry's
/// `live_backend` capability flag. Kept to the two agent models
/// (centralized, per-CPU) — the other evaluation policies add scheduling
/// flavour, not new recovery machinery, and live combos cost real
/// wall-clock time.
pub fn live_policies() -> Vec<PolicyKind> {
    PolicyKind::live_backend()
}

/// Per-request service-time floor for the live KV workload.
pub const LIVE_SERVICE_NS: u64 = 2 * MICROS;

/// Wall-clock bound from `RecoveryStart` to `ReconstructDone` for a
/// crashed agent: detection is immediate (the dying thread's own
/// teardown hook), the respawn backoff contributes ~100 ms, and the
/// status-word scan is microseconds — measured runs land around 105 ms,
/// so one second is a full order of magnitude of headroom.
pub const RECOVERY_WALL_SLO: Nanos = SECS;

/// Watchdog for live enclaves: longer than any injected hang (so a hang
/// stalls instead of destroying the enclave) but short enough that a
/// genuinely wedged run still gets reaped inside the supervise deadline.
pub const LIVE_WATCHDOG: Nanos = 2 * SECS;

/// One point of the live sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveCombo {
    /// Policy under test (one of [`live_policies`]).
    pub policy: PolicyKind,
    /// Seed for the fault plan (and the sweep's bookkeeping).
    pub seed: u64,
    /// Fault schedule, with `at`/`dur` in wall-clock nanoseconds.
    pub plan: FaultPlan,
    /// Closed-loop KV requests to complete (or shed/fail) before the
    /// run ends.
    pub requests: u64,
    /// Worker CPUs (and worker threads) the live kernel manages.
    pub cpus: usize,
}

impl LiveCombo {
    /// The sweep's combo for `(policy, seed)`: standard shape, fault
    /// plan derived from the seed by [`generate_live_plan`].
    pub fn generated(policy: PolicyKind, seed: u64) -> Self {
        let cpus = 2;
        let targets: Vec<CpuId> = (0..cpus as u16).map(CpuId).collect();
        Self {
            policy,
            seed,
            plan: generate_live_plan(seed, &targets),
            requests: 60_000,
            cpus,
        }
    }

    /// True if the plan kills an agent (arming the standby machinery).
    pub fn injects_crash(&self) -> bool {
        self.plan
            .events
            .iter()
            .any(|fe| matches!(fe.kind, FaultKind::AgentCrash { .. }))
    }
}

/// Generates the live fault plan for `seed`: a deterministic rotation
/// over the three wall-clock-meaningful agent faults, with times scaled
/// to real milliseconds.
///
/// * `seed % 3 == 0` — one `AgentCrash` on `cpus[0]` (the centralized
///   global agent's pin, and per-CPU agent 0), mid-run.
/// * `seed % 3 == 1` — an `AgentHang` window on every CPU, 100–200 ms.
/// * `seed % 3 == 2` — an `AgentSlow` window on every CPU covering the
///   whole run.
///
/// Same `(seed, cpus)`, same plan — the plan side of a live repro is
/// exactly reproducible even though the run itself is wall-clock.
pub fn generate_live_plan(seed: u64, cpus: &[CpuId]) -> FaultPlan {
    assert!(!cpus.is_empty(), "fault plans need at least one target CPU");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE_CA05);
    let at = rng.gen_range(50 * MILLIS..100 * MILLIS);
    let mut events = Vec::new();
    match seed % 3 {
        0 => events.push(FaultEvent {
            at,
            kind: FaultKind::AgentCrash { cpu: cpus[0] },
        }),
        1 => {
            let dur = rng.gen_range(100 * MILLIS..200 * MILLIS);
            for &cpu in cpus {
                events.push(FaultEvent {
                    at,
                    kind: FaultKind::AgentHang { cpu, dur },
                });
            }
        }
        _ => {
            let factor = rng.gen_range(8u32..=32);
            for &cpu in cpus {
                events.push(FaultEvent {
                    at: 0,
                    kind: FaultKind::AgentSlow {
                        cpu,
                        dur: 30 * SECS,
                        factor,
                    },
                });
            }
        }
    }
    FaultPlan { events }
}

/// Everything a finished live run exposes to the CLI and tests.
pub struct LiveRunReport {
    /// Oracle verdicts; empty means the run survived its fault plan.
    pub failures: Vec<Failure>,
    /// KV requests completed / shed at admission / failed after retries.
    pub completed: u64,
    pub shed: u64,
    pub failed: u64,
    /// Runtime counters (respawns, reconstructions, drops, ...).
    pub stats: ghost_core::runtime::GhostStats,
    /// Backend counters (IPIs lost/delayed, injected faults, stall time).
    pub live: LiveStats,
    /// Measured wall-clock `RecoveryStart` → `ReconstructDone` gap, when
    /// the run recovered from a crash.
    pub recovery_wall_ns: Option<Nanos>,
    /// Wall-clock duration of the whole run.
    pub wall_ns: u128,
    /// The recorded trace (for Chrome export of failing runs).
    pub records: Vec<TraceRecord>,
}

/// Measured `RecoveryStart` → first subsequent `ReconstructDone` gap.
fn recovery_wall(records: &[TraceRecord]) -> Option<Nanos> {
    let start = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::RecoveryStart { .. }))
        .map(|r| r.ts)?;
    records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::ReconstructDone { .. }))
        .map(|r| r.ts)
        .find(|&done| done >= start)
        .map(|done| done - start)
}

/// Runs `combo` on the live backend and evaluates the wall-clock
/// oracles. Takes real time (roughly the fault windows plus the KV
/// service time); the verdict — not the timing — is what repeats.
pub fn run_live_combo(combo: &LiveCombo) -> LiveRunReport {
    let started = Instant::now();
    let sink = TraceSink::recording(combo.cpus, 1 << 20);
    let kernel = LiveKernel::new(LiveConfig {
        cpus: combo.cpus,
        trace: sink.clone(),
        faults: combo.plan.clone(),
        ..LiveConfig::default()
    });
    let crash = combo.injects_crash();
    let mut config = combo
        .policy
        .enclave_config(&format!("chaos-live-{}", combo.seed))
        .with_watchdog(LIVE_WATCHDOG);
    if crash {
        config = config.with_standby(StandbyConfig {
            max_respawns: 3,
            respawn_backoff: 100 * MILLIS,
            recovery_slo: RECOVERY_WALL_SLO,
        });
    }
    let enclave = kernel.launch_enclave(CpuSet::first_n(combo.cpus), config, combo.policy.build());
    if crash {
        let policy = combo.policy;
        enclave.set_standby_policy(move || policy.build());
    }

    let kv = KvService::with_limits(
        16,
        LIVE_SERVICE_NS,
        DegradedLimits {
            request_timeout: 50 * MILLIS,
            max_retries: 3,
            retry_backoff: MILLIS,
            shed_depth: 2,
        },
    );
    let workers: Vec<_> = (0..combo.cpus)
        .map(|i| kernel.spawn_kv_worker(&format!("chaos-kv-{i}"), Arc::clone(&kv)))
        .collect();
    for &tid in &workers {
        kernel.attach(&enclave, tid);
    }
    kv.start_closed_loop(combo.requests, 2 * workers.len() as u64, kernel.now());
    for &tid in &workers {
        kernel.wake(tid);
    }

    let mut failures = Vec::new();
    let eid = enclave.id();

    // Supervise: mirror degraded mode into the KV service (load
    // shedding while the enclave is in failover), pump retry backoffs,
    // and kick blocked workers — until every admitted request has
    // terminated or the deadline passes.
    let deadline = Instant::now() + Duration::from_secs(60);
    while kv.accounted_count() < combo.requests {
        if Instant::now() > deadline {
            failures.push(Failure {
                oracle: "live-timeout",
                detail: format!(
                    "closed loop stalled at {}/{} accounted requests",
                    kv.accounted_count(),
                    combo.requests
                ),
            });
            break;
        }
        kv.set_degraded(kernel.runtime().enclave_degraded(eid));
        kv.pump_delayed(kernel.now());
        if kv.depth() > 0 {
            kernel.wake_one_blocked(&workers);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    kv.set_degraded(false);

    // Crash combos: wait for the §3.4 machinery to finish before
    // judging — the respawned agent must reconstruct and reclaim even
    // if the workload already drained on the surviving lanes.
    if crash {
        let rescue = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = kernel.runtime().stats();
            if stats.recoveries >= 1 || Instant::now() > rescue || !enclave.alive() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let stats = kernel.runtime().stats();
    let (records, dropped) = sink.with_records(|r, dropped| (r.to_vec(), dropped));
    let recovery_wall_ns = recovery_wall(&records);

    if dropped > 0 {
        failures.push(Failure {
            oracle: "trace-lossless",
            detail: format!("trace ring dropped {dropped} records; grow the capacity"),
        });
    }
    for v in check::check_with_grace(&records, LIVE_GRACE_NS) {
        failures.push(Failure {
            oracle: "trace-invariant",
            detail: v.to_string(),
        });
    }
    if kv.completed_count() == 0 {
        failures.push(Failure {
            oracle: "progress",
            detail: "no KV request completed over the whole run".to_string(),
        });
    }

    // Liveness: nobody left stranded. A workload thread still runnable
    // in the ghOSt class at end of run has an agent that never came
    // back for it.
    for (tid, th) in kernel.thread_snapshots() {
        if th.kind == ThreadKind::Workload
            && th.state == ThreadState::Runnable
            && th.class == CLASS_GHOST
        {
            failures.push(Failure {
                oracle: "live-stranded",
                detail: format!("thread {tid} left runnable in the ghOSt class at end of run"),
            });
        }
    }

    if crash {
        if stats.respawns < 1 || stats.reconstructions < 1 || !enclave.alive() {
            failures.push(Failure {
                oracle: "recovery",
                detail: format!(
                    "crash not recovered: respawns={} reconstructions={} alive={}",
                    stats.respawns,
                    stats.reconstructions,
                    enclave.alive()
                ),
            });
        }
        match recovery_wall_ns {
            Some(gap) if gap > RECOVERY_WALL_SLO => failures.push(Failure {
                oracle: "recovery-slo",
                detail: format!("wall-clock recovery took {gap} ns (SLO {RECOVERY_WALL_SLO} ns)"),
            }),
            None if enclave.alive() => failures.push(Failure {
                oracle: "recovery-slo",
                detail: "crash combo recorded no RecoveryStart/ReconstructDone pair".to_string(),
            }),
            _ => {}
        }
        // Re-absorption after the transient CFS excursion (threads the
        // commit governor shed deliberately are exempt).
        if enclave.alive() && stats.estale_sheds == 0 {
            for (tid, th) in kernel.thread_snapshots() {
                if th.kind == ThreadKind::Workload
                    && th.state != ThreadState::Dead
                    && th.class == CLASS_CFS
                {
                    failures.push(Failure {
                        oracle: "recovery-reclaim",
                        detail: format!(
                            "thread {tid} still under CFS after degraded-mode recovery"
                        ),
                    });
                }
            }
        }
    }

    let degraded = kv.degraded_stats();
    let live = kernel.stats();
    kernel.shutdown();
    LiveRunReport {
        failures,
        completed: kv.completed_count(),
        shed: degraded.shed,
        failed: degraded.failed,
        stats,
        live,
        recovery_wall_ns,
        wall_ns: started.elapsed().as_nanos(),
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_plans_are_deterministic_and_rotated() {
        let cpus: Vec<CpuId> = (0..2u16).map(CpuId).collect();
        for seed in 0..12 {
            let a = generate_live_plan(seed, &cpus);
            let b = generate_live_plan(seed, &cpus);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(!a.events.is_empty());
            let expect_crash = seed % 3 == 0;
            assert_eq!(
                a.events
                    .iter()
                    .any(|fe| matches!(fe.kind, FaultKind::AgentCrash { .. })),
                expect_crash,
                "seed {seed} rotation broken"
            );
        }
    }

    #[test]
    fn generated_combos_mark_crashes() {
        let crash = LiveCombo::generated(PolicyKind::CentralizedFifo, 3);
        assert!(crash.injects_crash());
        let hang = LiveCombo::generated(PolicyKind::PerCpu, 4);
        assert!(!hang.injects_crash());
    }
}
