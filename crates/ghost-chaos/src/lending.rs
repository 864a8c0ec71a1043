//! `--lending` sweeps: multi-enclave core lending under control-plane
//! faults, on both backends.
//!
//! The simulated side reuses [`ghost_lab::LendingScenario`] — a
//! two-enclave machine (latency-critical "protected" enclave borrowing
//! from a batch "donor") driven by the in-process resource manager —
//! and rotates `(policy × fault)` combos through the parallel sweep
//! engine, so `--jobs N` is byte-identical to serial and CI can diff
//! digests. The fault rows are the ISSUE's four: RM crash,
//! lease-deadline stress, borrower crash mid-lease, and revoke during
//! standby reconstruction. Each combo judges itself (the scenario's
//! oracles: no stranded lease, full grant accounting, donor liveness,
//! per-fault expectations); failures replay deterministically from
//! `repro.json`.
//!
//! The live side ([`LendingLiveCombo`]) runs the same fault rows on the
//! real-thread backend: protected enclave with a closed-loop KV
//! workload on CPUs {0,1}, idle donor on {2,3}, the RM deciding on
//! driver-timer epochs, and faults injected at wall-clock marks. The
//! headline property — lease deadlines are enforced by the kernel-side
//! table even while the RM is dead — is exercised directly: the RM
//! crash arm grants a lease, kills the RM, and requires the deadline to
//! fire anyway. Live runs are wall-clock and unshrunk, like
//! [`crate::live`].

use crate::oracle::Failure;
use ghost_core::{LeaseStats, RmConfig, StandbyConfig};
use ghost_lab::{LendingFault, LendingScenario, LendingWorkload};
use ghost_live::{DegradedLimits, KvService, LiveConfig, LiveKernel};
use ghost_sim::time::{Nanos, MICROS, MILLIS, SECS};
use ghost_sim::topology::CpuId;
use ghost_sim::CpuSet;
use ghost_trace::check::{self, LIVE_GRACE_NS};
use ghost_trace::derive::TraceMetrics;
use ghost_trace::{TraceRecord, TraceSink};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use ghost_lab::scenario::PolicyKind;

use crate::live::LIVE_WATCHDOG;

/// Virtual horizon for one simulated lending combo: long enough for the
/// diurnal backlog to force borrowing, every fault arm to complete its
/// schedule, and deadline-stress leases to expire several times over.
pub const LENDING_HORIZON: Nanos = 120 * MILLIS;

/// Per-request service-time floor for the live lending KV workload.
pub const LENDING_LIVE_SERVICE_NS: u64 = 2 * MICROS;

/// Policies swept as the protected (borrowing) enclave in the simulated
/// lending sweep: the two centralized schedulers, one FIFO and one
/// preemptive — enough to show the lending machinery is policy-agnostic
/// without paying for the whole evaluation matrix per fault row.
pub fn lending_policies() -> Vec<PolicyKind> {
    vec![PolicyKind::CentralizedFifo, PolicyKind::Shinjuku]
}

/// The `i`-th combo of the simulated lending sweep: policy rotates
/// fastest, then the four fault rows, with `seed_base + i` as the seed.
/// Always the diurnal workload — the shape that reliably drives the RM
/// to lend, so every fault lands on a system with lease traffic.
pub fn lending_combo(index: u64, seed_base: u64, policies: &[PolicyKind]) -> LendingScenario {
    let policy = policies[(index % policies.len() as u64) as usize];
    let faults = LendingFault::all();
    let fault = faults[((index / policies.len() as u64) % faults.len() as u64) as usize];
    LendingScenario::new(
        policy,
        LendingWorkload::Diurnal,
        fault,
        seed_base + index,
        LENDING_HORIZON,
    )
}

/// Policies swept on the live lending backend (the registry's
/// `live_backend` capability, same set as [`crate::live::live_policies`]).
pub fn lending_live_policies() -> Vec<PolicyKind> {
    PolicyKind::live_backend()
}

/// One point of the live lending sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LendingLiveCombo {
    /// Policy on the protected (borrowing) enclave.
    pub policy: PolicyKind,
    /// Control-plane fault arm.
    pub fault: LendingFault,
    /// Kernel seed (and the sweep's bookkeeping).
    pub seed: u64,
    /// Closed-loop KV requests the protected enclave must account for.
    pub requests: u64,
}

impl LendingLiveCombo {
    /// The sweep's combo for `(policy, seed)`: the fault arm rotates
    /// with the seed so four consecutive seeds cover all four rows.
    pub fn generated(policy: PolicyKind, seed: u64) -> Self {
        let faults = LendingFault::all();
        Self {
            policy,
            fault: faults[(seed % faults.len() as u64) as usize],
            seed,
            requests: 60_000,
        }
    }

    /// RM configuration for this arm. Short lease deadlines where the
    /// arm needs expiry (stress, and RM-crash — the kernel must enforce
    /// the deadline while the RM is dead); effectively-unbounded
    /// deadlines elsewhere so lease resolution is attributable to the
    /// injected fault, not a background timer.
    fn rm_config(&self) -> RmConfig {
        let lease_duration = match self.fault {
            LendingFault::DeadlineStress => 25 * MILLIS,
            LendingFault::RmCrash => 50 * MILLIS,
            _ => 10 * SECS,
        };
        RmConfig {
            epoch: 5 * MILLIS,
            lease_duration,
            borrow_threshold: 2,
            return_threshold: 0,
            max_borrow: 2,
            reject_budget: 0,
        }
    }
}

/// Everything a finished live lending run exposes to the CLI and tests.
pub struct LendingLiveReport {
    /// Oracle verdicts; empty means the run survived its fault arm.
    pub failures: Vec<Failure>,
    /// KV requests completed on the protected enclave.
    pub completed: u64,
    /// Kernel-side lease accounting at end of run.
    pub lease_stats: LeaseStats,
    /// Leases still outstanding at end of run (accounted, not stranded).
    pub outstanding: u64,
    /// RM failovers survived.
    pub rm_restarts: u32,
    /// Measured wall-clock revoke→reclaim spans (ns), one per revoked
    /// lease, straight from the trace.
    pub reclaim_spans: Vec<u64>,
    /// Wall-clock duration of the whole run.
    pub wall_ns: u128,
    /// The recorded trace (for Chrome export of failing runs).
    pub records: Vec<TraceRecord>,
}

/// One wall-clock action of a live lending fault schedule.
enum LiveStep {
    /// Lend one donor CPU to the protected enclave for `dur`, if the RM
    /// has not already done so.
    LendIfIdle {
        dur: Nanos,
    },
    RmCrash,
    RmRestart,
    /// Kill the protected enclave's (first) agent.
    KillProtectedAgent,
    /// Force-reclaim the first CPU currently on loan to the protected
    /// enclave.
    ReclaimBorrowed,
}

/// Runs `combo` on the live backend and evaluates the lending oracles.
/// Takes real wall-clock time (~0.5–1 s per combo plus KV drain).
pub fn run_lending_live(combo: &LendingLiveCombo) -> LendingLiveReport {
    let started = Instant::now();
    let cpus = 4usize;
    let sink = TraceSink::recording(cpus, 1 << 20);
    let kernel = LiveKernel::new(LiveConfig {
        cpus,
        seed: combo.seed,
        trace: sink.clone(),
        ..LiveConfig::default()
    });

    let mut p_cpus = CpuSet::empty();
    p_cpus.add(CpuId(0));
    p_cpus.add(CpuId(1));
    let mut d_cpus = CpuSet::empty();
    d_cpus.add(CpuId(2));
    d_cpus.add(CpuId(3));

    // Standby machinery only where the arm crashes an agent that must
    // come back: revoke-during-reconstruct. The borrower-crash arm
    // deliberately leaves the enclave unprotected — its death is the
    // point (the lease must resolve, not strand).
    let standby = combo.fault == LendingFault::RevokeDuringReconstruct;
    let mut p_config = combo
        .policy
        .enclave_config(&format!("lend-live-{}", combo.seed))
        .with_watchdog(LIVE_WATCHDOG);
    if standby {
        p_config = p_config.with_standby(StandbyConfig {
            max_respawns: 3,
            respawn_backoff: 100 * MILLIS,
            recovery_slo: SECS,
        });
    }
    let protected = kernel.launch_enclave(p_cpus, p_config, combo.policy.build());
    if standby {
        let policy = combo.policy;
        protected.set_standby_policy(move || policy.build());
    }
    let donor_policy = PolicyKind::CentralizedFifo;
    let donor = kernel.launch_enclave(
        d_cpus,
        donor_policy
            .enclave_config("lend-live-donor")
            .with_watchdog(LIVE_WATCHDOG),
        donor_policy.build(),
    );

    let kv = KvService::with_limits(
        16,
        LENDING_LIVE_SERVICE_NS,
        DegradedLimits {
            request_timeout: 50 * MILLIS,
            max_retries: 3,
            retry_backoff: MILLIS,
            shed_depth: 2,
        },
    );
    let workers: Vec<_> = (0..4)
        .map(|i| kernel.spawn_kv_worker(&format!("lend-kv-{i}"), Arc::clone(&kv)))
        .collect();
    for &tid in &workers {
        kernel.attach(&protected, tid);
    }
    kv.start_closed_loop(combo.requests, 2 * workers.len() as u64, kernel.now());
    for &tid in &workers {
        kernel.wake(tid);
    }

    kernel.rm_start(combo.rm_config(), protected.id(), donor.id());

    // Wall-clock fault schedule for the arm, in offset order.
    let schedule: Vec<(u64, LiveStep)> = match combo.fault {
        LendingFault::None => vec![(150, LiveStep::LendIfIdle { dur: 10 * SECS })],
        LendingFault::DeadlineStress => vec![(150, LiveStep::LendIfIdle { dur: 25 * MILLIS })],
        LendingFault::RmCrash => vec![
            (150, LiveStep::LendIfIdle { dur: 50 * MILLIS }),
            (200, LiveStep::RmCrash),
            (400, LiveStep::RmRestart),
        ],
        LendingFault::BorrowerCrash => vec![
            (150, LiveStep::LendIfIdle { dur: 10 * SECS }),
            (250, LiveStep::KillProtectedAgent),
        ],
        LendingFault::RevokeDuringReconstruct => vec![
            (150, LiveStep::LendIfIdle { dur: 10 * SECS }),
            (250, LiveStep::KillProtectedAgent),
            (300, LiveStep::ReclaimBorrowed),
        ],
    };
    let mut failures: Vec<Failure> = Vec::new();
    let rt = kernel.runtime();
    let eid = protected.id();
    let apply = |step: &LiveStep, failures: &mut Vec<Failure>| match step {
        LiveStep::LendIfIdle { dur } => {
            if rt.borrowed_by(eid).is_empty() {
                let lent = donor
                    .cpus()
                    .iter()
                    .rev()
                    .any(|&cpu| kernel.lend_cpu(&donor, &protected, cpu, *dur).is_ok());
                if !lent {
                    failures.push(Failure {
                        oracle: "lend-step",
                        detail: "no donor CPU could be lent at the schedule mark".into(),
                    });
                }
            }
        }
        LiveStep::RmCrash => {
            kernel.rm_crash();
        }
        LiveStep::RmRestart => {
            kernel.rm_restart();
        }
        LiveStep::KillProtectedAgent => {
            let agent = protected
                .global_agent()
                .or_else(|| protected.agent_tids().first().copied());
            if let Some(tid) = agent {
                kernel.kill(tid);
            }
        }
        LiveStep::ReclaimBorrowed => {
            if let Some(&cpu) = rt.borrowed_by(eid).first() {
                let _ = kernel.reclaim_cpu(cpu);
            }
        }
    };

    // Supervise: fire schedule marks as the wall clock passes them,
    // mirror degraded mode into the KV service, pump retry backoffs,
    // and kick blocked workers — until the closed loop drains AND the
    // schedule completes (whichever is later), or the deadline passes.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut next = 0usize;
    loop {
        let elapsed_ms = started.elapsed().as_millis() as u64;
        while next < schedule.len() && elapsed_ms >= schedule[next].0 {
            apply(&schedule[next].1, &mut failures);
            next += 1;
        }
        if kv.accounted_count() >= combo.requests && next >= schedule.len() {
            break;
        }
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
        kv.set_degraded(rt.enclave_degraded(eid));
        kv.pump_delayed(kernel.now());
        if kv.depth() > 0 {
            kernel.wake_one_blocked(&workers);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    kv.set_degraded(false);

    // Settle: any short lease granted near the end must get its
    // deadline fired by the timer thread before we judge stranding.
    std::thread::sleep(Duration::from_millis(150));
    if standby {
        // Wait for the §3.4 machinery before judging the recovery arm.
        let rescue = Instant::now() + Duration::from_secs(10);
        while rt.stats().recoveries < 1 && Instant::now() < rescue && protected.alive() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let lease_stats = rt.lease_stats();
    let leases = rt.leases();
    let (records, dropped) = sink.with_records(|r, dropped| (r.to_vec(), dropped));
    let metrics = TraceMetrics::from_records(&records);
    let reclaim_spans: Vec<u64> = metrics
        .lease_reclaim_spans
        .iter()
        .map(|(r, done)| done.saturating_sub(*r))
        .collect();
    let rm_restarts = rt.rm_stats().map(|r| r.restarts).unwrap_or_default();

    if dropped > 0 {
        failures.push(Failure {
            oracle: "trace-lossless",
            detail: format!("trace ring dropped {dropped} records"),
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
            detail: "no KV request completed over the whole run".into(),
        });
    }

    // No stranded lease: every outstanding lease's CPU is owned by its
    // live borrower, and no CPU is owned by a dead enclave.
    for l in &leases {
        if rt.cpu_owner(l.cpu) != Some(l.borrower) {
            failures.push(Failure {
                oracle: "stranded-lease",
                detail: format!(
                    "cpu {} leased to {:?} but owned by {:?}",
                    l.cpu.0,
                    l.borrower,
                    rt.cpu_owner(l.cpu)
                ),
            });
        }
    }
    for c in 0..cpus as u16 {
        if let Some(owner) = rt.cpu_owner(CpuId(c)) {
            let alive = (owner == protected.id() && protected.alive())
                || (owner == donor.id() && donor.alive());
            if !alive {
                failures.push(Failure {
                    oracle: "cpu-on-dead-enclave",
                    detail: format!("cpu {c} owned by dead enclave {owner:?}"),
                });
            }
        }
    }

    // Every grant accounted for: resolved + outstanding == granted.
    let resolved = lease_stats.returned
        + lease_stats.expired
        + lease_stats.borrower_deaths
        + lease_stats.lender_deaths;
    if lease_stats.granted != resolved + leases.len() as u64 {
        failures.push(Failure {
            oracle: "lease-accounting",
            detail: format!(
                "granted={} resolved={resolved} outstanding={}",
                lease_stats.granted,
                leases.len()
            ),
        });
    }
    if lease_stats.granted == 0 {
        failures.push(Failure {
            oracle: "never-lent",
            detail: "no lease was granted over the whole run".into(),
        });
    }
    if !donor.alive() {
        failures.push(Failure {
            oracle: "donor-died",
            detail: "donor enclave did not survive the run".into(),
        });
    }

    match combo.fault {
        LendingFault::None => {
            if !protected.alive() {
                failures.push(Failure {
                    oracle: "protected-died",
                    detail: "protected enclave died without an injected fault".into(),
                });
            }
        }
        LendingFault::DeadlineStress => {
            if lease_stats.expired == 0 {
                failures.push(Failure {
                    oracle: "no-deadline-expiry",
                    detail: "deadline stress produced no forced reclaim".into(),
                });
            }
        }
        LendingFault::RmCrash => {
            if rm_restarts == 0 {
                failures.push(Failure {
                    oracle: "rm-failover",
                    detail: "RM restart not recorded after the injected crash".into(),
                });
            }
            if lease_stats.expired == 0 {
                failures.push(Failure {
                    oracle: "kernel-deadline",
                    detail: "no lease deadline fired while/after the RM was down".into(),
                });
            }
        }
        LendingFault::BorrowerCrash => {
            // The borrower's fate is mode-dependent (a centralized
            // enclave dies, a per-CPU one limps on); the invariants
            // above — nothing stranded, everything accounted — are the
            // contract.
        }
        LendingFault::RevokeDuringReconstruct => {
            if !protected.alive() {
                failures.push(Failure {
                    oracle: "standby-recovery",
                    detail: "protected enclave did not recover from the standby respawn".into(),
                });
            }
        }
    }

    let completed = kv.completed_count();
    let outstanding = leases.len() as u64;
    kernel.shutdown();
    LendingLiveReport {
        failures,
        completed,
        lease_stats,
        outstanding,
        rm_restarts,
        reclaim_spans,
        wall_ns: started.elapsed().as_nanos(),
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combo_generation_rotates_policies_and_faults() {
        let policies = lending_policies();
        let seen: std::collections::BTreeSet<_> = (0..8)
            .map(|i| {
                let sc = lending_combo(i, 100, &policies);
                assert_eq!(sc.seed, 100 + i);
                (sc.policy.name(), sc.fault.name())
            })
            .collect();
        // 2 policies x 4 faults, all distinct within one period.
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn live_combo_generation_rotates_faults() {
        let faults: std::collections::BTreeSet<_> = (0..4)
            .map(|s| {
                LendingLiveCombo::generated(PolicyKind::CentralizedFifo, s)
                    .fault
                    .name()
            })
            .collect();
        assert_eq!(faults.len(), 4);
    }
}
