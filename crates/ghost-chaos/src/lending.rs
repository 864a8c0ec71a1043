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

use crate::case::{CaseReport, ChaosCase};
use crate::codec::{named_field, num, obj, policy_field, text, wide};
use crate::live::{await_recovery, launch_guarded, KvLoop, LIVE_WATCHDOG};
use crate::oracle::{self, Failure};
use ghost_core::RmConfig;
use ghost_lab::{lease_verdicts, LendingFault, LendingScenario, LendingWorkload, PolicyKind};
use ghost_live::{LiveConfig, LiveKernel};
use ghost_sim::time::{Nanos, MILLIS, SECS};
use ghost_sim::topology::CpuId;
use ghost_sim::CpuSet;
use ghost_trace::check::LIVE_GRACE_NS;
use ghost_trace::derive::TraceMetrics;
use ghost_trace::json::Json;
use ghost_trace::TraceSink;
use std::time::{Duration, Instant};

/// Virtual horizon for one simulated lending combo: long enough for the
/// diurnal backlog to force borrowing, every fault arm to complete its
/// schedule, and deadline-stress leases to expire several times over.
pub const LENDING_HORIZON: Nanos = 120 * MILLIS;

/// A line of the `ghost-lab` lending oracles (`oracle-fail <what>`) as a
/// verdict.
fn verdict(line: &str) -> Failure {
    Failure {
        oracle: "lending",
        detail: line.trim_start_matches("oracle-fail ").to_string(),
    }
}

/// The fault arm of member `"fault"`.
fn fault_field(doc: &Json) -> Result<LendingFault, String> {
    named_field(doc, "fault", "lending fault", LendingFault::from_name)
}

/// The simulated lending family is `ghost-lab`'s scenario itself.
impl ChaosCase for LendingScenario {
    const KIND: &'static str = "lending";
    /// 2 policies x 4 fault rows x 2 seeds.
    const COMBOS: u64 = 16;
    const DETERMINISTIC: bool = true;

    /// The protected (borrowing) enclave's policies: the two centralized
    /// schedulers, one FIFO and one preemptive — enough to show the
    /// lending machinery is policy-agnostic without paying for the whole
    /// evaluation matrix per fault row.
    fn policies() -> Vec<PolicyKind> {
        vec![PolicyKind::CentralizedFifo, PolicyKind::Shinjuku]
    }

    /// Policy rotates fastest, then the four fault rows. Always the
    /// diurnal workload — the shape that reliably drives the RM to lend,
    /// so every fault lands on a system with lease traffic.
    fn generate(index: u64, seed_base: u64, policies: &[PolicyKind]) -> Self {
        let n = policies.len() as u64;
        let faults = LendingFault::all();
        LendingScenario::new(
            policies[(index % n) as usize],
            LendingWorkload::Diurnal,
            faults[((index / n) % faults.len() as u64) as usize],
            seed_base + index,
            LENDING_HORIZON,
        )
    }

    fn label(&self) -> String {
        self.name.clone()
    }

    fn spec(&self) -> String {
        self.spec_string()
    }

    /// The scenario judges itself (no stranded lease, full grant
    /// accounting, donor liveness, per-fault expectations) and reports
    /// each verdict as an `oracle-fail ...` line.
    fn run(&self) -> CaseReport {
        let (result, trace) = self.run_traced();
        let (verdicts, lines): (Vec<String>, _) = result
            .lines
            .into_iter()
            .partition(|l| l.starts_with("oracle-fail "));
        CaseReport {
            failures: verdicts.iter().map(|line| verdict(line)).collect(),
            lines,
            trace,
        }
    }

    fn encode(&self) -> Json {
        obj([
            ("kind", text(Self::KIND)),
            ("policy", text(self.policy.name())),
            ("workload", text(self.workload.name())),
            ("fault", text(self.fault.name())),
            ("seed", wide::enc(self.seed)),
            ("horizon", num::enc(self.horizon)),
        ])
    }

    fn decode(doc: &Json) -> Result<Self, String> {
        Ok(LendingScenario::new(
            policy_field(doc, "policy", Self::admits)?,
            named_field(
                doc,
                "workload",
                "lending workload",
                LendingWorkload::from_name,
            )?,
            fault_field(doc)?,
            wide::dec(doc, "seed")?,
            doc.uint("horizon")?,
        ))
    }
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

    /// Wall-clock fault schedule for the arm: `(offset ms, step)` in
    /// offset order.
    fn schedule(&self) -> Vec<(u64, LiveStep)> {
        match self.fault {
            LendingFault::None => vec![(150, LiveStep::LendIfIdle { dur: 10 * SECS })],
            LendingFault::DeadlineStress => {
                vec![(150, LiveStep::LendIfIdle { dur: 25 * MILLIS })]
            }
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
        }
    }
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

impl ChaosCase for LendingLiveCombo {
    const KIND: &'static str = "lending-live";
    /// One wall-clock run per fault row.
    const COMBOS: u64 = 4;
    const DETERMINISTIC: bool = false;

    fn policies() -> Vec<PolicyKind> {
        PolicyKind::live_backend()
    }

    fn generate(index: u64, seed_base: u64, policies: &[PolicyKind]) -> Self {
        let policy = policies[(index % policies.len() as u64) as usize];
        Self::generated(policy, seed_base + index)
    }

    fn label(&self) -> String {
        let (policy, fault, seed) = (self.policy.name(), self.fault.name(), self.seed);
        format!("lend-live/{policy}/{fault}/seed={seed}")
    }

    /// Runs the combo on the live backend and evaluates the lending
    /// oracles. Takes real wall-clock time (~0.5–1 s per combo plus KV
    /// drain).
    fn run(&self) -> CaseReport {
        let started = Instant::now();
        let cpus = 4usize;
        let sink = TraceSink::recording(cpus, 1 << 20);
        let kernel = LiveKernel::new(LiveConfig {
            cpus,
            seed: self.seed,
            trace: sink.clone(),
            ..LiveConfig::default()
        });

        // Standby machinery only where the arm crashes an agent that must
        // come back: revoke-during-reconstruct. The borrower-crash arm
        // deliberately leaves the enclave unprotected — its death is the
        // point (the lease must resolve, not strand).
        let standby = self.fault == LendingFault::RevokeDuringReconstruct;
        let name = format!("lend-live-{}", self.seed);
        let p_cpus = [0, 1].map(CpuId).into_iter().collect();
        let protected = launch_guarded(&kernel, p_cpus, self.policy, &name, standby);
        let donor_policy = PolicyKind::CentralizedFifo;
        let donor = kernel.launch_enclave(
            [2, 3].map(CpuId).into_iter().collect::<CpuSet>(),
            donor_policy
                .enclave_config("lend-live-donor")
                .with_watchdog(LIVE_WATCHDOG),
            donor_policy.build(),
        );
        let kv = KvLoop::start(&kernel, &protected, 4, self.requests);
        let rt = kernel.runtime();
        kernel.with(|k| rt.rm_start(k, self.rm_config(), protected.id(), donor.id()));

        let apply = |step: &LiveStep, failures: &mut Vec<Failure>| match step {
            LiveStep::LendIfIdle { dur } => {
                if protected.borrowed_cpus().is_empty() {
                    let lend = |cpu| kernel.with(|k| donor.try_lend_cpu(k, &protected, cpu, *dur));
                    let lent = donor.cpus().iter().rev().any(|&cpu| lend(cpu).is_ok());
                    if !lent {
                        failures.push(Failure {
                            oracle: "lend-step",
                            detail: "no donor CPU could be lent at the schedule mark".into(),
                        });
                    }
                }
            }
            LiveStep::RmCrash => {
                rt.rm_crash();
            }
            LiveStep::RmRestart => {
                kernel.with(|k| rt.rm_restart(k));
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
                if let Some(&cpu) = protected.borrowed_cpus().first() {
                    let _ = kernel.with(|k| rt.try_reclaim_cpu(k, cpu));
                }
            }
        };

        // Fire schedule marks as the wall clock passes them; the loop
        // ends when it has drained AND the schedule has completed.
        let schedule = self.schedule();
        let mut next = 0usize;
        let mut failures: Vec<Failure> = Vec::new();
        kv.supervise(&kernel, &protected, &mut failures, |failures| {
            let elapsed_ms = started.elapsed().as_millis() as u64;
            while next < schedule.len() && elapsed_ms >= schedule[next].0 {
                apply(&schedule[next].1, failures);
                next += 1;
            }
            next >= schedule.len()
        });

        // Settle: any short lease granted near the end must get its
        // deadline fired by the timer thread before we judge stranding.
        std::thread::sleep(Duration::from_millis(150));
        if standby {
            await_recovery(&kernel, &protected);
        }

        let s = rt.lease_stats();
        let outstanding = rt.leases().len() as u64;
        let completed = kv.service().completed_count();
        // Copied out, not judged under the recorder's lock: see `live`.
        let (records, dropped) = sink.with_records(|r, dropped| (r.to_vec(), dropped));
        failures.extend(oracle::preamble(
            &records,
            dropped,
            LIVE_GRACE_NS,
            completed,
            "KV request",
        ));
        let metrics = TraceMetrics::from_records(&records);
        let rm_restarts = rt.rm_stats().map(|r| r.restarts).unwrap_or_default();
        // The lease contract is the simulated family's, judged on the
        // same runtime type. On real threads two things more must hold:
        // the supervise loop's own lend step guarantees a grant in every
        // arm, and with the RM down it is the kernel-side table that has
        // to fire the deadline.
        failures.extend(
            lease_verdicts(self.fault, rt, &protected, &donor, cpus)
                .iter()
                .map(|line| verdict(line)),
        );
        if s.granted == 0 {
            failures.push(verdict(
                "never-lent: no lease was granted over the whole run",
            ));
        }
        if self.fault == LendingFault::RmCrash && s.expired == 0 {
            failures.push(verdict(
                "kernel-deadline: no lease deadline fired while/after the RM was down",
            ));
        }

        kernel.shutdown();
        let wall_ns = started.elapsed().as_nanos();
        let lines = vec![
            format!("completed {completed}"),
            format!("granted {}", s.granted),
            format!("returned {}", s.returned),
            format!("expired {}", s.expired),
            format!("borrower-deaths {}", s.borrower_deaths),
            format!("lender-deaths {}", s.lender_deaths),
            format!("outstanding {outstanding}"),
            format!("rm-restarts {rm_restarts}"),
            format!(
                "reclaim-p99-ns {}",
                metrics
                    .lease_reclaim_p99_ns()
                    .map_or_else(|| "-".to_string(), |ns| ns.to_string())
            ),
            format!("wall-ms {}", wall_ns / 1_000_000),
        ];
        CaseReport {
            failures,
            lines,
            trace: sink,
        }
    }

    fn encode(&self) -> Json {
        obj([
            ("kind", text(Self::KIND)),
            ("policy", text(self.policy.name())),
            ("fault", text(self.fault.name())),
            ("seed", wide::enc(self.seed)),
            ("requests", num::enc(self.requests)),
        ])
    }

    fn decode(doc: &Json) -> Result<Self, String> {
        Ok(Self {
            policy: policy_field(doc, "policy", Self::admits)?,
            fault: fault_field(doc)?,
            seed: wide::dec(doc, "seed")?,
            requests: doc.uint("requests")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combo_generation_rotates_policies_and_faults() {
        let policies = LendingScenario::policies();
        let seen: std::collections::BTreeSet<_> = (0..8)
            .map(|i| {
                let sc = LendingScenario::generate(i, 100, &policies);
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
