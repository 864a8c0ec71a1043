//! Multi-enclave core-lending experiments.
//!
//! A [`LendingScenario`] is a two-enclave [`Scenario`] on one 8-CPU
//! simulated machine — a latency-sensitive **protected** enclave 0 on
//! CPUs 1–2 and a batch **donor** enclave 1 on CPUs 3–7 — plus the
//! in-process resource manager, started after launch, and (optionally)
//! one control-plane fault injected mid-run. It implements
//! [`Experiment`], so the same `run_sweep` engine that drives chaos
//! recovery sweeps drives lending sweeps, with the same
//! serial-vs-parallel digest contract.
//!
//! The three workload shapes mirror the lending motivation:
//!
//! * **diurnal** — batch + latency colocation: the protected enclave is
//!   near saturation on its own CPU, the donor idles; the RM lends.
//! * **flash-crowd** — the protected enclave idles until a burst
//!   arrives, which trips the RM's backlog threshold.
//! * **antagonist** — the *borrower* hosts CPU hogs: a misbehaving
//!   borrower must still lose the CPU at the lease deadline.
//!
//! The fault arms cover the control-plane failure matrix: RM crash
//! (leases stay kernel-enforced), RM restart (state reconstruction),
//! borrower agent crash mid-lease, lease revocation landing during
//! §3.4 recovery, and deadline stress (short leases, constant churn).

use crate::cache::{fnv64_debug_lines, fnv64_lines};
use crate::engine::{Experiment, ExperimentResult};
use crate::scenario::{EnclaveSpec, GhostSim, LabRun, PolicyKind, Scenario, WorkloadSpec};
use ghost_core::runtime::{EnclaveHandle, GhostRuntime};
use ghost_core::RmConfig;
use ghost_sim::kernel::Kernel;
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use ghost_sim::topology::CpuId;
use ghost_trace::{check, derive::TraceMetrics, TraceSink};

/// Policy on the donor enclave.
const DONOR_POLICY: PolicyKind = PolicyKind::CentralizedFifo;

/// Trace ring capacity of every lending run: big enough that the lease
/// spans are never dropped at the sweep horizons.
const LENDING_TRACE_CAPACITY: usize = 1 << 19;

/// Workload shape on the protected (borrowing) enclave. The donor
/// always runs a light standard pulse load — it must have spare CPUs,
/// or there is nothing to lend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LendingWorkload {
    /// Batch + latency colocation: protected near saturation all run.
    Diurnal,
    /// Protected idles, then a burst arrives at 1/4 horizon.
    FlashCrowd,
    /// The borrower hosts CPU hogs that never block.
    Antagonist,
}

impl LendingWorkload {
    /// Stable spec/label name.
    pub fn name(self) -> &'static str {
        match self {
            LendingWorkload::Diurnal => "diurnal",
            LendingWorkload::FlashCrowd => "flash-crowd",
            LendingWorkload::Antagonist => "antagonist",
        }
    }

    /// Parses a stable name back into a workload (repro files).
    pub fn from_name(name: &str) -> Option<Self> {
        [
            LendingWorkload::Diurnal,
            LendingWorkload::FlashCrowd,
            LendingWorkload::Antagonist,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    /// The protected enclave's workload spec. Segments are sized so
    /// that demand comfortably exceeds the protected enclave's single
    /// schedulable CPU — backlog is what the RM reacts to.
    fn protected_spec(self, horizon: Nanos) -> WorkloadSpec {
        match self {
            LendingWorkload::Diurnal => WorkloadSpec::Pulse {
                threads: 6,
                seg: (600 * MICROS, 900 * MICROS),
                period: (900 * MICROS, 1100 * MICROS),
            },
            LendingWorkload::FlashCrowd => WorkloadSpec::FlashCrowd {
                threads: 8,
                seg: (200 * MICROS, 400 * MICROS),
                quiet: (4 * MILLIS, 8 * MILLIS),
                burst: (250 * MICROS, 500 * MICROS),
                burst_at: horizon / 4,
            },
            LendingWorkload::Antagonist => WorkloadSpec::Antagonist {
                pulse: 4,
                hogs: 2,
                seg: (100 * MICROS, 300 * MICROS),
                period: (500 * MICROS, MILLIS),
                slice: MILLIS,
            },
        }
    }
}

/// One control-plane fault injected mid-run (at fixed fractions of the
/// horizon, so the schedule is part of the spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LendingFault {
    /// No perturbation.
    None,
    /// RM crashes at 0.4·horizon and restarts at 0.7·horizon: leases
    /// must stay kernel-enforced in between, and the restarted RM must
    /// reconstruct from enclave snapshots and resume lending.
    RmCrash,
    /// The borrower's agent is killed at 0.5·horizon while leases may
    /// be outstanding; no lease may strand on the dead/recovering side.
    BorrowerCrash,
    /// The borrower runs with a hot standby; its agent is killed just
    /// after a fresh short lease, so the deadline revoke lands during
    /// §3.4 reconstruction.
    RevokeDuringReconstruct,
    /// Short lease durations: grants and forced expiries churn
    /// constantly for the whole run.
    DeadlineStress,
}

impl LendingFault {
    /// Stable spec/label name.
    pub fn name(self) -> &'static str {
        match self {
            LendingFault::None => "none",
            LendingFault::RmCrash => "rm-crash",
            LendingFault::BorrowerCrash => "borrower-crash",
            LendingFault::RevokeDuringReconstruct => "revoke-reconstruct",
            LendingFault::DeadlineStress => "deadline-stress",
        }
    }

    /// Parses a stable name back into a fault (repro files).
    pub fn from_name(name: &str) -> Option<Self> {
        let mut kinds = vec![LendingFault::None];
        kinds.extend(LendingFault::all());
        kinds.into_iter().find(|f| f.name() == name)
    }

    /// All injectable faults, in sweep order.
    pub fn all() -> [LendingFault; 4] {
        [
            LendingFault::RmCrash,
            LendingFault::BorrowerCrash,
            LendingFault::RevokeDuringReconstruct,
            LendingFault::DeadlineStress,
        ]
    }
}

/// A complete two-enclave lending experiment description. Pure data:
/// equal scenarios produce byte-identical runs.
#[derive(Debug, Clone, PartialEq)]
pub struct LendingScenario {
    /// Report label.
    pub name: String,
    /// Policy on the protected (borrowing) enclave.
    pub policy: PolicyKind,
    /// Protected-enclave workload shape.
    pub workload: LendingWorkload,
    /// Injected control-plane fault.
    pub fault: LendingFault,
    /// Kernel RNG / workload seed.
    pub seed: u64,
    /// Virtual run length.
    pub horizon: Nanos,
}

impl LendingScenario {
    /// The canonical sweep point for `(policy, workload, fault, seed)`,
    /// with its standard label.
    pub fn new(
        policy: PolicyKind,
        workload: LendingWorkload,
        fault: LendingFault,
        seed: u64,
        horizon: Nanos,
    ) -> LendingScenario {
        LendingScenario {
            name: format!(
                "lend/{}/{}+{}/seed={seed}",
                policy.name(),
                workload.name(),
                fault.name()
            ),
            policy,
            workload,
            fault,
            seed,
            horizon,
        }
    }

    /// The RM configuration for this scenario's fault arm.
    fn rm_config(&self) -> RmConfig {
        RmConfig {
            epoch: 500 * MICROS,
            lease_duration: if self.fault == LendingFault::DeadlineStress {
                3 * MILLIS
            } else {
                10 * MILLIS
            },
            borrow_threshold: 3,
            return_threshold: 0,
            max_borrow: 2,
            reject_budget: 0,
        }
    }

    /// Canonical spec string — the cache key and determinism contract.
    pub fn spec_string(&self) -> String {
        format!(
            "ghost-lab lending v1\nprotected {}\ndonor {}\nworkload {}\nfault {}\n\
             seed {}\nhorizon {}\ntrace-capacity {}\n",
            self.policy.name(),
            DONOR_POLICY.name(),
            self.workload.name(),
            self.fault.name(),
            self.seed,
            self.horizon,
            LENDING_TRACE_CAPACITY
        )
    }

    /// The machine: protected enclave 0 on CPUs 1–2 running this
    /// scenario's workload (with a hot standby on the
    /// revoke-during-reconstruct arm), donor enclave 1 on CPUs 3–7
    /// running a light standard pulse load.
    fn scenario(&self) -> Scenario {
        Scenario::builder()
            .name(self.name.clone())
            .cpus(8)
            .seed(self.seed)
            .horizon(self.horizon)
            .trace_capacity(LENDING_TRACE_CAPACITY)
            .policy(self.policy)
            .enclave_cpus([1, 2])
            .workload(self.workload.protected_spec(self.horizon))
            .standby(self.fault == LendingFault::RevokeDuringReconstruct)
            .enclave(EnclaveSpec {
                policy: DONOR_POLICY,
                enclave_cpus: Some((3..8).collect()),
                workload: WorkloadSpec::pulse(4),
                ..EnclaveSpec::default()
            })
            .build()
    }

    /// Launches [`LendingScenario::scenario`] and starts the RM, which
    /// lends from the donor to the protected enclave.
    fn start(&self) -> LabRun {
        let mut run = self.scenario().launch();
        let GhostSim {
            kernel,
            runtime,
            enclaves,
            ..
        } = &mut run.sim;
        let (protected, donor) = (enclaves[0].id(), enclaves[1].id());
        runtime.rm_start(&mut kernel.state, self.rm_config(), protected, donor);
        run
    }

    /// Launches, drives the fault schedule, and checks the lending
    /// oracles. `pass` is false iff an oracle failed; every failure is
    /// reported as an `oracle-fail ...` line.
    pub fn run(&self) -> ExperimentResult {
        self.run_traced().0
    }

    /// Like [`LendingScenario::run`], but also hands back the sink holding
    /// the recorded trace (for Chrome export of failing chaos combos).
    pub fn run_traced(&self) -> (ExperimentResult, TraceSink) {
        let mut run = self.start();
        let h = self.horizon;
        let GhostSim {
            kernel,
            runtime,
            enclaves,
            ..
        } = &mut run.sim;
        let (protected, donor) = (&enclaves[0], &enclaves[1]);
        let kill_protected_agent = |kernel: &mut Kernel| {
            let agent = protected
                .global_agent()
                .or_else(|| protected.agent_tids().first().copied());
            if let Some(a) = agent {
                kernel.kill(a);
            }
        };
        match self.fault {
            LendingFault::None | LendingFault::DeadlineStress => {}
            LendingFault::RmCrash => {
                kernel.run_until(h * 2 / 5);
                runtime.rm_crash();
                kernel.run_until(h * 7 / 10);
                runtime.rm_restart(&mut kernel.state);
            }
            LendingFault::BorrowerCrash => {
                kernel.run_until(h / 2);
                kill_protected_agent(kernel);
            }
            LendingFault::RevokeDuringReconstruct => {
                kernel.run_until(h * 2 / 5);
                // Guarantee a short lease is outstanding when the agent
                // dies, so its deadline lands mid-recovery.
                if protected.borrowed_cpus().is_empty() {
                    for &cpu in donor.cpus().iter().rev() {
                        let k = &mut kernel.state;
                        if donor.try_lend_cpu(k, protected, cpu, 20 * MILLIS).is_ok() {
                            break;
                        }
                    }
                }
                kernel.run_until(h * 2 / 5 + 5 * MILLIS);
                kill_protected_agent(kernel);
            }
        }
        kernel.run_until(h);

        let mut failures = self.check_oracles(&run);
        let sim = &run.sim;
        let (violations, metrics, trace_records, trace_hash) =
            sim.sink.with_records(|records, _| {
                (
                    check::check(records.clone()),
                    TraceMetrics::from_records(records.clone()),
                    records.len(),
                    fnv64_debug_lines(records),
                )
            });
        for v in violations {
            failures.push(format!("oracle-fail trace-invariant {v:?}"));
        }
        let stats = sim.runtime.lease_stats();
        let rm = sim.runtime.rm_stats();

        let mut lines = vec![
            format!("p-completions {}", run.enclave_completions(0)),
            format!("d-completions {}", run.enclave_completions(1)),
            format!("leases-granted {}", stats.granted),
            format!("leases-returned {}", stats.returned),
            format!("leases-expired {}", stats.expired),
            format!("lease-borrower-deaths {}", stats.borrower_deaths),
            format!("lease-lender-deaths {}", stats.lender_deaths),
            format!("leases-outstanding {}", sim.runtime.leases().len()),
            format!("rm-epochs {}", rm.map(|r| r.epochs).unwrap_or_default()),
            format!("rm-restarts {}", rm.map(|r| r.restarts).unwrap_or_default()),
            format!("rm-failovers {}", metrics.rm_failovers),
            format!(
                "lease-reclaim-p99-ns {}",
                metrics
                    .lease_reclaim_p99_ns()
                    .map_or_else(|| "none".into(), |p| p.to_string())
            ),
            format!("protected-alive {}", u8::from(sim.enclaves[0].alive())),
            format!("donor-alive {}", u8::from(sim.enclaves[1].alive())),
            format!("trace-records {trace_records}"),
            format!("trace-hash {trace_hash:016x}"),
        ];
        lines.extend(failures.iter().cloned());
        let hash = fnv64_lines(&lines);
        (
            ExperimentResult {
                pass: failures.is_empty(),
                hash,
                lines,
            },
            run.sim.sink,
        )
    }

    /// The lending oracles: the lease verdicts plus forward progress on
    /// both sides (the donor's light load always fits; the protected
    /// side ran at least until the injected fault).
    fn check_oracles(&self, run: &LabRun) -> Vec<String> {
        let sim = &run.sim;
        let cpus = sim.kernel.state.topo.num_cpus();
        let [protected, donor] = &sim.enclaves[..] else {
            unreachable!("a lending machine has two enclaves")
        };
        let mut fails = lease_verdicts(self.fault, &sim.runtime, protected, donor, cpus);
        if run.enclave_completions(1) == 0 {
            fails.push("oracle-fail donor-no-progress".into());
        }
        if run.enclave_completions(0) == 0 {
            fails.push("oracle-fail protected-no-progress".into());
        }
        fails
    }
}

/// The lease contract, judged on the runtime's end state — the same on
/// either backend: no stranded lease, full grant accounting, a donor that
/// survived, and what the injected `fault` must (not) have done to the
/// `protected` borrower. One `oracle-fail ...` line per violation.
pub fn lease_verdicts(
    fault: LendingFault,
    rt: &GhostRuntime,
    protected: &EnclaveHandle,
    donor: &EnclaveHandle,
    num_cpus: usize,
) -> Vec<String> {
    let mut fails = Vec::new();

    // No stranded lease: every active lease's CPU is owned by its
    // live borrower, and no CPU is owned by a dead enclave.
    for l in rt.leases() {
        if rt.cpu_owner(l.cpu) != Some(l.borrower) {
            fails.push(format!(
                "oracle-fail stranded-lease cpu={} borrower={:?} owner={:?}",
                l.cpu.0,
                l.borrower,
                rt.cpu_owner(l.cpu)
            ));
        }
    }
    for c in 0..num_cpus as u16 {
        if let Some(eid) = rt.cpu_owner(CpuId(c)) {
            let alive = (eid == protected.id() && protected.alive())
                || (eid == donor.id() && donor.alive());
            if !alive {
                fails.push(format!(
                    "oracle-fail cpu-on-dead-enclave cpu={c} enclave={eid:?}"
                ));
            }
        }
    }

    // Every grant is accounted for.
    let s = rt.lease_stats();
    let resolved = s.returned + s.expired + s.borrower_deaths + s.lender_deaths;
    if s.granted != resolved + rt.leases().len() as u64 {
        fails.push(format!(
            "oracle-fail lease-accounting granted={} resolved={resolved} outstanding={}",
            s.granted,
            rt.leases().len()
        ));
    }

    // The donor must survive every arm.
    if !donor.alive() {
        fails.push("oracle-fail donor-died".into());
    }

    match fault {
        LendingFault::None | LendingFault::DeadlineStress => {
            if s.granted == 0 {
                fails.push("oracle-fail rm-never-lent".into());
            }
            if fault == LendingFault::DeadlineStress && s.expired == 0 {
                fails.push("oracle-fail no-deadline-expiry".into());
            }
            if !protected.alive() {
                fails.push("oracle-fail protected-died-without-fault".into());
            }
        }
        LendingFault::RmCrash => {
            match rt.rm_stats() {
                Some(rm) if rm.restarts == 0 => {
                    fails.push("oracle-fail rm-failover-not-recorded".into())
                }
                None => fails.push("oracle-fail rm-not-restarted".into()),
                _ => {}
            }
            if !protected.alive() {
                fails.push("oracle-fail protected-died-without-fault".into());
            }
        }
        LendingFault::BorrowerCrash => {
            // The borrower's fate depends on its agent mode (a
            // centralized enclave dies, a per-CPU one recovers);
            // the invariants above are the contract.
        }
        LendingFault::RevokeDuringReconstruct => {
            if !protected.alive() {
                fails.push("oracle-fail standby-did-not-recover".into());
            }
        }
    }
    fails
}

impl Experiment for LendingScenario {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn spec(&self) -> String {
        self.spec_string()
    }

    fn execute(&self) -> ExperimentResult {
        self.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sweep;

    /// The two centralized policies the lending sweep targets.
    fn policies() -> Vec<PolicyKind> {
        vec![PolicyKind::CentralizedFifo, PolicyKind::Shinjuku]
    }

    #[test]
    fn diurnal_colocation_borrows_and_stays_clean() {
        let sc = LendingScenario::new(
            PolicyKind::CentralizedFifo,
            LendingWorkload::Diurnal,
            LendingFault::None,
            7,
            150 * MILLIS,
        );
        let r = sc.run();
        assert!(r.pass, "oracles failed:\n{}", r.lines.join("\n"));
        let granted: u64 = r
            .lines
            .iter()
            .find_map(|l| l.strip_prefix("leases-granted "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(granted >= 1, "diurnal backlog must trigger lending");
    }

    #[test]
    fn flash_crowd_triggers_borrow_after_burst() {
        let sc = LendingScenario::new(
            PolicyKind::CentralizedFifo,
            LendingWorkload::FlashCrowd,
            LendingFault::None,
            7,
            200 * MILLIS,
        );
        // The quiet phase may see an incidental startup borrow, but the
        // crowd's arrival must drive sustained additional lending: run a
        // truncated copy to just before the burst and compare.
        let mut pre = sc.start();
        pre.sim.kernel.run_until(sc.horizon / 4);
        let pre_granted = pre.sim.runtime.lease_stats().granted;
        let r = sc.run();
        assert!(r.pass, "oracles failed:\n{}", r.lines.join("\n"));
        let granted: u64 = r
            .lines
            .iter()
            .find_map(|l| l.strip_prefix("leases-granted "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            granted > pre_granted,
            "crowd must trigger borrowing beyond the quiet phase \
             (pre={pre_granted}, total={granted})"
        );
    }

    #[test]
    fn antagonist_borrower_loses_cpu_at_deadline() {
        let sc = LendingScenario::new(
            PolicyKind::CentralizedFifo,
            LendingWorkload::Antagonist,
            LendingFault::DeadlineStress,
            7,
            200 * MILLIS,
        );
        let r = sc.run();
        assert!(r.pass, "oracles failed:\n{}", r.lines.join("\n"));
        let expired: u64 = r
            .lines
            .iter()
            .find_map(|l| l.strip_prefix("leases-expired "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(expired >= 1, "hogs must not outlive the lease deadline");
    }

    #[test]
    fn fault_matrix_passes_and_is_parallel_deterministic() {
        let sweep: Vec<LendingScenario> = policies()
            .into_iter()
            .flat_map(|p| {
                LendingFault::all()
                    .map(|f| LendingScenario::new(p, LendingWorkload::Diurnal, f, 11, 120 * MILLIS))
            })
            .collect();
        let serial = run_sweep(&sweep, 1, None);
        let parallel = run_sweep(&sweep, 4, None);
        assert_eq!(serial.digest(), parallel.digest(), "serial ≡ parallel");
        for item in &serial.items {
            assert!(
                item.result.pass,
                "{} failed:\n{}",
                item.label,
                item.result.lines.join("\n")
            );
        }
    }

    /// Revoke-to-reclaim latency under deadline stress, per policy: the
    /// lease deadline fires, and the lender redispatches the reclaimed
    /// CPU within 1 ms (p99, and no single span over it).
    #[test]
    fn lease_reclaim_rows_meet_the_millisecond_bound() {
        let horizon = 200 * MILLIS;
        for p in policies() {
            let sc = LendingScenario::new(
                p,
                LendingWorkload::Diurnal,
                LendingFault::DeadlineStress,
                3,
                horizon,
            );
            let mut run = sc.start();
            run.run_to_horizon();
            let m = run
                .sim
                .sink
                .with_records(|r, _| TraceMetrics::from_records(r));
            let name = p.name();
            assert!(m.lease_revokes() >= 1, "{name}: no reclaims measured");
            let p99 = m.lease_reclaim_p99_ns().expect("reclaim spans");
            assert!(p99 <= MILLIS, "{name}: reclaim p99 {p99} ns > 1 ms");
            let over = m
                .lease_reclaim_spans
                .iter()
                .filter(|(r, done)| done.saturating_sub(*r) > MILLIS)
                .count();
            assert_eq!(over, 0, "{name}: reclaim spans over 1 ms");
        }
    }
}
