//! Runs one `(policy × workload × fault plan × seed)` combo on the
//! simulated kernel and judges it with the oracles.
//!
//! Since the `ghost-lab` experiment engine landed, a combo is just a
//! thin wrapper over a [`Scenario`]: [`Combo::scenario`] maps the sweep
//! point onto the declarative spec, [`run_combo`] launches it through
//! the canonical builder path and layers the chaos oracles on top.
//! [`PolicyKind`] itself moved into `ghost-lab` and is re-exported here
//! so `repro.json` files and downstream callers are unaffected.

use crate::oracle::{self, Failure};
use crate::plan::{generate_plan, generate_recovery_plan};
use ghost_core::runtime::GhostStats;
use ghost_lab::engine::{Experiment, ExperimentResult};
use ghost_lab::fnv64_lines;
pub use ghost_lab::scenario::PolicyKind;
use ghost_lab::scenario::{Scenario, TopologySpec, WorkloadSpec};
use ghost_sim::faults::{FaultKind, FaultPlan};
use ghost_sim::time::{Nanos, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_trace::TraceRecord;

/// Watchdog timeout used for every chaos enclave: short enough that
/// recovery from a wedged agent fits inside the run horizon.
pub const WATCHDOG: Nanos = 20 * MILLIS;

/// One point of the sweep: everything needed to reproduce a run exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Combo {
    /// Policy under test.
    pub policy: PolicyKind,
    /// Seed for the kernel RNG, the workload shape, and the fault plan.
    pub seed: u64,
    /// Fault schedule injected into the kernel.
    pub plan: FaultPlan,
    /// Virtual run length.
    pub horizon: Nanos,
    /// Number of workload threads.
    pub threads: usize,
}

impl Combo {
    /// The sweep's combo for `(policy, seed)`: standard horizon and
    /// thread count, fault plan derived from the seed.
    pub fn generated(policy: PolicyKind, seed: u64) -> Self {
        let horizon = 120 * MILLIS;
        let topo = Topology::test_small(4);
        let cpus: Vec<CpuId> = policy.enclave_cpus(&topo).iter().collect();
        let plan = generate_plan(seed, horizon, &cpus);
        Self {
            policy,
            seed,
            plan,
            horizon,
            threads: 5,
        }
    }

    /// The recovery sweep's combo for `(policy, seed)`: like
    /// [`Combo::generated`] but every plan injects at least one agent
    /// crash or in-place upgrade, so reconstruction and failover run on
    /// every single combo instead of whenever the generic generator
    /// happens to roll one.
    pub fn generated_recovery(policy: PolicyKind, seed: u64) -> Self {
        let horizon = 120 * MILLIS;
        let topo = Topology::test_small(4);
        let cpus: Vec<CpuId> = policy.enclave_cpus(&topo).iter().collect();
        let plan = generate_recovery_plan(seed, horizon, &cpus);
        Self {
            policy,
            seed,
            plan,
            horizon,
            threads: 5,
        }
    }

    /// True if the run pre-stages a second policy version: always when
    /// the plan upgrades in place, and on even seeds when it crashes an
    /// agent (exercising both the fallback and hot-standby paths).
    pub fn stages_upgrade(&self) -> bool {
        let has = |f: fn(&FaultKind) -> bool| self.plan.events.iter().any(|fe| f(&fe.kind));
        has(|k| matches!(k, FaultKind::Upgrade))
            || (self.seed.is_multiple_of(2) && has(|k| matches!(k, FaultKind::AgentCrash { .. })))
    }

    /// True if the run arms a hot standby (degraded-mode failover): odd
    /// seeds whose plan crashes an agent. Even crash seeds stage an
    /// upgrade instead ([`Combo::stages_upgrade`]), so both §3.4 rescue
    /// paths stay covered. Derived from `(seed, plan)` alone — never
    /// stored — so replaying a `repro.json` rebuilds the same setup.
    pub fn plans_standby(&self) -> bool {
        !self.seed.is_multiple_of(2)
            && self
                .plan
                .events
                .iter()
                .any(|fe| matches!(fe.kind, FaultKind::AgentCrash { .. }))
    }

    /// The combo as a declarative `ghost-lab` scenario. Everything the
    /// run needs — machine, enclave shape, upgrade/standby staging,
    /// pulse workload, trace knobs — is in the returned value, so its
    /// spec string doubles as the combo's cache key.
    pub fn scenario(&self) -> Scenario {
        Scenario::builder()
            .name(format!("{}/seed={}", self.policy.name(), self.seed))
            .topology(TopologySpec::Small { cores: 4 })
            .policy(self.policy)
            .workload(WorkloadSpec::pulse(self.threads))
            .seed(self.seed)
            .horizon(self.horizon)
            .faults(self.plan.clone())
            .watchdog(WATCHDOG)
            .stage_upgrade(self.stages_upgrade())
            .standby(self.plans_standby())
            .trace_capacity(1 << 18)
            .build()
    }
}

/// Everything a finished run exposes to oracles, the shrinker, and tests.
pub struct RunReport {
    /// Oracle verdicts; empty means the run was clean.
    pub failures: Vec<Failure>,
    /// Workload segments completed.
    pub completions: u64,
    /// Runtime counters.
    pub stats: GhostStats,
    /// The recorded trace (for Chrome export of failing runs).
    pub records: Vec<TraceRecord>,
}

/// Evaluates every oracle against a finished run of `combo`.
fn judge(combo: &Combo, run: &ghost_lab::LabRun) -> Vec<Failure> {
    let recovery_slo = combo
        .plans_standby()
        .then(|| ghost_core::StandbyConfig::default().recovery_slo);
    run.sim.sink.with_records(|records, dropped| {
        oracle::evaluate(
            records,
            dropped,
            &run.sim.kernel.state,
            &run.sim.runtime,
            run.sim.enclave.id(),
            &run.threads,
            run.completions(),
            recovery_slo,
        )
    })
}

/// Runs `combo` to its horizon and evaluates every oracle. Fully
/// deterministic: the same combo always returns the same report.
pub fn run_combo(combo: &Combo) -> RunReport {
    let mut run = combo.scenario().launch();
    run.run_to_horizon();
    let failures = judge(combo, &run);
    RunReport {
        completions: run.completions(),
        stats: run.sim.runtime.stats(),
        records: run.sim.sink.snapshot(),
        failures,
    }
}

/// A combo as a `ghost-lab` [`Experiment`], so the chaos sweep can run
/// on the parallel engine. The spec is the underlying scenario's spec
/// string (making sweep results content-addressed and cacheable); the
/// result is the scenario's hashable summary plus one `failure ...`
/// line per oracle violation; `pass` means no oracle fired.
pub struct ComboExperiment(pub Combo);

impl Experiment for ComboExperiment {
    fn label(&self) -> String {
        format!("{}/seed={}", self.0.policy.name(), self.0.seed)
    }

    fn spec(&self) -> String {
        self.0.scenario().spec_string()
    }

    fn execute(&self) -> ExperimentResult {
        let mut run = self.0.scenario().launch();
        run.run_to_horizon();
        let failures = judge(&self.0, &run);
        let mut lines = run.summary().lines;
        for f in &failures {
            lines.push(format!("failure {f}"));
        }
        let hash = fnv64_lines(&lines);
        ExperimentResult {
            pass: failures.is_empty(),
            hash,
            lines,
        }
    }
}
