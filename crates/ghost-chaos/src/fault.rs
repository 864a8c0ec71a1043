//! The fault family: one `(policy × workload × fault plan × seed)` combo
//! on the simulated kernel, judged by [`crate::oracle`].
//!
//! A combo is a thin wrapper over a `ghost-lab` [`Scenario`]:
//! [`FaultCase::scenario`] maps the sweep point onto the declarative
//! spec, [`FaultCase::execute`] launches it through the canonical builder
//! path and layers the chaos oracles on top. The recovery sweep is the
//! same case with the other plan generator ([`RecoveryCombo`]).

use crate::case::{CaseReport, ChaosCase};
use crate::codec::{list, list_field, num, obj, policy_field, text, wide};
use crate::oracle::{self, Failure};
use crate::plan::{generate_plan, generate_recovery_plan};
use ghost_lab::scenario::{Scenario, TopologySpec, WorkloadSpec};
use ghost_lab::{LabRun, PolicyKind};
use ghost_sim::faults::{FaultKind, FaultPlan};
use ghost_sim::time::{Nanos, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_trace::json::Json;

/// Watchdog timeout used for every chaos enclave: short enough that
/// recovery from a wedged agent fits inside the run horizon.
pub const WATCHDOG: Nanos = 20 * MILLIS;

/// One point of the fault sweep: everything needed to reproduce a run
/// exactly. `RECOVERY` only selects the plan generator of
/// [`ChaosCase::generate`]; it is not part of the case's value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCase<const RECOVERY: bool> {
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

/// The default sweep's case: 0–3 faults of any kind per plan.
pub type Combo = FaultCase<false>;

/// The recovery sweep's case: every plan injects at least one agent
/// crash or in-place upgrade, so reconstruction and failover run on
/// every single combo instead of whenever the generic generator happens
/// to roll one.
pub type RecoveryCombo = FaultCase<true>;

impl<const RECOVERY: bool> FaultCase<RECOVERY> {
    /// The sweep's combo for `(policy, seed)`: standard horizon and
    /// thread count, fault plan derived from the seed.
    pub fn generated(policy: PolicyKind, seed: u64) -> Self {
        let horizon = 120 * MILLIS;
        let topo = Topology::test_small(4);
        let cpus: Vec<CpuId> = policy.enclave_cpus(&topo).iter().collect();
        let generate = if RECOVERY {
            generate_recovery_plan
        } else {
            generate_plan
        };
        Self {
            policy,
            seed,
            plan: generate(seed, horizon, &cpus),
            horizon,
            threads: 5,
        }
    }

    fn has(&self, kind: fn(&FaultKind) -> bool) -> bool {
        self.plan.events.iter().any(|fe| kind(&fe.kind))
    }

    fn crashes(&self) -> bool {
        self.has(|k| matches!(k, FaultKind::AgentCrash { .. }))
    }

    /// True if the run pre-stages a second policy version: always when
    /// the plan upgrades in place, and on even seeds when it crashes an
    /// agent (exercising both the fallback and hot-standby paths).
    pub fn stages_upgrade(&self) -> bool {
        self.has(|k| matches!(k, FaultKind::Upgrade))
            || (self.seed.is_multiple_of(2) && self.crashes())
    }

    /// True if the run arms a hot standby (degraded-mode failover): odd
    /// seeds whose plan crashes an agent. Even crash seeds stage an
    /// upgrade instead ([`FaultCase::stages_upgrade`]), so both §3.4
    /// rescue paths stay covered. Derived from `(seed, plan)` alone —
    /// never stored — so replaying a `repro.json` rebuilds the same setup.
    pub fn plans_standby(&self) -> bool {
        !self.seed.is_multiple_of(2) && self.crashes()
    }

    /// The combo as a declarative `ghost-lab` scenario. Everything the
    /// run needs — machine, enclave shape, upgrade/standby staging,
    /// pulse workload, trace knobs — is in the returned value, so its
    /// spec string doubles as the combo's cache key.
    pub fn scenario(&self) -> Scenario {
        Scenario::builder()
            .name(self.label())
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

    /// Runs the combo to its horizon and evaluates every oracle, handing
    /// back the finished machine as well (tests read its counters).
    /// Fully deterministic: the same combo always ends in the same state.
    pub fn execute(&self) -> (LabRun, Vec<Failure>) {
        let mut run = self.scenario().launch();
        run.run_to_horizon();
        let recovery_slo = self
            .plans_standby()
            .then(|| ghost_core::StandbyConfig::default().recovery_slo);
        let failures = run.sim.sink.with_records(|records, dropped| {
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
        });
        (run, failures)
    }
}

impl<const RECOVERY: bool> ChaosCase for FaultCase<RECOVERY> {
    const KIND: &'static str = "fault";
    const COMBOS: u64 = 64;
    const DETERMINISTIC: bool = true;

    fn policies() -> Vec<PolicyKind> {
        PolicyKind::evaluation_matrix()
    }

    /// Any registered policy runs under a fault plan; the sweep rotates
    /// over the evaluation matrix only to keep it short.
    fn admits(_: PolicyKind) -> bool {
        true
    }

    fn generate(index: u64, seed_base: u64, policies: &[PolicyKind]) -> Self {
        let policy = policies[(index % policies.len() as u64) as usize];
        Self::generated(policy, seed_base + index)
    }

    fn label(&self) -> String {
        format!("{}/seed={}", self.policy.name(), self.seed)
    }

    fn spec(&self) -> String {
        self.scenario().spec_string()
    }

    /// The scenario's hashable summary is the report's lines.
    fn run(&self) -> CaseReport {
        let (run, failures) = self.execute();
        CaseReport {
            failures,
            lines: run.summary().lines,
            trace: run.sim.sink.clone(),
        }
    }

    fn encode(&self) -> Json {
        obj([
            ("kind", text(Self::KIND)),
            ("policy", text(self.policy.name())),
            ("seed", wide::enc(self.seed)),
            ("horizon", num::enc(self.horizon)),
            ("threads", num::enc(self.threads as u64)),
            ("plan", list(&self.plan.events)),
        ])
    }

    fn decode(doc: &Json) -> Result<Self, String> {
        Ok(Self {
            policy: policy_field(doc, "policy", Self::admits)?,
            seed: wide::dec(doc, "seed")?,
            horizon: doc.uint("horizon")?,
            // One simulated thread per unit: `u16` bounds what a
            // hand-edited document can ask the kernel to spawn.
            threads: doc.uint::<u16>("threads")?.into(),
            plan: FaultPlan {
                events: list_field(doc, "plan")?,
            },
        })
    }

    /// The plan with any one event deleted.
    fn shrink_candidates(&self) -> Vec<Self> {
        (0..self.plan.events.len())
            .map(|i| {
                let mut smaller = self.clone();
                smaller.plan.events.remove(i);
                smaller
            })
            .collect()
    }
}
