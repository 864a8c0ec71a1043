//! The policy registry: every scheduler in this crate, as data.
//!
//! Historically `PolicyKind` lived in `ghost-lab/src/scenario.rs` and
//! consumers picked between two hand-maintained arrays —
//! `PolicyKind::ALL` (the five-policy evaluation matrix) and
//! `PolicyKind::EVERY` (all seven implementations) — a trap whenever a
//! new policy landed in one list but not the other. The registry
//! replaces both: each policy registers exactly once in [`REGISTRY`]
//! with a name, a factory, and explicit [`PolicyCaps`] capability
//! flags, and consumers query by capability
//! ([`PolicyKind::evaluation_matrix`], [`PolicyKind::live_backend`],
//! [`PolicyKind::byzantine_victims`], [`PolicyKind::registered`]).
//!
//! Registry order is load-bearing: the first five entries are the
//! paper's §4 evaluation policies in the historical sweep round-robin
//! order, so chaos/recovery combo assignments and existing
//! `repro.json` files stay stable, and `digest_freeze` digests are
//! unchanged. New policies append at the end.

use crate::snap::SNAP_COOKIE;
use crate::{
    CentralizedFifo, CoreSchedPolicy, PerCpuPolicy, SearchConfig, SearchPolicy,
    ShinjukuAdaptivePolicy, ShinjukuPolicy, ShinjukuShenangoPolicy, SnapPolicy,
};
use ghost_core::enclave::EnclaveConfig;
use ghost_core::policy::GhostPolicy;
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::CpuSet;

/// Every scheduling policy in this crate, as data. The spec-string /
/// repro-file vocabulary: [`PolicyKind::name`] values are stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The round-robin centralized FIFO of Fig. 5.
    CentralizedFifo,
    /// The per-CPU example policy of §3.2 / Fig. 3.
    PerCpu,
    /// The Shinjuku preemptive microsecond-scale policy, §4.2.
    Shinjuku,
    /// The Google Snap packet-processing policy, §4.3.
    Snap,
    /// Secure VM core scheduling with synchronized siblings, §4.5.
    CoreSched,
    /// Shinjuku + Shenango core reallocation, §4.2.
    ShinjukuShenango,
    /// The Google Search policy, §4.4.
    Search,
    /// Self-tuning Shinjuku: quantum + steal threshold adapt online.
    ShinjukuAdaptive,
}

/// What a policy can do / where it may be deployed. Capability flags
/// replace the old `ALL`/`EVERY` arrays: consumers filter the registry
/// instead of maintaining their own lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyCaps {
    /// Member of the five-policy §4 evaluation matrix (chaos sweeps,
    /// CLI defaults). Kept at the historical five so combo assignments
    /// and repro files stay stable.
    pub evaluation: bool,
    /// Proven on the `ghost-live` real-thread backend (wall-clock
    /// chaos sweeps only target these).
    pub live_backend: bool,
    /// Eligible victim for the byzantine co-resident adversary sweep.
    pub byzantine_victim: bool,
    /// Needs whole physical cores (sibling-synchronized), so its
    /// enclave takes the entire machine instead of leaving CPU 0 to
    /// CFS.
    pub whole_cores: bool,
}

impl PolicyCaps {
    const fn new() -> Self {
        Self {
            evaluation: false,
            live_backend: false,
            byzantine_victim: false,
            whole_cores: false,
        }
    }
}

/// One registry row: the kind, its stable name, its capabilities, and
/// a factory producing a fresh boxed instance.
pub struct PolicyEntry {
    /// The enum tag.
    pub kind: PolicyKind,
    /// Stable name used in spec strings, repro files, and CLI output.
    pub name: &'static str,
    /// Capability flags.
    pub caps: PolicyCaps,
    /// Fresh instance factory (also used for staged-upgrade and
    /// standby-respawn copies).
    pub factory: fn() -> Box<dyn GhostPolicy>,
}

/// The one place a policy registers. Order: the five evaluation
/// policies first (historical sweep round-robin order), then the rest
/// in the order they landed.
pub static REGISTRY: [PolicyEntry; 8] = [
    PolicyEntry {
        kind: PolicyKind::CentralizedFifo,
        name: "centralized-fifo",
        caps: PolicyCaps {
            evaluation: true,
            live_backend: true,
            byzantine_victim: true,
            ..PolicyCaps::new()
        },
        factory: || Box::new(CentralizedFifo::new()),
    },
    PolicyEntry {
        kind: PolicyKind::PerCpu,
        name: "per-cpu",
        caps: PolicyCaps {
            evaluation: true,
            live_backend: true,
            byzantine_victim: true,
            ..PolicyCaps::new()
        },
        factory: || Box::new(PerCpuPolicy::new()),
    },
    PolicyEntry {
        kind: PolicyKind::Shinjuku,
        name: "shinjuku",
        caps: PolicyCaps {
            evaluation: true,
            byzantine_victim: true,
            ..PolicyCaps::new()
        },
        factory: || Box::new(ShinjukuPolicy::new()),
    },
    PolicyEntry {
        kind: PolicyKind::Snap,
        name: "snap",
        caps: PolicyCaps {
            evaluation: true,
            byzantine_victim: true,
            ..PolicyCaps::new()
        },
        factory: || Box::new(SnapPolicy::new()),
    },
    PolicyEntry {
        kind: PolicyKind::CoreSched,
        name: "core-sched",
        caps: PolicyCaps {
            evaluation: true,
            whole_cores: true,
            ..PolicyCaps::new()
        },
        factory: || Box::new(CoreSchedPolicy::new()),
    },
    PolicyEntry {
        kind: PolicyKind::ShinjukuShenango,
        name: "shinjuku-shenango",
        caps: PolicyCaps::new(),
        factory: || Box::new(ShinjukuShenangoPolicy::new()),
    },
    PolicyEntry {
        kind: PolicyKind::Search,
        name: "search",
        caps: PolicyCaps::new(),
        factory: || Box::new(SearchPolicy::new(SearchConfig::default())),
    },
    PolicyEntry {
        kind: PolicyKind::ShinjukuAdaptive,
        name: "shinjuku-adaptive",
        caps: PolicyCaps::new(),
        factory: || Box::new(ShinjukuAdaptivePolicy::new()),
    },
];

impl PolicyKind {
    /// This policy's registry row.
    pub fn entry(self) -> &'static PolicyEntry {
        REGISTRY
            .iter()
            .find(|e| e.kind == self)
            .expect("every PolicyKind variant is registered")
    }

    /// All registered policies, in registry order.
    pub fn registered() -> impl Iterator<Item = PolicyKind> {
        REGISTRY.iter().map(|e| e.kind)
    }

    /// The five-policy §4 evaluation matrix, in sweep round-robin
    /// order (the old `PolicyKind::ALL`).
    pub fn evaluation_matrix() -> Vec<PolicyKind> {
        REGISTRY
            .iter()
            .filter(|e| e.caps.evaluation)
            .map(|e| e.kind)
            .collect()
    }

    /// Policies proven on the `ghost-live` real-thread backend.
    pub fn live_backend() -> Vec<PolicyKind> {
        REGISTRY
            .iter()
            .filter(|e| e.caps.live_backend)
            .map(|e| e.kind)
            .collect()
    }

    /// Eligible victims for the byzantine adversary sweep.
    pub fn byzantine_victims() -> Vec<PolicyKind> {
        REGISTRY
            .iter()
            .filter(|e| e.caps.byzantine_victim)
            .map(|e| e.kind)
            .collect()
    }

    /// Capability flags for this policy.
    pub fn caps(self) -> &'static PolicyCaps {
        &self.entry().caps
    }

    /// Stable name used in spec strings, repro files, and CLI output.
    pub fn name(self) -> &'static str {
        self.entry().name
    }

    /// Inverse of [`PolicyKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        REGISTRY.iter().find(|e| e.name == name).map(|e| e.kind)
    }

    /// A fresh policy instance (also used for staged-upgrade and
    /// standby-respawn copies).
    pub fn build(self) -> Box<dyn GhostPolicy> {
        (self.entry().factory)()
    }

    /// The enclave shape this policy needs (agent mode, tick delivery).
    pub fn enclave_config(self, name: &str) -> EnclaveConfig {
        match self {
            PolicyKind::PerCpu => EnclaveConfig::per_cpu(name),
            PolicyKind::CoreSched => EnclaveConfig::per_core(name).with_ticks(true),
            PolicyKind::CentralizedFifo
            | PolicyKind::Shinjuku
            | PolicyKind::Snap
            | PolicyKind::ShinjukuShenango
            | PolicyKind::Search
            | PolicyKind::ShinjukuAdaptive => EnclaveConfig::centralized(name),
        }
    }

    /// Default enclave CPUs on `topo`. Whole-core policies take the
    /// entire machine; every other policy leaves CPU 0 to CFS.
    pub fn enclave_cpus(self, topo: &Topology) -> CpuSet {
        if self.caps().whole_cores {
            topo.all_cpus_set()
        } else {
            (1..topo.num_cpus() as u16).map(CpuId).collect()
        }
    }

    /// Cookie for the `i`-th workload thread: Snap wants its worker
    /// marker, core scheduling wants two VM groups, the rest ignore it.
    pub fn cookie_for(self, i: usize) -> u64 {
        match self {
            PolicyKind::Snap => SNAP_COOKIE,
            PolicyKind::CoreSched => (i as u64 % 2) + 1,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_is_registered_once() {
        for kind in PolicyKind::registered() {
            assert_eq!(
                REGISTRY.iter().filter(|e| e.kind == kind).count(),
                1,
                "{kind:?} must register exactly once"
            );
        }
        assert_eq!(REGISTRY.len(), 8);
    }

    #[test]
    fn registry_is_exhaustive_with_stable_names_and_caps() {
        // Every variant's wire name, pinned `FaultKind::name()`-style:
        // repro files, sweep digests, and CLI flags depend on these
        // exact strings. Adding a `PolicyKind` variant must extend this
        // table (the length assertion fails otherwise) — there is no
        // way to register a policy without declaring its stable name
        // and its capability row.
        let expected = [
            (PolicyKind::CentralizedFifo, "centralized-fifo"),
            (PolicyKind::PerCpu, "per-cpu"),
            (PolicyKind::Shinjuku, "shinjuku"),
            (PolicyKind::Snap, "snap"),
            (PolicyKind::CoreSched, "core-sched"),
            (PolicyKind::ShinjukuShenango, "shinjuku-shenango"),
            (PolicyKind::Search, "search"),
            (PolicyKind::ShinjukuAdaptive, "shinjuku-adaptive"),
        ];
        let registered: Vec<_> = PolicyKind::registered().collect();
        assert_eq!(
            registered.len(),
            expected.len(),
            "PolicyKind variant not covered here: pin its name and caps"
        );
        for (kind, name) in expected {
            assert!(registered.contains(&kind), "{kind:?} not registered");
            assert_eq!(kind.name(), name, "{kind:?} wire name drifted");
            assert_eq!(PolicyKind::from_name(name), Some(kind));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "'{name}' is not kebab-case"
            );
            // Capability coverage: the derived sets must agree with the
            // per-kind caps row, and every kind must build a policy and
            // an enclave config without panicking.
            let caps = kind.caps();
            assert_eq!(
                PolicyKind::evaluation_matrix().contains(&kind),
                caps.evaluation,
                "{name}: evaluation set out of sync with caps"
            );
            assert_eq!(
                PolicyKind::live_backend().contains(&kind),
                caps.live_backend,
                "{name}: live-backend set out of sync with caps"
            );
            assert_eq!(
                PolicyKind::byzantine_victims().contains(&kind),
                caps.byzantine_victim,
                "{name}: byzantine-victim set out of sync with caps"
            );
            let _ = kind.build();
            let _ = kind.enclave_config("caps-exhaustiveness");
        }
    }

    #[test]
    fn names_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for kind in PolicyKind::registered() {
            assert!(seen.insert(kind.name()), "duplicate name {}", kind.name());
            assert_eq!(PolicyKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::from_name("no-such-policy"), None);
    }

    #[test]
    fn evaluation_matrix_preserves_historical_all_order() {
        // The old `PolicyKind::ALL`, verbatim — chaos combo round-robin
        // assignments and repro files depend on this order.
        assert_eq!(
            PolicyKind::evaluation_matrix(),
            vec![
                PolicyKind::CentralizedFifo,
                PolicyKind::PerCpu,
                PolicyKind::Shinjuku,
                PolicyKind::Snap,
                PolicyKind::CoreSched,
            ]
        );
    }

    #[test]
    fn registered_extends_historical_every_order() {
        // The old `PolicyKind::EVERY` is a strict prefix of the
        // registry: digest_freeze rows for the seven stay pinned.
        let all: Vec<_> = PolicyKind::registered().collect();
        assert_eq!(
            &all[..7],
            &[
                PolicyKind::CentralizedFifo,
                PolicyKind::PerCpu,
                PolicyKind::Shinjuku,
                PolicyKind::Snap,
                PolicyKind::CoreSched,
                PolicyKind::ShinjukuShenango,
                PolicyKind::Search,
            ]
        );
        assert_eq!(all[7], PolicyKind::ShinjukuAdaptive);
    }

    #[test]
    fn capability_queries_filter_the_registry() {
        assert_eq!(
            PolicyKind::live_backend(),
            vec![PolicyKind::CentralizedFifo, PolicyKind::PerCpu]
        );
        assert_eq!(
            PolicyKind::byzantine_victims(),
            vec![
                PolicyKind::CentralizedFifo,
                PolicyKind::PerCpu,
                PolicyKind::Shinjuku,
                PolicyKind::Snap,
            ]
        );
        assert!(PolicyKind::CoreSched.caps().whole_cores);
    }

    #[test]
    fn factories_build_distinct_working_instances() {
        // Registry names are the spec-string vocabulary; the policy's
        // own `GhostPolicy::name` is a display string and may differ
        // (e.g. "per-cpu" builds "per-cpu-fifo"). Factories must at
        // least produce instances that report *some* stable name.
        for kind in PolicyKind::registered() {
            let a = kind.build();
            let b = kind.build();
            assert!(!a.name().is_empty());
            assert_eq!(a.name(), b.name(), "{kind:?} factory is not stable");
        }
    }
}
