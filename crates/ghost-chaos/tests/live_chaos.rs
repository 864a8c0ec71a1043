//! Bounded live-chaos smoke: one crash combo and one hang combo through
//! the real-thread backend, end to end, with every wall-clock oracle
//! armed. The full rotation runs in CI via `ghost-chaos --live`; this
//! keeps the tier-1 suite honest about the path existing at all.

use ghost_chaos::{
    generate_live_plan, CaseReport, ChaosCase, LendingLiveCombo, LiveCombo, PolicyKind,
};
use ghost_sim::faults::FaultKind;
use ghost_sim::topology::CpuId;

fn count(report: &CaseReport, key: &str) -> u64 {
    let value = report
        .value(key)
        .unwrap_or_else(|| panic!("no '{key}' line"));
    value.parse().unwrap_or_else(|_| panic!("{key}: {value}"))
}

fn combo(policy: PolicyKind, seed: u64) -> LiveCombo {
    let mut c = LiveCombo::generated(policy, seed);
    // Tier-1 budget: fewer requests, same fault plan and oracles.
    c.requests = 20_000;
    c
}

#[test]
fn live_crash_combo_recovers_within_slo() {
    // Seed 3 rotates to an agent crash (see `generate_live_plan`).
    let c = combo(PolicyKind::CentralizedFifo, 3);
    assert!(c.injects_crash());
    let report = c.run();
    assert!(
        report.failures.is_empty(),
        "oracle failures: {:?}",
        report.failures
    );
    assert!(count(&report, "respawns") >= 1, "standby never respawned");
    assert!(
        count(&report, "reconstructions") >= 1,
        "no status-word resync"
    );
    let gap = count(&report, "recovery-ns"); // panics unless measured
    assert!(
        gap <= ghost_chaos::RECOVERY_WALL_SLO,
        "recovery took {gap} ns"
    );
    // Every admitted request terminated exactly once.
    assert_eq!(
        count(&report, "completed") + count(&report, "shed") + count(&report, "failed"),
        c.requests,
        "closed-loop accounting leaked"
    );
    // The measured recovery is what `--bench-out` would record.
    assert!(report
        .bench
        .iter()
        .any(|s| s.name == "chaos-recovery-centralized-fifo" && s.wall_ns == gap.into()));
}

#[test]
fn live_hang_combo_stalls_and_completes() {
    // Seed 4 rotates to an agent hang on every CPU.
    let c = combo(PolicyKind::PerCpu, 4);
    assert!(!c.injects_crash());
    assert!(c
        .plan
        .events
        .iter()
        .all(|fe| matches!(fe.kind, FaultKind::AgentHang { .. })));
    let report = c.run();
    assert!(
        report.failures.is_empty(),
        "oracle failures: {:?}",
        report.failures
    );
    assert!(
        count(&report, "completed") > 0,
        "hang combo made no progress"
    );
}

#[test]
fn live_lease_revoke_while_degraded_stays_accounted() {
    // The lease-revoke-while-degraded case: the revoke-reconstruct arm
    // kills the protected agent mid-lease (the enclave goes degraded
    // and the KV service arms load shedding), then force-reclaims the
    // borrowed CPU while reconstruction is in flight. The oracles
    // require zero stranded leases, full grant accounting, and a
    // recovered enclave; the closed loop's terminal accounting must
    // still sum despite shedding at the boundary.
    let mut combo = LendingLiveCombo::generated(PolicyKind::CentralizedFifo, 2);
    assert_eq!(
        combo.fault,
        ghost_chaos::lab::LendingFault::RevokeDuringReconstruct,
        "seed 2 rotates to the revoke-reconstruct arm"
    );
    combo.requests = 20_000; // tier-1 budget
    let report = combo.run();
    assert!(
        report.failures.is_empty(),
        "oracle failures: {:?}",
        report.failures
    );
    assert!(count(&report, "granted") >= 1, "no lease was granted");
    let resolved: u64 = ["returned", "expired", "borrower-deaths", "lender-deaths"]
        .iter()
        .map(|key| count(&report, key))
        .sum();
    assert_eq!(
        count(&report, "granted"),
        resolved + count(&report, "outstanding"),
        "lease accounting leaked"
    );
    assert!(
        count(&report, "completed") > 0,
        "no KV progress through the revoke"
    );
}

#[test]
fn live_plans_scale_to_the_backend_cpus() {
    // The generator must target only CPUs the live kernel manages:
    // a plan aimed at CpuId(7) on a 2-CPU backend would inject nothing.
    let cpus: Vec<CpuId> = (0..2u16).map(CpuId).collect();
    for seed in 0..9 {
        for fe in &generate_live_plan(seed, &cpus).events {
            let target = match fe.kind {
                FaultKind::AgentCrash { cpu }
                | FaultKind::AgentHang { cpu, .. }
                | FaultKind::AgentSlow { cpu, .. } => cpu,
                ref other => panic!("live plan rolled a non-agent fault: {other:?}"),
            };
            assert!(cpus.contains(&target), "seed {seed} targets {target:?}");
        }
    }
}
