#![cfg(feature = "seeded-bug")]
//! End-to-end validation that the harness actually catches bugs: with
//! the `seeded-bug` feature on, enclave teardown strands runnable
//! threads in the ghOSt class instead of moving them to CFS. The sweep
//! oracles must catch it, the shrinker must reduce the fault plan to a
//! minimal repro, and the written `repro.json` must replay the exact
//! failure deterministically.

use ghost_chaos::{shrink, ChaosCase, Combo, PolicyKind};
use ghost_sim::faults::{FaultKind, FaultPlan};
use ghost_sim::time::MILLIS;
use ghost_sim::topology::CpuId;
use ghost_trace::json;

/// A hand-built ≤3-event plan whose agent hang trips the watchdog (and,
/// belt and braces, a later crash and a tick skew). The odd seed keeps
/// the run on the fallback path (no staged standby), so teardown runs —
/// and the seeded bug strands every runnable thread.
fn buggy_combo() -> Combo {
    Combo {
        policy: PolicyKind::CentralizedFifo,
        seed: 0xB19,
        plan: FaultPlan::from_events([
            (
                5 * MILLIS,
                FaultKind::AgentHang {
                    cpu: CpuId(1),
                    dur: 30 * MILLIS,
                },
            ),
            (40 * MILLIS, FaultKind::AgentCrash { cpu: CpuId(1) }),
            (
                60 * MILLIS,
                FaultKind::TickSkew {
                    dur: 5 * MILLIS,
                    extra: 500_000,
                },
            ),
        ]),
        horizon: 120 * MILLIS,
        threads: 5,
    }
}

#[test]
fn seeded_bug_is_caught_shrunk_and_replayed() {
    // 1. Caught: the oracles flag the stranded threads.
    let combo = buggy_combo();
    let report = combo.run();
    assert!(!report.failures.is_empty(), "seeded bug not caught");
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.oracle == "fallback-to-cfs"),
        "expected the fallback oracle to fire, got: {:?}",
        report.failures
    );

    // 2. Shrunk: either the hang (watchdog reap) or the crash (fallback)
    // alone reproduces, so the minimal plan is a single event.
    let minimal = shrink(&combo);
    assert!(
        minimal.plan.events.len() <= 3,
        "shrunk plan too large: {:?}",
        minimal.plan.events
    );
    assert!(
        minimal.plan.events.len() < combo.plan.events.len(),
        "shrinker removed nothing"
    );
    let min_report = minimal.run();
    assert!(
        !min_report.failures.is_empty(),
        "shrunk combo stopped failing"
    );

    // 1-minimal: no single remaining event can go without the failure
    // going with it.
    for smaller in minimal.shrink_candidates() {
        assert!(
            smaller.run().failures.is_empty(),
            "not minimal: {smaller:?}"
        );
    }

    // 3. Replayed: through the repro.json text, byte-identical failure
    // set and summary.
    let text = minimal.encode().to_string();
    let parsed = Combo::decode(&json::parse(&text).expect("repro parses")).expect("decodes");
    assert_eq!(parsed, minimal);
    let replayed = parsed.run();
    assert_eq!(replayed.failures, min_report.failures, "replay diverged");
    assert_eq!(replayed.lines, min_report.lines);
}
