//! Integration tests for the chaos harness itself: the sweep is clean on
//! healthy code, replay is deterministic, shrinking is sound, and the
//! `for_seeds!` helper reports failing seeds.
//!
//! Gated off under `seeded-bug`: with the intentional teardown bug
//! compiled in, sweeps are *supposed* to fail (that's what
//! `tests/seeded_bug.rs` asserts), so the clean-run expectations here
//! only hold on healthy code.
#![cfg(not(feature = "seeded-bug"))]

use ghost_chaos::lab::run_sweep;
use ghost_chaos::rand::rngs::StdRng;
use ghost_chaos::rand::Rng;
use ghost_chaos::{for_seeds, shrink, ChaosCase, Combo, PolicyKind, RecoveryCombo, Swept};

/// A small sweep across every policy must pass all oracles — the
/// runtime is expected to survive every generated fault plan. Runs
/// through the ghost-lab engine with two workers, the same path the
/// `ghost-chaos` binary takes with `--jobs`.
#[test]
fn small_sweep_is_clean_on_all_policies() {
    let exps: Vec<Swept<Combo>> = PolicyKind::evaluation_matrix()
        .into_iter()
        .flat_map(|policy| (1..=4).map(move |seed| Swept(Combo::generated(policy, seed))))
        .collect();
    let report = run_sweep(&exps, 2, None);
    for item in &report.items {
        assert!(
            item.result.pass,
            "{} failed: {:?}",
            item.label, item.result.lines
        );
        let completions: u64 = item
            .result
            .lines
            .iter()
            .find_map(|l| l.strip_prefix("completions "))
            .expect("summary has a completions line")
            .parse()
            .expect("completions is a count");
        assert!(completions > 0, "{} did no work", item.label);
    }
}

/// The same combo always produces the same report: the summary lines
/// (completions, counters, trace hash) and the full trace are
/// bit-identical across runs.
#[test]
fn replay_is_deterministic() {
    let combo = Combo::generated(PolicyKind::Shinjuku, 7);
    let (a, b) = (combo.run(), combo.run());
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.lines, b.lines);
    assert_eq!(a.trace.snapshot(), b.trace.snapshot());
}

/// A combo that passes its oracles comes back from the shrinker
/// untouched — shrinking only applies to failures.
#[test]
fn shrink_returns_clean_combo_unchanged() {
    let combo = Combo::generated(PolicyKind::CentralizedFifo, 3);
    assert!(combo.run().failures.is_empty(), "pick a clean seed");
    assert_eq!(shrink(&combo), combo);
}

/// `for_seeds!` runs every case with a distinct derived seed.
#[test]
fn for_seeds_covers_every_case() {
    let mut seen = Vec::new();
    for_seeds!(0x100, 16, |rng: &mut StdRng| {
        seen.push(rng.gen_range(0..u64::MAX));
    });
    assert_eq!(seen.len(), 16);
    // Different seeds give different streams.
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 16, "per-case RNG streams collided");
}

/// A panicking case propagates (after reporting the failing seed).
#[test]
#[should_panic(expected = "case 11 boom")]
fn for_seeds_propagates_case_panics() {
    let mut case = 0;
    for_seeds!(0x200, 16, |_rng: &mut StdRng| {
        if case == 11 {
            panic!("case 11 boom");
        }
        case += 1;
    });
}

/// The recovery sweep actually exercises the standby machinery: across
/// a modest seed range, some combos respawn a standby agent and complete
/// a bounded-time recovery — and every one of them passes the recovery
/// oracles.
#[test]
fn recovery_sweep_exercises_standby_failover() {
    let mut standby_runs = 0u64;
    let mut respawns = 0u64;
    let mut recoveries = 0u64;
    let mut reconstructions = 0u64;
    for policy in PolicyKind::evaluation_matrix() {
        for seed in 1..=8 {
            let combo = RecoveryCombo::generated(policy, seed);
            let (run, failures) = combo.execute();
            assert!(
                failures.is_empty(),
                "policy={} seed={seed} faults={:?} failed: {failures:?}",
                policy.name(),
                combo.plan.events,
            );
            if combo.plans_standby() {
                standby_runs += 1;
            }
            let stats = run.sim.runtime.stats();
            respawns += stats.respawns;
            recoveries += stats.recoveries;
            reconstructions += stats.reconstructions;
        }
    }
    assert!(
        standby_runs > 0,
        "no seed armed a standby — sweep is vacuous"
    );
    assert!(respawns > 0, "no standby agent ever respawned");
    assert!(recoveries > 0, "no degraded-mode recovery ever completed");
    assert!(reconstructions > 0, "no status-word scan ever ran");
}

/// A standby-armed combo replays bit-identically, including through the
/// repro.json round trip (the standby setup is derived from the seed and
/// plan, never stored — the combo alone must reproduce it).
#[test]
fn standby_combo_replays_deterministically() {
    // Not every standby-armed combo respawns (a crash aimed at an
    // inactive satellite agent is non-fatal), so hunt for one that does.
    let (combo, a) = (1..64)
        .flat_map(|seed| {
            PolicyKind::evaluation_matrix()
                .into_iter()
                .map(move |p| RecoveryCombo::generated(p, seed))
        })
        .filter(|c| c.plans_standby())
        .map(|c| {
            let (run, _) = c.execute();
            (c, run)
        })
        .find(|(_, run)| run.sim.runtime.stats().respawns > 0)
        .expect("some recovery combo respawns a standby");
    let parsed = RecoveryCombo::decode(&combo.encode()).expect("repro round trip");
    assert!(parsed.plans_standby(), "standby derivation survives replay");
    let (b, _) = parsed.execute();
    let (sa, sb) = (a.sim.runtime.stats(), b.sim.runtime.stats());
    assert_eq!(a.completions(), b.completions());
    assert_eq!(sa.respawns, sb.respawns);
    assert_eq!(sa.recoveries, sb.recoveries);
    assert_eq!(a.sim.sink.snapshot(), b.sim.sink.snapshot());
}
