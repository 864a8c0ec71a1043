//! Frozen digests of the four deterministic sweeps at seed-base 1.
//!
//! The constants are the FNV-1a of `SweepReport::digest()` — the bytes
//! `ghost-chaos --digest` writes — computed at the commit before the
//! five per-family drivers were folded into one generic driver, so any
//! refactor of the harness that moves one scheduling decision, one
//! summary line, one label or the rotation of a sweep fails here. The
//! same four files have `cksum` 1406872199, 3035872902, 4150543126 and
//! 1705676793.
//!
//! Gated off under `seeded-bug`, where the sweeps are supposed to fail.
#![cfg(not(feature = "seeded-bug"))]

use ghost_chaos::lab::{fnv64, run_sweep, LendingScenario};
use ghost_chaos::{ByzCombo, ChaosCase, Combo, RecoveryCombo, Swept};

fn frozen<C: ChaosCase>(combos: u64, bytes: usize, fnv: u64) {
    let policies = C::policies();
    let cases: Vec<Swept<C>> = (0..combos)
        .map(|i| Swept(C::generate(i, 1, &policies)))
        .collect();
    let report = run_sweep(&cases, 2, None);
    assert!(report.all_passed(), "a {} case failed", C::KIND);
    let digest = report.digest();
    assert_eq!(
        (digest.len(), fnv64(digest.as_bytes())),
        (bytes, fnv),
        "the {} sweep's digest moved:\n{digest}",
        C::KIND
    );
}

#[test]
fn fault_sweep_is_frozen() {
    frozen::<Combo>(64, 2230, 0x36dd_b102_46d1_db27);
}

#[test]
fn recovery_sweep_is_frozen() {
    frozen::<RecoveryCombo>(80, 2791, 0xdeed_1002_9fb5_2a69);
}

#[test]
fn byzantine_sweep_is_frozen() {
    frozen::<ByzCombo>(504, 19926, 0xb7e0_e4ea_d6b9_19ba);
}

#[test]
fn lending_sweep_is_frozen() {
    frozen::<LendingScenario>(16, 1043, 0x52db_7595_945e_2f72);
}
