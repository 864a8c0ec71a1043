//! # ghost-chaos — fault injection and schedule-space exploration
//!
//! The paper argues that delegating scheduling to userspace agents is
//! safe because the kernel tolerates agent misbehaviour: message queues
//! overflow and resync, stale transactions fail with `ESTALE`, the
//! watchdog reaps wedged agents, crashes fall back to CFS, staged
//! policies upgrade in place (§3.1–§3.4), and nothing an agent writes
//! into the ABI is trusted for integrity (§2.2). This crate tests those
//! claims adversarially, with one harness for every failure mode.
//!
//! **The harness** is three small modules that know no family:
//!
//! * [`case`] — the [`ChaosCase`] trait (generate from a seed, run to a
//!   [`CaseReport`], encode/decode a `repro.json`, offer smaller
//!   neighbours), the case's `ghost-lab` `Experiment` impl, and the one
//!   greedy 1-minimal [`shrink`].
//! * [`driver`] — the one sweep / repro-and-trace writer / `--replay` /
//!   bench-row merge / exit-code rule. Deterministic families sweep on
//!   the parallel engine (jobs, cache, digest) and shrink; wall-clock
//!   families run serially and keep the failing run's own trace.
//! * [`codec`] — `repro.json` field codecs over the `ghost-trace` JSON
//!   tree (checked integers; seeds and status-word payloads as decimal
//!   strings) and the name-and-fields table macro behind the
//!   `FaultKind` and [`ByzOp`] codecs.
//!
//! **The families** ([`FAMILIES`]) are one `ChaosCase` impl each:
//!
//! * [`fault`] — [`Combo`]: a seeded [`plan`] of agent
//!   crashes/hangs/slowdowns, queue overflow windows, IPI delay/loss,
//!   spurious wakeups, clock-skewed ticks and in-place upgrades injected
//!   into one policy's simulated enclave. [`RecoveryCombo`] is the same
//!   case with the crash-or-upgrade plan generator.
//! * [`byzantine`] — [`ByzCombo`]: a seeded hostile ABI call sequence
//!   (forged CPUs/tids/seqnums, commit-after-destroy, queue
//!   misconfiguration, status-word writes) from a co-resident malicious
//!   enclave, judged by never-panic, typed-rejection and victim-liveness.
//! * [`live`] — [`LiveCombo`]: crash/hang/slow plans on the `ghost-live`
//!   real-thread backend under a closed-loop KV workload, judged on the
//!   wall clock (grace-windowed invariants, stranded workers, bounded
//!   recovery, post-recovery reclaim).
//! * [`lending`] — `ghost_lab::LendingScenario` (two simulated enclaves
//!   and the resource manager under four control-plane fault rows) and
//!   [`LendingLiveCombo`], the same rows at wall-clock marks on real
//!   threads; both require zero stranded leases and full grant
//!   accounting.
//!
//! [`oracle`] holds the verdicts they share: the preamble every family
//! starts from (lossless trace, the `ghost-trace` invariant checker,
//! progress) and the simulated end-state liveness contracts (no thread
//! starved past the watchdog bound, fallback-to-CFS completes, recovery
//! inside its SLO).
//!
//! The `ghost-chaos` binary picks a family by switch, or replays a
//! `repro.json` by its `"kind"`; on failure it writes the (shrunk) repro
//! plus a Chrome trace.

pub mod byzantine;
pub mod case;
pub mod codec;
pub mod driver;
pub mod fault;
pub mod lending;
pub mod live;
pub mod oracle;
pub mod plan;

pub use byzantine::{generate_byz_ops, ByzCombo, ByzOp};
pub use case::{shrink, BenchSample, CaseReport, ChaosCase, Swept};
pub use driver::{rerun_file, Family, Opts, Verdict};
pub use fault::{Combo, FaultCase, RecoveryCombo, WATCHDOG};
pub use ghost_lab::PolicyKind;
pub use lending::{LendingLiveCombo, LENDING_HORIZON};
pub use live::{generate_live_plan, LiveCombo, LIVE_WATCHDOG, RECOVERY_WALL_SLO};
pub use oracle::Failure;
pub use plan::generate_plan;

/// Every family, in the order the CLI lists them. `--replay` picks the
/// first whose kind matches, so a fault repro replays as a [`Combo`].
pub const FAMILIES: [Family; 6] = [
    Family::of::<Combo>(""),
    Family::of::<RecoveryCombo>("--recovery"),
    Family::of::<ByzCombo>("--byzantine"),
    Family::of::<LiveCombo>("--live"),
    Family::of::<ghost_lab::LendingScenario>("--lending"),
    Family::of::<LendingLiveCombo>("--lending-live"),
];

// Re-exported so `for_seeds!` works without the caller depending on the
// vendored rand crate or the engine crate directly.
pub use ghost_lab as lab;
pub use rand;

/// Runs `body` once per seeded case, reporting the failing seed on panic.
///
/// `for_seeds!(base, cases, |rng| { ... })` constructs a fresh
/// `StdRng::seed_from_u64(base + case)` for each case. If the body
/// panics, the macro prints the exact seed (so the case can be rerun in
/// isolation) and re-raises the panic.
///
/// # Examples
///
/// ```
/// use ghost_chaos::for_seeds;
/// use ghost_chaos::rand::{rngs::StdRng, Rng};
///
/// let mut cases = 0;
/// for_seeds!(0x5EED, 8, |rng: &mut StdRng| {
///     let x: u64 = rng.gen_range(1..100);
///     assert!(x >= 1);
///     cases += 1;
/// });
/// assert_eq!(cases, 8);
/// ```
#[macro_export]
macro_rules! for_seeds {
    ($base:expr, $cases:expr, $body:expr) => {{
        // Case execution lives in the experiment engine; this macro only
        // adds the per-case RNG construction.
        $crate::lab::run_cases($base, $cases, |seed| {
            let mut rng: $crate::rand::rngs::StdRng =
                $crate::rand::SeedableRng::seed_from_u64(seed);
            #[allow(clippy::redundant_closure_call)]
            ($body)(&mut rng)
        })
    }};
}
