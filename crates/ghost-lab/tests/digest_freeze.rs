//! Digest freeze: the DES results of every registered policy, pinned.
//!
//! Two scenario families are frozen, each at seeds 1..=3:
//!
//! * **baseline** — the plain pulse workload. These hashes were captured
//!   on the DES backend immediately *before* the `GhostBackend` trait
//!   refactor that generalized `ghost-core` over sim/live backends.
//! * **chaos** — the same workload with a deterministic fault plan
//!   layered on top (agent crash + standby failover, an IPI-delay
//!   window, tick skew, a spurious wakeup), so the recovery,
//!   reconstruction, and IPI paths are pinned too. Captured immediately
//!   *before* the DES fast-path refactor (slab runtime state, timer
//!   wheel, batched drain).
//!
//! Both families run on 8 CPUs, so a third pin covers the wide machine:
//! one CFS-only run and one Fig. 5 point on the 256-CPU Rome
//! ([`wide_machine_digests_are_frozen`]).
//!
//! The contract is that hot-path refactors are byte-identical: every
//! policy, at every seed below, in both families, must keep producing
//! exactly these result hashes. If a hash changes, the refactor altered
//! simulation behavior — that is a bug in the refactor, not an expected
//! drift. Do not re-pin without understanding exactly which event
//! ordering changed and why.
//!
//! Regenerate (only for an intentional semantic change) with:
//! `cargo test -p ghost-lab --test digest_freeze -- --nocapture` after
//! setting `PRINT_DIGESTS=1` in the environment.

use ghost_bench::fig5::{run_point_traced, FIG5_WORK};
use ghost_lab::fnv64_debug_lines;
use ghost_lab::scenario::{PolicyKind, Scenario, WorkloadSpec};
use ghost_sim::app::{App, Next};
use ghost_sim::faults::{FaultKind, FaultPlan};
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, ThreadSpec};
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_trace::TraceSink;
use std::collections::HashMap;

/// (policy, seed, frozen result hash) — plain pulse workload.
const FROZEN_BASELINE: &[(&str, u64, u64)] = &[
    ("centralized-fifo", 1, 0x0ac452b232b10472),
    ("centralized-fifo", 2, 0xebc4dd03827a0c9c),
    ("centralized-fifo", 3, 0x54ed523bff637387),
    ("per-cpu", 1, 0x3270543848b48dad),
    ("per-cpu", 2, 0xae56052dae2377ec),
    ("per-cpu", 3, 0x512723b9d76ed921),
    ("shinjuku", 1, 0x525edb1e1fce31bb),
    ("shinjuku", 2, 0x573a21a15ac00641),
    ("shinjuku", 3, 0x394f24d8afda7148),
    ("snap", 1, 0x860fc9df7a2fb5dd),
    ("snap", 2, 0x8522150d5136c800),
    ("snap", 3, 0x811bf4542750fc6d),
    ("core-sched", 1, 0xdcfe5af1c0de90f4),
    ("core-sched", 2, 0x33aeb931abbf5011),
    ("core-sched", 3, 0x7138615264227c58),
    // Shinjuku+Shenango matches plain Shinjuku on the pulse workload: the
    // Shenango layer only diverges when core reallocation triggers, which
    // this workload never does. The rows are still pinned independently so
    // a refactor-induced divergence in either policy is caught.
    ("shinjuku-shenango", 1, 0x525edb1e1fce31bb),
    ("shinjuku-shenango", 2, 0x573a21a15ac00641),
    ("shinjuku-shenango", 3, 0x394f24d8afda7148),
    ("search", 1, 0x2982f5e47b365524),
    ("search", 2, 0x1b4e2b162d856d9d),
    ("search", 3, 0x77362c0343528335),
    // The self-tuning Shinjuku also matches plain Shinjuku here: with 5
    // threads on 7 enclave CPUs the FIFO never backs up, so neither the
    // steal threshold nor a slice preemption ever fires, and the knob
    // updates themselves are unobservable. Divergence shows up only
    // under queue pressure (the tournament's overload cells).
    ("shinjuku-adaptive", 1, 0x525edb1e1fce31bb),
    ("shinjuku-adaptive", 2, 0x573a21a15ac00641),
    ("shinjuku-adaptive", 3, 0x394f24d8afda7148),
];

/// (policy, seed, frozen result hash) — chaos-seeded fault plan.
const FROZEN_CHAOS: &[(&str, u64, u64)] = &[
    ("centralized-fifo", 1, 0xdb354436bf37fb29),
    ("centralized-fifo", 2, 0x49483252cb26e82d),
    ("centralized-fifo", 3, 0xbf89699572869602),
    ("per-cpu", 1, 0x28e3c10d3627de27),
    ("per-cpu", 2, 0x154f00d33c5cfe7f),
    ("per-cpu", 3, 0xb44e94c8191ce8ae),
    ("shinjuku", 1, 0xfd113c93663e24d1),
    ("shinjuku", 2, 0xb8566003f4527921),
    ("shinjuku", 3, 0x84d4a1e40c8aec30),
    ("snap", 1, 0xd013f41781a76469),
    ("snap", 2, 0xa034785c23fcddc2),
    ("snap", 3, 0xba97af2031b65f78),
    ("core-sched", 1, 0xcb399830f7034d77),
    ("core-sched", 2, 0x3164e856b6769dab),
    ("core-sched", 3, 0xd45ca48bc6f9f49d),
    // Shinjuku+Shenango tracks plain Shinjuku here too (the fault plan
    // never triggers core reallocation); pinned independently regardless.
    ("shinjuku-shenango", 1, 0xfd113c93663e24d1),
    ("shinjuku-shenango", 2, 0xb8566003f4527921),
    ("shinjuku-shenango", 3, 0x84d4a1e40c8aec30),
    ("search", 1, 0x442cceea53ec4423),
    ("search", 2, 0xb9cb54ee8404eeef),
    ("search", 3, 0xa19ae36d3f62142a),
    // Tracks plain Shinjuku for the same reason as the baseline family.
    ("shinjuku-adaptive", 1, 0xfd113c93663e24d1),
    ("shinjuku-adaptive", 2, 0xb8566003f4527921),
    ("shinjuku-adaptive", 3, 0x84d4a1e40c8aec30),
];

fn scenario(policy: PolicyKind, seed: u64) -> Scenario {
    Scenario::builder()
        .name(format!("freeze/{}/seed={seed}", policy.name()))
        .cpus(8)
        .policy(policy)
        .workload(WorkloadSpec::pulse(5))
        .seed(seed)
        .horizon(50 * MILLIS)
        .watchdog(20 * MILLIS)
        .trace_capacity(1 << 16)
        .build()
}

/// The chaos variant: the same pulse scenario with a standby agent armed
/// and a fixed, seed-dependent fault schedule. The crash exercises §3.4
/// degraded-mode failover and status-word reconstruction; the IPI and
/// tick windows perturb delivery timing on every policy.
fn chaos_scenario(policy: PolicyKind, seed: u64) -> Scenario {
    let plan = FaultPlan::from_events([
        (
            5 * MILLIS,
            FaultKind::IpiDelay {
                dur: 10 * MILLIS,
                extra: 50 * MICROS,
            },
        ),
        ((8 + seed) * MILLIS, FaultKind::AgentCrash { cpu: CpuId(0) }),
        (
            20 * MILLIS,
            FaultKind::TickSkew {
                dur: 10 * MILLIS,
                extra: 20 * MICROS,
            },
        ),
        (30 * MILLIS, FaultKind::SpuriousWakeup { nth: seed as u32 }),
    ]);
    Scenario::builder()
        .name(format!("freeze-chaos/{}/seed={seed}", policy.name()))
        .cpus(8)
        .policy(policy)
        .workload(WorkloadSpec::pulse(5))
        .seed(seed)
        .horizon(50 * MILLIS)
        .watchdog(20 * MILLIS)
        .standby(true)
        .faults(plan)
        .trace_capacity(1 << 16)
        .build()
}

fn check_family(
    family: &str,
    frozen: &[(&str, u64, u64)],
    build: impl Fn(PolicyKind, u64) -> Scenario,
) {
    let print = std::env::var("PRINT_DIGESTS").is_ok();
    let mut failures = Vec::new();
    for policy in PolicyKind::registered() {
        for seed in 1..=3u64 {
            let summary = build(policy, seed).run();
            if print {
                println!(
                    "    [{family}] (\"{}\", {seed}, {:#018x}),",
                    policy.name(),
                    summary.hash
                );
                continue;
            }
            let row = frozen
                .iter()
                .find(|(name, s, _)| *name == policy.name() && *s == seed)
                .unwrap_or_else(|| {
                    panic!("no frozen {family} digest for {}/{seed}", policy.name())
                });
            if summary.hash != row.2 {
                failures.push(format!(
                    "{family}/{}/seed={seed}: got {:#018x}, frozen {:#018x}",
                    policy.name(),
                    summary.hash,
                    row.2
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "DES digests drifted from the pre-refactor freeze:\n{}",
        failures.join("\n")
    );
}

#[test]
fn all_seven_policies_des_digests_are_frozen() {
    check_family("baseline", FROZEN_BASELINE, scenario);
}

#[test]
fn all_seven_policies_chaos_digests_are_frozen() {
    check_family("chaos", FROZEN_CHAOS, chaos_scenario);
}

/// FNV of the trace of [`cfs_wide_run`] and of [`fig5_wide_run`].
const FROZEN_WIDE_CFS: u64 = 0xe264b06c5dc24484;
const FROZEN_WIDE_FIG5: u64 = 0xa753fc5fe3040272;

/// Spinners run forever; the other threads run one segment every
/// [`BURST_PERIOD`] and block in between.
struct BurstApp {
    /// Per thread: segment length, and whether it blocks after each.
    seg: HashMap<Tid, (Nanos, bool)>,
}

const BURST_PERIOD: Nanos = MILLIS;

impl App for BurstApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "burst"
    }

    fn on_timer(&mut self, key: u64, k: &mut KernelState) {
        let tid = Tid(key as u32);
        let (seg, bursty) = self.seg[&tid];
        k.thread_mut(tid).remaining = seg;
        k.wake(tid);
        if bursty {
            let app = k.thread(tid).app.expect("burst thread has an app");
            k.arm_app_timer(k.now + BURST_PERIOD, app, key);
        }
    }

    fn on_segment_end(&mut self, tid: Tid, _k: &mut KernelState) -> Next {
        match self.seg[&tid] {
            (_, true) => Next::Block,
            (dur, false) => Next::Run { dur },
        }
    }
}

fn trace_fnv(sink: &TraceSink) -> u64 {
    sink.with_records(|records, dropped| {
        assert_eq!(dropped, 0, "the pinned trace must be complete");
        fnv64_debug_lines(records)
    })
}

/// CFS alone on the 256-CPU Rome (8 CPUs per LLC). Every fourth LLC
/// gets 20 spinners; the LLCs between get 0, 2 or 8 bursty threads. An
/// LLC affinity mask places them, and is widened to the whole machine
/// after 2 ms. Wakeups stay LLC-local, so the crowded LLCs keep queues
/// that a CPU steals from when its bursty thread blocks, and that the
/// periodic balance of the idle LLCs' CPUs pulls from (counted once with
/// a print in each path: 228 steals, 32 pulls). Returns the trace FNV
/// and the migration count.
fn cfs_wide_run() -> (u64, u64) {
    let topo = Topology::rome_256();
    let sink = TraceSink::recording(topo.num_cpus(), 1 << 14);
    let cfg = KernelConfig {
        trace: sink.clone(),
        ..KernelConfig::default()
    };
    let mut kernel = Kernel::new(topo, cfg);
    let app = kernel.state.next_app_id();
    let num_ccx = kernel.state.topo.num_cpus() as u16 / 8;
    let mut seg = HashMap::new();
    let mut tids = Vec::new();
    for ccx in 0..num_ccx {
        let mask = kernel.state.topo.ccx_cpus(ccx);
        let (count, bursty) = [(0, true), (2, true), (8, true), (20, false)][ccx as usize % 4];
        for i in 0..count {
            let tid = kernel.spawn(
                ThreadSpec::workload(&format!("b{ccx}.{i}"), &kernel.state.topo)
                    .app(app)
                    .affinity(mask),
            );
            let len = 150 * MICROS + (i as Nanos % 5) * 100 * MICROS;
            seg.insert(tid, (len, bursty));
            tids.push(tid);
        }
    }
    kernel.add_app(Box::new(BurstApp { seg }));
    for (i, &tid) in tids.iter().enumerate() {
        kernel
            .state
            .arm_app_timer((i as Nanos % 10) * 20 * MICROS, app, tid.0 as u64);
    }
    kernel.run_until(2 * MILLIS);
    let all = kernel.state.topo.all_cpus_set();
    for &tid in &tids {
        kernel.state.set_affinity(tid, all);
    }
    kernel.run_until(20 * MILLIS);
    (trace_fnv(&sink), kernel.state.stats.migrations)
}

/// A short Fig. 5 point on the same machine: one global agent, 255
/// scheduled CPUs, 259 yield-loop threads. Returns the trace FNV.
fn fig5_wide_run() -> u64 {
    let topo = Topology::rome_256();
    let sink = TraceSink::recording(topo.num_cpus(), 1 << 14);
    run_point_traced(
        topo,
        255,
        259,
        FIG5_WORK,
        MILLIS,
        4 * MILLIS,
        true,
        sink.clone(),
    );
    trace_fnv(&sink)
}

/// The frozen families above are all 8-CPU pulse runs, so nothing in
/// them crosses CFS's cross-machine balancing or a 256-wide scan. This
/// pins both on `Topology::rome_256()`: a CFS-only run whose uneven LLC
/// load makes both idle-balance steals and periodic pulls happen, and a
/// ghOSt Fig. 5 point. Both FNVs were computed at the commit before
/// CFS's balance scans got their O(1) guards and before the kernel's
/// mid-switch lookup stopped scanning every CPU; both changes must leave
/// them byte-identical.
#[test]
fn wide_machine_digests_are_frozen() {
    let (cfs, migrations) = cfs_wide_run();
    let fig5 = fig5_wide_run();
    if std::env::var("PRINT_DIGESTS").is_ok() {
        println!("    [wide] cfs {cfs:#018x} ({migrations} migrations), fig5 {fig5:#018x}");
        return;
    }
    assert!(migrations > 0, "the CFS run must migrate threads");
    assert_eq!(cfs, FROZEN_WIDE_CFS, "wide CFS digest drifted: {cfs:#018x}");
    assert_eq!(
        fig5, FROZEN_WIDE_FIG5,
        "wide fig5 digest drifted: {fig5:#018x}"
    );
}
