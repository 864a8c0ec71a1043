//! Backend-conformance suite: the same ghOSt ABI contracts checked
//! against BOTH backends — the discrete-event simulator (`ghost-sim`)
//! and the live real-thread kernel (`ghost-live`).
//!
//! Eight contracts, each verified per backend:
//!
//! 1. **Scheduling invariants** — an unmodified policy drives a workload
//!    and the recorded trace passes `ghost-trace`'s invariant checker:
//!    wake-before-block ordering (a wakeup for an unblocked thread, or a
//!    dispatch of a never-woken one, is a violation), exclusive lane
//!    occupancy, and commit pairing (every `TxnCommitOk` consumes a
//!    matching `TxnArmed`).
//! 2. **`ESTALE` on a stale seqnum** — a commit carrying an out-of-date
//!    `Tseq` must be rejected with `TxnStatus::Stale` (§3.2), counted in
//!    `GhostStats::txns_stale`, and scheduling must recover.
//! 3. **Reconstruction after an agent crash** — with a standby
//!    configured, killing the global agent must respawn a fresh agent
//!    that reconstructs the enclave from status words (§3.4) and
//!    resumes scheduling, with zero CFS fallbacks.
//! 4. **Agent hang** — an `AgentHang` fault window freezes scheduling
//!    (activations spin uselessly) but the enclave survives and the
//!    workload completes once the window closes.
//! 5. **Agent slow** — an `AgentSlow` window genuinely stretches agent
//!    execution (virtual busy charge on the DES, wall-clock stall on
//!    the live loop) without breaking any invariant.
//! 6. **Queue overflow** — a `QueueOverflow` window drops messages
//!    (counted and traced); the §3.4 watchdog detects the resulting
//!    starvation and promotes a staged policy, whose status-word
//!    resync rescues the stranded threads.
//!
//! 7. **Agent wiring** — both backends launch an enclave through the one
//!    spawn path in `ghost-core`, so for every `AgentMode` they must end
//!    up with the same agents, in the same order, with the same global.
//! 8. **Polled-queue delivery** — a post to a centralized enclave's
//!    `Polled` queue kicks the spinning global agent, so the message is
//!    drained within the kick's latency, not a poll period.
//!
//! The DES side uses virtual time (`Kernel::run_until`); the live side
//! uses wall-clock deadlines and the checker's grace window sized for
//! host-scheduler jitter. The policies are shared verbatim between the
//! two — that is the point of the `GhostBackend` trait. So are the
//! fault plans: the same `FaultPlan` type drives both backends, with
//! `at`/`dur` read against the virtual clock or the wall clock.

use ghost_core::enclave::{AgentMode, EnclaveConfig};
use ghost_core::msg::Message;
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::runtime::EnclaveHandle;
use ghost_core::txn::{Transaction, TxnStatus};
use ghost_core::StandbyConfig;
use ghost_lab::{Scenario, ScenarioBuilder, WorkloadSpec};
use ghost_live::{await_completion, KvService, LiveConfig, LiveKernel};
use ghost_policies::CentralizedFifo;
use ghost_sim::faults::{FaultKind, FaultPlan};
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MICROS, MILLIS, SECS};
use ghost_sim::topology::CpuId;
use ghost_sim::CpuSet;
use ghost_trace::check::LIVE_GRACE_NS;
use ghost_trace::{check, TraceEvent, TraceRecord, TraceSink};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request service-time floor for the live KV workload.
const SERVICE_NS: u64 = 2 * MICROS;

fn count(records: &[TraceRecord], f: impl Fn(&TraceEvent) -> bool) -> usize {
    records.iter().filter(|r| f(&r.event)).count()
}

// ---------------------------------------------------------------------
// Shared probe policy: provoke exactly one ESTALE, then schedule FIFO.
// ---------------------------------------------------------------------

/// Wraps [`CentralizedFifo`]: before the first successful probe, each
/// activation picks a runnable thread and commits it with `Tseq - 1` —
/// an out-of-date view by construction — and records the kernel's
/// verdict. The thread is requeued and scheduled normally afterwards,
/// so the workload still completes. Identical code runs on both
/// backends.
struct StaleProbe {
    inner: CentralizedFifo,
    stale_seen: Arc<AtomicBool>,
    /// Set when a probe commit returned something other than `Stale`
    /// (a conformance failure the test asserts on).
    wrong_verdict: Arc<AtomicBool>,
}

impl StaleProbe {
    fn new(stale_seen: Arc<AtomicBool>, wrong_verdict: Arc<AtomicBool>) -> Self {
        Self {
            inner: CentralizedFifo::new(),
            stale_seen,
            wrong_verdict,
        }
    }
}

impl GhostPolicy for StaleProbe {
    fn name(&self) -> &str {
        "stale-probe"
    }

    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
        self.inner.on_msg(msg, ctx);
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        if !self.stale_seen.load(Ordering::SeqCst) {
            if let Some(tid) = self.inner.rq.pop() {
                let probe_cpu = ctx.idle_cpus().iter().next();
                let view = ctx.thread_view(tid);
                if let (Some(cpu), Some(view)) = (probe_cpu, view) {
                    // `Tseq` starts at 0 and a wakeup bumps it, so a
                    // queued-runnable thread has `tseq >= 1`; `tseq - 1`
                    // is a view the kernel must reject as stale.
                    if view.runnable && view.tseq >= 1 {
                        let mut txn = Transaction::new(tid, cpu).with_thread_seq(view.tseq - 1);
                        ctx.commit(std::slice::from_mut(&mut txn));
                        match txn.status {
                            TxnStatus::Stale => self.stale_seen.store(true, Ordering::SeqCst),
                            TxnStatus::Committed => {
                                self.wrong_verdict.store(true, Ordering::SeqCst)
                            }
                            // Transient refusals (not-runnable race, busy
                            // CPU) are not verdicts on the seq contract;
                            // retry at the next activation.
                            _ => {}
                        }
                    }
                }
                self.inner.rq.push(tid);
            }
        }
        self.inner.schedule(ctx);
    }
}

// ---------------------------------------------------------------------
// DES harness: a ghost-lab scenario.
// ---------------------------------------------------------------------

/// A 4-CPU machine with one centralized-FIFO enclave on CPUs 1–3 and `n`
/// pulse threads, each running exactly 100 µs every 1 ms (one-nanosecond
/// ranges) and traced.
fn des_scenario(n: usize) -> ScenarioBuilder {
    Scenario::builder()
        .cpus(4)
        .enclave_cpus(1..4)
        .workload(WorkloadSpec::Pulse {
            threads: n,
            seg: (100 * MICROS, 100 * MICROS + 1),
            period: (MILLIS, MILLIS + 1),
        })
        .trace_capacity(1 << 17)
}

// ---------------------------------------------------------------------
// Live harness: a small closed-loop KV run under a given policy.
// ---------------------------------------------------------------------

struct LiveSetup {
    kernel: LiveKernel,
    enclave: EnclaveHandle,
    workers: Vec<Tid>,
    kv: Arc<KvService>,
    total: u64,
}

fn live_setup(
    config: EnclaveConfig,
    policy: Box<dyn GhostPolicy>,
    total: u64,
    faults: FaultPlan,
) -> LiveSetup {
    let cpus = 2;
    let kernel = LiveKernel::new(LiveConfig {
        cpus,
        trace: TraceSink::recording(cpus, 1 << 20),
        faults,
        ..LiveConfig::default()
    });
    let enclave = kernel.launch_enclave(CpuSet::first_n(cpus), config, policy);
    let kv = KvService::new(16, SERVICE_NS);
    let workers: Vec<_> = (0..cpus)
        .map(|i| kernel.spawn_kv_worker(&format!("conf-kv-{i}"), Arc::clone(&kv)))
        .collect();
    for &tid in &workers {
        kernel.attach(&enclave, tid);
    }
    kv.start_closed_loop(total, 2 * workers.len() as u64, kernel.now());
    for &tid in &workers {
        kernel.wake(tid);
    }
    LiveSetup {
        kernel,
        enclave,
        workers,
        kv,
        total,
    }
}

/// Drives the closed loop until `target` completions (kicking blocked
/// workers, like the smoke harness) or the deadline passes.
fn live_drive_until(s: &LiveSetup, target: u64, deadline: Duration) -> bool {
    let end = Instant::now() + deadline;
    while s.kv.completed_count() < target {
        if Instant::now() > end {
            return false;
        }
        if s.kv.depth() > 0 {
            s.kernel.wake_one_blocked(&s.workers);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

// ---------------------------------------------------------------------
// 1. Scheduling invariants (wake-before-block, occupancy, pairing).
// ---------------------------------------------------------------------

#[test]
fn des_invariants_and_commit_pairing_hold() {
    let mut run = des_scenario(3).build().launch();
    run.sim.kernel.run_until(200 * MILLIS);

    assert!(run.completions() >= 100, "workload barely ran");
    assert_eq!(run.sim.sink.dropped(), 0);
    let records = run.sim.sink.snapshot();
    let switches = count(&records, |e| matches!(e, TraceEvent::SchedSwitch { .. }));
    let armed = count(&records, |e| matches!(e, TraceEvent::TxnArmed { .. }));
    let ok = count(&records, |e| matches!(e, TraceEvent::TxnCommitOk { .. }));
    assert!(switches > 0 && ok > 0, "no scheduling traced");
    assert_eq!(armed, ok, "unpaired transaction arm/commit");
    check::assert_clean(&records);
}

/// Both agent models — one global agent, and one agent per CPU — drive
/// the two-worker closed loop to completion.
#[test]
fn live_invariants_and_commit_pairing_hold() {
    let models: [(EnclaveConfig, Box<dyn GhostPolicy>); 2] = [
        (
            EnclaveConfig::centralized("conf-live"),
            Box::new(CentralizedFifo::new()),
        ),
        (
            EnclaveConfig::per_cpu("conf-live-percpu"),
            Box::new(ghost_policies::PerCpuPolicy::new()),
        ),
    ];
    for (config, policy) in models {
        let name = config.name.clone();
        let s = live_setup(
            config.with_watchdog(5 * SECS),
            policy,
            5_000,
            FaultPlan::none(),
        );
        assert!(
            live_drive_until(&s, s.total, Duration::from_secs(30)),
            "{name}: closed loop stalled at {}/{}",
            s.kv.completed_count(),
            s.total
        );
        assert!(await_completion(&s.kv, s.total, Duration::from_secs(1)));

        let records = s.kernel.trace_snapshot();
        let ok = count(&records, |e| matches!(e, TraceEvent::TxnCommitOk { .. }));
        assert!(
            ok > 0,
            "{name}: no commits traced: the policy never scheduled"
        );
        // Same rules as the DES run: wake-before-block ordering, exclusive
        // lane occupancy, commit pairing — with a wall-clock grace window.
        let violations = check::check_with_grace(&records, LIVE_GRACE_NS);
        assert!(
            violations.is_empty(),
            "{name}: live violations: {violations:?}"
        );
        assert!(s.enclave.alive());
        s.kernel.shutdown();
    }
}

// ---------------------------------------------------------------------
// 2. ESTALE on a stale seqnum.
// ---------------------------------------------------------------------

#[test]
fn des_stale_seqnum_gets_estale() {
    let stale_seen = Arc::new(AtomicBool::new(false));
    let wrong = Arc::new(AtomicBool::new(false));
    let mut run = des_scenario(2).build().launch_with(|_, config| {
        let probe = StaleProbe::new(Arc::clone(&stale_seen), Arc::clone(&wrong));
        (config, Box::new(probe))
    });
    run.sim.kernel.run_until(100 * MILLIS);

    assert!(stale_seen.load(Ordering::SeqCst), "probe never got ESTALE");
    assert!(
        !wrong.load(Ordering::SeqCst),
        "a stale-seq commit was accepted"
    );
    let stats = run.sim.runtime.stats();
    assert!(stats.txns_stale >= 1, "stale commits: {}", stats.txns_stale);
    // Scheduling recovered after the rejection.
    assert!(run.completions() >= 50, "no progress after ESTALE");
    assert!(run.sim.enclaves[0].alive());
    // The rejected commit armed nothing: pairing still holds.
    let records = run.sim.sink.snapshot();
    assert!(
        count(&records, |e| matches!(
            e,
            TraceEvent::TxnCommitEstale { .. }
        )) >= 1
    );
    let armed = count(&records, |e| matches!(e, TraceEvent::TxnArmed { .. }));
    let ok = count(&records, |e| matches!(e, TraceEvent::TxnCommitOk { .. }));
    assert_eq!(armed, ok, "unpaired transaction arm/commit");
    check::assert_clean(&records);
}

#[test]
fn live_stale_seqnum_gets_estale() {
    let stale_seen = Arc::new(AtomicBool::new(false));
    let wrong = Arc::new(AtomicBool::new(false));
    let s = live_setup(
        EnclaveConfig::centralized("conf-live-stale").with_watchdog(5 * SECS),
        Box::new(StaleProbe::new(Arc::clone(&stale_seen), Arc::clone(&wrong))),
        2_000,
        FaultPlan::none(),
    );
    assert!(
        live_drive_until(&s, s.total, Duration::from_secs(30)),
        "closed loop stalled at {}/{}",
        s.kv.completed_count(),
        s.total
    );

    assert!(stale_seen.load(Ordering::SeqCst), "probe never got ESTALE");
    assert!(
        !wrong.load(Ordering::SeqCst),
        "a stale-seq commit was accepted"
    );
    let stats = s.kernel.runtime().stats();
    assert!(stats.txns_stale >= 1, "stale commits: {}", stats.txns_stale);
    assert!(s.enclave.alive());
    let records = s.kernel.trace_snapshot();
    assert!(
        count(&records, |e| matches!(
            e,
            TraceEvent::TxnCommitEstale { .. }
        )) >= 1
    );
    let violations = check::check_with_grace(&records, LIVE_GRACE_NS);
    assert!(violations.is_empty(), "live violations: {violations:?}");
    s.kernel.shutdown();
}

// ---------------------------------------------------------------------
// 3. Reconstruction after an agent crash (§3.4).
// ---------------------------------------------------------------------

#[test]
fn des_agent_crash_reconstructs_and_recovers() {
    let mut run = des_scenario(3).standby(true).build().launch();
    let enclave = &run.sim.enclaves[0];
    run.sim.kernel.run_until(20 * MILLIS);

    let old = enclave.global_agent().expect("global agent");
    run.sim.kernel.kill(old);
    run.sim.kernel.run_until(60 * MILLIS);

    let stats = run.sim.runtime.stats();
    assert!(enclave.alive(), "enclave survives the crash");
    assert_eq!(stats.respawns, 1, "one standby respawn");
    assert_eq!(stats.recoveries, 1, "recovery completed");
    assert!(stats.reconstructions >= 1, "status words reconstructed");
    assert_eq!(stats.fallbacks, 0, "no CFS fallback");
    let new = enclave.global_agent().expect("respawned agent");
    assert_ne!(new, old, "a fresh agent took over");
    // Progress continues under the respawned agent.
    let before = run.completions();
    run.sim.kernel.run_until(160 * MILLIS);
    assert!(
        run.completions() > before + 50,
        "respawned agent is not scheduling"
    );
}

#[test]
fn live_agent_crash_reconstructs_and_recovers() {
    let s = live_setup(
        EnclaveConfig::centralized("conf-live-crash"),
        Box::new(CentralizedFifo::new()),
        20_000,
        FaultPlan::none(),
    );
    s.enclave.set_standby(
        StandbyConfig::default(),
        || Box::new(CentralizedFifo::new()),
    );

    // Let the first agent demonstrably schedule...
    assert!(
        live_drive_until(&s, 2_000, Duration::from_secs(30)),
        "no progress before the crash"
    );
    // ...then crash it mid-flight.
    let old = s.enclave.global_agent().expect("global agent");
    s.kernel.kill(old);

    // The standby respawns on a driver timer (100 us backoff) fired by
    // the live timer thread; the fresh agent reconstructs from status
    // words and finishes the workload.
    assert!(
        live_drive_until(&s, s.total, Duration::from_secs(30)),
        "stalled after agent crash at {}/{}",
        s.kv.completed_count(),
        s.total
    );
    assert!(await_completion(&s.kv, s.total, Duration::from_secs(1)));

    let stats = s.kernel.runtime().stats();
    assert!(s.enclave.alive(), "enclave survives the crash");
    assert!(stats.respawns >= 1, "standby respawned");
    assert!(stats.reconstructions >= 1, "status words reconstructed");
    assert_eq!(stats.fallbacks, 0, "no CFS fallback");
    let new = s.enclave.global_agent().expect("respawned agent");
    assert_ne!(new, old, "a fresh agent took over");
    s.kernel.shutdown();
}

// ---------------------------------------------------------------------
// 4. Agent hang: scheduling freezes for the window, then resumes.
// ---------------------------------------------------------------------

#[test]
fn des_agent_hang_freezes_scheduling_then_recovers() {
    // Cover every enclave CPU so the plan pins the agent wherever the
    // config placed it. The 30 ms window stays inside the checker's
    // 50 ms default grace, so the stranded wakeups are not violations.
    let hang = FaultPlan::from_events((1..4).map(|c| {
        (
            10 * MILLIS,
            FaultKind::AgentHang {
                cpu: CpuId(c),
                dur: 30 * MILLIS,
            },
        )
    }));
    let mut run = des_scenario(3).faults(hang).build().launch();
    run.sim.kernel.run_until(10 * MILLIS);
    let before = run.completions();
    assert!(before >= 10, "no progress before the hang");
    run.sim.kernel.run_until(40 * MILLIS);
    let during = run.completions();
    // In-flight segments may finish, but the hung agent dispatches
    // nothing new: at most one completion per enclave CPU.
    assert!(
        during - before <= 3,
        "agent scheduled while hung: {before} -> {during}"
    );
    run.sim.kernel.run_until(200 * MILLIS);
    let after = run.completions();
    assert!(
        after > during + 100,
        "scheduling never resumed after the hang: {during} -> {after}"
    );
    assert!(run.sim.enclaves[0].alive());
    check::assert_clean(&run.sim.sink.snapshot());
}

#[test]
fn live_agent_hang_stalls_wall_clock_then_completes() {
    let hang = FaultPlan::from_events((0..2).map(|c| {
        (
            5 * MILLIS,
            FaultKind::AgentHang {
                cpu: CpuId(c),
                dur: 300 * MILLIS,
            },
        )
    }));
    let s = live_setup(
        EnclaveConfig::centralized("conf-live-hang").with_watchdog(5 * SECS),
        Box::new(CentralizedFifo::new()),
        5_000,
        hang,
    );
    assert!(
        live_drive_until(&s, s.total, Duration::from_secs(30)),
        "closed loop stalled at {}/{}",
        s.kv.completed_count(),
        s.total
    );
    assert!(await_completion(&s.kv, s.total, Duration::from_secs(1)));

    // The workload cannot finish inside the hang window: workers burn
    // through at most one dispatched stint each, then sit until the
    // agent thaws. Completion therefore proves both the stall and the
    // recovery.
    assert!(
        s.kernel.now() >= 300 * MILLIS,
        "run finished during the hang window: {} ns",
        s.kernel.now()
    );
    let violations = check::check_with_grace(&s.kernel.trace_snapshot(), LIVE_GRACE_NS);
    assert!(violations.is_empty(), "live violations: {violations:?}");
    assert!(s.enclave.alive());
    s.kernel.shutdown();
}

// ---------------------------------------------------------------------
// 5. Agent slow: execution genuinely stretches, invariants hold.
// ---------------------------------------------------------------------

#[test]
fn des_agent_slow_throttles_dispatch_rate() {
    let run = |faults: FaultPlan| {
        let mut run = des_scenario(3).faults(faults).build().launch();
        run.sim.kernel.run_until(200 * MILLIS);
        (run.completions(), run.sim.sink.snapshot())
    };
    let (base_done, _) = run(FaultPlan::none());

    // The DES serializes agent work through `agent_busy_until`: a
    // stretched activation defers the next one, so a large factor turns
    // the agent itself into the bottleneck. Microsecond activations
    // stretched 5000x become ~10 ms stalls — still inside the checker's
    // 50 ms grace, but throughput visibly collapses.
    let slow = FaultPlan::from_events((1..4).map(|c| {
        (
            0,
            FaultKind::AgentSlow {
                cpu: CpuId(c),
                dur: 200 * MILLIS,
                factor: 5000,
            },
        )
    }));
    let (slow_done, records) = run(slow);
    assert!(slow_done > 0, "slowed agent scheduled nothing at all");
    assert!(
        slow_done * 5 <= base_done,
        "slow factor had no dispatch-rate effect: {slow_done} vs baseline {base_done}"
    );
    check::assert_clean(&records);
}

#[test]
fn live_agent_slow_stalls_the_agent_loop() {
    let slow = FaultPlan::from_events((0..2).map(|c| {
        (
            0,
            FaultKind::AgentSlow {
                cpu: CpuId(c),
                dur: 10 * SECS,
                factor: 20,
            },
        )
    }));
    let s = live_setup(
        EnclaveConfig::centralized("conf-live-slow").with_watchdog(5 * SECS),
        Box::new(CentralizedFifo::new()),
        3_000,
        slow,
    );
    assert!(
        live_drive_until(&s, s.total, Duration::from_secs(30)),
        "closed loop stalled at {}/{}",
        s.kv.completed_count(),
        s.total
    );
    assert!(await_completion(&s.kv, s.total, Duration::from_secs(1)));

    let stats = s.kernel.stats();
    assert!(
        stats.fault_stall_ns > 0,
        "slow window never stretched an activation"
    );
    let violations = check::check_with_grace(&s.kernel.trace_snapshot(), LIVE_GRACE_NS);
    assert!(violations.is_empty(), "live violations: {violations:?}");
    assert!(s.enclave.alive());
    s.kernel.shutdown();
}

// ---------------------------------------------------------------------
// 6. Queue overflow: dropped messages, watchdog-driven resync (§3.1).
// ---------------------------------------------------------------------

#[test]
fn des_queue_overflow_recovers_via_watchdog_upgrade() {
    // Message drops have no producer-side notification: threads whose
    // wakeups fell on the floor sit runnable-but-unqueued until the
    // watchdog notices starvation and promotes the staged policy, whose
    // status-word resync re-enqueues them.
    let plan =
        FaultPlan::from_events([(20 * MILLIS, FaultKind::QueueOverflow { dur: 10 * MILLIS })]);
    let mut run = des_scenario(3)
        .faults(plan)
        .watchdog(15 * MILLIS)
        .stage_upgrade(true)
        .build()
        .launch();
    run.sim.kernel.run_until(200 * MILLIS);

    let stats = run.sim.runtime.stats();
    assert!(stats.msgs_dropped >= 1, "overflow window dropped nothing");
    assert!(
        stats.upgrades >= 1,
        "watchdog never promoted the staged policy"
    );
    assert!(
        run.sim.enclaves[0].alive(),
        "enclave destroyed instead of upgraded"
    );
    assert!(
        run.completions() >= 100,
        "no progress after overflow recovery"
    );
    let records = run.sim.sink.snapshot();
    assert!(
        count(&records, |e| matches!(e, TraceEvent::QueueOverflow { .. })) >= 1,
        "drops were not traced"
    );
    check::assert_clean(&records);
}

#[test]
fn live_queue_overflow_recovers_via_watchdog_upgrade() {
    let plan =
        FaultPlan::from_events([(10 * MILLIS, FaultKind::QueueOverflow { dur: 100 * MILLIS })]);
    let s = live_setup(
        EnclaveConfig::centralized("conf-live-ovf").with_watchdog(150 * MILLIS),
        Box::new(CentralizedFifo::new()),
        20_000,
        plan,
    );
    s.enclave
        .try_stage_upgrade(Box::new(CentralizedFifo::new()))
        .expect("stage upgrade");

    assert!(
        live_drive_until(&s, s.total, Duration::from_secs(30)),
        "closed loop stalled at {}/{}",
        s.kv.completed_count(),
        s.total
    );
    assert!(await_completion(&s.kv, s.total, Duration::from_secs(1)));

    // The workload may finish on the surviving worker before the
    // watchdog fires; wait for the upgrade before judging the trace so
    // the stranded worker's rescue dispatch is recorded.
    let deadline = Instant::now() + Duration::from_secs(10);
    while s.kernel.runtime().stats().upgrades == 0 {
        assert!(
            Instant::now() < deadline,
            "watchdog never promoted the staged policy"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let stats = s.kernel.runtime().stats();
    assert!(stats.msgs_dropped >= 1, "overflow window dropped nothing");
    assert!(s.enclave.alive(), "enclave destroyed instead of upgraded");
    let violations = check::check_with_grace(&s.kernel.trace_snapshot(), LIVE_GRACE_NS);
    assert!(violations.is_empty(), "live violations: {violations:?}");
    s.kernel.shutdown();
}

// ---------------------------------------------------------------------
// 7. A fast agent must not strand its own CPU's commit (live only: the
//    DES parks an agent exactly when its modelled activation ends).
// ---------------------------------------------------------------------

/// Regression: a per-CPU agent commits onto its own CPU, and that commit
/// arms the activation's modelled busy time after it was issued. An agent
/// OS thread gets through the activation in less wall-clock time than
/// that, and used to park — and reschedule its CPU — before the commit had
/// armed; the pick was refused as "not arrived yet" and nothing retried it
/// until the next message or tick. One request at a time, each waited
/// for, with ticks off, turns a stranded commit into a request that is
/// never served. The race is a narrow one: before the fix this failed in
/// about half of the runs (and in the open-loop benchmark it parked 1-4 %
/// of requests for a whole inter-arrival period).
#[test]
fn live_fast_agent_does_not_strand_its_local_commit() {
    // No ticks: the periodic tick re-activates parked per-CPU agents and
    // would paper over a stranded commit a millisecond later.
    let kernel = LiveKernel::new(LiveConfig {
        cpus: 2,
        tick_ns: 0,
        ..LiveConfig::default()
    });
    let enclave = kernel.launch_enclave(
        CpuSet::first_n(2),
        EnclaveConfig::per_cpu("fast-agent"),
        Box::new(ghost_policies::PerCpuPolicy::new()),
    );
    let kv = KvService::new(16, 2 * MICROS);
    let worker = kernel.spawn_kv_worker("fast-agent-kv", Arc::clone(&kv));
    kernel.attach(&enclave, worker);
    for i in 0..10_000u64 {
        assert!(kv.push(i, false, kernel.now()));
        kernel.wake_one_blocked(&[worker]);
        let sent = Instant::now();
        while kv.completed_count() <= i {
            assert!(
                sent.elapsed() < Duration::from_secs(2),
                "request {i} was never served: its commit is stranded"
            );
            std::thread::yield_now();
        }
    }
    // One worker and local commits only: nothing ever waits for a lane
    // someone else occupies, so any preemption is a parking agent
    // kicking the worker its own previous park dispatched.
    assert_eq!(kernel.stats().preempts, 0);
    kernel.shutdown();
}

// ---------------------------------------------------------------------
// 7. Agent wiring: one spawn path, two callers.
// ---------------------------------------------------------------------

/// A policy that never schedules: the wiring is judged, not the run.
struct Idle;

impl GhostPolicy for Idle {
    fn name(&self) -> &str {
        "idle"
    }
    fn on_msg(&mut self, _msg: &Message, _ctx: &mut PolicyCtx<'_>) {}
    fn schedule(&mut self, _ctx: &mut PolicyCtx<'_>) {}
}

/// What `launch_enclave` left behind, as the public accessors show it:
/// which enclave CPUs have an agent, which of them hosts the global
/// agent, and whether `agent_tids` lists the agents in CPU order.
fn wiring(e: &EnclaveHandle, cpus: &[CpuId]) -> (Vec<bool>, Option<usize>, bool) {
    let by_cpu: Vec<Option<Tid>> = cpus.iter().map(|&c| e.agent_on(c)).collect();
    let global = e
        .global_agent()
        .and_then(|g| by_cpu.iter().position(|&a| a == Some(g)));
    let in_cpu_order = e.agent_tids() == by_cpu.iter().flatten().copied().collect::<Vec<_>>();
    (
        by_cpu.iter().map(Option::is_some).collect(),
        global,
        in_cpu_order,
    )
}

#[test]
fn launch_enclave_wires_agents_the_same_on_both_backends() {
    let cpus: Vec<CpuId> = (1..4).map(CpuId).collect();
    let set = || cpus.iter().copied().collect::<CpuSet>();
    for config in [
        EnclaveConfig::centralized("wiring"),
        EnclaveConfig::per_cpu("wiring"),
        EnclaveConfig::per_core("wiring"),
    ] {
        let mode = config.mode;
        let des = Scenario::builder()
            .cpus(4)
            .enclave_cpus(1..4)
            .build()
            .launch_with(|_, _| (config.clone(), Box::new(Idle)));
        let on_des = &des.sim.enclaves[0];
        let live = LiveKernel::new(LiveConfig::default());
        let on_live = live.launch_enclave(set(), config, Box::new(Idle));

        let want_global = (mode == AgentMode::Centralized).then_some(0);
        for (backend, e) in [("des", on_des), ("live", &on_live)] {
            assert_eq!(
                wiring(e, &cpus),
                (vec![true; cpus.len()], want_global, true),
                "{mode:?} on {backend}"
            );
            assert_eq!(e.agent_tids().len(), cpus.len(), "{mode:?} on {backend}");
            assert_eq!(e.agent_on(CpuId(0)), None, "{mode:?} on {backend}");
        }
        live.shutdown();
    }
}

// ---------------------------------------------------------------------
// 8. A Polled-queue post reaches the spinning global agent.
// ---------------------------------------------------------------------

/// How long each message sat in its queue: `MsgEnqueued` → the
/// `MsgDequeued` with the same `(tid, seq)`.
fn msg_queue_waits(records: &[TraceRecord]) -> Vec<Nanos> {
    let mut posted = HashMap::new();
    let mut waits = Vec::new();
    for r in records {
        match r.event {
            TraceEvent::MsgEnqueued { tid, seq, .. } => {
                posted.insert((tid, seq), r.ts);
            }
            TraceEvent::MsgDequeued { tid, seq, .. } => {
                if let Some(at) = posted.remove(&(tid, seq)) {
                    waits.push(r.ts.saturating_sub(at));
                }
            }
            _ => {}
        }
    }
    waits
}

/// The centralized agent spins, so every `THREAD_*` post kicks it
/// (`kick_global` → `schedule_agent_loop`) instead of waiting for its
/// next poll. The DES models the kick's 0.16 µs enqueue cost. A live
/// agent busy-polls its lock-free mailbox epoch, which the kick moves, so
/// it hears the kick as soon as its thread is on a CPU, where the 200 µs
/// `SPIN_POLL` timeout would put the median near 100 µs. Its commits are
/// settled on its own thread too: the timer thread serves real timers, so
/// it fires for at most a tenth of the dispatches (a count, not a time).
#[test]
fn polled_queue_post_reaches_the_spinning_global_agent() {
    let mut des = des_scenario(3).build().launch();
    des.sim.kernel.run_until(200 * MILLIS);
    let waits = msg_queue_waits(&des.sim.sink.snapshot());
    assert!(waits.len() >= 1_000, "{} DES messages", waits.len());
    let worst = waits.iter().max().copied().unwrap_or(0);
    assert!(worst <= MICROS, "DES message waited {worst} ns");

    let s = live_setup(
        EnclaveConfig::centralized("conf-live-kick").with_watchdog(5 * SECS),
        Box::new(CentralizedFifo::new()),
        100_000,
        FaultPlan::none(),
    );
    assert!(
        live_drive_until(&s, s.total, Duration::from_secs(30)),
        "closed loop stalled at {}/{}",
        s.kv.completed_count(),
        s.total
    );
    let mut waits = msg_queue_waits(&s.kernel.trace_snapshot());
    let stats = s.kernel.stats();
    s.kernel.shutdown();
    assert!(
        stats.timers_fired <= stats.dispatches / 10,
        "{} timers fired for {} dispatches",
        stats.timers_fired,
        stats.dispatches
    );
    assert!(waits.len() >= 1_000, "{} live messages", waits.len());
    waits.sort_unstable();
    let p50 = waits[waits.len() / 2];
    assert!(
        p50 < 50 * MICROS,
        "live message queue wait p50 {p50} ns over {} messages",
        waits.len()
    );
}
