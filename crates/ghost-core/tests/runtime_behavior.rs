//! End-to-end tests of the ghOSt runtime on the simulated kernel:
//! message flow, transactions (local/remote/group/ESTALE), preemption by
//! CFS, hot handoff, the PNT fast path, the watchdog, crash fallback, and
//! in-place upgrade.

use ghost_core::enclave::EnclaveConfig;
use ghost_core::msg::{Message, MsgType};
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::runtime::GhostRuntime;
use ghost_core::txn::{Transaction, TxnStatus};
use ghost_sim::app::{App, AppId, Next};
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, ThreadSpec};
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::{CpuSet, CLASS_CFS};
use ghost_trace::{check, TraceEvent, TraceSink};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

/// A centralized FIFO policy (the paper's Fig. 4 example).
#[derive(Default)]
struct FifoPolicy {
    rq: VecDeque<Tid>,
    queued: HashSet<Tid>,
    seqs: HashMap<Tid, u64>,
    /// Failed-commit log for assertions.
    failures: Vec<TxnStatus>,
}

impl FifoPolicy {
    fn enqueue(&mut self, tid: Tid) {
        if self.queued.insert(tid) {
            self.rq.push_back(tid);
        }
    }

    fn remove(&mut self, tid: Tid) {
        if self.queued.remove(&tid) {
            self.rq.retain(|&t| t != tid);
        }
    }
}

impl GhostPolicy for FifoPolicy {
    fn name(&self) -> &str {
        "test-fifo"
    }

    fn on_msg(&mut self, msg: &Message, _ctx: &mut PolicyCtx<'_>) {
        if msg.ty.is_thread_msg() {
            self.seqs.insert(msg.tid, msg.seq);
        }
        match msg.ty {
            MsgType::ThreadWakeup | MsgType::ThreadPreempted | MsgType::ThreadYield => {
                self.enqueue(msg.tid)
            }
            MsgType::ThreadBlocked | MsgType::ThreadDead => self.remove(msg.tid),
            _ => {}
        }
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        let idle = ctx.idle_cpus();
        let mut txns = Vec::new();
        let mut scheduled = Vec::new();
        for cpu in idle.iter() {
            let Some(tid) = self.rq.pop_front() else {
                break;
            };
            self.queued.remove(&tid);
            scheduled.push(tid);
            let seq = self.seqs.get(&tid).copied().unwrap_or(0);
            txns.push(Transaction::new(tid, cpu).with_thread_seq(seq));
        }
        if txns.is_empty() {
            return;
        }
        ctx.commit(&mut txns);
        for txn in &txns {
            if !txn.status.committed() {
                self.failures.push(txn.status);
                self.enqueue(txn.tid);
            }
        }
    }
}

/// Workload app: each thread runs `seg` then blocks; timers re-arm work.
struct PulseApp {
    conf: HashMap<Tid, (Nanos, Nanos)>, // (segment, period)
    completions: Arc<Mutex<HashMap<Tid, u64>>>,
}

impl App for PulseApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "pulse"
    }

    fn on_timer(&mut self, key: u64, k: &mut KernelState) {
        let tid = Tid(key as u32);
        let (seg, period) = self.conf[&tid];
        if k.threads[tid.index()].state == ThreadState::Blocked {
            k.thread_mut(tid).remaining = seg;
            k.wake(tid);
        }
        if period > 0 {
            let app = k.thread(tid).app.expect("pulse thread has app");
            k.arm_app_timer(k.now + period, app, key);
        }
    }

    fn on_segment_end(&mut self, tid: Tid, _k: &mut KernelState) -> Next {
        *self.completions.lock().unwrap().entry(tid).or_insert(0) += 1;
        Next::Block
    }
}

struct Setup {
    kernel: Kernel,
    runtime: GhostRuntime,
    enclave: ghost_core::runtime::EnclaveHandle,
    app: AppId,
    threads: Vec<Tid>,
    completions: Arc<Mutex<HashMap<Tid, u64>>>,
}

/// Builds: a machine, a centralized enclave over all but CPU 0, `n`
/// ghOSt-managed pulse threads (seg every period).
fn centralized_setup(
    topo: Topology,
    n: usize,
    seg: Nanos,
    period: Nanos,
    config: EnclaveConfig,
    policy: Box<dyn GhostPolicy>,
) -> Setup {
    centralized_setup_opts(topo, n, seg, period, config, policy, true, TraceSink::Null)
}

/// Like [`centralized_setup`] but records every tracepoint into `trace`.
fn centralized_setup_traced(
    topo: Topology,
    n: usize,
    seg: Nanos,
    period: Nanos,
    config: EnclaveConfig,
    policy: Box<dyn GhostPolicy>,
    trace: TraceSink,
) -> Setup {
    centralized_setup_opts(topo, n, seg, period, config, policy, true, trace)
}

#[allow(clippy::too_many_arguments)]
fn centralized_setup_opts(
    topo: Topology,
    n: usize,
    seg: Nanos,
    period: Nanos,
    config: EnclaveConfig,
    policy: Box<dyn GhostPolicy>,
    stagger: bool,
    trace: TraceSink,
) -> Setup {
    let mut kernel = Kernel::new(
        topo,
        KernelConfig {
            trace,
            ..KernelConfig::default()
        },
    );
    let ncpus = kernel.state.topo.num_cpus();
    let runtime = GhostRuntime::new(ncpus);
    let cpus: CpuSet = (1..ncpus as u16).map(CpuId).collect();
    let enclave = runtime.launch_enclave(&mut kernel, cpus, config, policy);

    let app = kernel.state.next_app_id();
    let completions = Arc::new(Mutex::new(HashMap::new()));
    let mut conf = HashMap::new();
    let mut threads = Vec::new();
    for i in 0..n {
        let tid = kernel.spawn(ThreadSpec::workload(&format!("w{i}"), &kernel.state.topo).app(app));
        conf.insert(tid, (seg, period));
        threads.push(tid);
    }
    kernel.add_app(Box::new(PulseApp {
        conf,
        completions: Arc::clone(&completions),
    }));
    for &tid in &threads {
        enclave.attach_thread(&mut kernel.state, tid);
    }
    for (i, &tid) in threads.iter().enumerate() {
        let at = if stagger {
            (i as u64 + 1) * 10_000
        } else {
            10_000
        };
        kernel.state.arm_app_timer(at, app, tid.0 as u64);
    }
    Setup {
        kernel,
        runtime,
        enclave,
        app,
        threads,
        completions,
    }
}

#[test]
fn centralized_fifo_schedules_threads() {
    let mut s = centralized_setup(
        Topology::test_small(4), // 8 CPUs.
        4,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
    );
    s.kernel.run_until(50 * MILLIS);
    let stats = s.runtime.stats();
    assert!(
        stats.txns_committed >= 100,
        "txns: {}",
        stats.txns_committed
    );
    assert!(stats.posted(MsgType::ThreadWakeup) >= 100);
    assert!(stats.posted(MsgType::ThreadBlocked) >= 100);
    assert!(stats.posted(MsgType::ThreadCreated) == 4);
    for &t in &s.threads {
        let done = s.completions.lock().unwrap()[&t];
        assert!(done >= 40, "thread {t} completed only {done} pulses");
    }
    // The agent spent real virtual time working.
    assert!(stats.agent_busy_ns > 0);
    assert!(stats.activations > 100);
}

#[test]
fn ghost_threads_are_preempted_by_cfs() {
    // 4 CPUs: enclave = {1,2,3}; agent spins on 1, ghOSt work on 2–3.
    let mut s = centralized_setup(
        Topology::test_small(2),
        2,
        5 * MILLIS,
        10 * MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
    );
    // A second app drives a CFS hog pinned to CPU 2, where ghOSt threads
    // run 5 ms segments — every hog wakeup must preempt them.
    let hog_app_id = s.kernel.state.next_app_id();
    let hog = s.kernel.spawn(
        ThreadSpec::workload("cfs-hog", &s.kernel.state.topo)
            .app(hog_app_id)
            .affinity(CpuSet::from_iter([CpuId(2)])),
    );
    let hog_completions = Arc::new(Mutex::new(HashMap::new()));
    let mut conf = HashMap::new();
    conf.insert(hog, (2 * MILLIS, 10 * MILLIS));
    s.kernel.add_app(Box::new(PulseApp {
        conf,
        completions: Arc::clone(&hog_completions),
    }));
    s.kernel
        .state
        .arm_app_timer(3 * MILLIS, hog_app_id, hog.0 as u64);
    s.kernel.run_until(200 * MILLIS);
    let stats = s.runtime.stats();
    assert!(
        stats.posted(MsgType::ThreadPreempted) > 0,
        "CFS hog must preempt ghOSt threads"
    );
    // The ghOSt thread still made progress afterwards.
    assert!(s.completions.lock().unwrap()[&s.threads[0]] >= 10);
}

#[test]
fn group_commit_schedules_multiple_cpus() {
    // All threads wake at the same instant so the FIFO commits groups.
    let mut s = centralized_setup_opts(
        Topology::test_small(4),
        6,
        500 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
        false,
        TraceSink::Null,
    );
    s.kernel.run_until(30 * MILLIS);
    let stats = s.runtime.stats();
    assert!(stats.group_commits > 0, "expected group commits");
    assert!(stats.txns_committed > 50);
}

#[test]
fn stale_thread_seq_fails_with_estale() {
    /// A policy that deliberately commits with an outdated Tseq once.
    #[derive(Default)]
    struct StalePolicy {
        inner: FifoPolicy,
        sabotaged: bool,
        stale_seen: Arc<Mutex<bool>>,
    }
    impl GhostPolicy for StalePolicy {
        fn name(&self) -> &str {
            "stale-test"
        }
        fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
            self.inner.on_msg(msg, ctx);
        }
        fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
            if !self.sabotaged {
                if let Some(&tid) = self.inner.rq.front() {
                    let seq = self.inner.seqs.get(&tid).copied().unwrap_or(0);
                    if seq >= 2 {
                        // Commit with an old sequence number.
                        self.sabotaged = true;
                        let cpu = ctx.idle_cpus().first();
                        if let Some(cpu) = cpu {
                            let mut txn = Transaction::new(tid, cpu).with_thread_seq(seq - 1);
                            ctx.commit(std::slice::from_mut(&mut txn));
                            assert_eq!(txn.status, TxnStatus::Stale);
                            *self.stale_seen.lock().unwrap() = true;
                        }
                    }
                }
            }
            self.inner.schedule(ctx);
        }
    }
    let stale_seen = Arc::new(Mutex::new(false));
    let policy = StalePolicy {
        stale_seen: Arc::clone(&stale_seen),
        ..Default::default()
    };
    let mut s = centralized_setup(
        Topology::test_small(4),
        2,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(policy),
    );
    s.kernel.run_until(50 * MILLIS);
    assert!(*stale_seen.lock().unwrap(), "ESTALE path never exercised");
    assert!(s.runtime.stats().txns_stale >= 1);
    // Despite the sabotage, scheduling continued.
    assert!(s.completions.lock().unwrap()[&s.threads[0]] > 10);
}

#[test]
fn watchdog_destroys_enclave_and_falls_back_to_cfs() {
    /// A policy that never schedules anything (a "buggy agent").
    struct DeadPolicy;
    impl GhostPolicy for DeadPolicy {
        fn name(&self) -> &str {
            "dead"
        }
        fn on_msg(&mut self, _msg: &Message, _ctx: &mut PolicyCtx<'_>) {}
        fn schedule(&mut self, _ctx: &mut PolicyCtx<'_>) {}
    }
    let sink = TraceSink::recording(1, 1 << 17);
    let mut s = centralized_setup_traced(
        Topology::test_small(4),
        2,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test").with_watchdog(20 * MILLIS),
        Box::new(DeadPolicy),
        sink.clone(),
    );
    s.kernel.run_until(200 * MILLIS);
    let stats = s.runtime.stats();
    assert_eq!(stats.watchdog_destroys, 1);
    assert!(!s.enclave.alive());
    // Threads fell back to CFS and resumed making progress.
    for &t in &s.threads {
        assert_eq!(s.kernel.state.thread(t).class, CLASS_CFS);
        assert!(
            s.completions.lock().unwrap().get(&t).copied().unwrap_or(0) > 50,
            "thread {t} should run under CFS after the fallback"
        );
    }
    // The trace shows the watchdog firing and tearing the enclave down,
    // and the checker excuses the pre-blackout stranded wakeups.
    assert_eq!(sink.dropped(), 0, "trace ring overflowed");
    let records = sink.snapshot();
    let fired = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::WatchdogFired { .. }))
        .count();
    let torn_down = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::EnclaveDestroyed { .. }))
        .count();
    assert_eq!(fired, 1, "exactly one watchdog firing");
    assert_eq!(torn_down, 1, "exactly one enclave teardown");
    check::assert_clean(&records);
}

#[test]
fn agent_crash_without_standby_falls_back_to_cfs() {
    let mut s = centralized_setup(
        Topology::test_small(4),
        2,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
    );
    s.kernel.run_until(20 * MILLIS);
    assert!(s.enclave.alive());
    let global = s.enclave.global_agent().expect("global agent");
    s.kernel.kill(global);
    s.kernel.run_until(60 * MILLIS);
    let stats = s.runtime.stats();
    assert!(stats.fallbacks >= 1);
    assert!(!s.enclave.alive());
    for &t in &s.threads {
        assert_eq!(s.kernel.state.thread(t).class, CLASS_CFS);
    }
    // And they keep running under CFS.
    let before = s.completions.lock().unwrap()[&s.threads[0]];
    s.kernel.run_until(120 * MILLIS);
    assert!(s.completions.lock().unwrap()[&s.threads[0]] > before);
}

#[test]
fn staged_upgrade_survives_agent_crash() {
    let mut s = centralized_setup(
        Topology::test_small(4),
        2,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
    );
    s.kernel.run_until(20 * MILLIS);
    // Stage a new policy version, then crash the running agent.
    s.enclave
        .try_stage_upgrade(Box::new(FifoPolicy::default()))
        .expect("stage upgrade");
    let global = s.enclave.global_agent().expect("global agent");
    s.kernel.kill(global);
    s.kernel.run_until(100 * MILLIS);
    let stats = s.runtime.stats();
    assert_eq!(stats.upgrades, 1);
    assert!(s.enclave.alive(), "enclave survives upgrade");
    // The new policy schedules: threads still make ghOSt progress.
    let before = s.completions.lock().unwrap()[&s.threads[0]];
    s.kernel.run_until(200 * MILLIS);
    assert!(s.completions.lock().unwrap()[&s.threads[0]] > before + 50);
    assert_ne!(s.kernel.state.thread(s.threads[0]).class, CLASS_CFS);
}

#[test]
fn watchdog_promotes_staged_policy_instead_of_reaping() {
    /// A hung agent: activates but never schedules anything.
    struct HungPolicy;
    impl GhostPolicy for HungPolicy {
        fn name(&self) -> &str {
            "hung"
        }
        fn on_msg(&mut self, _msg: &Message, _ctx: &mut PolicyCtx<'_>) {}
        fn schedule(&mut self, _ctx: &mut PolicyCtx<'_>) {}
    }
    let mut s = centralized_setup(
        Topology::test_small(4),
        2,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test").with_watchdog(20 * MILLIS),
        Box::new(HungPolicy),
    );
    // A fixed policy version is staged before the watchdog trips: the
    // watchdog must hand over to it in place instead of reaping the
    // enclave (the mid-upgrade handoff is excused, not double-reaped).
    s.enclave
        .try_stage_upgrade(Box::new(FifoPolicy::default()))
        .expect("stage upgrade");
    s.kernel.run_until(200 * MILLIS);
    let stats = s.runtime.stats();
    assert_eq!(stats.upgrades, 1, "watchdog should promote the standby");
    assert_eq!(
        stats.watchdog_destroys, 0,
        "upgraded enclave must not be reaped"
    );
    assert!(s.enclave.alive());
    // Threads stayed under ghOSt and the new policy actually schedules.
    for &t in &s.threads {
        assert_ne!(s.kernel.state.thread(t).class, CLASS_CFS);
        let done = s.completions.lock().unwrap().get(&t).copied().unwrap_or(0);
        assert!(done > 50, "thread {t} completed only {done} pulses");
    }
}

#[test]
fn upgraded_agent_gets_fresh_watchdog_grace() {
    /// Dead policy used for both the running and the staged version.
    struct DeadPolicy;
    impl GhostPolicy for DeadPolicy {
        fn name(&self) -> &str {
            "dead"
        }
        fn on_msg(&mut self, _msg: &Message, _ctx: &mut PolicyCtx<'_>) {}
        fn schedule(&mut self, _ctx: &mut PolicyCtx<'_>) {}
    }
    let sink = TraceSink::recording(1, 1 << 17);
    let mut s = centralized_setup_traced(
        Topology::test_small(4),
        2,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test").with_watchdog(20 * MILLIS),
        Box::new(DeadPolicy),
        sink.clone(),
    );
    // The staged version is just as dead: the watchdog promotes it once,
    // then must re-measure starvation from the upgrade instant — not
    // reap the fresh agent with the stale pre-upgrade clock.
    s.enclave
        .try_stage_upgrade(Box::new(DeadPolicy))
        .expect("stage upgrade");
    s.kernel.run_until(200 * MILLIS);
    let stats = s.runtime.stats();
    assert_eq!(stats.upgrades, 1);
    assert_eq!(stats.watchdog_destroys, 1, "dead upgrade is finally reaped");
    assert!(!s.enclave.alive());
    for &t in &s.threads {
        assert_eq!(s.kernel.state.thread(t).class, CLASS_CFS);
    }
    // Timing proves the grace: without it the destroy would land on the
    // first watchdog check after the upgrade (~40 ms); with the clock
    // reset it cannot fire before upgrade + a full timeout (~60 ms).
    let records = sink.snapshot();
    let fired_ts = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::WatchdogFired { .. }))
        .map(|r| r.ts)
        .expect("watchdog fired");
    assert!(
        fired_ts >= 50 * MILLIS,
        "reaped {fired_ts} ns after boot: upgrade grace not applied"
    );
    check::assert_clean(&records);
}

#[test]
fn pnt_fast_path_schedules_idle_cpus() {
    /// A policy that only offers threads to the PNT rings and never
    /// commits transactions itself.
    struct PntOnly2(FifoPolicy);
    impl GhostPolicy for PntOnly2 {
        fn name(&self) -> &str {
            "pnt-only"
        }
        fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
            self.0.on_msg(msg, ctx);
        }
        fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
            let node = ctx.topo().info(ctx.local_cpu()).socket as usize;
            while let Some(tid) = self.0.rq.pop_front() {
                self.0.queued.remove(&tid);
                ctx.pnt_push(node, tid);
            }
        }
    }
    let mut s = centralized_setup(
        Topology::test_small(4),
        4,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test").with_pnt(64),
        Box::new(PntOnly2(FifoPolicy::default())),
    );
    // CFS blips: short CFS work on enclave CPUs forces rescheds whose
    // pick_next consults the PNT rings when the CPU would otherwise idle.
    let app = s.app;
    for c in 2..8u16 {
        let blip = s.kernel.spawn(
            ThreadSpec::workload(&format!("blip{c}"), &s.kernel.state.topo)
                .app(app)
                .affinity(CpuSet::from_iter([CpuId(c)])),
        );
        s.kernel.state.thread_mut(blip).remaining = 10 * MICROS;
        for i in 0..100u64 {
            s.kernel.state.wake_at(i * MILLIS + 100_000, blip);
        }
    }
    s.kernel.run_until(100 * MILLIS);
    let stats = s.runtime.stats();
    assert!(stats.pnt_picks > 0, "PNT fast path never picked a thread");
    assert!(
        s.completions
            .lock()
            .unwrap()
            .get(&s.threads[0])
            .copied()
            .unwrap_or(0)
            > 10,
        "threads should run via PNT"
    );
}

#[test]
fn hot_handoff_moves_global_agent() {
    let mut s = centralized_setup(
        Topology::test_small(4),
        2,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
    );
    s.kernel.run_until(10 * MILLIS);
    let global_before = s.enclave.global_agent().expect("global");
    let gcpu = s.kernel.state.thread(global_before).cpu.expect("on cpu");
    // Pin a CFS thread to exactly the global agent's CPU.
    let app = s.app;
    let hog = s.kernel.spawn(
        ThreadSpec::workload("pinned-cfs", &s.kernel.state.topo)
            .app(app)
            .affinity(CpuSet::from_iter([gcpu])),
    );
    s.kernel.state.thread_mut(hog).remaining = 5 * MILLIS;
    s.kernel.wake_now(hog);
    s.kernel.run_until(30 * MILLIS);
    let stats = s.runtime.stats();
    assert!(stats.handoffs >= 1, "no hot handoff happened");
    let global_after = s.enclave.global_agent().expect("global");
    assert_ne!(global_before, global_after);
    // The CFS thread got its CPU.
    assert!(s.kernel.state.thread(hog).total_work >= 4 * MILLIS);
    // And ghOSt scheduling continued under the new global agent.
    let before = s.completions.lock().unwrap()[&s.threads[0]];
    s.kernel.run_until(60 * MILLIS);
    assert!(s.completions.lock().unwrap()[&s.threads[0]] > before);
}

#[test]
fn destroy_enclave_api_moves_threads_to_cfs() {
    let mut s = centralized_setup(
        Topology::test_small(4),
        2,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
    );
    s.kernel.run_until(10 * MILLIS);
    s.enclave.try_destroy(&mut s.kernel.state).expect("destroy");
    s.kernel.run_until(20 * MILLIS);
    assert!(!s.enclave.alive());
    for &t in &s.threads {
        assert_eq!(s.kernel.state.thread(t).class, CLASS_CFS);
        assert_ne!(s.kernel.state.thread(t).state, ThreadState::Dead);
    }
    for agent in s.enclave.agent_tids() {
        assert_eq!(s.kernel.state.thread(agent).state, ThreadState::Dead);
    }
}

/// Fig. 2: multiple enclaves run independent policies concurrently, and
/// destroying one leaves the other intact (§3.4 fault isolation).
#[test]
fn enclaves_are_isolated_from_each_other() {
    let mut kernel = Kernel::new(Topology::test_small(4), KernelConfig::default());
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    // Enclave A on CPUs 1-3, enclave B on CPUs 4-7.
    let cpus_a: CpuSet = (1..4u16).map(CpuId).collect();
    let cpus_b: CpuSet = (4..8u16).map(CpuId).collect();
    let enc_a = runtime.launch_enclave(
        &mut kernel,
        cpus_a,
        EnclaveConfig::centralized("A"),
        Box::new(FifoPolicy::default()),
    );
    let enc_b = runtime.launch_enclave(
        &mut kernel,
        cpus_b,
        EnclaveConfig::centralized("B"),
        Box::new(FifoPolicy::default()),
    );

    let app = kernel.state.next_app_id();
    let completions = Arc::new(Mutex::new(HashMap::new()));
    let mut conf = HashMap::new();
    let mut a_tids = Vec::new();
    let mut b_tids = Vec::new();
    for i in 0..2 {
        let ta = kernel.spawn(ThreadSpec::workload(&format!("a{i}"), &kernel.state.topo).app(app));
        let tb = kernel.spawn(ThreadSpec::workload(&format!("b{i}"), &kernel.state.topo).app(app));
        conf.insert(ta, (100 * MICROS, MILLIS));
        conf.insert(tb, (100 * MICROS, MILLIS));
        a_tids.push(ta);
        b_tids.push(tb);
    }
    kernel.add_app(Box::new(PulseApp {
        conf,
        completions: Arc::clone(&completions),
    }));
    for &t in &a_tids {
        enc_a.attach_thread(&mut kernel.state, t);
        kernel.state.arm_app_timer(10_000, app, t.0 as u64);
    }
    for &t in &b_tids {
        enc_b.attach_thread(&mut kernel.state, t);
        kernel.state.arm_app_timer(10_000, app, t.0 as u64);
    }
    kernel.run_until(50 * MILLIS);
    // Both enclaves schedule concurrently; threads stay inside their
    // enclave's CPUs.
    for &t in &a_tids {
        assert!(cpus_a.contains(kernel.state.thread(t).last_cpu.expect("ran")));
    }
    for &t in &b_tids {
        assert!(cpus_b.contains(kernel.state.thread(t).last_cpu.expect("ran")));
    }

    // Crash enclave A's agent: A falls back to CFS, B keeps scheduling.
    let a_agent = enc_a.global_agent().expect("A has a global agent");
    kernel.kill(a_agent);
    kernel.run_until(60 * MILLIS);
    assert!(!enc_a.alive());
    assert!(enc_b.alive(), "enclave B must be untouched");
    for &t in &a_tids {
        assert_eq!(kernel.state.thread(t).class, CLASS_CFS);
    }
    let b_before = completions.lock().unwrap()[&b_tids[0]];
    kernel.run_until(120 * MILLIS);
    assert!(
        completions.lock().unwrap()[&b_tids[0]] > b_before + 30,
        "enclave B must keep scheduling after A's crash"
    );
    // And A's threads keep running, now under CFS.
    let a_before = completions.lock().unwrap()[&a_tids[0]];
    kernel.run_until(180 * MILLIS);
    assert!(completions.lock().unwrap()[&a_tids[0]] > a_before + 30);
}

/// The Fig. 4 FIFO scenario replayed through the tracer: the recorded
/// stream is lossless, contains every event family the runtime emits on
/// the happy path, and satisfies all checker invariants.
#[test]
fn traced_centralized_run_passes_invariant_checker() {
    let sink = TraceSink::recording(1, 1 << 19);
    let mut s = centralized_setup_traced(
        Topology::test_small(4),
        4,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
        sink.clone(),
    );
    s.kernel.run_until(50 * MILLIS);
    assert_eq!(sink.dropped(), 0, "trace ring overflowed");
    let records = sink.snapshot();
    assert!(!records.is_empty());
    let has = |pred: fn(&TraceEvent) -> bool| records.iter().any(|r| pred(&r.event));
    assert!(has(|e| matches!(e, TraceEvent::SchedSwitch { .. })));
    assert!(has(|e| matches!(e, TraceEvent::SchedWakeup { .. })));
    assert!(has(|e| matches!(e, TraceEvent::MsgEnqueued { .. })));
    assert!(has(|e| matches!(e, TraceEvent::MsgDequeued { .. })));
    assert!(has(|e| matches!(
        e,
        TraceEvent::AgentActivationBegin { .. }
    )));
    assert!(has(|e| matches!(e, TraceEvent::TxnArmed { .. })));
    assert!(has(|e| matches!(e, TraceEvent::TxnCommitOk { .. })));
    check::assert_clean(&records);
}

/// Overflowing a tiny message queue: drops are counted (runtime stats +
/// per-queue cumulative counter), surface as `QueueOverflow` tracepoints,
/// and Tseq keeps advancing past dropped messages so a later delivery
/// carries the right sequence number.
#[test]
fn queue_overflow_is_counted_traced_and_seqnums_stay_consistent() {
    let sink = TraceSink::recording(1, 1 << 14);
    let mut kernel = Kernel::new(
        Topology::test_small(4),
        KernelConfig {
            trace: sink.clone(),
            ..KernelConfig::default()
        },
    );
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let cpus: CpuSet = (1..8u16).map(CpuId).collect();
    let mut config = EnclaveConfig::centralized("tiny");
    config.queue_capacity = 4;
    let enclave =
        runtime.launch_enclave(&mut kernel, cpus, config, Box::new(FifoPolicy::default()));

    // No agents yet: nothing drains the 4-slot default queue, so the 8
    // THREAD_CREATED messages below overflow it.
    let threads: Vec<Tid> = (0..8)
        .map(|i| kernel.spawn(ThreadSpec::workload(&format!("w{i}"), &kernel.state.topo)))
        .collect();
    for &t in &threads {
        enclave.attach_thread(&mut kernel.state, t);
    }
    kernel.run_until(MILLIS);
    let stats = runtime.stats();
    assert_eq!(stats.msgs_dropped, 4, "4 of 8 creates must overflow");
    assert_eq!(stats.posted(MsgType::ThreadCreated), 4);

    // Start the agents: the backlog drains, making room in the queue.
    kernel.run_until(2 * MILLIS);

    // Wake a thread whose THREAD_CREATED was dropped. Its Tseq advanced
    // despite the loss, so the wakeup must be delivered with seq 2.
    let victim = threads[7];
    kernel.state.thread_mut(victim).remaining = 100 * MICROS;
    let at = kernel.state.now + 10_000;
    kernel.state.wake_at(at, victim);
    kernel.run_until(3 * MILLIS);

    assert_eq!(sink.dropped(), 0, "trace ring must not drop records");
    let records = sink.snapshot();

    let overflows: Vec<(u32, u8, u32, u64)> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::QueueOverflow {
                queue,
                ty,
                tid,
                dropped_total,
            } => Some((queue, ty, tid, dropped_total)),
            _ => None,
        })
        .collect();
    assert_eq!(overflows.len(), 4, "one tracepoint per dropped message");
    for (i, &(queue, ty, _, dropped_total)) in overflows.iter().enumerate() {
        assert_eq!(queue, 0, "drops hit the default queue");
        assert_eq!(ty, 0, "dropped messages are THREAD_CREATED");
        assert_eq!(
            dropped_total,
            i as u64 + 1,
            "per-queue drop counter is cumulative and gapless"
        );
    }
    assert!(
        overflows.iter().any(|o| o.2 == victim.0),
        "the victim's create was among the drops"
    );

    let victim_seqs: Vec<u64> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::MsgEnqueued { tid, seq, .. } if tid == victim.0 => Some(seq),
            _ => None,
        })
        .collect();
    assert_eq!(
        victim_seqs.first(),
        Some(&2),
        "wakeup after a dropped create must carry Tseq 2, got {victim_seqs:?}"
    );

    // Global trace seqnums stay gapless even across queue overflow.
    for w in records.windows(2) {
        assert_eq!(w[1].seq, w[0].seq + 1);
    }
    check::assert_clean(&records);
}

// ---------------------------------------------------------------------------
// Failover & bounded-time recovery (§3.4 + the rejoin experiment, Fig. 9).
// ---------------------------------------------------------------------------

#[test]
fn upgrade_reconstructs_without_synthetic_messages() {
    let mut s = centralized_setup(
        Topology::test_small(4),
        3,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
    );
    s.kernel.run_until(20 * MILLIS);
    let created_before = s.runtime.stats().posted(MsgType::ThreadCreated);
    s.enclave
        .try_stage_upgrade(Box::new(FifoPolicy::default()))
        .expect("stage upgrade");
    s.enclave
        .try_upgrade_now(&mut s.kernel.state)
        .expect("upgrade");
    s.kernel.run_until(100 * MILLIS);
    let stats = s.runtime.stats();
    // The incoming agent's discovery messages go straight to its policy:
    // no THREAD_CREATED is posted to a queue or counted.
    assert_eq!(
        stats.posted(MsgType::ThreadCreated),
        created_before,
        "upgrade must not post synthetic creation messages"
    );
    assert_eq!(stats.reconstructions, 1);
    assert_eq!(stats.upgrades, 1);
    assert!(s.enclave.alive());
    // The reconstructed policy actually schedules.
    let before = s.completions.lock().unwrap()[&s.threads[0]];
    s.kernel.run_until(200 * MILLIS);
    assert!(s.completions.lock().unwrap()[&s.threads[0]] > before + 50);
    assert_ne!(s.kernel.state.thread(s.threads[0]).class, CLASS_CFS);
}

/// What an incoming policy saw in its first activation: every message,
/// and each managed thread's `(tid, Tseq, last CPU, waiting)` read when
/// the first message arrived (the activation is atomic in virtual time,
/// so this is the state the scan saw).
#[derive(Default)]
struct FirstActivation {
    msgs: Vec<Message>,
    threads: Vec<(Tid, u64, CpuId, bool)>,
    done: bool,
}

/// A FIFO that records its first activation into [`FirstActivation`]
/// and charges nothing in it.
struct ReplayProbe {
    tids: Vec<Tid>,
    seen: Arc<Mutex<FirstActivation>>,
    fifo: FifoPolicy,
}

impl GhostPolicy for ReplayProbe {
    fn name(&self) -> &str {
        "replay-probe"
    }

    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
        let mut seen = self.seen.lock().unwrap();
        if !seen.done {
            if seen.msgs.is_empty() {
                let views = self.tids.iter().filter_map(|&t| ctx.thread_view(t));
                seen.threads = views
                    .map(|v| (v.tid, v.tseq, v.last_cpu.unwrap_or(CpuId(0)), v.runnable))
                    .collect();
            }
            seen.msgs.push(*msg);
        }
        self.fifo.on_msg(msg, ctx);
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        if std::mem::replace(&mut self.seen.lock().unwrap().done, true) {
            self.fifo.schedule(ctx);
        }
    }
}

#[test]
fn upgrade_replays_the_scan_before_any_queued_message() {
    let sink = TraceSink::recording(1, 1 << 18);
    let mut s = centralized_setup_traced(
        Topology::test_small(4),
        24,
        2 * MILLIS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
        sink.clone(),
    );
    s.kernel.run_until(20 * MILLIS);
    // A thread attached just before the upgrade still has its messages
    // queued when the incoming agent first runs.
    let spec = ThreadSpec::workload("late", &s.kernel.state.topo).app(s.app);
    let late = s.kernel.spawn(spec);
    s.enclave.attach_thread(&mut s.kernel.state, late);
    let mut tids = s.threads.clone();
    tids.push(late);
    let seen = Arc::new(Mutex::new(FirstActivation::default()));
    let probe = ReplayProbe {
        tids: tids.clone(),
        seen: Arc::clone(&seen),
        fifo: FifoPolicy::default(),
    };
    s.enclave.try_stage_upgrade(Box::new(probe)).expect("stage");
    s.enclave
        .try_upgrade_now(&mut s.kernel.state)
        .expect("upgrade");
    s.kernel.run_until(40 * MILLIS);
    let seen = seen.lock().unwrap();
    assert!(seen.done, "the incoming policy ran");

    // THREAD_CREATED for every thread in tid order, then THREAD_WAKEUP
    // for each waiting one, stamped with the status word's Tseq and the
    // thread's last CPU.
    let mut threads = seen.threads.clone();
    threads.sort_by_key(|t| t.0);
    assert_eq!(threads.len(), tids.len());
    let created = threads
        .iter()
        .map(|&(t, seq, cpu, _)| (MsgType::ThreadCreated, t, seq, cpu));
    let woken = threads
        .iter()
        .filter(|t| t.3)
        .map(|&(t, seq, cpu, _)| (MsgType::ThreadWakeup, t, seq, cpu));
    let replay: Vec<_> = created.chain(woken).collect();
    let waiting = replay.len() - threads.len();
    assert!(
        waiting > 0 && waiting < threads.len(),
        "the scan must see waiting and non-waiting threads ({waiting})"
    );
    let got: Vec<_> = seen
        .msgs
        .iter()
        .map(|m| (m.ty, m.tid, m.seq, m.cpu))
        .collect();
    assert_eq!(got[..replay.len()], replay[..], "replay shape");

    // Every later message is a drained one, in dequeue order; the replay
    // itself is never dequeued.
    let records = sink.snapshot();
    let done = records
        .iter()
        .position(|r| matches!(r.event, TraceEvent::ReconstructDone { .. }))
        .expect("reconstruction traced");
    let agent_cpu = records[done].cpu;
    let mine = |r: &&ghost_trace::TraceRecord| r.cpu == agent_cpu;
    let begin = records[..done]
        .iter()
        .rev()
        .filter(mine)
        .find(|r| matches!(r.event, TraceEvent::AgentActivationBegin { .. }))
        .expect("activation begin");
    let end = records[done..]
        .iter()
        .filter(mine)
        .find(|r| matches!(r.event, TraceEvent::AgentActivationEnd { .. }))
        .expect("activation end");
    let dequeued: Vec<(Tid, u64)> = records
        .iter()
        .filter(|r| r.seq > begin.seq && r.seq < end.seq && r.cpu == agent_cpu)
        .filter_map(|r| match r.event {
            TraceEvent::MsgDequeued { tid, seq, .. } => Some((Tid(tid), seq)),
            _ => None,
        })
        .collect();
    let drained: Vec<(Tid, u64)> = seen.msgs[replay.len()..]
        .iter()
        .map(|m| (m.tid, m.seq))
        .collect();
    assert!(
        !drained.is_empty(),
        "the late thread's messages were queued"
    );
    assert_eq!(drained, dequeued, "drained messages follow the replay");
    let TraceEvent::AgentActivationEnd { msgs, .. } = end.event else {
        unreachable!()
    };
    assert_eq!(msgs as usize, drained.len());

    // Busy time: the scan (up to ReconstructDone), then one dequeue per
    // drained message; the probe itself charges nothing. Charges scale
    // alike when the agent's SMT sibling is busy.
    let costs = &s.kernel.state.costs;
    let scan = costs.reconstruction_scan(threads.len() as u64);
    let scan_busy = records[done].ts - begin.ts;
    let smt = scan_busy != scan;
    assert!(!smt || scan_busy == costs.smt_scaled(scan), "scan cost");
    let dequeue = if smt {
        costs.smt_scaled(costs.msg_dequeue)
    } else {
        costs.msg_dequeue
    };
    assert_eq!(end.ts - records[done].ts, dequeue * drained.len() as u64);
}

#[test]
fn standby_failover_recovers_within_slo() {
    let standby = ghost_core::StandbyConfig::default();
    let sink = TraceSink::recording(1, 1 << 17);
    let mut s = centralized_setup_traced(
        Topology::test_small(4),
        3,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
        sink.clone(),
    );
    s.enclave
        .set_standby(standby, || Box::new(FifoPolicy::default()));
    s.kernel.run_until(20 * MILLIS);
    let global = s.enclave.global_agent().expect("global agent");
    s.kernel.kill(global);
    s.kernel.run_until(60 * MILLIS);
    let stats = s.runtime.stats();
    assert!(s.enclave.alive(), "enclave survives crash");
    assert_eq!(stats.respawns, 1, "one standby respawn");
    assert_eq!(stats.recoveries, 1, "recovery completed");
    assert_eq!(stats.reconstructions, 1);
    assert_eq!(stats.fallbacks, 0, "degraded mode is not a fallback");
    // Every managed thread is back under ghOSt.
    for &t in &s.threads {
        assert_ne!(s.kernel.state.thread(t).class, CLASS_CFS);
    }
    // And still makes progress under the respawned agent.
    let before = s.completions.lock().unwrap()[&s.threads[0]];
    s.kernel.run_until(160 * MILLIS);
    assert!(s.completions.lock().unwrap()[&s.threads[0]] > before + 50);

    // The trace proves the bound: crash → reconstruction-done within the
    // recovery SLO, with every thread reclaimed in between.
    let records = sink.snapshot();
    let start = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::RecoveryStart { .. }))
        .map(|r| r.ts)
        .expect("recovery start traced");
    let done = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::ReconstructDone { .. }))
        .map(|r| r.ts)
        .expect("reconstruction traced");
    assert!(
        done >= start && done - start <= standby.recovery_slo,
        "recovery took {} ns, SLO is {} ns",
        done - start,
        standby.recovery_slo
    );
    let reclaimed = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::ThreadReclaimed { .. }))
        .count();
    assert_eq!(reclaimed, s.threads.len(), "every thread reclaimed");
    check::assert_clean(&records);
}

#[test]
fn respawn_exhaustion_destroys_enclave() {
    let standby = ghost_core::StandbyConfig::default();
    let mut s = centralized_setup(
        Topology::test_small(4),
        2,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
    );
    s.enclave
        .set_standby(standby, || Box::new(FifoPolicy::default()));
    s.kernel.run_until(20 * MILLIS);
    // Keep killing whichever agent is in charge: the respawn budget is
    // finite, so the enclave is eventually torn down for good.
    for round in 0..=standby.max_respawns {
        let global = s
            .enclave
            .global_agent()
            .unwrap_or_else(|| panic!("agent alive before crash {round}"));
        s.kernel.kill(global);
        s.kernel.run_until(s.kernel.state.now + 20 * MILLIS);
    }
    let stats = s.runtime.stats();
    assert_eq!(stats.respawns, standby.max_respawns as u64);
    assert!(!s.enclave.alive(), "budget exhausted");
    assert!(stats.fallbacks >= 1, "final crash is a CFS fallback");
    for &t in &s.threads {
        assert_eq!(s.kernel.state.thread(t).class, CLASS_CFS);
    }
    // CFS keeps the workload alive after the enclave is gone.
    let before = s.completions.lock().unwrap()[&s.threads[0]];
    s.kernel.run_until(s.kernel.state.now + 100 * MILLIS);
    assert!(s.completions.lock().unwrap()[&s.threads[0]] > before);
}

#[test]
fn per_cpu_agent_crash_falls_back_only_its_own_threads() {
    let mut s = centralized_setup(
        Topology::test_small(4),
        3,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::per_cpu("test"),
        Box::new(FifoPolicy::default()),
    );
    s.kernel.run_until(20 * MILLIS);
    // The test policy never re-associates queues, so all threads ride the
    // default queue owned by the first CPU's agent. Killing a *different*
    // CPU's agent must not take the whole enclave down, and no thread is
    // routed through the dead queue, so none leave ghOSt.
    let bystander = s.enclave.agent_on(CpuId(2)).expect("agent on cpu 2");
    s.kernel.kill(bystander);
    s.kernel.run_until(60 * MILLIS);
    let stats = s.runtime.stats();
    assert!(s.enclave.alive(), "peer agents keep the enclave alive");
    assert_eq!(stats.fallbacks, 1, "per-CPU crash is a scoped fallback");
    for &t in &s.threads {
        assert_ne!(
            s.kernel.state.thread(t).class,
            CLASS_CFS,
            "threads of surviving queues stay in ghOSt"
        );
    }
    let before = s.completions.lock().unwrap()[&s.threads[0]];
    s.kernel.run_until(120 * MILLIS);
    assert!(s.completions.lock().unwrap()[&s.threads[0]] > before);
}

#[test]
fn per_cpu_default_queue_owner_crash_sheds_its_threads() {
    let mut s = centralized_setup(
        Topology::test_small(4),
        3,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::per_cpu("test"),
        Box::new(FifoPolicy::default()),
    );
    s.kernel.run_until(20 * MILLIS);
    // All threads ride the default queue, owned by the first CPU's agent:
    // killing it sheds exactly those threads to CFS — but the enclave
    // itself survives on its remaining agents.
    let owner = s.enclave.agent_on(CpuId(1)).expect("agent on cpu 1");
    s.kernel.kill(owner);
    s.kernel.run_until(60 * MILLIS);
    let stats = s.runtime.stats();
    assert!(s.enclave.alive());
    assert_eq!(stats.fallbacks, 1);
    for &t in &s.threads {
        assert_eq!(s.kernel.state.thread(t).class, CLASS_CFS);
    }
    let before = s.completions.lock().unwrap()[&s.threads[0]];
    s.kernel.run_until(120 * MILLIS);
    assert!(s.completions.lock().unwrap()[&s.threads[0]] > before);
}

#[test]
fn centralized_non_global_agent_crash_keeps_enclave() {
    let mut s = centralized_setup(
        Topology::test_small(4),
        3,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
    );
    s.kernel.run_until(20 * MILLIS);
    let global = s.enclave.global_agent().expect("global agent");
    let satellite = s
        .enclave
        .agent_tids()
        .into_iter()
        .find(|&t| t != global)
        .expect("inactive satellite agent");
    s.kernel.kill(satellite);
    s.kernel.run_until(60 * MILLIS);
    let stats = s.runtime.stats();
    assert!(
        s.enclave.alive(),
        "losing an inactive satellite is not fatal"
    );
    assert_eq!(stats.fallbacks, 0);
    assert_eq!(stats.enclave_destroys, 0);
    for &t in &s.threads {
        assert_ne!(s.kernel.state.thread(t).class, CLASS_CFS);
    }
    let before = s.completions.lock().unwrap()[&s.threads[0]];
    s.kernel.run_until(120 * MILLIS);
    assert!(s.completions.lock().unwrap()[&s.threads[0]] > before);
}

/// An app that reads runtime stats from inside the event loop — the one
/// thing the DES forbids.
struct StatsProbe(GhostRuntime);

impl App for StatsProbe {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "stats-probe"
    }

    fn on_timer(&mut self, _key: u64, _k: &mut KernelState) {
        let _ = self.0.stats();
    }

    fn on_segment_end(&mut self, _tid: Tid, _k: &mut KernelState) -> Next {
        Next::Block
    }
}

/// While `Kernel::run_until` runs, the installed ghOSt class holds the
/// runtime's state and its hooks never reach the shared cell, so a handle
/// call from inside the run finds the cell empty.
#[test]
#[should_panic(expected = "checked out by a running kernel")]
fn handle_call_inside_a_run_panics() {
    let mut s = centralized_setup(
        Topology::test_small(2),
        2,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
    );
    let probe = s.kernel.add_app(Box::new(StatsProbe(s.runtime.clone())));
    s.kernel.state.arm_app_timer(MILLIS, probe, 0);
    s.kernel.run_until(5 * MILLIS);
}

fn traced_fifo(trace: TraceSink) -> Setup {
    centralized_setup_traced(
        Topology::test_small(2),
        3,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
        trace,
    )
}

/// `Kernel::run_until` checks the trace recorder out for the run and back
/// in after it, so a handle reading between slices sees what a handle
/// reading only at the end sees: the records emitted by setup before any
/// run, the same survivors in the same `seq` order, and the same drops.
#[test]
fn trace_reads_between_runs_match_a_trace_read_only_at_the_end() {
    // Rings big enough to keep every record, then small enough to wrap.
    for capacity in [1 << 16, 64] {
        let (sliced_sink, whole_sink) = (
            TraceSink::recording(4, capacity),
            TraceSink::recording(4, capacity),
        );
        let mut sliced = traced_fifo(sliced_sink.clone());
        let mut whole = traced_fifo(whole_sink.clone());
        let setup = sliced_sink.snapshot();
        assert!(!setup.is_empty(), "setup emits before any run");
        assert_eq!(setup, whole_sink.snapshot());
        let mut last_seq = None;
        for slice in 1..=10 {
            sliced.kernel.run_until(slice * 2 * MILLIS);
            let records = sliced_sink.snapshot();
            assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
            assert!(
                records.last().map(|r| r.seq) > last_seq,
                "slice {slice} recorded"
            );
            last_seq = records.last().map(|r| r.seq);
        }
        whole.kernel.run_until(20 * MILLIS);
        let end = whole_sink.snapshot();
        assert_eq!(sliced_sink.snapshot(), end, "capacity {capacity}");
        assert_eq!(sliced_sink.dropped(), whole_sink.dropped());
        if capacity == 64 {
            assert!(whole_sink.dropped() > 0, "the small rings wrapped");
        } else {
            assert_eq!(whole_sink.dropped(), 0);
            assert_eq!(end[..setup.len()], setup[..], "setup records survive");
        }
    }
}

/// Reads the trace through a shared handle from inside a run.
struct TraceProbe(TraceSink);

impl App for TraceProbe {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "trace-probe"
    }

    fn on_timer(&mut self, _key: u64, _k: &mut KernelState) {
        let _ = self.0.snapshot();
    }

    fn on_segment_end(&mut self, _tid: Tid, _k: &mut KernelState) -> Next {
        Next::Block
    }
}

/// Inside a run the kernel holds the recorder, so a shared handle finds
/// its cell empty and panics instead of reading an empty trace.
#[test]
#[should_panic(expected = "trace recorder is checked out by a running kernel")]
fn trace_read_inside_a_run_panics() {
    let sink = TraceSink::recording(4, 1 << 12);
    let mut s = traced_fifo(sink.clone());
    let probe = s.kernel.add_app(Box::new(TraceProbe(sink)));
    s.kernel.state.arm_app_timer(MILLIS, probe, 0);
    s.kernel.run_until(5 * MILLIS);
}

/// Hooks fired by setup code outside any run (spawn, settle, wake) take
/// the lock and work; the run that follows schedules what they set up.
#[test]
fn setup_hooks_work_before_any_run() {
    let mut kernel = Kernel::new(Topology::test_small(2), KernelConfig::default());
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let cpus: CpuSet = (1..4u16).map(CpuId).collect();
    let config = EnclaveConfig::centralized("test");
    let enclave =
        runtime.launch_enclave(&mut kernel, cpus, config, Box::new(FifoPolicy::default()));
    assert_eq!(enclave.agent_tids().len(), 3);
    assert!(enclave.global_agent().is_some());
    let tid = kernel.spawn(ThreadSpec::workload("w", &kernel.state.topo));
    enclave.attach_thread(&mut kernel.state, tid);
    kernel.settle();
    assert_eq!(runtime.stats().posted(MsgType::ThreadCreated), 1);
    kernel.assign_and_wake(tid, 100 * MICROS);
    assert_eq!(runtime.stats().posted(MsgType::ThreadWakeup), 1);
    assert_eq!(kernel.now(), 0, "no run yet");
    kernel.run_until(5 * MILLIS);
    let t = kernel.state.thread(tid);
    assert_eq!(t.state, ThreadState::Blocked);
    assert!(t.total_oncpu >= 100 * MICROS, "the woken thread ran");
    assert!(runtime.stats().txns_committed >= 1);
}

/// ghost-lab runs fully wired kernels on worker threads.
#[test]
fn wired_kernel_runs_on_another_thread() {
    fn assert_send<T: Send>(_: &T) {}
    let s = centralized_setup(
        Topology::test_small(2),
        2,
        100 * MICROS,
        MILLIS,
        EnclaveConfig::centralized("test"),
        Box::new(FifoPolicy::default()),
    );
    assert_send(&s.kernel);
    let mut kernel = s.kernel;
    let kernel = std::thread::spawn(move || {
        kernel.run_until(10 * MILLIS);
        kernel
    })
    .join()
    .expect("worker thread");
    assert_eq!(kernel.now(), 10 * MILLIS);
    assert!(s.runtime.stats().txns_committed > 0);
}
