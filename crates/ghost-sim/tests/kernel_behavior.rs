//! Behavioural tests of the kernel simulator: lifecycle, fairness,
//! class-priority preemption, SMT contention, and accounting.

use ghost_sim::app::{App, AppId, Next};
use ghost_sim::cpu::CpuRunState;
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, ThreadSpec};
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::{MILLIS, SECS};
use ghost_sim::topology::Topology;
use ghost_sim::{CpuSet, CLASS_RT};
use std::collections::HashMap;

/// An app whose threads run fixed-length segments in a loop, either
/// blocking between segments (woken by a timer) or spinning forever.
struct LoopApp {
    /// Per-thread: (segment length, rearm period; 0 = run continuously).
    conf: HashMap<Tid, (u64, u64)>,
    completions: HashMap<Tid, u64>,
}

impl LoopApp {
    fn new() -> Self {
        Self {
            conf: HashMap::new(),
            completions: HashMap::new(),
        }
    }
}

impl App for LoopApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "loop"
    }

    fn on_timer(&mut self, key: u64, k: &mut KernelState) {
        // Timer key is the tid to wake.
        let tid = Tid(key as u32);
        let (seg, period) = self.conf[&tid];
        k.thread_mut(tid).remaining = seg;
        k.wake(tid);
        if period > 0 {
            let app = k.thread(tid).app.expect("loop thread has app");
            k.arm_app_timer(k.now + period, app, key);
        }
    }

    fn on_segment_end(&mut self, tid: Tid, _k: &mut KernelState) -> Next {
        *self.completions.entry(tid).or_insert(0) += 1;
        let (seg, period) = self.conf[&tid];
        if period == 0 {
            Next::Run { dur: seg }
        } else {
            Next::Block
        }
    }
}

fn spin_forever(kernel: &mut Kernel, app: AppId, name: &str, nice: i8) -> Tid {
    let spec = ThreadSpec::workload(name, &kernel.state.topo)
        .app(app)
        .nice(nice);
    kernel.spawn(spec)
}

#[test]
fn single_thread_runs_and_blocks() {
    let mut kernel = Kernel::new(Topology::test_small(1), KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let mut app = LoopApp::new();
    let t = spin_forever(&mut kernel, app_id, "worker", 0);
    app.conf.insert(t, (100_000, MILLIS)); // 100 µs every 1 ms.
    let app_id2 = kernel.add_app(Box::new(app));
    assert_eq!(app_id, app_id2);
    kernel.state.arm_app_timer(0, app_id, t.0 as u64);
    // Run past the last wakeup so the final 100 µs segment completes.
    kernel.run_until(10 * MILLIS + 500_000);
    // ~10 wakeups, each completing one 100 µs segment.
    let th = kernel.state.thread(t);
    assert_eq!(th.state, ThreadState::Blocked);
    assert!(th.total_work >= 9 * 100_000, "work = {}", th.total_work);
    // On-CPU wall time at least the work done (rate <= 1).
    assert!(th.total_oncpu >= th.total_work);
}

#[test]
fn cfs_shares_cpu_between_equal_threads() {
    let mut kernel = Kernel::new(Topology::new("uni", 1, 1, 1, 1), KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let mut app = LoopApp::new();
    let a = spin_forever(&mut kernel, app_id, "a", 0);
    let b = spin_forever(&mut kernel, app_id, "b", 0);
    app.conf.insert(a, (10 * MILLIS, 0));
    app.conf.insert(b, (10 * MILLIS, 0));
    kernel.add_app(Box::new(app));
    kernel.assign_and_wake(a, 10 * MILLIS);
    kernel.assign_and_wake(b, 10 * MILLIS);
    kernel.run_until(SECS);
    let wa = kernel.state.thread(a).total_oncpu as f64;
    let wb = kernel.state.thread(b).total_oncpu as f64;
    let ratio = wa / wb;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "CFS should split the CPU evenly, got {wa} vs {wb}"
    );
}

#[test]
fn cfs_nice_weighting_biases_cpu_time() {
    let mut kernel = Kernel::new(Topology::new("uni", 1, 1, 1, 1), KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let mut app = LoopApp::new();
    let hi = spin_forever(&mut kernel, app_id, "hi", -5);
    let lo = spin_forever(&mut kernel, app_id, "lo", 5);
    app.conf.insert(hi, (10 * MILLIS, 0));
    app.conf.insert(lo, (10 * MILLIS, 0));
    kernel.add_app(Box::new(app));
    kernel.assign_and_wake(hi, 10 * MILLIS);
    kernel.assign_and_wake(lo, 10 * MILLIS);
    kernel.run_until(2 * SECS);
    let whi = kernel.state.thread(hi).total_oncpu as f64;
    let wlo = kernel.state.thread(lo).total_oncpu as f64;
    // Weight ratio nice −5 : 5 = 3121:335 ≈ 9.3; slicing granularity
    // compresses it, but the bias must be strong.
    assert!(
        whi / wlo > 4.0,
        "nice -5 should dominate nice 5: {whi} vs {wlo}"
    );
}

#[test]
fn rt_class_preempts_cfs() {
    let mut kernel = Kernel::new(Topology::new("uni", 1, 1, 1, 1), KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let mut app = LoopApp::new();
    let cfs = spin_forever(&mut kernel, app_id, "cfs", 0);
    let rt = kernel.spawn(
        ThreadSpec::workload("rt", &kernel.state.topo)
            .app(app_id)
            .class(CLASS_RT),
    );
    app.conf.insert(cfs, (10 * MILLIS, 0));
    app.conf.insert(rt, (MILLIS, 5 * MILLIS));
    kernel.add_app(Box::new(app));
    kernel.assign_and_wake(cfs, 10 * MILLIS);
    kernel.state.arm_app_timer(10 * MILLIS, app_id, rt.0 as u64);
    kernel.run_until(100 * MILLIS);
    let rt_thread = kernel.state.thread(rt);
    // The RT thread ran every period despite the CFS hog: ~18 completions.
    assert!(
        rt_thread.total_work >= 15 * MILLIS,
        "RT starved: {}",
        rt_thread.total_work
    );
    // And the CFS thread was preempted at least once per RT wakeup.
    assert!(kernel.state.thread(cfs).preemptions >= 10);
}

#[test]
fn blocked_wakeup_prefers_idle_cpu() {
    let mut kernel = Kernel::new(Topology::test_small(2), KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let mut app = LoopApp::new();
    let hog = spin_forever(&mut kernel, app_id, "hog", 0);
    let waker = spin_forever(&mut kernel, app_id, "waker", 0);
    app.conf.insert(hog, (10 * MILLIS, 0));
    app.conf.insert(waker, (100_000, MILLIS));
    kernel.add_app(Box::new(app));
    kernel.assign_and_wake(hog, 10 * MILLIS);
    kernel.run_until(MILLIS);
    kernel.state.arm_app_timer(MILLIS, app_id, waker.0 as u64);
    kernel.run_until(50 * MILLIS);
    // With 4 logical CPUs and one hog, the waker never waits long.
    let w = kernel.state.thread(waker);
    assert!(w.total_work >= 40 * 100_000);
    let avg_wait = w.total_wait / 49;
    assert!(avg_wait < 10_000, "avg wakeup wait {avg_wait} ns too high");
}

#[test]
fn smt_siblings_run_slower() {
    // 1 physical core with 2 hyperthreads; two spinners must share the
    // core pipeline at the configured 0.65 rate each.
    let mut kernel = Kernel::new(Topology::new("smt", 1, 1, 2, 1), KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let mut app = LoopApp::new();
    let a = spin_forever(&mut kernel, app_id, "a", 0);
    let b = spin_forever(&mut kernel, app_id, "b", 0);
    app.conf.insert(a, (10 * MILLIS, 0));
    app.conf.insert(b, (10 * MILLIS, 0));
    kernel.add_app(Box::new(app));
    kernel.assign_and_wake(a, 10 * MILLIS);
    kernel.assign_and_wake(b, 10 * MILLIS);
    kernel.run_until(SECS);
    for t in [a, b] {
        let th = kernel.state.thread(t);
        let rate = th.total_work as f64 / th.total_oncpu as f64;
        assert!(
            (0.6..0.72).contains(&rate),
            "SMT rate should be ~0.65, got {rate}"
        );
    }
}

#[test]
fn smt_model_can_be_disabled() {
    let cfg = KernelConfig {
        smt_model: false,
        ..KernelConfig::default()
    };
    let mut kernel = Kernel::new(Topology::new("smt", 1, 1, 2, 1), cfg);
    let app_id = kernel.state.next_app_id();
    let mut app = LoopApp::new();
    let a = spin_forever(&mut kernel, app_id, "a", 0);
    let b = spin_forever(&mut kernel, app_id, "b", 0);
    app.conf.insert(a, (10 * MILLIS, 0));
    app.conf.insert(b, (10 * MILLIS, 0));
    kernel.add_app(Box::new(app));
    kernel.assign_and_wake(a, 10 * MILLIS);
    kernel.assign_and_wake(b, 10 * MILLIS);
    kernel.run_until(100 * MILLIS);
    let th = kernel.state.thread(a);
    let rate = th.total_work as f64 / th.total_oncpu as f64;
    assert!(
        rate > 0.99,
        "rate without SMT model should be 1.0, got {rate}"
    );
}

#[test]
fn load_spreads_across_cpus() {
    let mut kernel = Kernel::new(Topology::test_small(4), KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let mut app = LoopApp::new();
    let mut tids = Vec::new();
    for i in 0..8 {
        let t = spin_forever(&mut kernel, app_id, &format!("w{i}"), 0);
        app.conf.insert(t, (10 * MILLIS, 0));
        tids.push(t);
    }
    kernel.add_app(Box::new(app));
    for &t in &tids {
        kernel.assign_and_wake(t, 10 * MILLIS);
    }
    kernel.run_until(SECS);
    // 8 spinners on 8 logical CPUs: everyone should get a full CPU's
    // worth of wall time (modulo switches).
    for &t in &tids {
        let th = kernel.state.thread(t);
        assert!(
            th.total_oncpu > 900 * MILLIS,
            "{t}: oncpu {}",
            th.total_oncpu
        );
    }
}

#[test]
fn affinity_restricts_placement() {
    let mut kernel = Kernel::new(Topology::test_small(2), KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let mut app = LoopApp::new();
    let mask = CpuSet::from_iter([ghost_sim::topology::CpuId(1)]);
    let t = kernel.spawn(
        ThreadSpec::workload("pinned", &kernel.state.topo)
            .app(app_id)
            .affinity(mask),
    );
    app.conf.insert(t, (MILLIS, 0));
    kernel.add_app(Box::new(app));
    kernel.assign_and_wake(t, MILLIS);
    kernel.run_until(100 * MILLIS);
    let th = kernel.state.thread(t);
    assert_eq!(th.last_cpu, Some(ghost_sim::topology::CpuId(1)));
    assert_eq!(th.migrations, 0);
}

#[test]
fn exit_terminates_thread() {
    struct OneShot;
    impl App for OneShot {
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn name(&self) -> &str {
            "oneshot"
        }
        fn on_timer(&mut self, _key: u64, _k: &mut KernelState) {}
        fn on_segment_end(&mut self, _tid: Tid, _k: &mut KernelState) -> Next {
            Next::Exit
        }
    }
    let mut kernel = Kernel::new(Topology::test_small(1), KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let t = kernel.spawn(ThreadSpec::workload("dying", &kernel.state.topo).app(app_id));
    kernel.add_app(Box::new(OneShot));
    kernel.assign_and_wake(t, MILLIS);
    kernel.run_until(10 * MILLIS);
    assert_eq!(kernel.state.thread(t).state, ThreadState::Dead);
    // Waking a dead thread is a no-op.
    kernel.wake_now(t);
    assert_eq!(kernel.state.thread(t).state, ThreadState::Dead);
}

#[test]
fn kill_removes_running_thread() {
    let mut kernel = Kernel::new(Topology::new("uni", 1, 1, 1, 1), KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let mut app = LoopApp::new();
    let t = spin_forever(&mut kernel, app_id, "victim", 0);
    app.conf.insert(t, (10 * MILLIS, 0));
    kernel.add_app(Box::new(app));
    kernel.assign_and_wake(t, 10 * MILLIS);
    kernel.run_until(5 * MILLIS);
    assert_eq!(kernel.state.thread(t).state, ThreadState::Running);
    kernel.kill(t);
    assert_eq!(kernel.state.thread(t).state, ThreadState::Dead);
    assert!(
        kernel.state.cpu(ghost_sim::topology::CpuId(0)).is_idle() || {
            // The CPU may be mid-switch to idle; settle by running on.
            kernel.run_until(6 * MILLIS);
            kernel.state.cpu(ghost_sim::topology::CpuId(0)).is_idle()
        }
    );
}

/// A kill that lands while the victim's CPU is switching to it: the
/// thread is picked and on no runqueue, so the switch must be cancelled,
/// or it lands and runs a dead thread.
#[test]
fn kill_mid_switch_cancels_the_switch() {
    let mut kernel = Kernel::new(Topology::new("uni", 1, 1, 1, 1), KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let mut app = LoopApp::new();
    let victim = spin_forever(&mut kernel, app_id, "victim", 0);
    let next = spin_forever(&mut kernel, app_id, "next", 0);
    app.conf.insert(victim, (MILLIS, 0));
    app.conf.insert(next, (MILLIS, 0));
    kernel.add_app(Box::new(app));
    let cpu = ghost_sim::topology::CpuId(0);
    kernel.assign_and_wake(victim, MILLIS);
    assert_eq!(kernel.state.cpu(cpu).run_state, CpuRunState::Switching);
    assert_eq!(kernel.state.cpu(cpu).current, Some(victim));
    kernel.kill(victim);
    kernel.run_until(MILLIS / 2);
    let t = kernel.state.thread(victim);
    assert_eq!(t.state, ThreadState::Dead);
    assert_eq!((t.stint, t.total_oncpu), (0, 0), "the dead thread ran");
    assert_ne!(kernel.state.cpu(cpu).current, Some(victim));
    // The CPU is free for the next thread.
    kernel.assign_and_wake(next, MILLIS);
    kernel.run_until(MILLIS);
    assert_eq!(kernel.state.thread(next).state, ThreadState::Running);
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = || {
        let mut kernel = Kernel::new(Topology::test_small(2), KernelConfig::default());
        let app_id = kernel.state.next_app_id();
        let mut app = LoopApp::new();
        let mut tids = Vec::new();
        for i in 0..5 {
            let t = spin_forever(&mut kernel, app_id, &format!("w{i}"), 0);
            app.conf
                .insert(t, (500_000 + i * 100_000, MILLIS * (i + 1)));
            tids.push(t);
        }
        kernel.add_app(Box::new(app));
        for (i, &t) in tids.iter().enumerate() {
            kernel
                .state
                .arm_app_timer(i as u64 * 100_000, app_id, t.0 as u64);
        }
        kernel.run_until(200 * MILLIS);
        (
            kernel.state.stats.ctx_switches,
            kernel.state.stats.events,
            tids.iter()
                .map(|&t| kernel.state.thread(t).total_work)
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn wait_time_is_accounted() {
    // Two CFS spinners on one CPU: each waits roughly half the time.
    let mut kernel = Kernel::new(Topology::new("uni", 1, 1, 1, 1), KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let mut app = LoopApp::new();
    let a = spin_forever(&mut kernel, app_id, "a", 0);
    let b = spin_forever(&mut kernel, app_id, "b", 0);
    app.conf.insert(a, (10 * MILLIS, 0));
    app.conf.insert(b, (10 * MILLIS, 0));
    kernel.add_app(Box::new(app));
    kernel.assign_and_wake(a, 10 * MILLIS);
    kernel.assign_and_wake(b, 10 * MILLIS);
    kernel.run_until(SECS);
    let wait = kernel.state.thread(a).total_wait + kernel.state.thread(b).total_wait;
    assert!(
        wait > 800 * MILLIS,
        "combined wait should be ~1 s of contention, got {wait}"
    );
}

#[test]
fn cfs_spreads_across_idle_cores_before_smt() {
    // 4 cores / 8 CPUs, 4 spinners: with idle cores available, CFS must
    // not pack SMT siblings (Linux's select_idle_core behaviour).
    let mut kernel = Kernel::new(Topology::test_small(4), KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let mut app = LoopApp::new();
    let mut tids = Vec::new();
    for i in 0..4 {
        let t = spin_forever(&mut kernel, app_id, &format!("w{i}"), 0);
        app.conf.insert(t, (10 * MILLIS, 0));
        tids.push(t);
    }
    kernel.add_app(Box::new(app));
    for &t in &tids {
        kernel.assign_and_wake(t, 10 * MILLIS);
    }
    kernel.run_until(20 * MILLIS);
    let mut cores: Vec<u16> = tids
        .iter()
        .map(|&t| {
            let cpu = kernel.state.thread(t).cpu.expect("spinner on CPU");
            kernel.state.topo.info(cpu).core
        })
        .collect();
    cores.sort_unstable();
    cores.dedup();
    assert_eq!(cores.len(), 4, "each spinner should own a whole core");
    // And every spinner runs at full (non-SMT) rate.
    for &t in &tids {
        let th = kernel.state.thread(t);
        let rate = th.total_work as f64 / th.total_oncpu as f64;
        assert!(rate > 0.95, "{t}: SMT-degraded rate {rate}");
    }
}

#[test]
fn cfs_wakeup_placement_is_llc_local() {
    // Rome topology: a thread whose previous CPU sits in a fully busy CCX
    // queues there rather than jumping across the machine on wakeup
    // (select_idle_sibling semantics); the periodic balancer migrates it
    // only at millisecond granularity.
    let mut kernel = Kernel::new(Topology::rome_256(), KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let mut app = LoopApp::new();
    // Pin 8 hogs onto CCX 0 (cpus 0..4 and 128..132 are its 8 CPUs).
    let ccx0 = kernel.state.topo.ccx_cpus(0);
    let mut hogs = Vec::new();
    for i in 0..8 {
        let t = kernel.spawn(
            ThreadSpec::workload(&format!("hog{i}"), &kernel.state.topo)
                .app(app_id)
                .affinity(ccx0),
        );
        app.conf.insert(t, (100 * MILLIS, 0));
        hogs.push(t);
    }
    // The wanderer first runs (and blocks) inside CCX 0, so its wakeup
    // LLC is CCX 0; afterwards its affinity is widened to the machine.
    let wanderer = kernel.spawn(
        ThreadSpec::workload("wanderer", &kernel.state.topo)
            .app(app_id)
            .affinity(ccx0),
    );
    // Nonzero period makes LoopApp block after each segment (the timer
    // is simply never armed for this thread).
    app.conf.insert(wanderer, (200_000, MILLIS));
    kernel.add_app(Box::new(app));
    kernel.assign_and_wake(wanderer, 200_000);
    kernel.run_until(MILLIS); // Runs 200 µs in CCX 0, then blocks.
    assert_eq!(kernel.state.thread(wanderer).state, ThreadState::Blocked);
    assert!(ccx0.contains(kernel.state.thread(wanderer).last_cpu.expect("ran")));
    kernel
        .state
        .set_affinity(wanderer, kernel.state.topo.all_cpus_set());
    for &h in &hogs {
        kernel.assign_and_wake(h, 100 * MILLIS);
    }
    kernel.run_until(2 * MILLIS);
    // Wake the wanderer: its LLC is saturated, so it must QUEUE there
    // (not instantly appear on a remote CCX).
    kernel.state.thread_mut(wanderer).remaining = 200_000;
    kernel.wake_now(wanderer);
    kernel.run_until(2 * MILLIS + 100_000);
    // (No balancer pass has happened yet at +100 µs.)
    let th = kernel.state.thread(wanderer);
    assert_ne!(
        th.state,
        ThreadState::Running,
        "wakeup should have queued in the busy LLC, not jumped sockets"
    );
}
