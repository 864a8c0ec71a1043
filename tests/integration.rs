//! Cross-crate integration tests through the `ghost` facade: full
//! machine + runtime + policy + workload stacks, shrunk to run quickly in
//! debug builds. The full-scale paper reproductions live in
//! `crates/ghost-bench/benches/`.

use ghost::baselines::microquanta::{MicroQuanta, MicroQuantaConfig};
use ghost::core::enclave::EnclaveConfig;
use ghost::core::runtime::GhostRuntime;
use ghost::policies::shinjuku::{ShinjukuConfig, ShinjukuPolicy};
use ghost::policies::snap::SNAP_COOKIE;
use ghost::policies::{CentralizedFifo, PerCpuPolicy, SnapPolicy};
use ghost::sim::kernel::{Kernel, KernelConfig, ThreadSpec};
use ghost::sim::thread::ThreadState;
use ghost::sim::time::{MICROS, MILLIS, SECS};
use ghost::sim::topology::{CpuId, Topology};
use ghost::sim::{CpuSet, CLASS_RT};
use ghost::trace::TraceSink;
use ghost::workloads::rocksdb::{RocksDbApp, RocksDbConfig};
use ghost::workloads::snap::{SnapApp, SnapConfig};
use ghost::workloads::vm::{VmApp, VmConfig};

/// The preemptive Shinjuku policy must beat non-preemptive CFS serving
/// on p99 under a dispersive load near saturation — the heart of Fig. 6a
/// (the full sweep lives in benches/fig6_shinjuku.rs; CFS collapses
/// around 70% of capacity while ghOSt holds double-digit microseconds).
#[test]
fn shinjuku_policy_beats_cfs_on_dispersive_tail() {
    let horizon = 200 * MILLIS;
    let serve = |use_ghost: bool, trace: TraceSink| {
        let mut kernel = Kernel::new(
            Topology::e5_single_socket_24(),
            KernelConfig {
                trace,
                ..KernelConfig::default()
            },
        );
        let mut cfg = RocksDbConfig::dispersive(250_000.0, 5);
        cfg.warmup = 50 * MILLIS;
        let app_id = kernel.state.next_app_id();
        let mut app = RocksDbApp::new(cfg, app_id, horizon);
        let mut tids = Vec::new();
        for i in 0..200 {
            let tid = kernel
                .spawn(ThreadSpec::workload(&format!("w{i}"), &kernel.state.topo).app(app_id));
            app.add_worker(tid);
            tids.push(tid);
        }
        app.start(&mut kernel.state);
        kernel.add_app(Box::new(app));
        let cpus: CpuSet = (2..=22u16).map(CpuId).collect();
        if use_ghost {
            let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
            let enclave = runtime.launch_enclave(
                &mut kernel,
                cpus,
                EnclaveConfig::centralized("sj"),
                Box::new(ShinjukuPolicy::new(ShinjukuConfig::default())),
            );
            for &tid in &tids {
                kernel.state.set_affinity(tid, cpus);
                enclave.attach_thread(&mut kernel.state, tid);
            }
        } else {
            for &tid in &tids {
                kernel.state.set_affinity(tid, cpus);
            }
        }
        kernel.run_until(horizon);
        kernel
            .app_mut(app_id)
            .as_any()
            .downcast_mut::<RocksDbApp>()
            .expect("app")
            .results()
    };
    // Record the ghOSt run and replay it through the invariant checker:
    // the Fig. 6 scenario must produce a clean trace end to end. One
    // merged ring (records keep their own cpu field): the centralized
    // agent's CPU dominates the event volume, so per-CPU rings would
    // need to be sized for the worst ring anyway.
    let sink = TraceSink::recording(1, 1 << 21);
    let ghost = serve(true, sink.clone());
    let cfs = serve(false, TraceSink::Null);
    let records = sink.snapshot();
    assert_eq!(
        sink.dropped(),
        0,
        "trace rings overflowed ({} of {} records lost); the checker needs a lossless stream",
        sink.dropped(),
        records.len()
    );
    ghost::trace::check::assert_clean(&records);
    assert!(ghost.latency.count() > 1_000);
    // At ~70% of capacity the non-preemptive CFS serving collapses into
    // hundreds of microseconds while the 30 µs Shinjuku slice keeps the
    // ghOSt tail double-digit (Fig. 6a's crossover).
    let g99 = ghost.latency.percentile(99.0);
    let c99 = cfs.latency.percentile(99.0);
    assert!(
        g99 * 3 < c99,
        "preemptive ghOSt should beat CFS clearly at p99 near saturation:          ghOSt {g99} vs CFS {c99}"
    );
}

/// Per-CPU model end to end: local agents with Aseq-guarded local
/// commits schedule threads on their own CPUs.
#[test]
fn per_cpu_policy_schedules_locally() {
    let ghost::lab::GhostSim {
        mut kernel,
        runtime,
        enclave,
        ..
    } = ghost::lab::Scenario::builder()
        .name("percpu")
        .cpus(4)
        .enclave_cpus(0..4)
        .build_with(
            EnclaveConfig::per_cpu("percpu"),
            Box::new(PerCpuPolicy::new()),
        );
    let app_id = kernel.state.next_app_id();
    let mut tids = Vec::new();
    for i in 0..4 {
        let tid =
            kernel.spawn(ThreadSpec::workload(&format!("w{i}"), &kernel.state.topo).app(app_id));
        tids.push(tid);
    }
    kernel.add_app(Box::new(PulseApp::new(200 * MICROS, 2 * MILLIS)));
    for (i, &tid) in tids.iter().enumerate() {
        enclave.attach_thread(&mut kernel.state, tid);
        kernel
            .state
            .arm_app_timer((i as u64 + 1) * 100 * MICROS, app_id, tid.0 as u64);
    }
    kernel.run_until(100 * MILLIS);
    let stats = runtime.stats();
    assert!(
        stats.txns_committed >= 150,
        "commits: {}",
        stats.txns_committed
    );
    for &tid in &tids {
        assert!(
            kernel.state.thread(tid).total_work >= 8 * MILLIS,
            "thread starved under the per-CPU policy"
        );
    }
}

/// Snap policy vs MicroQuanta: both keep workers responsive; the ghOSt
/// policy must not be grossly worse on the p99 while never starving CFS.
#[test]
fn snap_policy_and_microquanta_both_serve() {
    let horizon = 800 * MILLIS;
    let run = |use_ghost: bool, trace: TraceSink| {
        let mut kernel = Kernel::new(
            Topology::test_small(8),
            KernelConfig {
                trace,
                ..KernelConfig::default()
            },
        );
        if !use_ghost {
            let n = kernel.state.topo.num_cpus();
            kernel.install_class(
                CLASS_RT,
                Box::new(MicroQuanta::new(n, MicroQuantaConfig::default())),
            );
        }
        let app_id = kernel.state.next_app_id();
        let cfg = SnapConfig {
            warmup: 100 * MILLIS,
            ..SnapConfig::default()
        };
        let mut app = SnapApp::new(cfg, app_id);
        let mut workers = Vec::new();
        for i in 0..6 {
            let w = kernel.spawn(
                ThreadSpec::workload(&format!("w{i}"), &kernel.state.topo)
                    .app(app_id)
                    .cookie(SNAP_COOKIE),
            );
            let s = kernel
                .spawn(ThreadSpec::workload(&format!("s{i}"), &kernel.state.topo).app(app_id));
            app.add_stream(w, s);
            workers.push(w);
        }
        app.start(&mut kernel.state);
        kernel.add_app(Box::new(app));
        if use_ghost {
            let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
            let cpus = kernel.state.topo.all_cpus_set();
            let enclave = runtime.launch_enclave(
                &mut kernel,
                cpus,
                EnclaveConfig::centralized("snap"),
                Box::new(SnapPolicy::new()),
            );
            for &w in &workers {
                enclave.attach_thread(&mut kernel.state, w);
            }
        } else {
            for &w in &workers {
                kernel.state.move_to_class(w, CLASS_RT);
            }
        }
        kernel.run_until(horizon);
        kernel
            .app_mut(app_id)
            .as_any()
            .downcast_mut::<SnapApp>()
            .expect("app")
            .results()
    };
    // The Fig. 7 scenario must also replay cleanly through the checker
    // (one merged ring; see the Fig. 6 test for why).
    let sink = TraceSink::recording(1, 1 << 20);
    let gh = run(true, sink.clone());
    let mq = run(false, TraceSink::Null);
    let records = sink.snapshot();
    assert_eq!(
        sink.dropped(),
        0,
        "trace rings overflowed ({} of {} records lost); the checker needs a lossless stream",
        sink.dropped(),
        records.len()
    );
    ghost::trace::check::assert_clean(&records);
    assert!(gh.completed > 20_000 && mq.completed > 20_000);
    let g99 = gh.rtt_64kb.percentile(99.0);
    let m99 = mq.rtt_64kb.percentile(99.0);
    assert!(
        (g99 as f64) < (m99 as f64) * 2.0,
        "ghOSt snap p99 {g99} should be in MicroQuanta's league {m99}"
    );
}

/// Core scheduling isolation invariant on a live VM workload: under the
/// ghOSt per-core policy, sibling hyperthreads never run vCPUs of
/// different VMs.
#[test]
fn core_sched_isolation_holds_under_load() {
    use ghost::policies::core_sched::{CoreSchedConfig, CoreSchedPolicy};
    let mut kernel = Kernel::new(Topology::new("vm8", 1, 4, 2, 4), KernelConfig::default());
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let cpus = kernel.state.topo.all_cpus_set();
    let enclave = runtime.launch_enclave(
        &mut kernel,
        cpus,
        EnclaveConfig::per_core("vm").with_ticks(true),
        Box::new(CoreSchedPolicy::new(CoreSchedConfig::default())),
    );
    let app_id = kernel.state.next_app_id();
    let cfg = VmConfig {
        vms: 2,
        vcpus_per_vm: 3,
        work_per_vcpu: 400 * MILLIS,
        ..VmConfig::default()
    };
    let mut app = VmApp::new(cfg, app_id);
    let mut vcpus = Vec::new();
    for vm in 0..2u64 {
        for v in 0..3 {
            let tid = kernel.spawn(
                ThreadSpec::workload(&format!("vm{vm}-{v}"), &kernel.state.topo)
                    .app(app_id)
                    .cookie(vm + 1),
            );
            app.add_vcpu(tid);
            vcpus.push(tid);
        }
    }
    app.start(&mut kernel.state);
    kernel.add_app(Box::new(app));
    for &v in &vcpus {
        enclave.attach_thread(&mut kernel.state, v);
    }
    // Audit at fine grain while the workload runs.
    let mut violations = 0;
    for _ in 0..600 {
        kernel.run_for(MILLIS);
        let k = &kernel.state;
        for cpu in k.topo.all_cpus() {
            let Some(sib) = k.topo.sibling(cpu) else {
                continue;
            };
            if sib < cpu {
                continue;
            }
            let cookie = |c: CpuId| -> Option<u64> {
                let cur = k.cpus[c.index()].current?;
                let t = &k.threads[cur.index()];
                (t.cookie != 0).then_some(t.cookie)
            };
            if let (Some(a), Some(b)) = (cookie(cpu), cookie(sib)) {
                if a != b {
                    violations += 1;
                }
            }
        }
    }
    assert_eq!(violations, 0, "cross-VM SMT co-residency detected");
    // And the workload made real progress under the secure policy.
    let done: u64 = vcpus
        .iter()
        .map(|&v| kernel.state.thread(v).total_work)
        .sum();
    assert!(done > 1_500 * MILLIS, "vCPUs starved: {done}");
}

/// The centralized FIFO keeps a machine of blocking threads busy and the
/// run is deterministic across repeats.
#[test]
fn centralized_fifo_is_deterministic() {
    let run = || {
        let ghost::lab::GhostSim {
            mut kernel,
            runtime,
            enclave,
            ..
        } = ghost::lab::Scenario::builder()
            .name("det")
            .cpus(8)
            .enclave_cpus(1..8)
            .build_with(
                EnclaveConfig::centralized("det"),
                Box::new(CentralizedFifo::new()),
            );
        let app_id = kernel.state.next_app_id();
        let mut tids = Vec::new();
        for i in 0..6 {
            let tid = kernel
                .spawn(ThreadSpec::workload(&format!("w{i}"), &kernel.state.topo).app(app_id));
            tids.push(tid);
        }
        kernel.add_app(Box::new(PulseApp::new(150 * MICROS, MILLIS)));
        for (i, &tid) in tids.iter().enumerate() {
            enclave.attach_thread(&mut kernel.state, tid);
            kernel
                .state
                .arm_app_timer((i as u64 + 1) * 37 * MICROS, app_id, tid.0 as u64);
        }
        kernel.run_until(200 * MILLIS);
        (
            runtime.stats().txns_committed,
            kernel.state.stats.ctx_switches,
            kernel.state.stats.events,
        )
    };
    assert_eq!(run(), run());
}

/// Tracing end to end: identical seeds yield byte-identical Chrome
/// exports, the export parses as JSON with the expected structure, the
/// invariant checker is clean, and the derived-metrics pass agrees with
/// the runtime's own counters.
#[test]
fn trace_export_is_deterministic_valid_json() {
    let run = || {
        let ghost::lab::GhostSim {
            mut kernel,
            runtime,
            enclave,
            sink,
        } = ghost::lab::Scenario::builder()
            .name("trace")
            .cpus(8)
            .trace_capacity(1 << 18)
            .enclave_cpus(1..8)
            .build_with(
                EnclaveConfig::centralized("trace"),
                Box::new(CentralizedFifo::new()),
            );
        let app_id = kernel.state.next_app_id();
        let mut tids = Vec::new();
        for i in 0..5 {
            let tid = kernel
                .spawn(ThreadSpec::workload(&format!("w{i}"), &kernel.state.topo).app(app_id));
            tids.push(tid);
        }
        kernel.add_app(Box::new(PulseApp::new(120 * MICROS, MILLIS)));
        for (i, &tid) in tids.iter().enumerate() {
            enclave.attach_thread(&mut kernel.state, tid);
            kernel
                .state
                .arm_app_timer((i as u64 + 1) * 53 * MICROS, app_id, tid.0 as u64);
        }
        kernel.run_until(40 * MILLIS);
        let records = sink.snapshot();
        assert_eq!(sink.dropped(), 0);
        (
            ghost::trace::chrome::export(&records),
            records,
            runtime.stats(),
        )
    };
    let (json_a, records, stats) = run();
    let (json_b, _, _) = run();
    // Identical RNG seeds and inputs => byte-identical traces.
    assert_eq!(json_a, json_b, "trace export must be deterministic");

    let parsed = ghost::trace::json::parse(&json_a).expect("export must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // The export contains both duration slices ("X") and instants ("i").
    let phase = |want: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(want))
            .count()
    };
    assert!(phase("X") > 0, "no duration slices in export");
    assert!(phase("i") > 0, "no instant events in export");

    ghost::trace::check::assert_clean(&records);

    // The derived-metrics pass must agree with the runtime's counters.
    let tm = ghost::trace::derive::TraceMetrics::from_records(&records);
    assert_eq!(tm.txns_ok, stats.txns_committed);
    assert_eq!(tm.txns_estale, stats.txns_stale);
    assert!(tm.wakeup_to_run.count() > 0);
}

/// Minimal pulse app shared by the integration tests.
struct PulseApp {
    work: u64,
    period: u64,
}

impl PulseApp {
    fn new(work: u64, period: u64) -> Self {
        Self { work, period }
    }
}

impl ghost::sim::App for PulseApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> &str {
        "pulse"
    }
    fn on_timer(&mut self, key: u64, k: &mut ghost::sim::KernelState) {
        let tid = ghost::sim::Tid(key as u32);
        if k.threads[tid.index()].state == ThreadState::Blocked {
            k.thread_mut(tid).remaining = self.work;
            k.wake(tid);
        }
        let app = k.thread(tid).app.expect("app");
        k.arm_app_timer(k.now + self.period, app, key);
    }
    fn on_segment_end(
        &mut self,
        _tid: ghost::sim::Tid,
        _k: &mut ghost::sim::KernelState,
    ) -> ghost::sim::Next {
        ghost::sim::Next::Block
    }
}

/// Regression: Shinjuku+Shenango must not strand an LC worker it moved
/// onto an evicted batch thread's CPU. The eviction loop used to pop the
/// LC FIFO without clearing the worker's queue-membership bit, so the
/// first time such a worker was preempted (or its eviction commit
/// failed) the re-enqueue was taken for a duplicate and dropped: the
/// worker stayed runnable, off-CPU and unqueued for good, and its request
/// never finished.
///
/// A small machine makes that path hot: bursts of LC requests find batch
/// threads on the CPUs (eviction), a fifth of the requests run for many
/// slices (preemption of the evicted-in worker), and the slice is short.
/// Arrivals stop at 30 ms; by 60 ms everything issued must have drained.
#[test]
fn shenango_eviction_strands_no_lc_worker() {
    use ghost::policies::shinjuku_shenango::{ShinjukuShenangoPolicy, BATCH_COOKIE};
    use ghost::workloads::arrivals::ServiceDist;
    use ghost::workloads::batch::BatchApp;

    let (arrivals_end, drained) = (30 * MILLIS, 60 * MILLIS);
    let mut kernel = Kernel::new(Topology::test_small(4), KernelConfig::default());
    let cpus: CpuSet = (1..8u16).map(CpuId).collect();
    let mut cfg = RocksDbConfig::dispersive(120_000.0, 9);
    cfg.processing = ServiceDist::Bimodal {
        short: 4 * MICROS,
        long: 200 * MICROS,
        p_long: 0.2,
    };
    let app_id = kernel.state.next_app_id();
    let mut app = RocksDbApp::new(cfg, app_id, arrivals_end);
    let spawn = |kernel: &mut Kernel, name: String, app, cookie| {
        let spec = ThreadSpec::workload(&name, &kernel.state.topo);
        kernel.spawn(spec.app(app).affinity(cpus).cookie(cookie))
    };
    let workers: Vec<_> = (0..24)
        .map(|i| spawn(&mut kernel, format!("lc{i}"), app_id, 0))
        .collect();
    workers.iter().for_each(|&w| app.add_worker(w));
    app.start(&mut kernel.state);
    kernel.add_app(Box::new(app));
    let batch_id = kernel.state.next_app_id();
    let mut batch = BatchApp::new(batch_id);
    let batch_tids: Vec<_> = (0..4)
        .map(|i| spawn(&mut kernel, format!("batch{i}"), batch_id, BATCH_COOKIE))
        .collect();
    batch_tids.iter().for_each(|&t| batch.add_thread(t));
    batch.start(&mut kernel.state);
    kernel.add_app(Box::new(batch));

    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let policy = ShinjukuShenangoPolicy::new(ShinjukuConfig {
        timeslice: 10 * MICROS,
        ..ShinjukuConfig::default()
    });
    let enclave = runtime.launch_enclave(
        &mut kernel,
        cpus,
        EnclaveConfig::centralized("shenango"),
        Box::new(policy),
    );
    for &tid in workers.iter().chain(&batch_tids) {
        enclave.attach_thread(&mut kernel.state, tid);
    }
    kernel.run_until(drained);

    let batch_cpu: u64 = batch_tids
        .iter()
        .map(|&t| kernel.state.thread(t).total_oncpu)
        .sum();
    assert!(batch_cpu > MILLIS, "batch tier never ran: nothing to evict");
    let stranded: Vec<_> = workers
        .iter()
        .filter(|&&w| kernel.state.thread(w).state == ThreadState::Runnable)
        .collect();
    assert!(
        stranded.is_empty(),
        "LC workers left runnable and off-CPU after the drain: {stranded:?}"
    );
    let res = kernel
        .app_mut(app_id)
        .as_any()
        .downcast_mut::<RocksDbApp>()
        .expect("app")
        .results();
    assert!(res.generated > 2_000, "load too light: {}", res.generated);
    assert_eq!(
        res.completed, res.generated,
        "every LC request issued must complete once arrivals stop"
    );
}

// Re-export check: the facade exposes a coherent API surface.
#[test]
fn facade_exposes_workspace() {
    let _ = ghost::sim::CostModel::default();
    let _ = ghost::metrics::LogHistogram::new();
    let _ = SECS;
}
