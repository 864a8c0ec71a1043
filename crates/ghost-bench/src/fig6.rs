//! Fig. 6: the Shinjuku comparison (§4.2). Three systems serve the same
//! dispersive RocksDB request stream on one socket of a Xeon E5-2658
//! (24 logical CPUs):
//!
//! 1. **Shinjuku** — the original dataplane (dedicated spinning cores).
//! 2. **ghOSt-Shinjuku** — the Shinjuku policy on ghOSt (200 workers, a
//!    global agent, 20 schedulable CPUs).
//! 3. **CFS-Shinjuku** — the same serving app on CFS, non-preemptive at
//!    the request level.
//!
//! Fig. 6b/c co-locate a batch app: ghOSt switches to the
//! Shinjuku+Shenango policy; under the dataplane the batch app can never
//! use the dataplane's CPUs.

use ghost_baselines::shinjuku_dataplane::ShinjukuDataplane;
use ghost_core::enclave::EnclaveConfig;
use ghost_core::runtime::GhostRuntime;
use ghost_metrics::LogHistogram;
use ghost_policies::shinjuku::ShinjukuPolicy;
use ghost_policies::shinjuku_shenango::{ShinjukuShenangoPolicy, BATCH_COOKIE};
use ghost_sim::kernel::{Kernel, KernelConfig, ThreadSpec};
use ghost_sim::time::{Nanos, MILLIS, SECS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::CpuSet;
use ghost_workloads::batch::BatchApp;
use ghost_workloads::rocksdb::{RocksDbApp, RocksDbConfig};

/// The systems under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Original Shinjuku dataplane.
    Shinjuku,
    /// Shinjuku policy on ghOSt.
    GhostShinjuku,
    /// Non-preemptive serving on CFS.
    CfsShinjuku,
}

impl System {
    /// Display name matching the figure legend.
    pub fn name(self) -> &'static str {
        match self {
            System::Shinjuku => "Shinjuku",
            System::GhostShinjuku => "ghOSt-Shinjuku",
            System::CfsShinjuku => "CFS-Shinjuku",
        }
    }
}

/// One measurement.
#[derive(Debug)]
pub struct Fig6Point {
    /// Offered load (requests/s).
    pub offered: f64,
    /// Achieved throughput (completed requests/s after warmup).
    pub achieved: f64,
    /// 99th percentile latency, µs.
    pub p99_us: f64,
    /// Batch app CPU share of the 20 worker CPUs (0 when no batch app).
    pub batch_share: f64,
    /// Full latency histogram.
    pub latency: LogHistogram,
}

/// Number of worker CPUs every system gets.
pub const WORKER_CPUS: usize = 20;
/// ghOSt worker-thread pool size (paper: 200).
pub const GHOST_WORKERS: usize = 200;

/// Runs one system at one offered load for `horizon` of virtual time.
pub fn run_point(system: System, rate: f64, with_batch: bool, horizon: Nanos) -> Fig6Point {
    let cfg = RocksDbConfig::dispersive(rate, 42);
    match system {
        System::Shinjuku => run_dataplane(cfg, horizon),
        System::GhostShinjuku => run_ghost(cfg, with_batch, horizon),
        System::CfsShinjuku => run_cfs(cfg, with_batch, horizon),
    }
}

fn finish(
    offered: f64,
    latency: LogHistogram,
    warmup: Nanos,
    horizon: Nanos,
    batch_cpu: Nanos,
) -> Fig6Point {
    let span = (horizon - warmup) as f64 / 1e9;
    Fig6Point {
        offered,
        achieved: latency.count() as f64 / span,
        p99_us: latency.percentile(99.0) as f64 / 1e3,
        batch_share: batch_cpu as f64 / (WORKER_CPUS as f64 * (horizon as f64)),
        latency,
    }
}

fn run_dataplane(cfg: RocksDbConfig, horizon: Nanos) -> Fig6Point {
    let trace = cfg.trace(horizon);
    let dp = ShinjukuDataplane::new(WORKER_CPUS);
    // Record only post-warmup arrivals, matching the sim harnesses.
    let warm: Vec<(Nanos, Nanos)> = trace
        .iter()
        .copied()
        .filter(|&(t, _)| t >= cfg.warmup)
        .collect();
    // Run the full trace for queue state, but measure on the warm part:
    // approximate by running the warm trace only (the dataplane reaches
    // steady state within a few ms).
    let res = dp.run(warm, horizon);
    finish(cfg.rate, res.latency, cfg.warmup, horizon, 0)
}

/// Builds the E5 machine with the serving app; returns the kernel, app
/// id, and worker tids (class/affinity assigned by the caller).
fn build_machine(
    cfg: &RocksDbConfig,
    horizon: Nanos,
    workers: usize,
) -> (Kernel, ghost_sim::app::AppId, Vec<ghost_sim::thread::Tid>) {
    let topo = Topology::e5_single_socket_24();
    let mut kernel = Kernel::new(topo, KernelConfig::default());
    let app_id = kernel.state.next_app_id();
    let mut app = RocksDbApp::new(cfg.clone(), app_id, horizon);
    let mut tids = Vec::new();
    for i in 0..workers {
        let tid = kernel
            .spawn(ThreadSpec::workload(&format!("rocksdb-w{i}"), &kernel.state.topo).app(app_id));
        app.add_worker(tid);
        tids.push(tid);
    }
    app.start(&mut kernel.state);
    kernel.add_app(Box::new(app));
    (kernel, app_id, tids)
}

/// The CPUs the enclave manages: CPU 2 hosts the global agent, CPUs
/// 3..=22 run workers (CPUs 0-1 are "the load generator's core").
fn enclave_cpus() -> CpuSet {
    (2..=22u16).map(CpuId).collect()
}

fn run_ghost(cfg: RocksDbConfig, with_batch: bool, horizon: Nanos) -> Fig6Point {
    let (mut kernel, app_id, tids) = build_machine(&cfg, horizon, GHOST_WORKERS);
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let policy: Box<dyn ghost_core::GhostPolicy> = if with_batch {
        Box::new(ShinjukuShenangoPolicy::new())
    } else {
        Box::new(ShinjukuPolicy::new())
    };
    let enclave = runtime.launch_enclave(
        &mut kernel,
        enclave_cpus(),
        EnclaveConfig::centralized("shinjuku"),
        policy,
    );
    for &tid in &tids {
        kernel.state.set_affinity(tid, enclave_cpus());
        enclave.attach_thread(&mut kernel.state, tid);
    }
    let mut batch_tids = Vec::new();
    if with_batch {
        let batch_id = kernel.state.next_app_id();
        let mut batch = BatchApp::new(batch_id);
        for i in 0..8 {
            let tid = kernel.spawn(
                ThreadSpec::workload(&format!("batch{i}"), &kernel.state.topo)
                    .app(batch_id)
                    .affinity(enclave_cpus())
                    .cookie(BATCH_COOKIE),
            );
            batch.add_thread(tid);
            batch_tids.push(tid);
        }
        batch.start(&mut kernel.state);
        kernel.add_app(Box::new(batch));
        for &tid in &batch_tids {
            enclave.attach_thread(&mut kernel.state, tid);
        }
    }
    kernel.run_until(horizon);
    let batch_cpu: Nanos = batch_tids
        .iter()
        .map(|&t| kernel.state.thread(t).total_oncpu)
        .sum();
    let app = kernel
        .app_mut(app_id)
        .as_any()
        .downcast_mut::<RocksDbApp>()
        .expect("rocksdb app");
    let res = app.results();
    finish(cfg.rate, res.latency, cfg.warmup, horizon, batch_cpu)
}

fn run_cfs(cfg: RocksDbConfig, with_batch: bool, horizon: Nanos) -> Fig6Point {
    let (mut kernel, app_id, tids) = build_machine(&cfg, horizon, GHOST_WORKERS);
    // Workers in CFS, confined to the same 20 CPUs as the other systems.
    let worker_cpus: CpuSet = (3..=22u16).map(CpuId).collect();
    for &tid in &tids {
        kernel.state.set_affinity(tid, worker_cpus);
        kernel.state.set_nice(tid, -20);
    }
    let mut batch_tids = Vec::new();
    if with_batch {
        let batch_id = kernel.state.next_app_id();
        let mut batch = BatchApp::new(batch_id);
        for i in 0..8 {
            let tid = kernel.spawn(
                ThreadSpec::workload(&format!("batch{i}"), &kernel.state.topo)
                    .app(batch_id)
                    .affinity(worker_cpus)
                    .nice(19),
            );
            batch.add_thread(tid);
            batch_tids.push(tid);
        }
        batch.start(&mut kernel.state);
        kernel.add_app(Box::new(batch));
    }
    kernel.run_until(horizon);
    let batch_cpu: Nanos = batch_tids
        .iter()
        .map(|&t| kernel.state.thread(t).total_oncpu)
        .sum();
    let app = kernel
        .app_mut(app_id)
        .as_any()
        .downcast_mut::<RocksDbApp>()
        .expect("rocksdb app");
    let res = app.results();
    finish(cfg.rate, res.latency, cfg.warmup, horizon, batch_cpu)
}

/// The default load sweep (requests/s).
pub fn load_sweep() -> Vec<f64> {
    vec![
        25_000.0, 50_000.0, 75_000.0, 100_000.0, 125_000.0, 150_000.0, 175_000.0, 200_000.0,
        225_000.0, 250_000.0, 275_000.0, 300_000.0,
    ]
}

/// Default horizon per point.
pub const HORIZON: Nanos = 400 * MILLIS;

/// Convenience: a shortened horizon used by the shape tests.
pub const TEST_HORIZON: Nanos = 300 * MILLIS;

/// Sanity anchor: mean service time of the dispersive workload, ns.
pub fn mean_service() -> f64 {
    RocksDbConfig::dispersive(1.0, 0).processing.mean() + 2_000.0
}

/// Theoretical per-system saturation (req/s) with `WORKER_CPUS` workers.
pub fn capacity() -> f64 {
    WORKER_CPUS as f64 / (mean_service() / 1e9)
}

// Quiet the unused import when SECS is only used by benches.
const _: Nanos = SECS;
