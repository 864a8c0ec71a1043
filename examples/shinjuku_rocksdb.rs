//! The §4.2 scenario in miniature: serve a dispersive RocksDB workload
//! (99.5% short requests, 0.5% of 10 ms) with the preemptive
//! ghOSt-Shinjuku policy vs plain CFS, and watch the tail separate.
//!
//! ```text
//! cargo run --release --example shinjuku_rocksdb
//! ```

use ghost::core::enclave::EnclaveConfig;
use ghost::core::runtime::GhostRuntime;
use ghost::lab::{Scenario, TopologySpec};
use ghost::metrics::Table;
use ghost::policies::shinjuku::ShinjukuPolicy;
use ghost::sim::kernel::ThreadSpec;
use ghost::sim::time::MILLIS;
use ghost::sim::topology::CpuId;
use ghost::sim::CpuSet;
use ghost::workloads::rocksdb::{RocksDbApp, RocksDbConfig, RocksDbResults};

const HORIZON: u64 = 400 * MILLIS;
const RATE: f64 = 150_000.0;
const WORKERS: usize = 200;

fn serve(use_ghost: bool) -> RocksDbResults {
    let (mut kernel, _sink) = Scenario::builder()
        .name("shinjuku-rocksdb")
        .topology(TopologySpec::E5Single24)
        .build_kernel();
    let cfg = RocksDbConfig::dispersive(RATE, 7);
    let app_id = kernel.state.next_app_id();
    let mut app = RocksDbApp::new(cfg, app_id, HORIZON);
    let mut tids = Vec::new();
    for i in 0..WORKERS {
        let tid =
            kernel.spawn(ThreadSpec::workload(&format!("w{i}"), &kernel.state.topo).app(app_id));
        app.add_worker(tid);
        tids.push(tid);
    }
    app.start(&mut kernel.state);
    kernel.add_app(Box::new(app));

    let worker_cpus: CpuSet = (2..=22u16).map(CpuId).collect();
    if use_ghost {
        let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
        let enclave = runtime.launch_enclave(
            &mut kernel,
            worker_cpus,
            EnclaveConfig::centralized("shinjuku"),
            Box::new(ShinjukuPolicy::new()),
        );
        for &tid in &tids {
            kernel.state.set_affinity(tid, worker_cpus);
            enclave.attach_thread(&mut kernel.state, tid);
        }
    } else {
        for &tid in &tids {
            kernel.state.set_affinity(tid, worker_cpus);
        }
    }
    kernel.run_until(HORIZON);
    kernel
        .app_mut(app_id)
        .as_any()
        .downcast_mut::<RocksDbApp>()
        .expect("rocksdb app")
        .results()
}

fn main() {
    println!("Serving {RATE:.0} req/s of the dispersive RocksDB workload...");
    let ghost = serve(true);
    let cfs = serve(false);
    let mut t = Table::new(vec!["percentile", "ghOSt-Shinjuku (us)", "CFS (us)"])
        .with_title("Request latency");
    for p in [50.0, 90.0, 99.0, 99.9] {
        t.row(vec![
            format!("{p}%"),
            format!("{:.0}", ghost.latency.percentile(p) as f64 / 1e3),
            format!("{:.0}", cfs.latency.percentile(p) as f64 / 1e3),
        ]);
    }
    t.print();
    println!(
        "completed: ghOSt {} / CFS {}",
        ghost.completed, cfs.completed
    );
    println!(
        "\nThe 30 µs preemption slice keeps 4 µs requests from queueing\n\
         behind 10 ms ones — exactly the Shinjuku effect of §4.2."
    );
}
