//! The §4.3 scenario in miniature: Snap packet-processing workers
//! scheduled by MicroQuanta (the production soft-realtime baseline) vs a
//! ghOSt centralized FIFO policy, quiet mode.
//!
//! ```text
//! cargo run --release --example snap_latency
//! ```

use ghost::baselines::microquanta::MicroQuanta;
use ghost::core::enclave::EnclaveConfig;
use ghost::core::runtime::GhostRuntime;
use ghost::lab::Scenario;
use ghost::metrics::Table;
use ghost::policies::snap::{SnapPolicy, SNAP_COOKIE};
use ghost::sim::kernel::ThreadSpec;
use ghost::sim::time::SECS;
use ghost::sim::CLASS_RT;
use ghost::workloads::snap::{SnapApp, SnapConfig, SnapResults};

fn run(use_ghost: bool) -> SnapResults {
    // One 28-core SMT socket, 56 logical CPUs.
    let (mut kernel, _sink) = Scenario::builder().name("snap").cpus(56).build_kernel();
    if !use_ghost {
        let n = kernel.state.topo.num_cpus();
        kernel.install_class(CLASS_RT, Box::new(MicroQuanta::new(n)));
    }
    let app_id = kernel.state.next_app_id();
    let mut app = SnapApp::new(SnapConfig::default(), app_id);
    let mut workers = Vec::new();
    for i in 0..6 {
        let w = kernel.spawn(
            ThreadSpec::workload(&format!("engine{i}"), &kernel.state.topo)
                .app(app_id)
                .cookie(SNAP_COOKIE),
        );
        let s = kernel
            .spawn(ThreadSpec::workload(&format!("server{i}"), &kernel.state.topo).app(app_id));
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
    kernel.run_until(3 * SECS);
    kernel
        .app_mut(app_id)
        .as_any()
        .downcast_mut::<SnapApp>()
        .expect("snap app")
        .results()
}

fn main() {
    println!("6 streams x 10k msg/s on one 56-CPU socket, quiet mode...");
    let mq = run(false);
    let gh = run(true);
    let mut t = Table::new(vec![
        "percentile",
        "MicroQ 64B",
        "ghOSt 64B",
        "MicroQ 64kB",
        "ghOSt 64kB",
    ])
    .with_title("Snap round-trip latency (us)");
    for p in [50.0, 90.0, 99.0, 99.9] {
        t.row(vec![
            format!("{p}%"),
            format!("{:.0}", mq.rtt_64b.percentile(p) as f64 / 1e3),
            format!("{:.0}", gh.rtt_64b.percentile(p) as f64 / 1e3),
            format!("{:.0}", mq.rtt_64kb.percentile(p) as f64 / 1e3),
            format!("{:.0}", gh.rtt_64kb.percentile(p) as f64 / 1e3),
        ]);
    }
    t.print();
    println!(
        "\nMicroQuanta throttles workers to 0.9 ms per 1 ms period (blackouts\n\
         up to 0.1 ms); the ghOSt policy relocates workers instead (§4.3)."
    );
}
