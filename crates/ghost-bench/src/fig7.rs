//! Fig. 7: Google Snap (§4.3). MicroQuanta vs a ghOSt centralized FIFO
//! policy scheduling Snap packet-processing workers, in quiet mode (only
//! networking load) and loaded mode (40 batch antagonist threads).

use ghost_baselines::microquanta::MicroQuanta;
use ghost_core::enclave::EnclaveConfig;
use ghost_core::runtime::GhostRuntime;
use ghost_metrics::LogHistogram;
use ghost_policies::snap::{SnapPolicy, SNAP_COOKIE};
use ghost_sim::kernel::{Kernel, KernelConfig, ThreadSpec};
use ghost_sim::time::Nanos;
use ghost_sim::topology::Topology;
use ghost_sim::CLASS_RT;
use ghost_workloads::batch::BatchApp;
use ghost_workloads::snap::{SnapApp, SnapConfig};

/// Scheduler under test for the Snap workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapSched {
    /// The production soft-realtime baseline.
    MicroQuanta,
    /// The ghOSt centralized FIFO policy.
    Ghost,
}

impl SnapSched {
    /// Legend name.
    pub fn name(self) -> &'static str {
        match self {
            SnapSched::MicroQuanta => "MicroQ",
            SnapSched::Ghost => "ghOSt",
        }
    }
}

/// Results of one Snap run.
#[derive(Debug)]
pub struct Fig7Run {
    /// 64 B message RTTs.
    pub rtt_64b: LogHistogram,
    /// 64 kB message RTTs.
    pub rtt_64kb: LogHistogram,
    /// Messages completed.
    pub completed: u64,
}

/// Runs the Snap experiment on one socket (56 CPUs) for `horizon`.
pub fn run(sched: SnapSched, loaded: bool, cfg: SnapConfig, horizon: Nanos) -> Fig7Run {
    let topo = Topology::new("skylake-socket", 1, 28, 2, 28);
    let mut kernel = Kernel::new(topo, KernelConfig::default());
    if sched == SnapSched::MicroQuanta {
        let n = kernel.state.topo.num_cpus();
        kernel.install_class(CLASS_RT, Box::new(MicroQuanta::new(n)));
    }
    let app_id = kernel.state.next_app_id();
    let mut app = SnapApp::new(cfg, app_id);
    let mut workers = Vec::new();
    let mut servers = Vec::new();
    for i in 0..6 {
        let w = kernel.spawn(
            ThreadSpec::workload(&format!("snap-w{i}"), &kernel.state.topo)
                .app(app_id)
                .cookie(SNAP_COOKIE),
        );
        let s = kernel
            .spawn(ThreadSpec::workload(&format!("snap-srv{i}"), &kernel.state.topo).app(app_id));
        app.add_stream(w, s);
        workers.push(w);
        servers.push(s);
    }
    app.start(&mut kernel.state);
    kernel.add_app(Box::new(app));

    // Antagonists (loaded mode): 40 batch threads soaking idle CPUs.
    let mut antagonists = Vec::new();
    if loaded {
        let batch_id = kernel.state.next_app_id();
        let mut batch = BatchApp::new(batch_id);
        for i in 0..40 {
            let t = kernel.spawn(
                ThreadSpec::workload(&format!("antagonist{i}"), &kernel.state.topo)
                    .app(batch_id)
                    .nice(10),
            );
            batch.add_thread(t);
            antagonists.push(t);
        }
        batch.start(&mut kernel.state);
        kernel.add_app(Box::new(batch));
    }

    match sched {
        SnapSched::MicroQuanta => {
            // Workers in the MicroQuanta RT class; antagonists stay CFS.
            for &w in &workers {
                kernel.state.move_to_class(w, CLASS_RT);
            }
        }
        SnapSched::Ghost => {
            // Enclave over the whole socket; the policy manages workers
            // AND antagonists (strict priority), per §4.3.
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
            for &a in &antagonists {
                enclave.attach_thread(&mut kernel.state, a);
            }
        }
    }

    kernel.run_until(horizon);
    let app = kernel
        .app_mut(app_id)
        .as_any()
        .downcast_mut::<SnapApp>()
        .expect("snap app");
    let res = app.results();
    Fig7Run {
        rtt_64b: res.rtt_64b,
        rtt_64kb: res.rtt_64kb,
        completed: res.completed,
    }
}
