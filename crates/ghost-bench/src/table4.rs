//! Table 4: secure VM core scheduling (§4.5). "Scheduling 32 vCPUs on 25
//! physical cores with 50 logical CPUs", bwaves-like compute, three
//! schedulers: CFS (no security), in-kernel core scheduling, ghOSt
//! per-core scheduling.

use ghost_baselines::kernel_core_sched::KernelCoreSched;
use ghost_core::enclave::EnclaveConfig;
use ghost_core::runtime::GhostRuntime;
use ghost_policies::core_sched::CoreSchedPolicy;
use ghost_sim::kernel::{Kernel, KernelConfig, ThreadSpec};
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, SECS};
use ghost_sim::topology::Topology;
use ghost_sim::CLASS_CFS;
use ghost_workloads::vm::{VmApp, VmConfig};

/// Scheduler under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmSched {
    /// CFS: best throughput, no cross-hyperthread isolation.
    Cfs,
    /// In-kernel cookie-aware core scheduling.
    KernelCoreSched,
    /// ghOSt per-core scheduling with atomic sibling commits.
    GhostCoreSched,
}

impl VmSched {
    /// Row label matching Table 4.
    pub fn name(self) -> &'static str {
        match self {
            VmSched::Cfs => "CFS (no security)",
            VmSched::KernelCoreSched => "In-kernel Core Scheduling",
            VmSched::GhostCoreSched => "ghOSt Core Scheduling",
        }
    }
}

/// One Table 4 row.
#[derive(Debug, Clone, Copy)]
pub struct Table4Row {
    /// Which scheduler.
    pub sched: VmSched,
    /// bwaves-like rate (higher is better).
    pub rate: f64,
    /// Total completion time, virtual seconds (lower is better).
    pub total_secs: f64,
    /// Observed cross-VM SMT co-residency events (must be 0 for the two
    /// secure schedulers — the security property itself).
    pub isolation_violations: u64,
}

/// Runs one scheduler over the bwaves workload and audits the isolation
/// invariant by sampling sibling co-residency at every millisecond tick.
pub fn run(sched: VmSched, cfg: VmConfig) -> Table4Row {
    let topo = Topology::new("vm-50", 1, 25, 2, 25);
    let mut kernel = Kernel::new(topo, KernelConfig::default());
    if sched == VmSched::KernelCoreSched {
        kernel.install_class(CLASS_CFS, Box::new(KernelCoreSched::new()));
    }
    let app_id = kernel.state.next_app_id();
    let mut app = VmApp::new(cfg.clone(), app_id);
    let mut vcpus: Vec<Tid> = Vec::new();
    for vm in 0..cfg.vms {
        for v in 0..cfg.vcpus_per_vm {
            let tid = kernel.spawn(
                ThreadSpec::workload(&format!("vm{vm}-vcpu{v}"), &kernel.state.topo)
                    .app(app_id)
                    .cookie(vm + 1),
            );
            app.add_vcpu(tid);
            vcpus.push(tid);
        }
    }
    app.start(&mut kernel.state);
    kernel.add_app(Box::new(app));

    let runtime = if sched == VmSched::GhostCoreSched {
        let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
        let cpus = kernel.state.topo.all_cpus_set();
        let enclave = runtime.launch_enclave(
            &mut kernel,
            cpus,
            EnclaveConfig::per_core("secure-vm").with_ticks(true),
            Box::new(CoreSchedPolicy::new()),
        );
        for &v in &vcpus {
            enclave.attach_thread(&mut kernel.state, v);
        }
        Some(runtime)
    } else {
        None
    };
    let _ = &runtime;

    // Drive to completion, auditing isolation every millisecond.
    let mut violations = 0u64;
    let mut done_at: Option<Nanos> = None;
    let deadline = 50 * cfg.work_per_vcpu; // Generous runaway guard.
    while kernel.now() < deadline {
        kernel.run_for(SECS / 1000);
        violations += audit_isolation(&kernel);
        let app = kernel
            .app_mut(app_id)
            .as_any()
            .downcast_mut::<VmApp>()
            .expect("vm app");
        if app.done() {
            done_at = app.total_time();
            break;
        }
    }
    let total = done_at.unwrap_or(kernel.now());
    let total_secs = total as f64 / 1e9;
    let total_work = (cfg.vms * cfg.vcpus_per_vm) as f64 * cfg.work_per_vcpu as f64 / 1e9;
    Table4Row {
        sched,
        rate: total_work / total_secs * 16.0,
        total_secs,
        isolation_violations: violations,
    }
}

/// Counts sibling pairs currently running vCPUs of *different* VMs.
fn audit_isolation(kernel: &Kernel) -> u64 {
    let k = &kernel.state;
    let mut violations = 0;
    for cpu in k.topo.all_cpus() {
        let Some(sib) = k.topo.sibling(cpu) else {
            continue;
        };
        if sib < cpu {
            continue; // Count each pair once.
        }
        let cookie_of = |c: ghost_sim::topology::CpuId| -> Option<u64> {
            let cur = k.cpus[c.index()].current?;
            let t = &k.threads[cur.index()];
            (t.cookie != 0).then_some(t.cookie)
        };
        if let (Some(a), Some(b)) = (cookie_of(cpu), cookie_of(sib)) {
            if a != b {
                violations += 1;
            }
        }
    }
    violations
}
