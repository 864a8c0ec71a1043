//! §4.5 in miniature: protect VMs from cross-hyperthread L1TF/MDS attacks
//! with per-core scheduling — sibling hyperthreads only ever run vCPUs of
//! the same VM, enforced by atomic per-core group commits.
//!
//! ```text
//! cargo run --release --example secure_vms
//! ```

use ghost::lab::{GhostSim, PolicyKind, Scenario};
use ghost::sim::kernel::ThreadSpec;
use ghost::sim::time::{MILLIS, SECS};
use ghost::sim::topology::CpuId;
use ghost::workloads::vm::{VmApp, VmConfig};

fn main() {
    // 8 physical cores, 16 CPUs; 3 VMs with 4 vCPUs each.
    let GhostSim {
        mut kernel,
        enclaves,
        ..
    } = Scenario::builder()
        .name("secure-vms")
        .cpus(16)
        .policy(PolicyKind::CoreSched)
        .build()
        .launch()
        .sim;
    let enclave = &enclaves[0];

    let cfg = VmConfig {
        vms: 3,
        vcpus_per_vm: 4,
        work_per_vcpu: 2 * SECS,
        ..VmConfig::default()
    };
    let app_id = kernel.state.next_app_id();
    let mut app = VmApp::new(cfg.clone(), app_id);
    let mut vcpus = Vec::new();
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
    for &v in &vcpus {
        enclave.attach_thread(&mut kernel.state, v);
    }

    // Run to completion, auditing the isolation invariant continuously.
    let mut violations = 0u64;
    let mut samples = 0u64;
    loop {
        kernel.run_for(MILLIS);
        samples += 1;
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
        let done = kernel
            .app_mut(app_id)
            .as_any()
            .downcast_mut::<VmApp>()
            .expect("vm app")
            .done();
        if done || kernel.now() > 60 * SECS {
            break;
        }
    }
    let app = kernel
        .app_mut(app_id)
        .as_any()
        .downcast_mut::<VmApp>()
        .expect("vm app");
    let total = app.total_time().expect("workload finished") as f64 / 1e9;
    println!("3 VMs x 4 vCPUs, 2 s of work each, on 8 SMT cores:");
    println!("  finished in {total:.2} virtual seconds");
    println!("  isolation audits: {samples} samples, {violations} cross-VM SMT co-residencies");
    assert_eq!(violations, 0, "the core-scheduling invariant must hold");
    println!("OK — no VM ever shared a physical core with another VM.");
}
