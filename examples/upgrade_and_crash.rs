//! §3.4 in action: non-disruptive policy upgrades, agent-crash fallback
//! to CFS, and the watchdog.
//!
//! ```text
//! cargo run --release --example upgrade_and_crash
//! ```

use ghost::core::enclave::EnclaveConfig;
use ghost::lab::{GhostSim, Scenario};
use ghost::policies::CentralizedFifo;
use ghost::sim::app::{App, Next};
use ghost::sim::kernel::{KernelState, ThreadSpec};
use ghost::sim::thread::Tid;
use ghost::sim::time::{MICROS, MILLIS};
use ghost::sim::CLASS_CFS;

struct Pulse;

impl App for Pulse {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> &str {
        "pulse"
    }
    fn on_timer(&mut self, key: u64, k: &mut KernelState) {
        let tid = Tid(key as u32);
        if k.threads[tid.index()].state == ghost::sim::ThreadState::Blocked {
            k.thread_mut(tid).remaining = 200 * MICROS;
            k.wake(tid);
        }
        let app = k.thread(tid).app.expect("app");
        k.arm_app_timer(k.now + MILLIS, app, key);
    }
    fn on_segment_end(&mut self, _tid: Tid, _k: &mut KernelState) -> Next {
        Next::Block
    }
}

fn main() {
    let GhostSim {
        mut kernel,
        runtime,
        enclave,
        ..
    } = Scenario::builder()
        .name("demo")
        .cpus(8)
        .enclave_cpus(1..8)
        .build_with(
            EnclaveConfig::centralized("demo").with_watchdog(50 * MILLIS),
            Box::new(CentralizedFifo::new()),
        );

    let app_id = kernel.state.next_app_id();
    let mut tids = Vec::new();
    for i in 0..4 {
        let tid =
            kernel.spawn(ThreadSpec::workload(&format!("svc-{i}"), &kernel.state.topo).app(app_id));
        tids.push(tid);
    }
    kernel.add_app(Box::new(Pulse));
    for (i, &tid) in tids.iter().enumerate() {
        enclave.attach_thread(&mut kernel.state, tid);
        kernel
            .state
            .arm_app_timer((i as u64 + 1) * 100 * MICROS, app_id, tid.0 as u64);
    }

    kernel.run_until(100 * MILLIS);
    println!(
        "t=100ms   v1 policy scheduling; txns so far: {}",
        runtime.stats().txns_committed
    );

    // Non-disruptive upgrade: stage v2, crash the running agent. The
    // staged policy takes over in place; applications keep running.
    enclave
        .try_stage_upgrade(Box::new(CentralizedFifo::new()))
        .expect("stage upgrade");
    let agent = enclave.global_agent().expect("global agent");
    kernel.kill(agent);
    kernel.run_until(200 * MILLIS);
    let stats = runtime.stats();
    println!(
        "t=200ms   upgraded in place (upgrades: {}); enclave alive: {}",
        stats.upgrades,
        enclave.alive()
    );
    assert_eq!(stats.upgrades, 1);
    assert!(enclave.alive());

    // Crash with no standby: fault isolation moves every managed thread
    // back to CFS; the machine keeps running.
    let agent = enclave.global_agent().expect("global agent");
    kernel.kill(agent);
    kernel.run_until(300 * MILLIS);
    let stats = runtime.stats();
    println!(
        "t=300ms   agent crashed with no standby (fallbacks: {}); enclave alive: {}",
        stats.fallbacks,
        enclave.alive()
    );
    assert!(stats.fallbacks >= 1);
    assert!(!enclave.alive());
    for &tid in &tids {
        assert_eq!(kernel.state.thread(tid).class, CLASS_CFS);
    }
    let work_before = kernel.state.thread(tids[0]).total_work;
    kernel.run_until(400 * MILLIS);
    assert!(kernel.state.thread(tids[0]).total_work > work_before);
    println!("t=400ms   threads keep running under CFS — no reboot, no downtime.");
    println!("OK");
}
