//! Quickstart: delegate scheduling of a few threads to a userspace FIFO
//! policy on a small simulated machine.
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --trace out.json
//! ```
//!
//! With `--trace`, every tracepoint fired during the run is recorded and
//! exported as a Chrome `trace_event` JSON file — open it in
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use ghost::core::msg::MsgType;
use ghost::lab::{GhostSim, Scenario};
use ghost::sim::app::{App, Next};
use ghost::sim::kernel::{KernelState, ThreadSpec};
use ghost::sim::thread::Tid;
use ghost::sim::time::{MICROS, MILLIS};

/// A toy workload: threads run 100 µs bursts, sleeping 1 ms in between.
struct Bursts;

impl App for Bursts {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "bursts"
    }

    fn on_timer(&mut self, key: u64, k: &mut KernelState) {
        let tid = Tid(key as u32);
        if k.threads[tid.index()].state == ghost::sim::ThreadState::Blocked {
            k.thread_mut(tid).remaining = 100 * MICROS;
            k.wake(tid);
        }
        let app = k.thread(tid).app.expect("burst thread has an app");
        k.arm_app_timer(k.now + MILLIS, app, key);
    }

    fn on_segment_end(&mut self, _tid: Tid, _k: &mut KernelState) -> Next {
        Next::Block
    }
}

fn main() {
    // 0. Parse `--trace <path>`: record tracepoints into one merged ring
    //    (records carry their own CPU id, so one big ring beats many
    //    per-CPU rings when a spinning agent dominates the volume).
    let mut argv = std::env::args().skip(1);
    let mut trace_path: Option<String> = None;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--trace" => match argv.next() {
                Some(path) => trace_path = Some(path),
                None => {
                    eprintln!("--trace needs a file path");
                    eprintln!("usage: quickstart [--trace out.json]");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: quickstart [--trace out.json]");
                std::process::exit(2);
            }
        }
    }
    // 1–2. Boot a small machine (4 cores, 8 logical CPUs) and launch an
    //    enclave over CPUs 1..7 running a centralized FIFO policy (CPU 0
    //    stays with CFS). The scenario builder is the canonical setup
    //    path: it installs the runtime, creates the enclave, and spawns
    //    its agents in one call.
    let GhostSim {
        mut kernel,
        runtime,
        enclaves,
        sink,
    } = Scenario::builder()
        .name("quickstart")
        .cpus(8)
        .trace_capacity(if trace_path.is_some() { 1 << 21 } else { 0 })
        .enclave_cpus(1..8)
        .build()
        .launch()
        .sim;
    let enclave = &enclaves[0];

    // 3. Spawn workload threads and hand them to ghOSt.
    let app_id = kernel.state.next_app_id();
    let mut tids = Vec::new();
    for i in 0..6 {
        let tid = kernel
            .spawn(ThreadSpec::workload(&format!("worker-{i}"), &kernel.state.topo).app(app_id));
        tids.push(tid);
    }
    kernel.add_app(Box::new(Bursts));
    for (i, &tid) in tids.iter().enumerate() {
        enclave.attach_thread(&mut kernel.state, tid);
        kernel
            .state
            .arm_app_timer((i as u64 + 1) * 50 * MICROS, app_id, tid.0 as u64);
    }

    // 4. Run one virtual second and report.
    kernel.run_until(1_000 * MILLIS);
    let stats = runtime.stats();
    println!("ghOSt quickstart — 1 virtual second on {} CPUs", 8);
    println!("  agent activations : {}", stats.activations);
    println!("  txns committed    : {}", stats.txns_committed);
    println!("  txns failed       : {}", stats.txns_failed());
    println!(
        "  THREAD_WAKEUPs    : {}",
        stats.posted(MsgType::ThreadWakeup)
    );
    println!(
        "  THREAD_BLOCKEDs   : {}",
        stats.posted(MsgType::ThreadBlocked)
    );
    for &tid in &tids {
        let t = kernel.state.thread(tid);
        println!(
            "  {:<9} ran {:>6} µs over {} stints",
            tid.to_string(),
            t.total_work / 1_000,
            t.stint
        );
    }
    assert!(stats.txns_committed > 5_000, "scheduling should be brisk");

    // 5. Export the trace, if requested.
    if let Some(path) = trace_path {
        let records = sink.snapshot();
        assert_eq!(sink.dropped(), 0, "trace ring overflowed; raise capacity");
        ghost::trace::check::assert_clean(&records);
        let json = ghost::trace::chrome::export(&records);
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        let metrics = ghost::trace::derive::TraceMetrics::from_records(&records);
        println!("  trace             : {} records -> {path}", records.len());
        println!(
            "  wakeup-to-run p99 : {} µs",
            metrics.wakeup_to_run.percentile(99.0) / 1_000
        );
    }
    println!("OK");
}
