//! Table 3: microbenchmarks of ghOSt-specific operations, measured by
//! probing the live runtime on the simulated Skylake machine and printed
//! beside the paper's numbers.
//!
//! Rows 1–9 are measured end-to-end through the message/transaction
//! machinery (probe policies time the actual paths); rows 10–12 are the
//! calibrated primitives themselves.

use ghost_core::enclave::EnclaveConfig;
use ghost_core::msg::{Message, MsgType};
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::runtime::GhostRuntime;
use ghost_core::txn::Transaction;
use ghost_metrics::{MeanTracker, Table};
use ghost_sim::app::{App, Next};
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, ThreadSpec};
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::{CostModel, CpuSet};
use std::sync::{Arc, Mutex};

/// How long each probe thread runs per scheduling (kept fixed so run
/// starts can be derived from segment ends).
const WORK: Nanos = 5 * MICROS;
/// Probe repetitions.
const REPS: u64 = 200;

#[derive(Default)]
struct Probe {
    /// Message-delivery deltas (produced → observed), ns.
    delivery: MeanTracker,
    /// Pre-commit stamps, in commit order.
    pre_commit: Vec<Nanos>,
    /// Agent-side commit overheads, ns.
    agent_overhead: MeanTracker,
    /// Run starts recorded by the app, in order.
    run_starts: Vec<Nanos>,
}

type Shared = Arc<Mutex<Probe>>;

/// App: threads run WORK then block; run starts = segment end − WORK.
struct ProbeApp {
    shared: Shared,
}

impl App for ProbeApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "probe"
    }

    fn on_timer(&mut self, key: u64, k: &mut KernelState) {
        // Wake thread `key` with one work segment.
        let tid = Tid(key as u32);
        k.thread_mut(tid).remaining = WORK;
        k.wake(tid);
    }

    fn on_segment_end(&mut self, _tid: Tid, k: &mut KernelState) -> Next {
        self.shared.lock().unwrap().run_starts.push(k.now - WORK);
        Next::Block
    }
}

/// Policy: measures delivery delay per message and commits every runnable
/// thread (singly or as one group), stamping commit boundaries.
struct ProbePolicy {
    shared: Shared,
    pending: Vec<(Tid, u64)>,
    group: bool,
    targets: Vec<CpuId>,
}

impl GhostPolicy for ProbePolicy {
    fn name(&self) -> &str {
        "probe"
    }

    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
        let observed = ctx.now() + ctx.busy_so_far();
        self.shared
            .lock()
            .unwrap()
            .delivery
            .record((observed - msg.produced_at) as f64);
        if msg.ty == MsgType::ThreadWakeup {
            self.pending.push((msg.tid, msg.seq));
        }
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        if self.pending.is_empty() {
            return;
        }
        let pre = ctx.now() + ctx.busy_so_far();
        let mut txns: Vec<Transaction> = self
            .pending
            .drain(..)
            .zip(self.targets.iter().cycle())
            .map(|((tid, seq), &cpu)| Transaction::new(tid, cpu).with_thread_seq(seq))
            .collect();
        if self.group {
            ctx.commit(&mut txns);
            let post = ctx.now() + ctx.busy_so_far();
            let mut p = self.shared.lock().unwrap();
            p.agent_overhead.record((post - pre) as f64);
            p.pre_commit.push(pre);
        } else {
            for txn in &mut txns {
                let pre = ctx.now() + ctx.busy_so_far();
                let mut t = *txn;
                ctx.commit(std::slice::from_mut(&mut t));
                let post = ctx.now() + ctx.busy_so_far();
                assert!(t.status.committed(), "probe commit failed: {:?}", t.status);
                let mut p = self.shared.lock().unwrap();
                p.agent_overhead.record((post - pre) as f64);
                p.pre_commit.push(pre);
            }
        }
    }
}

struct ProbeRun {
    /// Mean message delivery (produced → observed), ns.
    delivery: f64,
    /// Mean agent-side commit overhead, ns.
    agent: f64,
    /// Mean end-to-end (pre-commit → target thread running), ns.
    e2e: f64,
}

/// Runs one probe configuration.
///
/// `mode`: per-CPU (local) when `local` is true, otherwise centralized
/// with `targets` remote CPUs receiving `batch` wakeups at a time.
fn probe(local: bool, batch: usize) -> ProbeRun {
    let topo = Topology::skylake_112();
    let cfg = KernelConfig {
        tick_ns: 0, // No tick noise in the microbenchmarks.
        ..KernelConfig::default()
    };
    let mut kernel = Kernel::new(topo, cfg);
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let shared: Shared = Arc::new(Mutex::new(Probe::default()));

    let (enclave_cpus, targets, econf) = if local {
        // One-CPU enclave: the agent and the scheduled thread share cpu 1.
        let cpus: CpuSet = CpuSet::from_iter([CpuId(1)]);
        (
            cpus,
            vec![CpuId(1)],
            EnclaveConfig::per_cpu("t3-local").with_ticks(false),
        )
    } else {
        // Agent on cpu 0, targets on same-socket cpus 1..=batch.
        let mut cpus = CpuSet::from_iter([CpuId(0)]);
        let targets: Vec<CpuId> = (1..=batch as u16).map(CpuId).collect();
        for &c in &targets {
            cpus.add(c);
        }
        (cpus, targets, EnclaveConfig::centralized("t3-remote"))
    };
    let policy = ProbePolicy {
        shared: Arc::clone(&shared),
        pending: Vec::new(),
        group: !local,
        targets: targets.clone(),
    };
    let enclave = runtime.launch_enclave(&mut kernel, enclave_cpus, econf, Box::new(policy));

    let app_id = kernel.state.next_app_id();
    let mut tids = Vec::new();
    for i in 0..batch {
        let tid = kernel.spawn(
            ThreadSpec::workload(&format!("probe{i}"), &kernel.state.topo)
                .app(app_id)
                .affinity(enclave_cpus),
        );
        tids.push(tid);
    }
    kernel.add_app(Box::new(ProbeApp {
        shared: Arc::clone(&shared),
    }));
    for &tid in &tids {
        enclave.attach_thread(&mut kernel.state, tid);
    }
    // Wake all probe threads together every 100 µs, REPS times.
    for rep in 0..REPS {
        let at = (rep + 1) * 100 * MICROS;
        for &tid in &tids {
            kernel.state.arm_app_timer(at, app_id, tid.0 as u64);
        }
    }
    kernel.run_until((REPS + 2) * 100 * MICROS + 10 * MILLIS);

    let p = shared.lock().unwrap();
    assert!(
        p.run_starts.len() >= (REPS as usize - 2) * batch,
        "probe lost wakeups: {} of {}",
        p.run_starts.len(),
        REPS as usize * batch
    );
    // End-to-end: match each commit's pre-stamp with the LAST run start
    // it produced (for groups, the slowest target).
    let mut e2e = MeanTracker::default();
    let starts = &p.run_starts;
    let per_commit = if local { 1 } else { batch };
    for (i, &pre) in p.pre_commit.iter().enumerate() {
        let lo = i * per_commit;
        let hi = lo + per_commit;
        if hi <= starts.len() {
            let last = starts[lo..hi].iter().max().copied().unwrap_or(0);
            if last > pre {
                e2e.record((last - pre) as f64);
            }
        }
    }
    ProbeRun {
        delivery: p.delivery.mean(),
        agent: p.agent_overhead.mean(),
        e2e: e2e.mean(),
    }
}

fn within(measured: f64, paper: f64, tol: f64) -> bool {
    (measured - paper).abs() / paper <= tol
}

fn main() {
    let costs = CostModel::default();
    let local = probe(true, 1);
    let remote1 = probe(false, 1);
    let remote10 = probe(false, 10);

    // Derived target-side overheads: e2e − agent dispatch − propagation.
    let target1 = remote1.e2e - remote1.agent - costs.ipi_propagation as f64;
    let target10 = remote10.e2e - remote10.agent - costs.ipi_propagation as f64;

    let rows: Vec<(&str, f64, f64)> = vec![
        ("1. Message delivery to local agent", 725.0, local.delivery),
        (
            "2. Message delivery to global agent",
            265.0,
            remote1.delivery,
        ),
        ("3. Local schedule (1 txn)", 888.0, local.e2e),
        ("4. Remote schedule: agent overhead", 668.0, remote1.agent),
        ("5. Remote schedule: target overhead", 1064.0, target1),
        ("6. Remote schedule: end-to-end", 1772.0, remote1.e2e),
        (
            "7. Group remote (10): agent overhead",
            3964.0,
            remote10.agent,
        ),
        ("8. Group remote (10): target overhead", 1821.0, target10),
        ("9. Group remote (10): end-to-end", 5688.0, remote10.e2e),
        ("10. Syscall overhead", 72.0, costs.syscall as f64),
        (
            "11. pthread minimal context switch",
            410.0,
            costs.ctx_switch_min as f64,
        ),
        ("12. CFS context switch", 599.0, costs.ctx_switch_cfs as f64),
    ];

    let mut t = Table::new(vec!["operation", "paper (ns)", "measured (ns)", "delta"])
        .with_title("Table 3: ghOSt microbenchmarks (simulated Skylake)");
    for (name, paper, measured) in &rows {
        let delta = (measured - paper) / paper * 100.0;
        t.row(vec![
            name.to_string(),
            format!("{paper:.0}"),
            format!("{measured:.0}"),
            format!("{delta:+.1}%"),
        ]);
    }
    t.print();

    // Shape assertions: every row within 5% of the paper (the group e2e
    // row is allowed 5% for the documented overlap approximation).
    for (name, paper, measured) in &rows {
        assert!(
            within(*measured, *paper, 0.05),
            "{name}: measured {measured:.0} vs paper {paper:.0}"
        );
    }
    println!("\nOK: all 12 rows within 5% of the paper.");
}
