//! Fig. 5: global-agent scalability. "The policy manages all threads in
//! a FIFO runqueue, scheduling them on CPUs as soon as CPUs become idle.
//! The agent groups as many transactions as possible per commit."
//!
//! Sweeping the number of scheduled CPUs exposes three regimes the paper
//! annotates: ❶ linear ramp-up, ❷ a drop when the global agent starts
//! sharing its physical core with a worker (SMT contention), and ❸ a
//! decline once scheduling crosses into the remote socket (NUMA costs).

use ghost_core::enclave::EnclaveConfig;
use ghost_core::runtime::GhostRuntime;
use ghost_policies::CentralizedFifo;
use ghost_sim::app::{App, Next};
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, ThreadSpec};
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::CpuSet;
use ghost_trace::TraceSink;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// Number of scheduled CPUs (excluding the agent's own).
    pub cpus: usize,
    /// Committed transactions per second of virtual time.
    pub txns_per_sec: f64,
}

/// Workload: threads that run a short segment and yield, so every CPU
/// continuously needs a fresh scheduling transaction.
struct YieldApp {
    work: Nanos,
}

impl App for YieldApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "fig5-yield"
    }

    fn on_timer(&mut self, _key: u64, _k: &mut KernelState) {}

    fn on_segment_end(&mut self, _tid: Tid, _k: &mut KernelState) -> Next {
        Next::Yield { dur: self.work }
    }
}

/// The CPU order in which the sweep adds scheduled CPUs: the agent's own
/// socket first (its SMT sibling last within that socket), then the
/// remote socket. This reproduces the paper's regimes in order.
pub fn sweep_order(topo: &Topology, agent: CpuId) -> Vec<CpuId> {
    let sibling = topo.sibling(agent);
    let agent_socket = topo.info(agent).socket;
    let mut local: Vec<CpuId> = topo
        .all_cpus()
        .filter(|&c| c != agent && Some(c) != sibling && topo.info(c).socket == agent_socket)
        .collect();
    local.sort();
    let mut order = local;
    if let Some(sib) = sibling {
        order.push(sib);
    }
    let mut remote: Vec<CpuId> = topo
        .all_cpus()
        .filter(|&c| topo.info(c).socket != agent_socket)
        .collect();
    remote.sort();
    order.extend(remote);
    order
}

/// Runs one sweep point: a centralized FIFO agent on CPU 0 scheduling
/// `scheduled` CPUs, with `group_commit` toggling the §3.2 batching
/// (the ablation disables it). The cohort is sized to keep every CPU
/// busy (`scheduled + 4` threads).
pub fn run_point(
    topo: Topology,
    scheduled: usize,
    work: Nanos,
    warmup: Nanos,
    measure: Nanos,
    group_commit: bool,
) -> Fig5Point {
    let threads = scheduled + 4;
    run_point_with_threads(
        topo,
        scheduled,
        threads,
        work,
        warmup,
        measure,
        group_commit,
    )
}

/// [`run_point`] with an explicit cohort size: `threads` yield-loop
/// threads contend for `scheduled` CPUs. Oversubscribed cohorts (far
/// more threads than CPUs) stress the agent's runqueue and the
/// runtime's dense thread tables — the `ghost-lab bench-sim` scale
/// sweep drives this up to a million threads on a 1024-CPU machine.
#[allow(clippy::too_many_arguments)]
pub fn run_point_with_threads(
    topo: Topology,
    scheduled: usize,
    threads: usize,
    work: Nanos,
    warmup: Nanos,
    measure: Nanos,
    group_commit: bool,
) -> Fig5Point {
    run_point_traced(
        topo,
        scheduled,
        threads,
        work,
        warmup,
        measure,
        group_commit,
        TraceSink::Null,
    )
}

/// [`run_point_with_threads`] recording into `trace`, so a test can pin
/// every scheduling decision of the point, not only its throughput.
#[allow(clippy::too_many_arguments)]
pub fn run_point_traced(
    topo: Topology,
    scheduled: usize,
    threads: usize,
    work: Nanos,
    warmup: Nanos,
    measure: Nanos,
    group_commit: bool,
    trace: TraceSink,
) -> Fig5Point {
    let agent_cpu = CpuId(0);
    let order = sweep_order(&topo, agent_cpu);
    let scheduled = scheduled.min(order.len());
    let mut cpus: CpuSet = order[..scheduled].iter().copied().collect();
    cpus.add(agent_cpu);

    // Worker SMT contention is disabled for this microbenchmark: its
    // threads are scheduling churn, not sustained pipeline pressure. The
    // paper's drop ❷ comes from the *agent's* slowdown when its sibling
    // runs work, which the runtime models independently (agent-side costs
    // scale by 1.25x when `sibling_busy`).
    let cfg = KernelConfig {
        smt_model: false,
        trace,
        ..KernelConfig::default()
    };
    let mut kernel = Kernel::new(topo, cfg);
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let mut policy = CentralizedFifo::new();
    policy.decision_cost = 20;
    let single_commit = !group_commit;
    let policy: Box<dyn ghost_core::GhostPolicy> = if single_commit {
        Box::new(NoGroupFifo(policy))
    } else {
        Box::new(policy)
    };
    // Provision the queue for the startup burst: attaching and waking
    // `threads` threads posts 2 messages each before the agent first
    // runs, and an overflowed queue silently strands the cohort (the
    // dropped wakeups never re-post). The default 65,536 capacity is
    // kept for ordinary sweep points so their behaviour is unchanged.
    let config =
        EnclaveConfig::centralized("fig5").with_queue_capacity(65_536.max(2 * threads + 1_024));
    let enclave = runtime.launch_enclave(&mut kernel, cpus, config, policy);

    let app_id = kernel.state.next_app_id();
    let mut tids = Vec::new();
    for i in 0..threads {
        let tid = kernel.spawn(
            ThreadSpec::workload(&format!("y{i}"), &kernel.state.topo)
                .app(app_id)
                .affinity(cpus),
        );
        tids.push(tid);
    }
    kernel.add_app(Box::new(YieldApp { work }));
    // Stagger initial phases: identical synchronized segments would
    // lock the cohort into giant batched commits with idle gaps.
    for (i, &tid) in tids.iter().enumerate() {
        enclave.attach_thread(&mut kernel.state, tid);
        let phase = work * (i as u64 + 1) / (tids.len() as u64 + 1);
        kernel.state.thread_mut(tid).remaining = phase.max(1_000);
    }
    for &tid in &tids {
        kernel.wake_now(tid);
    }

    kernel.run_until(warmup);
    let before = runtime.stats().txns_committed;
    kernel.run_until(warmup + measure);
    let after = runtime.stats().txns_committed;
    Fig5Point {
        cpus: scheduled,
        txns_per_sec: (after - before) as f64 / (measure as f64 / 1e9),
    }
}

/// A FIFO variant that commits one transaction per `TXNS_COMMIT()` call
/// — the no-group-commit ablation (every transaction pays its own
/// syscall and un-batched IPI).
struct NoGroupFifo(CentralizedFifo);

impl ghost_core::GhostPolicy for NoGroupFifo {
    fn name(&self) -> &str {
        "fifo-no-group"
    }

    fn on_msg(&mut self, msg: &ghost_core::Message, ctx: &mut ghost_core::PolicyCtx<'_>) {
        self.0.on_msg(msg, ctx);
    }

    fn schedule(&mut self, ctx: &mut ghost_core::PolicyCtx<'_>) {
        // Same decisions as the inner FIFO, but one commit call per txn.
        loop {
            let Some(cpu) = ctx.idle_cpus().first() else {
                return;
            };
            let Some(tid) = self.0.rq.pop() else {
                return;
            };
            ctx.charge(self.0.decision_cost);
            let txn = self.0.k.txn(tid, cpu);
            self.0.k.commit_one(ctx, txn, &mut self.0.rq);
        }
    }
}

/// Default sweep sizes for a topology: coarse steps plus a dense band
/// around the local-socket edge (where regimes ❷ and ❸ begin).
pub fn sweep_sizes(topo: &Topology) -> Vec<usize> {
    let max = topo.num_cpus() - 1;
    // Scheduled CPUs on the agent's socket (everything but the agent).
    let edge = topo.cores_per_socket() as usize * topo.threads_per_core() as usize - 1;
    let mut out: Vec<usize> = vec![1, 2];
    let mut n = 4;
    while n <= max {
        out.push(n);
        n += 4;
    }
    for d in edge.saturating_sub(3)..=(edge + 3).min(max) {
        out.push(d);
    }
    out.push(max);
    out.retain(|&x| (1..=max).contains(&x));
    out.sort_unstable();
    out.dedup();
    out
}

/// Runs the full Fig. 5 sweep for one machine.
pub fn run_sweep(topo: Topology, work: Nanos, group_commit: bool) -> Vec<Fig5Point> {
    sweep_sizes(&topo)
        .into_iter()
        .map(|n| {
            run_point(
                topo.clone(),
                n,
                work,
                20 * MILLIS,
                80 * MILLIS,
                group_commit,
            )
        })
        .collect()
}

/// The per-thread work segment used for the headline figure: short
/// enough that a ~50-CPU machine saturates a single agent near the
/// paper's >2 M txn/s peak.
pub const FIG5_WORK: Nanos = 25 * MICROS;

/// Per-thread work sized so the agent saturates just before the sweep
/// crosses the NUMA boundary (the condition for the paper's regime ❸ to
/// appear as a decline): demand at the socket edge ≈ 1.3x agent capacity.
pub fn work_for(topo: &Topology) -> Nanos {
    let local = topo.cores_per_socket() as u64 * topo.threads_per_core() as u64 - 2;
    (local * 1_000_000 / 2_100) * MICROS / 1_000
}
