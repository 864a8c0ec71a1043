//! Ablations of the design choices the paper calls out:
//!
//! 1. **Group commit** (§3.2): batched vs one-syscall-one-IPI commits at
//!    a fixed CPU count (paper: 1.5 M → 2.52 M theoretical txns/s).
//! 2. **BPF PNT fast path** (§3.2/§5): scheduling delay for short tasks
//!    with and without the idle-time fast path.
//! 3. **Search placement** (§4.4): NUMA/CCX awareness and the 100 µs
//!    CCX-pending wait (paper: +27% NUMA, +10% CCX; here the effect
//!    shows as tail latency at fixed offered load).
//! 4. **Tick-less centralized mode** (§5): disabling timer ticks removes
//!    tick processing without changing scheduling behaviour.

use ghost_bench::{fig5, fig8};
use ghost_core::enclave::EnclaveConfig;
use ghost_core::msg::MsgType;
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::runtime::GhostRuntime;
use ghost_metrics::Table;
use ghost_policies::search::SearchConfig;
use ghost_policies::CentralizedFifo;
use ghost_sim::app::{App, AppId, Next};
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, ThreadSpec};
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MICROS, MILLIS, SECS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::CpuSet;
use ghost_workloads::search::{QueryType, SearchWorkloadConfig};

fn main() {
    group_commit_ablation();
    pnt_ablation();
    search_placement_ablation();
    tickless_ablation();
    println!("\nOK: all ablations show the expected direction.");
}

/// 1. Group commit on/off.
fn group_commit_ablation() {
    let n = 54; // Fully saturated: amortization is what capacity buys.
    let on = fig5::run_point(
        Topology::skylake_112(),
        n,
        fig5::FIG5_WORK,
        20 * MILLIS,
        80 * MILLIS,
        true,
    );
    let off = fig5::run_point(
        Topology::skylake_112(),
        n,
        fig5::FIG5_WORK,
        20 * MILLIS,
        80 * MILLIS,
        false,
    );
    let mut t = Table::new(vec!["commit strategy", "M txns/s @54 CPUs"])
        .with_title("Ablation 1: group commit (§3.2)");
    t.row(vec![
        "group (batched IPIs)".into(),
        format!("{:.3}", on.txns_per_sec / 1e6),
    ]);
    t.row(vec![
        "one txn per syscall".into(),
        format!("{:.3}", off.txns_per_sec / 1e6),
    ]);
    t.print();
    assert!(
        on.txns_per_sec > 1.1 * off.txns_per_sec,
        "group commit should clearly beat per-txn commits: {} vs {}",
        on.txns_per_sec,
        off.txns_per_sec
    );
    println!();
}

/// The §3.2/§5 acceleration: the normal centralized FIFO, plus the agent
/// pre-publishes its surplus backlog into the PNT rings so a CPU that
/// idles *between* agent activations picks its next thread synchronously
/// in the kernel instead of waiting out a commit round-trip.
struct PntFifo(CentralizedFifo);

impl GhostPolicy for PntFifo {
    fn name(&self) -> &str {
        "fifo+pnt"
    }
    fn on_msg(&mut self, msg: &ghost_core::Message, ctx: &mut PolicyCtx<'_>) {
        // Keep the rings clean: a thread that blocked or died must not
        // linger as a stale candidate ("The agent may revoke a thread
        // before BPF can schedule the thread").
        if matches!(msg.ty, MsgType::ThreadBlocked | MsgType::ThreadDead) {
            ctx.pnt_revoke(msg.tid);
        }
        self.0.on_msg(msg, ctx);
    }
    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        // Normal commits first (fill currently-idle CPUs)...
        self.0.schedule(ctx);
        // ...then hand the surplus backlog to the fast path. Pushing
        // transfers ownership: the ring either runs the thread when a
        // CPU idles, or the thread re-enters the policy via its next
        // message — double-tracking it here would let failed commits for
        // already-ring-run threads steal idle CPUs from real waiters.
        let node = ctx.topo().info(ctx.local_cpu()).socket as usize;
        let backlog: Vec<_> = std::iter::from_fn(|| self.0.rq.pop()).collect();
        for tid in backlog {
            ctx.pnt_revoke(tid);
            if !ctx.pnt_push(node, tid) {
                self.0.rq.push(tid); // Ring full: keep agent ownership.
                break;
            }
        }
    }
}

/// Pulse app for the PNT ablation: run briefly, block, re-woken by timer.
struct PulseApp {
    work: Nanos,
    period: Nanos,
    app_id: AppId,
    completions: u64,
}

impl App for PulseApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> &str {
        "pulse"
    }
    fn on_timer(&mut self, key: u64, k: &mut KernelState) {
        let tid = Tid(key as u32);
        if k.threads[tid.index()].state == ghost_sim::ThreadState::Blocked {
            k.thread_mut(tid).remaining = self.work;
            k.wake(tid);
        }
        k.arm_app_timer(k.now + self.period, self.app_id, key);
    }
    fn on_segment_end(&mut self, _tid: Tid, _k: &mut KernelState) -> Next {
        self.completions += 1;
        Next::Block
    }
}

/// 2. PNT fast path on/off: mean scheduling delay of short pulses.
fn pnt_ablation() {
    let run = |pnt: bool| -> (f64, u64) {
        let topo = Topology::skylake_112();
        let mut kernel = Kernel::new(topo, KernelConfig::default());
        let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
        let cpus: CpuSet = (0..=8u16).map(CpuId).collect();
        let config = if pnt {
            EnclaveConfig::centralized("pnt").with_pnt(256)
        } else {
            EnclaveConfig::centralized("pnt")
        };
        let policy: Box<dyn GhostPolicy> = if pnt {
            Box::new(PntFifo(CentralizedFifo::new()))
        } else {
            Box::new(CentralizedFifo::new())
        };
        let enclave = runtime.launch_enclave(&mut kernel, cpus, config, policy);
        let app_id = kernel.state.next_app_id();
        // Exact saturation: 16 pulsing threads over 8 worker CPUs, so a
        // blocking thread almost always has a successor waiting — the
        // regime where the handoff path (agent round-trip vs synchronous
        // kernel pick) is the latency.
        let mut tids = Vec::new();
        for i in 0..16 {
            let tid = kernel.spawn(
                ThreadSpec::workload(&format!("p{i}"), &kernel.state.topo)
                    .app(app_id)
                    .affinity(cpus),
            );
            tids.push(tid);
        }
        kernel.add_app(Box::new(PulseApp {
            work: 20 * MICROS,
            period: 40 * MICROS,
            app_id,
            completions: 0,
        }));
        for (i, &tid) in tids.iter().enumerate() {
            enclave.attach_thread(&mut kernel.state, tid);
            kernel
                .state
                .arm_app_timer((i as u64 + 1) * 7 * MICROS, app_id, tid.0 as u64);
        }
        kernel.run_until(500 * MILLIS);
        let total_wait: Nanos = tids
            .iter()
            .map(|&t| kernel.state.thread(t).total_wait)
            .sum();
        let stats = runtime.stats();
        let scheds = stats.txns_committed + stats.pnt_picks;
        (total_wait as f64 / scheds.max(1) as f64, stats.pnt_picks)
    };
    let (wait_off, picks_off) = run(false);
    let (wait_on, picks_on) = run(true);
    let mut t = Table::new(vec!["config", "mean sched delay (ns)", "PNT picks"])
        .with_title("Ablation 2: BPF pick_next_task fast path (§3.2/§5)");
    t.row(vec![
        "agent commits only".into(),
        format!("{wait_off:.0}"),
        picks_off.to_string(),
    ]);
    t.row(vec![
        "PNT fast path".into(),
        format!("{wait_on:.0}"),
        picks_on.to_string(),
    ]);
    t.print();
    assert_eq!(picks_off, 0);
    assert!(picks_on > 0, "PNT fast path never used");
    assert!(
        wait_on < wait_off,
        "PNT should reduce scheduling delay: {wait_on:.0} vs {wait_off:.0}"
    );
    println!();
}

/// 3. Search placement ablation (10-second runs).
fn search_placement_ablation() {
    let duration = 12 * SECS;
    let wl = SearchWorkloadConfig::default();
    let configs = [
        ("full (NUMA+CCX+pending)", SearchConfig::default()),
        (
            "no CCX pending wait",
            SearchConfig {
                ccx_pending_wait: None,
                ..SearchConfig::default()
            },
        ),
        (
            "no CCX awareness",
            SearchConfig {
                ccx_aware: false,
                ccx_pending_wait: None,
                ..SearchConfig::default()
            },
        ),
        (
            "no NUMA, no CCX",
            SearchConfig {
                numa_aware: false,
                ccx_aware: false,
                ccx_pending_wait: None,
                ..SearchConfig::default()
            },
        ),
    ];
    let mut t = Table::new(vec!["policy variant", "A p99 (ms)", "A mean (ms)", "A QPS"])
        .with_title("Ablation 3: Search placement heuristics (§4.4), type-A queries");
    let mut p99s = Vec::new();
    for (name, cfg) in configs {
        let res = fig8::run(fig8::SearchSched::Ghost(cfg), wl.clone(), duration);
        let h = &res.latency[&QueryType::A];
        let span = (duration - 2 * SECS) as f64 / 1e9;
        t.row(vec![
            name.into(),
            format!("{:.2}", h.percentile(99.0) as f64 / 1e6),
            format!("{:.2}", h.mean() / 1e6),
            format!("{:.0}", h.count() as f64 / span),
        ]);
        p99s.push((name, h.percentile(99.0)));
    }
    t.print();
    // Full placement must beat the placement-blind variant on type-A
    // tails (the paper's NUMA effect).
    let full = p99s[0].1 as f64;
    let blind = p99s[3].1 as f64;
    assert!(
        full < blind,
        "NUMA/CCX awareness should improve type-A tails: {full:.0} vs {blind:.0}"
    );
    println!();
}

/// 4. Tick-less centralized mode (§5).
fn tickless_ablation() {
    let run = |tick_ns: Nanos, deliver: bool| -> (u64, u64, u64) {
        let topo = Topology::test_small(8);
        let cfg = KernelConfig {
            tick_ns,
            ..KernelConfig::default()
        };
        let mut kernel = Kernel::new(topo, cfg);
        let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
        let cpus = kernel.state.topo.all_cpus_set();
        let enclave = runtime.launch_enclave(
            &mut kernel,
            cpus,
            EnclaveConfig::centralized("tickless").with_ticks(deliver),
            Box::new(CentralizedFifo::new()),
        );
        let app_id = kernel.state.next_app_id();
        let mut tids = Vec::new();
        for i in 0..8 {
            let tid = kernel
                .spawn(ThreadSpec::workload(&format!("w{i}"), &kernel.state.topo).app(app_id));
            tids.push(tid);
        }
        kernel.add_app(Box::new(PulseApp {
            work: 200 * MICROS,
            period: MILLIS,
            app_id,
            completions: 0,
        }));
        for (i, &tid) in tids.iter().enumerate() {
            enclave.attach_thread(&mut kernel.state, tid);
            kernel
                .state
                .arm_app_timer((i as u64 + 1) * 50 * MICROS, app_id, tid.0 as u64);
        }
        kernel.run_until(2 * SECS);
        let stats = runtime.stats();
        (
            kernel.state.stats.ticks,
            stats.posted(MsgType::TimerTick),
            stats.txns_committed,
        )
    };
    let (ticks_on, msgs_on, txns_on) = run(MILLIS, true);
    let (ticks_off, msgs_off, txns_off) = run(0, false);
    let mut t = Table::new(vec![
        "mode",
        "kernel ticks",
        "TIMER_TICK msgs",
        "txns committed",
    ])
    .with_title("Ablation 4: tick-less centralized mode (§5)");
    t.row(vec![
        "1 ms ticks".into(),
        ticks_on.to_string(),
        msgs_on.to_string(),
        txns_on.to_string(),
    ]);
    t.row(vec![
        "tick-less".into(),
        ticks_off.to_string(),
        msgs_off.to_string(),
        txns_off.to_string(),
    ]);
    t.print();
    assert_eq!(ticks_off, 0);
    assert_eq!(msgs_off, 0);
    assert!(msgs_on > 0);
    // Scheduling behaviour is unchanged: the spinning agent never needed
    // the ticks.
    let ratio = txns_off as f64 / txns_on.max(1) as f64;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "tick-less scheduling should be unchanged: {txns_on} vs {txns_off}"
    );
}
