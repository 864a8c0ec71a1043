//! The kernel surface `ghost-core` programs against.
//!
//! Everything the ghOSt runtime needs from the machine underneath it —
//! thread lifecycle, tick and timer delivery, IPI/preemption signaling,
//! context-switch commit, and the time source — is expressed as the
//! [`GhostBackend`] trait. The discrete-event kernel in `ghost-sim` is
//! one implementation (the deterministic one every digest is pinned
//! against); `ghost-live` implements the same trait over real OS
//! threads, a monotonic clock, and park/unpark signaling, so an
//! unmodified [`crate::policy::GhostPolicy`] schedules either world.
//!
//! The trait deliberately exposes *snapshots* ([`BackendThread`],
//! [`BackendCpu`]) rather than references into backend state: agents
//! never dereference kernel structures (§3.1 of the paper), and a live
//! backend cannot hand out references into state owned by other OS
//! threads anyway.

use ghost_sim::class::ClassId;
use ghost_sim::costs::CostModel;
use ghost_sim::cpuset::CpuSet;
use ghost_sim::faults::FaultPlan;
use ghost_sim::kernel::{KernelState, ThreadSpec};
use ghost_sim::thread::{ThreadKind, ThreadState, Tid};
use ghost_sim::time::Nanos;
use ghost_sim::topology::{CpuId, Topology};
use ghost_trace::TraceSink;

/// A point-in-time snapshot of one thread, as the runtime sees it.
#[derive(Debug, Clone, Copy)]
pub struct BackendThread {
    /// Run state.
    pub state: ThreadState,
    /// Workload or agent pthread.
    pub kind: ThreadKind,
    /// Scheduling class the thread currently belongs to.
    pub class: ClassId,
    /// CPU the thread occupies right now (`Running` only).
    pub cpu: Option<CpuId>,
    /// Last CPU the thread ran on.
    pub last_cpu: Option<CpuId>,
    /// Affinity mask.
    pub affinity: CpuSet,
    /// Nice value.
    pub nice: i8,
    /// Grouping cookie (e.g. VM id for core scheduling).
    pub cookie: u64,
    /// When the thread last became runnable (for starvation detection).
    pub runnable_since: Nanos,
    /// Total work completed, in backend time.
    pub total_work: Nanos,
}

/// A point-in-time snapshot of one CPU.
#[derive(Debug, Clone, Copy)]
pub struct BackendCpu {
    /// Thread currently on this CPU, if any.
    pub current: Option<Tid>,
    /// True when nothing is running or switching in.
    pub idle: bool,
    /// CFS threads queued (not running) behind this CPU — the
    /// hot-handoff pressure signal of §3.3.
    pub cfs_queued: u32,
}

impl BackendCpu {
    /// True if nothing is running or switching in.
    pub fn is_idle(&self) -> bool {
        self.idle
    }

    /// True if the CPU is occupied (busy or mid-switch).
    pub fn is_occupied(&self) -> bool {
        !self.idle
    }
}

/// The kernel surface the ghOSt runtime requires.
///
/// | hook | DES (`ghost-sim`) | live (`ghost-live`) |
/// |---|---|---|
/// | `now` | virtual event clock | monotonic wall clock |
/// | `wake`/`wake_at` | deferred-op buffer / event queue | unpark + timer heap |
/// | `send_ipi` | `Resched` event at `at` | preempt flag + unpark |
/// | `arm_driver_timer` | `DriverTimer` event | timer-thread heap |
/// | `spawn_agent` | agent `SimThread` | real `std::thread` |
/// | `kill` | deferred kill buffer | exit command + join |
/// | `faults` | `FaultPlan` over virtual time | `FaultPlan` over wall clock |
pub trait GhostBackend {
    /// Current time in nanoseconds (virtual or monotonic).
    fn now(&self) -> Nanos;

    /// Machine topology.
    fn topo(&self) -> &Topology;

    /// Operation cost model (used to charge agent busy time).
    fn costs(&self) -> &CostModel;

    /// Tracepoint sink.
    fn trace(&self) -> &TraceSink;

    /// Snapshot of a thread.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was never spawned; agent-supplied ids go through
    /// [`GhostBackend::thread_checked`].
    fn thread(&self, tid: Tid) -> BackendThread;

    /// Snapshot of a thread, or `None` if `tid` names no thread this
    /// backend ever spawned — the enforcement hook for validating
    /// agent-supplied tids.
    fn thread_checked(&self, tid: Tid) -> Option<BackendThread>;

    /// Snapshot of a CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    fn cpu(&self, cpu: CpuId) -> BackendCpu;

    /// Snapshot of a CPU, or `None` if `cpu` names no CPU of this machine
    /// (for agent-supplied ids).
    fn cpu_checked(&self, cpu: CpuId) -> Option<BackendCpu>;

    /// True if `cpu`'s SMT sibling is occupied.
    fn sibling_busy(&self, cpu: CpuId) -> bool;

    /// Folds any in-progress stint into the thread's `total_work` so a
    /// subsequent [`GhostBackend::thread`] snapshot is current.
    fn sync_runtime(&mut self, tid: Tid);

    /// Makes a blocked thread runnable (no-op if already active/dead).
    fn wake(&mut self, tid: Tid);

    /// Wakes `tid` at the future time `at`.
    fn wake_at(&mut self, at: Nanos, tid: Tid);

    /// Requests killing `tid`.
    fn kill(&mut self, tid: Tid);

    /// Requests moving `tid` into scheduling class `class`.
    fn move_to_class(&mut self, tid: Tid, class: ClassId);

    /// Delivers a reschedule interrupt to `cpu`, logically arriving at
    /// `at` (propagation delay already folded in by the caller).
    fn send_ipi(&mut self, cpu: CpuId, at: Nanos);

    /// Arms a timer delivered back to the runtime via its timer hook.
    fn arm_driver_timer(&mut self, at: Nanos, key: u64);

    /// Schedules a re-activation of a spinning agent thread at `at`; at
    /// most one loop stays live per agent (earlier requests supersede).
    fn schedule_agent_loop(&mut self, at: Nanos, tid: Tid);

    /// Spawns an agent pthread pinned to `cpu`, starting blocked.
    fn spawn_agent(&mut self, name: &str, cpu: CpuId) -> Tid;

    /// The injected fault schedule; the runtime evaluates its window
    /// predicates (queue overflow, agent hang, agent slow) against
    /// [`GhostBackend::now`].
    fn faults(&self) -> &FaultPlan;
}

impl GhostBackend for KernelState {
    fn now(&self) -> Nanos {
        self.now
    }

    fn topo(&self) -> &Topology {
        &self.topo
    }

    fn costs(&self) -> &CostModel {
        &self.costs
    }

    fn trace(&self) -> &TraceSink {
        &self.cfg.trace
    }

    fn thread(&self, tid: Tid) -> BackendThread {
        let t = &self.threads[tid.index()];
        BackendThread {
            state: t.state,
            kind: t.kind,
            class: t.class,
            cpu: t.cpu,
            last_cpu: t.last_cpu,
            affinity: t.affinity,
            nice: t.nice,
            cookie: t.cookie,
            runnable_since: t.runnable_since,
            total_work: t.total_work,
        }
    }

    fn thread_checked(&self, tid: Tid) -> Option<BackendThread> {
        self.valid_tid(tid).then(|| GhostBackend::thread(self, tid))
    }

    fn cpu(&self, cpu: CpuId) -> BackendCpu {
        let c = &self.cpus[cpu.index()];
        BackendCpu {
            current: c.current,
            idle: c.is_idle(),
            cfs_queued: c.cfs_queued,
        }
    }

    fn cpu_checked(&self, cpu: CpuId) -> Option<BackendCpu> {
        self.valid_cpu(cpu).then(|| GhostBackend::cpu(self, cpu))
    }

    fn sibling_busy(&self, cpu: CpuId) -> bool {
        KernelState::sibling_busy(self, cpu)
    }

    fn sync_runtime(&mut self, tid: Tid) {
        KernelState::sync_runtime(self, tid);
    }

    fn wake(&mut self, tid: Tid) {
        KernelState::wake(self, tid);
    }

    fn wake_at(&mut self, at: Nanos, tid: Tid) {
        KernelState::wake_at(self, at, tid);
    }

    fn kill(&mut self, tid: Tid) {
        KernelState::kill(self, tid);
    }

    fn move_to_class(&mut self, tid: Tid, class: ClassId) {
        KernelState::move_to_class(self, tid, class);
    }

    fn send_ipi(&mut self, cpu: CpuId, at: Nanos) {
        KernelState::send_ipi(self, cpu, at);
    }

    fn arm_driver_timer(&mut self, at: Nanos, key: u64) {
        KernelState::arm_driver_timer(self, at, key);
    }

    fn schedule_agent_loop(&mut self, at: Nanos, tid: Tid) {
        KernelState::schedule_agent_loop(self, at, tid);
    }

    fn spawn_agent(&mut self, name: &str, cpu: CpuId) -> Tid {
        self.spawn_agent_thread(
            ThreadSpec::workload(name, &self.topo)
                .affinity(CpuSet::from_iter([cpu]))
                .agent(),
        )
    }

    fn faults(&self) -> &FaultPlan {
        &self.cfg.faults
    }
}
