//! The ghOSt runtime: kernel scheduling class + agent driver + userspace
//! control surface.
//!
//! [`GhostRuntime`] is three faces of one shared state, `Core`:
//!
//! * the kernel scheduling class installed *below* CFS (slot
//!   [`CLASS_GHOST`]; on the DES one `GhostClass` there serves this face
//!   and the next): it emits Table 1 messages on thread state changes
//!   and runs only threads that agents committed via transactions (or
//!   the PNT fast path) — `class`, `post`;
//! * the agent driver: drain queue → policy → commit, with all costs
//!   charged to backend time — `agent`, `commit`;
//! * the "userspace process" view: create enclaves, attach threads,
//!   stage upgrades, lend CPUs, read stats — this file and
//!   [`EnclaveHandle`], over `control`, `recovery` and `lending`.
//!
//! Every state transition is an `impl Core` method taking
//! `&mut dyn GhostBackend`, in the module that owns its concern. This
//! file is the only one that knows where `Core` lives: in a shared cell
//! behind the one lock, where handles and ghost-live's hooks reach it, or
//! checked out by `GhostClass` for the length of a DES `run_until`.

mod agent;
mod class;
mod commit;
mod control;
mod lending;
mod post;
mod recovery;
mod stats;

pub(crate) use commit::CommitScratch;
pub use stats::GhostStats;

use crate::abi::AbiError;
use crate::backend::GhostBackend;
use crate::enclave::{Enclave, EnclaveConfig, EnclaveId};
use crate::lease::{Lease, LeaseStats, LeaseTable};
use crate::msg::Message;
use crate::policy::GhostPolicy;
use crate::rm::{RmConfig, RmState, RmStats};
use crate::slab::TidMap;
use ghost_sim::agent::AgentOutcome;
use ghost_sim::class::{OffCpuReason, SchedClass, CLASS_GHOST};
use ghost_sim::cpuset::CpuSet;
use ghost_sim::faults::FaultKind;
use ghost_sim::kernel::{Kernel, KernelState};
use ghost_sim::thread::Tid;
use ghost_sim::time::Nanos;
use ghost_sim::topology::CpuId;
use std::sync::{Arc, Mutex};

/// Builds a fresh policy instance for a standby agent respawn.
type PolicyFactory = Box<dyn Fn() -> Box<dyn GhostPolicy> + Send>;

/// The enclave table: one slot per [`EnclaveId`] ever issued. A field of
/// its own so a borrowed enclave leaves the rest of `Core` usable.
#[derive(Default)]
struct Enclaves(Vec<Option<Enclave>>);

impl Enclaves {
    fn get(&self, id: EnclaveId) -> Option<&Enclave> {
        self.0.get(id.0 as usize)?.as_ref()
    }

    fn get_mut(&mut self, id: EnclaveId) -> Option<&mut Enclave> {
        self.0.get_mut(id.0 as usize)?.as_mut()
    }
}

struct Core {
    enclaves: Enclaves,
    /// Per-enclave policy slots, indexed like `enclaves`: the running
    /// policy, the one staged for upgrade, and the standby factory.
    policies: Vec<Option<Box<dyn GhostPolicy>>>,
    staged: Vec<Option<Box<dyn GhostPolicy>>>,
    standby_factories: Vec<Option<PolicyFactory>>,
    thread_enclave: TidMap<EnclaveId>,
    pending_attach: TidMap<EnclaveId>,
    agent_enclave: TidMap<(EnclaveId, CpuId)>,
    cpu_enclave: Vec<Option<EnclaveId>>,
    installed: bool,
    stats: GhostStats,
    /// Reused activation drain buffer: every agent activation moves its
    /// batch of messages through this one allocation instead of building
    /// a fresh `Vec` per activation (and per queue).
    drain_buf: Vec<Message>,
    /// Reused commit-pass scratch, lent to [`crate::policy::PolicyCtx`]
    /// for the duration of an activation so group commits never allocate
    /// in steady state.
    commit_scratch: CommitScratch,
    /// Kernel-side table of active CPU leases. Deliberately *not* part
    /// of the RM state: deadlines are enforced from here by driver
    /// timers even while the RM is crashed.
    leases: LeaseTable,
    /// The in-process resource manager; `None` models a crashed RM.
    rm: Option<RmState>,
    /// Last RM launch parameters, kept across crashes so a restart can
    /// reconstruct without re-negotiating its configuration.
    rm_spec: Option<(RmConfig, EnclaveId, EnclaveId)>,
    /// Timer-staleness token: bumped on every RM (re)start; epoch
    /// timers carrying an older token are from a dead incarnation.
    rm_token: u64,
    /// Cumulative RM failovers (restarts after a crash).
    rm_restarts: u32,
}

impl Core {
    /// The enclave scheduling `cpu`; total, a forged id owns nothing.
    fn enclave_of_cpu(&self, cpu: CpuId) -> Option<EnclaveId> {
        self.cpu_enclave.get(cpu.index()).copied().flatten()
    }

    /// Existence/liveness gate shared by every enclave-scoped entry point.
    fn check_enclave(&self, id: EnclaveId) -> Result<(), AbiError> {
        match self.enclaves.get(id) {
            None => Err(AbiError::NoSuchEnclave),
            Some(e) if e.destroyed => Err(AbiError::EnclaveDestroyed),
            Some(_) => Ok(()),
        }
    }
}

fn core_key_of(k: &dyn GhostBackend, cpu: CpuId) -> CpuId {
    k.topo()
        .core_cpus(cpu)
        .first()
        .expect("core has at least one CPU")
}

/// Where `tid` last ran — the CPU its messages are attributed to.
fn last_cpu(k: &dyn GhostBackend, tid: Tid) -> CpuId {
    k.thread(tid).last_cpu.unwrap_or(CpuId(0))
}

/// Panic message of a handle call made while a kernel runs.
const CHECKED_OUT: &str =
    "ghOSt runtime state is checked out by a running kernel: use runtime handles between `run_until` calls";

/// The shared-everything runtime; clone freely (all clones are views of
/// the same state).
///
/// `Send + Sync`: the state sits in an `Arc<Mutex<..>>` cell so an entire
/// wired simulation can run on a `ghost-lab` worker thread, and so the
/// kernel-less accessors ([`GhostRuntime::stats`], the [`EnclaveHandle`]
/// getters) work from any clone. On the DES the cell is empty while
/// `Kernel::run_until` runs — the kernel's `GhostClass` holds `Core`
/// and its hooks take no lock — so a handle call made from inside a run
/// panics with "checked out by a running kernel". ghost-live keeps `Core`
/// in the cell: there the lock really is shared by agent threads.
#[derive(Clone)]
pub struct GhostRuntime {
    shared: Arc<Mutex<Option<Box<Core>>>>,
}

/// A typed handle to one live enclave: the runtime plus the enclave's id.
///
/// [`GhostRuntime::launch_enclave`] returns one after installing the
/// class (if needed), creating the enclave, and spawning its agents — so
/// holding an `EnclaveHandle` means the enclave is fully wired and a
/// scenario cannot forget a setup step. Every per-enclave call (attach,
/// upgrade, standby, lending, teardown, inspection) lives here;
/// [`GhostRuntime::handle`] wraps a raw or forged id for ABI probing.
#[derive(Clone)]
pub struct EnclaveHandle {
    runtime: GhostRuntime,
    id: EnclaveId,
}

impl GhostRuntime {
    /// Creates a runtime for a machine with `num_cpus` CPUs.
    pub fn new(num_cpus: usize) -> Self {
        Self {
            shared: Arc::new(Mutex::new(Some(Box::new(Core {
                enclaves: Enclaves::default(),
                policies: Vec::new(),
                staged: Vec::new(),
                standby_factories: Vec::new(),
                thread_enclave: TidMap::new(),
                pending_attach: TidMap::new(),
                agent_enclave: TidMap::new(),
                cpu_enclave: vec![None; num_cpus],
                installed: false,
                stats: GhostStats::default(),
                drain_buf: Vec::new(),
                commit_scratch: CommitScratch::default(),
                leases: LeaseTable::new(),
                rm: None,
                rm_spec: None,
                rm_token: 0,
                rm_restarts: 0,
            })))),
        }
    }

    /// Runs `f` on the shared cell: the one place the lock is taken.
    fn cell<R>(&self, f: impl FnOnce(&mut Option<Box<Core>>) -> R) -> R {
        f(&mut self
            .shared
            .lock()
            .expect("a runtime call panicked while holding the state lock"))
    }

    /// Runs `f` on `Core`; panics if a running kernel has it checked out.
    fn with<R>(&self, f: impl FnOnce(&mut Core) -> R) -> R {
        self.cell(|c| f(c.as_mut().expect(CHECKED_OUT)))
    }

    /// The canonical DES setup path: installs the ghOSt class (a
    /// `GhostClass`) on first use, creates the enclave, spawns its pinned
    /// agents, settles the kernel, and returns a typed [`EnclaveHandle`]
    /// — so a scenario cannot forget to install or spawn.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is empty, out of range, or overlaps an existing
    /// enclave; [`GhostRuntime::try_create_enclave`] is the typed-error
    /// probe.
    pub fn launch_enclave(
        &self,
        kernel: &mut Kernel,
        cpus: CpuSet,
        config: EnclaveConfig,
        policy: Box<dyn GhostPolicy>,
    ) -> EnclaveHandle {
        if !self.with(|c| std::mem::replace(&mut c.installed, true)) {
            let class = GhostClass {
                runtime: self.clone(),
                core: None,
            };
            kernel.install_class(CLASS_GHOST, Box::new(class));
        }
        let handle = self.launch_enclave_on(&mut kernel.state, cpus, config, policy);
        kernel.settle();
        handle
    }

    /// [`GhostRuntime::launch_enclave`] against any backend (`AGENT_INIT()`
    /// for every enclave CPU): creates the enclave and spawns one pinned
    /// agent per CPU with its [`crate::enclave::AgentMode`] queue wiring.
    /// The caller owns the backend's class/driver plumbing and settles it
    /// afterwards (the spawns and the global agent's wake are deferred).
    pub fn launch_enclave_on(
        &self,
        k: &mut dyn GhostBackend,
        cpus: CpuSet,
        config: EnclaveConfig,
        policy: Box<dyn GhostPolicy>,
    ) -> EnclaveHandle {
        let id = self
            .try_create_enclave(cpus, config, policy)
            .unwrap_or_else(|err| panic!("launch_enclave: {err}"));
        self.with(|c| c.spawn_agents(k, id));
        self.handle(id)
    }

    /// Wraps an enclave id — possibly raw or forged — in a typed handle.
    pub fn handle(&self, id: EnclaveId) -> EnclaveHandle {
        EnclaveHandle {
            runtime: self.clone(),
            id,
        }
    }

    /// Validated enclave creation, with no agents spawned yet: rejects an
    /// empty CPU set, CPU ids the machine does not have, and CPUs already
    /// owned by another enclave with a typed [`AbiError`].
    pub fn try_create_enclave(
        &self,
        cpus: CpuSet,
        config: EnclaveConfig,
        policy: Box<dyn GhostPolicy>,
    ) -> Result<EnclaveId, AbiError> {
        self.with(|c| c.try_create_enclave(cpus, config, policy))
    }

    /// Validated hint publication (the workload side of Fig. 1's
    /// "optional scheduling hints" arrow; the next activation reads it
    /// via `PolicyCtx::hint`): rejects tids the runtime does not manage —
    /// and hints for a dead enclave — with a typed [`AbiError`] instead
    /// of silently dropping them.
    pub fn try_set_hint(&self, tid: Tid, hint: u64) -> Result<(), AbiError> {
        self.with(|c| c.try_set_hint(tid, hint))
    }

    /// Snapshot of runtime statistics.
    pub fn stats(&self) -> GhostStats {
        self.with(|c| c.stats.clone())
    }

    // -- Core lending (deadline-bounded leases) -----------------------------

    /// Returns a leased CPU to its lender before the deadline.
    pub fn try_reclaim_cpu(&self, k: &mut dyn GhostBackend, cpu: CpuId) -> Result<(), AbiError> {
        self.with(|c| c.try_reclaim_cpu(k, cpu))
    }

    /// Active leases, sorted by CPU id.
    pub fn leases(&self) -> Vec<Lease> {
        self.with(|c| c.leases.iter().copied().collect())
    }

    /// Aggregate lease counters.
    pub fn lease_stats(&self) -> LeaseStats {
        self.with(|c| c.leases.stats)
    }

    /// Which live enclave currently schedules `cpu`, if any.
    pub fn cpu_owner(&self, cpu: CpuId) -> Option<EnclaveId> {
        self.with(|c| c.enclave_of_cpu(cpu))
    }

    // -- Resource manager (in-process control plane) ------------------------

    /// Starts the in-process resource manager supervising `protected`
    /// (the latency-sensitive borrower) and `donor` (the batch lender).
    /// The RM samples per-enclave health each epoch and decides
    /// lend/return/quarantine; leases it negotiates are kernel state and
    /// survive its death.
    pub fn rm_start(
        &self,
        k: &mut dyn GhostBackend,
        config: RmConfig,
        protected: EnclaveId,
        donor: EnclaveId,
    ) {
        self.with(|c| {
            c.rm_spec = Some((config, protected, donor));
            c.rm_launch(k, 0);
        });
    }

    /// Fault injection: kills the RM task in place. Active leases stay
    /// in the kernel-side table and their deadlines keep firing; the
    /// enclaves run standalone. Returns false if no RM was running.
    pub fn rm_crash(&self) -> bool {
        self.with(|c| c.rm.take().is_some())
    }

    /// Restarts a crashed RM, reconstructing its view from enclave
    /// snapshots (current reject counters, live lease table). Returns
    /// false if the RM is still running or was never started.
    pub fn rm_restart(&self, k: &mut dyn GhostBackend) -> bool {
        self.with(|c| c.rm_restart(k))
    }

    /// True while the RM task is alive.
    pub fn rm_alive(&self) -> bool {
        self.with(|c| c.rm.is_some())
    }

    /// Decision counters of the running RM (None after a crash).
    pub fn rm_stats(&self) -> Option<RmStats> {
        self.with(|c| c.rm.as_ref().map(|r| r.stats))
    }
}

/// Scheduling-event entry points for a live backend (`ghost-live`), which
/// calls them when real threads block, wake, tick, or get picked. Each
/// takes the lock; the DES kernel reaches the same `Core` methods through
/// `GhostClass` instead, lock-free inside a run.
impl GhostRuntime {
    /// A thread became runnable (`THREAD_WAKEUP`).
    pub fn hook_enqueue(&self, k: &mut dyn GhostBackend, tid: Tid) {
        self.with(|c| c.enqueue(k, tid))
    }

    /// A runnable thread left the class (kill or class move).
    pub fn hook_dequeue(&self, tid: Tid) {
        self.with(|c| c.dequeue(tid))
    }

    /// The backend asks what to run on an idle `cpu` (committed slot
    /// or PNT fast path).
    pub fn hook_pick_next(&self, k: &mut dyn GhostBackend, cpu: CpuId) -> Option<Tid> {
        self.with(|c| c.pick_next(k, cpu))
    }

    /// True while a committed transaction waits for `cpu` to act on it.
    /// A backend whose agents do not occupy their CPU asks this before
    /// preempting a running thread on a parking agent's behalf.
    pub fn hook_commit_pending(&self, cpu: CpuId) -> bool {
        self.with(|c| c.commit_pending(cpu))
    }

    /// A thread came off `cpu` for `reason`.
    pub fn hook_put_prev(
        &self,
        k: &mut dyn GhostBackend,
        tid: Tid,
        cpu: CpuId,
        reason: OffCpuReason,
    ) {
        self.with(|c| c.put_prev(k, tid, cpu, reason))
    }

    /// Timer tick on `cpu` (`CPU_TICK` delivery).
    pub fn hook_tick(&self, k: &mut dyn GhostBackend, cpu: CpuId) {
        self.with(|c| c.tick(k, cpu))
    }

    /// A thread entered the ghOSt class (`THREAD_CREATED` / reclaim).
    pub fn hook_attach(&self, k: &mut dyn GhostBackend, tid: Tid) {
        self.with(|c| c.attach(k, tid))
    }

    /// A thread left the ghOSt class (`THREAD_DEAD` to the policy).
    pub fn hook_detach(&self, k: &mut dyn GhostBackend, tid: Tid) {
        self.with(|c| c.detach(k, tid))
    }

    /// One agent activation on `cpu` (the backend's `run_agent` hook).
    pub fn hook_run_agent(&self, k: &mut dyn GhostBackend, tid: Tid, cpu: CpuId) -> AgentOutcome {
        self.with(|c| c.run_agent(k, tid, cpu))
    }

    /// A driver timer fired (watchdog scan, respawn backoff, lease
    /// deadline, or resource-manager epoch).
    pub fn hook_timer(&self, k: &mut dyn GhostBackend, key: u64) {
        self.with(|c| c.timer(k, key))
    }

    /// An injected fault arrived (only `Upgrade` is interpreted).
    pub fn hook_fault(&self, k: &mut dyn GhostBackend, fault: &FaultKind) {
        self.with(|c| c.fault(k, fault))
    }

    /// An agent pthread died (crash path, §3.4).
    pub fn hook_agent_killed(&self, k: &mut dyn GhostBackend, tid: Tid) {
        self.with(|c| c.agent_killed(k, tid))
    }
}

/// The DES face of a [`GhostRuntime`]: the one object in the kernel's
/// [`CLASS_GHOST`] slot, serving both the class hooks and the agent
/// driver hooks. `enter` checks `Core` out of the shared cell and `leave`
/// puts it back, so every hook inside `Kernel::run_until` is a plain call
/// on `&mut Core`. Hooks between runs (setup `settle`, `spawn`,
/// `wake_now`, `kill`) find the cell full and take the lock. The same
/// `Core` methods run in the same order either way, so the schedule is
/// unchanged. It keeps the default `on_tick`: agents drive all preemption
/// decisions, so the kernel class never preempts on its own.
struct GhostClass {
    runtime: GhostRuntime,
    /// `Some` exactly between `enter` and `leave`.
    core: Option<Box<Core>>,
}

impl GhostClass {
    fn with<R>(&mut self, f: impl FnOnce(&mut Core) -> R) -> R {
        match &mut self.core {
            Some(core) => f(core),
            None => self.runtime.with(f),
        }
    }
}

impl SchedClass for GhostClass {
    fn name(&self) -> &'static str {
        "ghost"
    }

    fn enqueue(&mut self, tid: Tid, k: &mut KernelState) -> Option<CpuId> {
        // No kernel runqueue: the agent is told instead, and picks a CPU.
        self.with(|c| c.enqueue(k, tid));
        None
    }

    fn dequeue(&mut self, tid: Tid, _k: &mut KernelState) {
        self.with(|c| c.dequeue(tid))
    }

    fn pick_next(&mut self, cpu: CpuId, k: &mut KernelState) -> Option<Tid> {
        self.with(|c| c.pick_next(k, cpu))
    }

    fn put_prev(&mut self, tid: Tid, cpu: CpuId, _still_runnable: bool, k: &mut KernelState) {
        // `offcpu_reason` is DES bookkeeping, not backend surface: read
        // it here, in the adapter, and pass it explicitly.
        let reason = k.offcpu_reason;
        self.with(|c| c.put_prev(k, tid, cpu, reason))
    }

    fn on_tick_all(&mut self, cpu: CpuId, k: &mut KernelState) {
        self.with(|c| c.tick(k, cpu))
    }

    fn has_runnable(&self, cpu: CpuId, k: &KernelState) -> bool {
        match &self.core {
            Some(core) => core.has_runnable(k, cpu),
            None => self.runtime.with(|c| c.has_runnable(k, cpu)),
        }
    }

    fn on_attach(&mut self, tid: Tid, k: &mut KernelState) {
        self.with(|c| c.attach(k, tid))
    }

    fn on_detach(&mut self, tid: Tid, k: &mut KernelState) {
        self.with(|c| c.detach(k, tid))
    }

    fn on_affinity_changed(&mut self, tid: Tid, k: &mut KernelState) {
        self.with(|c| c.affinity_changed(k, tid))
    }

    fn run_agent(&mut self, tid: Tid, cpu: CpuId, k: &mut KernelState) -> AgentOutcome {
        self.with(|c| c.run_agent(k, tid, cpu))
    }

    fn on_timer(&mut self, key: u64, k: &mut KernelState) {
        self.with(|c| c.timer(k, key))
    }

    fn on_fault(&mut self, fault: &FaultKind, k: &mut KernelState) {
        self.with(|c| c.fault(k, fault))
    }

    fn on_agent_killed(&mut self, tid: Tid, k: &mut KernelState) {
        self.with(|c| c.agent_killed(k, tid))
    }

    fn enter(&mut self) {
        self.core = Some(self.runtime.cell(Option::take).expect(CHECKED_OUT));
    }

    fn leave(&mut self) {
        self.runtime.cell(|c| *c = self.core.take());
    }
}

impl EnclaveHandle {
    /// The raw enclave id (for trace matching and low-level calls).
    pub fn id(&self) -> EnclaveId {
        self.id
    }

    /// The runtime this enclave belongs to.
    pub fn runtime(&self) -> &GhostRuntime {
        &self.runtime
    }

    /// `START_GHOST()`: attaches a native thread to this enclave (moves it
    /// into the ghOSt scheduling class, generating `THREAD_CREATED`, and
    /// `THREAD_WAKEUP` if it is runnable). An invalid request is rejected
    /// and counted; [`EnclaveHandle::try_attach_thread`] returns the cause.
    pub fn attach_thread(&self, k: &mut dyn GhostBackend, tid: Tid) {
        let _ = self.try_attach_thread(k, tid);
    }

    /// Validated attach: rejects dead/nonexistent tids, agent pthreads,
    /// threads already in an enclave, and dead or unknown enclaves with a
    /// typed [`AbiError`] instead of corrupting the registry.
    pub fn try_attach_thread(&self, k: &mut dyn GhostBackend, tid: Tid) -> Result<(), AbiError> {
        self.runtime.with(|c| c.try_attach_thread(k, self.id, tid))
    }

    /// Stages a new policy version for an in-place upgrade (§3.4): "the
    /// new agent blocks until the old agent crashes or exits", then takes
    /// over. Staging onto a dead or unknown enclave drops the policy.
    pub fn stage_upgrade(&self, policy: Box<dyn GhostPolicy>) {
        let _ = self.try_stage_upgrade(policy);
    }

    /// Validated staging: rejects dead or unknown enclaves with a typed
    /// [`AbiError`] (the policy object is dropped).
    pub fn try_stage_upgrade(&self, policy: Box<dyn GhostPolicy>) -> Result<(), AbiError> {
        self.runtime.with(|c| c.try_stage_upgrade(self.id, policy))
    }

    /// Promotes the staged policy right now (§3.4); false if none staged
    /// (or the enclave is gone).
    pub fn upgrade_now(&self, k: &mut dyn GhostBackend) -> bool {
        self.try_upgrade_now(k).is_ok()
    }

    /// Validated in-place upgrade: the staged policy takes over and
    /// rebuilds its view by scanning the status words of the enclave's
    /// threads at its next activation — no synthetic message replay —
    /// under an `Aseq` barrier on every agent. Rejects dead or unknown
    /// enclaves and upgrades with nothing staged with a typed
    /// [`AbiError`].
    pub fn try_upgrade_now(&self, k: &mut dyn GhostBackend) -> Result<(), AbiError> {
        self.runtime.with(|c| c.try_upgrade_now(k, self.id))
    }

    /// Registers a policy factory for standby respawns in degraded-mode
    /// failover (§3.4): each respawned agent starts from a fresh policy
    /// instance and rebuilds purely from the status-word scan. Without a
    /// factory the surviving in-memory policy object is re-seeded in
    /// place (the reconstruction still runs). On a dead or unknown
    /// enclave the factory is dropped and the rejection counted.
    pub fn set_standby_policy(&self, factory: impl Fn() -> Box<dyn GhostPolicy> + Send + 'static) {
        self.runtime
            .with(|c| c.set_standby_policy(self.id, Box::new(factory)));
    }

    /// Destroys the enclave: threads fall back to CFS, agents die.
    pub fn destroy(&self, k: &mut dyn GhostBackend) {
        let _ = self.try_destroy(k);
    }

    /// Validated destruction: rejects double destroys and unknown ids
    /// with a typed [`AbiError`].
    pub fn try_destroy(&self, k: &mut dyn GhostBackend) -> Result<(), AbiError> {
        self.runtime.with(|c| c.try_destroy_enclave(k, self.id))
    }

    /// Agent pthreads of the enclave, in agent-CPU order (for crash
    /// injection in tests — a deterministic order keeps "kill the first
    /// satellite" reproducible).
    pub fn agent_tids(&self) -> Vec<Tid> {
        self.get(Enclave::agent_tids).unwrap_or_default()
    }

    /// The agent pthread pinned to `cpu`, if the enclave owns that CPU.
    pub fn agent_on(&self, cpu: CpuId) -> Option<Tid> {
        self.get(|e| e.agents.get(cpu).map(|a| a.tid)).flatten()
    }

    /// The current global agent of a centralized enclave.
    pub fn global_agent(&self) -> Option<Tid> {
        self.get(|e| e.global_agent).flatten()
    }

    /// True while the enclave exists and has not been destroyed.
    pub fn alive(&self) -> bool {
        self.get(|e| !e.destroyed).unwrap_or(false)
    }

    /// True while the enclave is in §3.4 degraded mode: its agent died,
    /// threads were shed to CFS, and recovery (standby respawn + thread
    /// reclaim) has not yet completed. Embedding services poll this to
    /// drive graceful degradation (load shedding, timeouts) while the
    /// scheduler is down.
    pub fn degraded(&self) -> bool {
        self.get(|e| e.recovery.is_some()).unwrap_or(false)
    }

    /// This enclave's current CPU partition (including borrowed CPUs,
    /// excluding lent-out ones), sorted.
    pub fn cpus(&self) -> Vec<CpuId> {
        self.get(|e| e.cpus.iter().collect()).unwrap_or_default()
    }

    /// Slab handle backing `tid`'s entry in the enclave's thread table
    /// (`None` if the thread is not managed there). Handles are recycled
    /// after a thread dies; this accessor lets tests observe free-list
    /// reuse and prove a recycled handle is never reachable through the
    /// dead tid.
    pub fn thread_handle(&self, tid: Tid) -> Option<u32> {
        self.get(|e| e.threads.handle_of(tid)).flatten()
    }

    /// Reads a managed thread's status word (seq, flags) through the
    /// validated boundary: forged eids and tids yield a typed
    /// [`AbiError`], never a panic.
    pub fn try_thread_status(&self, tid: Tid) -> Result<(u64, u64), AbiError> {
        self.runtime.with(|c| c.try_thread_status(self.id, tid))
    }

    /// Models an agent scribbling into kernel-owned status-word memory.
    /// Status words are kernel-published and read-only to agents, so this
    /// always rejects with [`AbiError::StatusReadOnly`] — and, because no
    /// benign agent issues kernel-memory writes, always counts a
    /// byzantine strike against the enclave.
    pub fn try_write_status(
        &self,
        k: &mut dyn GhostBackend,
        _tid: Tid,
        _garbage: u64,
    ) -> Result<(), AbiError> {
        self.runtime.with(|c| c.reject_status_write(k, self.id))
    }

    /// Lends `cpu` from this enclave to `borrower` for `duration` ns. The
    /// deadline is enforced by a kernel-side driver timer; at expiry the
    /// borrower is preempted through the deferred-op path and the CPU
    /// re-attaches to this enclave.
    pub fn try_lend_cpu(
        &self,
        k: &mut dyn GhostBackend,
        borrower: &EnclaveHandle,
        cpu: CpuId,
        duration: Nanos,
    ) -> Result<(), AbiError> {
        self.runtime
            .with(|c| c.try_lend(k, self.id, borrower.id, cpu, duration))
    }

    /// CPUs this enclave is currently borrowing, sorted.
    pub fn borrowed_cpus(&self) -> Vec<CpuId> {
        self.runtime.with(|c| c.leases.borrowed_by(self.id))
    }

    fn get<R>(&self, f: impl FnOnce(&Enclave) -> R) -> Option<R> {
        self.runtime.with(|c| c.enclaves.get(self.id).map(f))
    }
}
