//! The live kernel: orchestration of real OS threads behind the
//! [`GhostBackend`] trait.
//!
//! A [`LiveKernel`] owns the shared [`LiveState`], a timer thread (the
//! live analogue of the DES event queue's timer events: driver timers for
//! the §3.4 watchdog and standby respawn, delayed wakes, resched IPIs
//! with propagation delay, and periodic tick delivery), and the agent OS
//! threads spawned per enclave CPU. Worker threads are registered by the
//! embedding service (see [`crate::kv`]) and scheduled by an unmodified
//! [`ghost_core::GhostPolicy`]: the policy's transaction commits arrive
//! through `ghost-core`'s normal commit path, which calls
//! [`GhostBackend::send_ipi`]; the live backend turns that into a
//! dispatch that unparks the committed worker on its lane.

use crate::kv::{worker_main, KvService};
use crate::ring::SpscConsumer;
use crate::state::{LiveState, LiveStats, TimerEntry, WakeSignal};
use crate::worker::WorkerCmd;
use ghost_core::policy::GhostPolicy;
use ghost_core::{EnclaveConfig, EnclaveHandle, GhostBackend, GhostRuntime};
use ghost_sim::agent::AgentOutcome;
use ghost_sim::costs::CostModel;
use ghost_sim::cpuset::CpuSet;
use ghost_sim::faults::{FaultKind, FaultPlan};
use ghost_sim::thread::{ThreadKind, ThreadState, Tid};
use ghost_sim::time::{Nanos, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_trace::{TraceEvent, TraceRecord, TraceSink};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest the timer thread sleeps with nothing scheduled; bounds how
/// stale its view of "due" can get if a notify is missed.
const TIMER_IDLE_SLEEP: Duration = Duration::from_millis(1);

/// How long a spinning agent waits for a signal-ring nudge before
/// re-polling its queues anyway. Bounds message latency for queues
/// configured without agent wakeup (`WakeMode::Polled`).
const SPIN_POLL: Duration = Duration::from_micros(200);

/// Configuration for a live kernel.
pub struct LiveConfig {
    /// Number of logical CPU lanes the enclave(s) can schedule onto.
    pub cpus: usize,
    /// Run seed, for the embedder's own randomness (load generators,
    /// randomized policies); the kernel itself draws nothing from it.
    pub seed: u64,
    /// Trace sink; use [`TraceSink::recording`] to run the invariant
    /// checker over the live execution.
    pub trace: TraceSink,
    /// Tick period for `CPU_TICK` delivery; 0 disables ticks.
    pub tick_ns: Nanos,
    /// Cost model (agents charge decision costs against it; in the live
    /// backend the charges are bookkeeping only — real compute is real).
    pub costs: CostModel,
    /// Deterministic fault schedule, with `at`/`dur` in wall-clock
    /// nanoseconds since kernel start. Window faults gate the backend's
    /// fault hooks; one-shot faults fire from the timer thread.
    pub faults: FaultPlan,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            cpus: 4,
            seed: 1,
            trace: TraceSink::Null,
            tick_ns: MILLIS,
            costs: CostModel::default(),
            faults: FaultPlan::none(),
        }
    }
}

pub(crate) struct LiveShared {
    pub(crate) state: Mutex<LiveState>,
}

/// A kernel scheduling real OS threads through the ghOSt runtime.
pub struct LiveKernel {
    shared: Arc<LiveShared>,
    runtime: GhostRuntime,
    timer: Option<JoinHandle<()>>,
}

impl LiveKernel {
    /// Builds the live kernel: state, runtime, and timer thread.
    pub fn new(config: LiveConfig) -> Self {
        let n = config.cpus.max(1) as u16;
        let topo = Topology::new("live", 1, n, 1, n);
        let runtime = GhostRuntime::new(topo.num_cpus());
        let mut state = LiveState::new(topo, config.costs, config.trace);
        state.runtime = Some(runtime.clone());
        state.install_faults(config.faults);
        let shared = Arc::new(LiveShared {
            state: Mutex::new(state),
        });

        // Agents created through the trait (enclave launch, §3.4 standby
        // respawn) get real OS threads via this hook.
        {
            let weak = Arc::downgrade(&shared);
            let rt = runtime.clone();
            let spawner = move |tid: Tid, cpu: CpuId, ring: SpscConsumer<WakeSignal>| {
                let Some(shared) = weak.upgrade() else {
                    return std::thread::spawn(|| {});
                };
                let rt = rt.clone();
                std::thread::Builder::new()
                    .name(format!("ghost-agent-{}", tid.0))
                    .spawn(move || agent_main(shared, rt, tid, cpu, ring))
                    .expect("spawn agent thread")
            };
            shared.state.lock().unwrap().agent_spawner = Some(Arc::new(spawner));
        }

        let timer = {
            let shared = Arc::clone(&shared);
            let rt = runtime.clone();
            let tick_ns = config.tick_ns;
            std::thread::Builder::new()
                .name("ghost-live-timer".into())
                .spawn(move || timer_main(shared, rt, tick_ns))
                .expect("spawn timer thread")
        };

        Self {
            shared,
            runtime,
            timer: Some(timer),
        }
    }

    /// The ghOSt runtime driving this kernel.
    pub fn runtime(&self) -> &GhostRuntime {
        &self.runtime
    }

    /// Creates an enclave over `cpus` and spawns its agents as real OS
    /// threads (the live analogue of `GhostRuntime::launch_enclave`).
    pub fn launch_enclave(
        &self,
        cpus: CpuSet,
        config: EnclaveConfig,
        policy: Box<dyn GhostPolicy>,
    ) -> EnclaveHandle {
        let mut st = self.shared.state.lock().unwrap();
        let handle = self
            .runtime
            .launch_enclave_on(&mut *st, cpus, config, policy);
        st.settle();
        handle
    }

    /// Registers and starts a worker OS thread serving `kv`. The thread
    /// starts blocked and unmanaged; [`LiveKernel::attach`] +
    /// [`LiveKernel::wake`] hand it to a policy.
    pub fn spawn_kv_worker(&self, name: &str, kv: Arc<KvService>) -> Tid {
        let (tid, ctl) = {
            let mut st = self.shared.state.lock().unwrap();
            st.add_worker(name)
        };
        let shared = Arc::clone(&self.shared);
        let rt = self.runtime.clone();
        let join = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || worker_main(shared, rt, kv, tid, ctl))
            .expect("spawn worker thread");
        self.shared.state.lock().unwrap().set_join(tid, join);
        tid
    }

    /// Attaches a worker to an enclave (START_GHOST).
    pub fn attach(&self, handle: &EnclaveHandle, tid: Tid) {
        let mut st = self.shared.state.lock().unwrap();
        handle.attach_thread(&mut *st, tid);
        st.settle();
    }

    /// Wakes a thread.
    pub fn wake(&self, tid: Tid) {
        let mut st = self.shared.state.lock().unwrap();
        GhostBackend::wake(&mut *st, tid);
        st.settle();
    }

    /// Wakes the first currently-blocked thread among `tids`; returns
    /// false if none is blocked (open-loop load generators use this to
    /// kick capacity only when there is some).
    pub fn wake_one_blocked(&self, tids: &[Tid]) -> bool {
        let mut st = self.shared.state.lock().unwrap();
        let Some(&tid) = tids
            .iter()
            .find(|t| st.threads[t.index()].state == ThreadState::Blocked)
        else {
            return false;
        };
        GhostBackend::wake(&mut *st, tid);
        st.settle();
        true
    }

    /// Kills a thread (workers, or agents to exercise §3.4 failover).
    pub fn kill(&self, tid: Tid) {
        let mut st = self.shared.state.lock().unwrap();
        GhostBackend::kill(&mut *st, tid);
        st.settle();
    }

    /// Lends `cpu` from `lender` to `borrower` for `duration` (the live
    /// analogue of `EnclaveHandle::try_lend_cpu`). The deadline is enforced
    /// by the timer thread's driver-timer dispatch even if the caller
    /// never reclaims.
    pub fn lend_cpu(
        &self,
        lender: &EnclaveHandle,
        borrower: &EnclaveHandle,
        cpu: CpuId,
        duration: Nanos,
    ) -> Result<(), ghost_core::AbiError> {
        let mut st = self.shared.state.lock().unwrap();
        let r = lender.try_lend_cpu(&mut *st, borrower, cpu, duration);
        st.settle();
        r
    }

    /// Returns a leased CPU to its lender before the deadline.
    pub fn reclaim_cpu(&self, cpu: CpuId) -> Result<(), ghost_core::AbiError> {
        let mut st = self.shared.state.lock().unwrap();
        let r = self.runtime.try_reclaim_cpu(&mut *st, cpu);
        st.settle();
        r
    }

    /// Starts the in-process resource manager supervising `protected`
    /// (the borrower) and `donor`. Epochs tick on the timer thread.
    pub fn rm_start(
        &self,
        config: ghost_core::RmConfig,
        protected: ghost_core::EnclaveId,
        donor: ghost_core::EnclaveId,
    ) {
        let mut st = self.shared.state.lock().unwrap();
        self.runtime.rm_start(&mut *st, config, protected, donor);
        st.settle();
    }

    /// Crashes the resource manager (fault injection). Outstanding
    /// leases stay kernel-enforced.
    pub fn rm_crash(&self) -> bool {
        self.runtime.rm_crash()
    }

    /// Restarts a crashed resource manager, reconstructing its state
    /// from enclave snapshots.
    pub fn rm_restart(&self) -> bool {
        let mut st = self.shared.state.lock().unwrap();
        let r = self.runtime.rm_restart(&mut *st);
        st.settle();
        r
    }

    /// Current backend time (monotonic nanoseconds since kernel start).
    pub fn now(&self) -> Nanos {
        self.shared.state.lock().unwrap().now()
    }

    /// Live-backend counters.
    pub fn stats(&self) -> LiveStats {
        self.shared.state.lock().unwrap().stats
    }

    /// Snapshot of the trace recorded so far.
    pub fn trace_snapshot(&self) -> Vec<TraceRecord> {
        self.shared.state.lock().unwrap().trace.snapshot()
    }

    /// Snapshot of every registered thread (tid, backend view), for
    /// liveness oracles: a chaos run asserts no workload thread is left
    /// stranded (runnable but never dispatched) past the grace window.
    pub fn thread_snapshots(&self) -> Vec<(Tid, ghost_core::BackendThread)> {
        let st = self.shared.state.lock().unwrap();
        (0..st.threads.len())
            .map(|i| {
                let tid = Tid(i as u32);
                (tid, GhostBackend::thread(&*st, tid))
            })
            .collect()
    }

    /// Stops every managed OS thread and joins them. Consumes the kernel.
    pub fn shutdown(mut self) {
        let joins: Vec<JoinHandle<()>> = {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            for t in &st.threads {
                t.ctl.set_preempt();
                t.ctl.post(WorkerCmd::Exit);
            }
            st.timer_cv.notify_all();
            st.threads
                .iter_mut()
                .filter_map(|t| t.join.take())
                .collect()
        };
        if let Some(timer) = self.timer.take() {
            let _ = timer.join();
        }
        for join in joins {
            let _ = join.join();
        }
    }
}

impl Drop for LiveKernel {
    fn drop(&mut self) {
        // `shutdown()` consumed self normally; this path covers panics and
        // forgotten shutdowns so worker threads never outlive the kernel.
        if self.timer.is_none() {
            return;
        }
        let joins: Vec<JoinHandle<()>> = {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            for t in &st.threads {
                t.ctl.set_preempt();
                t.ctl.post(WorkerCmd::Exit);
            }
            st.timer_cv.notify_all();
            st.threads
                .iter_mut()
                .filter_map(|t| t.join.take())
                .collect()
        };
        if let Some(timer) = self.timer.take() {
            let _ = timer.join();
        }
        for join in joins {
            let _ = join.join();
        }
    }
}

/// The timer thread: fires due heap entries (wakes, IPIs, driver timers,
/// agent re-activations) and delivers periodic ticks to busy lanes. It
/// sleeps on the state mutex's condvar, so arming an earlier timer from
/// any thread wakes it immediately.
fn timer_main(shared: Arc<LiveShared>, rt: GhostRuntime, tick_ns: Nanos) {
    let mut st = shared.state.lock().unwrap();
    let mut next_tick = if tick_ns > 0 {
        st.now() + tick_ns
    } else {
        Nanos::MAX
    };
    loop {
        if st.shutdown {
            return;
        }
        let now = st.now();
        for entry in st.take_due_timers(now) {
            match entry {
                TimerEntry::Driver(key) => rt.hook_timer(&mut *st, key),
                TimerEntry::AgentLoop(tid) => {
                    let t = &st.threads[tid.index()];
                    if t.kind == ThreadKind::Agent && t.state != ThreadState::Dead {
                        let cpu = t.affinity.iter().next().unwrap_or(CpuId(0));
                        t.ctl.post(WorkerCmd::Run { cpu });
                    }
                }
                TimerEntry::Fault(idx) => {
                    // One-shot fault dispatch, mirroring the DES's
                    // `handle_fault`: apply the kernel-level effect, then
                    // forward to the runtime (which interprets Upgrade).
                    let kind = st.faults.events[idx].kind.clone();
                    st.stats.faults_injected += 1;
                    match kind {
                        FaultKind::AgentCrash { cpu } => {
                            if let Some(victim) = st.agent_on(cpu) {
                                // The agent's real OS thread exits at its
                                // next mailbox check; §3.4 failover
                                // (fallback/standby respawn) runs inside
                                // this settle via hook_agent_killed.
                                GhostBackend::kill(&mut *st, victim);
                            }
                        }
                        FaultKind::SpuriousWakeup { nth } => {
                            if let Some(t) = st.nth_live_workload(nth) {
                                GhostBackend::wake(&mut *st, t);
                            }
                        }
                        _ => {}
                    }
                    rt.hook_fault(&mut *st, &kind);
                }
                // Wakes and IPIs were folded into the deferred buffers.
                TimerEntry::Wake(_) | TimerEntry::Resched(_) => {}
            }
        }
        st.settle();
        if now >= next_tick {
            // Every lane, busy or idle — exactly like the DES's periodic
            // `Ev::Tick`. For `deliver_ticks` enclaves this posts a
            // `TIMER_TICK` that wakes parked per-CPU agents, the liveness
            // backstop that lets them drain runqueues populated remotely
            // (e.g. by the default-queue agent placing new threads).
            for i in 0..st.cpus.len() {
                let cpu = CpuId(i as u16);
                st.trace
                    .emit(now, cpu.0, || TraceEvent::TickDelivered { cpu: cpu.0 });
                rt.hook_tick(&mut *st, cpu);
            }
            st.settle();
            next_tick = now + tick_ns;
        }
        let deadline = st.next_deadline().unwrap_or(Nanos::MAX).min(next_tick);
        let sleep = if deadline == Nanos::MAX {
            TIMER_IDLE_SLEEP
        } else {
            Duration::from_nanos(deadline.saturating_sub(st.now()).min(MILLIS))
        };
        let cv = Arc::clone(&st.timer_cv);
        let (guard, _) = cv.wait_timeout(st, sleep).unwrap();
        st = guard;
    }
}

/// An agent OS thread: waits for its command mailbox, then runs
/// activations via [`GhostRuntime::hook_run_agent`] until the policy
/// blocks. Spin outcomes wait on the agent's lock-free signal ring (with
/// a bounded poll fallback); block outcomes declare the agent blocked at
/// once and park with an epoch check under the state lock, so a message
/// posted any time after the activation wakes it instead of being lost.
pub(crate) fn agent_main(
    shared: Arc<LiveShared>,
    rt: GhostRuntime,
    tid: Tid,
    cpu: CpuId,
    ring: SpscConsumer<WakeSignal>,
) {
    let (ctl, clock) = {
        let st = shared.state.lock().unwrap();
        (Arc::clone(&st.threads[tid.index()].ctl), st.clock)
    };
    'outer: loop {
        match ctl.wait() {
            WorkerCmd::Exit => break,
            WorkerCmd::Run { .. } => {}
            // Agents are never shed or parked externally.
            WorkerCmd::Park | WorkerCmd::Free => continue,
        }
        loop {
            let (cmd, epoch) = ctl.peek();
            if cmd == WorkerCmd::Exit {
                break 'outer;
            }
            ring.drain();
            let (outcome, stall_ns) = {
                let mut st = shared.state.lock().unwrap();
                if st.shutdown || st.threads[tid.index()].state == ThreadState::Dead {
                    break 'outer;
                }
                if st.threads[tid.index()].state == ThreadState::Blocked {
                    st.threads[tid.index()].state = ThreadState::Runnable;
                }
                let out = rt.hook_run_agent(&mut *st, tid, cpu);
                if matches!(out, AgentOutcome::Block { .. }) {
                    // Blocked from here on, not from the park below: the
                    // runtime wakes only a blocked agent, and a message
                    // posted by this settle or during the modelled-time
                    // spin must do so — the wake moves the mailbox epoch,
                    // so the barrier-checked park re-activates instead.
                    st.threads[tid.index()].state = ThreadState::Blocked;
                }
                st.settle();
                // An open AgentSlow window stretches the loop for real:
                // the runtime already multiplied the modelled `busy`, and
                // the stall below burns that stretched time wall-clock
                // (outside the lock, bounded so Exit stays responsive).
                let stall = if st.faults.agent_slow_factor(cpu, st.now()) > 1 {
                    let busy = match out {
                        AgentOutcome::Block { busy }
                        | AgentOutcome::Yield { busy }
                        | AgentOutcome::Spin { busy, .. } => busy,
                    };
                    let stall = busy.min(5 * MILLIS);
                    st.stats.fault_stall_ns += stall;
                    stall
                } else {
                    0
                };
                (out, stall)
            };
            if stall_ns > 0 {
                std::thread::sleep(Duration::from_nanos(stall_ns));
            }
            match outcome {
                AgentOutcome::Block { busy } => {
                    // A commit for the agent's own CPU arms `busy so far`
                    // after the instant it was issued — in the DES that is
                    // exactly when the agent parks. A real agent gets here
                    // sooner than modelled, and must not reschedule its CPU
                    // yet: the pick would be refused as "not arrived" and
                    // nothing retries it until the next message or tick.
                    // Burn the modelled time first (microseconds; bounded
                    // like the stall above so Exit stays responsive).
                    let armed = clock.now().saturating_add(busy.min(5 * MILLIS));
                    while clock.now() < armed {
                        std::hint::spin_loop();
                    }
                    let mut st = shared.state.lock().unwrap();
                    // A parking agent reschedules its own CPU: commits
                    // targeting the agent's CPU send no IPI (the DES
                    // dispatches them when the agent blocks), so the
                    // slot would otherwise never be consumed.
                    st.request_resched(cpu);
                    st.settle();
                    // Atomic wrt wakers (they hold the state lock when
                    // posting): park only if no wake raced in since
                    // this activation started.
                    if ctl.park_if_quiet(epoch) {
                        continue 'outer;
                    }
                }
                AgentOutcome::Yield { .. } => std::thread::yield_now(),
                AgentOutcome::Spin { next, .. } => {
                    if !ring.is_empty() {
                        continue; // Work already signaled; re-activate now.
                    }
                    let now = {
                        let st = shared.state.lock().unwrap();
                        st.now()
                    };
                    let timeout = match next {
                        Some(at) => Duration::from_nanos(at.saturating_sub(now).max(10_000)),
                        None => SPIN_POLL,
                    };
                    // `epoch` is from before the activation: any nudge or
                    // wake that landed since (including from our own
                    // settle) returns immediately instead of sleeping
                    // through a fresh message.
                    ctl.wait_nudge(epoch, timeout.min(Duration::from_millis(5)));
                }
            }
        }
    }
}
