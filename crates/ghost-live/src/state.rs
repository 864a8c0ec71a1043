//! The live kernel state: a [`GhostBackend`] over real OS threads.
//!
//! One mutex-protected [`LiveState`] plays the role the event-driven
//! `KernelState` plays in the DES: it owns the thread table, the CPU
//! lanes, the timer heap, and the deferred-operation buffers. Scheduling
//! logic runs on whichever OS thread triggered it (a worker ending a
//! stint, the timer thread firing a watchdog, an agent committing a
//! transaction), serialized by the state lock; the `ghost-core` hooks are
//! invoked from `LiveState::settle` in exactly the DES's deferred-op
//! priority order (class moves → wakes → kills → rescheds), so the two
//! backends present the same event ordering to an unmodified policy.
//!
//! "CPUs" here are the enclave's logical lanes, not pinned hardware
//! threads: a dispatched worker is unparked and runs wherever the host
//! kernel puts it. Exclusive occupancy per lane is still enforced — one
//! thread on a lane at a time, transaction commits move workers between
//! lanes — which is what the invariant checker verifies on live traces.

use crate::clock::MonotonicClock;
use crate::worker::{WorkerCmd, WorkerCtl};
use ghost_core::{GhostBackend, GhostRuntime};
use ghost_sim::agent::AgentOutcome;
use ghost_sim::class::{ClassId, OffCpuReason, CLASS_CFS, CLASS_GHOST, CLASS_IDLE};
use ghost_sim::costs::CostModel;
use ghost_sim::cpuset::CpuSet;
use ghost_sim::faults::{FaultPlan, IpiFate};
use ghost_sim::thread::{ThreadKind, ThreadState, Tid};
use ghost_sim::time::{Nanos, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_trace::{TraceEvent, TraceSink, NO_TID, PREV_BLOCKED, PREV_DEAD, PREV_RUNNABLE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;

/// Wakes ([`GhostBackend::wake_at`]) and agent re-activations
/// ([`GhostBackend::schedule_agent_loop`]) due within this slack of `now`
/// are applied at the next settle, early, instead of round-tripping
/// through the timer thread: a wall-clock timer hop cannot resolve delays
/// this short. Resched IPIs are never applied early: `apply_resched` has
/// the committing thread wait out an arm time at most a remote commit's
/// modelled latency ahead, and leaves later ones to the timer thread.
const IMMEDIATE_SLACK_NS: Nanos = 100_000;

/// What a timer-heap entry does when it fires.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TimerEntry {
    /// Wake a thread ([`GhostBackend::wake_at`]).
    Wake(Tid),
    /// Deliver a driver timer ([`GhostBackend::arm_driver_timer`]).
    Driver(u64),
    /// A resched IPI logically arrives ([`GhostBackend::send_ipi`]).
    Resched(CpuId),
    /// Re-activate a (spinning) agent ([`GhostBackend::schedule_agent_loop`]).
    AgentLoop(Tid),
    /// Dispatch the one-shot fault at this index of the configured
    /// [`FaultPlan`] (agent crash, spurious wakeup, in-place upgrade).
    Fault(usize),
}

/// Min-heap slot ordered by deadline, FIFO within a deadline.
pub(crate) struct TimerSlot {
    pub at: Nanos,
    pub seq: u64,
    pub entry: TimerEntry,
}

impl PartialEq for TimerSlot {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerSlot {}
impl PartialOrd for TimerSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerSlot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One real OS thread under live-kernel management.
pub(crate) struct LiveThread {
    pub state: ThreadState,
    pub kind: ThreadKind,
    pub class: ClassId,
    pub cpu: Option<CpuId>,
    pub last_cpu: Option<CpuId>,
    pub affinity: CpuSet,
    pub nice: i8,
    pub cookie: u64,
    pub runnable_since: Nanos,
    pub total_work: Nanos,
    pub stint_start: Nanos,
    pub ctl: Arc<WorkerCtl>,
    pub join: Option<JoinHandle<()>>,
}

/// One logical CPU lane.
#[derive(Default)]
pub(crate) struct LiveCpu {
    pub current: Option<Tid>,
    pub dispatches: u64,
}

/// Live-backend counters (the analogue of the DES `SimStats` slice the
/// smoke harness cares about).
#[derive(Debug, Default, Clone, Copy)]
pub struct LiveStats {
    /// Worker dispatches (context switches in).
    pub dispatches: u64,
    /// Stints ended (context switches out).
    pub stints: u64,
    /// Wakes applied.
    pub wakes: u64,
    /// Resched IPIs delivered.
    pub ipis: u64,
    /// Timer-heap entries fired.
    pub timers_fired: u64,
    /// Preempt flags raised against running workers.
    pub preempts: u64,
    /// Resched IPIs dropped by an open `IpiLoss` fault window.
    pub ipis_lost: u64,
    /// Resched IPIs deferred by an open `IpiDelay` fault window.
    pub ipis_delayed: u64,
    /// One-shot faults dispatched from the configured plan.
    pub faults_injected: u64,
    /// Wall-clock nanoseconds agent loops stalled to honour an open
    /// `AgentSlow` window (real stretched time, not bookkeeping).
    pub fault_stall_ns: u64,
}

/// Spawns the OS thread for a respawned/new agent. Installed by
/// `LiveKernel`; invoked from [`LiveState::settle`] so agents created by
/// the runtime itself (e.g. §3.4 standby respawn) get real threads too.
pub(crate) type AgentSpawner = Arc<dyn Fn(Tid, CpuId) -> JoinHandle<()> + Send + Sync>;

pub struct LiveState {
    pub(crate) clock: MonotonicClock,
    pub(crate) topo: Topology,
    pub(crate) costs: CostModel,
    pub(crate) trace: TraceSink,
    pub(crate) threads: Vec<LiveThread>,
    pub(crate) cpus: Vec<LiveCpu>,
    pub(crate) stats: LiveStats,
    pub(crate) runtime: Option<GhostRuntime>,
    pub(crate) shutdown: bool,

    // Deferred operations, drained by `settle()` in DES priority order.
    pending_class_moves: Vec<(Tid, ClassId)>,
    pending_wakes: Vec<Tid>,
    pending_kills: Vec<Tid>,
    /// `(cpu, arm_at)`: reschedule `cpu`, honouring the commit's arm
    /// time — `hook_pick_next` refuses slots whose IPI has not logically
    /// arrived, so an early resched re-arms a timer instead of dropping
    /// the dispatch on the floor.
    pending_resched: Vec<(CpuId, Nanos)>,
    /// Agents created via the trait that still need an OS thread.
    pending_spawns: Vec<(Tid, CpuId)>,

    pub(crate) timers: BinaryHeap<Reverse<TimerSlot>>,
    timer_seq: u64,
    /// Notified when a timer is armed earlier than the timer thread's
    /// current sleep; the timer thread waits on the state mutex with this
    /// condvar.
    pub(crate) timer_cv: Arc<Condvar>,
    pub(crate) agent_spawner: Option<AgentSpawner>,
    /// The deterministic fault schedule, consulted against wall-clock
    /// `now`. The runtime checks window predicates through
    /// [`GhostBackend::faults`]; one-shot events are armed as
    /// [`TimerEntry::Fault`] timers by the kernel at construction.
    pub(crate) faults: FaultPlan,
}

impl LiveState {
    pub(crate) fn new(topo: Topology, costs: CostModel, trace: TraceSink) -> Self {
        let n = topo.num_cpus();
        Self {
            clock: MonotonicClock::new(),
            topo,
            costs,
            trace,
            threads: Vec::new(),
            cpus: (0..n).map(|_| LiveCpu::default()).collect(),
            stats: LiveStats::default(),
            runtime: None,
            shutdown: false,
            pending_class_moves: Vec::new(),
            pending_wakes: Vec::new(),
            pending_kills: Vec::new(),
            pending_resched: Vec::new(),
            pending_spawns: Vec::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            timer_cv: Arc::new(Condvar::new()),
            agent_spawner: None,
            faults: FaultPlan::none(),
        }
    }

    /// Registers a new workload OS thread (blocked, CFS class). The
    /// caller spawns the actual `std::thread` and stores its handle via
    /// [`LiveState::set_join`].
    pub(crate) fn add_worker(&mut self) -> (Tid, Arc<WorkerCtl>) {
        let tid = Tid(self.threads.len() as u32);
        let ctl = WorkerCtl::new();
        self.threads.push(LiveThread {
            state: ThreadState::Blocked,
            kind: ThreadKind::Workload,
            class: CLASS_CFS,
            cpu: None,
            last_cpu: None,
            affinity: self.topo.all_cpus_set(),
            nice: 0,
            cookie: 0,
            runnable_since: 0,
            total_work: 0,
            stint_start: 0,
            ctl: Arc::clone(&ctl),
            join: None,
        });
        (tid, ctl)
    }

    pub(crate) fn set_join(&mut self, tid: Tid, join: JoinHandle<()>) {
        self.threads[tid.index()].join = Some(join);
    }

    /// A parking agent reschedules its own CPU (applied at the next
    /// settle): local commits (`txn.cpu == agent_cpu`) send no IPI — in
    /// the DES the kernel reschedules the agent's CPU when the agent
    /// blocks, and this is the live analogue. Live agents do not occupy
    /// their lane, so it may be running the worker a previous park
    /// dispatched: the resched picks for an empty lane, but preempts an
    /// occupied one only for a committed transaction waiting on it.
    pub(crate) fn request_resched(&mut self, cpu: CpuId) {
        let vacant = self.cpus[cpu.index()].current.is_none();
        let awaited = |rt: &GhostRuntime| rt.hook_commit_pending(cpu);
        if vacant || self.runtime.as_ref().is_some_and(awaited) {
            let now = self.clock.now();
            self.pending_resched.push((cpu, now));
        }
    }

    fn arm_timer(&mut self, at: Nanos, entry: TimerEntry) {
        self.timer_seq += 1;
        self.timers.push(Reverse(TimerSlot {
            at,
            seq: self.timer_seq,
            entry,
        }));
        // The timer thread may be sleeping past this deadline.
        self.timer_cv.notify_all();
    }

    pub(crate) fn next_deadline(&self) -> Option<Nanos> {
        self.timers.peek().map(|Reverse(slot)| slot.at)
    }

    /// Pops every timer due at or before `now`, applying each: wakes and
    /// IPIs go to the deferred buffers; driver timers and agent loops are
    /// returned for the caller (the timer thread) to run outside this
    /// borrow.
    pub(crate) fn take_due_timers(&mut self, now: Nanos) -> Vec<TimerEntry> {
        let mut due = Vec::new();
        while let Some(Reverse(slot)) = self.timers.peek() {
            if slot.at > now {
                break;
            }
            let Reverse(slot) = self.timers.pop().unwrap();
            self.stats.timers_fired += 1;
            match slot.entry {
                TimerEntry::Wake(tid) => self.pending_wakes.push(tid),
                TimerEntry::Resched(cpu) => self.pending_resched.push((cpu, slot.at)),
                entry => due.push(entry),
            }
        }
        due
    }

    /// Applies deferred operations until quiescent, in the DES's priority
    /// order. Mirrors `ghost-sim`'s `Kernel::settle`.
    pub(crate) fn settle(&mut self) {
        if self.shutdown {
            self.pending_class_moves.clear();
            self.pending_wakes.clear();
            self.pending_kills.clear();
            self.pending_resched.clear();
            return;
        }
        let Some(rt) = self.runtime.clone() else {
            return;
        };
        for _ in 0..100_000 {
            if !self.pending_class_moves.is_empty() {
                let (tid, class) = self.pending_class_moves.remove(0);
                self.apply_class_move(&rt, tid, class);
            } else if !self.pending_wakes.is_empty() {
                let tid = self.pending_wakes.remove(0);
                self.apply_wake(&rt, tid);
            } else if !self.pending_kills.is_empty() {
                let tid = self.pending_kills.remove(0);
                self.apply_kill(&rt, tid);
            } else if !self.pending_resched.is_empty() {
                let (cpu, at) = self.pending_resched.remove(0);
                self.apply_resched(&rt, cpu, at);
            } else if !self.pending_spawns.is_empty() {
                let (tid, cpu) = self.pending_spawns.remove(0);
                self.spawn_agent_thread(tid, cpu);
            } else {
                return;
            }
        }
        panic!("live settle() did not converge: livelock in deferred operations");
    }

    fn apply_wake(&mut self, rt: &GhostRuntime, tid: Tid) {
        let now = self.clock.now();
        let t = &mut self.threads[tid.index()];
        if t.state == ThreadState::Dead {
            return;
        }
        if t.kind == ThreadKind::Agent {
            // Agents never park-wait on the live kernel's runqueues; a
            // wake (re)activates their OS thread directly, and a kick to a
            // spinning (`Running`) agent moves its mailbox epoch, which
            // ends its spin. Idempotent.
            if t.state == ThreadState::Blocked {
                t.state = ThreadState::Runnable;
                t.runnable_since = now;
            }
            let cpu = t.affinity.iter().next().unwrap_or(CpuId(0));
            t.ctl.post(WorkerCmd::Run { cpu });
            self.stats.wakes += 1;
            return;
        }
        if t.state != ThreadState::Blocked {
            return;
        }
        t.state = ThreadState::Runnable;
        t.runnable_since = now;
        let class = t.class;
        let last_cpu = t.last_cpu;
        let ctl = Arc::clone(&t.ctl);
        let wake_cpu = last_cpu.map(|c| c.0).unwrap_or(0);
        self.trace.emit(now, wake_cpu, || TraceEvent::SchedWakeup {
            cpu: wake_cpu,
            tid: tid.0,
        });
        self.stats.wakes += 1;
        if class == CLASS_GHOST {
            rt.hook_enqueue(self, tid);
        } else {
            // Unmanaged (CFS-shed): the host scheduler runs it freely.
            ctl.post(WorkerCmd::Free);
        }
    }

    fn apply_resched(&mut self, rt: &GhostRuntime, cpu: CpuId, at: Nanos) {
        if at.saturating_sub(self.clock.now()) > self.costs.remote_schedule_e2e() {
            // Further out than a remote commit's modelled end to end (an
            // `IpiDelay` window, an `AgentSlow`-stretched activation):
            // picking now would be refused as "not arrived" and never
            // retried, so the timer thread delivers it on time.
            self.arm_timer(at, TimerEntry::Resched(cpu));
            return;
        }
        // The IPI is still in flight, by at most that modelled latency
        // (≈ 1.8 µs): the thread that committed it waits the rest out here,
        // which is cheaper than the timer thread's futex wake-up, and then
        // picks. The slot is never picked before its `arm_at`.
        while self.clock.now() < at {
            std::hint::spin_loop();
        }
        if let Some(cur) = self.cpus[cpu.index()].current {
            // Occupied lane: raise the preempt flag; the worker ends its
            // stint at the next request boundary (the live analogue of
            // the resched IPI interrupting a running thread).
            self.threads[cur.index()].ctl.set_preempt();
            self.stats.preempts += 1;
            return;
        }
        let Some(tid) = rt.hook_pick_next(self, cpu) else {
            return;
        };
        self.dispatch(tid, cpu);
    }

    fn dispatch(&mut self, tid: Tid, cpu: CpuId) {
        let now = self.clock.now();
        debug_assert_eq!(self.threads[tid.index()].state, ThreadState::Runnable);
        debug_assert!(self.cpus[cpu.index()].current.is_none());
        {
            let t = &mut self.threads[tid.index()];
            t.state = ThreadState::Running;
            t.cpu = Some(cpu);
            t.last_cpu = Some(cpu);
            t.stint_start = now;
        }
        self.cpus[cpu.index()].current = Some(tid);
        self.cpus[cpu.index()].dispatches += 1;
        self.stats.dispatches += 1;
        let class = self.threads[tid.index()].class;
        self.trace.emit(now, cpu.0, || TraceEvent::SchedSwitch {
            cpu: cpu.0,
            prev_tid: NO_TID,
            prev_class: CLASS_IDLE,
            prev_state: PREV_RUNNABLE,
            next_tid: tid.0,
            next_class: class,
        });
        self.threads[tid.index()].ctl.post(WorkerCmd::Run { cpu });
    }

    /// A worker's stint on `cpu` ended for `reason`. Called by the worker
    /// itself (under the state lock) — the live analogue of the DES's
    /// `take_off_cpu`. The caller then drops the lock and re-enters its
    /// command wait.
    pub(crate) fn end_stint(&mut self, tid: Tid, cpu: CpuId, reason: OffCpuReason) {
        if self.shutdown {
            return;
        }
        let Some(rt) = self.runtime.clone() else {
            return;
        };
        if self.threads[tid.index()].state == ThreadState::Dead {
            // A kill raced with the stint; the kill path already took the
            // thread off the lane and posted THREAD_DEAD.
            return;
        }
        if self.cpus[cpu.index()].current != Some(tid) {
            return;
        }
        let now = self.clock.now();
        let still_runnable = matches!(reason, OffCpuReason::Preempt | OffCpuReason::Yield);
        let class;
        {
            let t = &mut self.threads[tid.index()];
            t.total_work += now.saturating_sub(t.stint_start);
            t.cpu = None;
            t.state = match reason {
                OffCpuReason::Preempt | OffCpuReason::Yield => ThreadState::Runnable,
                OffCpuReason::Block => ThreadState::Blocked,
                OffCpuReason::Exit => ThreadState::Dead,
            };
            if still_runnable {
                t.runnable_since = now;
            }
            class = t.class;
            // Consume any stale preempt flag so it cannot leak into the
            // thread's next stint.
            t.ctl.take_preempt();
        }
        self.cpus[cpu.index()].current = None;
        self.stats.stints += 1;
        // Reset the worker's mailbox: the `Run` that started this stint is
        // consumed. A re-dispatch below (settle) or any later command
        // overwrites this — all posts happen under the state lock, which
        // this thread holds. A thread shed from ghOSt mid-stint (degraded
        // fallback, quarantine) must NOT park: it is runnable but no agent
        // will ever dispatch it, so it runs free on the host scheduler —
        // the §3.4 guarantee that workers keep progressing under CFS
        // while the enclave is degraded.
        if still_runnable && class != CLASS_GHOST {
            self.threads[tid.index()].ctl.post(WorkerCmd::Free);
        } else {
            self.threads[tid.index()].ctl.post(WorkerCmd::Park);
        }
        let prev_state = match reason {
            OffCpuReason::Preempt | OffCpuReason::Yield => PREV_RUNNABLE,
            OffCpuReason::Block => PREV_BLOCKED,
            OffCpuReason::Exit => PREV_DEAD,
        };
        self.trace.emit(now, cpu.0, || TraceEvent::SchedSwitch {
            cpu: cpu.0,
            prev_tid: tid.0,
            prev_class: class,
            prev_state,
            next_tid: NO_TID,
            next_class: CLASS_IDLE,
        });
        if class == CLASS_GHOST {
            rt.hook_put_prev(self, tid, cpu, reason);
        }
        self.pending_resched.push((cpu, now));
        self.settle();
    }

    /// One activation of agent `tid`, run by its own OS thread under the
    /// state lock; `None` once the agent or the kernel is gone. The agent
    /// is `Running` from here until a block outcome: spinning, as the DES
    /// sees it, so a post to its `Polled` queue kicks it
    /// (`schedule_agent_loop` → a `Run` post) instead of waiting out its
    /// poll. Returns the outcome and the wall-clock stall an open
    /// `AgentSlow` window asks for.
    pub(crate) fn activate_agent(
        &mut self,
        rt: &GhostRuntime,
        tid: Tid,
        cpu: CpuId,
    ) -> Option<(AgentOutcome, Nanos)> {
        if self.shutdown || self.threads[tid.index()].state == ThreadState::Dead {
            return None;
        }
        self.threads[tid.index()].state = ThreadState::Running;
        let out = rt.hook_run_agent(self, tid, cpu);
        if matches!(out, AgentOutcome::Block { .. }) {
            // Blocked from here on, not from the park: the runtime wakes
            // only a blocked agent, and a message posted by this settle or
            // during the modelled-time spin must do so — the wake moves
            // the mailbox epoch, so the barrier-checked park re-activates
            // instead.
            self.threads[tid.index()].state = ThreadState::Blocked;
        }
        self.settle();
        // An open AgentSlow window stretches the loop for real: the
        // runtime already multiplied the modelled `busy`, and the caller
        // burns that stretched time wall-clock (outside the lock, bounded
        // so Exit stays responsive).
        let mut stall = 0;
        if self.faults.agent_slow_factor(cpu, self.clock.now()) > 1 {
            let (AgentOutcome::Block { busy }
            | AgentOutcome::Yield { busy }
            | AgentOutcome::Spin { busy, .. }) = out;
            stall = busy.min(5 * MILLIS);
            self.stats.fault_stall_ns += stall;
        }
        Some((out, stall))
    }

    fn apply_kill(&mut self, rt: &GhostRuntime, tid: Tid) {
        let st = self.threads[tid.index()].state;
        if st == ThreadState::Dead {
            return;
        }
        let class = self.threads[tid.index()].class;
        let now = self.clock.now();
        match (st, self.threads[tid.index()].cpu) {
            (ThreadState::Running, Some(cpu)) => {
                {
                    let t = &mut self.threads[tid.index()];
                    t.total_work += now.saturating_sub(t.stint_start);
                    t.cpu = None;
                    t.state = ThreadState::Dead;
                }
                self.cpus[cpu.index()].current = None;
                self.trace.emit(now, cpu.0, || TraceEvent::SchedSwitch {
                    cpu: cpu.0,
                    prev_tid: tid.0,
                    prev_class: class,
                    prev_state: PREV_DEAD,
                    next_tid: NO_TID,
                    next_class: CLASS_IDLE,
                });
                if class == CLASS_GHOST {
                    rt.hook_put_prev(self, tid, cpu, OffCpuReason::Exit);
                }
                // The OS thread itself finds out at its next stint
                // boundary (preempt flag + Exit command below).
                self.pending_resched.push((cpu, now));
            }
            (ThreadState::Runnable, _) => {
                if class == CLASS_GHOST {
                    rt.hook_dequeue(tid);
                }
                self.threads[tid.index()].state = ThreadState::Dead;
            }
            // Blocked, or an agent in its activation loop: `Running`, but
            // live agents hold no lane.
            _ => self.threads[tid.index()].state = ThreadState::Dead,
        }
        if class == CLASS_GHOST {
            rt.hook_detach(self, tid);
        }
        if self.threads[tid.index()].kind == ThreadKind::Agent {
            rt.hook_agent_killed(self, tid);
        }
        let ctl = Arc::clone(&self.threads[tid.index()].ctl);
        ctl.set_preempt();
        ctl.post(WorkerCmd::Exit);
    }

    fn apply_class_move(&mut self, rt: &GhostRuntime, tid: Tid, new_class: ClassId) {
        let old = self.threads[tid.index()].class;
        if old == new_class {
            return;
        }
        let st = self.threads[tid.index()].state;
        if st == ThreadState::Runnable && old == CLASS_GHOST {
            rt.hook_dequeue(tid);
        }
        if old == CLASS_GHOST {
            rt.hook_detach(self, tid);
        }
        self.threads[tid.index()].class = new_class;
        if new_class == CLASS_GHOST {
            rt.hook_attach(self, tid);
        }
        match st {
            ThreadState::Runnable => {
                if new_class == CLASS_GHOST {
                    rt.hook_enqueue(self, tid);
                } else {
                    // Left ghOSt management while waiting: run free.
                    self.threads[tid.index()].ctl.post(WorkerCmd::Free);
                }
            }
            ThreadState::Running => {
                if let Some(cpu) = self.threads[tid.index()].cpu {
                    if new_class != CLASS_GHOST {
                        // Shed mid-stint: force the stint to end; the
                        // worker sees its new class and runs free.
                        self.threads[tid.index()].ctl.set_preempt();
                    } else {
                        self.pending_resched.push((cpu, self.clock.now()));
                    }
                }
            }
            _ => {}
        }
    }

    /// Installs the fault plan and arms one one-shot timer per
    /// crash/spurious-wakeup/upgrade event, mirroring the DES's
    /// `Ev::Fault` scheduling at kernel construction. Window faults need
    /// no timers — they are pure predicates over wall-clock `now`.
    pub(crate) fn install_faults(&mut self, plan: FaultPlan) {
        for (idx, fe) in plan.events.iter().enumerate() {
            if fe.kind.is_one_shot() {
                self.arm_timer(fe.at, TimerEntry::Fault(idx));
            }
        }
        self.faults = plan;
    }

    /// The live agent thread pinned to `cpu` (victim lookup for
    /// `FaultKind::AgentCrash`); mirrors the DES's `handle_fault`.
    pub(crate) fn agent_on(&self, cpu: CpuId) -> Option<Tid> {
        self.threads
            .iter()
            .enumerate()
            .find(|(_, t)| {
                t.kind == ThreadKind::Agent
                    && t.state != ThreadState::Dead
                    && t.affinity.contains(cpu)
            })
            .map(|(i, _)| Tid(i as u32))
    }

    /// The `nth` (modulo live count) workload thread, for
    /// `FaultKind::SpuriousWakeup`; mirrors the DES's `handle_fault`.
    pub(crate) fn nth_live_workload(&self, nth: u32) -> Option<Tid> {
        let live: Vec<Tid> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == ThreadKind::Workload && t.state != ThreadState::Dead)
            .map(|(i, _)| Tid(i as u32))
            .collect();
        if live.is_empty() {
            None
        } else {
            Some(live[nth as usize % live.len()])
        }
    }

    fn spawn_agent_thread(&mut self, tid: Tid, cpu: CpuId) {
        let Some(spawner) = self.agent_spawner.clone() else {
            return;
        };
        let join = spawner(tid, cpu);
        self.threads[tid.index()].join = Some(join);
    }
}

impl GhostBackend for LiveState {
    fn now(&self) -> Nanos {
        self.clock.now()
    }

    fn topo(&self) -> &Topology {
        &self.topo
    }

    fn costs(&self) -> &CostModel {
        &self.costs
    }

    fn trace(&self) -> &TraceSink {
        &self.trace
    }

    fn thread(&self, tid: Tid) -> Option<ghost_core::BackendThread> {
        let t = self.threads.get(tid.index())?;
        // A running thread's in-progress stint counts as if it ended now.
        let stint = match t.state {
            ThreadState::Running => self.clock.now().saturating_sub(t.stint_start),
            _ => 0,
        };
        Some(ghost_core::BackendThread {
            state: t.state,
            kind: t.kind,
            class: t.class,
            cpu: t.cpu,
            last_cpu: t.last_cpu,
            affinity: t.affinity,
            nice: t.nice,
            cookie: t.cookie,
            runnable_since: t.runnable_since,
            total_work: t.total_work + stint,
        })
    }

    fn cpu(&self, cpu: CpuId) -> Option<ghost_core::BackendCpu> {
        let c = self.cpus.get(cpu.index())?;
        Some(ghost_core::BackendCpu {
            current: c.current,
            idle: c.current.is_none(),
            // No CFS runqueues behind the live lanes: unmanaged threads
            // run on the host scheduler, so hot-handoff pressure is 0.
            cfs_queued: 0,
        })
    }

    fn wake(&mut self, tid: Tid) {
        self.pending_wakes.push(tid);
    }

    fn wake_at(&mut self, at: Nanos, tid: Tid) {
        if at <= self.clock.now() + IMMEDIATE_SLACK_NS {
            self.pending_wakes.push(tid);
        } else {
            self.arm_timer(at, TimerEntry::Wake(tid));
        }
    }

    fn kill(&mut self, tid: Tid) {
        self.pending_kills.push(tid);
    }

    fn move_to_class(&mut self, tid: Tid, class: ClassId) {
        self.pending_class_moves.push((tid, class));
    }

    fn send_ipi(&mut self, cpu: CpuId, at: Nanos) {
        self.stats.ipis += 1;
        let now = self.clock.now();
        self.trace.emit(now, cpu.0, || TraceEvent::IpiSent {
            from_cpu: u16::MAX,
            to_cpu: cpu.0,
        });
        // Queueing honours the fault plan first; `apply_resched` then waits
        // out an `at` within a remote commit's modelled latency on this
        // thread, and hands a later (e.g. fault-stretched) one to the timer
        // thread (the slot's arm gate would refuse an early pick).
        match self.faults.ipi_fate(now) {
            IpiFate::Normal => self.pending_resched.push((cpu, at)),
            IpiFate::Delayed(extra) => {
                self.stats.ipis_delayed += 1;
                self.pending_resched.push((cpu, at.saturating_add(extra)));
            }
            IpiFate::Lost => self.stats.ipis_lost += 1,
        }
    }

    fn arm_driver_timer(&mut self, at: Nanos, key: u64) {
        self.arm_timer(at, TimerEntry::Driver(key));
    }

    fn schedule_agent_loop(&mut self, at: Nanos, tid: Tid) {
        if at <= self.clock.now() + IMMEDIATE_SLACK_NS {
            self.pending_wakes.push(tid);
        } else {
            self.arm_timer(at, TimerEntry::AgentLoop(tid));
        }
    }

    fn spawn_agent(&mut self, _name: &str, cpu: CpuId) -> Tid {
        let tid = Tid(self.threads.len() as u32);
        let ctl = WorkerCtl::new();
        self.threads.push(LiveThread {
            state: ThreadState::Blocked,
            kind: ThreadKind::Agent,
            class: ghost_sim::class::CLASS_AGENT,
            cpu: None,
            last_cpu: Some(cpu),
            affinity: CpuSet::from_iter([cpu]),
            nice: 0,
            cookie: 0,
            runnable_since: 0,
            total_work: 0,
            stint_start: 0,
            ctl,
            join: None,
        });
        self.pending_spawns.push((tid, cpu));
        tid
    }

    fn faults(&self) -> &FaultPlan {
        &self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghost_core::msg::Message;
    use ghost_core::policy::{GhostPolicy, PolicyCtx};
    use ghost_core::EnclaveConfig;
    use ghost_policies::CentralizedFifo;
    use ghost_sim::faults::FaultKind;
    use ghost_sim::time::SECS;

    /// Never schedules: the test puts the worker on its lane itself.
    struct Idle;

    impl GhostPolicy for Idle {
        fn name(&self) -> &str {
            "idle"
        }
        fn on_msg(&mut self, _msg: &Message, _ctx: &mut PolicyCtx<'_>) {}
        fn schedule(&mut self, _ctx: &mut PolicyCtx<'_>) {}
    }

    /// A worker's yield reaches the spinning global agent through the
    /// runtime's kick, inside `end_stint`: the agent's mailbox epoch has
    /// moved by the time the call returns, so its spin ends on the next
    /// lock-free read. No OS threads, no wall-clock wait.
    #[test]
    fn yield_kicks_the_spinning_global_agent_before_end_stint_returns() {
        let (mut st, rt, global, worker) =
            central_with_runnable_worker(Box::new(Idle), FaultPlan::none());
        st.dispatch(worker, CpuId(1));

        let (out, _) = st
            .activate_agent(&rt, global, CpuId(0))
            .expect("agent alive");
        assert!(matches!(out, AgentOutcome::Spin { .. }), "{out:?}");
        assert_eq!(st.threads[global.index()].state, ThreadState::Running);
        let ctl = Arc::clone(&st.threads[global.index()].ctl);
        let (_, epoch) = ctl.peek();

        st.end_stint(worker, CpuId(1), OffCpuReason::Yield);
        let (cmd, moved) = ctl.peek();
        assert!(
            moved > epoch,
            "THREAD_YIELD did not kick the spinning agent"
        );
        assert_eq!(cmd, WorkerCmd::Run { cpu: CpuId(0) });
        assert_eq!(ctl.epoch(), moved);
    }

    /// A centralized enclave over two lanes with one woken worker, and
    /// its global agent, ready for the agent's first activation. There is
    /// no agent spawner, so the agents get no OS thread: the test runs the
    /// global agent's activation the way its thread would.
    fn central_with_runnable_worker(
        policy: Box<dyn GhostPolicy>,
        faults: FaultPlan,
    ) -> (LiveState, GhostRuntime, Tid, Tid) {
        let topo = Topology::new("central", 1, 2, 1, 2);
        let rt = GhostRuntime::new(topo.num_cpus());
        let mut st = LiveState::new(topo, CostModel::default(), TraceSink::Null);
        st.runtime = Some(rt.clone());
        st.install_faults(faults);
        let e = rt.launch_enclave_on(
            &mut st,
            CpuSet::first_n(2),
            EnclaveConfig::centralized("central"),
            policy,
        );
        st.settle();
        let global = e.global_agent().expect("centralized enclave");
        let (worker, _) = st.add_worker();
        e.attach_thread(&mut st, worker);
        GhostBackend::wake(&mut st, worker);
        st.settle();
        (st, rt, global, worker)
    }

    /// The global agent's remote commit is settled by the agent's own
    /// activation: the IPI's modelled flight is waited out on the
    /// committing thread, so the worker is dispatched before
    /// `activate_agent` returns and the timer thread never sees it.
    #[test]
    fn remote_commit_dispatches_before_the_activation_returns() {
        let (mut st, rt, global, worker) =
            central_with_runnable_worker(Box::new(CentralizedFifo::new()), FaultPlan::none());
        st.activate_agent(&rt, global, CpuId(0))
            .expect("agent alive");
        let ctl = &st.threads[worker.index()].ctl;
        assert_eq!(ctl.peek().0, WorkerCmd::Run { cpu: CpuId(1) });
        assert_eq!(st.cpus[1].current, Some(worker));
        assert!(st.timers.is_empty(), "{} timers armed", st.timers.len());
        assert_eq!((st.stats.ipis, st.stats.timers_fired), (1, 0));
    }

    /// Inside an open `IpiDelay` window the same commit's IPI lands later
    /// than a remote commit's modelled latency, so it still goes through
    /// the timer heap: fault semantics are unchanged.
    #[test]
    fn delayed_ipi_still_goes_through_the_timer_heap() {
        let delay = FaultKind::IpiDelay {
            dur: 3_600 * SECS,
            extra: MILLIS,
        };
        let plan = FaultPlan::from_events([(0, delay)]);
        let (mut st, rt, global, worker) =
            central_with_runnable_worker(Box::new(CentralizedFifo::new()), plan);
        st.activate_agent(&rt, global, CpuId(0))
            .expect("agent alive");
        assert_eq!(st.threads[worker.index()].ctl.peek().0, WorkerCmd::Park);
        assert_eq!(st.cpus[1].current, None);
        let rescheds: Vec<CpuId> = st
            .timers
            .iter()
            .filter_map(|Reverse(slot)| match slot.entry {
                TimerEntry::Resched(cpu) => Some(cpu),
                _ => None,
            })
            .collect();
        assert_eq!(rescheds, [CpuId(1)]);
        assert_eq!((st.stats.ipis_delayed, st.stats.timers_fired), (1, 0));
    }
}
