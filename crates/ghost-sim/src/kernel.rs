//! The kernel: the event loop tying CPUs, threads, classes, apps, and
//! agents together.
//!
//! [`Kernel`] owns everything; [`KernelState`] is the portion shared with
//! scheduling classes (the ghOSt slot doubling as the agent driver) and
//! apps. Cross-cutting side effects (wakeups, class changes, reschedules)
//! are recorded in deferred buffers on `KernelState` and applied by
//! `Kernel::settle` after each hook returns, which keeps plug-ins free of
//! re-entrant borrows and makes event handling a fixpoint: every event
//! fully settles the machine before the next event is popped.

use crate::agent::AgentOutcome;
use crate::app::{App, AppId, Next};
use crate::cfs::CfsClass;
use crate::class::{
    ClassId, NullClass, OffCpuReason, SchedClass, CLASS_AGENT, CLASS_CFS, CLASS_GHOST, NUM_CLASSES,
};
use crate::costs::CostModel;
use crate::cpu::{CpuRunState, CpuState};
use crate::cpuset::CpuSet;
use crate::event::{Ev, EventQueue};
use crate::faults::{FaultKind, FaultPlan, IpiFate};
use crate::rt::{AgentClass, RtFifoClass};
use crate::thread::{SimThread, ThreadKind, ThreadState, Tid};
use crate::time::{Nanos, MILLIS};
use crate::topology::{CpuId, Topology};
use ghost_trace::{TraceEvent, TraceSink, NO_TID, PREV_BLOCKED, PREV_DEAD, PREV_RUNNABLE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Timer-tick period; 0 disables ticks entirely (tickless, §5 of the
    /// paper).
    pub tick_ns: Nanos,
    /// Model SMT contention (siblings run at a reduced rate).
    pub smt_model: bool,
    /// RNG seed for deterministic replay.
    pub seed: u64,
    /// Tracepoint sink. Defaults to [`TraceSink::Null`] (off, zero cost);
    /// set to [`TraceSink::recording`] to capture a `sched:*`-style event
    /// stream for export, derived metrics, and invariant checking.
    pub trace: TraceSink,
    /// Deterministic fault schedule; empty by default (no perturbation).
    pub faults: FaultPlan,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            tick_ns: MILLIS,
            smt_model: true,
            seed: 1,
            trace: TraceSink::Null,
            faults: FaultPlan::default(),
        }
    }
}

/// Machine-wide counters.
#[derive(Debug, Default, Clone)]
pub struct SimStats {
    /// Context switches completed.
    pub ctx_switches: u64,
    /// IPIs sent (reschedule interrupts).
    pub ipis_sent: u64,
    /// Timer ticks processed.
    pub ticks: u64,
    /// Events processed.
    pub events: u64,
    /// Thread migrations across CPUs.
    pub migrations: u64,
}

/// The state shared with classes, apps, and the agent driver.
pub struct KernelState {
    /// Current virtual time (ns).
    pub now: Nanos,
    /// Machine topology.
    pub topo: Topology,
    /// Operation cost model.
    pub costs: CostModel,
    /// Configuration.
    pub cfg: KernelConfig,
    /// All threads ever spawned, indexed by [`Tid`].
    pub threads: Vec<SimThread>,
    /// Per-CPU state, indexed by [`CpuId`].
    pub cpus: Vec<CpuState>,
    /// Machine-wide counters.
    pub stats: SimStats,
    /// Why the thread passed to `put_prev` is coming off its CPU; valid
    /// only during that call.
    pub offcpu_reason: OffCpuReason,
    /// Deterministic RNG for plug-ins that need randomness.
    pub rng: StdRng,
    events: EventQueue,
    pending_wakes: VecDeque<Tid>,
    pending_class_moves: VecDeque<(Tid, ClassId)>,
    pending_affinity: VecDeque<Tid>,
    pending_nice: VecDeque<Tid>,
    pending_resched: VecDeque<CpuId>,
    pending_kills: VecDeque<Tid>,
    next_app: u32,
}

impl KernelState {
    /// Immutable access to a thread.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was never spawned.
    pub fn thread(&self, tid: Tid) -> &SimThread {
        &self.threads[tid.index()]
    }

    /// Mutable access to a thread.
    pub fn thread_mut(&mut self, tid: Tid) -> &mut SimThread {
        &mut self.threads[tid.index()]
    }

    /// Immutable access to a CPU.
    pub fn cpu(&self, cpu: CpuId) -> &CpuState {
        &self.cpus[cpu.index()]
    }

    /// True if `cpu`'s SMT sibling is occupied.
    pub fn sibling_busy(&self, cpu: CpuId) -> bool {
        self.topo
            .sibling(cpu)
            .is_some_and(|s| self.cpus[s.index()].is_occupied())
    }

    /// Execution rate for a workload thread running on `cpu` right now.
    pub fn effective_rate(&self, cpu: CpuId) -> f64 {
        if !self.cfg.smt_model {
            return 1.0;
        }
        self.costs.work_rate(self.sibling_busy(cpu))
    }

    /// Requests that `tid` (currently blocked) become runnable. Applied
    /// when the current hook returns; waking an already-active or dead
    /// thread is a no-op.
    pub fn wake(&mut self, tid: Tid) {
        self.pending_wakes.push_back(tid);
    }

    /// Wakes `tid` at the future time `at`.
    pub fn wake_at(&mut self, at: Nanos, tid: Tid) {
        debug_assert!(at >= self.now);
        self.events.push(at, Ev::Wake { tid });
    }

    /// Requests moving `tid` into scheduling class `class`.
    pub fn move_to_class(&mut self, tid: Tid, class: ClassId) {
        self.pending_class_moves.push_back((tid, class));
    }

    /// Changes `tid`'s affinity mask.
    ///
    /// # Panics
    ///
    /// Panics if the mask is empty.
    pub fn set_affinity(&mut self, tid: Tid, mask: CpuSet) {
        assert!(!mask.is_empty(), "affinity mask must not be empty");
        self.threads[tid.index()].affinity = mask;
        self.pending_affinity.push_back(tid);
    }

    /// Requests killing `tid`; applied when the current hook returns.
    /// Usable from class/app/driver context (e.g. the ghOSt watchdog
    /// tearing down an enclave's agents).
    pub fn kill(&mut self, tid: Tid) {
        self.pending_kills.push_back(tid);
    }

    /// Changes `tid`'s nice value.
    pub fn set_nice(&mut self, tid: Tid, nice: i8) {
        self.threads[tid.index()].nice = nice.clamp(-20, 19);
        self.pending_nice.push_back(tid);
    }

    /// Requests a scheduler pass on `cpu` as soon as the current hook
    /// returns (local reschedule: no IPI cost).
    pub fn request_resched(&mut self, cpu: CpuId) {
        if !self.cpus[cpu.index()].resched_pending {
            self.cpus[cpu.index()].resched_pending = true;
            self.pending_resched.push_back(cpu);
        }
    }

    /// Schedules a scheduler pass on `cpu` at the future time `at`,
    /// modelling an IPI arrival. The traced `from_cpu` is `u16::MAX`
    /// (unknown): the sim has no notion of which CPU the sending code
    /// runs on at this point.
    pub fn send_ipi(&mut self, cpu: CpuId, at: Nanos) {
        debug_assert!(at >= self.now);
        self.stats.ipis_sent += 1;
        self.cpus[cpu.index()].ipis += 1;
        self.cfg
            .trace
            .emit(self.now, cpu.0, || TraceEvent::IpiSent {
                from_cpu: u16::MAX,
                to_cpu: cpu.0,
            });
        match self.cfg.faults.ipi_fate(self.now) {
            IpiFate::Normal => self.events.push(at, Ev::Resched { cpu }),
            IpiFate::Delayed(extra) => self
                .events
                .push(at.saturating_add(extra), Ev::Resched { cpu }),
            IpiFate::Lost => {}
        }
    }

    /// Arms a timer delivered to `app` via [`App::on_timer`].
    pub fn arm_app_timer(&mut self, at: Nanos, app: AppId, key: u64) {
        debug_assert!(at >= self.now);
        self.events.push(at, Ev::AppTimer { app, key });
    }

    /// Arms a timer delivered to the agent driver via
    /// [`SchedClass::on_timer`] on the ghOSt slot.
    pub fn arm_driver_timer(&mut self, at: Nanos, key: u64) {
        debug_assert!(at >= self.now);
        self.events.push(at, Ev::DriverTimer { key });
    }

    /// Schedules a re-activation of a spinning agent thread at `at`. The
    /// activation is skipped automatically if the agent is no longer
    /// running by then. At most one loop event stays live per agent: a
    /// request at or after an already-armed time is dropped; an earlier
    /// request supersedes (the later event is ignored when it fires).
    pub fn schedule_agent_loop(&mut self, at: Nanos, tid: Tid) {
        debug_assert!(at >= self.now);
        let t = &mut self.threads[tid.index()];
        if let Some(cur) = t.agent_next_loop {
            if at >= cur {
                return;
            }
        }
        t.agent_next_loop = Some(at);
        let gen = t.stint;
        self.events.push(at, Ev::AgentLoop { tid, gen });
    }

    /// The AppId that will be assigned to the next registered app; lets
    /// callers spawn threads tagged with the app id before constructing
    /// the app itself.
    pub fn next_app_id(&self) -> AppId {
        AppId(self.next_app)
    }

    /// Spawns an agent thread from driver context, where the full
    /// [`Kernel`] is not reachable. The agent class has no `on_attach`
    /// hook, so pushing the thread directly is equivalent to
    /// [`Kernel::spawn`]; the ghOSt runtime uses this to respawn standby
    /// agents during crash recovery. The thread starts
    /// [`ThreadState::Blocked`]; wake it to run.
    ///
    /// # Panics
    ///
    /// Panics if the spec is not an agent: other classes may rely on
    /// their `on_attach` hook, which this path skips.
    pub fn spawn_agent_thread(&mut self, spec: ThreadSpec) -> Tid {
        assert_eq!(
            spec.kind,
            ThreadKind::Agent,
            "only agent threads can be spawned from driver context"
        );
        assert!(!spec.affinity.is_empty(), "affinity mask must not be empty");
        let tid = Tid(self.threads.len() as u32);
        let mut t = SimThread::new(tid, spec.name, spec.class, spec.affinity);
        t.nice = spec.nice;
        t.app = spec.app;
        t.kind = spec.kind;
        t.cookie = spec.cookie;
        self.threads.push(t);
        tid
    }
}

/// The simulator.
pub struct Kernel {
    /// Shared state.
    pub state: KernelState,
    classes: Vec<Box<dyn SchedClass>>,
    apps: Vec<Box<dyn App>>,
}

/// Specification for spawning a thread.
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    /// Debug name.
    pub name: String,
    /// Initial scheduling class.
    pub class: ClassId,
    /// Nice value.
    pub nice: i8,
    /// Affinity mask.
    pub affinity: CpuSet,
    /// Owning app, if any.
    pub app: Option<AppId>,
    /// Workload or agent.
    pub kind: ThreadKind,
    /// Grouping cookie (e.g. VM id).
    pub cookie: u64,
}

impl ThreadSpec {
    /// A workload thread in CFS with full affinity over `topo`.
    pub fn workload(name: &str, topo: &Topology) -> Self {
        Self {
            name: name.to_string(),
            class: CLASS_CFS,
            nice: 0,
            affinity: topo.all_cpus_set(),
            app: None,
            kind: ThreadKind::Workload,
            cookie: 0,
        }
    }

    /// Sets the class.
    pub fn class(mut self, class: ClassId) -> Self {
        self.class = class;
        self
    }

    /// Sets the nice value.
    pub fn nice(mut self, nice: i8) -> Self {
        self.nice = nice;
        self
    }

    /// Sets the affinity mask.
    pub fn affinity(mut self, mask: CpuSet) -> Self {
        self.affinity = mask;
        self
    }

    /// Sets the owning app.
    pub fn app(mut self, app: AppId) -> Self {
        self.app = Some(app);
        self
    }

    /// Marks the thread as an agent.
    pub fn agent(mut self) -> Self {
        self.kind = ThreadKind::Agent;
        self.class = CLASS_AGENT;
        self
    }

    /// Sets the cookie.
    pub fn cookie(mut self, cookie: u64) -> Self {
        self.cookie = cookie;
        self
    }
}

impl Kernel {
    /// Boots a machine with the default class hierarchy: Agent, RT-FIFO,
    /// CFS, a null ghOSt slot (install the real one via
    /// [`Kernel::install_class`]), and Idle.
    pub fn new(topo: Topology, cfg: KernelConfig) -> Self {
        let n = topo.num_cpus();
        let mut events = EventQueue::new();
        if cfg.tick_ns > 0 {
            for c in 0..n {
                events.push(
                    cfg.tick_ns,
                    Ev::Tick {
                        cpu: CpuId(c as u16),
                    },
                );
            }
        }
        for (idx, fe) in cfg.faults.events.iter().enumerate() {
            if fe.kind.is_one_shot() {
                events.push(fe.at, Ev::Fault { idx });
            }
        }
        let state = KernelState {
            now: 0,
            topo,
            costs: CostModel::default(),
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            threads: Vec::new(),
            cpus: vec![CpuState::default(); n],
            stats: SimStats::default(),
            offcpu_reason: OffCpuReason::Block,
            events,
            pending_wakes: VecDeque::new(),
            pending_class_moves: VecDeque::new(),
            pending_affinity: VecDeque::new(),
            pending_nice: VecDeque::new(),
            pending_resched: VecDeque::new(),
            pending_kills: VecDeque::new(),
            next_app: 0,
        };
        let classes: Vec<Box<dyn SchedClass>> = vec![
            Box::new(AgentClass::new(n)),
            Box::new(RtFifoClass::new(n)),
            Box::new(CfsClass::new(n)),
            Box::new(NullClass("ghost-null")),
            Box::new(NullClass("idle")),
        ];
        Self {
            state,
            classes,
            apps: Vec::new(),
        }
    }

    /// Replaces the class at `slot` (e.g. install the real ghOSt class at
    /// [`crate::class::CLASS_GHOST`], MicroQuanta at
    /// [`crate::class::CLASS_RT`], or a core-scheduling variant at
    /// [`CLASS_CFS`]).
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range or any thread already uses it.
    pub fn install_class(&mut self, slot: ClassId, class: Box<dyn SchedClass>) {
        assert!((slot as usize) < NUM_CLASSES, "bad class slot");
        assert!(
            self.state.threads.iter().all(|t| t.class != slot),
            "cannot replace a class slot with attached threads"
        );
        self.classes[slot as usize] = class;
    }

    /// Registers an app and returns its id.
    pub fn add_app(&mut self, app: Box<dyn App>) -> AppId {
        let id = AppId(self.state.next_app);
        self.state.next_app += 1;
        self.apps.push(app);
        id
    }

    /// Mutable access to a registered app (for harnesses to extract
    /// results after a run).
    pub fn app_mut(&mut self, id: AppId) -> &mut dyn App {
        self.apps[id.index()].as_mut()
    }

    /// Spawns a thread. It starts [`ThreadState::Blocked`]; wake it to run.
    pub fn spawn(&mut self, spec: ThreadSpec) -> Tid {
        let tid = Tid(self.state.threads.len() as u32);
        assert!(!spec.affinity.is_empty(), "affinity mask must not be empty");
        let mut t = SimThread::new(tid, spec.name, spec.class, spec.affinity);
        t.nice = spec.nice;
        t.app = spec.app;
        t.kind = spec.kind;
        t.cookie = spec.cookie;
        self.state.threads.push(t);
        self.classes[spec.class as usize].on_attach(tid, &mut self.state);
        tid
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.state.now
    }

    /// Runs the event loop until virtual time `until` (inclusive of events
    /// at exactly `until`), bracketed by the ghOSt slot's
    /// [`SchedClass::enter`] / [`SchedClass::leave`].
    pub fn run_until(&mut self, until: Nanos) {
        self.classes[CLASS_GHOST as usize].enter();
        self.settle();
        while let Some((at, ev)) = self.state.events.pop_until(until) {
            debug_assert!(at >= self.state.now, "time went backwards");
            self.state.now = at;
            self.state.stats.events += 1;
            self.handle(ev);
            self.settle();
        }
        self.state.now = self.state.now.max(until);
        self.classes[CLASS_GHOST as usize].leave();
    }

    /// Runs for `dur` more nanoseconds of virtual time.
    pub fn run_for(&mut self, dur: Nanos) {
        self.run_until(self.state.now + dur);
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Wake { tid } => self.state.pending_wakes.push_back(tid),
            Ev::Resched { cpu } => {
                self.state
                    .cfg
                    .trace
                    .emit(self.state.now, cpu.0, || TraceEvent::IpiReceived {
                        cpu: cpu.0,
                    });
                self.state.request_resched(cpu)
            }
            Ev::Tick { cpu } => self.handle_tick(cpu),
            Ev::CtxSwitchDone { cpu, seq } => self.handle_switch_done(cpu, seq),
            Ev::SegmentEnd { tid, stint } => self.handle_segment_end(tid, stint),
            Ev::AgentLoop { tid, gen } => self.handle_agent_loop(tid, gen),
            Ev::AgentPark { tid, gen, block } => self.handle_agent_park(tid, gen, block),
            Ev::AppTimer { app, key } => {
                let mut a = std::mem::replace(&mut self.apps[app.index()], Box::new(NoApp));
                a.on_timer(key, &mut self.state);
                self.apps[app.index()] = a;
            }
            Ev::DriverTimer { key } => {
                self.classes[CLASS_GHOST as usize].on_timer(key, &mut self.state);
            }
            Ev::Fault { idx } => self.handle_fault(idx),
        }
    }

    /// Dispatches a one-shot fault from the configured plan: applies its
    /// kernel-level effect, then forwards it to the agent driver so the
    /// userspace runtime can react (e.g. [`FaultKind::Upgrade`]).
    fn handle_fault(&mut self, idx: usize) {
        let kind = self.state.cfg.faults.events[idx].kind.clone();
        match kind {
            FaultKind::AgentCrash { cpu } => {
                let victim = self
                    .state
                    .threads
                    .iter()
                    .find(|t| {
                        t.kind == ThreadKind::Agent
                            && t.state != ThreadState::Dead
                            && t.affinity.contains(cpu)
                    })
                    .map(|t| t.tid);
                if let Some(tid) = victim {
                    self.kill_now(tid);
                }
            }
            FaultKind::SpuriousWakeup { nth } => {
                let live: Vec<Tid> = self
                    .state
                    .threads
                    .iter()
                    .filter(|t| t.kind == ThreadKind::Workload && t.state != ThreadState::Dead)
                    .map(|t| t.tid)
                    .collect();
                if !live.is_empty() {
                    // `wake` is a no-op unless the thread is blocked, so a
                    // spurious wakeup of an active thread dissolves — just
                    // like a stray `try_to_wake_up` in the real kernel.
                    let tid = live[nth as usize % live.len()];
                    self.state.wake(tid);
                }
            }
            _ => {}
        }
        self.classes[CLASS_GHOST as usize].on_fault(&kind, &mut self.state);
    }

    /// Applies deferred operations until the machine is quiescent. Every
    /// event handler ends with one; setup code that queued operations on
    /// [`Kernel::state`] directly (a wake, an agent spawn) calls it too.
    pub fn settle(&mut self) {
        // Livelock guard, scaled to the work already queued: a mass wake
        // of N threads legitimately takes N iterations (the Fig. 5 scale
        // point wakes a million at once), while a genuine livelock
        // — operations endlessly re-deferring each other — still trips
        // the bound because it never drains the backlog.
        let queued = self.state.pending_class_moves.len()
            + self.state.pending_wakes.len()
            + self.state.pending_affinity.len()
            + self.state.pending_nice.len()
            + self.state.pending_kills.len()
            + self.state.pending_resched.len();
        let budget = 100_000.max(4 * queued);
        for _ in 0..budget {
            if let Some((tid, class)) = self.state.pending_class_moves.pop_front() {
                self.apply_class_move(tid, class);
            } else if let Some(tid) = self.state.pending_wakes.pop_front() {
                self.apply_wake(tid);
            } else if let Some(tid) = self.state.pending_affinity.pop_front() {
                let class = self.state.threads[tid.index()].class;
                self.classes[class as usize].on_affinity_changed(tid, &mut self.state);
                // A running thread on a now-forbidden CPU must move.
                let t = &self.state.threads[tid.index()];
                if t.state == ThreadState::Running {
                    if let Some(cpu) = t.cpu {
                        if !t.affinity.contains(cpu) {
                            self.state.request_resched(cpu);
                        }
                    }
                }
            } else if let Some(tid) = self.state.pending_nice.pop_front() {
                let class = self.state.threads[tid.index()].class;
                self.classes[class as usize].on_nice_changed(tid, &mut self.state);
            } else if let Some(tid) = self.state.pending_kills.pop_front() {
                self.kill_now(tid);
            } else if let Some(cpu) = self.state.pending_resched.pop_front() {
                self.state.cpus[cpu.index()].resched_pending = false;
                self.do_resched(cpu);
            } else {
                return;
            }
        }
        panic!("settle() did not converge: livelock in deferred operations");
    }

    fn apply_wake(&mut self, tid: Tid) {
        let t = &mut self.state.threads[tid.index()];
        if t.state != ThreadState::Blocked {
            return;
        }
        t.state = ThreadState::Runnable;
        t.runnable_since = self.state.now;
        let class = t.class;
        let last_cpu = t.last_cpu;
        let placed = self.classes[class as usize].enqueue(tid, &mut self.state);
        // `cpu` is the placement target when the class picked one, else the
        // thread's previous CPU (mirrors sched:sched_wakeup's target_cpu).
        let wake_cpu = placed.or(last_cpu).map(|c| c.0).unwrap_or(0);
        self.state
            .cfg
            .trace
            .emit(self.state.now, wake_cpu, || TraceEvent::SchedWakeup {
                cpu: wake_cpu,
                tid: tid.0,
            });
        if let Some(cpu) = placed {
            self.check_preempt(cpu, tid, class);
        }
    }

    /// CPU that has picked `tid` and is mid-context-switch to it. In this
    /// window the thread sits on no runqueue yet is still `Runnable` with
    /// `t.cpu` unset, so its state alone cannot distinguish it from a
    /// queued thread. Linux closes the same window with `p->on_cpu` and
    /// the rq lock; callers that would requeue the thread must defer
    /// until the switch lands or they create a second queued presence.
    fn switching_to(&self, tid: Tid) -> Option<CpuId> {
        let cpu = self.state.threads[tid.index()].switch_target?;
        let cs = &self.state.cpus[cpu.index()];
        (cs.current == Some(tid) && cs.run_state == CpuRunState::Switching).then_some(cpu)
    }

    fn apply_class_move(&mut self, tid: Tid, new_class: ClassId) {
        let old = self.state.threads[tid.index()].class;
        if old == new_class {
            return;
        }
        let st = self.state.threads[tid.index()].state;
        let in_flight = self.switching_to(tid);
        if st == ThreadState::Runnable && in_flight.is_none() {
            self.classes[old as usize].dequeue(tid, &mut self.state);
        }
        self.classes[old as usize].on_detach(tid, &mut self.state);
        self.state.threads[tid.index()].class = new_class;
        self.classes[new_class as usize].on_attach(tid, &mut self.state);
        match st {
            ThreadState::Runnable => {
                if let Some(cpu) = in_flight {
                    // The thread is in-flight to `cpu` (picked, mid-switch,
                    // on no runqueue). Enqueueing it now would give it a
                    // second queued presence that another CPU could steal
                    // while it runs. Let the switch land, then re-evaluate
                    // under the new class.
                    self.state.cpus[cpu.index()].resched_after_switch = true;
                } else {
                    let placed = self.classes[new_class as usize].enqueue(tid, &mut self.state);
                    if let Some(cpu) = placed {
                        self.check_preempt(cpu, tid, new_class);
                    }
                }
            }
            ThreadState::Running => {
                // Re-evaluate: the thread may no longer be the right choice.
                if let Some(cpu) = self.state.threads[tid.index()].cpu {
                    self.state.request_resched(cpu);
                }
            }
            _ => {}
        }
    }

    fn check_preempt(&mut self, cpu: CpuId, waking: Tid, class: ClassId) {
        let cs = &self.state.cpus[cpu.index()];
        match cs.run_state {
            CpuRunState::Idle => self.state.request_resched(cpu),
            CpuRunState::Switching => {
                self.state.cpus[cpu.index()].resched_after_switch = true;
            }
            CpuRunState::Busy => {
                let cur = cs.current.expect("busy CPU has a current thread");
                let cur_class = self.state.threads[cur.index()].class;
                if class < cur_class
                    || (class == cur_class
                        && self.classes[class as usize].should_preempt(waking, cur, &self.state))
                {
                    self.state.request_resched(cpu);
                }
            }
        }
    }

    /// One full scheduler pass on `cpu`: put the current thread back (if
    /// it is still runnable), pick the best thread across classes, and
    /// switch if it differs.
    fn do_resched(&mut self, cpu: CpuId) {
        let ci = cpu.index();
        if self.state.cpus[ci].run_state == CpuRunState::Switching {
            self.state.cpus[ci].resched_after_switch = true;
            return;
        }
        // Put the current thread (if any, still running) back on its
        // runqueue so it competes in pick_next.
        let prev = self.state.cpus[ci].current;
        if let Some(cur) = prev {
            if self.state.threads[cur.index()].state == ThreadState::Running {
                self.accrue_stint(cur);
                let t = &mut self.state.threads[cur.index()];
                t.state = ThreadState::Runnable;
                t.runnable_since = self.state.now;
                t.cpu = None;
                let class = t.class;
                self.state.offcpu_reason = OffCpuReason::Preempt;
                self.classes[class as usize].put_prev(cur, cpu, true, &mut self.state);
            }
        }
        // Pick across classes in priority order.
        let mut picked = None;
        for class in &mut self.classes {
            if let Some(tid) = class.pick_next(cpu, &mut self.state) {
                picked = Some(tid);
                break;
            }
        }
        match picked {
            Some(next) if Some(next) == prev => {
                // Same thread: cancel the would-be switch, keep running.
                let t = &mut self.state.threads[next.index()];
                t.state = ThreadState::Running;
                self.begin_stint(next, cpu);
            }
            Some(next) => {
                if let Some(cur) = prev {
                    if self.state.threads[cur.index()].state == ThreadState::Runnable {
                        self.state.threads[cur.index()].preemptions += 1;
                        self.record_switch_out(cpu, cur, PREV_RUNNABLE);
                        self.notify_agent_descheduled(cur);
                    }
                }
                self.start_switch(cpu, next);
            }
            None => {
                if let Some(cur) = prev {
                    if self.state.threads[cur.index()].state == ThreadState::Runnable {
                        // Nothing better, but current was requeued; this
                        // can only happen if its class declined to return
                        // it (e.g. throttled). Leave the CPU idle.
                        self.record_switch_out(cpu, cur, PREV_RUNNABLE);
                        self.notify_agent_descheduled(cur);
                    }
                }
                self.go_idle(cpu);
            }
        }
    }

    /// Remembers the outgoing thread for the `sched_switch` tracepoint,
    /// emitted when the incoming side lands (`start_running` / `go_idle`).
    fn record_switch_out(&mut self, cpu: CpuId, tid: Tid, prev_state: u8) {
        if self.state.cfg.trace.is_enabled() {
            let class = self.state.threads[tid.index()].class;
            self.state.cpus[cpu.index()].trace_prev = Some((tid.0, class, prev_state));
        }
    }

    /// Resolves the `prev_state` for a deferred `sched_switch` record. A
    /// wakeup can land inside the context-switch window — the thread
    /// blocked (so `trace_prev` recorded [`PREV_BLOCKED`]) and a wake
    /// arrived before the paired record is emitted. Linux's ttwu resets
    /// `prev->state` to `TASK_RUNNING` in exactly this race, so the
    /// tracepoint reports the thread runnable; mirror that here, or the
    /// trace shows a blocked switch-out *after* the wakeup and the
    /// invariant checker sees a non-runnable switch-in.
    fn resolve_prev_state(&self, prev_tid: u32, stored: u8) -> u8 {
        if stored == PREV_BLOCKED {
            let st = self.state.threads[Tid(prev_tid).index()].state;
            if matches!(st, ThreadState::Runnable | ThreadState::Running) {
                return PREV_RUNNABLE;
            }
        }
        stored
    }

    fn notify_agent_descheduled(&mut self, tid: Tid) {
        if self.state.threads[tid.index()].kind == ThreadKind::Agent {
            self.classes[CLASS_GHOST as usize].on_agent_descheduled(tid, &mut self.state);
        }
    }

    fn set_occupied(&mut self, cpu: CpuId) {
        let cs = &mut self.state.cpus[cpu.index()];
        if cs.run_state == CpuRunState::Idle {
            cs.busy_since = self.state.now;
        }
    }

    fn go_idle(&mut self, cpu: CpuId) {
        let ci = cpu.index();
        let was_occupied = self.state.cpus[ci].is_occupied();
        if was_occupied {
            let since = self.state.cpus[ci].busy_since;
            self.state.cpus[ci].busy_ns += self.state.now - since;
        }
        self.state.cpus[ci].current = None;
        self.state.cpus[ci].run_state = CpuRunState::Idle;
        self.state.cpus[ci].idle_since = self.state.now;
        if let Some((prev_tid, prev_class, prev_state)) = self.state.cpus[ci].trace_prev.take() {
            let prev_state = self.resolve_prev_state(prev_tid, prev_state);
            self.state
                .cfg
                .trace
                .emit(self.state.now, cpu.0, || TraceEvent::SchedSwitch {
                    cpu: cpu.0,
                    prev_tid,
                    prev_class,
                    prev_state,
                    next_tid: NO_TID,
                    next_class: crate::class::CLASS_IDLE,
                });
        }
        if was_occupied {
            self.sibling_rate_changed(cpu);
        }
    }

    fn start_switch(&mut self, cpu: CpuId, next: Tid) {
        let ci = cpu.index();
        self.set_occupied(cpu);
        let cs = &mut self.state.cpus[ci];
        cs.current = Some(next);
        let was_idle = cs.run_state == CpuRunState::Idle;
        cs.run_state = CpuRunState::Switching;
        cs.switch_seq += 1;
        let seq = cs.switch_seq;
        self.state.threads[next.index()].switch_target = Some(cpu);
        let cost = if self.state.threads[next.index()].kind == ThreadKind::Agent {
            self.state.costs.agent_wakeup
        } else {
            self.state.costs.ctx_switch_cfs
        };
        self.state
            .events
            .push(self.state.now + cost, Ev::CtxSwitchDone { cpu, seq });
        if was_idle {
            self.sibling_rate_changed(cpu);
        }
    }

    fn handle_switch_done(&mut self, cpu: CpuId, seq: u64) {
        let ci = cpu.index();
        if self.state.cpus[ci].switch_seq != seq
            || self.state.cpus[ci].run_state != CpuRunState::Switching
        {
            return; // Superseded.
        }
        self.state.cpus[ci].run_state = CpuRunState::Busy;
        self.state.cpus[ci].switches += 1;
        self.state.stats.ctx_switches += 1;
        let tid = self.state.cpus[ci]
            .current
            .expect("switching CPU has target");
        self.start_running(tid, cpu);
        if std::mem::take(&mut self.state.cpus[ci].resched_after_switch) {
            self.state.request_resched(cpu);
        }
    }

    fn start_running(&mut self, tid: Tid, cpu: CpuId) {
        let now = self.state.now;
        let (migrated, from_cpu) = {
            let t = &self.state.threads[tid.index()];
            (t.last_cpu.is_some() && t.last_cpu != Some(cpu), t.last_cpu)
        };
        if migrated {
            self.state.threads[tid.index()].migrations += 1;
            self.state.stats.migrations += 1;
            let from = from_cpu.map(|c| c.0).unwrap_or(u16::MAX);
            self.state
                .cfg
                .trace
                .emit(now, cpu.0, || TraceEvent::SchedMigrate {
                    tid: tid.0,
                    from_cpu: from,
                    to_cpu: cpu.0,
                });
        }
        let next_class = {
            let t = &mut self.state.threads[tid.index()];
            debug_assert_ne!(t.state, ThreadState::Dead);
            t.state = ThreadState::Running;
            t.total_wait += now - t.runnable_since;
            t.class
        };
        if self.state.cfg.trace.is_enabled() {
            // No recorded switch-out means the CPU was idle before.
            let (prev_tid, prev_class, prev_state) = self.state.cpus[cpu.index()]
                .trace_prev
                .take()
                .unwrap_or((NO_TID, crate::class::CLASS_IDLE, PREV_RUNNABLE));
            let prev_state = if prev_tid != NO_TID {
                self.resolve_prev_state(prev_tid, prev_state)
            } else {
                prev_state
            };
            self.state
                .cfg
                .trace
                .emit(now, cpu.0, || TraceEvent::SchedSwitch {
                    cpu: cpu.0,
                    prev_tid,
                    prev_class,
                    prev_state,
                    next_tid: tid.0,
                    next_class,
                });
        }
        self.begin_stint(tid, cpu);
    }

    /// (Re)starts an on-CPU stint for a thread already chosen to run on
    /// `cpu`: resets the stint clock and rate, schedules the segment-end
    /// event (workload) or invokes the driver (agent).
    fn begin_stint(&mut self, tid: Tid, cpu: CpuId) {
        let now = self.state.now;
        let rate = self.state.effective_rate(cpu);
        let kind = {
            let t = &mut self.state.threads[tid.index()];
            t.cpu = Some(cpu);
            t.last_cpu = Some(cpu);
            t.stint += 1;
            t.stint_start = now;
            t.rate = rate;
            t.kind
        };
        match kind {
            ThreadKind::Workload => {
                let t = &self.state.threads[tid.index()];
                let stint = t.stint;
                let dur = (t.remaining as f64 / rate).ceil() as Nanos;
                self.state
                    .events
                    .push(now + dur, Ev::SegmentEnd { tid, stint });
            }
            ThreadKind::Agent => {
                self.invoke_driver(tid, cpu);
            }
        }
    }

    /// Re-times the sibling's running workload thread after this CPU's
    /// occupancy changed (the SMT contention model).
    fn sibling_rate_changed(&mut self, cpu: CpuId) {
        if !self.state.cfg.smt_model {
            return;
        }
        let Some(sib) = self.state.topo.sibling(cpu) else {
            return;
        };
        let Some(tid) = self.state.cpus[sib.index()].current else {
            return;
        };
        if self.state.cpus[sib.index()].run_state != CpuRunState::Busy {
            return;
        }
        let t = &self.state.threads[tid.index()];
        if t.kind != ThreadKind::Workload || t.state != ThreadState::Running {
            return;
        }
        self.accrue_stint(tid);
        let rate = self.state.effective_rate(sib);
        let now = self.state.now;
        let t = &mut self.state.threads[tid.index()];
        t.rate = rate;
        t.stint += 1;
        let stint = t.stint;
        let dur = (t.remaining as f64 / rate).ceil() as Nanos;
        self.state
            .events
            .push(now + dur, Ev::SegmentEnd { tid, stint });
    }

    /// Folds the elapsed part of the current stint into the thread's
    /// accounting and restarts the stint clock at `now`.
    fn accrue_stint(&mut self, tid: Tid) {
        let now = self.state.now;
        let t = &mut self.state.threads[tid.index()];
        let wall = now - t.stint_start;
        let work = (wall as f64 * t.rate) as Nanos;
        t.total_oncpu += wall;
        t.total_work += work;
        t.remaining -= work.min(t.remaining);
        t.last_stint_wall = wall;
        t.stint_start = now;
    }

    fn handle_segment_end(&mut self, tid: Tid, stint: u64) {
        {
            let t = &self.state.threads[tid.index()];
            if t.stint != stint || t.state != ThreadState::Running {
                return; // Stale.
            }
        }
        self.accrue_stint(tid);
        // Rounding in rate scaling can leave a sliver; finish it.
        if self.state.threads[tid.index()].remaining > 0 {
            let t = &mut self.state.threads[tid.index()];
            t.stint += 1;
            let stint = t.stint;
            let dur = (t.remaining as f64 / t.rate).ceil() as Nanos;
            let at = self.state.now + dur;
            self.state.events.push(at, Ev::SegmentEnd { tid, stint });
            return;
        }
        let Some(app) = self.state.threads[tid.index()].app else {
            // No app: park the thread.
            self.take_off_cpu(tid, OffCpuReason::Block);
            return;
        };
        let mut a = std::mem::replace(&mut self.apps[app.index()], Box::new(NoApp));
        let next = a.on_segment_end(tid, &mut self.state);
        self.apps[app.index()] = a;
        match next {
            Next::Run { dur } => {
                let t = &mut self.state.threads[tid.index()];
                t.remaining = dur;
                t.stint += 1;
                let stint = t.stint;
                let d = (dur as f64 / t.rate).ceil() as Nanos;
                let at = self.state.now + d;
                self.state.events.push(at, Ev::SegmentEnd { tid, stint });
            }
            Next::Block => self.take_off_cpu(tid, OffCpuReason::Block),
            Next::Yield { dur } => {
                self.state.threads[tid.index()].remaining = dur;
                self.take_off_cpu(tid, OffCpuReason::Yield);
            }
            Next::Exit => {
                self.take_off_cpu(tid, OffCpuReason::Exit);
                let class = self.state.threads[tid.index()].class;
                self.classes[class as usize].on_detach(tid, &mut self.state);
                let mut a = std::mem::replace(&mut self.apps[app.index()], Box::new(NoApp));
                a.on_thread_exit(tid, &mut self.state);
                self.apps[app.index()] = a;
            }
        }
    }

    /// Removes a running thread from its CPU for `reason` and rescheds.
    fn take_off_cpu(&mut self, tid: Tid, reason: OffCpuReason) {
        let cpu = self.state.threads[tid.index()].cpu.expect("thread on CPU");
        self.accrue_stint(tid);
        let t = &mut self.state.threads[tid.index()];
        t.cpu = None;
        t.stint += 1; // Invalidate in-flight SegmentEnd events.
        let still_runnable = matches!(reason, OffCpuReason::Preempt | OffCpuReason::Yield);
        t.state = match reason {
            OffCpuReason::Preempt | OffCpuReason::Yield => ThreadState::Runnable,
            OffCpuReason::Block => ThreadState::Blocked,
            OffCpuReason::Exit => ThreadState::Dead,
        };
        if still_runnable {
            t.runnable_since = self.state.now;
        }
        let class = t.class;
        self.state.cpus[cpu.index()].current = None;
        self.record_switch_out(
            cpu,
            tid,
            match reason {
                OffCpuReason::Preempt | OffCpuReason::Yield => PREV_RUNNABLE,
                OffCpuReason::Block => PREV_BLOCKED,
                OffCpuReason::Exit => PREV_DEAD,
            },
        );
        self.state.offcpu_reason = reason;
        self.classes[class as usize].put_prev(tid, cpu, still_runnable, &mut self.state);
        // The CPU is logically still occupied until the next pick; resched
        // immediately.
        self.do_resched(cpu);
    }

    fn handle_tick(&mut self, cpu: CpuId) {
        self.state.stats.ticks += 1;
        self.state
            .cfg
            .trace
            .emit(self.state.now, cpu.0, || TraceEvent::TickDelivered {
                cpu: cpu.0,
            });
        // Re-arm first so classes can rely on periodic ticks. A tick-skew
        // fault window stretches the period (clock drift between CPUs).
        if self.state.cfg.tick_ns > 0 {
            let skew = self.state.cfg.faults.tick_extra(self.state.now);
            self.state.events.push(
                self.state.now + self.state.cfg.tick_ns + skew,
                Ev::Tick { cpu },
            );
        }
        let current = self.state.cpus[cpu.index()].current;
        let mut resched = false;
        if self.state.cpus[cpu.index()].run_state == CpuRunState::Busy {
            if let Some(cur) = current {
                let class = self.state.threads[cur.index()].class;
                resched = self.classes[class as usize].on_tick(cpu, cur, &mut self.state);
            }
        }
        for class in &mut self.classes {
            class.on_tick_all(cpu, &mut self.state);
        }
        if resched {
            self.state.request_resched(cpu);
        }
    }

    fn invoke_driver(&mut self, tid: Tid, cpu: CpuId) {
        // Serialize agent work: if the previous activation's charged time
        // has not elapsed yet, defer this activation until it has.
        let busy_until = self.state.threads[tid.index()].agent_busy_until;
        if self.state.now < busy_until {
            self.state.threads[tid.index()].agent_next_loop = None;
            self.state.schedule_agent_loop(busy_until, tid);
            return;
        }
        // This activation consumes any armed loop; the outcome below (or
        // message notifications) re-arm as needed.
        self.state.threads[tid.index()].agent_next_loop = None;
        let outcome = self.classes[CLASS_GHOST as usize].run_agent(tid, cpu, &mut self.state);
        let now = self.state.now;
        let gen = self.state.threads[tid.index()].stint;
        let busy = match outcome {
            AgentOutcome::Spin { busy, .. }
            | AgentOutcome::Block { busy }
            | AgentOutcome::Yield { busy } => busy,
        };
        self.state.threads[tid.index()].agent_busy_until = now + busy;
        match outcome {
            AgentOutcome::Spin { busy, next } => {
                if let Some(at) = next {
                    // Clamp self-wakeups into the future: a spin iteration
                    // always advances virtual time, so a policy that asks
                    // to be re-run "now" cannot wedge the simulation.
                    let at = at.max(now + busy).max(now + 100);
                    self.state.schedule_agent_loop(at, tid);
                }
            }
            AgentOutcome::Block { busy } => {
                self.state.events.push(
                    now + busy,
                    Ev::AgentPark {
                        tid,
                        gen,
                        block: true,
                    },
                );
            }
            AgentOutcome::Yield { busy } => {
                self.state.events.push(
                    now + busy,
                    Ev::AgentPark {
                        tid,
                        gen,
                        block: false,
                    },
                );
            }
        }
    }

    fn handle_agent_loop(&mut self, tid: Tid, gen: u64) {
        let t = &self.state.threads[tid.index()];
        if t.stint != gen || t.state != ThreadState::Running {
            return; // Stale: the agent moved or parked meanwhile.
        }
        // Superseded duplicate: only the event matching the armed time is
        // live (see `schedule_agent_loop`).
        if t.agent_next_loop != Some(self.state.now) {
            return;
        }
        let cpu = t.cpu.expect("running agent has a CPU");
        self.invoke_driver(tid, cpu);
    }

    fn handle_agent_park(&mut self, tid: Tid, gen: u64, block: bool) {
        let t = &self.state.threads[tid.index()];
        if t.stint != gen || t.state != ThreadState::Running {
            return; // Stale.
        }
        let reason = if block {
            OffCpuReason::Block
        } else {
            OffCpuReason::Yield
        };
        self.take_off_cpu(tid, reason);
    }

    /// Fault injection / teardown: kills a thread outright. A running
    /// thread is taken off its CPU first.
    pub fn kill(&mut self, tid: Tid) {
        self.kill_now(tid);
        self.settle();
    }

    fn kill_now(&mut self, tid: Tid) {
        let st = self.state.threads[tid.index()].state;
        match st {
            ThreadState::Dead => return,
            ThreadState::Running => {
                self.take_off_cpu(tid, OffCpuReason::Exit);
            }
            ThreadState::Runnable => {
                let class = self.state.threads[tid.index()].class;
                self.classes[class as usize].dequeue(tid, &mut self.state);
                self.state.threads[tid.index()].state = ThreadState::Dead;
            }
            ThreadState::Blocked => {
                self.state.threads[tid.index()].state = ThreadState::Dead;
            }
        }
        let class = self.state.threads[tid.index()].class;
        self.classes[class as usize].on_detach(tid, &mut self.state);
        if self.state.threads[tid.index()].kind == ThreadKind::Agent {
            self.classes[CLASS_GHOST as usize].on_agent_killed(tid, &mut self.state);
        }
    }

    /// Wakes a thread immediately (convenience for tests and setup code).
    pub fn wake_now(&mut self, tid: Tid) {
        self.state.wake(tid);
        self.settle();
    }

    /// Assigns `dur` of work to a blocked thread and wakes it.
    pub fn assign_and_wake(&mut self, tid: Tid, dur: Nanos) {
        self.state.threads[tid.index()].remaining = dur;
        self.wake_now(tid);
    }
}

/// Placeholder app swapped in while an app hook runs (guards against
/// re-entrant app access).
struct NoApp;

impl App for NoApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "none"
    }

    fn on_timer(&mut self, _key: u64, _k: &mut KernelState) {
        panic!("re-entrant app invocation");
    }

    fn on_segment_end(&mut self, _tid: Tid, _k: &mut KernelState) -> Next {
        panic!("re-entrant app invocation");
    }
}
