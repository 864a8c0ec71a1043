//! Native threads as the kernel sees them.

use crate::app::AppId;
use crate::class::ClassId;
use crate::time::Nanos;
use crate::topology::CpuId;

/// A native thread identifier (the simulator's TID space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid(pub u32);

impl Tid {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Tid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tid{}", self.0)
    }
}

/// Thread lifecycle states, mirroring the kernel's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Waiting on a runqueue (or, for ghOSt threads, waiting for an agent
    /// to schedule it).
    Runnable,
    /// Currently on a CPU.
    Running,
    /// Sleeping; must be woken to run again.
    Blocked,
    /// Exited; will never run again.
    Dead,
}

/// What drives a thread's on-CPU behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadKind {
    /// A workload thread: runs work segments dispensed by its [`AppId`].
    Workload,
    /// A scheduling agent: on-CPU behaviour is delegated to the
    /// ghOSt class's agent driver ([`crate::class::SchedClass::run_agent`]).
    Agent,
}

/// A simulated native thread.
#[derive(Debug, Clone)]
pub struct SimThread {
    /// This thread's id.
    pub tid: Tid,
    /// Lifecycle state.
    pub state: ThreadState,
    /// Scheduling class the thread currently belongs to.
    pub class: ClassId,
    /// Nice value (-20..=19), used by CFS weighting.
    pub nice: i8,
    /// CPUs this thread may run on (`sched_setaffinity`), as an id into
    /// the kernel's table of distinct masks: read it with
    /// [`crate::kernel::KernelState::affinity`].
    pub(crate) mask: u32,
    /// Owning application, if any.
    pub app: Option<AppId>,
    /// Workload vs agent.
    pub kind: ThreadKind,
    /// CPU currently running this thread.
    pub cpu: Option<CpuId>,
    /// CPU the thread last ran on (for locality decisions).
    pub last_cpu: Option<CpuId>,
    /// CPU that most recently started a context switch to this thread.
    /// A hint: the switch is still in flight only while that CPU is
    /// `Switching` with this thread as `current`.
    pub switch_target: Option<CpuId>,
    /// Remaining work in the current segment, in lone-core nanoseconds.
    pub remaining: Nanos,
    /// Generation counter bumped whenever the thread goes on/off CPU;
    /// stale `SegmentEnd` events are ignored by comparing this.
    pub stint: u64,
    /// When the current on-CPU stint started.
    pub stint_start: Nanos,
    /// Execution rate of the current stint (1.0, or the SMT factor).
    pub rate: f64,
    /// When the thread last became runnable (for wait-time accounting).
    pub runnable_since: Nanos,
    /// Wall duration of the last completed on-CPU stint (read by classes
    /// in `put_prev` for runtime accounting such as CFS vruntime).
    pub last_stint_wall: Nanos,
    /// Total on-CPU time accumulated (scaled by rate; i.e., work done).
    pub total_work: Nanos,
    /// Total wall time spent on CPU.
    pub total_oncpu: Nanos,
    /// Total time spent waiting while runnable.
    pub total_wait: Nanos,
    /// Number of involuntary preemptions suffered.
    pub preemptions: u64,
    /// Number of cross-CPU migrations.
    pub migrations: u64,
    /// Opaque cookie for policies that need grouping (e.g., the VM id for
    /// core scheduling). 0 means "no cookie".
    pub cookie: u64,
    /// For agent threads: the virtual time until which the current
    /// activation's charged work occupies the agent. New activations are
    /// deferred past this point so agent work is properly serialized.
    pub agent_busy_until: Nanos,
    /// For agent threads: the scheduled time of the single live
    /// `AgentLoop` event, if any. Arming is deduplicated against this so
    /// a spinning agent never accumulates redundant wakeup events.
    pub agent_next_loop: Option<Nanos>,
}

impl SimThread {
    /// Creates a new thread in the [`ThreadState::Blocked`] state.
    pub(crate) fn new(tid: Tid, class: ClassId, mask: u32) -> Self {
        Self {
            tid,
            state: ThreadState::Blocked,
            class,
            nice: 0,
            mask,
            app: None,
            kind: ThreadKind::Workload,
            cpu: None,
            last_cpu: None,
            switch_target: None,
            remaining: 0,
            stint: 0,
            stint_start: 0,
            rate: 1.0,
            runnable_since: 0,
            last_stint_wall: 0,
            total_work: 0,
            total_oncpu: 0,
            total_wait: 0,
            preemptions: 0,
            migrations: 0,
            cookie: 0,
            agent_busy_until: 0,
            agent_next_loop: None,
        }
    }

    /// True if the thread is runnable or running.
    pub fn is_active(&self) -> bool {
        matches!(self.state, ThreadState::Runnable | ThreadState::Running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::CLASS_CFS;

    #[test]
    fn new_thread_starts_blocked() {
        let t = SimThread::new(Tid(1), CLASS_CFS, 0);
        assert_eq!(t.state, ThreadState::Blocked);
        assert!(!t.is_active());
    }

    #[test]
    fn active_states() {
        let mut t = SimThread::new(Tid(1), CLASS_CFS, 0);
        t.state = ThreadState::Runnable;
        assert!(t.is_active());
        t.state = ThreadState::Running;
        assert!(t.is_active());
        t.state = ThreadState::Dead;
        assert!(!t.is_active());
    }
}
