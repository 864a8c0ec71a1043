//! What an agent activation returns.
//!
//! ghOSt agents are ordinary threads in the top-priority Agent class; what
//! they *do* while on CPU is delegated to the class installed in the
//! [`crate::class::CLASS_GHOST`] slot, whose driver hooks
//! ([`crate::class::SchedClass::run_agent`] and friends) are the ghOSt
//! class's other face. The kernel invokes `run_agent` when an agent
//! thread lands on a CPU and whenever a scheduled agent-loop fires.

use crate::time::Nanos;

/// How an agent activation ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentOutcome {
    /// The agent blocks after `busy` nanoseconds of work (the per-CPU
    /// model: committing a local transaction gives up the CPU, §3.2).
    Block { busy: Nanos },
    /// The agent yields the CPU after `busy` nanoseconds but stays
    /// runnable (inactive agents "immediately yield, vacating their
    /// CPUs", §3.3).
    Yield { busy: Nanos },
    /// The agent keeps spinning. `busy` is the work performed this
    /// activation; if `next` is set, the kernel re-invokes the driver at
    /// that absolute time (otherwise the next activation comes from a
    /// message post or driver timer).
    Spin { busy: Nanos, next: Option<Nanos> },
}
