//! The centralized FIFO / round-robin policy — the paper's Fig. 4 global
//! agent and the policy behind the Fig. 5 scalability experiment ("The
//! policy manages all threads in a FIFO runqueue, scheduling them on CPUs
//! as soon as CPUs become idle. The agent groups as many transactions as
//! possible per commit.").

use crate::kernel::{PolicyKernel, RunQueue};
use ghost_core::msg::Message;
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::CommitGovernor;

/// Centralized FIFO over all managed threads.
#[derive(Default)]
pub struct CentralizedFifo {
    /// Thread view, commit counters and the reused group-commit buffer.
    /// Public with [`CentralizedFifo::rq`] so wrappers can drive the same
    /// queue with a different commit strategy (the no-group-commit and
    /// PNT ablations).
    pub k: PolicyKernel,
    /// Runnable threads, oldest first.
    pub rq: RunQueue,
    /// Bounded `ESTALE` retry: persistent-overflow threads are shed to
    /// CFS instead of livelocking the agent.
    pub governor: CommitGovernor,
    /// Per-decision compute cost charged to the agent (ns); models the
    /// policy's own bookkeeping.
    pub decision_cost: u64,
}

impl CentralizedFifo {
    /// Creates the policy with a small default decision cost.
    pub fn new() -> Self {
        Self {
            decision_cost: 50,
            ..Self::default()
        }
    }
}

impl GhostPolicy for CentralizedFifo {
    fn name(&self) -> &str {
        "centralized-fifo"
    }

    fn on_msg(&mut self, msg: &Message, _ctx: &mut PolicyCtx<'_>) {
        self.k.tracker.fold(msg, &mut self.rq);
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        if self.rq.is_empty() {
            return;
        }
        // Group as many transactions as possible into one commit (Fig. 4).
        for cpu in ctx.idle_cpus().iter() {
            let Some(tid) = self.rq.pop() else {
                break;
            };
            ctx.charge(self.decision_cost);
            self.k.stage(tid, cpu);
        }
        let rq = &mut self.rq;
        self.k
            .commit(ctx, false, Some(&mut self.governor), |_, tid, ok| {
                if !ok {
                    rq.push(tid);
                }
            });
    }
}
