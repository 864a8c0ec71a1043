//! The per-CPU scheduling model (§3.2, Fig. 3): every CPU has its own
//! agent and message queue; each agent schedules only its own CPU by
//! committing local transactions guarded by its `Aseq`.
//!
//! New threads arrive on the default queue (handled by the first CPU's
//! agent), which load-balances them across per-CPU queues with
//! `ASSOCIATE_QUEUE()` — the thread-to-queue re-routing of §3.1.

use crate::kernel::{PolicyKernel, RunQueue};
use crate::tracker::Transition;
use ghost_core::msg::{Message, MsgType};
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::slab::{CpuMap, TidMap};
use ghost_core::txn::Transaction;
use ghost_sim::thread::Tid;
use ghost_sim::topology::CpuId;

/// Per-CPU FIFO scheduling with message-queue-based load distribution.
#[derive(Default)]
pub struct PerCpuPolicy {
    /// Thread view and commit counters (failed commits are retried on
    /// the next activation).
    pub k: PolicyKernel,
    /// Per-CPU runqueues, dense in the topology's CPU id space.
    rqs: CpuMap<RunQueue>,
    /// Thread → home CPU assignment.
    home: TidMap<CpuId>,
    /// Round-robin cursor for placing new threads.
    next_cpu: usize,
    /// Threads stolen from peer runqueues.
    pub steals: u64,
}

impl PerCpuPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn rq(&mut self, cpu: CpuId) -> &mut RunQueue {
        self.rqs.or_insert(cpu, RunQueue::default())
    }

    fn place_new_thread(&mut self, tid: Tid, ctx: &mut PolicyCtx<'_>) -> CpuId {
        // Round-robin across enclave CPUs, skipping the busiest.
        let cpus: Vec<CpuId> = ctx.enclave_cpus().iter().collect();
        let cpu = cpus[self.next_cpu % cpus.len()];
        self.next_cpu += 1;
        self.rehome(tid, cpu, ctx);
        cpu
    }

    /// Makes `cpu` the thread's home and reroutes its messages to that
    /// CPU's queue. If messages are pending the association fails
    /// (§3.1); the thread stays on the current queue and we retry at its
    /// next message.
    fn rehome(&mut self, tid: Tid, cpu: CpuId, ctx: &mut PolicyCtx<'_>) {
        self.home.insert(tid, cpu);
        let q = ctx.queue_of_cpu(cpu);
        let _ = ctx.try_associate_queue(tid, q);
    }

    /// Work stealing (§3.1: "to enable load-balancing and work-stealing
    /// between CPUs, agents can change the routing of messages from
    /// threads to queues via ASSOCIATE_QUEUE()"): an idle CPU's agent
    /// takes a waiting thread from the longest peer runqueue, re-homes
    /// it, and reroutes its future messages to the local queue.
    fn steal_for(&mut self, thief: CpuId, ctx: &mut PolicyCtx<'_>) {
        let Some((victim_cpu, _)) = self
            .rqs
            .iter()
            .filter(|&(c, q)| c != thief && q.len() >= 2)
            // Lowest-CPU tiebreak: equal queue depths must not be
            // settled by the map's iteration order, or replays diverge.
            .max_by_key(|&(c, q)| (q.len(), std::cmp::Reverse(c.0)))
        else {
            return;
        };
        let Some(tid) = self.rqs.get_mut(victim_cpu).and_then(RunQueue::pop) else {
            return;
        };
        self.rq(thief).push(tid);
        self.steals += 1;
        ctx.charge(100);
        self.rehome(tid, thief, ctx);
    }
}

impl GhostPolicy for PerCpuPolicy {
    fn name(&self) -> &str {
        "per-cpu-fifo"
    }

    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
        let Some(t) = self.k.tracker.apply(msg) else {
            return;
        };
        if msg.ty == MsgType::ThreadCreated {
            self.place_new_thread(msg.tid, ctx);
            return;
        }
        let home = *self.home.or_insert(msg.tid, ctx.local_cpu());
        self.rq(home).track(msg.tid, t);
        if t == Transition::Dead {
            self.home.remove(msg.tid);
        }
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        // Fig. 3: schedule the local CPU only, guarded by Aseq.
        let cpu = ctx.local_cpu();
        let aseq = ctx.agent_seq();
        if self.rq(cpu).is_empty() {
            self.steal_for(cpu, ctx);
        }
        let Some(next) = self.rq(cpu).pop() else {
            return;
        };
        let txn = Transaction::new(next, cpu).with_agent_seq(aseq);
        // "Txn failed. Move thread to end of runqueue."
        let rq = self.rqs.or_insert(cpu, RunQueue::default());
        self.k.commit_one(ctx, txn, rq);
    }

    fn on_reconstruct(&mut self, snapshot: &[ghost_core::ThreadSnapshot], ctx: &mut PolicyCtx<'_>) {
        self.rqs.clear();
        self.home.clear();
        let cpus = ctx.enclave_cpus();
        for s in snapshot {
            // Keep locality: re-home each thread to the CPU it last ran
            // on when the enclave still owns it, else place it fresh.
            if cpus.contains(s.last_cpu) {
                self.rehome(s.tid, s.last_cpu, ctx);
            } else {
                self.place_new_thread(s.tid, ctx);
            }
        }
        for s in self.k.tracker.resync(snapshot) {
            if let Some(&home) = self.home.get(s.tid) {
                self.rq(home).push(s.tid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_policy_is_empty() {
        let p = PerCpuPolicy::new();
        assert_eq!(p.k.commits, 0);
        assert!(p.rqs.is_empty());
    }
}
