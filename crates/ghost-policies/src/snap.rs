//! The Google Snap policy (§4.3): "a simple, yet effective centralized
//! FIFO policy. The global agent tries to find an idle CPU to schedule
//! its threads, giving Snap worker threads strict priority over
//! antagonist threads. ... We did not use any dedicated cores."
//!
//! Snap worker threads are marked with [`SNAP_COOKIE`]; everything else
//! managed by the enclave is treated as antagonist (batch) load.

use crate::kernel::{PolicyKernel, RunQueue};
use crate::tracker::Transition;
use ghost_core::msg::{Message, MsgType};
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::slab::TidMap;
use ghost_sim::thread::Tid;
use ghost_sim::topology::CpuId;

/// Cookie value marking Snap packet-processing worker threads.
pub const SNAP_COOKIE: u64 = 0x54A9;

/// Strict-priority centralized FIFO: Snap workers over antagonists.
#[derive(Default)]
pub struct SnapPolicy {
    /// Thread view and commit counters (both classes).
    pub k: PolicyKernel,
    snap_threads: TidMap<()>,
    pub(crate) snap_rq: RunQueue,
    pub(crate) batch_rq: RunQueue,
    /// Antagonist preemptions by Snap workers.
    pub batch_preemptions: u64,
}

impl SnapPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The message fold, after `THREAD_CREATED` classification: a
    /// thread queues with its class.
    pub(crate) fn track(&mut self, msg: &Message) {
        let rq = if self.snap_threads.contains(msg.tid) {
            &mut self.snap_rq
        } else {
            &mut self.batch_rq
        };
        if self.k.tracker.fold(msg, rq) == Some(Transition::Dead) {
            self.snap_threads.remove(msg.tid);
        }
    }

    /// Picks a target CPU for a Snap worker: an idle CPU near where the
    /// worker last ran, falling back to preempting an antagonist.
    fn pick_cpu(&self, tid: Tid, ctx: &PolicyCtx<'_>) -> Option<(CpuId, bool)> {
        let idle = ctx.idle_cpus();
        let last = self.k.tracker.get(tid).map(|t| t.last_cpu);
        if let Some(last) = last {
            if idle.contains(last) {
                return Some((last, false));
            }
            // Same-socket idle CPU next.
            if let Some(c) = idle.iter().find(|&c| ctx.topo().same_socket(c, last)) {
                return Some((c, false));
            }
        }
        if let Some(c) = idle.first() {
            return Some((c, false));
        }
        // No idle CPU: preempt an antagonist (never another Snap worker).
        let victim_cpu = ctx.enclave_cpus().iter().find(|&cpu| {
            ctx.cpu_view(cpu).is_some_and(|v| {
                v.pending.is_none() && v.running.is_some_and(|t| !self.snap_threads.contains(t))
            })
        })?;
        Some((victim_cpu, true))
    }
}

impl GhostPolicy for SnapPolicy {
    fn name(&self) -> &str {
        "snap-fifo"
    }

    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
        if msg.ty == MsgType::ThreadCreated
            && ctx.thread_view(msg.tid).map(|v| v.cookie) == Some(SNAP_COOKIE)
        {
            self.snap_threads.insert(msg.tid, ());
        }
        self.track(msg);
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        // Snap workers first — they may preempt antagonists.
        while let Some(tid) = self.snap_rq.front() {
            let Some((cpu, preempts)) = self.pick_cpu(tid, ctx) else {
                break; // Everything busy with Snap work or CFS.
            };
            self.snap_rq.pop();
            ctx.charge(60);
            let txn = self.k.txn(tid, cpu);
            if !self.k.commit_one(ctx, txn, &mut self.snap_rq) {
                break;
            }
            self.batch_preemptions += preempts as u64;
        }
        // Antagonists fill whatever is still idle.
        for cpu in ctx.idle_cpus().iter() {
            let Some(tid) = self.batch_rq.pop() else {
                break;
            };
            ctx.charge(60);
            let txn = self.k.txn(tid, cpu);
            self.k.commit_one(ctx, txn, &mut self.batch_rq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_and_batch_queues_are_separate() {
        let wake = |tid| Message::thread(MsgType::ThreadWakeup, Tid(tid), 1, CpuId(0), 0);
        let mut p = SnapPolicy::new();
        p.snap_threads.insert(Tid(1), ());
        p.track(&wake(1));
        p.track(&wake(2));
        assert_eq!(p.snap_rq.iter().collect::<Vec<_>>(), vec![Tid(1)]);
        assert_eq!(p.batch_rq.iter().collect::<Vec<_>>(), vec![Tid(2)]);
        p.track(&Message::thread(
            MsgType::ThreadDead,
            Tid(1),
            2,
            CpuId(0),
            0,
        ));
        assert!(p.snap_rq.is_empty() && !p.snap_threads.contains(Tid(1)));
        assert_eq!(p.batch_rq.len(), 1);
    }
}
