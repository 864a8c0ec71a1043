//! Shinjuku + Shenango (§4.2): "We extended our ghOSt-Shinjuku policy to
//! implement Shenango-style scheduling with merely 17 more lines of code
//! ... The policy monitors the load to RocksDB and gives spare cycles to
//! the batch app."
//!
//! Latency-critical (LC) workers behave exactly as in
//! [`crate::shinjuku`]; batch threads (marked with [`BATCH_COOKIE`]) run
//! only on CPUs the LC FIFO leaves idle and are preempted the moment LC
//! work needs the CPU.

use crate::kernel::RunQueue;
use crate::shinjuku::{running_now, ShinjukuPolicy};
use crate::tracker::Transition;
use ghost_core::msg::{Message, MsgType};
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::slab::TidMap;

/// Cookie value marking batch (best-effort) threads.
pub const BATCH_COOKIE: u64 = 0xBA7C4;

/// Shinjuku for LC work + Shenango-style batch filling.
#[derive(Default)]
pub struct ShinjukuShenangoPolicy {
    pub(crate) lc: ShinjukuPolicy,
    batch_rq: RunQueue,
    batch_threads: TidMap<()>,
    /// Batch commits (for CPU-share accounting assertions).
    pub batch_commits: u64,
}

impl ShinjukuShenangoPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl GhostPolicy for ShinjukuShenangoPolicy {
    fn name(&self) -> &str {
        "shinjuku+shenango"
    }

    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
        // Classify new threads by cookie.
        if msg.ty == MsgType::ThreadCreated
            && ctx.thread_view(msg.tid).map(|v| v.cookie) == Some(BATCH_COOKIE)
        {
            self.batch_threads.insert(msg.tid, ());
        }
        if !self.batch_threads.contains(msg.tid) {
            return self.lc.track(msg, || running_now(msg, ctx));
        }
        // Batch bookkeeping shares the LC tracker, with its own queue.
        if self.lc.k.tracker.fold(msg, &mut self.batch_rq) == Some(Transition::Dead) {
            self.batch_threads.remove(msg.tid);
        }
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        // LC first: fill idle CPUs and preempt expired slices. If LC work
        // is waiting, evict batch threads to make room — one group commit
        // for all evictions (the batch IPI amortization matters exactly
        // here, at high load).
        if !self.lc.rq.is_empty() {
            for cpu in ctx.enclave_cpus().iter() {
                let on_batch = ctx.cpu_view(cpu).is_some_and(|v| {
                    v.pending.is_none() && v.running.is_some_and(|t| self.batch_threads.contains(t))
                });
                if on_batch {
                    let Some(next) = self.lc.rq.pop() else {
                        break;
                    };
                    self.lc.k.stage(next, cpu);
                }
            }
            self.lc.commit_staged(ctx, &mut |_, _| {});
        }
        self.lc.fill_idle(ctx, &mut |_, _| {});
        self.lc.preempt_expired(ctx);
        self.lc.arm_slice_timer(ctx);
        // Spare cycles go to the batch app — but keep a couple of CPUs
        // in reserve so bursts of LC arrivals land on truly idle CPUs
        // instead of waiting out a batch eviction (the "monitors the
        // load" part of the paper's Shenango-style extension).
        const RESERVE: usize = 2;
        while self.lc.rq.is_empty() && ctx.idle_cpus().count() > RESERVE {
            let Some(cpu) = ctx.idle_cpus().first() else {
                break;
            };
            let Some(tid) = self.batch_rq.pop() else {
                break;
            };
            let txn = self.lc.k.txn(tid, cpu);
            if !self.lc.k.commit_one(ctx, txn, &mut self.batch_rq) {
                break;
            }
            self.batch_commits += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_with_no_batch_threads() {
        let p = ShinjukuShenangoPolicy::new();
        assert!(p.batch_threads.is_empty());
        assert_eq!(p.batch_commits, 0);
    }
}
