//! The Shinjuku policy (§4.2): centralized FIFO with microsecond-scale
//! preemption, implemented "in 710 lines of userspace code" in the paper.
//!
//! Requests run on a pool of worker threads. The global agent keeps a
//! FIFO of runnable workers, schedules them onto idle CPUs, and preempts
//! any worker that exceeds its time slice (30 µs in the evaluation) while
//! other workers wait — the key to taming the 0.5% of 10 ms requests that
//! would otherwise block 4 µs requests behind them.

use crate::kernel::{PolicyKernel, RunQueue, SliceClock};
use ghost_core::msg::Message;
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::ThreadSnapshot;
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MICROS};
use ghost_sim::topology::CpuId;

/// Preemption time slice ("The allotted timeslice per worker thread ...
/// is 30 µs").
pub(crate) const TIMESLICE: Nanos = 30 * MICROS;
/// Per-decision compute cost (ns).
const DECISION_COST: Nanos = 60;

/// The centralized preemptive Shinjuku policy. Wrappers (the Shenango
/// batch tier, the self-tuning variant) drive the same parts and hook
/// `on_run(tid, now)`, called for every worker a commit puts on a CPU.
pub struct ShinjukuPolicy {
    /// The quantum in force: [`TIMESLICE`] unless the self-tuning
    /// wrapper has moved it.
    pub(crate) timeslice: Nanos,
    pub(crate) k: PolicyKernel,
    pub(crate) rq: RunQueue,
    /// When each currently-running worker was scheduled (for slice
    /// expiry checks).
    pub(crate) clock: SliceClock,
    /// Preemptions issued.
    pub preemptions: u64,
}

impl Default for ShinjukuPolicy {
    fn default() -> Self {
        Self {
            timeslice: TIMESLICE,
            k: PolicyKernel::default(),
            rq: RunQueue::default(),
            clock: SliceClock::default(),
            preemptions: 0,
        }
    }
}

impl ShinjukuPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The message fold: any fresh message about a worker also ends its
    /// running slice (it blocked, was preempted, or died).
    pub(crate) fn track(&mut self, msg: &Message) {
        if self.k.tracker.fold(msg, &mut self.rq).is_some() {
            self.clock.stop(msg.tid);
        }
    }

    /// Group-commits whatever is staged: committed workers start a
    /// slice, failed ones go back on the FIFO.
    pub(crate) fn commit_staged(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        on_run: &mut impl FnMut(Tid, Nanos),
    ) {
        let (rq, clock) = (&mut self.rq, &mut self.clock);
        self.k.commit(ctx, false, None, |ctx, tid, ok| {
            if ok {
                clock.start(tid, ctx.now());
                on_run(tid, ctx.now());
            } else {
                rq.push(tid);
            }
        });
    }

    /// Fills idle CPUs from the FIFO with one group commit.
    pub(crate) fn fill_idle(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        on_run: &mut impl FnMut(Tid, Nanos),
    ) {
        for cpu in ctx.idle_cpus().iter() {
            let Some(tid) = self.rq.pop() else {
                break;
            };
            ctx.charge(DECISION_COST);
            self.k.stage(tid, cpu);
        }
        self.commit_staged(ctx, on_run);
    }

    /// Commits the next FIFO worker onto each victim's CPU, one commit
    /// per victim. The displaced worker comes back via THREAD_PREEMPTED.
    /// Returns the number of preemptions that committed.
    pub(crate) fn preempt(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        victims: Vec<(Nanos, Tid, CpuId)>,
        on_run: &mut impl FnMut(Tid, Nanos),
    ) -> u64 {
        let now = ctx.now();
        let before = self.preemptions;
        for (_, victim, cpu) in victims {
            let Some(next) = self.rq.pop() else {
                break;
            };
            ctx.charge(DECISION_COST);
            let txn = self.k.txn(next, cpu);
            if self.k.commit_one(ctx, txn, &mut self.rq) {
                self.preemptions += 1;
                self.clock.stop(victim);
                self.clock.start(next, now);
                on_run(next, now);
            }
        }
        self.preemptions - before
    }

    /// Preempts workers that exhausted their slice while others wait.
    pub(crate) fn preempt_expired(&mut self, ctx: &mut PolicyCtx<'_>) {
        if !self.rq.is_empty() {
            let victims = self.clock.preemptible(ctx, self.timeslice);
            self.preempt(ctx, victims, &mut |_, _| {});
        }
    }

    /// Arms the slice timer while workers wait behind running ones.
    pub(crate) fn arm_slice_timer(&self, ctx: &mut PolicyCtx<'_>) {
        if !self.rq.is_empty() {
            self.clock.arm(ctx, self.timeslice);
        }
    }

    /// Reseeds the policy from a status-word scan (§3.4): the tracker is
    /// resynced over the whole snapshot, then queues and slice bookkeeping
    /// are rebuilt for the threads `lc` claims for this policy (wrappers
    /// like Shinjuku+Shenango filter out their batch-tier threads).
    pub(crate) fn reseed_from(
        &mut self,
        snapshot: &[ThreadSnapshot],
        now: Nanos,
        lc: impl Fn(&ThreadSnapshot) -> bool,
    ) {
        self.rq.clear();
        self.clock.clear();
        for s in self.k.tracker.resync(snapshot).filter(|s| lc(s)) {
            self.rq.push(s.tid);
        }
        // Already running: a fresh slice from now.
        for s in snapshot.iter().filter(|s| s.on_cpu && lc(s)) {
            self.clock.start(s.tid, now);
        }
    }
}

impl GhostPolicy for ShinjukuPolicy {
    fn name(&self) -> &str {
        "shinjuku"
    }

    fn on_msg(&mut self, msg: &Message, _ctx: &mut PolicyCtx<'_>) {
        self.track(msg);
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        self.fill_idle(ctx, &mut |_, _| {});
        self.preempt_expired(ctx);
        self.arm_slice_timer(ctx);
    }

    fn on_reconstruct(&mut self, snapshot: &[ThreadSnapshot], ctx: &mut PolicyCtx<'_>) {
        let now = ctx.now();
        self.reseed_from(snapshot, now, |_| true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_slice_is_30us() {
        assert_eq!(ShinjukuPolicy::new().timeslice, 30_000);
    }
}
