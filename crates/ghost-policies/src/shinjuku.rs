//! The Shinjuku policy (§4.2): centralized FIFO with microsecond-scale
//! preemption, implemented "in 710 lines of userspace code" in the paper.
//!
//! Requests run on a pool of worker threads. The global agent keeps a
//! FIFO of runnable workers, schedules them onto idle CPUs, and preempts
//! any worker that exceeds its time slice (30 µs in the evaluation) while
//! other workers wait — the key to taming the 0.5% of 10 ms requests that
//! would otherwise block 4 µs requests behind them.

use crate::kernel::{PolicyKernel, RunQueue, SliceClock};
use ghost_core::msg::{Message, MsgType};
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MICROS};
use ghost_sim::topology::CpuId;

/// Preemption time slice ("The allotted timeslice per worker thread ...
/// is 30 µs").
pub(crate) const TIMESLICE: Nanos = 30 * MICROS;
/// Per-decision compute cost (ns).
const DECISION_COST: Nanos = 60;

/// `now` if the thread of `msg` is running on the CPU the message names:
/// how a worker discovered by a status-word scan (§3.4) is told apart
/// from a blocked one.
pub(crate) fn running_now(msg: &Message, ctx: &PolicyCtx<'_>) -> Option<Nanos> {
    let view = ctx.cpu_view(msg.cpu)?;
    (view.running == Some(msg.tid)).then(|| ctx.now())
}

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
    /// running slice (it blocked, was preempted, or died) — except that a
    /// `THREAD_CREATED` for a worker already running starts a fresh slice
    /// at the time `running_since` reports.
    pub(crate) fn track(&mut self, msg: &Message, running_since: impl FnOnce() -> Option<Nanos>) {
        if self.k.tracker.fold(msg, &mut self.rq).is_some() {
            self.clock.stop(msg.tid);
            if msg.ty == MsgType::ThreadCreated {
                if let Some(now) = running_since() {
                    self.clock.start(msg.tid, now);
                }
            }
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
}

impl GhostPolicy for ShinjukuPolicy {
    fn name(&self) -> &str {
        "shinjuku"
    }

    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
        self.track(msg, || running_now(msg, ctx));
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        self.fill_idle(ctx, &mut |_, _| {});
        self.preempt_expired(ctx);
        self.arm_slice_timer(ctx);
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
