//! The policy kernel: the parts every policy in this crate is built from.
//!
//! A policy is its *decision* — which thread, which CPU, when to preempt.
//! Everything around the decision is written here once:
//!
//! * [`RunQueue`] — a FIFO of tids whose membership set cannot drift from
//!   its contents;
//! * [`PolicyKernel`] — the message-derived thread view, the transaction
//!   builder, and the one commit-settle step that counts outcomes, marks
//!   committed threads scheduled and hands failed ones back;
//! * [`SliceClock`] — per-worker slice bookkeeping for the preemptive
//!   (Shinjuku-family) policies.
//!
//! The message fold lives on [`ThreadTracker`]; recovery is the same fold
//! over the status-word scan's replay, so nothing here is specific to it.

use crate::tracker::{ThreadTracker, Transition};
use ghost_core::policy::PolicyCtx;
use ghost_core::slab::TidMap;
use ghost_core::txn::{Transaction, TxnStatus};
use ghost_core::{CommitGovernor, StaleVerdict};
use ghost_sim::thread::Tid;
use ghost_sim::time::Nanos;
use ghost_sim::topology::CpuId;
use std::collections::VecDeque;

/// FIFO of runnable threads with dense membership. The queue and the set
/// are only ever touched together, through these methods, so "queued"
/// and "in the queue" cannot disagree.
#[derive(Debug, Default)]
pub struct RunQueue {
    q: VecDeque<Tid>,
    member: TidMap<()>,
}

impl RunQueue {
    /// Appends `tid` unless it is already queued (it then keeps its
    /// place).
    #[inline]
    pub fn push(&mut self, tid: Tid) {
        if self.member.insert(tid, ()).is_none() {
            self.q.push_back(tid);
        }
    }

    /// Takes `tid` out of the queue wherever it is.
    #[inline]
    pub fn remove(&mut self, tid: Tid) {
        if self.member.remove(tid).is_some() {
            self.q.retain(|&t| t != tid);
        }
    }

    /// Puts `tid` where the message fold left it: queued if it is
    /// waiting for a CPU, off the queue otherwise.
    #[inline]
    pub fn track(&mut self, tid: Tid, t: Transition) {
        if t == Transition::Runnable {
            self.push(tid);
        } else {
            self.remove(tid);
        }
    }

    /// Pops the head.
    #[inline]
    pub fn pop(&mut self) -> Option<Tid> {
        let tid = self.q.pop_front()?;
        self.member.remove(tid);
        Some(tid)
    }

    /// The head, without popping it.
    pub fn front(&self) -> Option<Tid> {
        self.q.front().copied()
    }

    /// Number of queued threads.
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True if nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// True if `tid` is queued.
    pub fn contains(&self, tid: Tid) -> bool {
        self.member.contains(tid)
    }

    /// Queued threads, head first.
    pub fn iter(&self) -> impl Iterator<Item = Tid> + '_ {
        self.q.iter().copied()
    }
}

/// What every policy holds besides its queues: the thread view, the
/// commit counters, and the staging buffer for the next commit (reused,
/// so steady-state scheduling does not allocate).
#[derive(Default)]
pub struct PolicyKernel {
    /// Message-derived thread state.
    pub tracker: ThreadTracker,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions that failed (and were handed back or dropped).
    pub failures: u64,
    staged: Vec<Transaction>,
}

impl PolicyKernel {
    /// A transaction running `tid` on `cpu`, guarded by the thread's
    /// latest observed `Tseq`.
    pub fn txn(&self, tid: Tid, cpu: CpuId) -> Transaction {
        Transaction::new(tid, cpu).with_thread_seq(self.tracker.seq(tid))
    }

    /// Stages [`PolicyKernel::txn`]`(tid, cpu)` for the next
    /// [`PolicyKernel::commit`].
    #[inline]
    pub fn stage(&mut self, tid: Tid, cpu: CpuId) {
        self.staged.push(self.txn(tid, cpu));
    }

    /// Number of staged transactions.
    pub fn staged(&self) -> usize {
        self.staged.len()
    }

    /// Commits the staged transactions in one `TXNS_COMMIT()` (all or
    /// nothing when `atomic`) and settles each: a committed thread is
    /// counted and marked scheduled, a failed one is counted, and
    /// `settled(ctx, tid, committed)` tells the policy to start running
    /// bookkeeping (`true`) or put the thread back on a queue (`false`).
    /// Returns how many committed. Does nothing if nothing is staged.
    ///
    /// With a `governor`, `ESTALE` failures draw on its retry budget:
    /// within budget the thread is handed back and the agent asks to be
    /// woken after the backoff; past it the thread is shed to CFS. A
    /// commit whose target the kernel no longer knows is dropped, since a
    /// retry can never succeed. Neither is handed back; the
    /// `THREAD_DEAD` of the departure cleans up the tracker.
    #[inline]
    pub fn commit(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        atomic: bool,
        mut governor: Option<&mut CommitGovernor>,
        mut settled: impl FnMut(&mut PolicyCtx<'_>, Tid, bool),
    ) -> usize {
        if self.staged.is_empty() {
            return 0;
        }
        let mut txns = std::mem::take(&mut self.staged);
        if atomic {
            ctx.commit_atomic(&mut txns);
        } else {
            ctx.commit(&mut txns);
        }
        let mut committed = 0;
        for txn in &txns {
            let tid = txn.tid;
            if txn.status.committed() {
                committed += 1;
                self.commits += 1;
                self.tracker.mark_scheduled(tid);
                if let Some(g) = governor.as_deref_mut() {
                    g.on_committed(tid);
                }
                settled(ctx, tid, true);
                continue;
            }
            self.failures += 1;
            let hand_back = match (governor.as_deref_mut(), txn.status) {
                (Some(g), TxnStatus::Stale) => match g.on_stale(tid) {
                    StaleVerdict::Retry { backoff } => {
                        // Requests keep the earliest, so this is the
                        // soonest retry of the group.
                        ctx.request_wakeup_at(ctx.now() + backoff);
                        true
                    }
                    StaleVerdict::Shed => {
                        ctx.shed_to_cfs(tid);
                        false
                    }
                },
                (Some(g), TxnStatus::UnknownTarget) => {
                    g.forget(tid);
                    false
                }
                _ => true,
            };
            if hand_back {
                settled(ctx, tid, false);
            }
        }
        txns.clear();
        self.staged = txns;
        committed
    }

    /// Commits `txn` alone; the thread goes back on `rq` if it fails.
    /// Returns true if it committed.
    #[inline]
    pub fn commit_one(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        txn: Transaction,
        rq: &mut RunQueue,
    ) -> bool {
        self.staged.push(txn);
        let committed = self.commit(ctx, false, None, |_, tid, ok| {
            if !ok {
                rq.push(tid);
            }
        });
        committed == 1
    }
}

/// When each running worker was last given a CPU, for the policies that
/// preempt on a time slice. Entries start at a commit and stop at the
/// worker's next message.
#[derive(Debug, Default)]
pub struct SliceClock {
    running_since: TidMap<Nanos>,
}

impl SliceClock {
    /// `tid` was committed onto a CPU at `now`: its slice starts.
    pub fn start(&mut self, tid: Tid, now: Nanos) {
        self.running_since.insert(tid, now);
    }

    /// `tid` is off the CPU (or about to be displaced).
    pub fn stop(&mut self, tid: Tid) {
        self.running_since.remove(tid);
    }

    /// True while `tid` has a slice running.
    pub fn is_running(&self, tid: Tid) -> bool {
        self.running_since.contains(tid)
    }

    /// Workers a commit could displace right now that have run for at
    /// least `age` (their slice, or 0 for all of them), as `(slice start,
    /// worker, cpu)` in CPU order: on an enclave CPU, timed by this
    /// clock, and with no commit already in flight for that CPU.
    pub fn preemptible(&self, ctx: &PolicyCtx<'_>, age: Nanos) -> Vec<(Nanos, Tid, CpuId)> {
        let now = ctx.now();
        let on_cpu = |cpu| {
            let running = ctx.cpu_view(cpu).filter(|v| v.pending.is_none())?.running?;
            let since = *self.running_since.get(running)?;
            (now.saturating_sub(since) >= age).then_some((since, running, cpu))
        };
        ctx.enclave_cpus().iter().filter_map(on_cpu).collect()
    }

    /// Asks for a wakeup at the earliest upcoming slice expiry so
    /// preemption happens on time even without new messages. Expiries
    /// already in the past (a victim that could not be preempted this
    /// round, e.g. its CPU has a commit in flight) are re-checked a
    /// quarter-slice later rather than immediately, so the agent cannot
    /// spin without making progress.
    pub fn arm(&self, ctx: &mut PolicyCtx<'_>, slice: Nanos) {
        let now = ctx.now();
        let next_future = self
            .running_since
            .iter()
            .map(|(_, &since)| since + slice)
            .filter(|&at| at > now)
            .min();
        match next_future {
            Some(at) => ctx.request_wakeup_at(at),
            None if !self.running_since.is_empty() => ctx.request_wakeup_at(now + slice / 4),
            None => {}
        }
    }
}
