//! Message-driven thread-state tracking shared by all policies.
//!
//! Agents "operate on the system's state as observed via messages"
//! (§3.1): this tracker folds the message stream into a per-thread view
//! (runnable?, latest `Tseq`, last CPU) that policies consult instead of
//! kernel structures. The fold is written here once; a policy matches on
//! the [`Transition`] it gets back. Reconstruction (§3.4) is the same
//! fold: an incoming agent's fresh tracker receives the status-word scan
//! as `THREAD_CREATED` / `THREAD_WAKEUP` messages, and `discovered`
//! tells those apart from a new thread's.

use crate::kernel::RunQueue;
use ghost_core::msg::{Message, MsgType};
use ghost_core::slab::TidMap;
use ghost_sim::thread::Tid;
use ghost_sim::topology::CpuId;

/// True for a `THREAD_CREATED` past its thread's first `Tseq`: only the
/// status-word scan of an incoming agent (§3.4) produces one, so a
/// policy can tell a discovered thread from a new one.
pub(crate) fn discovered(msg: &Message) -> bool {
    msg.ty == MsgType::ThreadCreated && msg.seq > 1
}

/// Per-thread knowledge derived from messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackedThread {
    /// Latest sequence number seen in a message.
    pub seq: u64,
    /// True between WAKEUP/PREEMPTED/YIELD and BLOCKED/DEAD/(scheduled).
    pub runnable: bool,
    /// CPU of the last message about this thread.
    pub last_cpu: CpuId,
}

/// Where a message left its thread, which is all a run queue needs to
/// know: waiting for a CPU, not waiting, or gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Runnable and waiting for an agent decision: belongs on a queue.
    Runnable,
    /// Blocked, just created, or already scheduled: belongs on no queue.
    Blocked,
    /// `THREAD_DEAD` was seen; the tracker has forgotten the thread.
    Dead,
}

/// Folds Table 1 messages into per-thread state. Backed by a dense
/// [`TidMap`] — the kernels allocate `Tid`s sequentially, so the direct
/// map beats hashing on every message apply.
#[derive(Debug, Default)]
pub struct ThreadTracker {
    threads: TidMap<TrackedThread>,
}

impl ThreadTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one message; returns where it left the thread, or `None`
    /// if the message carried no thread state (a tick) or was stale.
    ///
    /// `THREAD_CREATED` inserts a non-runnable entry (the wakeup follows
    /// separately if the thread is runnable). A message whose `seq` is
    /// below the tracked sequence number is *discarded entirely*: it is an
    /// out-of-order or pre-reconstruction leftover describing state the
    /// tracker has already superseded, and applying its transition would
    /// regress the view (e.g. a stale WAKEUP resurrecting a thread the
    /// status-word scan saw as blocked).
    pub fn apply(&mut self, msg: &Message) -> Option<Transition> {
        if !msg.ty.is_thread_msg() {
            return None;
        }
        let entry = self.threads.or_insert(
            msg.tid,
            TrackedThread {
                seq: 0,
                runnable: false,
                last_cpu: msg.cpu,
            },
        );
        if msg.seq < entry.seq {
            return None;
        }
        entry.seq = msg.seq;
        entry.last_cpu = msg.cpu;
        match msg.ty {
            MsgType::ThreadWakeup | MsgType::ThreadPreempted | MsgType::ThreadYield => {
                entry.runnable = true;
            }
            MsgType::ThreadBlocked => entry.runnable = false,
            MsgType::ThreadDead => {
                self.threads.remove(msg.tid);
                return Some(Transition::Dead);
            }
            MsgType::ThreadCreated | MsgType::ThreadAffinity => {}
            MsgType::TimerTick => unreachable!("filtered above"),
        }
        Some(if entry.runnable {
            Transition::Runnable
        } else {
            Transition::Blocked
        })
    }

    /// The message fold of every FIFO-shaped policy: applies `msg`, then
    /// queues the thread on `rq` if it is left waiting and takes it off
    /// otherwise. Re-delivery keeps a queued thread's place.
    pub fn fold(&mut self, msg: &Message, rq: &mut RunQueue) -> Option<Transition> {
        let t = self.apply(msg)?;
        rq.track(msg.tid, t);
        Some(t)
    }

    /// Marks a thread as scheduled (no longer waiting): called after a
    /// successful commit so the policy does not double-schedule it.
    pub fn mark_scheduled(&mut self, tid: Tid) {
        if let Some(t) = self.threads.get_mut(tid) {
            t.runnable = false;
        }
    }

    /// Latest view of a thread.
    pub fn get(&self, tid: Tid) -> Option<&TrackedThread> {
        self.threads.get(tid)
    }

    /// Latest sequence number for a thread (0 if unknown).
    pub fn seq(&self, tid: Tid) -> u64 {
        self.threads.get(tid).map_or(0, |t| t.seq)
    }

    /// Number of tracked (live) threads.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// True if no threads are tracked.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Iterates over tracked threads in ascending `Tid` order.
    pub fn iter(&self) -> impl Iterator<Item = (Tid, &TrackedThread)> {
        self.threads.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(ty: MsgType, tid: u32, seq: u64) -> Message {
        Message::thread(ty, Tid(tid), seq, CpuId(0), 0)
    }

    #[test]
    fn created_is_not_runnable() {
        let mut t = ThreadTracker::new();
        let v = t.apply(&m(MsgType::ThreadCreated, 1, 1));
        assert_eq!(v, Some(Transition::Blocked));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn wakeup_block_cycle() {
        let mut t = ThreadTracker::new();
        t.apply(&m(MsgType::ThreadCreated, 1, 1));
        let v = t.apply(&m(MsgType::ThreadWakeup, 1, 2));
        assert_eq!(v, Some(Transition::Runnable));
        let v = t.apply(&m(MsgType::ThreadBlocked, 1, 3));
        assert_eq!(v, Some(Transition::Blocked));
        assert_eq!(t.seq(Tid(1)), 3);
    }

    #[test]
    fn dead_removes_thread() {
        let mut t = ThreadTracker::new();
        t.apply(&m(MsgType::ThreadCreated, 1, 1));
        let v = t.apply(&m(MsgType::ThreadDead, 1, 2));
        assert_eq!(v, Some(Transition::Dead));
        assert!(t.is_empty());
    }

    #[test]
    fn preempt_and_yield_are_runnable() {
        let mut t = ThreadTracker::new();
        t.apply(&m(MsgType::ThreadCreated, 1, 1));
        let v = t.apply(&m(MsgType::ThreadPreempted, 1, 2));
        assert_eq!(v, Some(Transition::Runnable));
        t.mark_scheduled(Tid(1));
        assert!(!t.get(Tid(1)).unwrap().runnable);
        let v = t.apply(&m(MsgType::ThreadYield, 1, 3));
        assert_eq!(v, Some(Transition::Runnable));
    }

    #[test]
    fn ticks_are_ignored() {
        let mut t = ThreadTracker::new();
        assert!(t.apply(&Message::tick(CpuId(2), 0)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn seq_is_monotone() {
        let mut t = ThreadTracker::new();
        t.apply(&m(MsgType::ThreadCreated, 1, 5));
        t.apply(&m(MsgType::ThreadWakeup, 1, 3)); // Out-of-order delivery.
        assert_eq!(t.seq(Tid(1)), 5);
    }

    fn at(ty: MsgType, tid: u32, seq: u64, cpu: u16) -> Message {
        Message::thread(ty, Tid(tid), seq, CpuId(cpu), 0)
    }

    /// Regression: a stale message must not apply its state transition.
    /// Previously only the seq was clamped — the out-of-order WAKEUP below
    /// still flipped `runnable`, resurrecting a thread the tracker (here
    /// seeded by a discovery `THREAD_CREATED`) already knew had moved on.
    #[test]
    fn stale_message_transition_is_discarded() {
        let mut t = ThreadTracker::new();
        let v = t.apply(&at(MsgType::ThreadCreated, 1, 10, 3));
        assert_eq!(v, Some(Transition::Blocked));
        assert!(t.apply(&m(MsgType::ThreadWakeup, 1, 4)).is_none());
        let v = *t.get(Tid(1)).unwrap();
        assert!(
            !v.runnable,
            "stale wakeup must not make the thread runnable"
        );
        assert_eq!(v.seq, 10);
        assert_eq!(v.last_cpu, CpuId(3), "stale message must not move last_cpu");

        // A genuinely newer message still applies.
        let v = t.apply(&m(MsgType::ThreadWakeup, 1, 11));
        assert_eq!(v, Some(Transition::Runnable));
    }

    /// A scan's replay — `THREAD_CREATED` for every thread, then
    /// `THREAD_WAKEUP` for the waiting ones — queues exactly the waiting
    /// threads and seeds every thread's `Tseq` and CPU.
    #[test]
    fn replay_queues_only_the_waiting_threads() {
        let mut t = ThreadTracker::new();
        let mut rq = RunQueue::default();
        let replay = [
            at(MsgType::ThreadCreated, 1, 4, 0), // waiting
            at(MsgType::ThreadCreated, 2, 7, 1), // running
            at(MsgType::ThreadCreated, 3, 2, 2), // blocked
            at(MsgType::ThreadWakeup, 1, 4, 0),
        ];
        for msg in &replay {
            t.fold(msg, &mut rq);
        }
        assert_eq!(rq.iter().collect::<Vec<_>>(), vec![Tid(1)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.seq(Tid(2)), 7);
        assert_eq!(t.get(Tid(3)).unwrap().last_cpu, CpuId(2));
        assert!(discovered(&replay[0]));
        assert!(!discovered(&m(MsgType::ThreadCreated, 4, 1)));
    }
}
