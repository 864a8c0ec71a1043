//! `MSG_QUEUE_OVERFLOW` recovery (§3.1): when the kernel drops messages,
//! the agent's message-derived view is unreliable and must be rebuilt
//! from the threads' status words. This property test runs a lossy
//! tracker (≈30% of messages dropped) against a lossless reference over
//! random message streams, then folds the status-word scan's replay
//! (§3.4: `THREAD_CREATED` per thread, `THREAD_WAKEUP` per waiting one)
//! into a fresh tracker and checks the rebuilt state is consistent —
//! including that stale in-flight messages cannot regress it — across
//! seeds 0..64.

use ghost_chaos::for_seeds;
use ghost_chaos::rand::rngs::StdRng;
use ghost_chaos::rand::Rng;
use ghost_core::msg::{Message, MsgType};
use ghost_policies::kernel::RunQueue;
use ghost_policies::tracker::ThreadTracker;
use ghost_sim::thread::Tid;
use ghost_sim::topology::CpuId;

const THREADS: u32 = 6;

/// Canonical ordered view of a tracker for equality checks.
fn snapshot(t: &ThreadTracker) -> Vec<(Tid, u64, bool, CpuId)> {
    let mut v: Vec<_> = t
        .iter()
        .map(|(tid, th)| (tid, th.seq, th.runnable, th.last_cpu))
        .collect();
    v.sort_by_key(|e| e.0 .0);
    v
}

/// Per-thread stream state for the random message generator.
struct Stream {
    seqs: Vec<u64>,
    runnable: Vec<bool>,
    alive: Vec<bool>,
}

impl Stream {
    fn new() -> Self {
        Self {
            seqs: vec![0; THREADS as usize],
            runnable: vec![false; THREADS as usize],
            alive: vec![true; THREADS as usize],
        }
    }

    /// Generates the next random but *legal* message: wakeups only for
    /// blocked threads, blocks/preempts only for runnable ones, and an
    /// occasional death.
    fn next(&mut self, rng: &mut StdRng) -> Option<Message> {
        let live: Vec<usize> = (0..THREADS as usize).filter(|&i| self.alive[i]).collect();
        let &i = live.get(rng.gen_range(0..live.len().max(1)))?;
        self.seqs[i] += 1;
        let cpu = CpuId(rng.gen_range(0..4));
        let ty = if rng.gen_bool(0.02) && live.len() > 2 {
            self.alive[i] = false;
            MsgType::ThreadDead
        } else if self.runnable[i] {
            match rng.gen_range(0..3) {
                0 => MsgType::ThreadPreempted,
                1 => MsgType::ThreadYield,
                _ => {
                    self.runnable[i] = false;
                    MsgType::ThreadBlocked
                }
            }
        } else {
            self.runnable[i] = true;
            MsgType::ThreadWakeup
        };
        Some(Message::thread(ty, Tid(i as u32), self.seqs[i], cpu, 0))
    }
}

#[test]
fn tracker_rebuilds_consistent_state_after_drops() {
    for_seeds!(0, 64, |rng: &mut StdRng| {
        let mut reference = ThreadTracker::new();
        let mut lossy = ThreadTracker::new();
        let mut stream = Stream::new();

        for i in 0..THREADS {
            let m = Message::thread(MsgType::ThreadCreated, Tid(i), 1, CpuId(0), 0);
            stream.seqs[i as usize] = 1;
            reference.apply(&m);
            lossy.apply(&m);
        }

        // Phase 1: the queue overflows — the lossy tracker misses ~30%
        // of the stream (drops bunch arbitrarily; independence is fine
        // for the property).
        for _ in 0..200 {
            let Some(m) = stream.next(rng) else { break };
            reference.apply(&m);
            if rng.gen_bool(0.7) {
                lossy.apply(&m);
            }
        }

        // MSG_QUEUE_OVERFLOW noticed: a fresh tracker folds the scan's
        // replay (the reference stands in for re-reading the status
        // words; no thread is on a CPU here).
        let created = reference
            .iter()
            .map(|(tid, t)| Message::thread(MsgType::ThreadCreated, tid, t.seq, t.last_cpu, 0));
        let woken = reference
            .iter()
            .filter(|(_, t)| t.runnable)
            .map(|(tid, t)| Message::thread(MsgType::ThreadWakeup, tid, t.seq, t.last_cpu, 0));
        let replay: Vec<Message> = created.chain(woken).collect();
        let mut lossy = ThreadTracker::new();
        let mut rq = RunQueue::default();
        for m in &replay {
            lossy.fold(m, &mut rq);
        }
        assert_eq!(
            rq.len(),
            reference.iter().filter(|(_, t)| t.runnable).count(),
            "every runnable, off-CPU thread must be queued"
        );
        assert_eq!(snapshot(&lossy), snapshot(&reference), "replay mismatch");
        assert_eq!(
            lossy.len(),
            reference.len(),
            "missed deaths must be forgotten"
        );

        // A stale message still in flight from before the overflow must
        // not regress the rebuilt sequence number.
        if let Some(&(tid, seq, _, _)) = snapshot(&lossy).first() {
            if seq > 1 {
                lossy.apply(&Message::thread(
                    MsgType::ThreadWakeup,
                    tid,
                    seq - 1,
                    CpuId(0),
                    0,
                ));
                assert_eq!(lossy.seq(tid), seq, "stale in-flight message regressed seq");
            }
        }

        // Phase 2: no more drops. The stale replay above may have
        // flipped one runnable bit; each thread's next real message
        // resets it, so after a full round of fresh messages the
        // trackers are back in lockstep.
        for _ in 0..100 {
            let Some(m) = stream.next(rng) else { break };
            reference.apply(&m);
            lossy.apply(&m);
        }
        for i in 0..THREADS as usize {
            if !stream.alive[i] {
                continue;
            }
            stream.seqs[i] += 1;
            stream.runnable[i] = true;
            let m = Message::thread(
                MsgType::ThreadWakeup,
                Tid(i as u32),
                stream.seqs[i],
                CpuId(1),
                0,
            );
            reference.apply(&m);
            lossy.apply(&m);
        }
        assert_eq!(
            snapshot(&lossy),
            snapshot(&reference),
            "post-replay divergence"
        );
    });
}
