//! Per-thread command channels: how the live kernel parks and unparks the
//! real OS threads it manages.
//!
//! Each managed thread (worker or agent) owns a [`WorkerCtl`]: a tiny
//! command mailbox plus a preemption flag. The live kernel writes commands
//! while holding its state lock; the thread waits on the mailbox's own
//! condvar. Because every command write happens under the kernel state
//! lock, command transitions are totally ordered with the scheduling
//! decisions that caused them — the classic lost-wakeup race (thread
//! decides to park while a wake is in flight) cannot happen, which the
//! `epoch` counter makes checkable: a parking thread re-parks only if no
//! wake arrived since it last looked, and a spinning agent watches the
//! epoch without taking the mailbox lock.

use ghost_sim::topology::CpuId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// What a managed OS thread should be doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerCmd {
    /// Sleep until told otherwise.
    Park,
    /// Run a scheduling stint on `cpu` (workers), or run activations
    /// (agents, where `cpu` is the agent's pinned CPU).
    Run { cpu: CpuId },
    /// Run unmanaged: the thread left the ghOSt class (shed to "CFS", which
    /// in the live backend means the host scheduler runs it freely).
    Free,
    /// Exit the thread's main loop.
    Exit,
}

/// Command mailbox + preempt flag for one managed OS thread.
pub struct WorkerCtl {
    mailbox: Mutex<WorkerCmd>,
    cv: Condvar,
    /// Bumped on every [`WorkerCtl::post`], under the mailbox lock; lets a
    /// thread detect wakes that raced with its decision to park. The
    /// `Release` bump pairs with the `Acquire` load in
    /// [`WorkerCtl::epoch`]: a spinner that sees the epoch move also sees
    /// everything its poster wrote before posting.
    epoch: AtomicU64,
    preempt: AtomicBool,
}

impl WorkerCtl {
    /// New mailbox, parked.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            mailbox: Mutex::new(WorkerCmd::Park),
            cv: Condvar::new(),
            epoch: AtomicU64::new(0),
            preempt: AtomicBool::new(false),
        })
    }

    /// Posts a command and wakes the thread.
    pub fn post(&self, cmd: WorkerCmd) {
        let mut mb = self.mailbox.lock().unwrap();
        *mb = cmd;
        self.epoch.fetch_add(1, Ordering::Release);
        self.cv.notify_all();
    }

    /// Current command plus the epoch it was observed at.
    pub fn peek(&self) -> (WorkerCmd, u64) {
        let mb = self.mailbox.lock().unwrap();
        (*mb, self.epoch())
    }

    /// The epoch, read without the mailbox lock: a spinning agent polls
    /// it, and any post (a kick or a wake) moves it.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Blocks until the command is not `Park`, returning it.
    pub fn wait(&self) -> WorkerCmd {
        let mut mb = self.mailbox.lock().unwrap();
        while *mb == WorkerCmd::Park {
            mb = self.cv.wait(mb).unwrap();
        }
        *mb
    }

    /// Parks the thread only if no wake arrived since `seen_epoch` (the
    /// lost-wakeup guard). Returns true if it parked.
    pub fn park_if_quiet(&self, seen_epoch: u64) -> bool {
        let mut mb = self.mailbox.lock().unwrap();
        if self.epoch() == seen_epoch {
            *mb = WorkerCmd::Park;
            true
        } else {
            false
        }
    }

    /// Raises the preemption flag: the worker ends its stint at the next
    /// request boundary (the live analogue of a resched IPI).
    pub fn set_preempt(&self) {
        self.preempt.store(true, Ordering::Release);
    }

    /// Reads and clears the preemption flag.
    pub fn take_preempt(&self) -> bool {
        self.preempt.swap(false, Ordering::AcqRel)
    }

    /// Reads the preemption flag without clearing it.
    pub fn preempt_pending(&self) -> bool {
        self.preempt.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_if_quiet_detects_raced_wake() {
        let ctl = WorkerCtl::new();
        ctl.post(WorkerCmd::Run { cpu: CpuId(0) });
        let (_, epoch) = ctl.peek();
        // A wake lands between the thread's last look and its park.
        ctl.post(WorkerCmd::Run { cpu: CpuId(1) });
        assert!(!ctl.park_if_quiet(epoch));
        // Quiet: parking succeeds.
        let (_, epoch) = ctl.peek();
        assert!(ctl.park_if_quiet(epoch));
        assert_eq!(ctl.peek().0, WorkerCmd::Park);
    }

    #[test]
    fn park_racing_epoch_bump_never_strands_worker() {
        // Regression stress for the missed-wake window: a worker that
        // decides to park (epoch captured at its last peek) while a
        // `Run` post races in must either fail the park or observe the
        // new command on its next wait — it can never end up parked
        // with a missed dispatch. Each round blocks on the worker's
        // progress, so a single lost wake hangs the test rather than
        // flaking past it.
        use std::sync::atomic::AtomicU64;
        const ROUNDS: u64 = 20_000;
        let ctl = WorkerCtl::new();
        let progressed = Arc::new(AtomicU64::new(0));
        let worker = {
            let ctl = Arc::clone(&ctl);
            let progressed = Arc::clone(&progressed);
            std::thread::spawn(move || loop {
                match ctl.wait() {
                    WorkerCmd::Exit => break,
                    WorkerCmd::Run { .. } | WorkerCmd::Free => {
                        // Capture the epoch *before* finishing the stint,
                        // widening the race window the guard must close.
                        let (_, epoch) = ctl.peek();
                        progressed.fetch_add(1, Ordering::AcqRel);
                        std::hint::spin_loop();
                        ctl.park_if_quiet(epoch);
                    }
                    WorkerCmd::Park => {}
                }
            })
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        for round in 1..=ROUNDS {
            ctl.post(WorkerCmd::Run { cpu: CpuId(0) });
            while progressed.load(Ordering::Acquire) < round {
                assert!(
                    std::time::Instant::now() < deadline,
                    "worker stranded: {} of {round} dispatches observed",
                    progressed.load(Ordering::Acquire)
                );
                std::thread::yield_now();
            }
        }
        ctl.post(WorkerCmd::Exit);
        worker.join().unwrap();
        assert_eq!(progressed.load(Ordering::Acquire), ROUNDS);
    }

    #[test]
    fn post_moves_the_lock_free_epoch_exactly_once() {
        let ctl = WorkerCtl::new();
        ctl.post(WorkerCmd::Run { cpu: CpuId(0) });
        let (_, epoch) = ctl.peek();
        assert_eq!(ctl.epoch(), epoch);
        // Reads do not move it: a spinning agent sees the same value
        // until something is posted.
        assert_eq!(ctl.epoch(), epoch);
        assert!(ctl.park_if_quiet(epoch));
        assert_eq!(ctl.epoch(), epoch, "parking is not a post");
        // A kick lands: the lock-free read sees it, and agrees with peek.
        ctl.post(WorkerCmd::Run { cpu: CpuId(0) });
        assert_eq!(ctl.epoch(), epoch + 1);
        assert_eq!(ctl.peek(), (WorkerCmd::Run { cpu: CpuId(0) }, epoch + 1));
    }

    #[test]
    fn preempt_flag_is_one_shot() {
        let ctl = WorkerCtl::new();
        assert!(!ctl.take_preempt());
        ctl.set_preempt();
        assert!(ctl.preempt_pending());
        assert!(ctl.take_preempt());
        assert!(!ctl.take_preempt());
    }
}
