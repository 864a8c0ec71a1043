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
//! wake arrived since it last looked.

use ghost_sim::topology::CpuId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

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

struct Mailbox {
    cmd: WorkerCmd,
    /// Bumped on every [`WorkerCtl::post`]; lets a thread detect wakes
    /// that raced with its decision to park.
    epoch: u64,
}

/// Command mailbox + preempt flag for one managed OS thread.
pub struct WorkerCtl {
    mailbox: Mutex<Mailbox>,
    cv: Condvar,
    preempt: AtomicBool,
}

impl WorkerCtl {
    /// New mailbox, parked.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            mailbox: Mutex::new(Mailbox {
                cmd: WorkerCmd::Park,
                epoch: 0,
            }),
            cv: Condvar::new(),
            preempt: AtomicBool::new(false),
        })
    }

    /// Posts a command and wakes the thread.
    pub fn post(&self, cmd: WorkerCmd) {
        let mut mb = self.mailbox.lock().unwrap();
        mb.cmd = cmd;
        mb.epoch += 1;
        self.cv.notify_all();
    }

    /// Current command plus the epoch it was observed at.
    pub fn peek(&self) -> (WorkerCmd, u64) {
        let mb = self.mailbox.lock().unwrap();
        (mb.cmd, mb.epoch)
    }

    /// Blocks until the command is not `Park`, returning it.
    pub fn wait(&self) -> WorkerCmd {
        let mut mb = self.mailbox.lock().unwrap();
        while mb.cmd == WorkerCmd::Park {
            mb = self.cv.wait(mb).unwrap();
        }
        mb.cmd
    }

    /// Blocks until the command is not `Park`, the epoch moves past
    /// `seen_epoch`, or `timeout` elapses. Returns the current command and
    /// epoch. Used by spinning agents: any post (a kick or a wake) re-runs
    /// them; the timeout is their poll backstop.
    pub fn wait_nudge(&self, seen_epoch: u64, timeout: Duration) -> (WorkerCmd, u64) {
        let mut mb = self.mailbox.lock().unwrap();
        if mb.cmd == WorkerCmd::Park || mb.epoch != seen_epoch {
            return (mb.cmd, mb.epoch);
        }
        let (guard, _timed_out) = self.cv.wait_timeout(mb, timeout).unwrap();
        mb = guard;
        (mb.cmd, mb.epoch)
    }

    /// Parks the thread only if no wake arrived since `seen_epoch` (the
    /// lost-wakeup guard). Returns true if it parked.
    pub fn park_if_quiet(&self, seen_epoch: u64) -> bool {
        let mut mb = self.mailbox.lock().unwrap();
        if mb.epoch == seen_epoch {
            mb.cmd = WorkerCmd::Park;
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
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
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
    fn post_interrupts_wait_nudge_exactly_when_epoch_moved() {
        let ctl = WorkerCtl::new();
        ctl.post(WorkerCmd::Run { cpu: CpuId(0) });
        let (_, epoch) = ctl.peek();
        // A kick already landed: returns immediately, no sleep.
        ctl.post(WorkerCmd::Run { cpu: CpuId(0) });
        let start = std::time::Instant::now();
        let (_, e2) = ctl.wait_nudge(epoch, Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(e2 > epoch);
        // Quiet epoch: the wait times out rather than spinning.
        let start = std::time::Instant::now();
        ctl.wait_nudge(e2, Duration::from_millis(10));
        assert!(start.elapsed() >= Duration::from_millis(5));
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
