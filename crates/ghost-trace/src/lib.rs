//! Kernel-style tracepoints for the ghOSt reproduction, modeled on Linux's
//! `sched:*` trace events.
//!
//! The simulator and the ghOSt runtime emit [`TraceEvent`]s through a
//! [`TraceSink`]. The default sink is [`TraceSink::Null`], which costs one
//! branch per tracepoint — the event-constructing closure is never run — so
//! benches pay nothing when tracing is off. [`TraceSink::recording`] attaches
//! a [`TraceRecorder`]: bounded per-CPU ring buffers that overwrite the
//! oldest record when full (lossy, like a real ftrace ring) and count drops.
//! Recording costs what is recorded: a ring's storage is committed as
//! records arrive, up to its capacity (see [`recorder`]).
//!
//! A recorded stream is read in place through [`TraceSink::with_records`]
//! (or copied out with [`TraceSink::snapshot`], or consumed piecewise with
//! [`TraceSink::drain`]) and can be:
//! - exported as Chrome `trace_event` JSON ([`chrome::export`]), loadable in
//!   Perfetto or `chrome://tracing`;
//! - folded into derived metrics ([`derive::TraceMetrics`]): wakeup-to-run
//!   latency histograms, per-CPU class occupancy, queue-depth timelines,
//!   ESTALE rates;
//! - replayed through the invariant checker ([`check::check`]), which
//!   asserts cross-cutting correctness properties and gives every test a
//!   one-line end-to-end oracle.
//!
//! Events carry primitive ids (`u16` cpu, `u32` tid, `u64` seq) rather than
//! simulator types so this crate sits below `ghost-sim` in the dependency
//! graph.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

pub mod check;
pub mod chrome;
pub mod derive;
pub mod json;
pub mod recorder;

pub use recorder::{Replay, TraceRecorder};

/// Virtual-time nanoseconds (mirrors `ghost_sim::time::Nanos`).
pub type Nanos = u64;

/// Sentinel tid meaning "no thread" (the idle context on a CPU).
pub const NO_TID: u32 = u32::MAX;

/// Scheduling-class ids, mirroring `ghost_sim::class` (this crate sits below
/// `ghost-sim`, so the values are duplicated and checked by a test there).
pub const CLASS_AGENT: u8 = 0;
pub const CLASS_RT: u8 = 1;
pub const CLASS_CFS: u8 = 2;
pub const CLASS_GHOST: u8 = 3;
pub const CLASS_IDLE: u8 = 4;

/// What the previous thread was doing when it was switched out, mirroring
/// the `prev_state` field of Linux's `sched:sched_switch`.
pub const PREV_RUNNABLE: u8 = 0; // preempted or yielded, still wants CPU
pub const PREV_BLOCKED: u8 = 1; // went to sleep
pub const PREV_DEAD: u8 = 2; // exited

/// One tracepoint firing. Field conventions: `cpu` is where the event
/// logically happened, `tid` is the subject thread, `seq` values are the
/// ABI sequence numbers (Tseq on messages, Aseq on activations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Context switch completed on `cpu` (mirrors `sched:sched_switch`).
    SchedSwitch {
        cpu: u16,
        prev_tid: u32,
        prev_class: u8,
        prev_state: u8,
        next_tid: u32,
        next_class: u8,
    },
    /// Thread became runnable (mirrors `sched:sched_wakeup`).
    SchedWakeup { cpu: u16, tid: u32 },
    /// Thread started running on a different CPU than its last one
    /// (mirrors `sched:sched_migrate_task`).
    SchedMigrate {
        tid: u32,
        from_cpu: u16,
        to_cpu: u16,
    },
    /// Timer tick delivered to `cpu`.
    TickDelivered { cpu: u16 },
    /// Resched IPI sent from `from_cpu` to `to_cpu`.
    IpiSent { from_cpu: u16, to_cpu: u16 },
    /// Resched IPI handled on `cpu`.
    IpiReceived { cpu: u16 },
    /// ABI message posted into queue `queue`; `seq` is the thread's Tseq.
    MsgEnqueued {
        queue: u32,
        ty: u8,
        tid: u32,
        seq: u64,
    },
    /// ABI message consumed by an agent; `seq` is the thread's Tseq.
    MsgDequeued {
        queue: u32,
        ty: u8,
        tid: u32,
        seq: u64,
    },
    /// Message dropped because queue `queue` was full; `dropped_total` is
    /// the queue's cumulative drop count after this event.
    QueueOverflow {
        queue: u32,
        ty: u8,
        tid: u32,
        dropped_total: u64,
    },
    /// Transaction armed: validation passed, effects about to apply.
    TxnArmed { cpu: u16, tid: u32 },
    /// Transaction committed successfully on `cpu` for `tid`.
    TxnCommitOk { cpu: u16, tid: u32 },
    /// Transaction failed its seqnum check (GHOST_TXN_TARGET_STALE).
    TxnCommitEstale { cpu: u16, tid: u32 },
    /// Transaction lost a commit race (target not runnable / CPU busy).
    TxnCommitRace { cpu: u16, tid: u32 },
    /// Agent activation started on `cpu`; `aseq` is the agent's Aseq.
    AgentActivationBegin { cpu: u16, agent_tid: u32, aseq: u64 },
    /// Agent activation finished; `msgs` is how many messages it drained.
    AgentActivationEnd { cpu: u16, agent_tid: u32, msgs: u32 },
    /// pick_next_task fast path produced a thread from the PNT rings.
    PntHit { cpu: u16, tid: u32 },
    /// pick_next_task fast path found the rings empty.
    PntMiss { cpu: u16 },
    /// Watchdog declared the enclave's agents unresponsive.
    WatchdogFired { enclave: u32 },
    /// Enclave torn down; its threads fall back to CFS.
    EnclaveDestroyed { enclave: u32 },
    /// Agent failover began: threads are transiently degraded to CFS while
    /// a standby agent respawns and rebuilds state (§3.4).
    RecoveryStart { enclave: u32 },
    /// A joining/upgraded agent finished its status-word scan; `threads` is
    /// how many status words it read.
    ReconstructDone {
        enclave: u32,
        threads: u32,
        agent_tid: u32,
    },
    /// A degraded thread was pulled back from CFS into ghOSt after recovery.
    ThreadReclaimed { enclave: u32, tid: u32 },
    /// An agent-facing ABI call was rejected with a typed error; `cpu` is
    /// the calling agent's CPU and `kind` the `AbiError` kind index.
    AbiReject { cpu: u16, kind: u8 },
    /// An enclave exhausted its byzantine strike budget and was
    /// quarantined (destroyed; threads fall back to CFS).
    EnclaveQuarantined { enclave: u32 },
    /// A CPU was lent from `lender` to `borrower` under a lease expiring
    /// at `deadline_ns`.
    LeaseGranted {
        cpu: u16,
        lender: u32,
        borrower: u32,
        deadline_ns: u64,
    },
    /// A lease ended; `reason` is the `RevokeReason` discriminant
    /// (0 returned, 1 expired, 2 borrower died, 3 lender died).
    LeaseRevoked {
        cpu: u16,
        lender: u32,
        borrower: u32,
        reason: u8,
    },
    /// The resource manager was restarted and rebuilt its state from the
    /// kernel lease table and enclave snapshots; `restarts` is the
    /// failover count, `leases` how many active leases it re-adopted.
    RmFailover { restarts: u32, leases: u32 },
}

impl TraceEvent {
    /// Event name as it appears in exported traces (ftrace-style).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::SchedSwitch { .. } => "sched_switch",
            TraceEvent::SchedWakeup { .. } => "sched_wakeup",
            TraceEvent::SchedMigrate { .. } => "sched_migrate_task",
            TraceEvent::TickDelivered { .. } => "tick",
            TraceEvent::IpiSent { .. } => "ipi_send",
            TraceEvent::IpiReceived { .. } => "ipi_receive",
            TraceEvent::MsgEnqueued { .. } => "ghost_msg_enqueue",
            TraceEvent::MsgDequeued { .. } => "ghost_msg_dequeue",
            TraceEvent::QueueOverflow { .. } => "ghost_queue_overflow",
            TraceEvent::TxnArmed { .. } => "ghost_txn_arm",
            TraceEvent::TxnCommitOk { .. } => "ghost_txn_commit_ok",
            TraceEvent::TxnCommitEstale { .. } => "ghost_txn_commit_estale",
            TraceEvent::TxnCommitRace { .. } => "ghost_txn_commit_race",
            TraceEvent::AgentActivationBegin { .. } => "ghost_agent_activation_begin",
            TraceEvent::AgentActivationEnd { .. } => "ghost_agent_activation_end",
            TraceEvent::PntHit { .. } => "ghost_pnt_hit",
            TraceEvent::PntMiss { .. } => "ghost_pnt_miss",
            TraceEvent::WatchdogFired { .. } => "ghost_watchdog_fired",
            TraceEvent::EnclaveDestroyed { .. } => "ghost_enclave_destroyed",
            TraceEvent::RecoveryStart { .. } => "ghost_recovery_start",
            TraceEvent::ReconstructDone { .. } => "ghost_reconstruct_done",
            TraceEvent::ThreadReclaimed { .. } => "ghost_thread_reclaimed",
            TraceEvent::AbiReject { .. } => "ghost_abi_reject",
            TraceEvent::EnclaveQuarantined { .. } => "ghost_enclave_quarantined",
            TraceEvent::LeaseGranted { .. } => "ghost_lease_granted",
            TraceEvent::LeaseRevoked { .. } => "ghost_lease_revoked",
            TraceEvent::RmFailover { .. } => "ghost_rm_failover",
        }
    }

    /// Event payload as (key, value) pairs, in a fixed order so exports
    /// are byte-stable.
    pub fn args(&self) -> Vec<(&'static str, u64)> {
        match *self {
            TraceEvent::SchedSwitch {
                cpu,
                prev_tid,
                prev_class,
                prev_state,
                next_tid,
                next_class,
            } => vec![
                ("cpu", cpu as u64),
                ("prev_tid", prev_tid as u64),
                ("prev_class", prev_class as u64),
                ("prev_state", prev_state as u64),
                ("next_tid", next_tid as u64),
                ("next_class", next_class as u64),
            ],
            TraceEvent::SchedWakeup { cpu, tid } => {
                vec![("cpu", cpu as u64), ("tid", tid as u64)]
            }
            TraceEvent::SchedMigrate {
                tid,
                from_cpu,
                to_cpu,
            } => vec![
                ("tid", tid as u64),
                ("from_cpu", from_cpu as u64),
                ("to_cpu", to_cpu as u64),
            ],
            TraceEvent::TickDelivered { cpu } => vec![("cpu", cpu as u64)],
            TraceEvent::IpiSent { from_cpu, to_cpu } => {
                vec![("from_cpu", from_cpu as u64), ("to_cpu", to_cpu as u64)]
            }
            TraceEvent::IpiReceived { cpu } => vec![("cpu", cpu as u64)],
            TraceEvent::MsgEnqueued {
                queue,
                ty,
                tid,
                seq,
            }
            | TraceEvent::MsgDequeued {
                queue,
                ty,
                tid,
                seq,
            } => vec![
                ("queue", queue as u64),
                ("type", ty as u64),
                ("tid", tid as u64),
                ("seq", seq),
            ],
            TraceEvent::QueueOverflow {
                queue,
                ty,
                tid,
                dropped_total,
            } => vec![
                ("queue", queue as u64),
                ("type", ty as u64),
                ("tid", tid as u64),
                ("dropped_total", dropped_total),
            ],
            TraceEvent::TxnArmed { cpu, tid }
            | TraceEvent::TxnCommitOk { cpu, tid }
            | TraceEvent::TxnCommitEstale { cpu, tid }
            | TraceEvent::TxnCommitRace { cpu, tid } => {
                vec![("cpu", cpu as u64), ("tid", tid as u64)]
            }
            TraceEvent::AgentActivationBegin {
                cpu,
                agent_tid,
                aseq,
            } => vec![
                ("cpu", cpu as u64),
                ("agent_tid", agent_tid as u64),
                ("aseq", aseq),
            ],
            TraceEvent::AgentActivationEnd {
                cpu,
                agent_tid,
                msgs,
            } => vec![
                ("cpu", cpu as u64),
                ("agent_tid", agent_tid as u64),
                ("msgs", msgs as u64),
            ],
            TraceEvent::PntHit { cpu, tid } => {
                vec![("cpu", cpu as u64), ("tid", tid as u64)]
            }
            TraceEvent::PntMiss { cpu } => vec![("cpu", cpu as u64)],
            TraceEvent::WatchdogFired { enclave }
            | TraceEvent::EnclaveDestroyed { enclave }
            | TraceEvent::RecoveryStart { enclave } => {
                vec![("enclave", enclave as u64)]
            }
            TraceEvent::ReconstructDone {
                enclave,
                threads,
                agent_tid,
            } => vec![
                ("enclave", enclave as u64),
                ("threads", threads as u64),
                ("agent_tid", agent_tid as u64),
            ],
            TraceEvent::ThreadReclaimed { enclave, tid } => {
                vec![("enclave", enclave as u64), ("tid", tid as u64)]
            }
            TraceEvent::AbiReject { cpu, kind } => {
                vec![("cpu", cpu as u64), ("kind", kind as u64)]
            }
            TraceEvent::EnclaveQuarantined { enclave } => {
                vec![("enclave", enclave as u64)]
            }
            TraceEvent::LeaseGranted {
                cpu,
                lender,
                borrower,
                deadline_ns,
            } => vec![
                ("cpu", cpu as u64),
                ("lender", lender as u64),
                ("borrower", borrower as u64),
                ("deadline_ns", deadline_ns),
            ],
            TraceEvent::LeaseRevoked {
                cpu,
                lender,
                borrower,
                reason,
            } => vec![
                ("cpu", cpu as u64),
                ("lender", lender as u64),
                ("borrower", borrower as u64),
                ("reason", reason as u64),
            ],
            TraceEvent::RmFailover { restarts, leases } => {
                vec![("restarts", restarts as u64), ("leases", leases as u64)]
            }
        }
    }
}

/// One record in a ring: a [`TraceEvent`] stamped with the global record
/// sequence number, virtual time, and the CPU whose ring holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Globally monotone record number, assigned at record time. Total
    /// order over the whole trace even though storage is per-CPU.
    pub seq: u64,
    /// Virtual time of the event, in nanoseconds.
    pub ts: Nanos,
    /// CPU whose ring buffer holds the record.
    pub cpu: u16,
    pub event: TraceEvent,
}

/// Panic message of a shared-handle access made while a run holds the
/// recorder.
const CHECKED_OUT: &str =
    "trace recorder is checked out by a running kernel: read the sink between `run_until` calls";

/// The cell a recorder lives in between runs: `None` while checked out.
type Home = Arc<Mutex<Option<TraceRecorder>>>;

/// Where tracepoints go. The default, [`TraceSink::Null`], discards
/// everything without constructing the event.
///
/// A recording sink is a handle on one [`TraceRecorder`], and clones are
/// handles on the same recorder. It lives behind `Arc<Mutex<..>>` so a
/// whole simulation (kernel, runtime and sink) is `Send` and can run on
/// a `ghost-lab` worker thread, and so ghost-live's emitters, which are
/// real threads, can share it. A DES run does not share it: for the
/// length of a run the kernel checks the recorder out of the cell
/// ([`TraceSink::check_out`]) and records into it with no lock, then
/// checks it back in. A shared handle used while the recorder is checked
/// out panics; it never reads an empty stand-in.
#[derive(Debug, Default)]
pub enum TraceSink {
    /// Tracing off: `emit` is one branch, the closure never runs.
    #[default]
    Null,
    /// Tracing on: events land in the recorder in the shared cell.
    Recorder(Home),
    /// Tracing on, recorder checked out of `home` by a running kernel.
    CheckedOut {
        rec: RefCell<TraceRecorder>,
        home: Home,
    },
}

impl Clone for TraceSink {
    /// Another handle on the same recorder.
    fn clone(&self) -> Self {
        match self {
            TraceSink::Null => TraceSink::Null,
            TraceSink::Recorder(home) | TraceSink::CheckedOut { home, .. } => {
                TraceSink::Recorder(Arc::clone(home))
            }
        }
    }
}

impl TraceSink {
    /// A sink recording into per-CPU rings of `capacity` records each.
    pub fn recording(num_cpus: usize, capacity: usize) -> Self {
        TraceSink::Recorder(Arc::new(Mutex::new(Some(TraceRecorder::new(
            num_cpus, capacity,
        )))))
    }

    /// True when events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        !matches!(self, TraceSink::Null)
    }

    /// Records the event produced by `f`. With [`TraceSink::Null`], `f` is
    /// never called — keep the construction inside the closure so disabled
    /// tracepoints cost only this branch.
    #[inline]
    pub fn emit(&self, ts: Nanos, cpu: u16, f: impl FnOnce() -> TraceEvent) {
        match self {
            TraceSink::Null => {}
            TraceSink::Recorder(home) => {
                lock(home).as_mut().expect(CHECKED_OUT).record(ts, cpu, f())
            }
            TraceSink::CheckedOut { rec, .. } => rec.borrow_mut().record(ts, cpu, f()),
        }
    }

    /// Moves the recorder out of the shared cell into this sink, so
    /// `emit` takes no lock until [`TraceSink::check_in`]. A no-op unless
    /// the sink is a [`TraceSink::Recorder`].
    ///
    /// # Panics
    ///
    /// Panics if another sink has the recorder checked out.
    pub fn check_out(&mut self) {
        match std::mem::take(self) {
            TraceSink::Recorder(home) => {
                let rec = lock(&home).take().expect(CHECKED_OUT);
                *self = TraceSink::CheckedOut {
                    rec: RefCell::new(rec),
                    home,
                };
            }
            other => *self = other,
        }
    }

    /// Puts a checked-out recorder back in the shared cell, where every
    /// handle sees its records. A no-op unless checked out.
    pub fn check_in(&mut self) {
        match std::mem::take(self) {
            TraceSink::CheckedOut { rec, home } => {
                *lock(&home) = Some(rec.into_inner());
                *self = TraceSink::Recorder(home);
            }
            other => *self = other,
        }
    }

    /// Runs `f` over the surviving records, merged across rings in global
    /// `seq` order and borrowed from the recorder, together with the drop
    /// count of the same instant. Empty and 0 for [`TraceSink::Null`].
    /// The recorder is borrowed while `f` runs, so `f` must not emit.
    ///
    /// # Panics
    ///
    /// Panics on a shared handle while a running kernel has the recorder
    /// checked out.
    pub fn with_records<R>(&self, f: impl FnOnce(Replay<'_>, u64) -> R) -> R {
        match self {
            TraceSink::Null => f(Replay::default(), 0),
            TraceSink::Recorder(home) => {
                let cell = lock(home);
                let rec = cell.as_ref().expect(CHECKED_OUT);
                f(rec.replay(), rec.dropped())
            }
            TraceSink::CheckedOut { rec, .. } => {
                let rec = rec.borrow();
                f(rec.replay(), rec.dropped())
            }
        }
    }

    /// Hands every surviving record to `f` in global `seq` order, then
    /// empties the rings with [`TraceRecorder::clear`]: the consuming read
    /// of ftrace's `trace_pipe`. The `seq` stamp and the drop counts
    /// survive the clear, so a stream drained in pieces reads as one
    /// whole-run read would, and a ring only has to hold the records
    /// written between two drains. Returns the cumulative drop count;
    /// 0, with `f` never called, for [`TraceSink::Null`]. The recorder is
    /// borrowed while `f` runs, so `f` must not emit.
    ///
    /// # Panics
    ///
    /// Panics on a shared handle while a running kernel has the recorder
    /// checked out.
    pub fn drain(&self, mut f: impl FnMut(&TraceRecord)) -> u64 {
        let mut consume = |rec: &mut TraceRecorder| {
            rec.replay().for_each(&mut f);
            rec.clear();
            rec.dropped()
        };
        match self {
            TraceSink::Null => 0,
            TraceSink::Recorder(home) => consume(lock(home).as_mut().expect(CHECKED_OUT)),
            TraceSink::CheckedOut { rec, .. } => consume(&mut rec.borrow_mut()),
        }
    }

    /// A copy of the surviving records, in global `seq` order.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.with_records(|records, _| records.to_vec())
    }

    /// Total records overwritten across all rings (0 for `Null`).
    pub fn dropped(&self) -> u64 {
        self.with_records(|_, dropped| dropped)
    }
}

/// Locks a recorder cell. A panic under the lock (a checked-out cell, an
/// event closure, a reader) comes before or after a record is stored,
/// never part-way, so a poisoned recorder is still valid and is read.
fn lock(home: &Home) -> MutexGuard<'_, Option<TraceRecorder>> {
    home.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_never_constructs_events() {
        let sink = TraceSink::Null;
        let mut constructed = false;
        sink.emit(0, 0, || {
            constructed = true;
            TraceEvent::TickDelivered { cpu: 0 }
        });
        assert!(!constructed);
        assert!(!sink.is_enabled());
        assert!(sink.snapshot().is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn recording_sink_captures_in_order() {
        let sink = TraceSink::recording(2, 16);
        sink.emit(10, 0, || TraceEvent::TickDelivered { cpu: 0 });
        sink.emit(20, 1, || TraceEvent::TickDelivered { cpu: 1 });
        sink.emit(30, 0, || TraceEvent::SchedWakeup { cpu: 0, tid: 7 });
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].seq, 0);
        assert_eq!(snap[1].seq, 1);
        assert_eq!(snap[2].seq, 2);
        assert_eq!(snap[2].event, TraceEvent::SchedWakeup { cpu: 0, tid: 7 });
        assert!(sink.is_enabled());
    }

    #[test]
    fn clones_share_the_recorder() {
        let sink = TraceSink::recording(1, 8);
        let clone = sink.clone();
        clone.emit(5, 0, || TraceEvent::TickDelivered { cpu: 0 });
        assert_eq!(sink.snapshot().len(), 1);
    }

    #[test]
    fn check_in_hands_checked_out_records_to_every_handle() {
        let handle = TraceSink::recording(1, 8);
        let mut owner = handle.clone();
        owner.emit(1, 0, || TraceEvent::TickDelivered { cpu: 0 });
        owner.check_out();
        owner.emit(2, 0, || TraceEvent::TickDelivered { cpu: 0 });
        assert_eq!(owner.snapshot().len(), 2, "the owner reads in place");
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.snapshot()));
        assert!(read.is_err(), "a handle read while checked out panics");
        owner.check_in();
        owner.emit(3, 0, || TraceEvent::TickDelivered { cpu: 0 });
        let seqs: Vec<u64> = handle.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    fn drained_seqs(sink: &TraceSink) -> (Vec<u64>, u64) {
        let mut seqs = Vec::new();
        let dropped = sink.drain(|r| seqs.push(r.seq));
        (seqs, dropped)
    }

    #[test]
    fn drain_consumes_in_seq_order_and_keeps_the_stamp() {
        let sink = TraceSink::recording(2, 8);
        for (ts, cpu) in [(1, 1), (2, 0), (3, 0), (4, 1)] {
            sink.emit(ts, cpu, || TraceEvent::TickDelivered { cpu });
        }
        assert_eq!(drained_seqs(&sink), (vec![0, 1, 2, 3], 0));
        assert!(sink.snapshot().is_empty(), "a drain empties the rings");
        for (ts, cpu) in [(5, 0), (6, 1)] {
            sink.emit(ts, cpu, || TraceEvent::TickDelivered { cpu });
        }
        assert_eq!(drained_seqs(&sink), (vec![4, 5], 0));
        assert_eq!(drained_seqs(&sink), (vec![], 0));
    }

    #[test]
    fn drain_returns_the_cumulative_drop_count() {
        let sink = TraceSink::recording(1, 4);
        for ts in 0..10 {
            sink.emit(ts, 0, || TraceEvent::TickDelivered { cpu: 0 });
        }
        assert_eq!(drained_seqs(&sink), (vec![6, 7, 8, 9], 6));
        for ts in 10..16 {
            sink.emit(ts, 0, || TraceEvent::TickDelivered { cpu: 0 });
        }
        assert_eq!(drained_seqs(&sink), (vec![12, 13, 14, 15], 8));
        assert_eq!(drained_seqs(&sink), (vec![], 8));
        assert_eq!(sink.dropped(), 8);
    }

    #[test]
    fn drain_of_a_null_sink_is_a_no_op() {
        let mut called = false;
        assert_eq!(TraceSink::Null.drain(|_| called = true), 0);
        assert!(!called);
    }

    #[test]
    fn drain_follows_the_checkout_rules() {
        let handle = TraceSink::recording(1, 8);
        let mut owner = handle.clone();
        owner.emit(1, 0, || TraceEvent::TickDelivered { cpu: 0 });
        owner.check_out();
        owner.emit(2, 0, || TraceEvent::TickDelivered { cpu: 0 });
        assert_eq!(drained_seqs(&owner), (vec![0, 1], 0), "the owner drains");
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.drain(|_| {})));
        let msg = read.expect_err("a handle drain while checked out panics");
        assert_eq!(msg.downcast_ref::<String>().unwrap(), CHECKED_OUT);
        owner.emit(3, 0, || TraceEvent::TickDelivered { cpu: 0 });
        owner.check_in();
        assert_eq!(drained_seqs(&handle), (vec![2], 0));
    }
}
