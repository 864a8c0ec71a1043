//! Trace-driven invariant checker: replays a recorded stream and asserts
//! cross-cutting correctness properties of the scheduler. This gives every
//! test a one-line end-to-end oracle — run a scenario with a recording
//! sink, then `assert_clean(&sink.snapshot())`.
//!
//! Checked invariants:
//! 1. **Exclusive occupancy** — at most one thread running per CPU at any
//!    instant, and no thread running on two CPUs at once.
//! 2. **Runnable switch-in** — no `sched_switch` to a thread the trace has
//!    shown to be blocked or dead (threads first seen mid-trace are
//!    presumed runnable).
//! 3. **Seqnum monotonicity** — Tseq strictly increases per thread across
//!    its messages; Aseq never decreases across an agent's activations
//!    (it bumps per posted message, so an activation with no new traffic
//!    legitimately observes the same Aseq as the previous one).
//! 4. **Commit pairing** — every `TxnCommitOk` is preceded by a matching
//!    `TxnArmed` for the same (cpu, tid) that no other commit consumed.
//! 5. **Wakeup liveness** — every wakeup is eventually followed by a
//!    switch-in of that thread, its death, or an explicit blackout event
//!    (watchdog / enclave destruction); wakeups within a grace window of
//!    the end of the trace are exempt (the scenario simply ended first).
//!
//! The checker assumes a lossless stream. If the recording ring
//! overflowed ([`crate::TraceSink::dropped`] > 0), gaps make ordering
//! properties unverifiable — record with a larger capacity instead.
//!
//! ## Time bases
//!
//! Every rule is time-base agnostic: timestamps come from whatever
//! `GhostBackend::now` produced the records — virtual nanoseconds on
//! the DES, monotonic wall-clock nanoseconds on `ghost-live` — and the
//! checker only ever compares them against each other, never against a
//! constant. The one duration in the checker is the wakeup-liveness
//! grace window: [`DEFAULT_GRACE_NS`] is sized for *virtual* time,
//! where 50 ms dwarfs any simulated scheduling latency. On live traces
//! real park/unpark and host-scheduler latency are in the same units as
//! the trace, so pass a wall-clock-sized window through
//! [`check_with_grace`] instead — [`LIVE_GRACE_NS`] (500 ms) is the
//! standard window the live smoke, conformance, and chaos harnesses use.

use crate::{Nanos, TraceEvent, TraceRecord, NO_TID, PREV_DEAD, PREV_RUNNABLE};
use std::collections::BTreeMap;
use std::fmt;

/// Wakeups younger than this at end-of-trace are not liveness violations.
pub const DEFAULT_GRACE_NS: Nanos = 50_000_000; // 50 ms of virtual time

/// The standard wakeup-liveness grace window for *wall-clock* traces
/// ([`check_with_grace`]): live-backend timestamps include real
/// park/unpark, host-scheduler, and timer-thread latency, so the window
/// must absorb scheduling jitter a virtual clock never sees. Shared by
/// the live smoke example, the conformance suite, and the `--live`
/// chaos oracles so they all judge liveness against the same bound.
pub const LIVE_GRACE_NS: Nanos = 500_000_000; // 500 ms of wall-clock time

/// One invariant violation, anchored to the record that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Global seq of the offending record (or the last record, for
    /// end-of-trace liveness violations).
    pub seq: u64,
    pub ts: Nanos,
    /// Short rule identifier, e.g. `"exclusive-occupancy"`.
    pub rule: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] at ts={}ns seq={}: {}",
            self.rule, self.ts, self.seq, self.detail
        )
    }
}

/// Checks `records` (in `seq` order) with the default grace window.
pub fn check<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> Vec<Violation> {
    check_with_grace(records, DEFAULT_GRACE_NS)
}

/// Panics with a formatted report if `records` violate any invariant.
pub fn assert_clean(records: &[TraceRecord]) {
    let violations = check(records);
    if !violations.is_empty() {
        let mut report = format!(
            "trace invariant check failed: {} violation(s) in {} records\n",
            violations.len(),
            records.len()
        );
        for v in violations.iter().take(20) {
            report.push_str(&format!("  {v}\n"));
        }
        if violations.len() > 20 {
            report.push_str(&format!("  ... and {} more\n", violations.len() - 20));
        }
        panic!("{report}");
    }
}

/// Checks with an explicit end-of-trace grace window for wakeup liveness.
pub fn check_with_grace<'a>(
    records: impl IntoIterator<Item = &'a TraceRecord>,
    grace_ns: Nanos,
) -> Vec<Violation> {
    let mut checker = Checker::new(grace_ns);
    for rec in records {
        checker.observe(rec);
    }
    checker.finish()
}

/// What the rules know about one thread. The default is "never seen".
#[derive(Clone, Default)]
struct Thread {
    /// Rule 1: the CPU this thread is running on.
    cpu: Option<u16>,
    /// Rule 2: shown blocked or dead with no wakeup since (first
    /// sightings are presumed runnable).
    not_runnable: bool,
    /// Rule 3: last Tseq / Aseq seen. Zero stands for "none yet": traced
    /// Tseqs start at 1 and no Aseq is below 0.
    tseq: u64,
    aseq: u64,
    /// Rule 5: when the wakeup still waiting for a switch-in happened.
    woke_at: Option<Nanos>,
}

/// What the rules know about one CPU.
#[derive(Clone, Default)]
struct Cpu {
    /// Rule 1: the thread this CPU is running.
    running: Option<u32>,
    /// Rule 4: threads with an outstanding armed transaction here.
    armed: Vec<u32>,
}

/// Tids below this index `Checker::threads` directly. Kernels hand out
/// small dense tids; anything larger (`NO_TID`, forged ids) goes to an
/// ordered map, so a hostile id costs a node, not a table of its size.
const DENSE_TIDS: u32 = 1 << 16;

/// `table[i]`, grown with never-seen entries as needed.
fn slot<T: Clone + Default>(table: &mut Vec<T>, i: usize) -> &mut T {
    if i >= table.len() {
        table.resize(i + 1, T::default());
    }
    &mut table[i]
}

/// The checker as a fold: [`Checker::observe`] every record in `seq`
/// order, then [`Checker::finish`]. State is indexed by tid and cpu, so
/// a record costs a few array reads.
#[derive(Default)]
pub struct Checker {
    grace_ns: Nanos,
    v: Vec<Violation>,
    threads: Vec<Thread>,
    forged: BTreeMap<u32, Thread>,
    cpus: Vec<Cpu>,
    blackout_at: Option<Nanos>,
    /// `(ts, seq)` of the last record seen.
    end: (Nanos, u64),
}

impl Checker {
    /// A checker with the given end-of-trace grace window.
    pub fn new(grace_ns: Nanos) -> Self {
        Checker {
            grace_ns,
            ..Default::default()
        }
    }

    fn thread(&mut self, tid: u32) -> &mut Thread {
        if tid < DENSE_TIDS {
            slot(&mut self.threads, tid as usize)
        } else {
            self.forged.entry(tid).or_default()
        }
    }

    fn fail(&mut self, rec: &TraceRecord, rule: &'static str, detail: String) {
        let (seq, ts) = (rec.seq, rec.ts);
        self.v.push(Violation {
            seq,
            ts,
            rule,
            detail,
        });
    }

    /// Feeds the next record.
    #[inline]
    pub fn observe(&mut self, rec: &TraceRecord) {
        self.end = (rec.ts, rec.seq);
        match rec.event {
            TraceEvent::SchedWakeup { tid, .. } => {
                let t = self.thread(tid);
                t.not_runnable = false;
                t.woke_at.get_or_insert(rec.ts);
            }
            TraceEvent::SchedSwitch {
                cpu,
                prev_tid,
                prev_state,
                next_tid,
                ..
            } => {
                let next = (next_tid != NO_TID).then_some(next_tid);
                let running =
                    std::mem::replace(&mut slot(&mut self.cpus, cpu as usize).running, next);
                if prev_tid != NO_TID {
                    let t = self.thread(prev_tid);
                    let prev_cpu = t.cpu;
                    if prev_cpu == Some(cpu) {
                        t.cpu = None;
                    }
                    if prev_state != PREV_RUNNABLE {
                        t.not_runnable = true;
                        if prev_state == PREV_DEAD {
                            t.woke_at = None;
                        }
                    }
                    // Rule 1: the outgoing thread must be what this CPU runs.
                    if let Some(running) = running.filter(|&r| r != prev_tid) {
                        self.fail(
                            rec,
                            "exclusive-occupancy",
                            format!("cpu {cpu} switches out tid {prev_tid} but was running tid {running}"),
                        );
                    } else if let (None, Some(other)) = (running, prev_cpu) {
                        self.fail(
                            rec,
                            "exclusive-occupancy",
                            format!(
                                "cpu {cpu} switches out tid {prev_tid}, which runs on cpu {other}"
                            ),
                        );
                    }
                }
                if next_tid != NO_TID {
                    let t = self.thread(next_tid);
                    let (elsewhere, not_runnable) = (t.cpu.filter(|&c| c != cpu), t.not_runnable);
                    t.cpu = Some(cpu);
                    t.woke_at = None;
                    // Rule 1: the incoming thread must not run elsewhere.
                    if let Some(other) = elsewhere {
                        self.fail(
                            rec,
                            "exclusive-occupancy",
                            format!("tid {next_tid} switched in on cpu {cpu} while running on cpu {other}"),
                        );
                    }
                    // Rule 2: must be runnable (unless unseen so far).
                    if not_runnable {
                        self.fail(
                            rec,
                            "runnable-switch-in",
                            format!("cpu {cpu} switched in tid {next_tid}, last seen non-runnable with no wakeup since"),
                        );
                    }
                }
            }
            TraceEvent::MsgEnqueued { tid, seq, .. } if tid != NO_TID && seq != 0 => {
                let prev = std::mem::replace(&mut self.thread(tid).tseq, seq);
                if seq <= prev {
                    self.fail(
                        rec,
                        "tseq-monotone",
                        format!("tid {tid} Tseq went {prev} -> {seq} (must strictly increase)"),
                    );
                }
            }
            TraceEvent::AgentActivationBegin {
                agent_tid, aseq: a, ..
            } => {
                let prev = std::mem::replace(&mut self.thread(agent_tid).aseq, a);
                if a < prev {
                    self.fail(
                        rec,
                        "aseq-monotone",
                        format!("agent {agent_tid} Aseq went {prev} -> {a} (must not decrease)"),
                    );
                }
            }
            TraceEvent::TxnArmed { cpu, tid } => {
                let armed = &mut slot(&mut self.cpus, cpu as usize).armed;
                if !armed.contains(&tid) {
                    armed.push(tid);
                }
            }
            TraceEvent::TxnCommitOk { cpu, tid }
            | TraceEvent::TxnCommitEstale { cpu, tid }
            | TraceEvent::TxnCommitRace { cpu, tid } => {
                // Any commit outcome consumes its arm, if one was traced;
                // a success must have had one.
                let armed = &mut slot(&mut self.cpus, cpu as usize).armed;
                let arm = armed.iter().position(|&t| t == tid);
                if let Some(i) = arm {
                    armed.swap_remove(i);
                } else if matches!(rec.event, TraceEvent::TxnCommitOk { .. }) {
                    self.fail(
                        rec,
                        "commit-pairing",
                        format!(
                            "TxnCommitOk for tid {tid} on cpu {cpu} with no outstanding TxnArmed"
                        ),
                    );
                }
            }
            TraceEvent::WatchdogFired { .. } | TraceEvent::EnclaveDestroyed { .. } => {
                self.blackout_at = Some(rec.ts);
            }
            _ => {}
        }
    }

    /// Applies the end-of-trace rule and returns every violation found,
    /// in `seq` order.
    pub fn finish(mut self) -> Vec<Violation> {
        // Rule 5: leftover wakeups must be young or explained by a blackout.
        let (end_ts, end_seq) = self.end;
        let dense = self.threads.iter().enumerate().map(|(i, t)| (i as u32, t));
        for (tid, t) in dense.chain(self.forged.iter().map(|(&tid, t)| (tid, t))) {
            let Some(woke_ts) = t.woke_at else { continue };
            let excused_by_blackout = self.blackout_at.is_some_and(|b| b >= woke_ts);
            let within_grace = end_ts.saturating_sub(woke_ts) <= self.grace_ns;
            if !excused_by_blackout && !within_grace {
                self.v.push(Violation {
                    seq: end_seq,
                    ts: end_ts,
                    rule: "wakeup-liveness",
                    detail: format!(
                        "tid {tid} woke at {woke_ts}ns but never ran in the remaining {}ns",
                        end_ts.saturating_sub(woke_ts)
                    ),
                });
            }
        }
        self.v.sort_by_key(|x| x.seq);
        self.v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceSink, CLASS_GHOST, CLASS_IDLE, PREV_BLOCKED};

    fn switch(cpu: u16, prev: u32, prev_state: u8, next: u32) -> TraceEvent {
        TraceEvent::SchedSwitch {
            cpu,
            prev_tid: prev,
            prev_class: if prev == NO_TID {
                CLASS_IDLE
            } else {
                CLASS_GHOST
            },
            prev_state,
            next_tid: next,
            next_class: if next == NO_TID {
                CLASS_IDLE
            } else {
                CLASS_GHOST
            },
        }
    }

    #[test]
    fn clean_trace_passes() {
        let sink = TraceSink::recording(2, 64);
        sink.emit(0, 0, || TraceEvent::SchedWakeup { cpu: 0, tid: 1 });
        sink.emit(10, 0, || switch(0, NO_TID, PREV_RUNNABLE, 1));
        sink.emit(50, 0, || TraceEvent::TxnArmed { cpu: 1, tid: 2 });
        sink.emit(60, 0, || TraceEvent::TxnCommitOk { cpu: 1, tid: 2 });
        sink.emit(70, 1, || switch(1, NO_TID, PREV_RUNNABLE, 2));
        sink.emit(100, 0, || switch(0, 1, PREV_BLOCKED, NO_TID));
        let records = sink.snapshot();
        assert!(check(&records).is_empty());
        assert_clean(&records);
    }

    #[test]
    fn double_occupancy_is_rejected() {
        let sink = TraceSink::recording(2, 64);
        sink.emit(10, 0, || switch(0, NO_TID, PREV_RUNNABLE, 1));
        // tid 1 switched in on cpu 1 while still running on cpu 0.
        sink.emit(20, 1, || switch(1, NO_TID, PREV_RUNNABLE, 1));
        let violations = check(&sink.snapshot());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "exclusive-occupancy");
        assert!(violations[0].detail.contains("tid 1"), "{}", violations[0]);
    }

    #[test]
    fn switch_to_blocked_thread_is_rejected() {
        let sink = TraceSink::recording(1, 64);
        sink.emit(10, 0, || switch(0, NO_TID, PREV_RUNNABLE, 1));
        sink.emit(20, 0, || switch(0, 1, PREV_BLOCKED, NO_TID));
        // No wakeup in between: tid 1 is still blocked.
        sink.emit(30, 0, || switch(0, NO_TID, PREV_RUNNABLE, 1));
        let violations = check(&sink.snapshot());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "runnable-switch-in");
    }

    #[test]
    fn wakeup_clears_blocked_state() {
        let sink = TraceSink::recording(1, 64);
        sink.emit(10, 0, || switch(0, NO_TID, PREV_RUNNABLE, 1));
        sink.emit(20, 0, || switch(0, 1, PREV_BLOCKED, NO_TID));
        sink.emit(25, 0, || TraceEvent::SchedWakeup { cpu: 0, tid: 1 });
        sink.emit(30, 0, || switch(0, NO_TID, PREV_RUNNABLE, 1));
        assert!(check(&sink.snapshot()).is_empty());
    }

    #[test]
    fn regressing_tseq_is_rejected() {
        let sink = TraceSink::recording(1, 64);
        sink.emit(10, 0, || TraceEvent::MsgEnqueued {
            queue: 0,
            ty: 1,
            tid: 3,
            seq: 5,
        });
        sink.emit(20, 0, || TraceEvent::MsgEnqueued {
            queue: 0,
            ty: 2,
            tid: 3,
            seq: 5,
        });
        let violations = check(&sink.snapshot());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "tseq-monotone");
    }

    #[test]
    fn regressing_aseq_is_rejected() {
        let sink = TraceSink::recording(1, 64);
        sink.emit(10, 0, || TraceEvent::AgentActivationBegin {
            cpu: 0,
            agent_tid: 9,
            aseq: 4,
        });
        sink.emit(20, 0, || TraceEvent::AgentActivationBegin {
            cpu: 0,
            agent_tid: 9,
            aseq: 3,
        });
        let violations = check(&sink.snapshot());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "aseq-monotone");
    }

    #[test]
    fn flat_aseq_is_accepted() {
        // A spinning agent re-activates without new messages; its Aseq is
        // unchanged, which is legal (it only bumps per posted message).
        let sink = TraceSink::recording(1, 64);
        sink.emit(10, 0, || TraceEvent::AgentActivationBegin {
            cpu: 0,
            agent_tid: 9,
            aseq: 4,
        });
        sink.emit(20, 0, || TraceEvent::AgentActivationBegin {
            cpu: 0,
            agent_tid: 9,
            aseq: 4,
        });
        assert!(check(&sink.snapshot()).is_empty());
    }

    #[test]
    fn unarmed_commit_is_rejected_with_description() {
        let sink = TraceSink::recording(1, 64);
        sink.emit(10, 0, || TraceEvent::TxnCommitOk { cpu: 2, tid: 7 });
        let violations = check(&sink.snapshot());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "commit-pairing");
        assert!(violations[0].detail.contains("tid 7"));
        assert!(violations[0].detail.contains("cpu 2"));
    }

    #[test]
    fn stranded_wakeup_is_rejected_beyond_grace() {
        let sink = TraceSink::recording(1, 64);
        sink.emit(0, 0, || TraceEvent::SchedWakeup { cpu: 0, tid: 1 });
        sink.emit(DEFAULT_GRACE_NS + 1, 0, || TraceEvent::TickDelivered {
            cpu: 0,
        });
        let violations = check(&sink.snapshot());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "wakeup-liveness");
    }

    #[test]
    fn recent_wakeup_is_within_grace() {
        let sink = TraceSink::recording(1, 64);
        sink.emit(0, 0, || TraceEvent::TickDelivered { cpu: 0 });
        sink.emit(100, 0, || TraceEvent::SchedWakeup { cpu: 0, tid: 1 });
        assert!(check(&sink.snapshot()).is_empty());
    }

    #[test]
    fn blackout_excuses_stranded_wakeups() {
        let sink = TraceSink::recording(1, 64);
        sink.emit(0, 0, || TraceEvent::SchedWakeup { cpu: 0, tid: 1 });
        sink.emit(10, 0, || TraceEvent::EnclaveDestroyed { enclave: 0 });
        sink.emit(DEFAULT_GRACE_NS * 2, 0, || TraceEvent::TickDelivered {
            cpu: 0,
        });
        assert!(check(&sink.snapshot()).is_empty());
    }

    #[test]
    fn live_grace_window_is_pinned_and_respected() {
        // Every live harness (smoke, conformance, chaos oracles) judges
        // wakeup liveness against this shared wall-clock window; pin the
        // value so a drive-by edit can't silently loosen the oracles.
        assert_eq!(LIVE_GRACE_NS, 500_000_000);
        const { assert!(LIVE_GRACE_NS > DEFAULT_GRACE_NS) };
        // A wakeup stranded just inside the live window passes...
        let sink = TraceSink::recording(1, 64);
        sink.emit(0, 0, || TraceEvent::SchedWakeup { cpu: 0, tid: 1 });
        sink.emit(LIVE_GRACE_NS - 1, 0, || TraceEvent::TickDelivered {
            cpu: 0,
        });
        assert!(check_with_grace(&sink.snapshot(), LIVE_GRACE_NS).is_empty());
        // ...and the same trace fails one nanosecond past it.
        let sink = TraceSink::recording(1, 64);
        sink.emit(0, 0, || TraceEvent::SchedWakeup { cpu: 0, tid: 1 });
        sink.emit(LIVE_GRACE_NS + 1, 0, || TraceEvent::TickDelivered {
            cpu: 0,
        });
        let violations = check_with_grace(&sink.snapshot(), LIVE_GRACE_NS);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "wakeup-liveness");
    }

    #[test]
    #[should_panic(expected = "trace invariant check failed")]
    fn assert_clean_panics_on_corrupt_trace() {
        let sink = TraceSink::recording(1, 64);
        sink.emit(10, 0, || TraceEvent::TxnCommitOk { cpu: 0, tid: 1 });
        assert_clean(&sink.snapshot());
    }
}
