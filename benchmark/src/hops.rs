//! Hop latencies derived from the program's own `TraceRecord` stream.
//! Timestamps are simulated ns for DES traces and wall-clock ns for live
//! traces; the pairing rules are the same.

use ghost_trace::{TraceEvent, TraceRecord};
use std::collections::HashMap;

/// Latency samples (ns) for the three hops a scheduling decision crosses.
#[derive(Debug, Default)]
pub struct Hops {
    /// `MsgEnqueued` → the `MsgDequeued` of the same message.
    pub msg_queue_wait: Vec<u64>,
    /// A thread's latest `MsgDequeued` → its next `TxnCommitOk`.
    pub decide_commit: Vec<u64>,
    /// `TxnCommitOk` → the `SchedSwitch` that puts that thread on a CPU.
    pub commit_to_switch: Vec<u64>,
}

impl Hops {
    /// Folds `records` (in `seq` order) into this accumulator. Pairing
    /// state does not carry over between calls: each call is one trace.
    pub fn add(&mut self, records: &[TraceRecord]) {
        let mut enqueued: HashMap<(u32, u32, u64, u8), u64> = HashMap::new();
        let mut dequeued: HashMap<u32, u64> = HashMap::new();
        let mut committed: HashMap<u32, u64> = HashMap::new();
        for rec in records {
            match rec.event {
                TraceEvent::MsgEnqueued {
                    queue,
                    ty,
                    tid,
                    seq,
                } => {
                    enqueued.insert((queue, tid, seq, ty), rec.ts);
                }
                TraceEvent::MsgDequeued {
                    queue,
                    ty,
                    tid,
                    seq,
                } => {
                    if let Some(at) = enqueued.remove(&(queue, tid, seq, ty)) {
                        self.msg_queue_wait.push(rec.ts.saturating_sub(at));
                    }
                    dequeued.insert(tid, rec.ts);
                }
                TraceEvent::TxnCommitOk { tid, .. } => {
                    if let Some(at) = dequeued.remove(&tid) {
                        self.decide_commit.push(rec.ts.saturating_sub(at));
                    }
                    committed.insert(tid, rec.ts);
                }
                TraceEvent::SchedSwitch { next_tid, .. } => {
                    if let Some(at) = committed.remove(&next_tid) {
                        self.commit_to_switch.push(rec.ts.saturating_sub(at));
                    }
                }
                _ => {}
            }
        }
    }
}
