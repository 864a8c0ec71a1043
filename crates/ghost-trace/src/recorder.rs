//! Bounded per-CPU ring buffers for trace records, ftrace-style: each CPU
//! gets its own ring, a full ring overwrites its oldest record (readers
//! prefer recent history), and overwrites are counted so consumers know
//! the stream is lossy.
//!
//! Cost follows records written, not capacity reserved: a ring starts
//! empty and its storage grows geometrically as records arrive, up to
//! `capacity`, where it wraps in place and never allocates again. So
//! construction is O(rings), and a live, wall-clock trace pays for growth
//! (reallocation and first-touch page faults, amortized O(1) per record)
//! inside `record` until a ring reaches its high-water mark; `clear`
//! keeps the storage. Reading is borrowed: [`Replay`] walks the survivors
//! in `seq` order in place, and `snapshot` is a copy of that walk.

use crate::{Nanos, TraceEvent, TraceRecord};

#[derive(Debug)]
struct Ring {
    /// Surviving records. Until the ring first fills these are simply in
    /// arrival order; once `buf.len() == cap` the ring wraps and `head`
    /// is the slot of the oldest record.
    buf: Vec<TraceRecord>,
    cap: usize,
    head: usize,
    /// Records overwritten because the ring was full.
    dropped: u64,
}

impl Ring {
    fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            // Overwrite the oldest record and advance the head.
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }
}

/// The surviving records of a [`TraceRecorder`] in `seq` order, borrowed
/// from its rings. Each ring is at most two runs that are already sorted
/// (oldest half, then the wrapped half), so one ring replays as its two
/// slices and several rings as a k-way merge of theirs.
#[derive(Debug, Clone, Default)]
pub struct Replay<'a> {
    /// The run being handed out record by record.
    run: &'a [TraceRecord],
    /// Unvisited, non-empty, internally sorted segments.
    rest: Vec<&'a [TraceRecord]>,
}

impl<'a> Replay<'a> {
    /// The next maximal run of records that are contiguous in storage and
    /// consecutive in the merged order. A single ring yields at most two.
    pub fn next_run(&mut self) -> Option<&'a [TraceRecord]> {
        if !self.run.is_empty() {
            return Some(std::mem::take(&mut self.run));
        }
        // The segment with the lowest first `seq` goes next, and may run
        // on until the runner-up's first record.
        let mut first = self.rest.first()?.first()?.seq;
        let (mut next, mut limit) = (0, u64::MAX);
        for (i, seg) in self.rest.iter().enumerate().skip(1) {
            let seq = seg[0].seq;
            if seq < first {
                (next, limit, first) = (i, first, seq);
            } else {
                limit = limit.min(seq);
            }
        }
        let seg = self.rest[next];
        let (run, tail) = seg.split_at(seg.partition_point(|r| r.seq < limit));
        if tail.is_empty() {
            self.rest.swap_remove(next);
        } else {
            self.rest[next] = tail;
        }
        Some(run)
    }

    /// Copies the remaining records out, in order.
    pub fn to_vec(mut self) -> Vec<TraceRecord> {
        let mut all = Vec::with_capacity(self.len());
        while let Some(run) = self.next_run() {
            all.extend_from_slice(run);
        }
        all
    }
}

impl<'a> Iterator for Replay<'a> {
    type Item = &'a TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<&'a TraceRecord> {
        if self.run.is_empty() {
            self.run = self.next_run()?;
        }
        let (rec, tail) = self.run.split_first()?;
        self.run = tail;
        Some(rec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.run.len() + self.rest.iter().map(|s| s.len()).sum::<usize>();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Replay<'_> {}

/// Per-CPU lossy trace storage. Records are stamped with a globally
/// monotone sequence number at record time, so the merged view is totally
/// ordered even when virtual timestamps tie.
#[derive(Debug)]
pub struct TraceRecorder {
    rings: Vec<Ring>,
    next_seq: u64,
}

impl TraceRecorder {
    /// `num_cpus` rings holding up to `capacity` records each. Nothing is
    /// reserved up front: storage is committed as records arrive.
    pub fn new(num_cpus: usize, capacity: usize) -> Self {
        let ring = |_| Ring {
            buf: Vec::new(),
            cap: capacity.max(1),
            head: 0,
            dropped: 0,
        };
        TraceRecorder {
            rings: (0..num_cpus.max(1)).map(ring).collect(),
            next_seq: 0,
        }
    }

    /// Appends one event to `cpu`'s ring (clamped into range so a stray
    /// CPU id can never panic the hot path).
    pub fn record(&mut self, ts: Nanos, cpu: u16, event: TraceEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = (cpu as usize).min(self.rings.len() - 1);
        self.rings[idx].push(TraceRecord {
            seq,
            ts,
            cpu,
            event,
        });
    }

    /// All surviving records merged across rings in `seq` order, borrowed.
    pub fn replay(&self) -> Replay<'_> {
        let halves = self.rings.iter().flat_map(|r| {
            let (young, old) = r.buf.split_at(r.head);
            [old, young]
        });
        Replay {
            run: &[],
            rest: halves.filter(|s| !s.is_empty()).collect(),
        }
    }

    /// A copy of [`Self::replay`].
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.replay().to_vec()
    }

    /// Total records overwritten across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped).sum()
    }

    /// Total records ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Discards all records (drop counters and the seq stamp survive, like
    /// `trace_pipe` consuming the buffer). O(rings); storage is kept.
    pub fn clear(&mut self) {
        for r in &mut self.rings {
            r.buf.clear();
            r.head = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(cpu: u16) -> TraceEvent {
        TraceEvent::TickDelivered { cpu }
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut rec = TraceRecorder::new(1, 4);
        for i in 0..10u64 {
            rec.record(i, 0, tick(0));
        }
        assert_eq!(rec.dropped(), 6);
        assert_eq!(rec.recorded(), 10);
        let snap = rec.snapshot();
        // The four youngest records survive, in order.
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(
            snap.iter().map(|r| r.ts).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn per_cpu_rings_merge_in_global_order() {
        let mut rec = TraceRecorder::new(2, 8);
        rec.record(1, 1, tick(1));
        rec.record(2, 0, tick(0));
        rec.record(3, 1, tick(1));
        let snap = rec.snapshot();
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(
            snap.iter().map(|r| r.cpu).collect::<Vec<_>>(),
            vec![1, 0, 1]
        );
    }

    #[test]
    fn out_of_range_cpu_is_clamped() {
        let mut rec = TraceRecorder::new(2, 4);
        rec.record(0, 999, tick(0));
        assert_eq!(rec.snapshot().len(), 1);
    }

    #[test]
    fn clear_keeps_counters() {
        let mut rec = TraceRecorder::new(1, 2);
        for i in 0..5 {
            rec.record(i, 0, tick(0));
        }
        rec.clear();
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.dropped(), 3);
        rec.record(9, 0, tick(0));
        assert_eq!(rec.snapshot()[0].seq, 5);
    }
}
