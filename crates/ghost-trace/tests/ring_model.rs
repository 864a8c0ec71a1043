//! Ring reference model: the lazily committed rings and the ordered
//! replay must behave exactly like the obvious model — one bounded
//! `VecDeque` per ring, survivors sorted by `seq` — for arbitrary
//! interleavings of `record`, `clear` and reads.

use ghost_trace::{TraceEvent, TraceRecord, TraceRecorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

struct Model {
    rings: Vec<VecDeque<TraceRecord>>,
    cap: usize,
    dropped: u64,
    next_seq: u64,
}

impl Model {
    fn new(rings: usize, cap: usize) -> Self {
        Model {
            rings: vec![VecDeque::new(); rings],
            cap,
            dropped: 0,
            next_seq: 0,
        }
    }

    fn record(&mut self, ts: u64, cpu: u16, event: TraceEvent) {
        let ring = (cpu as usize).min(self.rings.len() - 1);
        let ring = &mut self.rings[ring];
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped += 1;
        }
        ring.push_back(TraceRecord {
            seq: self.next_seq,
            ts,
            cpu,
            event,
        });
        self.next_seq += 1;
    }

    fn clear(&mut self) {
        self.rings.iter_mut().for_each(VecDeque::clear);
    }

    fn snapshot(&self) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> = self.rings.iter().flatten().copied().collect();
        all.sort_by_key(|r| r.seq);
        all
    }
}

/// Every read path must give the model's answer: the copy, the borrowed
/// iterator, and the runs (which must also be non-empty and in order).
fn assert_same(rec: &TraceRecorder, model: &Model, ctx: &str) {
    let want = model.snapshot();
    assert_eq!(rec.snapshot(), want, "snapshot, {ctx}");
    assert_eq!(rec.replay().len(), want.len(), "len, {ctx}");
    let walked: Vec<TraceRecord> = rec.replay().copied().collect();
    assert_eq!(walked, want, "iterator, {ctx}");
    let mut replay = rec.replay();
    let mut from_runs = Vec::new();
    while let Some(run) = replay.next_run() {
        assert!(!run.is_empty(), "empty run, {ctx}");
        from_runs.extend_from_slice(run);
    }
    assert_eq!(from_runs, want, "runs, {ctx}");
    assert_eq!(rec.dropped(), model.dropped, "dropped, {ctx}");
    assert_eq!(rec.recorded(), model.next_seq, "recorded, {ctx}");
}

#[test]
fn random_ops_match_the_vecdeque_model() {
    for cap in [1usize, 2, 3, 7, 64] {
        for rings in 1usize..=4 {
            for seed in 0..6u64 {
                let ctx = format!("cap={cap} rings={rings} seed={seed}");
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (cap as u64) << 8 ^ (rings as u64) << 16);
                let mut rec = TraceRecorder::new(rings, cap);
                let mut model = Model::new(rings, cap);
                for step in 0..600u64 {
                    match rng.gen_range(0..100u32) {
                        0..=2 => {
                            rec.clear();
                            model.clear();
                        }
                        3..=12 => assert_same(&rec, &model, &ctx),
                        _ => {
                            // Two ids past the last ring exercise the clamp.
                            let cpu = rng.gen_range(0..rings as u16 + 2);
                            let ev = TraceEvent::SchedWakeup {
                                cpu,
                                tid: rng.gen_range(0..50u32),
                            };
                            rec.record(step, cpu, ev);
                            model.record(step, cpu, ev);
                        }
                    }
                }
                assert_same(&rec, &model, &ctx);
            }
        }
    }
}

#[test]
fn wrapped_rings_with_interleaved_seq_merge_to_sort_by_seq() {
    let (rings, cap) = (3usize, 5usize);
    let mut rec = TraceRecorder::new(rings, cap);
    let mut per_ring: Vec<Vec<u64>> = vec![Vec::new(); rings];
    // Bursts of uneven length per CPU, so the rings wrap at different
    // points and the merged order alternates between them in runs.
    let pattern = [0u16, 1, 1, 2, 0, 0, 0, 2, 1, 2, 2, 0, 1];
    for seq in 0..47u64 {
        let cpu = pattern[seq as usize % pattern.len()];
        rec.record(seq * 10, cpu, TraceEvent::TickDelivered { cpu });
        per_ring[cpu as usize].push(seq);
    }
    let mut want: Vec<u64> = per_ring
        .iter()
        .flat_map(|seqs| &seqs[seqs.len() - cap..])
        .copied()
        .collect();
    want.sort_unstable();
    assert_eq!(want.len(), rings * cap, "every ring wrapped");
    let got: Vec<u64> = rec.snapshot().iter().map(|r| r.seq).collect();
    assert_eq!(got, want);
    assert_eq!(rec.dropped(), 47 - (rings * cap) as u64);
    // The runs partition that order into per-ring stretches.
    let mut replay = rec.replay();
    let mut runs = 0;
    while let Some(run) = replay.next_run() {
        assert!(run.windows(2).all(|w| w[0].cpu == w[1].cpu));
        runs += 1;
    }
    assert!(
        runs > rings,
        "interleaved rings must alternate, got {runs} runs"
    );
}

#[test]
fn seq_continues_across_clear_and_rings_refill() {
    let mut rec = TraceRecorder::new(2, 3);
    for i in 0..8u64 {
        rec.record(i, (i % 2) as u16, TraceEvent::TickDelivered { cpu: 0 });
    }
    rec.clear();
    assert!(rec.snapshot().is_empty());
    assert_eq!(rec.replay().len(), 0);
    for i in 8..12u64 {
        rec.record(i, 0, TraceEvent::TickDelivered { cpu: 0 });
    }
    let seqs: Vec<u64> = rec.snapshot().iter().map(|r| r.seq).collect();
    assert_eq!(seqs, vec![9, 10, 11]);
    assert_eq!(rec.dropped(), 2 + 1);
    assert_eq!(rec.recorded(), 12);
}

/// Construction must not depend on `capacity`: four rings of 64 Mi
/// records are 12 GiB if storage is reserved and filled up front, and
/// nothing at all if it is committed as records arrive.
#[test]
fn construction_cost_is_independent_of_capacity() {
    let mut rec = TraceRecorder::new(4, 1 << 26);
    for i in 0..10u64 {
        rec.record(i, (i % 4) as u16, TraceEvent::TickDelivered { cpu: 0 });
    }
    let snap = rec.snapshot();
    assert_eq!(snap.len(), 10);
    assert!(snap.iter().map(|r| r.seq).eq(0..10));
    assert_eq!(rec.dropped(), 0);
}
