//! `RunQueue` reference model: the FIFO with dense membership must behave
//! exactly like the obvious model — a plain `VecDeque` for order and a
//! `BTreeSet` for membership, kept in step by hand — for arbitrary
//! interleavings of `push`, `remove`, `pop` and `clear`.

use ghost_policies::RunQueue;
use ghost_sim::thread::Tid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};

#[derive(Default)]
struct Model {
    q: VecDeque<Tid>,
    set: BTreeSet<u32>,
}

impl Model {
    fn push(&mut self, tid: Tid) {
        if self.set.insert(tid.0) {
            self.q.push_back(tid);
        }
    }

    fn remove(&mut self, tid: Tid) {
        if self.set.remove(&tid.0) {
            self.q.retain(|&t| t != tid);
        }
    }

    fn pop(&mut self) -> Option<Tid> {
        let tid = self.q.pop_front()?;
        self.set.remove(&tid.0);
        Some(tid)
    }
}

/// FIFO order, length, head, and membership ≡ contents for every tid the
/// generator can produce (so a stale membership bit shows up even for a
/// tid that is not queued).
fn assert_same(rq: &RunQueue, model: &Model, tids: u32, ctx: &str) {
    let got: Vec<Tid> = rq.iter().collect();
    let want: Vec<Tid> = model.q.iter().copied().collect();
    assert_eq!(got, want, "order, {ctx}");
    assert_eq!(rq.len(), want.len(), "len, {ctx}");
    assert_eq!(rq.is_empty(), want.is_empty(), "is_empty, {ctx}");
    assert_eq!(rq.front(), want.first().copied(), "front, {ctx}");
    let unique: BTreeSet<u32> = got.iter().map(|t| t.0).collect();
    assert_eq!(unique.len(), got.len(), "duplicates, {ctx}");
    for t in 0..tids {
        assert_eq!(
            rq.contains(Tid(t)),
            model.set.contains(&t),
            "membership of {t}, {ctx}"
        );
    }
}

#[test]
fn random_ops_match_the_vecdeque_and_set_model() {
    for tids in [1u32, 2, 5, 40] {
        for seed in 0..8u64 {
            let ctx = format!("tids={tids} seed={seed}");
            let mut rng = StdRng::seed_from_u64(seed ^ (tids as u64) << 8);
            let mut rq = RunQueue::default();
            let mut model = Model::default();
            for _ in 0..800 {
                let tid = Tid(rng.gen_range(0..tids));
                match rng.gen_range(0..100u32) {
                    0 => {
                        rq.clear();
                        model = Model::default();
                    }
                    1..=45 => {
                        rq.push(tid);
                        model.push(tid);
                    }
                    46..=65 => {
                        rq.remove(tid);
                        model.remove(tid);
                    }
                    _ => assert_eq!(rq.pop(), model.pop(), "pop, {ctx}"),
                }
                assert_same(&rq, &model, tids, &ctx);
            }
        }
    }
}

#[test]
fn repush_after_remove_goes_to_the_back() {
    let mut rq = RunQueue::default();
    for t in [1, 2, 3] {
        rq.push(Tid(t));
    }
    rq.push(Tid(1)); // already queued: keeps its place
    assert_eq!(rq.iter().collect::<Vec<_>>(), [Tid(1), Tid(2), Tid(3)]);
    rq.remove(Tid(1));
    rq.push(Tid(1));
    assert_eq!(rq.iter().collect::<Vec<_>>(), [Tid(2), Tid(3), Tid(1)]);
    assert_eq!(rq.pop(), Some(Tid(2)));
    assert!(!rq.contains(Tid(2)), "pop must clear membership");
    rq.push(Tid(2));
    assert_eq!(rq.iter().collect::<Vec<_>>(), [Tid(3), Tid(1), Tid(2)]);
}
