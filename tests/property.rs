//! Randomized model tests over the core data structures, via the `ghost`
//! facade: CPU sets against a reference set model, histogram percentiles
//! against exact order statistics, the message queue against a VecDeque
//! model, the event queue against a sorted reference, and the
//! message-driven thread tracker against a reference state machine.
//!
//! These were originally proptest suites; the offline build environment
//! cannot fetch proptest, so each property runs over a few hundred cases
//! through `ghost_chaos::for_seeds!`, which derives one RNG per case and
//! reports the failing seed on panic so any case reruns in isolation.

use ghost::core::msg::{Message, MsgType};
use ghost::core::queue::MessageQueue;
use ghost::metrics::LogHistogram;
use ghost::policies::{ThreadTracker, Transition};
use ghost::sim::cpuset::CpuSet;
use ghost::sim::event::{Ev, EventQueue};
use ghost::sim::thread::Tid;
use ghost::sim::topology::CpuId;
use ghost_chaos::for_seeds;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeSet, VecDeque};

fn rand_vec(rng: &mut StdRng, len_max: usize, lo: u64, hi: u64) -> Vec<u64> {
    let len = rng.gen_range(1..=len_max);
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// CpuSet behaves exactly like a set of u16 < 256.
#[test]
fn cpuset_matches_btreeset() {
    for_seeds!(0xC9, 256, |rng: &mut StdRng| {
        let ids: Vec<u16> = (0..rng.gen_range(0usize..64))
            .map(|_| rng.gen_range(0u16..256))
            .collect();
        let other: Vec<u16> = (0..rng.gen_range(0usize..64))
            .map(|_| rng.gen_range(0u16..256))
            .collect();
        let a: CpuSet = ids.iter().map(|&i| CpuId(i)).collect();
        let b: CpuSet = other.iter().map(|&i| CpuId(i)).collect();
        let ra: BTreeSet<u16> = ids.iter().copied().collect();
        let rb: BTreeSet<u16> = other.iter().copied().collect();
        assert_eq!(a.count(), ra.len());
        let and: Vec<u16> = a.and(&b).iter().map(|c| c.0).collect();
        let r_and: Vec<u16> = ra.intersection(&rb).copied().collect();
        assert_eq!(and, r_and);
        let or: Vec<u16> = a.or(&b).iter().map(|c| c.0).collect();
        let ror: Vec<u16> = ra.union(&rb).copied().collect();
        assert_eq!(or, ror);
        let minus: Vec<u16> = a.minus(&b).iter().map(|c| c.0).collect();
        let rminus: Vec<u16> = ra.difference(&rb).copied().collect();
        assert_eq!(minus, rminus);
        assert_eq!(a.first().map(|c| c.0), ra.first().copied());
    });
}

/// Histogram percentiles stay within the documented ~1.6% relative
/// error of exact order statistics.
#[test]
fn histogram_percentiles_bound_error() {
    for_seeds!(0x4157, 200, |rng: &mut StdRng| {
        let mut values = rand_vec(rng, 500, 1, 10_000_000);
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for p in [50.0, 90.0, 99.0] {
            let rank = ((p / 100.0) * values.len() as f64).ceil().max(1.0) as usize - 1;
            let exact = values[rank.min(values.len() - 1)] as f64;
            let approx = h.percentile(p) as f64;
            // Bucket lower bound: approx <= exact, within one bucket width.
            assert!(approx <= exact * 1.001 + 1.0, "p{p}: {approx} > {exact}");
            assert!(approx >= exact / 1.04 - 2.0, "p{p}: {approx} << {exact}");
        }
        assert_eq!(h.max(), *values.last().unwrap());
        assert_eq!(h.min(), *values.first().unwrap());
        assert_eq!(h.count(), values.len() as u64);
    });
}

/// The lock-free message queue is FIFO and loss-free under any
/// push/pop interleaving (single-threaded model check).
#[test]
fn message_queue_matches_vecdeque() {
    for_seeds!(0x9E5B, 200, |rng: &mut StdRng| {
        let q = MessageQueue::new(64);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        for _ in 0..rng.gen_range(1usize..400) {
            if rng.gen_bool(0.5) {
                let m = Message::thread(MsgType::ThreadWakeup, Tid(next), 0, CpuId(0), 0);
                let ok = q.push(m).is_ok();
                let model_ok = model.len() < 64;
                assert_eq!(ok, model_ok, "capacity divergence");
                if ok {
                    model.push_back(next);
                }
                next += 1;
            } else {
                let got = q.pop().map(|m| m.tid.0);
                assert_eq!(got, model.pop_front());
            }
        }
        assert_eq!(q.len(), model.len());
    });
}

/// The event queue pops in (time, insertion) order.
#[test]
fn event_queue_is_stable_priority_queue() {
    for_seeds!(0xE7, 200, |rng: &mut StdRng| {
        let times = rand_vec(rng, 200, 0, 1000);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, Ev::Wake { tid: Tid(i as u32) });
        }
        let mut expected: Vec<(u64, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        expected.sort_by_key(|&(t, i)| (t, i));
        for (t, i) in expected {
            let (at, ev) = q.pop().unwrap();
            assert_eq!(at, t);
            match ev {
                Ev::Wake { tid } => assert_eq!(tid.0, i),
                _ => panic!("unexpected event"),
            }
        }
        assert!(q.is_empty());
    });
}

/// The thread tracker never reports a blocked/dead thread as
/// runnable, whatever the message order.
#[test]
fn tracker_state_machine() {
    for_seeds!(0x7A, 200, |rng: &mut StdRng| {
        let mut tracker = ThreadTracker::new();
        let mut seqs = [0u64; 4];
        for _ in 0..rng.gen_range(1usize..300) {
            let tid = rng.gen_range(0u32..4);
            let ty = match rng.gen_range(0u8..6) {
                0 => MsgType::ThreadCreated,
                1 => MsgType::ThreadWakeup,
                2 => MsgType::ThreadBlocked,
                3 => MsgType::ThreadPreempted,
                4 => MsgType::ThreadYield,
                _ => MsgType::ThreadDead,
            };
            seqs[tid as usize] += 1;
            let m = Message::thread(ty, Tid(tid), seqs[tid as usize], CpuId(0), 0);
            let t = tracker.apply(&m).unwrap();
            match ty {
                MsgType::ThreadWakeup | MsgType::ThreadPreempted | MsgType::ThreadYield => {
                    assert_eq!(t, Transition::Runnable)
                }
                MsgType::ThreadBlocked => assert_eq!(t, Transition::Blocked),
                MsgType::ThreadDead => assert_eq!(t, Transition::Dead),
                _ => {}
            }
            if ty == MsgType::ThreadDead {
                assert!(tracker.get(Tid(tid)).is_none());
                seqs[tid as usize] = 0;
            } else {
                assert_eq!(tracker.seq(Tid(tid)), seqs[tid as usize]);
            }
        }
    });
}

/// Topology invariants over arbitrary machine shapes: sibling is an
/// involution, cores partition into CCXs, CCXs partition into
/// sockets, and distance is symmetric with locality ordering.
#[test]
fn topology_invariants() {
    use ghost::sim::topology::Topology;
    for_seeds!(0x70B0, 24, |rng: &mut StdRng| {
        let sockets = rng.gen_range(1u16..3);
        let cores = rng.gen_range(1u16..9);
        let smt = rng.gen_range(1u8..3);
        let ccx = rng.gen_range(1u16..5).min(cores);
        let t = Topology::new("prop", sockets, cores, smt, ccx);
        for a in t.all_cpus() {
            // Sibling is a fixed-point-free involution under SMT2.
            if let Some(s) = t.sibling(a) {
                assert_ne!(a, s);
                assert_eq!(t.sibling(s), Some(a));
                assert!(t.same_core(a, s));
                assert!(t.same_ccx(a, s));
                assert!(t.same_socket(a, s));
            }
            for b in t.all_cpus() {
                assert_eq!(t.distance(a, b), t.distance(b, a));
                // Locality ordering: same core ⊆ same CCX ⊆ same socket.
                if t.same_core(a, b) {
                    assert!(t.same_ccx(a, b));
                }
                if t.same_ccx(a, b) {
                    assert!(t.same_socket(a, b));
                }
            }
        }
        // Socket CPU sets partition the machine.
        let mut total = 0;
        for s in 0..sockets {
            total += t.socket_cpus(s).count();
        }
        assert_eq!(total, t.num_cpus());
    });
}

/// Cost-model identities hold for any plausible constant perturbation:
/// group commits amortize (per-txn agent cost decreases with group
/// size) and every derived quantity stays positive.
#[test]
fn cost_model_amortization() {
    use ghost::sim::CostModel;
    for_seeds!(0xC057, 100, |rng: &mut StdRng| {
        let scale = rng.gen_range(1u64..5);
        let n = rng.gen_range(2u64..32);
        let mut c = CostModel::default();
        c.txn_validate *= scale;
        c.ipi_send *= scale;
        c.ipi_send_extra *= scale;
        let single = c.remote_schedule_agent() as f64;
        let group = c.group_schedule_agent(n) as f64 / n as f64;
        assert!(
            group < single,
            "group of {n} should amortize: {group} vs {single}"
        );
        // Larger groups amortize at least as well.
        let bigger = c.group_schedule_agent(n * 2) as f64 / (n * 2) as f64;
        assert!(bigger <= group + 1.0);
        assert!(c.local_schedule() > 0);
        assert!(c.group_schedule_e2e(n) >= c.group_schedule_agent(n));
    });
}

/// Histogram merge is commutative and order-insensitive for the
/// statistics we report.
#[test]
fn histogram_merge_is_commutative() {
    for_seeds!(0x33, 200, |rng: &mut StdRng| {
        let a = rand_vec(rng, 200, 1, 1_000_000);
        let b = rand_vec(rng, 200, 1, 1_000_000);
        let mk = |v: &[u64]| {
            let mut h = LogHistogram::new();
            for &x in v {
                h.record(x);
            }
            h
        };
        let mut ab = mk(&a);
        ab.merge(&mk(&b));
        let mut ba = mk(&b);
        ba.merge(&mk(&a));
        assert_eq!(ab.count(), ba.count());
        assert_eq!(ab.min(), ba.min());
        assert_eq!(ab.max(), ba.max());
        for p in [50.0, 90.0, 99.0, 99.9] {
            assert_eq!(ab.percentile(p), ba.percentile(p));
        }
    });
}

/// PNT rings preserve per-node FIFO order and never lose or duplicate
/// candidates under arbitrary push/pop/revoke interleavings.
#[test]
fn pnt_rings_are_lossless() {
    use ghost::core::pnt::PntRings;
    for_seeds!(0x917, 200, |rng: &mut StdRng| {
        let mut rings = PntRings::new(2, 8);
        let mut model: [VecDeque<u32>; 2] = [VecDeque::new(), VecDeque::new()];
        for _ in 0..rng.gen_range(1usize..300) {
            let op = rng.gen_range(0u8..3);
            let x = rng.gen_range(0u32..16);
            match op {
                0 => {
                    let node = (x % 2) as usize;
                    let in_model = model[node].len() < 8;
                    let ok = rings.push(node, Tid(x));
                    assert_eq!(ok, in_model);
                    if ok {
                        model[node].push_back(x);
                    }
                }
                1 => {
                    let node = (x % 2) as usize;
                    let got = rings.pop_for(node).map(|t| t.0);
                    let want = if !model[node].is_empty() {
                        model[node].pop_front()
                    } else {
                        model[1 - node].pop_front()
                    };
                    assert_eq!(got, want);
                }
                _ => {
                    let in_model = model.iter().any(|m| m.contains(&x));
                    let ok = rings.revoke(Tid(x));
                    assert_eq!(ok, in_model);
                    if ok {
                        // Remove the first occurrence, node 0 first (the
                        // implementation scans rings in order).
                        if let Some(i) = model[0].iter().position(|&v| v == x) {
                            model[0].remove(i);
                        } else if let Some(i) = model[1].iter().position(|&v| v == x) {
                            model[1].remove(i);
                        }
                    }
                }
            }
        }
        assert_eq!(rings.len(), model[0].len() + model[1].len());
    });
}
