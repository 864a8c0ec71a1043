//! Unit costs: each layer's public data-structure operations timed in
//! isolation, at the sizes the workloads use. These are the per-layer
//! numbers a data-structure change moves first; the README says which
//! end-to-end metric each should move.

use crate::gen::SplitMix64;
use crate::report::Metrics;
use crate::timing::cleanest;
use ghost_core::msg::{Message, MsgType};
use ghost_core::pnt::PntRings;
use ghost_core::queue::MessageQueue;
use ghost_core::slab::TidSlab;
use ghost_core::status::{StatusWord, SW_RUNNABLE};
use ghost_core::GhostRuntime;
use ghost_live::{spsc, KvService, WorkerCmd, WorkerCtl};
use ghost_metrics::LogHistogram;
use ghost_sim::event::{Ev, EventQueue};
use ghost_sim::thread::Tid;
use ghost_sim::topology::{CpuId, Topology};
use ghost_trace::{TraceEvent, TraceRecorder};
use std::hint::black_box;
use std::time::Instant;

/// Rounds per unit cost; the cleanest round is reported.
const ROUNDS: usize = 5;

/// Cleanest of [`ROUNDS`] rounds of the ns one call of `op` takes when
/// called `iters` times back to back (`op` gets the call index).
fn ns_per_op(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                op(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    cleanest(&rounds, false)
}

/// One pop plus one push on an event queue holding `depth` events: each
/// popped event is pushed back a random 1 ns – 1 ms later, so the depth
/// and the spread over wheel levels stay constant.
fn event_queue_hold(depth: u64) -> f64 {
    let mut q = EventQueue::new();
    let mut rng = SplitMix64::new(depth);
    for _ in 0..depth {
        q.push(rng.range(0, 1_000_000), Ev::Resched { cpu: CpuId(0) });
    }
    ns_per_op(200_000, |_| {
        let (at, ev) = q.pop().expect("hold model keeps the queue full");
        q.push(at + rng.range(1, 1_000_000), black_box(ev));
    })
}

/// One command hand-off between two OS threads through `WorkerCtl`
/// mailboxes (post → condvar wake → park), µs: half a ping-pong.
fn worker_ctl_handoff_us() -> f64 {
    const PINGS: u64 = 20_000;
    let ping = WorkerCtl::new();
    let pong = WorkerCtl::new();
    let run = WorkerCmd::Run { cpu: CpuId(0) };
    let echo = {
        let (ping, pong) = (ping.clone(), pong.clone());
        std::thread::spawn(move || {
            while ping.wait() != WorkerCmd::Exit {
                let (_, epoch) = ping.peek();
                ping.park_if_quiet(epoch);
                pong.post(run);
            }
        })
    };
    let ns = ns_per_op(PINGS, |_| {
        ping.post(run);
        pong.wait();
        let (_, epoch) = pong.peek();
        pong.park_if_quiet(epoch);
    });
    ping.post(WorkerCmd::Exit);
    echo.join().expect("echo thread panicked");
    ns / 2.0 / 1e3
}

/// Measures every unit cost into `m`.
pub fn unit_costs(m: &mut Metrics) {
    m.set("sim.event_queue.push_pop_ns.d1k", event_queue_hold(1_000));
    m.set("sim.event_queue.push_pop_ns.d64k", event_queue_hold(65_536));

    let topo = Topology::rome_256();
    let (all, socket0) = (topo.all_cpus_set(), topo.socket_cpus(0));
    m.set(
        "sim.cpuset.and_first_ns",
        ns_per_op(1_000_000, |_| {
            black_box(black_box(&all).and(black_box(&socket0)).first());
        }),
    );

    let q = MessageQueue::new(1024);
    m.set(
        "core.msg_queue.push_pop_ns",
        ns_per_op(1_000_000, |i| {
            let msg = Message::thread(MsgType::ThreadWakeup, Tid(i as u32), i, CpuId(0), 0);
            q.push(black_box(msg)).expect("queue has room");
            black_box(q.pop());
        }),
    );

    let sw = StatusWord::new();
    m.set(
        "core.status_word.publish_ns",
        ns_per_op(1_000_000, |_| sw.publish(|s, f| (s + 1, f ^ SW_RUNNABLE))),
    );

    let mut rings = PntRings::new(2, 256);
    m.set(
        "core.pnt.push_pop_ns",
        ns_per_op(1_000_000, |i| {
            rings.push((i % 2) as usize, Tid(i as u32));
            black_box(rings.pop_for((i % 2) as usize));
        }),
    );

    // 260 resident threads, as on the fig5 workload.
    let mut slab: TidSlab<u64> = TidSlab::new();
    for t in 0..260 {
        slab.insert(Tid(t), t as u64);
    }
    m.set(
        "core.slab.insert_get_remove_ns",
        ns_per_op(1_000_000, |i| {
            let tid = Tid(1_000 + (i % 64) as u32);
            slab.insert(tid, i);
            black_box(slab.get(tid));
            black_box(slab.remove(tid));
        }),
    );

    let rt = GhostRuntime::new(8);
    m.set(
        "core.runtime.lock_probe_ns",
        ns_per_op(1_000_000, |_| {
            black_box(rt.stats());
        }),
    );

    let mut rec = TraceRecorder::new(1, 1 << 16);
    m.set(
        "trace.recorder.record_ns",
        ns_per_op(1_000_000, |i| {
            rec.record(i, 0, black_box(TraceEvent::SchedWakeup { cpu: 0, tid: 7 }));
        }),
    );

    let mut h = LogHistogram::new();
    let mut v = 1u64;
    m.set(
        "metrics.hist.record_ns",
        ns_per_op(1_000_000, |_| {
            h.record(black_box(v));
            v = v.wrapping_mul(48_271) % 1_000_000 + 1;
        }),
    );
    m.set(
        "metrics.hist.percentile_ns",
        ns_per_op(20_000, |_| {
            black_box(h.percentile(black_box(99.0)));
        }),
    );

    let (tx, rx) = spsc::<u64>(1024);
    m.set(
        "live.ring.push_pop_ns",
        ns_per_op(1_000_000, |i| {
            tx.push(black_box(i)).expect("ring has room");
            black_box(rx.pop());
        }),
    );
    m.set("live.worker_ctl.handoff_us", worker_ctl_handoff_us());

    let kv = KvService::new(16, 0);
    m.set(
        "kv.push_ns",
        ns_per_op(1_000_000, |i| {
            kv.push(black_box(i), i % 10 == 0, 0);
            black_box(kv.pop());
        }),
    );
}
