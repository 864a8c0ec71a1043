//! # ghost-policies — the scheduling policies from the paper's evaluation
//!
//! Each policy implements [`ghost_core::GhostPolicy`] over the
//! [`ghost_core::PolicyCtx`] API, mirroring the userspace policies of the
//! paper:
//!
//! | module | paper | LOC in paper |
//! |---|---|---|
//! | [`per_cpu`] | the per-CPU example of §3.2 / Fig. 3 | — |
//! | [`fifo`] | the round-robin global policy of Fig. 5 | — |
//! | [`shinjuku`] | the Shinjuku policy, §4.2 | 710 |
//! | [`shinjuku_shenango`] | Shinjuku + Shenango, §4.2 | 727 |
//! | [`shinjuku_adaptive`] | Shinjuku with a self-tuning quantum and steal threshold (not in the paper) | — |
//! | [`snap`] | the Google Snap policy, §4.3 | 855 |
//! | [`search`] | the Google Search policy, §4.4 | 929 |
//! | [`core_sched`] | secure VM core scheduling, §4.5 | 4,702 |
//!
//! A policy file holds the *decision*; the rest is shared (the paper's
//! "userspace support library" role):
//!
//! | module | what it derives once |
//! |---|---|
//! | [`tracker`] | the message fold and status-word reconstruction: per-thread runnable / `Tseq` / last CPU |
//! | [`kernel`] | [`RunQueue`] (FIFO with membership), [`PolicyKernel`] (transaction builder, commit-settle step, commit counters), [`SliceClock`] (time-slice bookkeeping) |
//! | [`registry`] | every policy as data: stable names, capability flags, factories, enclave shapes |

#![forbid(unsafe_code)]

pub mod core_sched;
pub mod fifo;
pub mod kernel;
pub mod per_cpu;
pub mod registry;
pub mod search;
pub mod shinjuku;
pub mod shinjuku_adaptive;
pub mod shinjuku_shenango;
pub mod snap;
pub mod tracker;

pub use core_sched::CoreSchedPolicy;
pub use fifo::CentralizedFifo;
pub use kernel::{PolicyKernel, RunQueue, SliceClock};
pub use per_cpu::PerCpuPolicy;
pub use registry::{PolicyCaps, PolicyEntry, PolicyKind, REGISTRY};
pub use search::{SearchConfig, SearchPolicy};
pub use shinjuku::ShinjukuPolicy;
pub use shinjuku_adaptive::{KnobProbe, KnobSample, ShinjukuAdaptivePolicy};
pub use shinjuku_shenango::ShinjukuShenangoPolicy;
pub use snap::SnapPolicy;
pub use tracker::{ThreadTracker, Transition};

#[cfg(test)]
mod tests {
    use super::*;
    use ghost_core::msg::{Message, MsgType};
    use ghost_sim::thread::Tid;
    use ghost_sim::topology::CpuId;
    use MsgType::*;

    /// One message script, and the run queue every centralized policy
    /// must hold after each step. Thread 2 is first seen by its wakeup
    /// (its `THREAD_CREATED` was dropped).
    const SCRIPT: &[(MsgType, u32, u64, &[u32])] = &[
        (ThreadCreated, 1, 1, &[]),
        (ThreadWakeup, 1, 2, &[1]),
        (ThreadWakeup, 2, 1, &[1, 2]),
        (ThreadWakeup, 1, 2, &[1, 2]),    // duplicate: keeps its place
        (ThreadPreempted, 1, 3, &[1, 2]), // re-delivery while queued
        (ThreadBlocked, 1, 4, &[2]),
        (ThreadWakeup, 1, 3, &[2]),    // stale seq: discarded
        (ThreadWakeup, 1, 5, &[2, 1]), // back of the queue
        (TimerTick, 0, 0, &[2, 1]),
        (ThreadDead, 2, 2, &[1]),
        (ThreadDead, 1, 6, &[]),
    ];

    /// Feeds [`SCRIPT`] through `fold` — a policy's `on_msg` minus the
    /// `PolicyCtx` reads — and checks `queue` after every message: the
    /// exact FIFO, or just its members in tid order when `fifo` is false.
    fn run_script<P>(
        name: &str,
        mut p: P,
        fold: fn(&mut P, &Message),
        queue: fn(&P) -> Vec<Tid>,
        fifo: bool,
    ) {
        for (step, &(ty, tid, seq, want)) in SCRIPT.iter().enumerate() {
            let msg = match ty {
                TimerTick => Message::tick(CpuId(0), 0),
                _ => Message::thread(ty, Tid(tid), seq, CpuId(0), 0),
            };
            fold(&mut p, &msg);
            let mut want: Vec<Tid> = want.iter().map(|&t| Tid(t)).collect();
            if !fifo {
                want.sort_by_key(|t| t.0);
            }
            assert_eq!(queue(&p), want, "{name}, step {step}: {ty:?} tid {tid}");
        }
    }

    #[test]
    fn every_centralized_policy_folds_the_same_script_to_the_same_queue() {
        run_script(
            "centralized-fifo",
            CentralizedFifo::new(),
            |p, m| {
                p.k.tracker.fold(m, &mut p.rq);
            },
            |p| p.rq.iter().collect(),
            true,
        );
        run_script(
            "shinjuku",
            ShinjukuPolicy::new(),
            |p, m| p.track(m, || None),
            |p| p.rq.iter().collect(),
            true,
        );
        run_script(
            "shinjuku-shenango",
            ShinjukuShenangoPolicy::new(),
            |p, m| p.lc.track(m, || None),
            |p| p.lc.rq.iter().collect(),
            true,
        );
        run_script(
            "shinjuku-adaptive",
            ShinjukuAdaptivePolicy::new(),
            |p, m| p.inner.track(m, || None),
            |p| p.inner.rq.iter().collect(),
            true,
        );
        // No thread carries the Snap cookie here, so all queue as
        // antagonists.
        run_script(
            "snap",
            SnapPolicy::new(),
            |p, m| p.track(m),
            |p| p.snap_rq.iter().chain(p.batch_rq.iter()).collect(),
            true,
        );
        // Search orders by runtime, not arrival, so only membership is
        // comparable (with no kernel view every key is 0).
        run_script(
            "search",
            SearchPolicy::new(SearchConfig::default()),
            |p, m| p.track(m, || None),
            |p| p.queued.keys().collect(),
            false,
        );
    }
}
