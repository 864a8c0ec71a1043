//! Slab free-list reuse under thread churn, crossed with agent recovery.
//!
//! The enclave's thread table is a `TidSlab`: dead threads free their
//! slot handle, and later attaches recycle it. These tests drive enough
//! kill/respawn churn that handles demonstrably recycle, then run the
//! §3.4 reconstruction path on top, proving that
//!
//! * a dead tid can never reach a recycled slot (no stale-handle
//!   aliasing — the forged id misses, the ABI rejects it), and
//! * the status-word scan a respawned agent replays as `THREAD_CREATED`
//!   messages covers exactly the live thread population, never a ghost
//!   of the previous occupant of a recycled handle.

use ghost_core::enclave::EnclaveConfig;
use ghost_core::msg::{Message, MsgType};
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::runtime::GhostRuntime;
use ghost_core::txn::Transaction;
use ghost_core::{AbiError, StandbyConfig};
use ghost_sim::app::{App, Next};
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, ThreadSpec};
use ghost_sim::thread::Tid;
use ghost_sim::time::{MICROS, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::CpuSet;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

/// Threads run a short segment and yield, staying permanently runnable —
/// churn comes from explicit kills, not blocking.
struct YieldApp;

impl App for YieldApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "slab-yield"
    }

    fn on_timer(&mut self, _key: u64, _k: &mut KernelState) {}

    fn on_segment_end(&mut self, _tid: Tid, _k: &mut KernelState) -> Next {
        Next::Yield { dur: 50 * MICROS }
    }
}

/// Shared observers the respawned policy instance reports into.
#[derive(Default, Clone)]
struct Observers {
    /// Tids of every replayed `THREAD_CREATED` (one past the thread's
    /// first `Tseq`, which only a status-word scan produces).
    discovered: Arc<Mutex<Vec<u32>>>,
    /// Every tid the policy successfully committed.
    committed: Arc<Mutex<HashSet<u32>>>,
}

/// Minimal centralized FIFO that records discovered and committed tids
/// into [`Observers`].
#[derive(Default)]
struct RecordingFifo {
    rq: VecDeque<Tid>,
    queued: HashSet<Tid>,
    seqs: HashMap<Tid, u64>,
    obs: Observers,
}

impl RecordingFifo {
    fn new(obs: Observers) -> Self {
        Self {
            obs,
            ..Self::default()
        }
    }

    fn enqueue(&mut self, tid: Tid) {
        if self.queued.insert(tid) {
            self.rq.push_back(tid);
        }
    }

    fn remove(&mut self, tid: Tid) {
        if self.queued.remove(&tid) {
            self.rq.retain(|&t| t != tid);
        }
    }
}

impl GhostPolicy for RecordingFifo {
    fn name(&self) -> &str {
        "slab-reuse-fifo"
    }

    fn on_msg(&mut self, msg: &Message, _ctx: &mut PolicyCtx<'_>) {
        if msg.ty.is_thread_msg() {
            self.seqs.insert(msg.tid, msg.seq);
        }
        if msg.ty == MsgType::ThreadCreated && msg.seq > 1 {
            self.obs.discovered.lock().unwrap().push(msg.tid.0);
        }
        match msg.ty {
            MsgType::ThreadWakeup | MsgType::ThreadPreempted | MsgType::ThreadYield => {
                self.enqueue(msg.tid)
            }
            MsgType::ThreadBlocked | MsgType::ThreadDead => self.remove(msg.tid),
            _ => {}
        }
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        let mut txns = Vec::new();
        for cpu in ctx.idle_cpus().iter() {
            let Some(tid) = self.rq.pop_front() else {
                break;
            };
            self.queued.remove(&tid);
            let seq = self.seqs.get(&tid).copied().unwrap_or(0);
            txns.push(Transaction::new(tid, cpu).with_thread_seq(seq));
        }
        if txns.is_empty() {
            return;
        }
        ctx.commit(&mut txns);
        for txn in &txns {
            if txn.status.committed() {
                self.obs.committed.lock().unwrap().insert(txn.tid.0);
            } else {
                self.enqueue(txn.tid);
            }
        }
    }
}

struct Churn {
    kernel: Kernel,
    runtime: GhostRuntime,
    enclave: ghost_core::runtime::EnclaveHandle,
    app: ghost_sim::app::AppId,
    obs: Observers,
}

fn churn_setup() -> Churn {
    let mut kernel = Kernel::new(Topology::test_small(4), KernelConfig::default());
    let ncpus = kernel.state.topo.num_cpus();
    let runtime = GhostRuntime::new(ncpus);
    let cpus: CpuSet = (1..ncpus as u16).map(CpuId).collect();
    let obs = Observers::default();
    let enclave = runtime.launch_enclave(
        &mut kernel,
        cpus,
        EnclaveConfig::centralized("slab-reuse"),
        Box::new(RecordingFifo::new(obs.clone())),
    );
    let factory_obs = obs.clone();
    enclave.set_standby(StandbyConfig::default(), move || {
        Box::new(RecordingFifo::new(factory_obs.clone()))
    });
    let app = kernel.state.next_app_id();
    kernel.add_app(Box::new(YieldApp));
    Churn {
        kernel,
        runtime,
        enclave,
        app,
        obs,
    }
}

impl Churn {
    /// Spawns `n` yield-loop threads, attaches them, and wakes them.
    fn spawn_wave(&mut self, label: &str, n: usize) -> Vec<Tid> {
        let mut wave = Vec::new();
        for i in 0..n {
            let tid = self.kernel.spawn(
                ThreadSpec::workload(&format!("{label}{i}"), &self.kernel.state.topo).app(self.app),
            );
            self.enclave.attach_thread(&mut self.kernel.state, tid);
            wave.push(tid);
        }
        for &tid in &wave {
            self.kernel.wake_now(tid);
        }
        wave
    }

    fn handle_of(&self, tid: Tid) -> Option<u32> {
        self.enclave.thread_handle(tid)
    }
}

#[test]
fn thread_churn_recycles_handles_without_aliasing() {
    let mut c = churn_setup();
    let wave_a = c.spawn_wave("a", 6);
    c.kernel.run_until(5 * MILLIS);

    let a_handles: BTreeSet<u32> = wave_a
        .iter()
        .map(|&t| c.handle_of(t).expect("wave A managed"))
        .collect();
    assert_eq!(a_handles.len(), wave_a.len());

    // Kill wave A: every handle returns to the free list.
    for &tid in &wave_a {
        c.kernel.kill(tid);
    }
    c.kernel.run_until(8 * MILLIS);
    for &tid in &wave_a {
        assert_eq!(c.handle_of(tid), None, "dead tid still resolves a handle");
    }

    // Wave B recycles wave A's handles (LIFO free list, equal sizes →
    // the handle sets must be identical) under fresh, larger tids.
    let wave_b = c.spawn_wave("b", 6);
    c.kernel.run_until(12 * MILLIS);
    let b_handles: BTreeSet<u32> = wave_b
        .iter()
        .map(|&t| c.handle_of(t).expect("wave B managed"))
        .collect();
    assert_eq!(b_handles, a_handles, "wave B must recycle wave A's slots");

    // No stale-handle aliasing: the dead tids cannot reach the recycled
    // slots through any interface.
    for &tid in &wave_a {
        assert_eq!(c.handle_of(tid), None);
        assert!(matches!(
            c.enclave.try_thread_status(tid),
            Err(AbiError::ForeignThread | AbiError::NoSuchThread)
        ));
    }
    // And the recycled slots still serve their new owners.
    for &tid in &wave_b {
        assert!(c.enclave.try_thread_status(tid).is_ok());
    }
}

#[test]
fn reconstruction_after_churn_sees_only_live_threads() {
    let mut c = churn_setup();

    // Several kill/respawn rounds so handles recycle repeatedly and the
    // tid space drifts far from the handle space.
    let mut prev = c.spawn_wave("r0-", 5);
    let mut at = 4 * MILLIS;
    for round in 1..4 {
        c.kernel.run_until(at);
        for &tid in &prev {
            c.kernel.kill(tid);
        }
        prev = c.spawn_wave(&format!("r{round}-"), 5);
        at += 4 * MILLIS;
    }
    c.kernel.run_until(at);
    let live: BTreeSet<u32> = prev.iter().map(|t| t.0).collect();

    // Crash the agent; the standby respawns and rebuilds its view from
    // the status-word scan's replay.
    let global = c.enclave.global_agent().expect("global agent");
    c.kernel.kill(global);
    c.kernel.run_until(at + 30 * MILLIS);
    let stats = c.runtime.stats();
    assert_eq!(stats.respawns, 1, "one standby respawn");
    assert_eq!(stats.reconstructions, 1);

    // The replay must cover exactly the live wave, once each — a
    // recycled handle must never resurrect its previous occupant.
    let discovered = c.obs.discovered.lock().unwrap().clone();
    assert_eq!(
        discovered.len(),
        live.len(),
        "one THREAD_CREATED per thread"
    );
    let discovered: BTreeSet<u32> = discovered.into_iter().collect();
    assert_eq!(discovered, live, "replay is exactly the live threads");

    // The respawned agent schedules the live wave — and only it.
    c.obs.committed.lock().unwrap().clear();
    c.kernel.run_until(at + 60 * MILLIS);
    let committed = c.obs.committed.lock().unwrap().clone();
    assert!(
        !committed.is_empty(),
        "respawned agent must make progress on recycled handles"
    );
    assert!(
        committed.iter().all(|t| live.contains(t)),
        "committed a dead tid: {committed:?} vs live {live:?}"
    );
}
