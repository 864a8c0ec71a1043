//! Focused tests of ghOSt ABI semantics from §3 of the paper:
//! `ASSOCIATE_QUEUE` failing with pending messages, atomic group commits,
//! queue overflow accounting, commit-slot invalidation on affinity
//! changes, and the per-core agent mode.

use ghost_core::abi::AbiError;
use ghost_core::enclave::{EnclaveConfig, QueueId};
use ghost_core::msg::{Message, MsgType};
use ghost_core::policy::{CpuView, GhostPolicy, PolicyCtx};
use ghost_core::runtime::GhostRuntime;
use ghost_core::txn::{Transaction, TxnStatus};
use ghost_sim::app::{App, Next};
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, ThreadSpec};
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::{MICROS, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::CpuSet;
use std::sync::{Arc, Mutex};

/// Scriptable policy: runs closures the test injects.
type Script = Arc<Mutex<Vec<Box<dyn FnMut(&mut PolicyCtx<'_>) + Send>>>>;

struct Scripted {
    script: Script,
    log: Arc<Mutex<Vec<Message>>>,
}

impl GhostPolicy for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }

    fn on_msg(&mut self, msg: &Message, _ctx: &mut PolicyCtx<'_>) {
        self.log.lock().unwrap().push(*msg);
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        let mut steps = self.script.lock().unwrap();
        for step in steps.iter_mut() {
            step(ctx);
        }
        steps.clear();
    }
}

struct Sleeper;

impl App for Sleeper {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> &str {
        "sleeper"
    }
    fn on_timer(&mut self, key: u64, k: &mut KernelState) {
        let tid = Tid(key as u32);
        if k.threads[tid.index()].state == ThreadState::Blocked {
            k.thread_mut(tid).remaining = 50 * MICROS;
            k.wake(tid);
        }
    }
    fn on_segment_end(&mut self, _tid: Tid, _k: &mut KernelState) -> Next {
        Next::Block
    }
}

struct Setup {
    kernel: Kernel,
    runtime: GhostRuntime,
    enclave: ghost_core::runtime::EnclaveHandle,
    tids: Vec<Tid>,
    script: Script,
    log: Arc<Mutex<Vec<Message>>>,
}

fn setup(n_threads: usize, config: EnclaveConfig) -> Setup {
    let mut kernel = Kernel::new(Topology::test_small(4), KernelConfig::default());
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let cpus: CpuSet = (1..8u16).map(CpuId).collect();
    let script: Script = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::new(Mutex::new(Vec::new()));
    let enclave = runtime.launch_enclave(
        &mut kernel,
        cpus,
        config,
        Box::new(Scripted {
            script: Arc::clone(&script),
            log: Arc::clone(&log),
        }),
    );
    let app_id = kernel.state.next_app_id();
    let mut tids = Vec::new();
    for i in 0..n_threads {
        let tid =
            kernel.spawn(ThreadSpec::workload(&format!("t{i}"), &kernel.state.topo).app(app_id));
        tids.push(tid);
    }
    kernel.add_app(Box::new(Sleeper));
    for &tid in &tids {
        enclave.attach_thread(&mut kernel.state, tid);
    }
    Setup {
        kernel,
        runtime,
        enclave,
        tids,
        script,
        log,
    }
}

#[test]
fn associate_queue_fails_with_pending_messages() {
    let mut s = setup(2, EnclaveConfig::centralized("assoc"));
    let t = s.tids[0];
    let other = s.tids[1];
    // Step 1: create a queue and reroute the (message-free) thread: OK.
    let ok = Arc::new(Mutex::new(None));
    let new_q = Arc::new(Mutex::new(QueueId(0)));
    {
        let ok = Arc::clone(&ok);
        let new_q = Arc::clone(&new_q);
        s.script.lock().unwrap().push(Box::new(move |ctx| {
            let q = ctx.create_queue();
            *new_q.lock().unwrap() = q;
            *ok.lock().unwrap() = Some(ctx.try_associate_queue(t, q).is_ok());
        }));
    }
    s.kernel.run_until(5 * MILLIS);
    assert_eq!(
        *ok.lock().unwrap(),
        Some(true),
        "clean association must succeed"
    );

    // Step 2: make the thread post a message into its NEW queue; nobody
    // drains that queue, so a second association must fail (§3.1: "If a
    // thread has its association change from one queue to another while
    // there are pending messages in the original queue, the association
    // operation will fail").
    s.kernel
        .state
        .arm_app_timer(6 * MILLIS, ghost_sim::app::AppId(0), t.0 as u64);
    s.kernel.run_until(8 * MILLIS);
    let fail = Arc::new(Mutex::new(None));
    {
        let fail = Arc::clone(&fail);
        s.script.lock().unwrap().push(Box::new(move |ctx| {
            *fail.lock().unwrap() = Some(ctx.try_associate_queue(t, QueueId(0)).is_ok());
        }));
    }
    // Trigger an activation via the OTHER thread (whose messages go to
    // the default queue); `t`'s pending WAKEUP stays in the new queue.
    s.kernel.assign_and_wake(other, 10 * MICROS);
    s.kernel.run_until(20 * MILLIS);
    assert_eq!(
        *fail.lock().unwrap(),
        Some(false),
        "association with pending messages must fail"
    );
}

#[test]
fn atomic_group_commit_is_all_or_nothing() {
    let mut s = setup(2, EnclaveConfig::centralized("atomic"));
    let (a, b) = (s.tids[0], s.tids[1]);
    // Wake only thread `a`; leave `b` blocked so its txn must fail.
    s.kernel.assign_and_wake(a, MILLIS);
    let statuses = Arc::new(Mutex::new(Vec::new()));
    {
        let statuses = Arc::clone(&statuses);
        s.script.lock().unwrap().push(Box::new(move |ctx| {
            let mut txns = vec![
                Transaction::new(a, CpuId(2)),
                Transaction::new(b, CpuId(3)), // b is blocked: TargetNotRunnable.
            ];
            ctx.commit_atomic(&mut txns);
            statuses
                .lock()
                .unwrap()
                .extend(txns.iter().map(|t| t.status));
        }));
    }
    s.kernel.run_until(10 * MILLIS);
    let st = statuses.lock().unwrap();
    assert_eq!(st.len(), 2);
    // The would-have-succeeded txn for `a` must be rolled back.
    assert_eq!(st[0], TxnStatus::Aborted);
    assert_eq!(st[1], TxnStatus::TargetNotRunnable);
    // And thread `a` must not be running (its commit was unwound).
    let stats = s.runtime.stats();
    assert_eq!(stats.txns_committed, 0);
    assert!(stats.txns_aborted >= 1);
}

#[test]
fn affinity_change_invalidates_pending_commit() {
    let mut s = setup(1, EnclaveConfig::centralized("affinity"));
    let t = s.tids[0];
    s.kernel.assign_and_wake(t, MILLIS);
    let status = Arc::new(Mutex::new(None));
    {
        let status = Arc::clone(&status);
        s.script.lock().unwrap().push(Box::new(move |ctx| {
            let mut txn = Transaction::new(t, CpuId(5));
            ctx.commit(std::slice::from_mut(&mut txn));
            *status.lock().unwrap() = Some(txn.status);
        }));
    }
    // Let the commit land and the thread run.
    s.kernel.run_until(500 * MICROS);
    assert_eq!(*status.lock().unwrap(), Some(TxnStatus::Committed));
    // While it runs on CPU 5, forbid CPU 5: the kernel reschedules it off.
    s.kernel
        .state
        .set_affinity(t, CpuSet::from_iter([CpuId(2), CpuId(3)]));
    s.kernel.run_until(5 * MILLIS);
    let th = s.kernel.state.thread(t);
    assert_ne!(th.cpu, Some(CpuId(5)), "thread must vacate forbidden CPU");
    // The policy got the THREAD_AFFINITY message.
    assert!(s
        .log
        .lock()
        .unwrap()
        .iter()
        .any(|m| m.ty == MsgType::ThreadAffinity && m.tid == t));
}

#[test]
fn queue_overflow_is_counted_not_fatal() {
    let mut config = EnclaveConfig::centralized("overflow");
    config.queue_capacity = 4; // Tiny ring.
    let mut s = setup(16, config);
    // 16 attach messages (THREAD_CREATED) overflow a 4-slot queue; the
    // kernel counts drops and keeps running.
    s.kernel.run_until(2 * MILLIS);
    let stats = s.runtime.stats();
    assert!(stats.msgs_dropped > 0, "expected drops on a 4-slot queue");
    assert!(s.enclave.alive());
}

#[test]
fn status_words_reflect_thread_lifecycle() {
    let mut s = setup(1, EnclaveConfig::centralized("sw"));
    let t = s.tids[0];
    // Blocked at attach: not runnable.
    s.kernel.run_until(MILLIS);
    // Wake: the WAKEUP message carries an increasing seq, and the policy
    // sees monotonically increasing seqs overall.
    s.kernel.assign_and_wake(t, 100 * MICROS);
    s.kernel.run_until(2 * MILLIS);
    let log = s.log.lock().unwrap();
    let seqs: Vec<u64> = log.iter().filter(|m| m.tid == t).map(|m| m.seq).collect();
    assert!(seqs.len() >= 2, "expected CREATED + WAKEUP at least");
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "Tseq must increase per message: {seqs:?}"
    );
}

#[test]
fn per_core_mode_schedules_same_cookie_siblings() {
    // 4 cores / 8 CPUs; enclave over all; two VMs with 2 threads each.
    let mut kernel = Kernel::new(Topology::test_small(4), KernelConfig::default());
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let cpus = kernel.state.topo.all_cpus_set();
    let enclave = runtime.launch_enclave(
        &mut kernel,
        cpus,
        EnclaveConfig::per_core("percore").with_ticks(true),
        Box::new(ghost_policies_stub::CoreStub::default()),
    );
    let app_id = kernel.state.next_app_id();
    let mut tids = Vec::new();
    for vm in 0..2u64 {
        for i in 0..2 {
            let tid = kernel.spawn(
                ThreadSpec::workload(&format!("vm{vm}-{i}"), &kernel.state.topo)
                    .app(app_id)
                    .cookie(vm + 1),
            );
            tids.push(tid);
        }
    }
    kernel.add_app(Box::new(Sleeper));
    for &tid in &tids {
        enclave.attach_thread(&mut kernel.state, tid);
        kernel.state.thread_mut(tid).remaining = 200 * MICROS;
    }
    for &tid in &tids {
        kernel.wake_now(tid);
    }
    kernel.run_until(20 * MILLIS);
    // The stub pairs same-cookie threads per core; all four must have run.
    for &tid in &tids {
        assert!(
            kernel.state.thread(tid).total_work > 0,
            "{tid} never ran under the per-core stub"
        );
    }
}

/// A minimal same-cookie per-core policy used by the per-core mode test
/// (kept local so the test exercises ghost-core without ghost-policies).
mod ghost_policies_stub {
    use super::*;
    use std::collections::VecDeque;

    #[derive(Default)]
    pub struct CoreStub {
        rq: VecDeque<(Tid, u64, u64)>, // (tid, cookie, seq)
    }

    impl GhostPolicy for CoreStub {
        fn name(&self) -> &str {
            "core-stub"
        }

        fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
            if msg.ty == MsgType::ThreadWakeup || msg.ty == MsgType::ThreadPreempted {
                let cookie = ctx.thread_view(msg.tid).map(|v| v.cookie).unwrap_or(0);
                if !self.rq.iter().any(|&(t, _, _)| t == msg.tid) {
                    self.rq.push_back((msg.tid, cookie, msg.seq));
                }
            }
        }

        fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
            let core = ctx.topo().core_cpus(ctx.local_cpu());
            let free: Vec<CpuId> = core
                .iter()
                .filter(|&c| {
                    ctx.cpu_view(c).is_some_and(|v| {
                        v.pending.is_none()
                            && v.running.is_none()
                            && (c == ctx.local_cpu()
                                || v.agent
                                || (v.idle && ctx.enclave_cpus().contains(c)))
                    })
                })
                .collect();
            if free.is_empty() {
                return;
            }
            // The core's claimed cookie, if any.
            let claimed = core.iter().find_map(|c| {
                let v = ctx.cpu_view(c)?;
                let t = v.running.or(v.pending)?;
                ctx.thread_view(t).map(|v| v.cookie)
            });
            let Some(pos) = self
                .rq
                .iter()
                .position(|&(_, ck, _)| claimed.is_none_or(|c| c == ck))
            else {
                return;
            };
            let (tid, _, seq) = self.rq.remove(pos).expect("position valid");
            let mut txn = Transaction::new(tid, free[0]).with_thread_seq(seq);
            ctx.commit(std::slice::from_mut(&mut txn));
            if !txn.status.committed() {
                self.rq.push_back((tid, claimed.unwrap_or(0), seq));
            }
        }
    }
}

/// `cpu_view`, one row per CPU state an agent can observe. The enclave
/// spans CPUs 1-7 with its global agent on CPU 1; `a` runs on CPU 2, `b`
/// is committed to CPU 4 but not yet picked, and a CFS hog holds CPU 0.
/// A forged id reads `None` and records no rejection.
#[test]
fn cpu_view_reports_each_cpu_state() {
    let mut s = setup(2, EnclaveConfig::centralized("cpu-view"));
    let (a, b) = (s.tids[0], s.tids[1]);
    let topo = &s.kernel.state.topo;
    let hog = s
        .kernel
        .spawn(ThreadSpec::workload("hog", topo).affinity(CpuSet::from_iter([CpuId(0)])));
    s.kernel.assign_and_wake(hog, 50 * MILLIS);
    s.kernel.assign_and_wake(a, 50 * MILLIS);
    s.script.lock().unwrap().push(Box::new(move |ctx| {
        ctx.commit(&mut [Transaction::new(a, CpuId(2))]);
    }));
    s.kernel.run_until(2 * MILLIS);
    assert_eq!(s.kernel.state.thread(a).cpu, Some(CpuId(2)));
    let rejects = s.runtime.stats().abi_rejects_total();

    let rows = Arc::new(Mutex::new(Vec::new()));
    {
        let rows = Arc::clone(&rows);
        s.script.lock().unwrap().push(Box::new(move |ctx| {
            ctx.commit(&mut [Transaction::new(b, CpuId(4))]);
            let cpus = [
                ctx.local_cpu(),
                CpuId(6),
                CpuId(4),
                CpuId(2),
                CpuId(0),
                CpuId(999),
            ];
            rows.lock()
                .unwrap()
                .extend(cpus.map(|c| (c, ctx.cpu_view(c))));
        }));
    }
    s.kernel.assign_and_wake(b, MILLIS);
    s.kernel.run_until(3 * MILLIS);

    let view = |running, pending, agent, idle| {
        Some(CpuView {
            running,
            pending,
            agent,
            idle,
        })
    };
    let expected = [
        (CpuId(1), view(None, None, true, false)), // the agent's own CPU
        (CpuId(6), view(None, None, false, true)), // idle enclave CPU
        (CpuId(4), view(None, Some(b), false, true)), // committed, unpicked
        (CpuId(2), view(Some(a), None, false, false)), // running a ghOSt thread
        (CpuId(0), view(None, None, false, false)), // outside the enclave, CFS
        (CpuId(999), None),                        // forged id
    ];
    assert_eq!(*rows.lock().unwrap(), expected);
    assert_eq!(s.runtime.stats().abi_rejects_total(), rejects);
}

#[test]
fn txns_recall_withdraws_pending_commit() {
    let mut s = setup(1, EnclaveConfig::centralized("recall"));
    let t = s.tids[0];
    s.kernel.assign_and_wake(t, 5 * MILLIS);
    let outcome = Arc::new(Mutex::new((None, None, None)));
    {
        let outcome = Arc::clone(&outcome);
        s.script.lock().unwrap().push(Box::new(move |ctx| {
            let mut txn = Transaction::new(t, CpuId(4));
            ctx.commit(std::slice::from_mut(&mut txn));
            // Recall it before the target CPU acts on it.
            let recalled = ctx.try_recall(CpuId(4)).ok();
            // The thread is schedulable again: a second commit succeeds.
            let mut txn2 = Transaction::new(t, CpuId(5));
            ctx.commit(std::slice::from_mut(&mut txn2));
            *outcome.lock().unwrap() = (Some(txn.status), recalled, Some(txn2.status));
        }));
    }
    s.kernel.run_until(10 * MILLIS);
    let (committed, recalled, second) = *outcome.lock().unwrap();
    assert_eq!(committed, Some(TxnStatus::Committed));
    assert_eq!(recalled, Some(t), "recall must return the withdrawn thread");
    assert_eq!(second, Some(TxnStatus::Committed));
    assert_eq!(s.runtime.stats().txns_recalled, 1);
    // The thread ultimately ran on CPU 5 (the second commit).
    s.kernel.run_until(20 * MILLIS);
    assert_eq!(s.kernel.state.thread(t).last_cpu, Some(CpuId(5)));
}

#[test]
fn destroy_queue_semantics() {
    let mut s = setup(1, EnclaveConfig::centralized("destroyq"));
    let t = s.tids[0];
    let results = Arc::new(Mutex::new(Vec::new()));
    {
        let results = Arc::clone(&results);
        s.script.lock().unwrap().push(Box::new(move |ctx| {
            let q = ctx.create_queue();
            // Destroying the default queue must fail.
            results
                .lock()
                .unwrap()
                .push(ctx.try_destroy_queue(QueueId(0)).is_ok());
            // Destroying an unused fresh queue succeeds.
            results
                .lock()
                .unwrap()
                .push(ctx.try_destroy_queue(q).is_ok());
            // Destroying it twice fails.
            results
                .lock()
                .unwrap()
                .push(ctx.try_destroy_queue(q).is_ok());
            // A queue with an associated thread cannot be destroyed.
            let q2 = ctx.create_queue();
            assert!(ctx.try_associate_queue(t, q2).is_ok());
            results
                .lock()
                .unwrap()
                .push(ctx.try_destroy_queue(q2).is_ok());
        }));
    }
    s.kernel.run_until(5 * MILLIS);
    assert_eq!(*results.lock().unwrap(), vec![false, true, false, false]);
}

/// A do-nothing policy for enclave-creation probes.
struct Null;

impl GhostPolicy for Null {
    fn name(&self) -> &str {
        "null"
    }
    fn on_msg(&mut self, _msg: &Message, _ctx: &mut PolicyCtx<'_>) {}
    fn schedule(&mut self, _ctx: &mut PolicyCtx<'_>) {}
}

/// Table-driven check of every commit-path rejection: each malformed
/// transaction must settle with the expected [`AbiError`], the status
/// that error maps to, and a bump of the per-error reject counter —
/// never a panic, never a silent drop.
#[test]
fn commit_rejections_are_typed_and_counted() {
    let mut s = setup(3, EnclaveConfig::centralized("reject-table"));
    let (a, b, c) = (s.tids[0], s.tids[1], s.tids[2]);
    // `a` and `b` wake and become committable; `c` stays blocked.
    s.kernel.assign_and_wake(a, MILLIS);
    s.kernel.assign_and_wake(b, MILLIS);
    let results = Arc::new(Mutex::new(Vec::new()));
    {
        let results = Arc::clone(&results);
        s.script.lock().unwrap().push(Box::new(move |ctx| {
            let agent = ctx.agent_tid();
            let mut txns = vec![
                Transaction::new(a, CpuId(999)),                  // forged CPU id
                Transaction::new(a, CpuId(0)),                    // valid CPU, outside enclave
                Transaction::new(Tid(99_999), CpuId(2)),          // forged tid
                Transaction::new(agent, CpuId(2)),                // agent pthread as target
                Transaction::new(c, CpuId(2)),                    // blocked target
                Transaction::new(a, CpuId(2)).with_thread_seq(0), // stale Tseq
                Transaction::new(a, CpuId(2)),                    // clean: commits
                Transaction::new(b, CpuId(2)),                    // slot now taken
            ];
            for t in &mut txns {
                ctx.commit(std::slice::from_mut(t));
            }
            results
                .lock()
                .unwrap()
                .extend(txns.iter().map(|t| (t.status, t.error)));
        }));
    }
    s.kernel.run_until(10 * MILLIS);
    let expected = [
        Some(AbiError::InvalidCpu),
        Some(AbiError::CpuOutsideEnclave),
        Some(AbiError::NoSuchThread),
        Some(AbiError::AgentThread),
        Some(AbiError::TargetNotRunnable),
        Some(AbiError::StaleSeq),
        None, // committed
        Some(AbiError::CpuBusy),
    ];
    let results = results.lock().unwrap();
    assert_eq!(results.len(), expected.len());
    for (i, (&(status, error), &want)) in results.iter().zip(expected.iter()).enumerate() {
        match want {
            None => assert_eq!(status, TxnStatus::Committed, "row {i}"),
            Some(err) => {
                assert_eq!(error, Some(err), "row {i}: wrong error");
                assert_eq!(
                    status,
                    err.txn_status(),
                    "row {i}: status must map to error"
                );
            }
        }
    }
    // Every rejection is attributed on the right per-error counter.
    let stats = s.runtime.stats();
    for err in expected.iter().flatten() {
        assert!(stats.rejects(*err) >= 1, "no counter bump for {err}");
    }
    assert!(stats.abi_rejects_total() >= 7);
    assert_eq!(stats.txns_committed, 1);
}

/// Table-driven check of the runtime-layer entry points (enclave
/// create, attach, hint, status words, upgrade): forged arguments get a
/// specific typed error and a counter bump.
#[test]
fn runtime_entry_points_reject_forged_arguments() {
    let mut s = setup(1, EnclaveConfig::centralized("forged"));
    s.kernel.run_until(MILLIS);
    let t = s.tids[0];
    let k = &mut s.kernel.state;

    // Enclave creation: empty mask, a mask naming an id beyond MAX_CPUS
    // (which the mask cannot even represent, so it arrives empty), a CPU
    // the machine does not have, and a CPU another enclave owns.
    let create = |cpus: CpuSet| {
        s.runtime
            .try_create_enclave(cpus, EnclaveConfig::centralized("probe"), Box::new(Null))
            .unwrap_err()
    };
    assert_eq!(create(CpuSet::empty()), AbiError::EmptyCpuSet);
    assert_eq!(
        create(CpuSet::from_iter([CpuId(1300)])),
        AbiError::EmptyCpuSet
    );
    assert_eq!(
        create(CpuSet::from_iter([CpuId(100)])),
        AbiError::InvalidCpu
    );
    assert_eq!(create(CpuSet::from_iter([CpuId(1)])), AbiError::CpuConflict);

    // Attach: forged tid, double attach, and an agent pthread.
    assert_eq!(
        s.enclave.try_attach_thread(k, Tid(55_555)),
        Err(AbiError::NoSuchThread)
    );
    assert_eq!(
        s.enclave.try_attach_thread(k, t),
        Err(AbiError::AlreadyAttached)
    );
    let agent = s.enclave.agent_tids()[0];
    assert_eq!(
        s.enclave.try_attach_thread(k, agent),
        Err(AbiError::AgentThread)
    );

    // Hints and status words for tids the runtime does not manage.
    assert_eq!(
        s.runtime.try_set_hint(Tid(55_555), 7),
        Err(AbiError::ForeignThread)
    );
    assert_eq!(
        s.enclave.try_thread_status(Tid(55_555)),
        Err(AbiError::ForeignThread)
    );
    // Status words are kernel-owned: writes always reject, even for a
    // perfectly valid managed tid.
    assert_eq!(
        s.enclave.try_write_status(k, t, u64::MAX),
        Err(AbiError::StatusReadOnly)
    );
    // Upgrading with nothing staged.
    assert_eq!(s.enclave.try_upgrade_now(k), Err(AbiError::NothingStaged));

    let stats = s.runtime.stats();
    for err in [
        AbiError::EmptyCpuSet,
        AbiError::InvalidCpu,
        AbiError::CpuConflict,
        AbiError::NoSuchThread,
        AbiError::AlreadyAttached,
        AbiError::AgentThread,
        AbiError::ForeignThread,
        AbiError::StatusReadOnly,
        AbiError::NothingStaged,
    ] {
        assert!(stats.rejects(err) >= 1, "no counter bump for {err}");
    }
    // A clean read still works and no strike-less misuse quarantined us.
    assert!(s.enclave.try_thread_status(t).is_ok());
    assert!(s.enclave.alive());
    assert_eq!(stats.quarantines, 0);
}

/// The destroy→reclaim boundary: after an enclave dies, every entry
/// point that names it must return `EnclaveDestroyed` (not panic, not
/// corrupt the registry), and its threads must keep running under CFS.
#[test]
fn destroyed_enclave_is_inert_and_threads_fall_back_to_cfs() {
    let mut s = setup(2, EnclaveConfig::centralized("reclaim"));
    s.kernel.run_until(2 * MILLIS);
    let t = s.tids[0];
    assert!(s.enclave.alive());
    s.enclave.try_destroy(&mut s.kernel.state).unwrap();
    assert!(!s.enclave.alive());

    let fresh = s
        .kernel
        .spawn(ThreadSpec::workload("late", &s.kernel.state.topo));
    let k = &mut s.kernel.state;
    assert_eq!(
        s.enclave.try_attach_thread(k, fresh),
        Err(AbiError::EnclaveDestroyed)
    );
    assert_eq!(
        s.enclave.try_stage_upgrade(Box::new(Null)),
        Err(AbiError::EnclaveDestroyed)
    );
    assert_eq!(
        s.enclave.try_upgrade_now(k),
        Err(AbiError::EnclaveDestroyed)
    );
    assert_eq!(s.enclave.try_destroy(k), Err(AbiError::EnclaveDestroyed));
    assert_eq!(
        s.enclave.try_thread_status(t),
        Err(AbiError::EnclaveDestroyed)
    );
    assert_eq!(
        s.enclave.try_write_status(k, t, 0),
        Err(AbiError::StatusReadOnly)
    );
    assert!(s.runtime.try_set_hint(t, 1).is_err());
    assert!(s.runtime.stats().rejects(AbiError::EnclaveDestroyed) >= 5);

    // The reclaimed threads still run — under CFS now.
    let before = s.kernel.state.thread(t).total_work;
    s.kernel.assign_and_wake(t, 3 * MILLIS);
    s.kernel.run_until(10 * MILLIS);
    assert!(
        s.kernel.state.thread(t).total_work > before,
        "reclaimed thread must make progress under CFS"
    );
}

/// An enclave configured with a strike budget is quarantined (destroyed,
/// threads to CFS) once its agent burns through the budget with forged
/// ABI calls — the paper's worst-case containment for a byzantine agent.
#[test]
fn strike_budget_quarantines_a_byzantine_enclave() {
    let mut s = setup(1, EnclaveConfig::centralized("strikes").with_abi_strikes(3));
    let t = s.tids[0];
    s.kernel.assign_and_wake(t, MILLIS);
    s.script.lock().unwrap().push(Box::new(move |ctx| {
        for _ in 0..4 {
            let mut txn = Transaction::new(t, CpuId(999));
            ctx.commit(std::slice::from_mut(&mut txn));
        }
    }));
    s.kernel.run_until(10 * MILLIS);
    let stats = s.runtime.stats();
    assert!(stats.rejects(AbiError::InvalidCpu) >= 4);
    assert!(stats.quarantines >= 1, "budget exhausted, no quarantine");
    assert!(!s.enclave.alive());
    // Containment, not collapse: the managed thread survives on CFS.
    let before = s.kernel.state.thread(t).total_work;
    s.kernel.assign_and_wake(t, 2 * MILLIS);
    s.kernel.run_until(20 * MILLIS);
    assert!(s.kernel.state.thread(t).total_work > before);
}

#[test]
fn scheduling_hints_reach_the_policy() {
    let mut s = setup(1, EnclaveConfig::centralized("hints"));
    let t = s.tids[0];
    s.kernel.run_until(MILLIS);
    // The workload publishes a hint (e.g. "my next request is 7 µs").
    s.runtime.try_set_hint(t, 7_000).unwrap();
    let seen = Arc::new(Mutex::new(None));
    {
        let seen = Arc::clone(&seen);
        s.script.lock().unwrap().push(Box::new(move |ctx| {
            *seen.lock().unwrap() = ctx.thread_view(t).and_then(|v| v.hint);
        }));
    }
    s.kernel.assign_and_wake(t, 100 * MICROS);
    s.kernel.run_until(5 * MILLIS);
    assert_eq!(*seen.lock().unwrap(), Some(7_000));
}
