//! Transaction race paths (§3.2's `ESTALE` contract): two agents racing
//! commits for the same thread, and a commit against a thread that
//! already blocked. Both must fail cleanly — rejected status, counted in
//! stats, traced — while the trace keeps its commit-pairing invariant
//! (every `TxnCommitOk` consumes a matching `TxnArmed`).

use ghost_core::enclave::EnclaveConfig;
use ghost_core::msg::{Message, MsgType};
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::runtime::GhostRuntime;
use ghost_core::txn::{Transaction, TxnStatus};
use ghost_sim::app::{App, Next};
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, ThreadSpec};
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::CpuSet;
use ghost_trace::{check, TraceEvent, TraceSink};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Workload app: each thread runs `seg` then blocks; timers re-arm work.
struct PulseApp {
    conf: HashMap<Tid, (Nanos, Nanos)>, // (segment, period)
    completions: Arc<Mutex<HashMap<Tid, u64>>>,
}

impl App for PulseApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "pulse"
    }

    fn on_timer(&mut self, key: u64, k: &mut KernelState) {
        let tid = Tid(key as u32);
        let (seg, period) = self.conf[&tid];
        if k.threads[tid.index()].state == ThreadState::Blocked {
            k.thread_mut(tid).remaining = seg;
            k.wake(tid);
        }
        let app = k.thread(tid).app.expect("pulse thread has app");
        k.arm_app_timer(k.now + period, app, key);
    }

    fn on_segment_end(&mut self, tid: Tid, _k: &mut KernelState) -> Next {
        *self.completions.lock().unwrap().entry(tid).or_insert(0) += 1;
        Next::Block
    }
}

struct Setup {
    kernel: Kernel,
    runtime: GhostRuntime,
    enclave: ghost_core::runtime::EnclaveHandle,
    threads: Vec<Tid>,
    completions: Arc<Mutex<HashMap<Tid, u64>>>,
    sink: TraceSink,
}

fn setup(config: EnclaveConfig, policy: Box<dyn GhostPolicy>, n: usize) -> Setup {
    let sink = TraceSink::recording(1, 1 << 17);
    let mut kernel = Kernel::new(
        Topology::test_small(2), // 4 CPUs.
        KernelConfig {
            trace: sink.clone(),
            ..KernelConfig::default()
        },
    );
    let ncpus = kernel.state.topo.num_cpus();
    let runtime = GhostRuntime::new(ncpus);
    let cpus: CpuSet = (1..ncpus as u16).map(CpuId).collect();
    let enclave = runtime.launch_enclave(&mut kernel, cpus, config, policy);

    let app = kernel.state.next_app_id();
    let completions = Arc::new(Mutex::new(HashMap::new()));
    let mut conf = HashMap::new();
    let mut threads = Vec::new();
    for i in 0..n {
        let tid = kernel.spawn(ThreadSpec::workload(&format!("w{i}"), &kernel.state.topo).app(app));
        conf.insert(tid, (100 * MICROS, MILLIS));
        threads.push(tid);
    }
    kernel.add_app(Box::new(PulseApp {
        conf,
        completions: Arc::clone(&completions),
    }));
    for &tid in &threads {
        enclave.attach_thread(&mut kernel.state, tid);
    }
    for (i, &tid) in threads.iter().enumerate() {
        kernel
            .state
            .arm_app_timer((i as u64 + 1) * 10_000, app, tid.0 as u64);
    }
    Setup {
        kernel,
        runtime,
        enclave,
        threads,
        completions,
        sink,
    }
}

fn count(records: &[ghost_trace::TraceRecord], f: impl Fn(&TraceEvent) -> bool) -> usize {
    records.iter().filter(|r| f(&r.event)).count()
}

/// Two per-CPU agents race commits for one thread. Agent A handles the
/// thread's first wakeup, captures its `Tseq`, then reroutes the
/// thread's queue to agent B (`ASSOCIATE_QUEUE`). B deliberately sits on
/// the subsequent block/wakeup messages, so the thread's seq advances
/// where A cannot see it. When A's next tick activation commits with the
/// captured (now stale) seq, the kernel must reject it with `ESTALE` —
/// the exact out-of-date-agent race of §3.2 — and scheduling must
/// recover once A refreshes its view.
#[test]
fn racing_agents_get_estale_on_stale_seq() {
    #[derive(Default)]
    struct RacerPolicy {
        /// Latest Tseq per thread, from messages.
        seqs: HashMap<Tid, u64>,
        /// The racing thread, captured at its first wakeup.
        target: Option<Tid>,
        /// CPU of agent A (saw the first wakeup, holds the stale view).
        a_cpu: Option<CpuId>,
        /// Tseq agent A captured before rerouting the queue.
        stale_seq: u64,
        /// Wakeup arrived in the current activation (phase 0 trigger).
        pending_first: bool,
        /// 0 = waiting for first wakeup, 1 = stale view planted,
        /// 2 = ESTALE observed, schedule normally.
        phase: u8,
        stale_seen: Arc<Mutex<bool>>,
    }

    impl GhostPolicy for RacerPolicy {
        fn name(&self) -> &str {
            "racer"
        }

        fn on_msg(&mut self, msg: &Message, _ctx: &mut PolicyCtx<'_>) {
            if msg.ty.is_thread_msg() {
                self.seqs.insert(msg.tid, msg.seq);
            }
            if msg.ty == MsgType::ThreadWakeup && self.phase == 0 {
                self.target = Some(msg.tid);
                self.pending_first = true;
            }
        }

        fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
            let Some(target) = self.target else { return };
            match self.phase {
                0 if self.pending_first => {
                    self.pending_first = false;
                    let local = ctx.local_cpu();
                    self.a_cpu = Some(local);
                    self.stale_seq = self.seqs[&target];
                    // Reroute the thread's messages to another agent.
                    let other = ctx
                        .enclave_cpus()
                        .iter()
                        .find(|&c| c != local)
                        .expect("enclave has a second CPU");
                    assert!(ctx
                        .try_associate_queue(target, ctx.queue_of_cpu(other))
                        .is_ok());
                    // Schedule it normally this once so it runs and its
                    // seq advances behind A's back.
                    let mut txn = Transaction::new(target, local).with_thread_seq(self.stale_seq);
                    ctx.commit(std::slice::from_mut(&mut txn));
                    assert_eq!(txn.status, TxnStatus::Committed);
                    self.phase = 1;
                }
                // Agent B stays silent in phase 1; agent A commits with
                // its stale seq as soon as its tick shows the thread
                // runnable again.
                1 if Some(ctx.local_cpu()) == self.a_cpu => {
                    if let Some(view) = ctx.thread_view(target) {
                        if view.runnable && view.tseq > self.stale_seq {
                            let mut txn = Transaction::new(target, ctx.local_cpu())
                                .with_thread_seq(self.stale_seq);
                            ctx.commit(std::slice::from_mut(&mut txn));
                            assert_eq!(txn.status, TxnStatus::Stale, "stale seq must ESTALE");
                            *self.stale_seen.lock().unwrap() = true;
                            self.phase = 2;
                        }
                    }
                }
                2 => {
                    // Recovered: schedule with a fresh view.
                    if let Some(view) = ctx.thread_view(target) {
                        if view.runnable {
                            let mut txn = Transaction::new(target, ctx.local_cpu())
                                .with_thread_seq(view.tseq);
                            ctx.commit(std::slice::from_mut(&mut txn));
                        }
                    }
                }
                _ => {}
            }
        }
    }

    let stale_seen = Arc::new(Mutex::new(false));
    let policy = RacerPolicy {
        stale_seen: Arc::clone(&stale_seen),
        ..Default::default()
    };
    let mut s = setup(EnclaveConfig::per_cpu("race"), Box::new(policy), 1);
    s.kernel.run_until(60 * MILLIS);

    assert!(
        *stale_seen.lock().unwrap(),
        "cross-agent ESTALE never exercised"
    );
    let stats = s.runtime.stats();
    assert!(stats.txns_stale >= 1, "stale commits: {}", stats.txns_stale);
    assert!(s.enclave.alive());
    // The thread kept making progress after the failed commit.
    let done = s
        .completions
        .lock()
        .unwrap()
        .get(&s.threads[0])
        .copied()
        .unwrap_or(0);
    assert!(done >= 5, "thread progressed only {done} pulses");

    // Trace: the ESTALE has its own tracepoint, and commit pairing holds
    // (every TxnCommitOk consumed a TxnArmed; the failed commit armed
    // nothing).
    assert_eq!(s.sink.dropped(), 0);
    let records = s.sink.snapshot();
    assert!(
        count(&records, |e| matches!(
            e,
            TraceEvent::TxnCommitEstale { .. }
        )) >= 1,
        "ESTALE tracepoint missing"
    );
    let armed = count(&records, |e| matches!(e, TraceEvent::TxnArmed { .. }));
    let ok = count(&records, |e| matches!(e, TraceEvent::TxnCommitOk { .. }));
    assert_eq!(armed, ok, "unpaired transaction arm/commit");
    check::assert_clean(&records);
}

/// A buggy centralized agent commits a thread that already blocked
/// (skipping the seq constraint entirely). The kernel must reject it
/// with `TargetNotRunnable`, count it, and trace it as a commit race —
/// and the blocked thread must never actually be switched in.
#[test]
fn commit_after_block_is_rejected_not_runnable() {
    #[derive(Default)]
    struct BlockedCommitter {
        rq: Vec<Tid>,
        seqs: HashMap<Tid, u64>,
        sabotaged: bool,
        race_seen: Arc<Mutex<bool>>,
    }

    impl GhostPolicy for BlockedCommitter {
        fn name(&self) -> &str {
            "blocked-committer"
        }

        fn on_msg(&mut self, msg: &Message, _ctx: &mut PolicyCtx<'_>) {
            if msg.ty.is_thread_msg() {
                self.seqs.insert(msg.tid, msg.seq);
            }
            match msg.ty {
                MsgType::ThreadWakeup | MsgType::ThreadPreempted | MsgType::ThreadYield
                    if !self.rq.contains(&msg.tid) =>
                {
                    self.rq.push(msg.tid);
                }
                MsgType::ThreadBlocked | MsgType::ThreadDead => self.rq.retain(|&t| t != msg.tid),
                _ => {}
            }
        }

        fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
            // Sabotage once things are warm: pick a thread the enclave
            // manages that is currently blocked and commit it anyway.
            if !self.sabotaged && self.seqs.values().any(|&s| s >= 4) {
                let mut known: Vec<Tid> = self.seqs.keys().copied().collect();
                known.sort();
                let blocked = known
                    .into_iter()
                    .find(|&t| ctx.thread_view(t).is_some_and(|v| !v.runnable));
                if let (Some(tid), Some(cpu)) = (blocked, ctx.idle_cpus().first()) {
                    self.sabotaged = true;
                    let mut txn = Transaction::new(tid, cpu); // SeqConstraint::None
                    ctx.commit(std::slice::from_mut(&mut txn));
                    assert_eq!(txn.status, TxnStatus::TargetNotRunnable);
                    *self.race_seen.lock().unwrap() = true;
                }
            }
            let idle = ctx.idle_cpus();
            let mut txns = Vec::new();
            for (i, &tid) in self.rq.iter().enumerate() {
                let Some(cpu) = idle.iter().nth(i) else { break };
                let seq = self.seqs.get(&tid).copied().unwrap_or(0);
                txns.push(Transaction::new(tid, cpu).with_thread_seq(seq));
            }
            ctx.commit(&mut txns);
            for txn in &txns {
                if txn.status.committed() {
                    self.rq.retain(|&t| t != txn.tid);
                }
            }
        }
    }

    let race_seen = Arc::new(Mutex::new(false));
    let policy = BlockedCommitter {
        race_seen: Arc::clone(&race_seen),
        ..Default::default()
    };
    let mut s = setup(EnclaveConfig::centralized("race"), Box::new(policy), 2);
    s.kernel.run_until(60 * MILLIS);

    assert!(
        *race_seen.lock().unwrap(),
        "blocked-commit path never exercised"
    );
    let stats = s.runtime.stats();
    assert!(stats.txns_not_runnable >= 1);
    // Scheduling survived the bad commit.
    for &t in &s.threads {
        let done = s.completions.lock().unwrap().get(&t).copied().unwrap_or(0);
        assert!(done >= 20, "thread {t} progressed only {done} pulses");
    }

    // Trace: the rejected commit shows up as a commit race, pairing and
    // the full invariant suite stay clean (in particular the blocked
    // thread was never switched in).
    assert_eq!(s.sink.dropped(), 0);
    let records = s.sink.snapshot();
    assert!(
        count(&records, |e| matches!(e, TraceEvent::TxnCommitRace { .. })) >= 1,
        "commit-race tracepoint missing"
    );
    let armed = count(&records, |e| matches!(e, TraceEvent::TxnArmed { .. }));
    let ok = count(&records, |e| matches!(e, TraceEvent::TxnCommitOk { .. }));
    assert_eq!(armed, ok, "unpaired transaction arm/commit");
    check::assert_clean(&records);
}
