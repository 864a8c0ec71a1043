//! Multi-enclave core lending: manual lend/reclaim, kernel-enforced
//! deadlines, death-path lease resolution (borrower crash, lender
//! destroy, quarantine), the resource-manager control plane, and its
//! fault injection (RM crash → leases honored; restart → failover).

use ghost_core::abi::AbiError;
use ghost_core::enclave::{EnclaveConfig, EnclaveId};
use ghost_core::msg::{Message, MsgType};
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::runtime::{EnclaveHandle, GhostRuntime};
use ghost_core::txn::Transaction;
use ghost_core::{LeaseStats, RevokeReason, RmConfig};
use ghost_sim::app::{App, AppId, Next};
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, ThreadSpec};
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::{CpuSet, CLASS_CFS};
use ghost_trace::{check, TraceEvent, TraceSink};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

/// Grant/revoke callbacks observed by a policy, shared with the test.
type LendNotes = Arc<Mutex<(Vec<CpuId>, Vec<CpuId>)>>;

/// Centralized FIFO that also records grant/revoke callbacks.
#[derive(Default)]
struct FifoPolicy {
    rq: VecDeque<Tid>,
    queued: HashSet<Tid>,
    seqs: HashMap<Tid, u64>,
    notes: LendNotes,
}

impl FifoPolicy {
    fn with_notes(notes: LendNotes) -> Self {
        FifoPolicy {
            notes,
            ..FifoPolicy::default()
        }
    }
}

impl FifoPolicy {
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

impl GhostPolicy for FifoPolicy {
    fn name(&self) -> &str {
        "lend-fifo"
    }

    fn on_msg(&mut self, msg: &Message, _ctx: &mut PolicyCtx<'_>) {
        if msg.ty.is_thread_msg() {
            self.seqs.insert(msg.tid, msg.seq);
        }
        match msg.ty {
            MsgType::ThreadWakeup | MsgType::ThreadPreempted | MsgType::ThreadYield => {
                self.enqueue(msg.tid)
            }
            MsgType::ThreadBlocked | MsgType::ThreadDead => self.remove(msg.tid),
            _ => {}
        }
    }

    fn on_reconstruct(
        &mut self,
        snapshot: &[ghost_core::ThreadSnapshot],
        _ctx: &mut PolicyCtx<'_>,
    ) {
        self.rq.clear();
        self.queued.clear();
        self.seqs.clear();
        for s in snapshot {
            self.seqs.insert(s.tid, s.seq);
            if s.runnable && !s.on_cpu {
                self.enqueue(s.tid);
            }
        }
    }

    fn on_cpu_grant(&mut self, cpu: CpuId, _ctx: &mut PolicyCtx<'_>) {
        self.notes.lock().unwrap().0.push(cpu);
    }

    fn on_cpu_revoke(&mut self, cpu: CpuId, _ctx: &mut PolicyCtx<'_>) {
        self.notes.lock().unwrap().1.push(cpu);
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        let idle = ctx.idle_cpus();
        let mut txns = Vec::new();
        for cpu in idle.iter() {
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
            if !txn.status.committed() {
                self.enqueue(txn.tid);
            }
        }
    }
}

struct PulseApp {
    conf: HashMap<Tid, (Nanos, Nanos)>,
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
        if period > 0 {
            let app = k.thread(tid).app.expect("pulse thread has app");
            k.arm_app_timer(k.now + period, app, key);
        }
    }
    fn on_segment_end(&mut self, tid: Tid, _k: &mut KernelState) -> Next {
        *self.completions.lock().unwrap().entry(tid).or_insert(0) += 1;
        Next::Block
    }
}

struct TwoEnclaves {
    kernel: Kernel,
    runtime: GhostRuntime,
    /// Latency enclave on CPUs 1–2.
    protected: EnclaveHandle,
    /// Batch enclave on CPUs 3–7 (the donor).
    donor: EnclaveHandle,
    app: AppId,
    p_threads: Vec<Tid>,
    d_threads: Vec<Tid>,
    completions: Arc<Mutex<HashMap<Tid, u64>>>,
    p_notes: LendNotes,
    d_notes: LendNotes,
}

/// Two centralized enclaves on an 8-CPU machine: protected = {1,2},
/// donor = {3..8}, with `np` protected and `nd` donor pulse threads.
fn two_enclaves(np: usize, nd: usize, seg: Nanos, period: Nanos, trace: TraceSink) -> TwoEnclaves {
    let mut kernel = Kernel::new(
        Topology::test_small(4),
        KernelConfig {
            trace,
            ..KernelConfig::default()
        },
    );
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let p_cpus: CpuSet = (1..3u16).map(CpuId).collect();
    let d_cpus: CpuSet = (3..8u16).map(CpuId).collect();
    let p_notes = LendNotes::default();
    let d_notes = LendNotes::default();
    let protected = runtime.launch_enclave(
        &mut kernel,
        p_cpus,
        EnclaveConfig::centralized("protected"),
        Box::new(FifoPolicy::with_notes(Arc::clone(&p_notes))),
    );
    let donor = runtime.launch_enclave(
        &mut kernel,
        d_cpus,
        EnclaveConfig::centralized("donor"),
        Box::new(FifoPolicy::with_notes(Arc::clone(&d_notes))),
    );
    let app = kernel.state.next_app_id();
    let completions = Arc::new(Mutex::new(HashMap::new()));
    let mut conf = HashMap::new();
    let mut p_threads = Vec::new();
    let mut d_threads = Vec::new();
    for i in 0..np {
        let t = kernel.spawn(ThreadSpec::workload(&format!("p{i}"), &kernel.state.topo).app(app));
        conf.insert(t, (seg, period));
        p_threads.push(t);
    }
    for i in 0..nd {
        let t = kernel.spawn(ThreadSpec::workload(&format!("d{i}"), &kernel.state.topo).app(app));
        conf.insert(t, (seg, period));
        d_threads.push(t);
    }
    kernel.add_app(Box::new(PulseApp {
        conf,
        completions: Arc::clone(&completions),
    }));
    for (i, &t) in p_threads.iter().enumerate() {
        protected.attach_thread(&mut kernel.state, t);
        kernel
            .state
            .arm_app_timer((i as u64 + 1) * 10_000, app, t.0 as u64);
    }
    for (i, &t) in d_threads.iter().enumerate() {
        donor.attach_thread(&mut kernel.state, t);
        kernel
            .state
            .arm_app_timer((i as u64 + 1) * 10_000, app, t.0 as u64);
    }
    TwoEnclaves {
        kernel,
        runtime,
        protected,
        donor,
        app,
        p_threads,
        d_threads,
        completions,
        p_notes,
        d_notes,
    }
}

fn no_stranded_leases(s: &TwoEnclaves) {
    // Every active lease's CPU must be owned by a live borrower; once
    // both enclaves are quiesced/dead the table must be empty.
    for l in s.runtime.leases() {
        let owner = s.runtime.cpu_owner(l.cpu);
        assert_eq!(
            owner,
            Some(l.borrower),
            "lease on {:?} points at {:?} but the CPU is owned by {owner:?}",
            l.cpu,
            l.borrower
        );
    }
    // And no CPU is claimed by an enclave that is gone.
    for c in 0..s.kernel.state.topo.num_cpus() as u16 {
        if let Some(eid) = s.runtime.cpu_owner(CpuId(c)) {
            let alive = (eid == s.protected.id() && s.protected.alive())
                || (eid == s.donor.id() && s.donor.alive());
            assert!(alive, "cpu {c} stranded on dead enclave {eid:?}");
        }
    }
}

#[test]
fn manual_lend_and_reclaim_moves_cpu_between_enclaves() {
    let mut s = two_enclaves(4, 2, 100 * MICROS, MILLIS, TraceSink::Null);
    s.kernel.run_until(10 * MILLIS);
    assert_eq!(s.protected.cpus(), (1..3u16).map(CpuId).collect::<Vec<_>>());

    // Donor lends CPU 7 to the protected enclave for 50 ms.
    s.donor
        .try_lend_cpu(&mut s.kernel.state, &s.protected, CpuId(7), 50 * MILLIS)
        .expect("lend succeeds");
    assert_eq!(s.runtime.cpu_owner(CpuId(7)), Some(s.protected.id()));
    assert_eq!(s.protected.borrowed_cpus(), vec![CpuId(7)]);
    assert!(s.protected.cpus().contains(&CpuId(7)));
    assert!(!s.donor.cpus().contains(&CpuId(7)));

    // The borrower actually schedules work on the borrowed CPU.
    s.kernel.run_until(30 * MILLIS);
    let ran_on_7 = s
        .p_threads
        .iter()
        .any(|&t| s.kernel.state.thread(t).last_cpu == Some(CpuId(7)));
    assert!(ran_on_7, "no protected thread ever ran on the borrowed CPU");

    // Early return: the CPU flips back to the donor before the deadline.
    s.runtime
        .try_reclaim_cpu(&mut s.kernel.state, CpuId(7))
        .expect("reclaim succeeds");
    assert_eq!(s.runtime.cpu_owner(CpuId(7)), Some(s.donor.id()));
    assert!(s.runtime.leases().is_empty());
    assert_eq!(
        s.runtime.lease_stats(),
        LeaseStats {
            granted: 1,
            returned: 1,
            ..LeaseStats::default()
        }
    );
    s.kernel.run_until(60 * MILLIS);
    no_stranded_leases(&s);

    // Both sides saw the matching policy callbacks: the borrower a
    // grant then a revoke, the lender a revoke then a grant.
    let (pg, pr) = s.p_notes.lock().unwrap().clone();
    assert_eq!(pg, vec![CpuId(7)]);
    assert_eq!(pr, vec![CpuId(7)]);
    let (dg, dr) = s.d_notes.lock().unwrap().clone();
    assert_eq!(dg, vec![CpuId(7)]);
    assert_eq!(dr, vec![CpuId(7)]);
}

#[test]
fn lease_deadline_forces_reclaim_within_a_millisecond() {
    let sink = TraceSink::recording(1, 1 << 19);
    let mut s = two_enclaves(4, 2, 100 * MICROS, MILLIS, sink.clone());
    s.kernel.run_until(10 * MILLIS);
    s.donor
        .try_lend_cpu(&mut s.kernel.state, &s.protected, CpuId(7), 20 * MILLIS)
        .expect("lend succeeds");
    // Nobody returns the CPU: the kernel-armed deadline must.
    s.kernel.run_until(60 * MILLIS);
    assert!(s.runtime.leases().is_empty(), "lease must expire");
    assert_eq!(s.runtime.cpu_owner(CpuId(7)), Some(s.donor.id()));
    let stats = s.runtime.lease_stats();
    assert_eq!(stats.expired, 1);
    no_stranded_leases(&s);

    // Trace: grant and forced revoke with reason=Expired, and the
    // revoke-to-reclaim latency (LeaseRevoked → first resched activity on
    // the CPU) is within the 1 ms bound.
    let records = sink.snapshot();
    let granted = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::LeaseGranted { .. }))
        .expect("grant traced");
    if let TraceEvent::LeaseGranted { deadline_ns, .. } = granted.event {
        assert_eq!(deadline_ns, granted.ts + 20 * MILLIS);
    }
    let revoked = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::LeaseRevoked { .. }))
        .expect("revoke traced");
    if let TraceEvent::LeaseRevoked { reason, .. } = revoked.event {
        assert_eq!(reason, RevokeReason::Expired as u8);
    }
    let metrics = ghost_trace::derive::TraceMetrics::from_records(&records);
    assert_eq!(metrics.lease_grants, 1);
    assert_eq!(metrics.lease_revokes(), 1);
    let p99 = metrics
        .lease_reclaim_p99_ns()
        .expect("reclaim span measured");
    assert!(p99 <= MILLIS, "revoke-to-reclaim p99 {p99} ns > 1 ms");
    check::assert_clean(&records);
}

#[test]
fn borrower_crash_mid_lease_returns_cpu_to_lender() {
    let mut s = two_enclaves(3, 2, 100 * MICROS, MILLIS, TraceSink::Null);
    s.kernel.run_until(10 * MILLIS);
    s.donor
        .try_lend_cpu(&mut s.kernel.state, &s.protected, CpuId(6), 500 * MILLIS)
        .expect("lend succeeds");
    s.kernel.run_until(20 * MILLIS);
    // Kill the borrower's global agent: no standby, so the enclave dies.
    let agent = s.protected.global_agent().expect("borrower agent");
    s.kernel.kill(agent);
    s.kernel.run_until(40 * MILLIS);
    assert!(!s.protected.alive());
    assert!(s.donor.alive(), "donor unaffected by borrower crash");
    // The lease resolved with the borrower's death; the CPU is back home.
    assert!(s.runtime.leases().is_empty(), "no stranded lease");
    assert_eq!(s.runtime.cpu_owner(CpuId(6)), Some(s.donor.id()));
    assert_eq!(s.runtime.lease_stats().borrower_deaths, 1);
    no_stranded_leases(&s);
    // The donor keeps scheduling, including on the reclaimed CPU.
    let before = s.completions.lock().unwrap()[&s.d_threads[0]];
    s.kernel.run_until(140 * MILLIS);
    assert!(s.completions.lock().unwrap()[&s.d_threads[0]] > before + 30);
}

#[test]
fn lender_destroy_mid_lease_transfers_cpu_to_borrower() {
    let mut s = two_enclaves(3, 2, 100 * MICROS, MILLIS, TraceSink::Null);
    s.kernel.run_until(10 * MILLIS);
    s.donor
        .try_lend_cpu(&mut s.kernel.state, &s.protected, CpuId(5), 500 * MILLIS)
        .expect("lend succeeds");
    s.kernel.run_until(20 * MILLIS);
    s.donor.destroy(&mut s.kernel.state);
    s.kernel.run_until(30 * MILLIS);
    assert!(!s.donor.alive());
    assert!(s.protected.alive());
    // Lender death cancels the lease; the borrower keeps the CPU for good
    // (there is no lender left to return it to).
    assert!(s.runtime.leases().is_empty());
    assert_eq!(s.runtime.lease_stats().lender_deaths, 1);
    assert_eq!(s.runtime.cpu_owner(CpuId(5)), Some(s.protected.id()));
    assert!(s.protected.cpus().contains(&CpuId(5)));
    // A later deadline firing for the cancelled lease must be a no-op.
    s.kernel.run_until(600 * MILLIS);
    assert_eq!(s.runtime.cpu_owner(CpuId(5)), Some(s.protected.id()));
    for &t in &s.p_threads {
        assert_ne!(s.kernel.state.thread(t).class, CLASS_CFS);
    }
}

#[test]
fn lend_validation_rejects_bad_requests() {
    let mut s = two_enclaves(2, 2, 100 * MICROS, MILLIS, TraceSink::Null);
    s.kernel.run_until(5 * MILLIS);
    let k = &mut s.kernel.state;
    let (d, p) = (&s.donor, &s.protected);
    // Self-lend.
    assert_eq!(
        d.try_lend_cpu(k, d, CpuId(7), MILLIS),
        Err(AbiError::CpuConflict)
    );
    // CPU outside the lender's partition (CPU 1 belongs to protected).
    assert_eq!(
        d.try_lend_cpu(k, p, CpuId(1), MILLIS),
        Err(AbiError::CpuOutsideEnclave)
    );
    // Invalid CPU id.
    assert_eq!(
        d.try_lend_cpu(k, p, CpuId(99), MILLIS),
        Err(AbiError::InvalidCpu)
    );
    // Unknown enclave.
    assert_eq!(
        s.runtime
            .handle(EnclaveId(9))
            .try_lend_cpu(k, p, CpuId(7), MILLIS),
        Err(AbiError::NoSuchEnclave)
    );
    // Double-lend of the same CPU.
    d.try_lend_cpu(k, p, CpuId(7), 50 * MILLIS).unwrap();
    assert_eq!(
        d.try_lend_cpu(k, p, CpuId(7), MILLIS),
        Err(AbiError::CpuOutsideEnclave),
        "a lent CPU has left the lender's partition"
    );
    // Reclaiming an unleased CPU.
    assert_eq!(
        s.runtime.try_reclaim_cpu(k, CpuId(3)),
        Err(AbiError::NotLeased)
    );
    // The lender may never give up its last CPU: drain the donor down.
    d.try_lend_cpu(k, p, CpuId(6), 50 * MILLIS).unwrap();
    d.try_lend_cpu(k, p, CpuId(5), 50 * MILLIS).unwrap();
    // Donor now holds {3,4}; CPU 3 hosts its global agent. CPU 4 is the
    // last lendable one — after it, both remaining lends must fail.
    let err4 = d.try_lend_cpu(k, p, CpuId(4), 50 * MILLIS);
    let err3 = d.try_lend_cpu(k, p, CpuId(3), 50 * MILLIS);
    assert!(
        err4.is_ok() || err4 == Err(AbiError::CpuBusy),
        "lend of cpu4: {err4:?}"
    );
    assert!(
        matches!(err3, Err(AbiError::EmptyCpuSet) | Err(AbiError::CpuBusy)),
        "donor's last CPU must be unlendable: {err3:?}"
    );
    // None of these rejections are byzantine: no quarantine strikes.
    assert!(s.donor.alive());
    assert!(s.protected.alive());
    s.kernel.run_until(200 * MILLIS);
    no_stranded_leases(&s);
}

#[test]
fn rm_lends_under_backlog_and_returns_when_idle() {
    // Protected enclave has 1 schedulable CPU (agent holds the other)
    // and 6 threads with near-saturating pulses: real backlog.
    let mut s = two_enclaves(6, 1, 800 * MICROS, MILLIS, TraceSink::Null);
    s.runtime.rm_start(
        &mut s.kernel.state,
        RmConfig {
            epoch: 500 * MICROS,
            lease_duration: 10 * MILLIS,
            borrow_threshold: 3,
            return_threshold: 0,
            max_borrow: 2,
            reject_budget: 0,
        },
        s.protected.id(),
        s.donor.id(),
    );
    assert!(s.runtime.rm_alive());
    s.kernel.run_until(100 * MILLIS);
    let rm = s.runtime.rm_stats().expect("rm alive");
    assert!(rm.epochs >= 100, "epoch timer ticking: {}", rm.epochs);
    assert!(rm.borrows >= 1, "backlog must trigger a borrow");
    let granted = s.runtime.lease_stats().granted;
    assert!(granted >= 1);
    // Borrowed CPUs actually served protected threads.
    let served = s
        .p_threads
        .iter()
        .any(|&t| matches!(s.kernel.state.thread(t).last_cpu, Some(c) if c.0 >= 3));
    assert!(served, "no protected thread ran on a donor CPU");
    no_stranded_leases(&s);

    // Stop the pulse load: backlog drains, the RM returns every loan
    // (or the deadlines expire); either way nothing stays borrowed.
    let drain_from = s.kernel.state.now;
    let _ = s.app;
    s.kernel.run_until(drain_from + 300 * MILLIS);
    assert!(s.protected.borrowed_cpus().len() <= 2, "bounded borrowing");
    let stats = s.runtime.lease_stats();
    assert_eq!(
        stats.granted,
        stats.returned + stats.expired + s.runtime.leases().len() as u64,
        "every grant is accounted for"
    );
    no_stranded_leases(&s);
}

#[test]
fn rm_crash_keeps_leases_enforced_and_restart_reconstructs() {
    let sink = TraceSink::recording(1, 1 << 19);
    let mut s = two_enclaves(6, 1, 800 * MICROS, MILLIS, sink.clone());
    s.runtime.rm_start(
        &mut s.kernel.state,
        RmConfig {
            epoch: 500 * MICROS,
            lease_duration: 15 * MILLIS,
            borrow_threshold: 3,
            return_threshold: 0,
            max_borrow: 2,
            reject_budget: 0,
        },
        s.protected.id(),
        s.donor.id(),
    );
    // Let the RM build up at least one lease, then crash it.
    s.kernel.run_until(50 * MILLIS);
    assert!(s.runtime.lease_stats().granted >= 1);
    assert!(s.runtime.rm_crash(), "rm was alive");
    assert!(!s.runtime.rm_alive());
    assert!(!s.runtime.rm_crash(), "double-crash is a no-op");
    let outstanding = s.runtime.leases().len();
    let expired_before = s.runtime.lease_stats().expired;

    // With the RM dead: no new grants, but outstanding deadlines still
    // fire — the lease table is kernel state.
    let granted_at_crash = s.runtime.lease_stats().granted;
    s.kernel.run_until(120 * MILLIS);
    assert_eq!(s.runtime.lease_stats().granted, granted_at_crash);
    assert!(s.runtime.leases().is_empty(), "deadlines enforced sans RM");
    if outstanding > 0 {
        assert!(s.runtime.lease_stats().expired > expired_before);
    }
    // Both enclaves continue standalone.
    assert!(s.protected.alive() && s.donor.alive());
    no_stranded_leases(&s);

    // Restart: state reconstructed from enclave snapshots, lending
    // resumes under the new incarnation (stale pre-crash epoch timers
    // are ignored by token).
    assert!(s.runtime.rm_restart(&mut s.kernel.state));
    assert!(
        !s.runtime.rm_restart(&mut s.kernel.state),
        "already running"
    );
    assert!(s.runtime.rm_alive());
    let granted_before = s.runtime.lease_stats().granted;
    s.kernel.run_until(220 * MILLIS);
    let rm = s.runtime.rm_stats().expect("rm alive");
    assert_eq!(rm.restarts, 1);
    assert!(
        s.runtime.lease_stats().granted > granted_before,
        "restarted RM lends again"
    );
    no_stranded_leases(&s);

    let records = sink.snapshot();
    let failovers = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::RmFailover { .. }))
        .count();
    assert_eq!(failovers, 1);
    let metrics = ghost_trace::derive::TraceMetrics::from_records(&records);
    assert_eq!(metrics.rm_failovers, 1);
    check::assert_clean(&records);
}

#[test]
fn revoke_during_reconstruction_never_wedges_recovery() {
    // Donor runs with a standby budget; the protected enclave borrows a
    // CPU, then the donor's agent is killed while the lease is out —
    // recovery must not respawn onto (or wait for) the lent CPU, and the
    // reclaim at deadline re-integrates it cleanly.
    let mut s = two_enclaves(3, 3, 100 * MICROS, MILLIS, TraceSink::Null);
    // Relaunch donor with standby: simplest is a third enclave; instead
    // reuse the existing one and inject the lease + crash interleaving
    // on the protected side, which *does* have its threads.
    s.kernel.run_until(10 * MILLIS);
    s.donor
        .try_lend_cpu(&mut s.kernel.state, &s.protected, CpuId(7), 30 * MILLIS)
        .expect("lend succeeds");
    s.kernel.run_until(15 * MILLIS);
    // Deadline fires at 40 ms while the donor is mid-recovery below.
    let agent = s.donor.global_agent().expect("donor agent");
    s.kernel.kill(agent);
    s.kernel.run_until(200 * MILLIS);
    // Donor had no standby configured → it fell back and died; the lease
    // (donor was the *lender*) outlived it and, at its deadline, had no
    // lender to return to — the borrower keeps the CPU.
    assert!(!s.donor.alive());
    assert!(s.protected.alive());
    assert!(s.runtime.leases().is_empty());
    assert_eq!(s.runtime.cpu_owner(CpuId(7)), Some(s.protected.id()));
    no_stranded_leases(&s);
    for &t in &s.p_threads {
        assert_ne!(s.kernel.state.thread(t).class, CLASS_CFS);
    }
}

#[test]
fn standby_recovery_with_lease_respawns_only_owned_cpus() {
    // The *protected* enclave (borrower) has a standby budget and is
    // holding a borrowed CPU when its agent dies. partial_fallback on the
    // borrowed CPU resolves the lease back to the donor; the respawn path
    // must skip the departed CPU and still finish recovery.
    let mut kernel = Kernel::new(Topology::test_small(4), KernelConfig::default());
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let p_cpus: CpuSet = (1..3u16).map(CpuId).collect();
    let d_cpus: CpuSet = (3..8u16).map(CpuId).collect();
    let standby = ghost_core::StandbyConfig::default();
    let protected = runtime.launch_enclave(
        &mut kernel,
        p_cpus,
        EnclaveConfig::centralized("protected").with_standby(standby),
        Box::new(FifoPolicy::default()),
    );
    protected.set_standby_policy(|| Box::new(FifoPolicy::default()));
    let donor = runtime.launch_enclave(
        &mut kernel,
        d_cpus,
        EnclaveConfig::centralized("donor"),
        Box::new(FifoPolicy::default()),
    );
    let app = kernel.state.next_app_id();
    let completions = Arc::new(Mutex::new(HashMap::new()));
    let mut conf = HashMap::new();
    let mut threads = Vec::new();
    for i in 0..3 {
        let t = kernel.spawn(ThreadSpec::workload(&format!("p{i}"), &kernel.state.topo).app(app));
        conf.insert(t, (100 * MICROS, MILLIS));
        threads.push(t);
    }
    kernel.add_app(Box::new(PulseApp {
        conf,
        completions: Arc::clone(&completions),
    }));
    for (i, &t) in threads.iter().enumerate() {
        protected.attach_thread(&mut kernel.state, t);
        kernel
            .state
            .arm_app_timer((i as u64 + 1) * 10_000, app, t.0 as u64);
    }
    kernel.run_until(10 * MILLIS);
    donor
        .try_lend_cpu(&mut kernel.state, &protected, CpuId(6), 25 * MILLIS)
        .expect("lend succeeds");
    kernel.run_until(15 * MILLIS);
    let agent = protected.global_agent().expect("protected agent");
    kernel.kill(agent);
    // Crash at 15 ms; deadline at 35 ms lands mid/post recovery.
    kernel.run_until(150 * MILLIS);
    assert!(protected.alive(), "standby keeps the borrower alive");
    assert!(runtime.leases().is_empty(), "lease resolved, not stranded");
    assert_eq!(runtime.cpu_owner(CpuId(6)), Some(donor.id()));
    assert!(
        !protected.cpus().contains(&CpuId(6)),
        "borrowed CPU must not linger in the borrower's partition"
    );
    let stats = runtime.stats();
    assert!(stats.respawns >= 1);
    for &t in &threads {
        assert_ne!(kernel.state.thread(t).class, CLASS_CFS);
    }
    let before = completions.lock().unwrap()[&threads[0]];
    kernel.run_until(250 * MILLIS);
    assert!(completions.lock().unwrap()[&threads[0]] > before + 30);
}

#[test]
fn quarantined_enclave_destroy_reclaims_threads_and_frees_cpus() {
    // Satellite regression: quarantine (byzantine strike budget) while
    // the enclave holds a borrowed CPU. The destroy must move every
    // thread to CFS, free the enclave's own CPUs, and resolve the lease
    // back to the lender — and a second destroy must reject cleanly.
    let mut kernel = Kernel::new(Topology::test_small(4), KernelConfig::default());
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let p_cpus: CpuSet = (1..3u16).map(CpuId).collect();
    let d_cpus: CpuSet = (3..8u16).map(CpuId).collect();
    let protected = runtime.launch_enclave(
        &mut kernel,
        p_cpus,
        EnclaveConfig::centralized("sick").with_abi_strikes(1),
        Box::new(FifoPolicy::default()),
    );
    let donor = runtime.launch_enclave(
        &mut kernel,
        d_cpus,
        EnclaveConfig::centralized("donor"),
        Box::new(FifoPolicy::default()),
    );
    let app = kernel.state.next_app_id();
    let completions = Arc::new(Mutex::new(HashMap::new()));
    let mut conf = HashMap::new();
    let mut threads = Vec::new();
    for i in 0..3 {
        let t = kernel.spawn(ThreadSpec::workload(&format!("s{i}"), &kernel.state.topo).app(app));
        conf.insert(t, (100 * MICROS, MILLIS));
        threads.push(t);
    }
    kernel.add_app(Box::new(PulseApp {
        conf,
        completions: Arc::clone(&completions),
    }));
    for (i, &t) in threads.iter().enumerate() {
        protected.attach_thread(&mut kernel.state, t);
        kernel
            .state
            .arm_app_timer((i as u64 + 1) * 10_000, app, t.0 as u64);
    }
    kernel.run_until(10 * MILLIS);
    donor
        .try_lend_cpu(&mut kernel.state, &protected, CpuId(5), 500 * MILLIS)
        .expect("lend succeeds");
    assert_eq!(runtime.cpu_owner(CpuId(5)), Some(protected.id()));

    // One byzantine ABI violation exhausts the strike budget.
    let garbage_tid = threads[0];
    let err = protected.try_write_status(&mut kernel.state, garbage_tid, 0xdead_beef);
    assert_eq!(err, Err(AbiError::StatusReadOnly));
    assert!(!protected.alive(), "strike budget of 1 quarantines");
    assert_eq!(runtime.stats().quarantines, 1);

    kernel.run_until(30 * MILLIS);
    // All threads reclaimed to CFS and still alive.
    for &t in &threads {
        assert_eq!(kernel.state.thread(t).class, CLASS_CFS);
        assert_ne!(kernel.state.thread(t).state, ThreadState::Dead);
    }
    // Its own CPUs are free; the borrowed CPU went home.
    assert_eq!(runtime.cpu_owner(CpuId(1)), None);
    assert_eq!(runtime.cpu_owner(CpuId(2)), None);
    assert_eq!(runtime.cpu_owner(CpuId(5)), Some(donor.id()));
    assert!(runtime.leases().is_empty());
    assert_eq!(runtime.lease_stats().borrower_deaths, 1);
    // Agents are dead; destroying again is a typed rejection, not a hang.
    for a in protected.agent_tids() {
        assert_eq!(kernel.state.thread(a).state, ThreadState::Dead);
    }
    assert_eq!(
        protected.try_destroy(&mut kernel.state),
        Err(AbiError::EnclaveDestroyed)
    );
    // CFS keeps the quarantined workload running.
    let before = completions
        .lock()
        .unwrap()
        .get(&threads[0])
        .copied()
        .unwrap_or(0);
    kernel.run_until(150 * MILLIS);
    assert!(completions.lock().unwrap()[&threads[0]] > before);
    // And the donor still schedules on the reclaimed CPU's partition.
    assert!(donor.alive());
}

#[test]
fn per_cpu_borrower_gets_agent_on_granted_cpu() {
    // A per-CPU borrower must get a fresh pinned agent (with queue
    // wiring) on the granted CPU, and lose it again at reclaim.
    let mut kernel = Kernel::new(Topology::test_small(4), KernelConfig::default());
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let p_cpus: CpuSet = (1..3u16).map(CpuId).collect();
    let d_cpus: CpuSet = (3..8u16).map(CpuId).collect();
    let protected = runtime.launch_enclave(
        &mut kernel,
        p_cpus,
        EnclaveConfig::per_cpu("percpu"),
        Box::new(FifoPolicy::default()),
    );
    let donor = runtime.launch_enclave(
        &mut kernel,
        d_cpus,
        EnclaveConfig::centralized("donor"),
        Box::new(FifoPolicy::default()),
    );
    let app = kernel.state.next_app_id();
    let completions = Arc::new(Mutex::new(HashMap::new()));
    let mut conf = HashMap::new();
    let mut threads = Vec::new();
    for i in 0..4 {
        let t = kernel.spawn(ThreadSpec::workload(&format!("w{i}"), &kernel.state.topo).app(app));
        conf.insert(t, (100 * MICROS, MILLIS));
        threads.push(t);
    }
    kernel.add_app(Box::new(PulseApp {
        conf,
        completions: Arc::clone(&completions),
    }));
    for (i, &t) in threads.iter().enumerate() {
        protected.attach_thread(&mut kernel.state, t);
        kernel
            .state
            .arm_app_timer((i as u64 + 1) * 10_000, app, t.0 as u64);
    }
    kernel.run_until(10 * MILLIS);
    assert!(protected.agent_on(CpuId(7)).is_none());
    donor
        .try_lend_cpu(&mut kernel.state, &protected, CpuId(7), 40 * MILLIS)
        .expect("lend succeeds");
    let leased_agent = protected.agent_on(CpuId(7)).expect("agent on granted cpu");
    kernel.run_until(30 * MILLIS);
    assert_ne!(
        kernel.state.thread(leased_agent).state,
        ThreadState::Dead,
        "leased-CPU agent is alive while the lease is out"
    );
    // Deadline reclaim: the agent dies with the lease.
    kernel.run_until(80 * MILLIS);
    assert!(runtime.leases().is_empty());
    assert!(protected.agent_on(CpuId(7)).is_none());
    assert_eq!(
        kernel.state.thread(leased_agent).state,
        ThreadState::Dead,
        "borrower's leased-CPU agent is reaped at reclaim"
    );
    assert_eq!(runtime.cpu_owner(CpuId(7)), Some(donor.id()));
    assert!(protected.alive(), "reclaim is not a crash");
    for &t in &threads {
        assert_ne!(kernel.state.thread(t).class, CLASS_CFS);
    }
    let before = completions.lock().unwrap()[&threads[0]];
    kernel.run_until(160 * MILLIS);
    assert!(completions.lock().unwrap()[&threads[0]] > before + 30);
}

/// Everything a runtime handle can read between runs, in comparable form.
fn handle_view(s: &TwoEnclaves) -> String {
    let enclave = |e: &EnclaveHandle| {
        let agents: Vec<_> = (0..8u16).map(|c| e.agent_on(CpuId(c))).collect();
        format!(
            "{:?} {:?} {agents:?} {:?} {} {} {:?} {:?} {:?}",
            e.id(),
            e.agent_tids(),
            e.global_agent(),
            e.alive(),
            e.degraded(),
            e.cpus(),
            e.borrowed_cpus(),
            s.p_threads
                .iter()
                .chain(&s.d_threads)
                .map(|&t| e.thread_handle(t))
                .collect::<Vec<_>>(),
        )
    };
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{}\n{}",
        s.runtime.stats(),
        s.runtime.leases(),
        s.runtime.lease_stats(),
        s.runtime.rm_stats(),
        enclave(&s.protected),
        enclave(&s.donor),
    )
}

/// `Kernel::run_until` checks the runtime's state out for the length of
/// the run and puts it back at the end: handle reads between two runs see
/// the state, and taking them changes nothing about what happens next.
#[test]
fn handle_reads_between_runs_match_a_run_read_only_at_the_end() {
    let rm = RmConfig {
        epoch: 500 * MICROS,
        lease_duration: 10 * MILLIS,
        borrow_threshold: 3,
        return_threshold: 0,
        max_borrow: 2,
        reject_budget: 0,
    };
    let start = |s: &mut TwoEnclaves| {
        let (p, d) = (s.protected.id(), s.donor.id());
        s.runtime.rm_start(&mut s.kernel.state, rm, p, d);
    };
    let mut a = two_enclaves(6, 2, 800 * MICROS, MILLIS, TraceSink::Null);
    let mut b = two_enclaves(6, 2, 800 * MICROS, MILLIS, TraceSink::Null);
    start(&mut a);
    start(&mut b);
    a.kernel.run_until(30 * MILLIS);
    let mid = handle_view(&a);
    assert!(!a.runtime.leases().is_empty(), "the RM has lent by now");
    a.kernel.run_until(60 * MILLIS);
    b.kernel.run_until(60 * MILLIS);
    assert_ne!(mid, handle_view(&a), "the second run moved the state");
    assert_eq!(handle_view(&a), handle_view(&b));
    assert_eq!(a.kernel.state.stats.events, b.kernel.state.stats.events);
}
