//! Transaction commit (`TXNS_COMMIT()`): kernel-side validation and
//! effects of the transactions an activation hands back.

use crate::abi::AbiError;
use crate::enclave::{CommittedSlot, QueueId};
use crate::policy::PolicyCtx;
use crate::txn::{SeqConstraint, Transaction, TxnStatus};
use ghost_sim::class::CLASS_GHOST;
use ghost_sim::thread::{ThreadKind, ThreadState, Tid};
use ghost_sim::time::Nanos;
use ghost_sim::topology::CpuId;
use ghost_trace::TraceEvent;

/// Scratch buffers for `TXNS_COMMIT()`'s two passes (validation order,
/// remote IPI targets). Owned by the runtime state, cleared at every use.
#[derive(Default)]
pub(crate) struct CommitScratch {
    pub(crate) provisional: Vec<usize>,
    pub(crate) remote: Vec<(usize, bool)>,
}

impl<'a> PolicyCtx<'a> {
    /// `TXNS_COMMIT()`: commits a group of transactions, writing each
    /// transaction's `status` in place (the paper's Figs. 3–4 check
    /// `txn->status` right after the call).
    ///
    /// Costs charged to the activation: one syscall, per-transaction
    /// validation, and — for remote targets — a single batched IPI
    /// (first target full price, extra targets amortized), with
    /// cross-socket and SMT multipliers applied.
    pub fn commit(&mut self, txns: &mut [Transaction]) {
        self.do_commit(txns, false);
    }

    /// Commits a group atomically: if any transaction fails validation,
    /// none take effect (failed ones carry their real failure status,
    /// would-have-succeeded ones are `Aborted`). Used by per-core secure
    /// VM scheduling, §4.5: "issuing commits for both CPUs of a core
    /// which must either all succeed or all fail".
    pub fn commit_atomic(&mut self, txns: &mut [Transaction]) {
        self.do_commit(txns, true);
    }

    /// Commits a single transaction and returns its status.
    pub fn commit_one(&mut self, txn: &mut Transaction) -> TxnStatus {
        let mut arr = [*txn];
        self.commit(&mut arr);
        *txn = arr[0];
        txn.status
    }

    /// The queue CPU-scoped events for `cpu` are routed to.
    pub fn queue_of_cpu(&self, cpu: CpuId) -> QueueId {
        self.enclave.queue_for_cpu(cpu)
    }

    /// Tids of all threads managed by this enclave, in Tid order (the
    /// slab's handle order must not steer a policy's decisions).
    pub fn managed_threads(&self) -> Vec<Tid> {
        self.enclave.threads.sorted_tids()
    }

    fn scaled(&self, cost: Nanos) -> Nanos {
        if self.smt_scale {
            self.k.costs().smt_scaled(cost)
        } else {
            cost
        }
    }

    /// Kernel-side validation of one transaction (§2.2: agents "are not
    /// trusted for system integrity", so the kernel checks every field an
    /// agent hands it). Returns the precise typed rejection cause; the
    /// wire status the agent observes is [`AbiError::txn_status`]. Every
    /// check is total — a fully forged transaction (out-of-range CPU,
    /// nonexistent tid) rejects, it never indexes out of bounds.
    fn validate(&self, txn: &Transaction) -> Result<(), AbiError> {
        let enclave = &*self.enclave;
        if enclave.destroyed {
            return Err(AbiError::EnclaveDestroyed);
        }
        // Bounds before membership: a CPU id the machine does not even
        // have is a forged argument, not an unlucky placement choice —
        // and everything downstream (topology, cpu state) may index by it.
        let Some(cs) = self.k.cpu_checked(txn.cpu) else {
            return Err(AbiError::InvalidCpu);
        };
        if !enclave.cpus.contains(txn.cpu) {
            return Err(AbiError::CpuOutsideEnclave);
        }
        // Not a thread of this enclave: discriminate the cause precisely —
        // a tid the kernel never issued, a thread that already died, a
        // thread belonging to someone else, or an agent pthread.
        let Some(info) = enclave.threads.get(txn.tid) else {
            return Err(self.classify_unknown_tid(txn.tid));
        };
        if info.picked {
            return Err(AbiError::TargetNotRunnable);
        }
        let t = &self.k.thread(txn.tid);
        if t.state != ThreadState::Runnable {
            return Err(AbiError::TargetNotRunnable);
        }
        if !t.affinity.contains(txn.cpu) {
            return Err(AbiError::CpuOutsideAffinity);
        }
        match txn.seq {
            SeqConstraint::None => {}
            SeqConstraint::Agent(aseq) => {
                let cur = enclave
                    .agents
                    .get(self.agent_cpu)
                    .map_or(0, |a| a.status.seq());
                if aseq < cur {
                    return Err(AbiError::StaleSeq);
                }
            }
            SeqConstraint::Thread(tseq) => {
                if tseq < info.tseq {
                    return Err(AbiError::StaleSeq);
                }
            }
        }
        if enclave.committed.contains(txn.cpu) {
            return Err(AbiError::CpuBusy);
        }
        // Occupancy: ghOSt may preempt its own threads but nothing of a
        // higher class — except the agent's own CPU, which the agent is
        // about to give up (local commit), and CPUs occupied by *agent*
        // threads, which vacate as soon as their activation ends (the
        // committed slot is consumed when the CPU next picks).
        if cs.is_occupied() && txn.cpu != self.agent_cpu {
            if let Some(cur) = cs.current {
                let cur = &self.k.thread(cur);
                if cur.class < CLASS_GHOST && cur.kind != ThreadKind::Agent {
                    return Err(AbiError::CpuBusy);
                }
            }
        }
        Ok(())
    }

    fn do_commit(&mut self, txns: &mut [Transaction], atomic: bool) {
        let costs_syscall = self.k.costs().syscall;
        let costs_validate = self.k.costs().txn_validate;
        let costs_local = self
            .k
            .costs()
            .txn_local_commit
            .saturating_sub(costs_syscall);
        self.busy += self.scaled(costs_syscall);
        // Validation pass. Duplicate targets within the group are caught
        // by inserting provisional slots as we go.
        self.scratch.provisional.clear();
        for i in 0..txns.len() {
            let verdict = self.validate(&txns[i]);
            let (t_cpu, t_tid) = (txns[i].cpu.0, txns[i].tid.0);
            // A per-txn validation charge, dearer across sockets. Local
            // transactions are charged via `txn_local_commit` in the
            // effect pass instead (Table 3 line 3 subsumes validation).
            // A forged CPU id rejects before any topology lookup, so it
            // is charged the base price only.
            if txns[i].cpu != self.agent_cpu {
                let mut vcost = costs_validate;
                if verdict != Err(AbiError::InvalidCpu)
                    && !self.k.topo().same_socket(self.agent_cpu, txns[i].cpu)
                {
                    vcost = self.k.costs().cross_socket_scaled(vcost);
                }
                self.busy += self.scaled(vcost);
            }
            match verdict {
                Ok(()) => {
                    self.k
                        .trace()
                        .emit(self.k.now(), t_cpu, || TraceEvent::TxnArmed {
                            cpu: t_cpu,
                            tid: t_tid,
                        });
                    // Reserve target CPU and thread against duplicates.
                    self.enclave.committed.insert(
                        txns[i].cpu,
                        CommittedSlot {
                            tid: txns[i].tid,
                            arm_at: Nanos::MAX, // Patched below.
                        },
                    );
                    if let Some(info) = self.enclave.threads.get_mut(txns[i].tid) {
                        info.picked = true;
                    }
                    self.scratch.provisional.push(i);
                    txns[i].status = TxnStatus::Committed;
                    txns[i].error = None;
                }
                Err(err) if atomic => {
                    // Unwind everything and mark the rest aborted; every
                    // casualty carries the group-failing cause.
                    for j in 0..self.scratch.provisional.len() {
                        let j = self.scratch.provisional[j];
                        self.enclave.committed.remove(txns[j].cpu);
                        if let Some(info) = self.enclave.threads.get_mut(txns[j].tid) {
                            info.picked = false;
                        }
                        let (j_cpu, j_tid) = (txns[j].cpu.0, txns[j].tid.0);
                        self.k
                            .trace()
                            .emit(self.k.now(), j_cpu, || TraceEvent::TxnCommitRace {
                                cpu: j_cpu,
                                tid: j_tid,
                            });
                        txns[j].status = TxnStatus::Aborted;
                        txns[j].error = Some(err);
                        self.stats.txns_aborted += 1;
                    }
                    txns[i].status = err.txn_status();
                    txns[i].error = Some(err);
                    self.reject_txn(err, t_cpu, t_tid);
                    // Remaining txns are aborted unexamined.
                    for t in txns[i + 1..].iter_mut() {
                        t.status = TxnStatus::Aborted;
                        t.error = Some(err);
                        self.stats.txns_aborted += 1;
                    }
                    return;
                }
                Err(err) => {
                    txns[i].status = err.txn_status();
                    txns[i].error = Some(err);
                    self.reject_txn(err, t_cpu, t_tid);
                }
            }
        }
        if txns.len() > 1 {
            self.stats.group_commits += 1;
        }
        // Effect pass: charge IPI batch, arm slots.
        self.scratch.remote.clear(); // (txn index, cross-socket)
        for pi in 0..self.scratch.provisional.len() {
            let i = self.scratch.provisional[pi];
            if txns[i].cpu == self.agent_cpu {
                self.busy += self.scaled(costs_local);
            } else {
                let cross = !self.k.topo().same_socket(self.agent_cpu, txns[i].cpu);
                self.scratch.remote.push((i, cross));
            }
        }
        let n_remote = self.scratch.remote.len() as u64;
        for idx in 0..self.scratch.remote.len() {
            let (_, cross) = self.scratch.remote[idx];
            let base = if idx == 0 {
                self.k.costs().ipi_send
            } else {
                self.k.costs().ipi_send_extra
            };
            let c = if cross {
                self.k.costs().cross_socket_scaled(base)
            } else {
                base
            };
            self.busy += self.scaled(c);
        }
        let dispatch = self.k.now() + self.busy;
        // Arm local slots: visible as soon as the agent parks.
        for pi in 0..self.scratch.provisional.len() {
            let i = self.scratch.provisional[pi];
            if txns[i].cpu == self.agent_cpu {
                if let Some(slot) = self.enclave.committed.get_mut(txns[i].cpu) {
                    slot.arm_at = dispatch;
                }
                // The local CPU reschedules when the agent parks; no IPI.
            }
        }
        // Arm remote slots and send IPIs.
        for ri in 0..self.scratch.remote.len() {
            let (i, cross) = self.scratch.remote[ri];
            let prop = self.k.costs().ipi_propagation
                + if cross {
                    self.k.costs().ipi_propagation_cross_socket
                } else {
                    0
                };
            let contention = if n_remote > 1 {
                self.k.costs().group_target_contention
            } else {
                0
            };
            let resched_at = dispatch + prop + self.k.costs().ipi_receive + contention;
            if let Some(slot) = self.enclave.committed.get_mut(txns[i].cpu) {
                slot.arm_at = resched_at;
            }
            self.k.send_ipi(txns[i].cpu, resched_at);
        }
        if atomic && self.scratch.provisional.len() > 1 {
            // Synchronized group commit (§4.5): all targets act on the
            // commit at the same instant, so a core never transiently
            // runs threads of different VMs while the switches land.
            let arm_all = self
                .scratch
                .provisional
                .iter()
                .filter_map(|&i| self.enclave.committed.get(txns[i].cpu))
                .map(|s| s.arm_at)
                .max()
                .unwrap_or(dispatch);
            for pi in 0..self.scratch.provisional.len() {
                let i = self.scratch.provisional[pi];
                if let Some(slot) = self.enclave.committed.get_mut(txns[i].cpu) {
                    slot.arm_at = arm_all;
                }
                self.k.send_ipi(txns[i].cpu, arm_all);
            }
        }
        for pi in 0..self.scratch.provisional.len() {
            let i = self.scratch.provisional[pi];
            let (t_cpu, t_tid) = (txns[i].cpu.0, txns[i].tid.0);
            self.k
                .trace()
                .emit(self.k.now(), t_cpu, || TraceEvent::TxnCommitOk {
                    cpu: t_cpu,
                    tid: t_tid,
                });
        }
        self.stats.txns_committed += self.scratch.provisional.len() as u64;
    }

    /// Funnels one failed transaction through the rejection bookkeeping:
    /// the legacy wire-status counters and tracepoints, the typed
    /// [`AbiError`] counter, the `ghost_abi_reject` tracepoint, and — for
    /// byzantine-classified errors — a strike against the enclave (the
    /// driver checks the budget when the activation ends). No rejected
    /// commit is ever dropped silently.
    fn reject_txn(&mut self, err: AbiError, cpu: u16, tid: u32) {
        let status = err.txn_status();
        self.count_failure(status);
        self.trace_failure(status, cpu, tid);
        self.stats.abi_rejects[err.kind()] += 1;
        self.enclave.abi_rejects += 1;
        // Emitted on the agent's CPU: the target CPU may be forged (the
        // recorder clamps out-of-range ids, but attribution to a real CPU
        // is more useful than a clamp artifact).
        let acpu = self.agent_cpu.0;
        self.k
            .trace()
            .emit(self.k.now(), acpu, || TraceEvent::AbiReject {
                cpu: acpu,
                kind: err.kind() as u8,
            });
        if err.byzantine() {
            self.enclave.abi_strikes += 1;
        }
    }

    fn count_failure(&mut self, status: TxnStatus) {
        match status {
            TxnStatus::Stale => self.stats.txns_stale += 1,
            TxnStatus::TargetNotRunnable => self.stats.txns_not_runnable += 1,
            TxnStatus::UnknownTarget => self.stats.txns_unknown_target += 1,
            TxnStatus::CpuBusy => self.stats.txns_cpu_busy += 1,
            TxnStatus::CpuUnavailable => self.stats.txns_cpu_unavailable += 1,
            TxnStatus::Aborted => self.stats.txns_aborted += 1,
            TxnStatus::Committed | TxnStatus::Pending => {}
        }
    }

    /// Traces a failed commit: `ESTALE` keeps its own tracepoint (the
    /// paper's headline failure mode); every other loss is a commit race.
    fn trace_failure(&mut self, status: TxnStatus, cpu: u16, tid: u32) {
        match status {
            TxnStatus::Stale => {
                self.k
                    .trace()
                    .emit(self.k.now(), cpu, || TraceEvent::TxnCommitEstale {
                        cpu,
                        tid,
                    });
            }
            TxnStatus::TargetNotRunnable
            | TxnStatus::UnknownTarget
            | TxnStatus::CpuBusy
            | TxnStatus::CpuUnavailable
            | TxnStatus::Aborted => {
                self.k
                    .trace()
                    .emit(self.k.now(), cpu, || TraceEvent::TxnCommitRace { cpu, tid });
            }
            TxnStatus::Committed | TxnStatus::Pending => {}
        }
    }
}
