//! Core lending: deadline-bounded CPU leases between enclaves (the
//! kernel-side transfer of a CPU and everything wired to it), and the
//! in-process resource manager that negotiates them.

use super::agent::wire_cpu_queue;
use super::recovery::reclaim_stashed;
use super::{core_key_of, Core};
use crate::abi::AbiError;
use crate::backend::GhostBackend;
use crate::enclave::{AgentMode, EnclaveId};
use crate::lease::{lease_timer_key, Lease, RevokeReason, RM_TIMER_FLAG};
use crate::rm::{EnclaveHealth, RmDecision, RmState};
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::Nanos;
use ghost_sim::topology::CpuId;
use ghost_trace::TraceEvent;

/// Kicks `cpu` through the normal resched path, so serial and parallel
/// sweeps observe identical interleavings: the IPI preempts whatever is
/// running there and the next pick serves the CPU's new owner.
fn resched_ipi(k: &mut dyn GhostBackend, cpu: CpuId) {
    let c = k.costs();
    let at = k.now() + c.ipi_send + c.ipi_propagation + c.ipi_receive;
    k.send_ipi(cpu, at);
}

impl Core {
    /// The seat a centralized enclave's global agent spins on.
    fn global_cpu(&self, eid: EnclaveId) -> Option<CpuId> {
        let global = self.enclaves.get(eid)?.global_agent?;
        self.agent_enclave.get(global).map(|&(_, c)| c)
    }

    /// The donor CPU the RM would lend next: the highest-numbered CPU
    /// that is not already leased, not the centralized global agent's
    /// seat, and not the donor's last CPU. Deterministic by
    /// construction (pure function of sorted enclave state).
    fn borrowable_cpu(&self, eid: EnclaveId) -> Option<CpuId> {
        let e = self.enclaves.get(eid).filter(|e| !e.destroyed)?;
        let global_cpu = self.global_cpu(eid);
        let cpus: Vec<CpuId> = e.cpus.iter().collect();
        if cpus.len() <= 1 {
            return None;
        }
        cpus.into_iter()
            .rev()
            .find(|&c| Some(c) != global_cpu && self.leases.on_cpu(c).is_none())
    }

    /// Validated lend: membership and lease-table checks, then the
    /// actual transfer. The single entry point for both the public
    /// `try_lend_cpu()` API and the RM's Borrow decision.
    pub(super) fn try_lend(
        &mut self,
        k: &mut dyn GhostBackend,
        lender: EnclaveId,
        borrower: EnclaveId,
        cpu: CpuId,
        duration: Nanos,
    ) -> Result<(), AbiError> {
        if let Err(e) = self.check_enclave(lender).and(self.check_enclave(borrower)) {
            return Err(self.reject(k, None, cpu, e));
        }
        let e = self.enclaves.get(lender).expect("checked");
        let err = if lender == borrower {
            Some(AbiError::CpuConflict)
        } else if k.cpu(cpu).is_none() || cpu.index() >= self.cpu_enclave.len() {
            Some(AbiError::InvalidCpu)
        } else if !e.cpus.contains(cpu) {
            Some(AbiError::CpuOutsideEnclave)
        } else if self.leases.on_cpu(cpu).is_some() {
            Some(AbiError::CpuLeased)
        } else if e.cpus.iter().count() <= 1 {
            // The lender must keep at least one CPU — an enclave with an
            // empty partition can never schedule its way back to health.
            Some(AbiError::EmptyCpuSet)
        } else if e.config.mode == AgentMode::Centralized && self.global_cpu(lender) == Some(cpu) {
            // A centralized lender cannot lend the seat its global agent
            // spins on (inactive standbys parked on other CPUs are fine:
            // they stay blocked for the lease's lifetime).
            Some(AbiError::CpuBusy)
        } else {
            None
        };
        if let Some(err) = err {
            return Err(self.reject(k, Some(lender), cpu, err));
        }
        let now = k.now();
        let deadline = now.saturating_add(duration);
        let lease = self.leases.grant(cpu, lender, borrower, now, deadline);
        k.trace().emit(now, cpu.0, || TraceEvent::LeaseGranted {
            cpu: cpu.0,
            lender: lender.0,
            borrower: borrower.0,
            deadline_ns: deadline,
        });
        self.lease_detach_cpu(k, lender, cpu);
        self.lease_attach_cpu(k, borrower, cpu);
        // A lender thread still running there is preempted
        // (THREAD_PREEMPTED routes to the lender via `thread_enclave`).
        resched_ipi(k, cpu);
        // The deadline is kernel state: armed here, enforced by the
        // driver timer whether or not the RM survives.
        k.arm_driver_timer(deadline, lease_timer_key(cpu, lease.seq));
        self.notify_agents(k, lender);
        self.notify_agents(k, borrower);
        Ok(())
    }

    pub(super) fn try_reclaim_cpu(
        &mut self,
        k: &mut dyn GhostBackend,
        cpu: CpuId,
    ) -> Result<(), AbiError> {
        if k.cpu(cpu).is_none() || cpu.index() >= self.cpu_enclave.len() {
            return Err(self.reject(k, None, cpu, AbiError::InvalidCpu));
        }
        match self.end_lease(k, cpu, RevokeReason::Returned) {
            Some(_) => Ok(()),
            None => Err(self.reject(k, None, cpu, AbiError::NotLeased)),
        }
    }

    /// A lease deadline fired: force the CPU back to its lender. Stale
    /// timers (lease already returned, or the CPU re-lent under a newer
    /// grant) are recognised by sequence number and no-op.
    pub(super) fn lease_expired(&mut self, k: &mut dyn GhostBackend, cpu: CpuId, seq: u64) {
        if self.leases.on_cpu(cpu).is_some_and(|l| l.seq == seq) {
            self.end_lease(k, cpu, RevokeReason::Expired);
        }
    }

    /// Ends the lease on `cpu`, for whatever `reason`: the one place a
    /// lease is resolved and its CPU handed home.
    ///
    /// A lender that died has no home to offer — the borrower keeps the
    /// CPU for good. Otherwise a borrower still holding the CPU (voluntary
    /// return, deadline expiry, RM revoke) lets go of it and is told; one
    /// whose own teardown already dropped it (enclave destroyed, or the
    /// CPU's agent died without a standby) has nothing left to detach.
    /// The CPU re-attaches to the lender, and is kicked — unless a live
    /// borrower dropped it, whose dead agent's exit reschedules it anyway.
    pub(super) fn end_lease(
        &mut self,
        k: &mut dyn GhostBackend,
        cpu: CpuId,
        reason: RevokeReason,
    ) -> Option<Lease> {
        let lease = self.leases.resolve(cpu, reason)?;
        k.trace().emit(k.now(), cpu.0, || TraceEvent::LeaseRevoked {
            cpu: cpu.0,
            lender: lease.lender.0,
            borrower: lease.borrower.0,
            reason: reason as u8,
        });
        if reason == RevokeReason::LenderDied {
            return Some(lease);
        }
        let holding = self.enclave_of_cpu(cpu) == Some(lease.borrower);
        if holding {
            self.lease_detach_cpu(k, lease.borrower, cpu);
        }
        self.lease_attach_cpu(k, lease.lender, cpu);
        if holding || self.check_enclave(lease.borrower).is_err() {
            resched_ipi(k, cpu);
        }
        if holding {
            self.notify_agents(k, lease.borrower);
        }
        self.notify_agents(k, lease.lender);
        Some(lease)
    }

    /// Detaches `cpu` from `eid` for a lease transfer: membership, any
    /// committed slot, per-CPU agent/queue wiring, and any pending
    /// respawn all let go of the CPU. The caller re-points
    /// `cpu_enclave` by attaching the CPU to its new enclave.
    fn lease_detach_cpu(&mut self, k: &mut dyn GhostBackend, eid: EnclaveId, cpu: CpuId) {
        self.cpu_enclave[cpu.index()] = None;
        let Some(enclave) = self.enclaves.get_mut(eid) else {
            return;
        };
        enclave.cpus.remove(cpu);
        // Recall an in-flight commit targeting the departing CPU; the
        // thread stays runnable and is rescheduled elsewhere.
        enclave.recall(cpu);
        // A centralized enclave's parked hot-standby on the lent CPU stays
        // blocked in place: handoffs scan `enclave.cpus`, which no longer
        // includes this CPU, so it is never woken while the lease is out.
        // (Lending the global agent's own seat is rejected up front.)
        let mut departed: Option<Tid> = None;
        if enclave.config.mode != AgentMode::Centralized {
            if let Some(slot) = enclave.agents.remove(cpu) {
                departed = Some(slot.tid);
                if enclave.global_agent == Some(slot.tid) {
                    enclave.global_agent = None;
                }
                let key = core_key_of(k, cpu);
                if enclave.core_active.get(key) == Some(&slot.tid) {
                    enclave.core_active.remove(key);
                }
            }
            if let Some(qid) = enclave.cpu_queues.remove(cpu) {
                let dq = enclave.default_queue;
                // Per-core queues are shared with the SMT sibling; only
                // tear a queue down once no CPU routes to it.
                let still_routed = enclave.cpu_queues.values().any(|&q| q == qid);
                if qid != dq && !still_routed {
                    // Orphaned queue: splice its pending messages into
                    // the default queue (messages stay
                    // produced-but-unconsumed, so the per-thread pending
                    // counts are restored) and re-home its threads.
                    let mut buf = Vec::new();
                    enclave.drain_queue_into(qid, &mut buf);
                    if let Some(Some(qs)) = enclave.queues.get(dq.0 as usize) {
                        for m in buf {
                            if qs.queue.push(m).is_ok() && m.ty.is_thread_msg() {
                                if let Some(info) = enclave.threads.get_mut(m.tid) {
                                    info.pending_msgs += 1;
                                }
                            }
                        }
                    }
                    for t in enclave.threads.sorted_tids() {
                        if let Some(info) = enclave.threads.get_mut(t) {
                            if info.queue == qid {
                                info.queue = dq;
                            }
                        }
                    }
                    enclave.queues[qid.0 as usize] = None;
                }
            }
            if let Some(gone) = departed {
                enclave.rehome_default_queue(gone);
            }
        }
        // Revoke-during-reconstruction: a pending respawn for this CPU is
        // cancelled. If that was the last pending CPU and stashed threads
        // remain, reclaim them through the surviving agents right away —
        // a lease reclaim must never leave recovery wedged waiting on a
        // CPU that left.
        if let Some(r) = enclave.recovery.as_mut() {
            r.pending_cpus.retain(|&c| c != cpu);
            if r.finished() {
                enclave.recovery = None;
            } else if r.pending_cpus.is_empty() {
                reclaim_stashed(enclave, &mut self.pending_attach, k);
            }
        }
        if let Some(t) = departed {
            // Registry removal BEFORE the kill, as in `destroy_enclave`.
            self.agent_enclave.remove(t);
            k.kill(t);
        }
    }

    /// Attaches `cpu` to `eid` after a lease transfer: membership plus,
    /// for per-CPU/per-core modes, a fresh pinned agent with its queue
    /// wiring. A centralized enclave schedules any owned CPU from its
    /// global agent, so no new agent is needed there.
    fn lease_attach_cpu(&mut self, k: &mut dyn GhostBackend, eid: EnclaveId, cpu: CpuId) {
        let Some(enclave) = self.enclaves.get_mut(eid).filter(|e| !e.destroyed) else {
            return;
        };
        enclave.cpus.add(cpu);
        self.cpu_enclave[cpu.index()] = Some(eid);
        if enclave.config.mode == AgentMode::Centralized || enclave.agents.contains(cpu) {
            return;
        }
        let tid = self.spawn_agent(k, eid, cpu, "lease");
        if let Some(enclave) = self.enclaves.get_mut(eid) {
            wire_cpu_queue(enclave, k, cpu, tid);
            if enclave.config.mode == AgentMode::PerCore {
                enclave.core_active.or_insert(core_key_of(k, cpu), tid);
            }
        }
        k.wake(tid);
    }

    // -- Resource manager ----------------------------------------------------

    /// Total ABI rejects charged to `eid` over its lifetime (the RM's
    /// per-enclave reject-pressure input).
    fn enclave_rejects(&self, eid: EnclaveId) -> u64 {
        self.enclaves.get(eid).map_or(0, |e| e.abi_rejects)
    }

    /// What the RM samples of `eid` each epoch: runnable ghOSt threads
    /// waiting off-CPU, rejects since `last`, liveness.
    fn health(&self, k: &dyn GhostBackend, eid: EnclaveId, last: u64) -> EnclaveHealth {
        let runnable = |&t: &Tid| k.tracked(t).state == ThreadState::Runnable;
        EnclaveHealth {
            backlog: self
                .enclaves
                .get(eid)
                .map_or(0, |e| e.threads.tids().filter(runnable).count()),
            reject_delta: self.enclave_rejects(eid).saturating_sub(last),
            alive: self.check_enclave(eid).is_ok(),
        }
    }

    /// Launches an RM incarnation from `rm_spec` with a fresh staleness
    /// token, its view rebuilt from enclave snapshots.
    pub(super) fn rm_launch(&mut self, k: &mut dyn GhostBackend, restarts: u32) {
        let (config, protected, donor) = self.rm_spec.expect("rm_spec is set before a launch");
        self.rm_token += 1;
        let mut rm = RmState::new(config, protected, donor);
        rm.incarnation = self.rm_token;
        rm.stats.restarts = restarts;
        rm.last_rejects = [protected, donor].map(|e| (e, self.enclave_rejects(e)));
        self.rm = Some(rm);
        k.arm_driver_timer(k.now() + config.epoch, RM_TIMER_FLAG | self.rm_token);
    }

    pub(super) fn rm_restart(&mut self, k: &mut dyn GhostBackend) -> bool {
        if self.rm.is_some() || self.rm_spec.is_none() {
            return false;
        }
        self.rm_restarts += 1;
        let (restarts, leases) = (self.rm_restarts, self.leases.len() as u32);
        k.trace()
            .emit(k.now(), 0, || TraceEvent::RmFailover { restarts, leases });
        self.rm_launch(k, restarts);
        true
    }

    /// One resource-manager epoch: gather per-enclave health, run the
    /// decision loop, execute the outcome, re-arm. Ticks carrying a
    /// stale incarnation token (from a pre-crash RM) are dropped.
    pub(super) fn rm_tick(&mut self, k: &mut dyn GhostBackend, token: u64) {
        let Some(rm) = self.rm.as_ref().filter(|rm| rm.incarnation == token) else {
            return;
        };
        let (config, protected, donor) = (rm.config, rm.protected, rm.donor);
        let p_health = self.health(k, protected, rm.last_rejects[0].1);
        let d_health = self.health(k, donor, rm.last_rejects[1].1);
        let borrowed = self.leases.borrowed_by(protected).len();
        let donor_spare = self
            .enclaves
            .get(donor)
            .map_or(0, |e| e.cpus.iter().count().saturating_sub(1));
        let last_rejects = [protected, donor].map(|e| (e, self.enclave_rejects(e)));
        let rm = self.rm.as_mut().expect("checked above");
        rm.last_rejects = last_rejects;
        match rm.decide(p_health, d_health, borrowed, donor_spare) {
            RmDecision::Hold => {}
            RmDecision::Borrow => {
                if let Some(cpu) = self.borrowable_cpu(donor) {
                    // A rejection here (e.g. the donor shrank under us)
                    // is benign: the RM re-evaluates next epoch.
                    let _ = self.try_lend(k, donor, protected, cpu, config.lease_duration);
                }
            }
            RmDecision::Return => {
                if let Some(&cpu) = self.leases.borrowed_by(protected).first() {
                    self.end_lease(k, cpu, RevokeReason::Returned);
                }
            }
            RmDecision::Quarantine(eid) => self.quarantine(k, eid),
        }
        k.arm_driver_timer(k.now() + config.epoch, RM_TIMER_FLAG | token);
    }
}
