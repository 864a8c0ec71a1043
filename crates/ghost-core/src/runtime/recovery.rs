//! Fault isolation and recovery (§3.4): enclave teardown, quarantine,
//! the watchdog, and what happens when an agent pthread dies — in-place
//! upgrade, degraded-mode failover with standby respawn, or CFS fallback
//! at whole-enclave or per-CPU granularity.

use super::{core_key_of, Core};
use crate::abi::AbiError;
use crate::backend::GhostBackend;
use crate::enclave::{AgentMode, Enclave, EnclaveId, QueueId, WakeMode};
use crate::lease::{decode_lease_timer_key, RevokeReason, LEASE_TIMER_FLAG, RM_TIMER_FLAG};
use crate::recovery::{RecoveryState, StandbyConfig, RESPAWN_TIMER_FLAG};
use crate::slab::{TidMap, TidSlab};
use ghost_sim::class::{CLASS_CFS, CLASS_GHOST};
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::topology::CpuId;
use ghost_trace::TraceEvent;

/// Reclaims every surviving stashed thread of a degraded enclave: the
/// incoming agent reconstructs under an `Aseq` barrier, and each thread
/// re-enters the ghOSt class, where `attach` restores its preserved
/// state. Sorted for deterministic replay.
pub(super) fn reclaim_stashed(
    enclave: &mut Enclave,
    pending_attach: &mut TidMap<EnclaveId>,
    k: &mut dyn GhostBackend,
) {
    enclave.raise_barrier(k.now());
    let Some(recovery) = enclave.recovery.as_mut() else {
        return;
    };
    let mut tids: Vec<Tid> = recovery.stashed.tids().collect();
    tids.sort();
    for t in tids {
        if k.tracked(t).state == ThreadState::Dead {
            recovery.stashed.remove(t);
            continue;
        }
        pending_attach.insert(t, enclave.id);
        k.move_to_class(t, CLASS_GHOST);
    }
}

impl Core {
    /// Quarantines an enclave whose agent exhausted the byzantine strike
    /// budget: the §3.4 worst case, applied deliberately — the enclave is
    /// destroyed, its threads fall back to CFS, and co-resident enclaves
    /// never notice.
    pub(super) fn quarantine(&mut self, k: &mut dyn GhostBackend, eid: EnclaveId) {
        self.stats.quarantines += 1;
        k.trace()
            .emit(k.now(), 0, || TraceEvent::EnclaveQuarantined {
                enclave: eid.0,
            });
        self.destroy_enclave(k, eid);
    }

    pub(super) fn try_destroy_enclave(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: EnclaveId,
    ) -> Result<(), AbiError> {
        if let Err(e) = self.check_enclave(eid) {
            return Err(self.reject(k, None, CpuId(0), e));
        }
        self.destroy_enclave(k, eid);
        Ok(())
    }

    /// Tears an enclave down: every managed thread falls back to CFS and
    /// every agent is killed. Other enclaves are untouched (§3.4).
    pub(super) fn destroy_enclave(&mut self, k: &mut dyn GhostBackend, eid: EnclaveId) {
        // Snapshot the enclave's lease entanglements before teardown: a
        // dying borrower must hand every borrowed CPU home, a dying
        // lender transfers ownership of lent CPUs to their borrowers.
        let borrowed = self.leases.borrowed_by(eid);
        let lent = self.leases.lent_by(eid);
        let Some(enclave) = self.enclaves.get_mut(eid).filter(|e| !e.destroyed) else {
            return;
        };
        enclave.destroyed = true;
        enclave.committed.clear();
        for cpu in enclave.cpus.iter() {
            self.cpu_enclave[cpu.index()] = None;
        }
        // Sorted: the storage order must not leak into the CFS runqueue
        // (or the kill order), or replays diverge.
        for tid in enclave.threads.sorted_tids() {
            // Intentionally seeded bug (chaos-harness validation target):
            // strand runnable threads in the dead enclave instead of
            // moving them back to CFS. Never enabled in normal builds.
            #[cfg(feature = "seeded-bug")]
            if k.tracked(tid).state == ThreadState::Runnable {
                continue;
            }
            k.move_to_class(tid, CLASS_CFS);
        }
        let mut agents = enclave.agent_tids();
        agents.sort();
        for agent in agents {
            // Registry removal BEFORE the kill: `agent_killed` treats an
            // unregistered death as already handled and runs no fallback.
            self.agent_enclave.remove(agent);
            k.kill(agent);
        }
        self.stats.enclave_destroys += 1;
        k.trace().emit(k.now(), 0, || TraceEvent::EnclaveDestroyed {
            enclave: eid.0,
        });
        // Lease resolution wired into the recovery chain: the teardown
        // above already cleared this enclave's wiring for borrowed CPUs
        // (they were members), so each one re-attaches to its lender —
        // no CPU is ever stranded with a dead borrower. Lent CPUs were
        // not members here; their borrowers simply keep them for good.
        for cpu in borrowed {
            self.end_lease(k, cpu, RevokeReason::BorrowerDied);
        }
        for cpu in lent {
            self.end_lease(k, cpu, RevokeReason::LenderDied);
        }
    }

    /// Starts (or extends) degraded-mode failover after an agent crash
    /// (§3.4): the affected threads transiently fall back to CFS — with
    /// their kernel-side `ThreadInfo` stashed, so `Tseq` stays monotone
    /// and the status word survives the excursion — while a standby
    /// respawn is scheduled with exponential backoff. Destruction becomes
    /// the last resort, once `max_respawns` attempts are consumed.
    fn begin_degraded_failover(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: EnclaveId,
        cpu: CpuId,
        standby: StandbyConfig,
        victims: Vec<Tid>,
    ) {
        let now = k.now();
        let Some(enclave) = self.enclaves.get_mut(eid) else {
            return;
        };
        let mut recovery = enclave.recovery.take().unwrap_or(RecoveryState {
            stashed: TidSlab::new(),
            pending_cpus: Vec::new(),
            started_at: now,
        });
        let attempts = enclave.respawn_attempts;
        if attempts >= standby.max_respawns {
            // The standby itself keeps dying: give up and destroy.
            self.stats.fallbacks += 1;
            self.destroy_enclave(k, eid);
            return;
        }
        k.trace()
            .emit(now, cpu.0, || TraceEvent::RecoveryStart { enclave: eid.0 });
        enclave.loop_armed = false;
        for tid in victims {
            enclave.unschedule(tid);
            let Some(info) = enclave.threads.remove(tid) else {
                continue;
            };
            recovery.stashed.insert(tid, info);
            // With the registry entry gone, the class move below posts no
            // THREAD_DEAD — the thread is expected back.
            self.thread_enclave.remove(tid);
            k.move_to_class(tid, CLASS_CFS);
        }
        if !recovery.pending_cpus.contains(&cpu) {
            recovery.pending_cpus.push(cpu);
        }
        enclave.recovery = Some(recovery);
        let backoff = standby.respawn_backoff << attempts.min(16);
        k.arm_driver_timer(now + backoff, RESPAWN_TIMER_FLAG | eid.0 as u64);
    }

    /// Per-CPU fault granularity without a standby (§3.4): only the dead
    /// agent's CPU leaves the enclave, and only the threads it served
    /// fall back to CFS. Peers keep scheduling theirs — the crash is
    /// contained to the slice of the enclave the dead agent managed.
    fn partial_fallback(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: EnclaveId,
        cpu: CpuId,
        dead_agent: Tid,
        victims: Vec<Tid>,
    ) {
        self.stats.fallbacks += 1;
        let Some(enclave) = self.enclaves.get_mut(eid) else {
            return;
        };
        self.cpu_enclave[cpu.index()] = None;
        enclave.cpus.remove(cpu);
        enclave.cpu_queues.remove(cpu);
        enclave.recall(cpu);
        enclave.rehome_default_queue(dead_agent);
        // Organic departure: the class move posts THREAD_DEAD, so the
        // surviving agents forget the victims.
        for t in victims {
            k.move_to_class(t, CLASS_CFS);
        }
        // A dead agent on a *borrowed* CPU ends the lease instead of
        // dropping the CPU out of ghOSt: after the per-CPU teardown
        // above, the CPU re-attaches to its lender.
        if self.leases.on_cpu(cpu).is_some_and(|l| l.borrower == eid) {
            self.end_lease(k, cpu, RevokeReason::BorrowerDied);
        }
    }

    /// Fires when a degraded enclave's respawn backoff expires: spawn a
    /// standby agent pthread on the dead agent's CPU, wire it in for the
    /// enclave's mode, flag a status-word reconstruction, and reclaim the
    /// stashed threads from their transient CFS excursion.
    fn respawn(&mut self, k: &mut dyn GhostBackend, eid: EnclaveId) {
        let Some(enclave) = self.enclaves.get_mut(eid).filter(|e| !e.destroyed) else {
            return;
        };
        // Pop the next pending CPU that is still in the partition — a CPU
        // lent out (or reclaimed to its lender) between agent death and
        // backoff expiry must not get a standby spawned on it.
        let mut next_cpu = None;
        if let Some(r) = enclave.recovery.as_mut() {
            while next_cpu.is_none() && !r.pending_cpus.is_empty() {
                next_cpu = Some(r.pending_cpus.remove(0)).filter(|&c| enclave.cpus.contains(c));
            }
        }
        let Some(cpu) = next_cpu else {
            // Every pending CPU left the partition under a lease. If no
            // threads are stashed, recovery is simply over; otherwise
            // reclaim them through the surviving agents so the enclave
            // is never wedged waiting on a CPU it no longer owns.
            if enclave
                .recovery
                .as_ref()
                .is_some_and(|r| !r.stashed.is_empty())
            {
                self.policies[eid.0 as usize] = self.standbys[eid.0 as usize]
                    .as_ref()
                    .map(|(_, factory)| factory());
                reclaim_stashed(enclave, &mut self.pending_attach, k);
                self.notify_agents(k, eid);
            } else {
                enclave.recovery = None;
            }
            return;
        };
        enclave.respawn_attempts += 1;
        self.stats.respawns += 1;
        let tid = self.spawn_agent(k, eid, cpu, "standby");
        let Some(enclave) = self.enclaves.get_mut(eid) else {
            return;
        };
        match enclave.config.mode {
            AgentMode::Centralized => {
                enclave.global_agent.get_or_insert(tid);
            }
            AgentMode::PerCpu => {
                // The respawned agent serves its CPU's queue again — and
                // adopts the default queue if its owner died with it.
                let own = enclave.cpu_queues.get(cpu).copied();
                if let Some(qs) = own.and_then(|q| enclave.queue_mut(q)) {
                    qs.wake = WakeMode::WakeAgent(tid);
                }
                if let Some(qs) = enclave.queue_mut(enclave.default_queue) {
                    if matches!(qs.wake, WakeMode::WakeAgent(owner)
                        if !self.agent_enclave.contains(owner))
                    {
                        qs.wake = WakeMode::WakeAgent(tid);
                    }
                }
            }
            AgentMode::PerCore => {
                enclave.core_active.insert(core_key_of(k, cpu), tid);
            }
        }
        // A fresh policy process: the incoming agent rebuilds its view
        // from the status-word scan and gets watchdog grace for the
        // backlog it inherits.
        if let Some((_, factory)) = self.standbys[eid.0 as usize].as_ref() {
            self.policies[eid.0 as usize] = Some(factory());
        }
        reclaim_stashed(enclave, &mut self.pending_attach, k);
        k.wake(tid);
    }

    /// A driver timer fired: a standby-respawn backoff, a lease deadline
    /// (kernel-enforced, whether or not the RM that negotiated the lease
    /// is still alive), a resource-manager epoch (low bits carry the RM
    /// incarnation), or — with no flag — enclave `key`'s watchdog scan.
    pub(super) fn timer(&mut self, k: &mut dyn GhostBackend, key: u64) {
        if key & RESPAWN_TIMER_FLAG != 0 {
            self.respawn(k, EnclaveId((key & !RESPAWN_TIMER_FLAG) as u32));
        } else if key & LEASE_TIMER_FLAG != 0 {
            let (cpu, seq) = decode_lease_timer_key(key);
            self.lease_expired(k, cpu, seq);
        } else if key & RM_TIMER_FLAG != 0 {
            self.rm_tick(k, key & !RM_TIMER_FLAG);
        } else {
            self.watchdog(k, EnclaveId(key as u32));
        }
    }

    /// Watchdog scan (§3.4): a runnable ghOSt thread left unscheduled for
    /// longer than the timeout means the agent is misbehaving. Starvation
    /// is measured from the last in-place upgrade, if any: a freshly
    /// promoted policy inherits its predecessor's backlog and must not be
    /// reaped for it.
    fn watchdog(&mut self, k: &mut dyn GhostBackend, eid: EnclaveId) {
        let Some(enclave) = self.enclaves.get(eid).filter(|e| !e.destroyed) else {
            return;
        };
        let Some(timeout) = enclave.config.watchdog_timeout else {
            return;
        };
        let grace_from = enclave.upgraded_at.unwrap_or(0);
        let starved = enclave.threads.tids().any(|t| {
            let th = &k.tracked(t);
            th.state == ThreadState::Runnable
                && k.now().saturating_sub(th.runnable_since.max(grace_from)) > timeout
        });
        if starved && self.staged[eid.0 as usize].is_none() {
            self.stats.watchdog_destroys += 1;
            k.trace()
                .emit(k.now(), 0, || TraceEvent::WatchdogFired { enclave: eid.0 });
            self.destroy_enclave(k, eid);
            return;
        }
        if starved {
            // A replacement is already staged: promote it in place rather
            // than destroying the enclave the handoff is about to fix.
            let _ = self.try_upgrade_now(k, eid);
        }
        k.arm_driver_timer(k.now() + timeout / 2, eid.0 as u64);
    }

    /// An agent pthread died (§3.4). In order of preference: promote a
    /// staged policy in place; run degraded-mode failover if a standby is
    /// configured; fall back to CFS — for the whole enclave only when the
    /// crash actually takes out its scheduling capacity, at per-CPU
    /// granularity when peers survive.
    pub(super) fn agent_killed(&mut self, k: &mut dyn GhostBackend, tid: Tid) {
        let Some((eid, cpu)) = self.agent_enclave.remove(tid) else {
            return;
        };
        if self.staged[eid.0 as usize].is_some() {
            // In-place upgrade: the staged policy takes over; the dead
            // agent's pthread is replaced by reusing a surviving agent
            // as global (centralized) or leaving per-CPU peers in place.
            let _ = self.try_upgrade_now(k, eid);
            if let Some(enclave) = self.enclaves.get_mut(eid) {
                enclave.agents.remove(cpu);
                if enclave.global_agent == Some(tid) {
                    // Deterministic successor: the lowest-CPU survivor.
                    enclave.global_agent = enclave.agents.values().next().map(|a| a.tid);
                    if let Some(s) = enclave.global_agent {
                        k.wake(s);
                    }
                }
            }
            return;
        }
        let Some(enclave) = self.enclaves.get_mut(eid).filter(|e| !e.destroyed) else {
            return;
        };
        enclave.agents.remove(cpu);
        let was_global = enclave.global_agent == Some(tid);
        if was_global {
            enclave.global_agent = None;
            enclave.loop_armed = false;
        }
        let any_left = !enclave.agents.is_empty();
        let mode = enclave.config.mode;
        if mode == AgentMode::Centralized && !was_global && any_left {
            // An inactive hot standby died; the global spinner is
            // intact and loses nothing.
            return;
        }
        if mode == AgentMode::PerCore && any_left {
            let key = core_key_of(k, cpu);
            if enclave.core_active.get(key) == Some(&tid) {
                enclave.core_active.remove(key);
            }
            let siblings = k.topo().core_cpus(cpu);
            if siblings
                .iter()
                .any(|c| c != cpu && enclave.agents.contains(c))
            {
                // The SMT sibling's agent serves the whole core.
                return;
            }
        }
        let whole = mode == AgentMode::Centralized || !any_left;
        let victims: Vec<Tid> = if whole {
            enclave.threads.sorted_tids()
        } else {
            // Threads homed to a queue the dead agent consumed: its
            // own CPU's queue, or any queue explicitly waking it (the
            // default queue, when the dead agent owned new-thread
            // traffic).
            let consumed = |q: QueueId| {
                Some(&q) == enclave.cpu_queues.get(cpu)
                    || enclave
                        .queue(q)
                        .is_some_and(|qs| qs.wake == WakeMode::WakeAgent(tid))
            };
            let mut v: Vec<Tid> = enclave
                .threads
                .iter()
                .filter(|(_, info)| consumed(info.queue))
                .map(|(t, _)| t)
                .collect();
            v.sort();
            v
        };
        if let Some(&(standby, _)) = self.standbys[eid.0 as usize].as_ref() {
            self.begin_degraded_failover(k, eid, cpu, standby, victims);
        } else if whole {
            // Fault isolation: the whole enclave falls back to CFS.
            self.stats.fallbacks += 1;
            self.destroy_enclave(k, eid);
        } else {
            self.partial_fallback(k, eid, cpu, tid, victims);
        }
    }
}
