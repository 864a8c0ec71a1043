//! The userspace control operations: enclave creation, thread attach,
//! policy staging and in-place upgrade, hints, status-word access. Each
//! has one validated entry point returning a typed [`AbiError`].

use super::{Core, PolicyFactory};
use crate::abi::AbiError;
use crate::backend::GhostBackend;
use crate::enclave::{Enclave, EnclaveConfig, EnclaveId, QueueId, WakeMode};
use crate::pnt::PntRings;
use crate::policy::GhostPolicy;
use crate::slab::{CpuMap, TidMap, TidSlab};
use ghost_sim::class::CLASS_GHOST;
use ghost_sim::cpuset::CpuSet;
use ghost_sim::faults::FaultKind;
use ghost_sim::thread::{ThreadKind, ThreadState, Tid};
use ghost_sim::topology::CpuId;

impl Core {
    pub(super) fn try_create_enclave(
        &mut self,
        cpus: CpuSet,
        config: EnclaveConfig,
        policy: Box<dyn GhostPolicy>,
    ) -> Result<EnclaveId, AbiError> {
        if cpus.is_empty() {
            return Err(self.note_reject(AbiError::EmptyCpuSet));
        }
        for c in cpus.iter() {
            match self.cpu_enclave.get(c.index()) {
                None => return Err(self.note_reject(AbiError::InvalidCpu)),
                Some(Some(_)) => return Err(self.note_reject(AbiError::CpuConflict)),
                Some(None) => {}
            }
        }
        let id = EnclaveId(self.enclaves.0.len() as u32);
        for c in cpus.iter() {
            self.cpu_enclave[c.index()] = Some(id);
        }
        let mut enclave = Enclave {
            id,
            cpus,
            queues: Vec::new(),
            default_queue: QueueId(0),
            cpu_queues: CpuMap::new(),
            threads: TidSlab::new(),
            agents: CpuMap::new(),
            global_agent: None,
            core_active: CpuMap::new(),
            committed: CpuMap::new(),
            // One PNT ring per NUMA node is the paper's §5 layout; sized
            // from the config if enabled.
            pnt: config.pnt_ring_capacity.map(|cap| PntRings::new(2, cap)),
            hints: TidMap::new(),
            destroyed: false,
            loop_armed: false,
            upgraded_at: None,
            needs_reconstruct: false,
            recovery: None,
            abi_strikes: 0,
            respawn_attempts: 0,
            abi_rejects: 0,
            pending_grants: Vec::new(),
            pending_revokes: Vec::new(),
            config,
        };
        enclave.add_queue(WakeMode::Polled);
        self.enclaves.0.push(Some(enclave));
        self.policies.push(Some(policy));
        self.staged.push(None);
        self.standby_factories.push(None);
        Ok(id)
    }

    pub(super) fn try_attach_thread(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: EnclaveId,
        tid: Tid,
    ) -> Result<(), AbiError> {
        let enclave_ok = self.check_enclave(eid);
        let verdict = enclave_ok.and_then(|()| match k.thread_checked(tid) {
            None => Err(AbiError::NoSuchThread),
            Some(t) if t.state == ThreadState::Dead => Err(AbiError::DeadThread),
            Some(t) if t.kind == ThreadKind::Agent => Err(AbiError::AgentThread),
            Some(_) if self.thread_enclave.contains(tid) || self.pending_attach.contains(tid) => {
                Err(AbiError::AlreadyAttached)
            }
            Some(_) => Ok(()),
        });
        if let Err(err) = verdict {
            // Strikes only land on an enclave that exists — a forged eid
            // has nothing to quarantine.
            let strike_eid = enclave_ok.is_ok().then_some(eid);
            return Err(self.reject(k, strike_eid, CpuId(0), err));
        }
        self.pending_attach.insert(tid, eid);
        k.move_to_class(tid, CLASS_GHOST);
        Ok(())
    }

    pub(super) fn try_stage_upgrade(
        &mut self,
        eid: EnclaveId,
        policy: Box<dyn GhostPolicy>,
    ) -> Result<(), AbiError> {
        self.check_enclave(eid).map_err(|e| self.note_reject(e))?;
        self.staged[eid.0 as usize] = Some(policy);
        Ok(())
    }

    pub(super) fn set_standby_policy(&mut self, eid: EnclaveId, factory: PolicyFactory) {
        match self.check_enclave(eid) {
            Ok(()) => self.standby_factories[eid.0 as usize] = Some(factory),
            Err(e) => {
                self.note_reject(e);
            }
        }
    }

    pub(super) fn try_upgrade_now(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: EnclaveId,
    ) -> Result<(), AbiError> {
        if let Err(e) = self.check_enclave(eid) {
            return Err(self.reject(k, None, CpuId(0), e));
        }
        let Some(staged) = self.staged[eid.0 as usize].take() else {
            return Err(self.reject(k, Some(eid), CpuId(0), AbiError::NothingStaged));
        };
        self.policies[eid.0 as usize] = Some(staged);
        self.stats.upgrades += 1;
        // The watchdog excuses pre-upgrade starvation — the new policy
        // gets a full timeout from here before it can be blamed (without
        // this a hung-then-upgraded agent is double-reaped) — and in-flight
        // commits that captured a pre-upgrade `Aseq` must not land under
        // the new policy.
        if let Some(enclave) = self.enclaves.get_mut(eid) {
            enclave.raise_barrier(k.now());
        }
        self.notify_agents(k, eid);
        Ok(())
    }

    /// An injected fault arrived. The only one the runtime interprets
    /// itself is an in-place upgrade, which promotes whatever policy is
    /// staged on each enclave (no-op where nothing is staged).
    pub(super) fn fault(&mut self, k: &mut dyn GhostBackend, fault: &FaultKind) {
        if !matches!(fault, FaultKind::Upgrade) {
            return;
        }
        for i in 0..self.staged.len() {
            if self.staged[i].is_some() {
                let _ = self.try_upgrade_now(k, EnclaveId(i as u32));
            }
        }
    }

    pub(super) fn try_set_hint(&mut self, tid: Tid, hint: u64) -> Result<(), AbiError> {
        let Some(&eid) = self.thread_enclave.get(tid) else {
            return Err(self.note_reject(AbiError::ForeignThread));
        };
        self.check_enclave(eid).map_err(|e| self.note_reject(e))?;
        if let Some(enclave) = self.enclaves.get_mut(eid) {
            enclave.hints.insert(tid, hint);
        }
        Ok(())
    }

    pub(super) fn try_thread_status(
        &mut self,
        eid: EnclaveId,
        tid: Tid,
    ) -> Result<(u64, u64), AbiError> {
        self.check_enclave(eid).map_err(|e| self.note_reject(e))?;
        let info = self.enclaves.get(eid).and_then(|e| e.threads.get(tid));
        match info.map(|info| (info.status.seq(), info.status.flags())) {
            Some(sw) => Ok(sw),
            None => Err(self.note_reject(AbiError::ForeignThread)),
        }
    }

    pub(super) fn reject_status_write(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: EnclaveId,
    ) -> Result<(), AbiError> {
        let strike_eid = self.check_enclave(eid).is_ok().then_some(eid);
        Err(self.reject(k, strike_eid, CpuId(0), AbiError::StatusReadOnly))
    }
}
