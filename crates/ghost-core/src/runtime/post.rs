//! Kernel → agent traffic: message posting, agent wakeups, and the
//! rejection funnel for agent-facing ABI calls.

use super::{core_key_of, Core, GhostStats};
use crate::abi::AbiError;
use crate::backend::GhostBackend;
use crate::enclave::{AgentMode, Enclave, EnclaveId, WakeMode};
use crate::msg::{Message, MsgType};
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::Nanos;
use ghost_sim::topology::CpuId;
use ghost_trace::TraceEvent;

/// Gets a centralized enclave's global agent running by `at`: a spinning
/// agent gets one (coalesced) loop iteration, a parked one (hot handoff
/// left no spinner) is woken.
fn kick_global(enclave: &mut Enclave, k: &mut dyn GhostBackend, global: Tid, at: Nanos) {
    match k.tracked(global).state {
        ThreadState::Running if !enclave.loop_armed => {
            enclave.loop_armed = true;
            k.schedule_agent_loop(at, global);
        }
        ThreadState::Blocked => k.wake_at(at, global),
        _ => {}
    }
}

#[inline]
fn wake_if_blocked(k: &mut dyn GhostBackend, agent: Tid, at: Nanos) {
    if k.tracked(agent).state == ThreadState::Blocked {
        k.wake_at(at, agent);
    }
}

impl Core {
    /// The single funnel for rejected agent-facing ABI calls: counts the
    /// rejection by kind, fires the `ghost_abi_reject` tracepoint, and —
    /// for errors no benign race can produce ([`AbiError::byzantine`]) —
    /// charges a strike against `eid`, quarantining the enclave once its
    /// budget is exhausted. There are no silent drops: every rejection on
    /// a kernel-reachable path comes through here.
    pub(super) fn reject(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: Option<EnclaveId>,
        cpu: CpuId,
        err: AbiError,
    ) -> AbiError {
        self.stats.abi_rejects[err.kind()] += 1;
        // Out-of-range CPU ids are clamped by the trace recorder, so a
        // forged `cpu` cannot make the tracepoint itself unsafe.
        k.trace().emit(k.now(), cpu.0, || TraceEvent::AbiReject {
            cpu: cpu.0,
            kind: err.kind() as u8,
        });
        let Some(eid) = eid else {
            return err;
        };
        let Some(e) = self.enclaves.get_mut(eid) else {
            return err;
        };
        e.abi_rejects += 1;
        if err.byzantine() {
            e.abi_strikes += 1;
            if e.strikes_exhausted() {
                self.quarantine(k, eid);
            }
        }
        err
    }

    /// Counts a rejection on a path with no kernel handle (and therefore
    /// no tracepoint or strike accounting).
    pub(super) fn note_reject(&mut self, err: AbiError) -> AbiError {
        self.stats.abi_rejects[err.kind()] += 1;
        err
    }

    /// Posts a message about `tid` (or a CPU event when `tid` is `None`)
    /// into the right queue of `eid`: bumps sequence numbers, updates
    /// status words, and wakes or notifies the consuming agent per the
    /// queue's wakeup configuration.
    pub(super) fn post(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: EnclaveId,
        ty: MsgType,
        tid: Option<Tid>,
        cpu: CpuId,
    ) {
        let Some(enclave) = self.enclaves.get_mut(eid).filter(|e| !e.destroyed) else {
            return;
        };
        let (qid, msg) = match tid {
            Some(t) => {
                let Some(info) = enclave.threads.get_mut(t) else {
                    return;
                };
                info.tseq += 1;
                info.pending_msgs += 1;
                let seq = info.tseq;
                info.status.publish(|_, f| (seq, f));
                (info.queue, Message::thread(ty, t, seq, cpu, k.now()))
            }
            None => (enclave.queue_for_cpu(cpu), Message::tick(cpu, k.now())),
        };
        let Some(Some(qs)) = enclave.queues.get(qid.0 as usize) else {
            return;
        };
        // A queue-overflow fault window rejects the push as if the ring
        // were full; otherwise try the ring for real.
        let forced_overflow = k.faults().queue_overflow_active(k.now());
        if forced_overflow {
            qs.queue.note_dropped();
        }
        if forced_overflow || qs.queue.push(msg).is_err() {
            self.stats.msgs_dropped += 1;
            k.trace()
                .emit(k.now(), cpu.0, || TraceEvent::QueueOverflow {
                    queue: qid.0,
                    ty: GhostStats::msg_idx(ty) as u8,
                    tid: msg.tid.0,
                    dropped_total: qs.queue.dropped(),
                });
            if let Some(info) = tid.and_then(|t| enclave.threads.get_mut(t)) {
                info.pending_msgs = info.pending_msgs.saturating_sub(1);
            }
            return;
        }
        self.stats.msgs_posted[GhostStats::msg_idx(ty)] += 1;
        k.trace().emit(k.now(), cpu.0, || TraceEvent::MsgEnqueued {
            queue: qid.0,
            ty: GhostStats::msg_idx(ty) as u8,
            tid: msg.tid.0,
            seq: msg.seq,
        });
        let enqueue_done = k.now() + k.costs().msg_enqueue;
        // Every arm raises the consuming agent's `Aseq` before waking it.
        let bump_aseq = |enclave: &Enclave, agent: Tid| {
            let slot = self.agent_enclave.get(agent);
            if let Some(slot) = slot.and_then(|&(_, acpu)| enclave.agents.get(acpu)) {
                slot.status.bump_seq();
            }
        };
        let wake = qs.wake;
        match wake {
            WakeMode::WakeAgent(agent) => {
                bump_aseq(enclave, agent);
                wake_if_blocked(k, agent, enqueue_done);
            }
            WakeMode::WakeEventCpuAgent => {
                // Per-core mode (§4.5): the CPU generating the message
                // wakes its own agent, which becomes the core's active
                // agent.
                if let Some(slot) = enclave.agents.get(cpu) {
                    let agent = slot.tid;
                    slot.status.bump_seq();
                    enclave.core_active.insert(core_key_of(k, cpu), agent);
                    wake_if_blocked(k, agent, enqueue_done);
                }
            }
            WakeMode::Polled => {
                // Centralized: notify the spinning global agent.
                if let Some(global) = enclave.global_agent {
                    bump_aseq(enclave, global);
                    kick_global(enclave, k, global, enqueue_done);
                }
            }
        }
    }

    /// Kicks the enclave's agents so the incoming policy runs promptly
    /// even with no fresh messages — right after an upgrade or respawn,
    /// the status-word reconstruction must happen before organic traffic
    /// would next wake an agent.
    pub(super) fn notify_agents(&mut self, k: &mut dyn GhostBackend, eid: EnclaveId) {
        let Some(enclave) = self.enclaves.get_mut(eid).filter(|e| !e.destroyed) else {
            return;
        };
        let at = k.now() + k.costs().msg_enqueue;
        match enclave.config.mode {
            AgentMode::Centralized => {
                if let Some(global) = enclave.global_agent {
                    kick_global(enclave, k, global, at);
                }
            }
            AgentMode::PerCpu => {
                // Tid order, as ever: wake order is event order in the DES.
                let mut agents = enclave.agent_tids();
                agents.sort();
                for a in agents {
                    wake_if_blocked(k, a, at);
                }
            }
            AgentMode::PerCore => {
                let slots: Vec<(CpuId, Tid)> =
                    enclave.agents.values().map(|a| (a.cpu, a.tid)).collect();
                for (cpu, tid) in slots {
                    let key = core_key_of(k, cpu);
                    let active = *enclave.core_active.or_insert(key, tid);
                    if active == tid {
                        wake_if_blocked(k, tid, at);
                    }
                }
            }
        }
    }
}
