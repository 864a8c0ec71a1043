//! Agents: spawning and wiring their pthreads (`AGENT_INIT()`), and
//! driving activations — drain the queue, run the policy, hand back the
//! outcome.

use super::{core_key_of, Core, GhostStats};
use crate::backend::GhostBackend;
use crate::enclave::{AgentMode, Enclave, EnclaveId, QueueId, WakeMode};
use crate::policy::PolicyCtx;
use crate::recovery::{RecoveryState, ThreadSnapshot};
use crate::status::{SW_ONCPU, SW_RUNNABLE};
use ghost_sim::agent::AgentOutcome;
use ghost_sim::thread::Tid;
use ghost_sim::time::Nanos;
use ghost_sim::topology::CpuId;
use ghost_trace::TraceEvent;

/// Gives the agent `tid` on `cpu` the queue that CPU's events go to: its
/// own in per-CPU mode, its physical core's (shared with the SMT sibling,
/// created by whichever sibling is wired first) in per-core mode.
pub(super) fn wire_cpu_queue(enclave: &mut Enclave, k: &dyn GhostBackend, cpu: CpuId, tid: Tid) {
    let qid = match enclave.config.mode {
        AgentMode::Centralized => return,
        AgentMode::PerCpu => enclave.add_queue(WakeMode::WakeAgent(tid)),
        AgentMode::PerCore => {
            let siblings = k.topo().core_cpus(cpu);
            let sibling_q = siblings
                .iter()
                .find_map(|c| enclave.cpu_queues.get(c).copied());
            sibling_q.unwrap_or_else(|| enclave.add_queue(WakeMode::WakeEventCpuAgent))
        }
    };
    enclave.cpu_queues.insert(cpu, qid);
}

impl Core {
    /// Spawns the agent pthread `ghost-<role>-e<eid>-c<cpu>` pinned to
    /// `cpu` (blocked) and registers it with the enclave.
    pub(super) fn spawn_agent(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: EnclaveId,
        cpu: CpuId,
        role: &str,
    ) -> Tid {
        let tid = k.spawn_agent(&format!("ghost-{role}-e{}-c{}", eid.0, cpu.0), cpu);
        self.agent_enclave.insert(tid, (eid, cpu));
        if let Some(enclave) = self.enclaves.get_mut(eid) {
            enclave.add_agent(cpu, tid);
        }
        tid
    }

    /// Spawns one pinned agent pthread per enclave CPU, configures queues
    /// for the enclave's [`AgentMode`], starts the global agent (if
    /// centralized), and arms the watchdog. The one spawn path of both
    /// backends; the wake it requests is deferred to the caller's settle.
    pub(super) fn spawn_agents(&mut self, k: &mut dyn GhostBackend, eid: EnclaveId) {
        let enclave = self.enclaves.get(eid).expect("enclave exists");
        let cpus: Vec<CpuId> = enclave.cpus.iter().collect();
        let agents: Vec<Tid> = cpus
            .iter()
            .map(|&cpu| self.spawn_agent(k, eid, cpu, "agent"))
            .collect();
        let enclave = self.enclaves.get_mut(eid).expect("enclave exists");
        for (&cpu, &tid) in cpus.iter().zip(&agents) {
            wire_cpu_queue(enclave, k, cpu, tid);
        }
        let default_wake = match enclave.config.mode {
            AgentMode::Centralized => {
                enclave.global_agent = Some(agents[0]);
                WakeMode::Polled
            }
            // The default queue wakes the first agent, which
            // redistributes new threads via ASSOCIATE_QUEUE.
            AgentMode::PerCpu => WakeMode::WakeAgent(agents[0]),
            // New threads are associated with the default queue; the agent
            // of the event's CPU is woken for those messages too, and
            // every activation drains the default queue alongside its
            // core queue.
            AgentMode::PerCore => WakeMode::WakeEventCpuAgent,
        };
        if let Some(qs) = enclave.queue_mut(enclave.default_queue) {
            qs.wake = default_wake;
        }
        if let Some(timeout) = enclave.config.watchdog_timeout {
            k.arm_driver_timer(k.now() + timeout / 2, eid.0 as u64);
        }
        if let Some(global) = enclave.global_agent {
            k.wake(global);
        }
    }

    /// One agent activation on `cpu`: pick the queues this agent drains
    /// for its enclave's mode, or vacate at once if it is not the active
    /// agent there.
    pub(super) fn run_agent(
        &mut self,
        k: &mut dyn GhostBackend,
        tid: Tid,
        cpu: CpuId,
    ) -> AgentOutcome {
        const VACATE: AgentOutcome = AgentOutcome::Block { busy: 0 };
        let Some(&(eid, agent_cpu)) = self.agent_enclave.get(tid) else {
            return VACATE;
        };
        debug_assert_eq!(cpu, agent_cpu, "agents are pinned");
        let Some(enclave) = self.enclaves.get_mut(eid).filter(|e| !e.destroyed) else {
            return VACATE;
        };
        // A hang fault window: the agent occupies its CPU doing no
        // scheduling work until the window closes (a wedged agent, §3.4 —
        // the watchdog is the backstop if the hang outlasts its timeout).
        if let Some(until) = k.faults().agent_hang_until(cpu, k.now()) {
            return AgentOutcome::Spin {
                busy: until.saturating_sub(k.now()),
                next: Some(until),
            };
        }
        let default_q = enclave.default_queue;
        let own = enclave.queue_for_cpu(agent_cpu);
        let both = [default_q, own];
        let (qids, spinning): (&[QueueId], bool) = match enclave.config.mode {
            AgentMode::Centralized => {
                if enclave.global_agent != Some(tid) {
                    // Inactive agents immediately vacate their CPUs.
                    return VACATE;
                }
                // Hot handoff: a CFS thread wants this CPU (§3.3).
                if k.cpu(cpu).cfs_queued > 0 {
                    let successor = enclave
                        .cpus
                        .iter()
                        .filter(|&c| c != cpu)
                        .find(|&c| k.cpu(c).is_idle())
                        .and_then(|c| enclave.agents.get(c).map(|a| a.tid));
                    if let Some(succ) = successor {
                        enclave.global_agent = Some(succ);
                        self.stats.handoffs += 1;
                        k.wake(succ);
                        return VACATE;
                    }
                    // No idle CPU to hand off to: keep spinning (the
                    // paper's agent also stays if it cannot find one).
                }
                (&both[..1], true)
            }
            AgentMode::PerCpu => {
                // An agent drains its own CPU's queue; the agent that the
                // default queue wakes also owns new-thread traffic on it
                // (and redistributes via ASSOCIATE_QUEUE).
                let drains_default = enclave
                    .queue(default_q)
                    .is_some_and(|qs| qs.wake == WakeMode::WakeAgent(tid));
                if drains_default && own != default_q {
                    (&both[..], false)
                } else if drains_default {
                    (&both[..1], false)
                } else {
                    (&both[1..], false)
                }
            }
            AgentMode::PerCore => {
                if enclave.core_active.get(core_key_of(k, agent_cpu)) != Some(&tid) {
                    return VACATE;
                }
                // Drain the shared default queue (new-thread traffic)
                // plus this core's own queue.
                let qids = if own == default_q {
                    &both[..1]
                } else {
                    &both[..]
                };
                (qids, false)
            }
        };
        let Some((busy, wakeup)) = self.activate(k, eid, tid, agent_cpu, qids) else {
            return VACATE;
        };
        // A slow-resume fault window stretches the activation's charged
        // time (a GC pause or fault storm in the agent process).
        let busy = busy.saturating_mul(k.faults().agent_slow_factor(cpu, k.now()));
        if spinning {
            AgentOutcome::Spin { busy, next: wakeup }
        } else {
            AgentOutcome::Block { busy }
        }
    }

    /// One activation: drain `qids`, feed messages and a schedule() call
    /// to the policy. Returns the busy time charged and when the policy
    /// asked to run next (honoured for a spinning agent).
    fn activate(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: EnclaveId,
        agent_tid: Tid,
        agent_cpu: CpuId,
        qids: &[QueueId],
    ) -> Option<(Nanos, Option<Nanos>)> {
        let mut policy = self.policies[eid.0 as usize].take()?;
        let Some(enclave) = self.enclaves.get_mut(eid) else {
            self.policies[eid.0 as usize] = Some(policy);
            return None;
        };
        enclave.loop_armed = false;
        // Core-lending notifications staged by lend/reclaim, delivered at
        // the next activation (empty on every non-lending run, so digests
        // of single-enclave scenarios are untouched).
        let grants = std::mem::take(&mut enclave.pending_grants);
        let revokes = std::mem::take(&mut enclave.pending_revokes);
        let aseq = enclave.agents.get(agent_cpu).map_or(0, |a| a.status.seq());
        k.trace()
            .emit(k.now(), agent_cpu.0, || TraceEvent::AgentActivationBegin {
                cpu: agent_cpu.0,
                agent_tid: agent_tid.0,
                aseq,
            });
        let mut msgs = std::mem::take(&mut self.drain_buf);
        msgs.clear();
        for &qid in qids {
            let start = msgs.len();
            enclave.drain_queue_into(qid, &mut msgs);
            if k.trace().is_enabled() {
                for m in &msgs[start..] {
                    k.trace()
                        .emit(k.now(), agent_cpu.0, || TraceEvent::MsgDequeued {
                            queue: qid.0,
                            ty: GhostStats::msg_idx(m.ty) as u8,
                            tid: m.tid.0,
                            seq: m.seq,
                        });
                }
            }
        }
        // §3.4 state reconstruction: an incoming agent (staged upgrade or
        // respawned standby) rebuilds its view by scanning the enclave's
        // status-word table before consuming any message. The scan runs
        // under the Aseq barrier raised at promotion time, so commits
        // prepared against the predecessor's view fail `ESTALE`; stale
        // in-flight messages are discarded downstream by seqnum.
        let scan: Option<Vec<ThreadSnapshot>> = if enclave.needs_reconstruct {
            enclave.needs_reconstruct = false;
            let mut snaps: Vec<ThreadSnapshot> = enclave
                .threads
                .iter()
                .map(|(t, info)| {
                    let th = &k.thread(t);
                    ThreadSnapshot {
                        tid: t,
                        seq: info.status.seq(),
                        runnable: info.status.has_flags(SW_RUNNABLE),
                        on_cpu: info.status.has_flags(SW_ONCPU),
                        last_cpu: th.last_cpu.unwrap_or(CpuId(0)),
                        cookie: th.cookie,
                    }
                })
                .collect();
            // Deterministic scan order (the slab iterates in handle order).
            snaps.sort_by_key(|s| s.tid.0);
            Some(snaps)
        } else {
            None
        };
        let smt_scale = k.sibling_busy(agent_cpu);
        let mut ctx = PolicyCtx {
            k,
            enclave,
            stats: &mut self.stats,
            agent_cpu,
            agent_tid,
            busy: 0,
            smt_scale,
            wakeup_request: None,
            scratch: &mut self.commit_scratch,
        };
        ctx.stats.activations += 1;
        if msgs.is_empty() {
            ctx.stats.empty_activations += 1;
        }
        if let Some(snaps) = &scan {
            let cost = ctx.k.costs().reconstruction_scan(snaps.len() as u64);
            ctx.charge(cost);
            policy.on_reconstruct(snaps, &mut ctx);
            ctx.stats.reconstructions += 1;
            let threads = snaps.len() as u32;
            let at = ctx.k.now() + ctx.busy;
            ctx.k
                .trace()
                .emit(at, agent_cpu.0, || TraceEvent::ReconstructDone {
                    enclave: eid.0,
                    threads,
                    agent_tid: agent_tid.0,
                });
        }
        // Revokes before grants: a policy must stop targeting a departed
        // CPU before it starts placing work on a fresh one.
        for cpu in revokes {
            policy.on_cpu_revoke(cpu, &mut ctx);
        }
        for cpu in grants {
            policy.on_cpu_grant(cpu, &mut ctx);
        }
        let dequeue = ctx.k.costs().msg_dequeue;
        for m in &msgs {
            // Consuming a message posted by a remote-socket CPU drags the
            // queue slot and status-word cachelines across the
            // interconnect.
            let cost = if ctx.k.topo().same_socket(m.cpu, agent_cpu) {
                dequeue
            } else {
                ctx.k.costs().cross_socket_scaled(dequeue)
            };
            ctx.charge(cost);
            policy.on_msg(m, &mut ctx);
        }
        policy.schedule(&mut ctx);
        let busy = ctx.busy;
        let wakeup = ctx.wakeup_request.map(|at| at.max(ctx.k.now() + busy));
        ctx.stats.agent_busy_ns += busy;
        self.policies[eid.0 as usize] = Some(policy);
        if let Some(e) = self.enclaves.get_mut(eid).filter(|_| scan.is_some()) {
            // A reconstruction just ran; if no stashed thread or pending
            // respawn remains, the degraded-mode failover is complete.
            if e.recovery.as_ref().is_some_and(RecoveryState::finished) {
                e.recovery = None;
                self.stats.recoveries += 1;
            }
        }
        // Byzantine strike budget: commits rejected during this activation
        // charged strikes inline (`reject_txn`); if the budget is now
        // exhausted, quarantine the enclave. All teardown side effects go
        // through the kernel's deferred-op buffers, so destroying the
        // enclave — and killing the very agent being activated — is safe
        // from inside its own activation.
        if self
            .enclaves
            .get(eid)
            .is_some_and(Enclave::strikes_exhausted)
        {
            self.quarantine(k, eid);
        }
        k.trace().emit(k.now() + busy, agent_cpu.0, || {
            TraceEvent::AgentActivationEnd {
                cpu: agent_cpu.0,
                agent_tid: agent_tid.0,
                msgs: msgs.len() as u32,
            }
        });
        self.drain_buf = msgs;
        Some((busy, wakeup))
    }
}
