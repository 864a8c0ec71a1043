//! The scheduling-class hooks: what the kernel tells ghOSt when a thread
//! it manages wakes, leaves a CPU, moves class, or when a CPU asks what
//! to run next.

use super::{last_cpu, Core};
use crate::backend::GhostBackend;
use crate::enclave::ThreadInfo;
use crate::msg::MsgType;
use crate::status::{StatusWord, SW_ATTACHED, SW_ONCPU, SW_RUNNABLE};
use ghost_sim::class::{OffCpuReason, CLASS_CFS};
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::topology::CpuId;
use ghost_trace::TraceEvent;

impl Core {
    /// A ghOSt thread became runnable: tell its agent (`THREAD_WAKEUP`).
    pub(super) fn enqueue(&mut self, k: &mut dyn GhostBackend, tid: Tid) {
        let Some(&eid) = self.thread_enclave.get(tid) else {
            return;
        };
        if let Some(info) = self.enclaves.get(eid).and_then(|e| e.threads.get(tid)) {
            info.status.set_flags(SW_RUNNABLE);
        }
        let cpu = last_cpu(k, tid);
        self.post(k, eid, MsgType::ThreadWakeup, Some(tid), cpu);
    }

    /// A runnable thread is leaving the class (kill or class move): drop
    /// any committed slot or PNT offer referencing it.
    pub(super) fn dequeue(&mut self, tid: Tid) {
        let eid = self.thread_enclave.get(tid).copied();
        if let Some(enclave) = eid.and_then(|eid| self.enclaves.get_mut(eid)) {
            enclave.unschedule(tid);
        }
    }

    pub(super) fn pick_next(&mut self, k: &mut dyn GhostBackend, cpu: CpuId) -> Option<Tid> {
        let eid = self.enclave_of_cpu(cpu)?;
        let now = k.now();
        let node = k.topo().info(cpu).socket as usize;
        let enclave = self.enclaves.get_mut(eid).filter(|e| !e.destroyed)?;
        // Borrowed, not moved out: a thread snapshot is a 168-byte copy.
        let runnable_here = |k: &dyn GhostBackend, tid: Tid| {
            let th = k.thread(tid);
            matches!(&th, Some(t) if t.state == ThreadState::Runnable && t.affinity.contains(cpu))
        };
        let mark_oncpu = |info: Option<&ThreadInfo>| {
            if let Some(info) = info {
                info.status
                    .publish(|s, f| (s, (f | SW_ONCPU) & !SW_RUNNABLE));
            }
        };
        // Committed transaction for this CPU?
        if let Some(slot) = enclave.committed.get(cpu).copied() {
            if slot.arm_at > now {
                // The commit's IPI has not logically arrived yet.
                return None;
            }
            enclave.recall(cpu);
            if runnable_here(k, slot.tid) {
                mark_oncpu(enclave.threads.get(slot.tid));
                return Some(slot.tid);
            }
            // Slot target went away between commit and pick: fall
            // through (maybe PNT has something).
        }
        // BPF pick_next_task fast path.
        let pnt = enclave.pnt.as_mut()?;
        loop {
            let Some(cand) = pnt.pop_for(node) else {
                k.trace()
                    .emit(now, cpu.0, || TraceEvent::PntMiss { cpu: cpu.0 });
                return None;
            };
            if enclave.threads.get(cand).is_some_and(|i| !i.picked) && runnable_here(k, cand) {
                mark_oncpu(enclave.threads.get(cand));
                self.stats.pnt_picks += 1;
                k.trace().emit(now, cpu.0, || TraceEvent::PntHit {
                    cpu: cpu.0,
                    tid: cand.0,
                });
                return Some(cand);
            }
        }
    }

    /// A thread came off `cpu`: publish its new state and tell the agent.
    pub(super) fn put_prev(
        &mut self,
        k: &mut dyn GhostBackend,
        tid: Tid,
        cpu: CpuId,
        reason: OffCpuReason,
    ) {
        let Some(&eid) = self.thread_enclave.get(tid) else {
            return;
        };
        let (ty, runnable) = match reason {
            OffCpuReason::Preempt => (MsgType::ThreadPreempted, true),
            OffCpuReason::Yield => (MsgType::ThreadYield, true),
            OffCpuReason::Block => (MsgType::ThreadBlocked, false),
            OffCpuReason::Exit => (MsgType::ThreadDead, false),
        };
        if let Some(info) = self.enclaves.get(eid).and_then(|e| e.threads.get(tid)) {
            info.status.publish(|s, f| {
                let f = f & !(SW_ONCPU | SW_RUNNABLE);
                (s, if runnable { f | SW_RUNNABLE } else { f })
            });
        }
        self.post(k, eid, ty, Some(tid), cpu);
        if reason == OffCpuReason::Exit {
            // Drop the registry entry now so the detach that follows the
            // exit does not double-post THREAD_DEAD.
            if let Some(enclave) = self.enclaves.get_mut(eid) {
                enclave.threads.remove(tid);
            }
            self.thread_enclave.remove(tid);
        }
    }

    /// Timer tick on `cpu`: a `TIMER_TICK` message if the owning enclave
    /// asked for them.
    pub(super) fn tick(&mut self, k: &mut dyn GhostBackend, cpu: CpuId) {
        let Some(eid) = self.enclave_of_cpu(cpu) else {
            return;
        };
        let deliver = self
            .enclaves
            .get(eid)
            .is_some_and(|e| !e.destroyed && e.config.deliver_ticks);
        if deliver {
            self.post(k, eid, MsgType::TimerTick, None, cpu);
        }
    }

    /// True if the enclave owning `cpu` has anything it could run.
    pub(super) fn has_runnable(&self, k: &dyn GhostBackend, cpu: CpuId) -> bool {
        let Some(eid) = self.enclave_of_cpu(cpu) else {
            return false;
        };
        self.enclaves.get(eid).is_some_and(|e| {
            e.committed.contains(cpu)
                || e.pnt.as_ref().is_some_and(|p| !p.is_empty())
                || e.threads
                    .tids()
                    .any(|t| k.tracked(t).state == ThreadState::Runnable)
        })
    }

    /// A thread entered the ghOSt class: `THREAD_CREATED`, or a silent
    /// reclaim when it returns from a degraded-mode CFS excursion.
    pub(super) fn attach(&mut self, k: &mut dyn GhostBackend, tid: Tid) {
        let Some(eid) = self.pending_attach.remove(tid) else {
            panic!(
                "thread {tid} moved into the ghOSt class without an enclave; \
                 use EnclaveHandle::attach_thread"
            );
        };
        self.thread_enclave.insert(tid, eid);
        let Some(enclave) = self.enclaves.get_mut(eid) else {
            return;
        };
        if enclave.destroyed {
            // The enclave died between the attach request and the class
            // move landing: send the thread straight back to CFS.
            self.thread_enclave.remove(tid);
            k.move_to_class(tid, CLASS_CFS);
            return;
        }
        // Reclaim path: a degraded thread returning from its transient
        // CFS excursion gets its preserved `ThreadInfo` back — `Tseq`
        // stays monotone, the status word survives — and posts no
        // `THREAD_CREATED`: the standby's status-word scan absorbs it.
        let stashed = enclave
            .recovery
            .as_mut()
            .and_then(|r| r.stashed.remove(tid));
        if let Some(info) = stashed {
            let state = k.tracked(tid).state;
            info.status.publish(|s, f| {
                let f = f & !(SW_ONCPU | SW_RUNNABLE);
                match state {
                    ThreadState::Runnable => (s, f | SW_RUNNABLE),
                    ThreadState::Running => (s, f | SW_ONCPU),
                    _ => (s, f),
                }
            });
            enclave.threads.insert(tid, info);
            let cpu = last_cpu(k, tid);
            k.trace()
                .emit(k.now(), cpu.0, || TraceEvent::ThreadReclaimed {
                    enclave: eid.0,
                    tid: tid.0,
                });
            return;
        }
        let status = StatusWord::new();
        status.set_flags(SW_ATTACHED);
        enclave.threads.insert(
            tid,
            ThreadInfo {
                queue: enclave.default_queue,
                tseq: 0,
                pending_msgs: 0,
                status,
                picked: false,
            },
        );
        let cpu = last_cpu(k, tid);
        self.post(k, eid, MsgType::ThreadCreated, Some(tid), cpu);
    }

    /// A thread left the ghOSt class. Departure is indistinguishable from
    /// death for the policy: `THREAD_DEAD`.
    pub(super) fn detach(&mut self, k: &mut dyn GhostBackend, tid: Tid) {
        let Some(eid) = self.thread_enclave.remove(tid) else {
            return; // Already cleaned (death path).
        };
        if let Some(enclave) = self.enclaves.get_mut(eid) {
            enclave.unschedule(tid);
        }
        let cpu = last_cpu(k, tid);
        self.post(k, eid, MsgType::ThreadDead, Some(tid), cpu);
        if let Some(enclave) = self.enclaves.get_mut(eid) {
            enclave.threads.remove(tid);
            enclave.hints.remove(tid);
        }
    }

    /// A thread's affinity mask changed (`THREAD_AFFINITY`): a committed
    /// slot the new mask forbids is recalled first.
    pub(super) fn affinity_changed(&mut self, k: &mut dyn GhostBackend, tid: Tid) {
        let Some(&eid) = self.thread_enclave.get(tid) else {
            return;
        };
        let t = k.tracked(tid);
        if let Some(enclave) = self.enclaves.get_mut(eid) {
            let stale: Vec<CpuId> = enclave
                .committed
                .iter()
                .filter(|&(c, slot)| slot.tid == tid && !t.affinity.contains(c))
                .map(|(c, _)| c)
                .collect();
            for c in stale {
                enclave.recall(c);
            }
        }
        let cpu = last_cpu(k, tid);
        self.post(k, eid, MsgType::ThreadAffinity, Some(tid), cpu);
    }
}
