//! The Agent class (top priority) and a simple FIFO real-time class.

use crate::class::SchedClass;
use crate::kernel::KernelState;
use crate::thread::Tid;
use crate::topology::CpuId;
use std::collections::VecDeque;

/// The scheduling class hosting ghOSt agent threads.
///
/// Per §3.3 of the paper, "ghOSt assigns all agents a high kernel priority
/// ... no other thread in the machine, whether ghOSt or non-ghOSt, can
/// preempt agent-threads". Agents are pinned: each agent thread's affinity
/// names exactly one CPU, and the class queues it there. Agents are never
/// tick-preempted; they yield by themselves.
pub struct AgentClass {
    rq: Vec<VecDeque<Tid>>,
}

impl AgentClass {
    /// Creates the class for a machine with `num_cpus` CPUs.
    pub fn new(num_cpus: usize) -> Self {
        Self {
            rq: vec![VecDeque::new(); num_cpus],
        }
    }

    fn home_cpu(tid: Tid, k: &KernelState) -> CpuId {
        k.affinity(tid)
            .first()
            .expect("agent thread must have a non-empty affinity")
    }
}

impl SchedClass for AgentClass {
    fn name(&self) -> &'static str {
        "agent"
    }

    fn enqueue(&mut self, tid: Tid, k: &mut KernelState) -> Option<CpuId> {
        let cpu = Self::home_cpu(tid, k);
        self.rq[cpu.index()].push_back(tid);
        Some(cpu)
    }

    fn dequeue(&mut self, tid: Tid, k: &mut KernelState) {
        let cpu = Self::home_cpu(tid, k);
        self.rq[cpu.index()].retain(|&t| t != tid);
    }

    fn pick_next(&mut self, cpu: CpuId, _k: &mut KernelState) -> Option<Tid> {
        self.rq[cpu.index()].pop_front()
    }

    fn put_prev(&mut self, tid: Tid, cpu: CpuId, still_runnable: bool, _k: &mut KernelState) {
        if still_runnable {
            self.rq[cpu.index()].push_back(tid);
        }
    }

    fn has_runnable(&self, cpu: CpuId, _k: &KernelState) -> bool {
        !self.rq[cpu.index()].is_empty()
    }
}

/// A minimal SCHED_FIFO-style real-time class: per-CPU FIFO runqueues,
/// wakeup placement on the previous CPU if free, otherwise the first idle
/// allowed CPU. `ghost-baselines` replaces this slot with MicroQuanta for
/// the Snap experiments.
pub struct RtFifoClass {
    rq: Vec<VecDeque<Tid>>,
}

impl RtFifoClass {
    /// Creates the class for a machine with `num_cpus` CPUs.
    pub fn new(num_cpus: usize) -> Self {
        Self {
            rq: vec![VecDeque::new(); num_cpus],
        }
    }

    fn select_cpu(&self, tid: Tid, k: &KernelState) -> CpuId {
        let affinity = k.affinity(tid);
        if let Some(prev) = k.threads[tid.index()].last_cpu {
            if affinity.contains(prev) && k.cpus[prev.index()].is_idle() {
                return prev;
            }
        }
        for c in affinity.iter() {
            if k.cpus[c.index()].is_idle() {
                return c;
            }
        }
        // All busy: shortest queue among allowed CPUs.
        affinity
            .iter()
            .min_by_key(|c| self.rq[c.index()].len())
            .expect("thread must have a non-empty affinity")
    }
}

impl SchedClass for RtFifoClass {
    fn name(&self) -> &'static str {
        "rt-fifo"
    }

    fn enqueue(&mut self, tid: Tid, k: &mut KernelState) -> Option<CpuId> {
        let cpu = self.select_cpu(tid, k);
        self.rq[cpu.index()].push_back(tid);
        Some(cpu)
    }

    fn dequeue(&mut self, tid: Tid, _k: &mut KernelState) {
        for q in &mut self.rq {
            q.retain(|&t| t != tid);
        }
    }

    fn pick_next(&mut self, cpu: CpuId, _k: &mut KernelState) -> Option<Tid> {
        self.rq[cpu.index()].pop_front()
    }

    fn put_prev(&mut self, tid: Tid, cpu: CpuId, still_runnable: bool, _k: &mut KernelState) {
        if still_runnable {
            self.rq[cpu.index()].push_back(tid);
        }
    }

    fn has_runnable(&self, cpu: CpuId, _k: &KernelState) -> bool {
        !self.rq[cpu.index()].is_empty()
    }
}
