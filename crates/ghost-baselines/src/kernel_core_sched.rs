//! In-kernel secure core scheduling (§4.5 baseline, Table 4): a
//! cookie-aware fair class that enforces the same-VM-per-core invariant
//! inside the kernel, replacing CFS for VM threads.
//!
//! Implemented as per-core round-robin with cookie matching: when a CPU
//! picks, it may only choose a thread whose cookie matches whatever the
//! SMT sibling is running; if nothing matches, the CPU stays idle
//! (force-idle) — exactly the throughput cost Table 4 quantifies.

use ghost_sim::class::SchedClass;
use ghost_sim::kernel::KernelState;
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::{Nanos, MILLIS};
use ghost_sim::topology::CpuId;
use std::collections::VecDeque;

/// The in-kernel core-scheduling class.
pub struct KernelCoreSched {
    /// Round-robin slice.
    pub slice: Nanos,
    /// Global runqueue (simple and fair at the VM granularity).
    rq: VecDeque<Tid>,
    /// Force-idle picks (sibling cookie mismatch), the security cost.
    pub force_idle: u64,
}

impl KernelCoreSched {
    /// Creates the class with a default 3 ms slice.
    pub fn new() -> Self {
        Self {
            slice: 3 * MILLIS,
            rq: VecDeque::new(),
            force_idle: 0,
        }
    }

    /// The cookie running on `cpu`'s sibling, if any core-sched thread
    /// is there.
    fn sibling_cookie(&self, cpu: CpuId, k: &KernelState) -> Option<u64> {
        let sib = k.topo.sibling(cpu)?;
        let cur = k.cpus[sib.index()].current?;
        let t = &k.threads[cur.index()];
        (t.class == ghost_sim::CLASS_CFS).then_some(t.cookie)
    }
}

impl Default for KernelCoreSched {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedClass for KernelCoreSched {
    fn name(&self) -> &'static str {
        "kernel-core-sched"
    }

    fn enqueue(&mut self, tid: Tid, k: &mut KernelState) -> Option<CpuId> {
        self.rq.push_back(tid);
        // Wake placement: an idle CPU whose sibling runs a matching
        // cookie (or is idle).
        let cookie = k.threads[tid.index()].cookie;
        let affinity = *k.affinity(tid);
        for c in affinity.iter() {
            if !k.cpus[c.index()].is_idle() {
                continue;
            }
            match self.sibling_cookie(c, k) {
                Some(sc) if sc != cookie => continue,
                _ => return Some(c),
            }
        }
        affinity.first()
    }

    fn dequeue(&mut self, tid: Tid, _k: &mut KernelState) {
        self.rq.retain(|&t| t != tid);
    }

    fn pick_next(&mut self, cpu: CpuId, k: &mut KernelState) -> Option<Tid> {
        let constraint = self.sibling_cookie(cpu, k);
        let pos = self.rq.iter().position(|&t| {
            let th = &k.threads[t.index()];
            k.affinity(t).contains(cpu)
                && th.state == ThreadState::Runnable
                && constraint.is_none_or(|c| th.cookie == c)
        });
        match pos {
            Some(i) => self.rq.remove(i),
            None => {
                if !self.rq.is_empty() && constraint.is_some() {
                    // Runnable work exists but would violate the core
                    // invariant: force-idle.
                    self.force_idle += 1;
                }
                None
            }
        }
    }

    fn put_prev(&mut self, tid: Tid, _cpu: CpuId, still_runnable: bool, _k: &mut KernelState) {
        if still_runnable {
            self.rq.push_back(tid);
        }
    }

    fn on_tick(&mut self, _cpu: CpuId, current: Tid, k: &mut KernelState) -> bool {
        if self.rq.is_empty() {
            return false;
        }
        let ran = k.now.saturating_sub(k.threads[current.index()].stint_start);
        ran >= self.slice
    }

    fn on_tick_all(&mut self, cpu: CpuId, k: &mut KernelState) {
        // Idle CPUs re-check: sibling occupancy changes may have made a
        // queued thread eligible.
        if k.cpus[cpu.index()].is_idle() && !self.rq.is_empty() {
            k.request_resched(cpu);
        }
    }

    fn has_runnable(&self, cpu: CpuId, k: &KernelState) -> bool {
        self.rq.iter().any(|&t| k.affinity(t).contains(cpu))
    }

    fn on_detach(&mut self, tid: Tid, k: &mut KernelState) {
        self.dequeue(tid, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghost_sim::app::{App, Next};
    use ghost_sim::kernel::{Kernel, KernelConfig, ThreadSpec};
    use ghost_sim::time::SECS;
    use ghost_sim::topology::Topology;
    use ghost_sim::CLASS_CFS;

    struct Spin;
    impl App for Spin {
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn name(&self) -> &str {
            "spin"
        }
        fn on_timer(&mut self, _key: u64, _k: &mut KernelState) {}
        fn on_segment_end(&mut self, _tid: Tid, _k: &mut KernelState) -> Next {
            Next::Run { dur: 10 * MILLIS }
        }
    }

    /// Two VMs, one SMT core: threads of different VMs must never share
    /// the core; each VM gets ~half the wall time at full (non-SMT) rate.
    #[test]
    fn different_vms_never_share_a_core() {
        let mut kernel = Kernel::new(Topology::new("smt", 1, 1, 2, 1), KernelConfig::default());
        kernel.install_class(CLASS_CFS, Box::new(KernelCoreSched::new()));
        let app = kernel.state.next_app_id();
        let a = kernel.spawn(
            ThreadSpec::workload("vm-a", &kernel.state.topo)
                .app(app)
                .cookie(1),
        );
        let b = kernel.spawn(
            ThreadSpec::workload("vm-b", &kernel.state.topo)
                .app(app)
                .cookie(2),
        );
        kernel.add_app(Box::new(Spin));
        kernel.assign_and_wake(a, 10 * MILLIS);
        kernel.assign_and_wake(b, 10 * MILLIS);
        kernel.run_until(SECS);
        for t in [a, b] {
            let th = kernel.state.thread(t);
            // Never co-ran with the other VM → full-rate execution.
            let rate = th.total_work as f64 / th.total_oncpu.max(1) as f64;
            assert!(rate > 0.95, "{t} ran SMT-degraded: rate {rate}");
            // Fair rotation: roughly half the second each.
            let share = th.total_oncpu as f64 / SECS as f64;
            assert!((0.35..=0.65).contains(&share), "share {share}");
        }
    }

    /// Same-VM threads *do* share the core (both siblings busy).
    #[test]
    fn same_vm_threads_share_the_core() {
        let mut kernel = Kernel::new(Topology::new("smt", 1, 1, 2, 1), KernelConfig::default());
        kernel.install_class(CLASS_CFS, Box::new(KernelCoreSched::new()));
        let app = kernel.state.next_app_id();
        let a = kernel.spawn(
            ThreadSpec::workload("vm-a0", &kernel.state.topo)
                .app(app)
                .cookie(1),
        );
        let b = kernel.spawn(
            ThreadSpec::workload("vm-a1", &kernel.state.topo)
                .app(app)
                .cookie(1),
        );
        kernel.add_app(Box::new(Spin));
        kernel.assign_and_wake(a, 10 * MILLIS);
        kernel.assign_and_wake(b, 10 * MILLIS);
        kernel.run_until(SECS);
        for t in [a, b] {
            let th = kernel.state.thread(t);
            let share = th.total_oncpu as f64 / SECS as f64;
            assert!(share > 0.9, "{t} should run ~continuously: {share}");
            let rate = th.total_work as f64 / th.total_oncpu as f64;
            assert!(rate < 0.75, "{t} should see SMT contention: {rate}");
        }
    }
}
