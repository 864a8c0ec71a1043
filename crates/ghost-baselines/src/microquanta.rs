//! MicroQuanta (§4.3): "a custom, soft real-time scheduler that
//! guarantees that for any period, e.g., 1 ms, at most a quanta of time,
//! e.g., 0.9 ms, is given to each packet processing worker. This policy
//! ensures worker threads receive runtime while not starving other
//! threads. However, it also leads to networking blackouts of up to
//! 0.1 ms."
//!
//! Installed at the kernel's RT slot (above CFS, below agents). Each
//! managed thread accrues runtime within the current period; once the
//! quanta is spent the thread is throttled until the next period
//! boundary — the blackout the paper measures against.

use ghost_sim::class::SchedClass;
use ghost_sim::kernel::KernelState;
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MILLIS};
use ghost_sim::topology::CpuId;
use std::collections::{HashMap, VecDeque};

/// Accounting period.
const PERIOD: Nanos = MILLIS;
/// CPU time each thread may use per period.
const QUANTA: Nanos = 900_000;

#[derive(Debug, Clone, Copy, Default)]
struct Account {
    /// Index of the period the snapshot belongs to.
    period_idx: u64,
    /// The thread's cumulative on-CPU time at the start of that period;
    /// usage within the period is measured against this snapshot, so
    /// accounting is exact regardless of how the thread's on-CPU time is
    /// sliced into segments.
    oncpu_at_period_start: Nanos,
    /// Throttled until the period ends.
    throttled: bool,
}

/// The MicroQuanta scheduling class.
pub struct MicroQuanta {
    rq: Vec<VecDeque<Tid>>,
    accounts: HashMap<Tid, Account>,
    /// Throttle events (blackouts entered).
    pub throttles: u64,
}

impl MicroQuanta {
    /// Creates the class for `num_cpus` CPUs.
    pub fn new(num_cpus: usize) -> Self {
        Self {
            rq: vec![VecDeque::new(); num_cpus],
            accounts: HashMap::new(),
            throttles: 0,
        }
    }

    /// Rolls the account into the period containing `now` (unthrottling
    /// at the boundary) and returns the runtime used in that period.
    fn used_in_period(&mut self, tid: Tid, now: Nanos, cumulative_oncpu: Nanos) -> Nanos {
        let idx = now / PERIOD;
        let acc = self.accounts.entry(tid).or_default();
        if acc.period_idx != idx {
            acc.period_idx = idx;
            acc.oncpu_at_period_start = cumulative_oncpu;
            acc.throttled = false;
        }
        cumulative_oncpu.saturating_sub(acc.oncpu_at_period_start)
    }

    /// Cumulative on-CPU time including the in-progress stint.
    fn cumulative_oncpu(k: &KernelState, tid: Tid) -> Nanos {
        let t = &k.threads[tid.index()];
        let running = t.state == ghost_sim::thread::ThreadState::Running;
        t.total_oncpu + if running { k.now - t.stint_start } else { 0 }
    }

    fn throttled(&self, tid: Tid) -> bool {
        self.accounts.get(&tid).is_some_and(|a| a.throttled)
    }

    fn select_cpu(&self, tid: Tid, k: &KernelState) -> CpuId {
        let t = &k.threads[tid.index()];
        if let Some(prev) = t.last_cpu {
            if t.affinity.contains(prev) && k.cpus[prev.index()].is_idle() {
                return prev;
            }
        }
        for c in t.affinity.iter() {
            if k.cpus[c.index()].is_idle() {
                return c;
            }
        }
        t.affinity
            .iter()
            .min_by_key(|c| self.rq[c.index()].len())
            .expect("non-empty affinity")
    }

    /// Next period boundary after `now`.
    fn next_boundary(&self, now: Nanos) -> Nanos {
        (now / PERIOD + 1) * PERIOD
    }
}

impl SchedClass for MicroQuanta {
    fn name(&self) -> &'static str {
        "microquanta"
    }

    fn enqueue(&mut self, tid: Tid, k: &mut KernelState) -> Option<CpuId> {
        let cum = Self::cumulative_oncpu(k, tid);
        self.used_in_period(tid, k.now, cum);
        if self.throttled(tid) {
            // Wakes during a blackout wait for the period boundary.
            let at = self.next_boundary(k.now);
            let cpu = self.select_cpu(tid, k);
            self.rq[cpu.index()].push_back(tid);
            k.send_ipi(cpu, at);
            return None; // Suppress immediate preemption checks.
        }
        let cpu = self.select_cpu(tid, k);
        self.rq[cpu.index()].push_back(tid);
        Some(cpu)
    }

    fn dequeue(&mut self, tid: Tid, _k: &mut KernelState) {
        for q in &mut self.rq {
            q.retain(|&t| t != tid);
        }
    }

    fn pick_next(&mut self, cpu: CpuId, k: &mut KernelState) -> Option<Tid> {
        let now = k.now;
        let len = self.rq[cpu.index()].len();
        for _ in 0..len {
            let tid = self.rq[cpu.index()].pop_front()?;
            let cum = Self::cumulative_oncpu(k, tid);
            let used = self.used_in_period(tid, now, cum);
            if self.throttled(tid) || used >= QUANTA {
                self.rq[cpu.index()].push_back(tid);
                continue;
            }
            // Precise throttling (the real MicroQuanta uses an hrtimer):
            // force a scheduler pass when the quanta will be exhausted.
            let remaining = QUANTA - used;
            k.send_ipi(cpu, now + remaining + k.costs.ctx_switch_cfs);
            return Some(tid);
        }
        None
    }

    fn put_prev(&mut self, tid: Tid, cpu: CpuId, still_runnable: bool, k: &mut KernelState) {
        let now = k.now;
        let cum = Self::cumulative_oncpu(k, tid);
        let used = self.used_in_period(tid, now, cum);
        let throttle = used >= QUANTA;
        if throttle {
            let acc = self.accounts.entry(tid).or_default();
            if !acc.throttled {
                acc.throttled = true;
                self.throttles += 1;
            }
        }
        if still_runnable {
            self.rq[cpu.index()].push_back(tid);
            if throttle {
                // Re-examine at the period boundary.
                let at = self.next_boundary(now);
                k.send_ipi(cpu, at);
            }
        }
    }

    fn on_tick(&mut self, _cpu: CpuId, current: Tid, k: &mut KernelState) -> bool {
        // Throttle the running thread once it exceeds its quanta;
        // measured against cumulative on-CPU time so the accounting is
        // exact however the work is sliced into segments.
        let cum = Self::cumulative_oncpu(k, current);
        let used = self.used_in_period(current, k.now, cum);
        used >= QUANTA
    }

    fn on_tick_all(&mut self, cpu: CpuId, k: &mut KernelState) {
        // Period boundaries unthrottle queued threads; if this CPU is
        // idle and has throttled-now-eligible work, reschedule.
        if !k.cpus[cpu.index()].is_idle() {
            return;
        }
        let idx = k.now / PERIOD;
        let any_eligible = self.rq[cpu.index()].iter().any(|&t| {
            self.accounts
                .get(&t)
                .is_none_or(|a| a.period_idx != idx || !a.throttled)
        });
        if any_eligible {
            k.request_resched(cpu);
        }
    }

    fn has_runnable(&self, cpu: CpuId, _k: &KernelState) -> bool {
        !self.rq[cpu.index()].is_empty()
    }

    fn on_detach(&mut self, tid: Tid, k: &mut KernelState) {
        self.dequeue(tid, k);
        self.accounts.remove(&tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghost_sim::app::{App, Next};
    use ghost_sim::kernel::{Kernel, KernelConfig, ThreadSpec};
    use ghost_sim::time::SECS;
    use ghost_sim::topology::Topology;
    use ghost_sim::CLASS_RT;

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

    #[test]
    fn quanta_caps_cpu_share() {
        let mut kernel = Kernel::new(Topology::new("uni", 1, 1, 1, 1), KernelConfig::default());
        kernel.install_class(CLASS_RT, Box::new(MicroQuanta::new(1)));
        let app = kernel.state.next_app_id();
        let rt = kernel.spawn(
            ThreadSpec::workload("mq-spinner", &kernel.state.topo)
                .app(app)
                .class(CLASS_RT),
        );
        kernel.add_app(Box::new(Spin));
        kernel.assign_and_wake(rt, 10 * MILLIS);
        kernel.run_until(SECS);
        let share = kernel.state.thread(rt).total_oncpu as f64 / SECS as f64;
        // 0.9 ms per 1 ms period → ~90% cap (tick granularity smears it).
        assert!(
            (0.80..=0.97).contains(&share),
            "MicroQuanta share should be ~0.9, got {share}"
        );
    }

    #[test]
    fn cfs_threads_survive_next_to_microquanta() {
        let mut kernel = Kernel::new(Topology::new("uni", 1, 1, 1, 1), KernelConfig::default());
        kernel.install_class(CLASS_RT, Box::new(MicroQuanta::new(1)));
        let app = kernel.state.next_app_id();
        let rt = kernel.spawn(
            ThreadSpec::workload("mq", &kernel.state.topo)
                .app(app)
                .class(CLASS_RT),
        );
        let cfs = kernel.spawn(ThreadSpec::workload("cfs", &kernel.state.topo).app(app));
        kernel.add_app(Box::new(Spin));
        kernel.assign_and_wake(rt, 10 * MILLIS);
        kernel.assign_and_wake(cfs, 10 * MILLIS);
        kernel.run_until(SECS);
        let cfs_share = kernel.state.thread(cfs).total_oncpu as f64 / SECS as f64;
        // The blackout guarantees CFS ~10%: "ensures worker threads
        // receive runtime while not starving other threads".
        assert!(
            cfs_share > 0.05,
            "CFS thread starved next to MicroQuanta: share {cfs_share}"
        );
    }
}

#[cfg(test)]
mod burst_accounting_tests {
    use super::*;
    use ghost_sim::app::{App, Next};
    use ghost_sim::kernel::{Kernel, KernelConfig, ThreadSpec};
    use ghost_sim::time::{MICROS, SECS};
    use ghost_sim::topology::Topology;
    use ghost_sim::CLASS_RT;

    /// A worker that processes in tiny segments (like a packet engine
    /// draining a burst) must still be throttled at the quanta even
    /// though it never leaves the CPU between segments.
    struct TinySegments;
    impl App for TinySegments {
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn name(&self) -> &str {
            "tiny"
        }
        fn on_timer(&mut self, _key: u64, _k: &mut KernelState) {}
        fn on_segment_end(&mut self, _tid: Tid, _k: &mut KernelState) -> Next {
            Next::Run { dur: 15 * MICROS }
        }
    }

    #[test]
    fn segmented_runs_are_throttled_at_the_quanta() {
        let mut kernel = Kernel::new(Topology::new("uni", 1, 1, 1, 1), KernelConfig::default());
        kernel.install_class(CLASS_RT, Box::new(MicroQuanta::new(1)));
        let app = kernel.state.next_app_id();
        let t = kernel.spawn(
            ThreadSpec::workload("segmented", &kernel.state.topo)
                .app(app)
                .class(CLASS_RT),
        );
        kernel.add_app(Box::new(TinySegments));
        kernel.assign_and_wake(t, 15 * MICROS);
        kernel.run_until(SECS);
        let share = kernel.state.thread(t).total_oncpu as f64 / SECS as f64;
        assert!(
            (0.80..=0.95).contains(&share),
            "segmented worker must be capped at ~0.9: {share}"
        );
    }
}
