//! The Google Search policy (§4.4): a centralized global agent for a
//! 256-CPU AMD Rome machine that
//!
//! * keeps runnable threads in a **min-heap ordered by elapsed runtime**
//!   ("threads with the least elapsed runtime are picked for execution
//!   before others"),
//! * respects each thread's **cpumask** ("intersects the thread's cpumask
//!   with the set of idle CPUs. If the intersection is empty, the agent
//!   skips the thread and schedules the next thread in the runqueue,
//!   revisiting the skipped thread in the next iteration"),
//! * places threads for **cache warmth**: same L1/L2 (core) first, then
//!   the CCX (L3), then a fan-out search of neighbouring CCXs,
//! * and optionally keeps a thread **pending up to 100 µs** for its
//!   preferred CCX instead of migrating it immediately — the bespoke
//!   optimization the paper found via rapid experimentation.
//!
//! NUMA and CCX awareness are switchable for the ablation benches
//! (they delivered "27% and 10% throughput improvements" in the paper).

use crate::kernel::PolicyKernel;
use crate::tracker::Transition;
use ghost_core::msg::Message;
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::slab::TidMap;
use ghost_sim::cpuset::CpuSet;
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MICROS};
use ghost_sim::topology::CpuId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Search policy tunables (ablation switches included).
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Respect NUMA placement (thread cpumasks + socket-local search).
    pub numa_aware: bool,
    /// Prefer the last CCX before migrating (L3 warmth).
    pub ccx_aware: bool,
    /// Keep a thread pending for its preferred CCX this long before
    /// migrating it ("more efficient to temporarily keep the thread
    /// pending for 100 µs rather than migrate it to another CCX
    /// immediately"). `None` migrates immediately.
    pub ccx_pending_wait: Option<Nanos>,
    /// Weight heap ordering by nice values (the improvement §4.4 found
    /// for query type C: "incorporating them into ghOSt's policy will
    /// allow ghOSt to beat CFS for query C's tail latency"). The heap
    /// key becomes nice-weighted runtime, so high-priority threads are
    /// picked ahead of background work with equal raw runtime.
    pub nice_aware: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            numa_aware: true,
            ccx_aware: true,
            ccx_pending_wait: Some(100 * MICROS),
            nice_aware: false,
        }
    }
}

/// Per-decision compute cost (ns).
const DECISION_COST: Nanos = 120;

/// Min-heap entry: (elapsed runtime, tid).
type HeapEntry = Reverse<(Nanos, Tid)>;

/// The NUMA/CCX-aware least-runtime-first Search policy.
pub struct SearchPolicy {
    /// Tunables.
    pub config: SearchConfig,
    /// Thread view and commit counters.
    pub k: PolicyKernel,
    heap: BinaryHeap<HeapEntry>,
    pub(crate) queued: TidMap<()>,
    /// When each queued thread started waiting for its preferred CCX.
    pending_since: TidMap<Nanos>,
    /// Threads placed outside their last CCX (migrations).
    pub ccx_migrations: u64,
}

impl SearchPolicy {
    /// Creates the policy.
    pub fn new(config: SearchConfig) -> Self {
        Self {
            config,
            k: PolicyKernel::default(),
            heap: BinaryHeap::new(),
            queued: TidMap::new(),
            pending_since: TidMap::new(),
            ccx_migrations: 0,
        }
    }

    fn push(&mut self, tid: Tid, runtime: Nanos) {
        if self.queued.insert(tid, ()).is_none() {
            self.heap.push(Reverse((runtime, tid)));
        }
    }

    /// Queues `tid` keyed by its elapsed runtime as the kernel has it now
    /// (it survives an agent crash, so reconstruction rebuilds the
    /// least-runtime-first order exactly).
    fn enqueue(&mut self, tid: Tid, ctx: &mut PolicyCtx<'_>) {
        let runtime = ctx.thread_view(tid).map_or(0, |v| self.heap_key(&v));
        self.push(tid, runtime);
    }

    /// The message fold: waiting threads join the heap keyed by `view`'s
    /// runtime, the rest leave it (lazily — their heap entries go stale)
    /// and stop pending for a CCX.
    pub(crate) fn track(
        &mut self,
        msg: &Message,
        view: impl FnOnce() -> Option<ghost_core::ThreadView>,
    ) {
        match self.k.tracker.apply(msg) {
            Some(Transition::Runnable) => {
                let runtime = view().map_or(0, |v| self.heap_key(&v));
                self.push(msg.tid, runtime);
            }
            Some(_) => {
                self.queued.remove(msg.tid);
                self.pending_since.remove(msg.tid);
            }
            None => {}
        }
    }

    /// Heap ordering key: raw elapsed runtime, or — when `nice_aware` —
    /// runtime scaled by the CFS weight table so high-priority threads
    /// accrue "virtual" runtime more slowly (exactly CFS's vruntime
    /// idea, applied inside the userspace policy).
    fn heap_key(&self, view: &ghost_core::ThreadView) -> Nanos {
        if !self.config.nice_aware {
            return view.total_runtime;
        }
        let weight = ghost_sim::cfs::weight_of(view.nice) as u64;
        view.total_runtime * ghost_sim::cfs::NICE_0_WEIGHT / weight
    }

    /// Picks the best CPU for `tid` out of `idle ∩ affinity`, searching
    /// outward from where the thread last ran: same core (L1/L2), same
    /// CCX (L3), neighbouring CCXs, then anywhere allowed.
    ///
    /// Returns `(cpu, same_ccx)`, or `None` if the intersection is empty.
    fn pick_cpu(
        &self,
        ctx: &PolicyCtx<'_>,
        idle: &CpuSet,
        affinity: &CpuSet,
        last: Option<CpuId>,
    ) -> Option<(CpuId, bool)> {
        let allowed = idle.and(affinity);
        let first = allowed.first()?;
        let Some(last) = last else {
            return Some((first, true));
        };
        let topo = ctx.topo();
        if !self.config.ccx_aware {
            if self.config.numa_aware {
                // Socket-local placement only.
                if let Some(c) = allowed.iter().find(|&c| topo.same_socket(c, last)) {
                    return Some((c, topo.same_ccx(c, last)));
                }
            }
            return Some((first, topo.same_ccx(first, last)));
        }
        // L1/L2: the core the thread last ran on.
        if let Some(c) = topo.core_cpus(last).and(&allowed).first() {
            return Some((c, true));
        }
        // L3: same CCX.
        let last_ccx = topo.info(last).ccx;
        if let Some(c) = topo.ccx_cpus(last_ccx).and(&allowed).first() {
            return Some((c, true));
        }
        // Fan-out: nearest-neighbour CCXs (same socket first when
        // NUMA-aware).
        for ccx in topo.ccx_neighbors(last_ccx) {
            let cand = topo.ccx_cpus(ccx).and(&allowed);
            if let Some(c) = cand.first() {
                if self.config.numa_aware && !topo.same_socket(c, last) {
                    // Cross-socket only as the very last resort.
                    continue;
                }
                return Some((c, false));
            }
        }
        Some((first, false))
    }
}

impl GhostPolicy for SearchPolicy {
    fn name(&self) -> &str {
        "search-numa-ccx"
    }

    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
        self.track(msg, || ctx.thread_view(msg.tid));
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        let now = ctx.now();
        let mut idle = ctx.idle_cpus();
        if idle.is_empty() || self.heap.is_empty() {
            return;
        }
        let mut skipped: Vec<HeapEntry> = Vec::new();
        while let Some(Reverse((runtime, tid))) = self.heap.pop() {
            if idle.is_empty() {
                self.heap.push(Reverse((runtime, tid)));
                break;
            }
            if !self.queued.contains(tid) {
                continue; // Stale heap entry.
            }
            let Some(view) = ctx.thread_view(tid).filter(|v| v.runnable) else {
                self.queued.remove(tid);
                continue;
            };
            ctx.charge(DECISION_COST);
            let Some((cpu, same_ccx)) = self.pick_cpu(ctx, &idle, &view.affinity, view.last_cpu)
            else {
                // cpumask ∩ idle = ∅: skip, revisit next iteration.
                skipped.push(Reverse((runtime, tid)));
                continue;
            };
            if !same_ccx {
                // Preferred CCX busy: optionally hold the thread back.
                if let Some(wait) = self.config.ccx_pending_wait {
                    let since = *self.pending_since.or_insert(tid, now);
                    if now.saturating_sub(since) < wait {
                        skipped.push(Reverse((runtime, tid)));
                        // Re-check when the wait elapses, but never spin
                        // faster than 5 us.
                        ctx.request_wakeup_at((since + wait).max(now + 5_000));
                        continue;
                    }
                }
                self.ccx_migrations += 1;
            }
            self.pending_since.remove(tid);
            idle.remove(cpu);
            self.queued.remove(tid);
            self.k.stage(tid, cpu);
        }
        for entry in skipped {
            let Reverse((_, tid)) = entry;
            if self.queued.contains(tid) {
                self.heap.push(entry);
            }
        }
        let mut failed = Vec::new();
        self.k.commit(ctx, false, None, |_, tid, ok| {
            if !ok {
                failed.push(tid);
            }
        });
        for tid in failed {
            self.enqueue(tid, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_enables_everything() {
        let c = SearchConfig::default();
        assert!(c.numa_aware);
        assert!(c.ccx_aware);
        assert_eq!(c.ccx_pending_wait, Some(100_000));
    }

    #[test]
    fn heap_orders_by_least_runtime() {
        let mut p = SearchPolicy::new(SearchConfig::default());
        p.push(Tid(1), 500);
        p.push(Tid(2), 100);
        p.push(Tid(3), 300);
        let Reverse((rt, tid)) = p.heap.pop().unwrap();
        assert_eq!((rt, tid), (100, Tid(2)));
    }

    #[test]
    fn nice_aware_key_prefers_high_priority() {
        let cfg = SearchConfig {
            nice_aware: true,
            ..SearchConfig::default()
        };
        let p = SearchPolicy::new(cfg);
        let mk = |nice: i8, runtime: Nanos| ghost_core::ThreadView {
            tid: Tid(1),
            runnable: true,
            on_cpu: None,
            tseq: 0,
            last_cpu: None,
            total_runtime: runtime,
            affinity: CpuSet::first_n(4),
            nice,
            cookie: 0,
            hint: None,
        };
        // Equal raw runtime: the nice -10 thread gets a much smaller key
        // (picked first); the nice 10 thread a much larger one.
        let hi = p.heap_key(&mk(-10, 1_000_000));
        let mid = p.heap_key(&mk(0, 1_000_000));
        let lo = p.heap_key(&mk(10, 1_000_000));
        assert!(hi < mid && mid < lo, "{hi} < {mid} < {lo}");
        assert_eq!(mid, 1_000_000);
    }
}
