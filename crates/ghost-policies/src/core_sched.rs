//! Secure VM core scheduling (§4.5): protect VMs from cross-hyperthread
//! L1TF/MDS attacks by ensuring "every physical core only runs virtual
//! CPUs (vCPUs) from the same VM".
//!
//! The enclave runs in per-core mode (one queue and one active agent per
//! physical core, Fig. 9). Each activation schedules *both* siblings of
//! its core with an atomic group commit — "issuing commits for both CPUs
//! of a core which must either all succeed or all fail" — so the
//! same-VM-per-core invariant can never be violated by a half-applied
//! decision.
//!
//! VM selection is a partitioned EDF-like scheme: every VM is guaranteed
//! a quantum per period (bounding tail latency); spare capacity goes to
//! whichever runnable VM has the earliest deadline (improving average
//! latency). Runqueues prefer NUMA-local vCPUs but spill across nodes
//! under load, matching the paper's description.

use crate::kernel::{PolicyKernel, RunQueue};
use crate::tracker::{ThreadTracker, Transition};
use ghost_core::msg::Message;
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::slab::{CpuMap, TidMap};
use ghost_sim::cpuset::CpuSet;
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MILLIS};
use ghost_sim::topology::CpuId;
use std::collections::HashMap;

/// Core-scheduling tunables.
#[derive(Debug, Clone)]
pub struct CoreSchedConfig {
    /// Guaranteed slice per VM per period.
    pub quantum: Nanos,
    /// EDF period.
    pub period: Nanos,
}

impl Default for CoreSchedConfig {
    fn default() -> Self {
        Self {
            quantum: 3 * MILLIS,
            period: 12 * MILLIS,
        }
    }
}

/// Per-VM scheduling state.
#[derive(Debug)]
struct VmState {
    /// Runnable vCPU threads of this VM.
    rq: RunQueue,
    /// EDF deadline: earlier = more starved.
    deadline: Nanos,
}

/// The secure VM core-scheduling policy.
pub struct CoreSchedPolicy {
    /// Tunables.
    pub config: CoreSchedConfig,
    /// Thread view and commit counters.
    pub k: PolicyKernel,
    /// Keyed by VM cookie. Every walk either breaks ties on the cookie or
    /// folds order-insensitively, so the map's iteration order never
    /// reaches a decision.
    vms: HashMap<u64, VmState>,
    cookie_of: TidMap<u64>,
    /// Which VM each core is currently dedicated to, and since when.
    core_vm: CpuMap<(u64, Nanos)>,
    /// Atomic group commits issued.
    pub group_commits: u64,
}

/// Queues `tid` on its VM; a VM first seen here gets `deadline`.
fn enqueue(vms: &mut HashMap<u64, VmState>, tid: Tid, cookie: u64, deadline: Nanos) {
    let fresh = || VmState {
        rq: RunQueue::default(),
        deadline,
    };
    vms.entry(cookie).or_insert_with(fresh).rq.push(tid);
}

/// True if `tid` last ran on `socket`.
fn ran_on(tracker: &ThreadTracker, ctx: &PolicyCtx<'_>, tid: Tid, socket: u16) -> bool {
    tracker
        .get(tid)
        .is_some_and(|v| ctx.topo().info(v.last_cpu).socket == socket)
}

/// True if `c` would accept a commit: no pending slot, no ghOSt thread,
/// and truly idle, the agent's own CPU (local commit), or a CPU an agent
/// occupies transiently.
fn accepts_commit(ctx: &PolicyCtx<'_>, c: CpuId) -> bool {
    !ctx.commit_pending(c)
        && ctx.running_ghost(c).is_none()
        && (c == ctx.local_cpu() || ctx.agent_on_cpu(c) || ctx.idle_cpus().contains(c))
}

/// The thread that has `core` claimed right now. Both running threads
/// AND pending (committed, not yet picked) transactions count — a
/// pending sibling commit already dedicates the core.
fn claimant(ctx: &PolicyCtx<'_>, core: &CpuSet) -> Option<Tid> {
    core.iter()
        .find_map(|c| ctx.running_ghost(c).or_else(|| ctx.pending_commit_tid(c)))
}

/// The physical cores with a CPU in the enclave, once each in CPU order,
/// with the enclave CPU that introduced them.
fn enclave_cores(ctx: &PolicyCtx<'_>) -> Vec<(CpuId, CpuSet)> {
    let mut seen = CpuSet::empty();
    let mut cores = Vec::new();
    for c in ctx.enclave_cpus().iter() {
        if !seen.contains(c) {
            let core = ctx.topo().core_cpus(c);
            seen = seen.or(&core);
            cores.push((c, core));
        }
    }
    cores
}

impl CoreSchedPolicy {
    /// Creates the policy.
    pub fn new(config: CoreSchedConfig) -> Self {
        Self {
            config,
            k: PolicyKernel::default(),
            vms: HashMap::new(),
            cookie_of: TidMap::new(),
            core_vm: CpuMap::new(),
            group_commits: 0,
        }
    }

    /// The runnable VM with the earliest deadline, preferring VMs with a
    /// NUMA-local thread for `core_cpu`.
    fn pick_vm(&self, ctx: &PolicyCtx<'_>, core_cpu: CpuId) -> Option<u64> {
        let socket = ctx.topo().info(core_cpu).socket;
        self.vms
            .iter()
            .filter(|(_, vm)| !vm.rq.is_empty())
            .min_by_key(|(&cookie, vm)| {
                let mut waiting = vm.rq.iter();
                let local = waiting.any(|t| ran_on(&self.k.tracker, ctx, t, socket));
                (vm.deadline, !local, cookie)
            })
            .map(|(&cookie, _)| cookie)
    }

    /// Pops up to `n` runnable threads of VM `cookie`: NUMA-local threads
    /// first, then any, each group in queue order.
    fn take_threads(
        &mut self,
        cookie: u64,
        n: usize,
        ctx: &PolicyCtx<'_>,
        near: CpuId,
    ) -> Vec<Tid> {
        let socket = ctx.topo().info(near).socket;
        let Some(vm) = self.vms.get_mut(&cookie) else {
            return Vec::new();
        };
        let (local, remote): (Vec<Tid>, Vec<Tid>) = vm
            .rq
            .iter()
            .partition(|&t| ran_on(&self.k.tracker, ctx, t, socket));
        let picked: Vec<Tid> = local.into_iter().chain(remote).take(n).collect();
        for &t in &picked {
            vm.rq.remove(t);
        }
        picked
    }

    /// Threads waiting across all VMs.
    fn waiting(&self) -> usize {
        self.vms.values().map(|v| v.rq.len()).sum()
    }

    /// True when demand exceeds the spread capacity — the enclave cores
    /// with no ghOSt thread running or pending — so filling SMT siblings
    /// is worth the 0.65x rate (CFS and the in-kernel core scheduler both
    /// prefer idle cores; pairing when cores are spare costs it for
    /// nothing).
    fn should_pair(&self, ctx: &PolicyCtx<'_>) -> bool {
        let spare = enclave_cores(ctx)
            .iter()
            .filter(|(_, core)| core.iter().all(|c| accepts_commit(ctx, c)))
            .count();
        self.waiting() > spare
    }

    /// Commits `threads` onto `cpus` pairwise — atomically when there is
    /// more than one, so a core never runs a half-applied decision — and
    /// requeues whatever failed. Returns how many committed.
    fn commit_core(&mut self, ctx: &mut PolicyCtx<'_>, threads: &[Tid], cpus: &[CpuId]) -> usize {
        for (&t, &c) in threads.iter().zip(cpus) {
            self.k.stage(t, c);
        }
        let atomic = self.k.staged() > 1;
        self.group_commits += atomic as u64;
        let (vms, cookie_of) = (&mut self.vms, &self.cookie_of);
        let deadline = ctx.now() + self.config.period;
        self.k.commit(ctx, atomic, None, |_, tid, ok| {
            if !ok {
                let cookie = cookie_of.get(tid).copied().unwrap_or(0);
                enqueue(vms, tid, cookie, deadline);
            }
        })
    }

    /// Dedicates core `key` to `vm` from `now`, restarting its period.
    fn dedicate(&mut self, key: CpuId, vm: u64, now: Nanos) {
        self.core_vm.insert(key, (vm, now));
        if let Some(s) = self.vms.get_mut(&vm) {
            s.deadline = now + self.config.period;
        }
    }

    /// Schedules the activation core: both sibling CPUs of
    /// `ctx.local_cpu()`, and nothing else (per-core model).
    fn schedule_core(&mut self, ctx: &mut PolicyCtx<'_>) {
        let now = ctx.now();
        let core = ctx.topo().core_cpus(ctx.local_cpu());
        let cpus: Vec<CpuId> = core.iter().collect();
        let key = cpus[0];
        let current_vm = claimant(ctx, &core).and_then(|t| self.cookie_of.get(t).copied());
        let idle: Vec<CpuId> = core.iter().filter(|&c| accepts_commit(ctx, c)).collect();
        match current_vm {
            Some(vm) => {
                // Fill the idle sibling with another vCPU of the SAME VM
                // only — never mix cookies on a core.
                let quantum_expired = self.core_vm.get(key).is_some_and(|&(v, since)| {
                    v == vm && now.saturating_sub(since) >= self.config.quantum
                });
                let other_waiting = self.vms.iter().any(|(&c, s)| c != vm && !s.rq.is_empty());
                if quantum_expired && other_waiting {
                    // Rotate the whole core to the next VM atomically.
                    if let Some(next_vm) = self.pick_vm(ctx, key) {
                        if next_vm != vm {
                            self.rotate_core(ctx, &cpus, next_vm);
                            return;
                        }
                    }
                }
                if self.should_pair(ctx) {
                    for &c in &idle {
                        let threads = self.take_threads(vm, 1, ctx, key);
                        if threads.is_empty() {
                            break;
                        }
                        self.commit_core(ctx, &threads, &[c]);
                    }
                }
            }
            None => {
                // Core fully idle (as far as ghOSt is concerned): pick
                // the earliest-deadline VM and dedicate the core to it.
                if idle.is_empty() {
                    return; // CFS or another class owns the core.
                }
                let Some(vm) = self.pick_vm(ctx, key) else {
                    return;
                };
                let want = if self.should_pair(ctx) { idle.len() } else { 1 };
                let threads = self.take_threads(vm, want, ctx, key);
                if !threads.is_empty() {
                    self.dedicate(key, vm, now);
                    self.commit_core(ctx, &threads, &idle);
                }
            }
        }
    }

    /// Preempts both siblings and installs vCPUs of `next_vm` atomically.
    fn rotate_core(&mut self, ctx: &mut PolicyCtx<'_>, cpus: &[CpuId], next_vm: u64) {
        let now = ctx.now();
        let avail: Vec<CpuId> = cpus
            .iter()
            .copied()
            .filter(|&c| !ctx.commit_pending(c))
            .collect();
        // Every sibling currently running the old VM must be replaced in
        // the same atomic group — a partial rotation would mix VMs on the
        // core. If the next VM cannot man all of them, skip this round
        // (it gets the core at the next natural idle point).
        let must_replace = cpus
            .iter()
            .filter(|&&c| ctx.running_ghost(c).is_some())
            .count();
        let threads = self.take_threads(next_vm, avail.len(), ctx, cpus[0]);
        if threads.is_empty() || threads.len() < must_replace {
            for t in threads {
                enqueue(&mut self.vms, t, next_vm, now + self.config.period);
            }
        } else if self.commit_core(ctx, &threads, &avail) > 0 {
            self.dedicate(cpus[0], next_vm, now);
        }
    }
}

impl GhostPolicy for CoreSchedPolicy {
    fn name(&self) -> &str {
        "secure-vm-core-sched"
    }

    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
        let Some(t) = self.k.tracker.apply(msg) else {
            return;
        };
        if !self.cookie_of.contains(msg.tid) {
            let c = ctx.thread_view(msg.tid).map_or(0, |v| v.cookie);
            self.cookie_of.insert(msg.tid, c);
        }
        let cookie = self.cookie_of.get(msg.tid).copied().unwrap_or(0);
        if t == Transition::Runnable {
            enqueue(
                &mut self.vms,
                msg.tid,
                cookie,
                ctx.now() + self.config.period,
            );
        } else if let Some(vm) = self.vms.get_mut(&cookie) {
            vm.rq.remove(msg.tid);
        }
        if t == Transition::Dead {
            self.cookie_of.remove(msg.tid);
        }
    }

    fn on_reconstruct(&mut self, snapshot: &[ghost_core::ThreadSnapshot], ctx: &mut PolicyCtx<'_>) {
        self.vms.clear();
        self.cookie_of.clear();
        self.core_vm.clear();
        for s in snapshot {
            self.cookie_of.insert(s.tid, s.cookie);
        }
        // VM membership is the cookie, so the scan rebuilds the runqueues
        // and deadlines completely; every VM restarts its period at `now`.
        let deadline = ctx.now() + self.config.period;
        for s in self.k.tracker.resync(snapshot) {
            enqueue(&mut self.vms, s.tid, s.cookie, deadline);
        }
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        self.schedule_core(ctx);
        // Work remains but this core cannot take it: hand it to peer
        // cores by waking their agents (shared runqueues, §4.5). Eligible
        // peers have spare capacity AND a compatible claim: fully idle,
        // or already dedicated to a VM that has waiting threads.
        if self.waiting() == 0 {
            return;
        }
        let local_core = ctx.topo().core_cpus(ctx.local_cpu());
        let eligible = |(c, core): &(CpuId, CpuSet)| {
            let claimed = claimant(ctx, core).and_then(|t| self.cookie_of.get(t));
            !local_core.contains(*c)
                && core.iter().any(|cc| accepts_commit(ctx, cc))
                && claimed.is_none_or(|vm| self.vms.get(vm).is_some_and(|s| !s.rq.is_empty()))
        };
        let peers = enclave_cores(ctx);
        let peers = peers.iter().filter(|p| eligible(p)).map(|p| p.0).take(4);
        for c in peers.collect::<Vec<CpuId>>() {
            ctx.charge(120);
            ctx.ping_core_agent(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vms_queue_separately() {
        let mut vms = HashMap::new();
        enqueue(&mut vms, Tid(1), 100, 12);
        enqueue(&mut vms, Tid(2), 200, 12);
        enqueue(&mut vms, Tid(3), 100, 99);
        assert_eq!(vms[&100].rq.iter().collect::<Vec<_>>(), [Tid(1), Tid(3)]);
        assert_eq!(vms[&100].deadline, 12, "only a new VM takes the deadline");
        assert_eq!(vms[&200].rq.len(), 1);
    }

    #[test]
    fn default_config_bounds_quantum_by_period() {
        let c = CoreSchedConfig::default();
        assert!(c.quantum < c.period);
    }
}
