//! A model of Linux's Completely Fair Scheduler.
//!
//! This is not a line-for-line port, but it reproduces the behaviours the
//! paper's evaluation depends on:
//!
//! * weighted fair sharing through per-thread **vruntime** and the kernel's
//!   nice→weight table (Fig. 6c compares against a nice-19 batch app),
//! * slice-based tick preemption (`sched_latency` / `min_granularity`),
//! * wakeup preemption with `wakeup_granularity`,
//! * wakeup placement preferring the previous CPU and idle CPUs,
//! * **millisecond-scale** periodic and idle load balancing — the property
//!   §4.4 highlights ("CFS only rebalances threads across CPUs at periodic
//!   intervals on the order of milliseconds, harming query tail latencies").

use crate::class::SchedClass;
use crate::kernel::KernelState;
use crate::thread::Tid;
use crate::time::{Nanos, MILLIS};
use crate::topology::CpuId;
use std::collections::{BTreeSet, HashMap};

/// Kernel nice→weight table (`sched_prio_to_weight`), nice −20 at index 0.
pub const NICE_TO_WEIGHT: [u32; 40] = [
    88761, 71755, 56483, 46273, 36291, // −20 … −16
    29154, 23254, 18705, 14949, 11916, // −15 … −11
    9548, 7620, 6100, 4904, 3906, // −10 … −6
    3121, 2501, 1991, 1586, 1277, // −5 … −1
    1024, 820, 655, 526, 423, // 0 … 4
    335, 272, 215, 172, 137, // 5 … 9
    110, 87, 70, 56, 45, // 10 … 14
    36, 29, 23, 18, 15, // 15 … 19
];

/// Weight of nice 0.
pub const NICE_0_WEIGHT: u64 = 1024;

/// Weight for a nice value.
pub fn weight_of(nice: i8) -> u32 {
    NICE_TO_WEIGHT[(nice as i32 + 20).clamp(0, 39) as usize]
}

/// Tunables mirroring the kernel's CFS knobs.
#[derive(Debug, Clone)]
pub struct CfsTunables {
    /// Target latency for every runnable thread to run once.
    pub sched_latency: Nanos,
    /// Minimum slice regardless of runqueue length.
    pub min_granularity: Nanos,
    /// A waking thread preempts only if it beats current by this much.
    pub wakeup_granularity: Nanos,
    /// Periodic load-balance interval per CPU.
    pub balance_interval: Nanos,
}

impl Default for CfsTunables {
    fn default() -> Self {
        Self {
            sched_latency: 6 * MILLIS,
            min_granularity: 750_000,
            wakeup_granularity: MILLIS,
            balance_interval: 4 * MILLIS,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CfsTask {
    vruntime: u64,
    weight: u32,
    /// CPU whose runqueue holds the task when queued.
    cpu: CpuId,
    on_rq: bool,
}

#[derive(Debug, Default)]
struct CfsRq {
    /// Runnable (not running) tasks ordered by (vruntime, tid).
    queue: BTreeSet<(u64, Tid)>,
    /// Monotonic floor for entering tasks.
    min_vruntime: u64,
    /// Includes the running task of this class, if any.
    nr_running: u32,
}

/// The CFS scheduling-class implementation.
pub struct CfsClass {
    tun: CfsTunables,
    tasks: HashMap<Tid, CfsTask>,
    rqs: Vec<CfsRq>,
    last_balance: Vec<Nanos>,
    /// Sum of `queue.len()` over `rqs`. With `running`, kept exact at
    /// every runqueue change so the balance paths can skip a scan of
    /// every runqueue when it could not find a task.
    queued: usize,
    /// Sum of `nr_running` over `rqs`.
    running: u32,
}

impl CfsClass {
    /// Creates the class for a machine with `num_cpus` CPUs.
    pub fn new(num_cpus: usize) -> Self {
        Self::with_tunables(num_cpus, CfsTunables::default())
    }

    /// Creates the class with explicit tunables.
    pub fn with_tunables(num_cpus: usize, tun: CfsTunables) -> Self {
        Self {
            tun,
            tasks: HashMap::new(),
            rqs: (0..num_cpus).map(|_| CfsRq::default()).collect(),
            last_balance: vec![0; num_cpus],
            queued: 0,
            running: 0,
        }
    }

    /// Number of runnable CFS tasks associated with `cpu` (queued +
    /// running), mirrored into `CpuState::cfs_queued` for observers.
    pub fn nr_running(&self, cpu: CpuId) -> u32 {
        self.rqs[cpu.index()].nr_running
    }

    fn sync_cpu_counter(&self, cpu: CpuId, k: &mut KernelState) {
        k.cpus[cpu.index()].cfs_queued = self.rqs[cpu.index()].queue.len() as u32;
    }

    fn vdelta(wall: Nanos, weight: u32) -> u64 {
        wall * NICE_0_WEIGHT / weight as u64
    }

    /// Time slice for a runqueue with `nr` runnable threads.
    fn slice(&self, nr: u32) -> Nanos {
        (self.tun.sched_latency / nr.max(1) as u64).max(self.tun.min_granularity)
    }

    fn select_cpu(&self, tid: Tid, k: &KernelState) -> CpuId {
        let (t, affinity) = (&k.threads[tid.index()], k.affinity(tid));
        // 1. Previous CPU if it is idle and its sibling is free too (a
        //    warm idle core beats everything).
        if let Some(prev) = t.last_cpu {
            if affinity.contains(prev)
                && k.cpus[prev.index()].is_idle()
                && !k
                    .topo
                    .sibling(prev)
                    .is_some_and(|s| k.cpus[s.index()].is_occupied())
            {
                return prev;
            }
        }
        // 2. Like Linux's select_idle_sibling: search for an idle CPU
        //    only within the previous CPU's LLC domain (idle cores before
        //    idle SMT siblings). CFS does NOT scan the whole machine on
        //    wakeup — that myopia is what §4.4's global agent exploits.
        let llc = t
            .last_cpu
            .map(|p| k.topo.ccx_cpus(k.topo.info(p).ccx))
            .unwrap_or(*affinity);
        let mut best_idle: Option<(bool, u8, CpuId)> = None;
        // 3. A CPU running only lower-class work (e.g. a ghOSt thread),
        //    which CFS will preempt.
        let mut best_lower: Option<CpuId> = None;
        // 4. Least-loaded CFS runqueue in the LLC.
        let mut least: Option<(u32, CpuId)> = None;
        for c in llc.and(affinity).iter() {
            let cs = &k.cpus[c.index()];
            if cs.is_idle() {
                let sibling_busy = k
                    .topo
                    .sibling(c)
                    .is_some_and(|s| k.cpus[s.index()].is_occupied());
                let d = t.last_cpu.map_or(2, |p| k.topo.distance(p, c));
                if best_idle.is_none_or(|(bb, bd, _)| (sibling_busy, d) < (bb, bd)) {
                    best_idle = Some((sibling_busy, d, c));
                }
            } else if best_idle.is_none() {
                if let Some(cur) = cs.current {
                    let cur_class = k.threads[cur.index()].class;
                    if cur_class > crate::class::CLASS_CFS && best_lower.is_none() {
                        best_lower = Some(c);
                    }
                }
                let nr = self.rqs[c.index()].nr_running;
                if least.is_none_or(|(bn, _)| nr < bn) {
                    least = Some((nr, c));
                }
            }
        }
        if let Some((_, _, c)) = best_idle {
            return c;
        }
        if let Some(c) = best_lower {
            return c;
        }
        if let Some((_, c)) = least {
            return c;
        }
        // LLC fully outside the affinity mask (e.g. after an affinity
        // change): fall back to any allowed CPU, idle first.
        affinity
            .iter()
            .find(|&c| k.cpus[c.index()].is_idle())
            .or_else(|| affinity.first())
            .expect("thread must have a non-empty affinity")
    }

    fn enqueue_on(&mut self, tid: Tid, cpu: CpuId, k: &mut KernelState) {
        let rq_min = self.rqs[cpu.index()].min_vruntime;
        let latency = self.tun.sched_latency;
        let task = self.tasks.get_mut(&tid).expect("task attached");
        // Sleeper fairness: place no earlier than min_vruntime − latency.
        task.vruntime = task.vruntime.max(rq_min.saturating_sub(latency));
        task.cpu = cpu;
        task.on_rq = true;
        let key = (task.vruntime, tid);
        let rq = &mut self.rqs[cpu.index()];
        rq.queue.insert(key);
        rq.nr_running += 1;
        self.queued += 1;
        self.running += 1;
        self.sync_cpu_counter(cpu, k);
    }

    /// `nr_running -= 1` on `cpu`, saturating. It can saturate: a thread
    /// that joined CFS while running was never counted where it runs.
    fn dec_running(&mut self, cpu: CpuId) {
        let rq = &mut self.rqs[cpu.index()];
        if rq.nr_running > 0 {
            rq.nr_running -= 1;
            self.running -= 1;
        }
    }

    fn remove_queued(&mut self, tid: Tid, k: &mut KernelState) -> bool {
        let Some(task) = self.tasks.get_mut(&tid) else {
            return false;
        };
        if !task.on_rq {
            return false;
        }
        task.on_rq = false;
        let cpu = task.cpu;
        let key = (task.vruntime, tid);
        let removed = self.rqs[cpu.index()].queue.remove(&key);
        debug_assert!(removed, "queued task must be present in its rq");
        self.queued -= usize::from(removed);
        self.dec_running(cpu);
        self.sync_cpu_counter(cpu, k);
        true
    }

    /// Takes the queued task `key` off runqueue `from` to migrate it.
    fn detach_queued(&mut self, from: usize, key: (u64, Tid), k: &mut KernelState) -> Tid {
        let rq = &mut self.rqs[from];
        rq.queue.remove(&key);
        rq.nr_running -= 1;
        self.queued -= 1;
        self.running -= 1;
        self.sync_cpu_counter(CpuId(from as u16), k);
        // vruntimes live on one global clock (all runqueues start from the
        // same epoch), so migration needs no renormalization; the floor in
        // `enqueue_on` handles rqs that have run ahead. Renormalizing by
        // (to_min - from_min) here would compound across migrations.
        let task = self.tasks.get_mut(&key.1).expect("migrated task attached");
        task.on_rq = false;
        key.1
    }

    /// Steals the highest-vruntime task from the busiest runqueue that the
    /// thief CPU may run; used for idle balancing.
    fn steal_for(&mut self, thief: CpuId, k: &mut KernelState) -> Option<Tid> {
        // Nothing queued elsewhere: the scan below would find no candidate.
        if self.queued == self.rqs[thief.index()].queue.len() {
            return None;
        }
        let busiest = (0..self.rqs.len())
            .filter(|&i| i != thief.index() && !self.rqs[i].queue.is_empty())
            .max_by_key(|&i| self.rqs[i].queue.len())?;
        // Take from the back (largest vruntime → least cache-hot loss).
        let cand = self.rqs[busiest]
            .queue
            .iter()
            .rev()
            .find(|(_, t)| k.affinity(*t).contains(thief))
            .copied()?;
        Some(self.detach_queued(busiest, cand, k))
    }

    /// Periodic balance: pull one task toward `cpu` if a remote runqueue is
    /// at least two tasks longer.
    fn periodic_balance(&mut self, cpu: CpuId, k: &mut KernelState) {
        let here = self.rqs[cpu.index()].nr_running;
        // Every other runqueue holds at most `running - here` tasks, so if
        // that is short of `here + 2` the scan below cannot find a donor.
        if self.running - here < here + 2 {
            return;
        }
        let Some(busiest) = (0..self.rqs.len())
            .filter(|&i| i != cpu.index())
            .max_by_key(|&i| self.rqs[i].nr_running)
        else {
            return;
        };
        if self.rqs[busiest].nr_running < here + 2 || self.rqs[busiest].queue.is_empty() {
            return;
        }
        let cand = self.rqs[busiest]
            .queue
            .iter()
            .rev()
            .find(|(_, t)| k.affinity(*t).contains(cpu))
            .copied();
        if let Some(key) = cand {
            let tid = self.detach_queued(busiest, key, k);
            self.enqueue_on(tid, cpu, k);
            if k.cpus[cpu.index()].is_idle() {
                k.request_resched(cpu);
            }
        }
    }
}

impl SchedClass for CfsClass {
    fn name(&self) -> &'static str {
        "cfs"
    }

    fn enqueue(&mut self, tid: Tid, k: &mut KernelState) -> Option<CpuId> {
        let cpu = self.select_cpu(tid, k);
        self.enqueue_on(tid, cpu, k);
        Some(cpu)
    }

    fn dequeue(&mut self, tid: Tid, k: &mut KernelState) {
        self.remove_queued(tid, k);
    }

    fn pick_next(&mut self, cpu: CpuId, k: &mut KernelState) -> Option<Tid> {
        let rq = &mut self.rqs[cpu.index()];
        if let Some(&key @ (vr, tid)) = rq.queue.iter().next() {
            rq.queue.remove(&key);
            rq.min_vruntime = rq.min_vruntime.max(vr);
            self.queued -= 1;
            let task = self.tasks.get_mut(&tid).expect("picked task attached");
            task.on_rq = false;
            // nr_running keeps counting it: it is now current.
            self.sync_cpu_counter(cpu, k);
            return Some(tid);
        }
        // Idle balance: steal from the busiest runqueue.
        if let Some(tid) = self.steal_for(cpu, k) {
            self.rqs[cpu.index()].nr_running += 1;
            self.running += 1;
            self.sync_cpu_counter(cpu, k);
            return Some(tid);
        }
        None
    }

    fn put_prev(&mut self, tid: Tid, cpu: CpuId, still_runnable: bool, k: &mut KernelState) {
        let wall = k.threads[tid.index()].last_stint_wall;
        self.dec_running(cpu);
        let task = self.tasks.get_mut(&tid).expect("prev task attached");
        debug_assert!(
            task.vruntime < 1 << 62 && wall < 1 << 50,
            "CFS accounting out of range: vruntime={} wall={wall}",
            task.vruntime,
        );
        task.vruntime += Self::vdelta(wall, task.weight);
        if still_runnable {
            self.enqueue_on(tid, cpu, k);
        } else {
            self.sync_cpu_counter(cpu, k);
        }
    }

    fn on_tick(&mut self, cpu: CpuId, current: Tid, k: &mut KernelState) -> bool {
        let rq = &self.rqs[cpu.index()];
        let t = &k.threads[current.index()];
        let ran = k.now.saturating_sub(t.stint_start);

        !rq.queue.is_empty() && ran >= self.slice(rq.nr_running)
    }

    fn on_tick_all(&mut self, cpu: CpuId, k: &mut KernelState) {
        if k.now.saturating_sub(self.last_balance[cpu.index()]) >= self.tun.balance_interval {
            self.last_balance[cpu.index()] = k.now;
            self.periodic_balance(cpu, k);
        }
    }

    fn should_preempt(&self, waking: Tid, running: Tid, _k: &KernelState) -> bool {
        let (Some(w), Some(r)) = (self.tasks.get(&waking), self.tasks.get(&running)) else {
            return false;
        };
        let gran = Self::vdelta(self.tun.wakeup_granularity, r.weight);
        w.vruntime + gran < r.vruntime
    }

    fn has_runnable(&self, cpu: CpuId, _k: &KernelState) -> bool {
        !self.rqs[cpu.index()].queue.is_empty()
    }

    fn on_attach(&mut self, tid: Tid, k: &mut KernelState) {
        let t = &k.threads[tid.index()];
        let cpu = t
            .last_cpu
            .or_else(|| k.affinity(tid).first())
            .unwrap_or(CpuId(0));
        let vr = self.rqs[cpu.index()].min_vruntime;
        self.tasks.insert(
            tid,
            CfsTask {
                vruntime: vr,
                weight: weight_of(t.nice),
                cpu,
                on_rq: false,
            },
        );
    }

    fn on_detach(&mut self, tid: Tid, k: &mut KernelState) {
        self.remove_queued(tid, k);
        self.tasks.remove(&tid);
    }

    fn on_affinity_changed(&mut self, tid: Tid, k: &mut KernelState) {
        // Requeue a queued task if its runqueue is no longer allowed.
        if let Some(task) = self.tasks.get(&tid) {
            if task.on_rq && !k.affinity(tid).contains(task.cpu) {
                self.remove_queued(tid, k);
                let cpu = self.select_cpu(tid, k);
                self.enqueue_on(tid, cpu, k);
            }
        }
    }

    fn on_nice_changed(&mut self, tid: Tid, k: &mut KernelState) {
        if let Some(task) = self.tasks.get_mut(&tid) {
            task.weight = weight_of(k.threads[tid.index()].nice);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_table_is_kernel_table() {
        assert_eq!(weight_of(0), 1024);
        assert_eq!(weight_of(-20), 88761);
        assert_eq!(weight_of(19), 15);
        // Each nice step is ~1.25x.
        let ratio = weight_of(-1) as f64 / weight_of(0) as f64;
        assert!((ratio - 1.25).abs() < 0.01);
    }

    #[test]
    fn weight_clamps_out_of_range() {
        assert_eq!(weight_of(-128), weight_of(-20));
        assert_eq!(weight_of(127), weight_of(19));
    }

    #[test]
    fn vdelta_is_inverse_weighted() {
        // Nice 0 advances 1:1; heavier weight advances slower.
        assert_eq!(CfsClass::vdelta(1000, 1024), 1000);
        assert!(CfsClass::vdelta(1000, weight_of(-20)) < 100);
        assert!(CfsClass::vdelta(1000, weight_of(19)) > 60_000);
    }

    #[test]
    fn slice_scales_with_runqueue() {
        let c = CfsClass::new(1);
        assert_eq!(c.slice(1), 6 * MILLIS);
        assert_eq!(c.slice(3), 2 * MILLIS);
        // Floored at min_granularity.
        assert_eq!(c.slice(100), 750_000);
    }
}

/// Balance-decision equivalence. The guarded `steal_for` and
/// `periodic_balance` must take exactly the task the unguarded O(N)
/// scans took, and `queued` / `running` must equal the sums they stand
/// for, after every step of random attach / detach / enqueue / dequeue /
/// pick / put_prev / tick / affinity sequences on 1, 2, 8, 64 and 256
/// runqueues.
///
/// The unguarded scans live on here, test-only, as the oracle.
/// Mutation-checked: deleting any one of the eight `queued` / `running`
/// updates above fails this test, and so does loosening either guard by
/// one (skipping the steal with one task queued elsewhere, or the pull
/// below `here + 3`).
#[cfg(test)]
mod balance_model {
    use super::*;
    use crate::cpuset::CpuSet;
    use crate::kernel::{Kernel, KernelConfig, ThreadSpec};
    use crate::topology::Topology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The runqueue the unguarded `steal_for` scan takes from for
    /// `thief`, and the task it takes.
    fn reference_steal(c: &CfsClass, thief: CpuId, k: &KernelState) -> Option<(usize, Tid)> {
        let busiest = (0..c.rqs.len())
            .filter(|&i| i != thief.index() && !c.rqs[i].queue.is_empty())
            .max_by_key(|&i| c.rqs[i].queue.len())?;
        c.rqs[busiest]
            .queue
            .iter()
            .rev()
            .find(|(_, t)| k.affinity(*t).contains(thief))
            .map(|&(_, t)| (busiest, t))
    }

    /// The task the unguarded `periodic_balance` scan pulls to `cpu`.
    fn reference_pull(c: &CfsClass, cpu: CpuId, k: &KernelState) -> Option<Tid> {
        let here = c.rqs[cpu.index()].nr_running;
        let busiest = (0..c.rqs.len())
            .filter(|&i| i != cpu.index())
            .max_by_key(|&i| c.rqs[i].nr_running)?;
        if c.rqs[busiest].nr_running < here + 2 {
            return None;
        }
        c.rqs[busiest]
            .queue
            .iter()
            .rev()
            .find(|(_, t)| k.affinity(*t).contains(cpu))
            .map(|&(_, t)| t)
    }

    fn queued_on(c: &CfsClass, cpu: CpuId) -> Vec<Tid> {
        c.rqs[cpu.index()].queue.iter().map(|&(_, t)| t).collect()
    }

    /// The whole machine, one LLC, or up to three scattered CPUs.
    fn random_mask(rng: &mut StdRng, topo: &Topology) -> CpuSet {
        let n = topo.num_cpus();
        let kind = rng.gen_range(0..3);
        let mut cpu = || CpuId(rng.gen_range(0..n) as u16);
        match kind {
            0 => topo.all_cpus_set(),
            1 => topo.ccx_cpus(topo.info(cpu()).ccx),
            _ => (0..3).map(|_| cpu()).collect(),
        }
    }

    fn drive(topo: Topology, threads: u32, seed: u64, steps: usize) {
        let n = topo.num_cpus();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut k = Kernel::new(topo, KernelConfig::default()).state;
        let mut c = CfsClass::new(n);
        for i in 0..threads {
            let spec = ThreadSpec::workload("t", &k.topo).affinity(random_mask(&mut rng, &k.topo));
            assert_eq!(k.add_thread(spec), Tid(i));
        }
        let mut attached = vec![false; threads as usize];
        let mut current: Vec<Option<Tid>> = vec![None; n];
        for step in 0..steps {
            let t = Tid(rng.gen_range(0..threads));
            let cpu = CpuId(rng.gen_range(0..n) as u16);
            let on_cpu = current.iter().position(|&cur| cur == Some(t));
            let queued = attached[t.index()] && c.tasks[&t].on_rq;
            match rng.gen_range(0..8) {
                // Joins CFS; sometimes while already running on `cpu` (a
                // class move of a running thread), where it was never
                // counted in `nr_running`.
                0 if !attached[t.index()] => {
                    c.on_attach(t, &mut k);
                    attached[t.index()] = true;
                    if current[cpu.index()].is_none() && rng.gen_bool(0.3) {
                        current[cpu.index()] = Some(t);
                    }
                }
                // Leaves CFS. A running thread's `nr_running` count stays
                // behind, as it does in the class.
                1 if attached[t.index()] => {
                    c.on_detach(t, &mut k);
                    attached[t.index()] = false;
                    if let Some(i) = on_cpu {
                        current[i] = None;
                    }
                }
                // Wakes next to one of the first two CPUs it may run on
                // (every CPU is idle, so `select_cpu` keeps `last_cpu`),
                // which piles tasks onto a few runqueues.
                2 if attached[t.index()] && !queued && on_cpu.is_none() => {
                    let allowed: Vec<CpuId> = k.affinity(t).iter().collect();
                    let span = if rng.gen_bool(0.7) { 2 } else { allowed.len() };
                    let prev = allowed[rng.gen_range(0..span.min(allowed.len()))];
                    k.threads[t.index()].last_cpu = Some(prev);
                    c.enqueue(t, &mut k);
                }
                3 if queued => c.dequeue(t, &mut k),
                4 if current[cpu.index()].is_none() => {
                    let expected = match c.rqs[cpu.index()].queue.first() {
                        Some(&(_, local)) => Some(local),
                        None => match reference_steal(&c, cpu, &k) {
                            // A thread that joined while running gave back
                            // the count of a task queued here; stealing
                            // that task underflows `nr_running` in the
                            // unguarded code too. Outside the oracle.
                            Some((from, _)) if c.rqs[from].nr_running == 0 => continue,
                            choice => choice.map(|(_, t)| t),
                        },
                    };
                    let got = c.pick_next(cpu, &mut k);
                    assert_eq!(got, expected, "pick on {cpu:?}, step {step}");
                    current[cpu.index()] = got;
                }
                5 => {
                    if let Some(prev) = current[cpu.index()].take() {
                        k.threads[prev.index()].last_stint_wall = rng.gen_range(0..2 * MILLIS);
                        c.put_prev(prev, cpu, rng.gen_bool(0.5), &mut k);
                    }
                }
                6 => {
                    k.now += c.tun.balance_interval;
                    let expected = reference_pull(&c, cpu, &k);
                    let before = queued_on(&c, cpu);
                    c.on_tick_all(cpu, &mut k);
                    let pulled: Vec<Tid> = queued_on(&c, cpu)
                        .into_iter()
                        .filter(|t| !before.contains(t))
                        .collect();
                    assert_eq!(
                        pulled,
                        Vec::from_iter(expected),
                        "tick on {cpu:?}, step {step}"
                    );
                }
                7 if queued => {
                    let mask = random_mask(&mut rng, &k.topo);
                    k.set_affinity(t, mask);
                    c.on_affinity_changed(t, &mut k);
                }
                _ => {}
            }
            let queued: usize = c.rqs.iter().map(|rq| rq.queue.len()).sum();
            let running: u32 = c.rqs.iter().map(|rq| rq.nr_running).sum();
            assert_eq!(
                (c.queued, c.running),
                (queued, running),
                "totals, step {step}"
            );
        }
    }

    #[test]
    fn guarded_balance_matches_the_full_scan() {
        let machines = [
            Topology::new("uni", 1, 1, 1, 1),
            Topology::new("smt", 1, 1, 2, 1),
            Topology::test_small(4),
            Topology::new("wide-64", 2, 16, 2, 4),
            Topology::rome_256(),
        ];
        for topo in machines {
            for (seed, threads) in [1, 2, 3, 6, 12, 24].into_iter().enumerate() {
                drive(topo.clone(), threads, seed as u64, 3_000);
            }
        }
    }
}
