//! Declarative experiment descriptions.
//!
//! A [`Scenario`] is a *value* that fully describes one simulation:
//! topology, policy, workload, fault plan, trace knobs, and the seed.
//! Same scenario, same result — always, on any thread. That property is
//! what lets the [`crate::engine`] run scenarios concurrently while
//! each simulation stays single-threaded and byte-identical to its
//! serial run, and what lets the [`crate::cache`] key results by spec
//! content.
//!
//! Construction goes through [`ScenarioBuilder`]
//! (`Scenario::builder().cpus(8).policy(..).workload(..).seed(s).build()`),
//! which is also the repo-wide canonical setup path: benches, examples,
//! and tests that need a bespoke workload use the builder's low-level
//! finishers [`ScenarioBuilder::build_kernel`] /
//! [`ScenarioBuilder::build_with`] instead of hand-rolling
//! `Kernel::new` + `GhostRuntime::new` + install/create/spawn call
//! chains, so every setup routes through
//! [`GhostRuntime::launch_enclave`].

use crate::cache::{fnv64_debug_lines, fnv64_lines};
use crate::engine::{Experiment, ExperimentResult};
use ghost_core::enclave::EnclaveConfig;
use ghost_core::policy::GhostPolicy;
use ghost_core::runtime::{EnclaveHandle, GhostRuntime};
use ghost_core::StandbyConfig;
use ghost_sim::app::{App, Next};
use ghost_sim::faults::{FaultEvent, FaultKind, FaultPlan};
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, ThreadSpec};
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::CpuSet;
use ghost_trace::TraceSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// The policy vocabulary, re-exported from the `ghost-policies`
/// registry (its original home was this module; `ghost-chaos` in turn
/// re-exports it from here, keeping `repro.json` files and downstream
/// paths stable). New policies register in
/// [`ghost_policies::registry`], not here.
pub use ghost_policies::registry::{PolicyCaps, PolicyEntry, PolicyKind};

/// Which simulated machine to build. A spec-friendly mirror of the
/// [`Topology`] presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// `Topology::test_small(cores)`: one socket, 2-way SMT.
    Small {
        /// Physical cores; logical CPUs = 2×cores.
        cores: u16,
    },
    /// The paper's 112-CPU Skylake evaluation machine.
    Skylake112,
    /// The 72-CPU Haswell machine.
    Haswell72,
    /// The 24-CPU single-socket E5.
    E5Single24,
    /// The 256-CPU AMD Rome machine.
    Rome256,
}

impl TopologySpec {
    /// Builds the concrete topology.
    pub fn build(self) -> Topology {
        match self {
            TopologySpec::Small { cores } => Topology::test_small(cores),
            TopologySpec::Skylake112 => Topology::skylake_112(),
            TopologySpec::Haswell72 => Topology::haswell_72(),
            TopologySpec::E5Single24 => Topology::e5_single_socket_24(),
            TopologySpec::Rome256 => Topology::rome_256(),
        }
    }

    /// Stable spec label.
    pub fn label(self) -> String {
        match self {
            TopologySpec::Small { cores } => format!("small-{cores}"),
            TopologySpec::Skylake112 => "skylake-112".into(),
            TopologySpec::Haswell72 => "haswell-72".into(),
            TopologySpec::E5Single24 => "e5-24".into(),
            TopologySpec::Rome256 => "rome-256".into(),
        }
    }
}

/// The workload a scenario attaches to its enclave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// No threads: the caller drives its own workload through the
    /// returned [`LabRun`] / [`GhostSim`].
    None,
    /// Pulse threads: each repeatedly runs a seed-derived segment then
    /// blocks until a periodic timer re-arms it. The chaos workload.
    Pulse {
        /// Number of workload threads.
        threads: usize,
        /// Segment length range (uniform per thread).
        seg: (Nanos, Nanos),
        /// Re-arm period range (uniform per thread).
        period: (Nanos, Nanos),
    },
    /// Pulse threads colocated with CPU-hog antagonists: the hogs never
    /// block, they run `slice`-long segments back to back (yielding
    /// between segments), squeezing the latency-sensitive pulse threads
    /// — the paper's Fig. 6 antagonist setup.
    Antagonist {
        /// Latency-sensitive pulse threads.
        pulse: usize,
        /// CPU-hog threads.
        hogs: usize,
        /// Pulse segment length range.
        seg: (Nanos, Nanos),
        /// Pulse re-arm period range.
        period: (Nanos, Nanos),
        /// Hog segment length (yield cadence).
        slice: Nanos,
    },
    /// Pulse threads whose re-arm period collapses from `quiet` to
    /// `burst` at `burst_at` — a flash-crowd arrival curve.
    FlashCrowd {
        /// Number of workload threads.
        threads: usize,
        /// Segment length range.
        seg: (Nanos, Nanos),
        /// Pre-burst re-arm period range.
        quiet: (Nanos, Nanos),
        /// Post-burst re-arm period range.
        burst: (Nanos, Nanos),
        /// Virtual time at which the crowd arrives.
        burst_at: Nanos,
    },
}

impl WorkloadSpec {
    /// The standard pulse workload: 20–200 µs segments re-armed every
    /// 0.5–2 ms — well under capacity, so sustained starvation can only
    /// come from injected faults, never from overload.
    pub fn pulse(threads: usize) -> Self {
        WorkloadSpec::Pulse {
            threads,
            seg: (20 * MICROS, 200 * MICROS),
            period: (500 * MICROS, 2 * MILLIS),
        }
    }

    /// The standard antagonist-colocation workload: `pulse` standard
    /// pulse threads squeezed by `hogs` never-blocking CPU hogs that
    /// yield every millisecond.
    pub fn antagonist(pulse: usize, hogs: usize) -> Self {
        WorkloadSpec::Antagonist {
            pulse,
            hogs,
            seg: (20 * MICROS, 200 * MICROS),
            period: (500 * MICROS, 2 * MILLIS),
            slice: MILLIS,
        }
    }

    /// The standard flash-crowd workload: `threads` pulse threads idling
    /// at a 2–4 ms re-arm period until `burst_at`, then re-arming every
    /// 250–500 µs.
    pub fn flash_crowd(threads: usize, burst_at: Nanos) -> Self {
        WorkloadSpec::FlashCrowd {
            threads,
            seg: (20 * MICROS, 200 * MICROS),
            quiet: (2 * MILLIS, 4 * MILLIS),
            burst: (250 * MICROS, 500 * MICROS),
            burst_at,
        }
    }

    fn spec_line(&self) -> String {
        match self {
            WorkloadSpec::None => "workload none".into(),
            WorkloadSpec::Pulse {
                threads,
                seg,
                period,
            } => format!(
                "workload pulse threads={threads} seg={}..{} period={}..{}",
                seg.0, seg.1, period.0, period.1
            ),
            WorkloadSpec::Antagonist {
                pulse,
                hogs,
                seg,
                period,
                slice,
            } => format!(
                "workload antagonist pulse={pulse} hogs={hogs} seg={}..{} period={}..{} slice={slice}",
                seg.0, seg.1, period.0, period.1
            ),
            WorkloadSpec::FlashCrowd {
                threads,
                seg,
                quiet,
                burst,
                burst_at,
            } => format!(
                "workload flash-crowd threads={threads} seg={}..{} quiet={}..{} burst={}..{} at={burst_at}",
                seg.0, seg.1, quiet.0, quiet.1, burst.0, burst.1
            ),
        }
    }
}

/// Stable one-line rendering of a fault event for spec strings. Field
/// names match the `repro.json` vocabulary.
fn fault_spec_line(fe: &FaultEvent) -> String {
    let body = match &fe.kind {
        FaultKind::AgentCrash { cpu } => format!("agent-crash cpu={}", cpu.0),
        FaultKind::AgentHang { cpu, dur } => format!("agent-hang cpu={} dur={dur}", cpu.0),
        FaultKind::AgentSlow { cpu, dur, factor } => {
            format!("agent-slow cpu={} dur={dur} factor={factor}", cpu.0)
        }
        FaultKind::QueueOverflow { dur } => format!("queue-overflow dur={dur}"),
        FaultKind::IpiDelay { dur, extra } => format!("ipi-delay dur={dur} extra={extra}"),
        FaultKind::IpiLoss { dur } => format!("ipi-loss dur={dur}"),
        FaultKind::SpuriousWakeup { nth } => format!("spurious-wakeup nth={nth}"),
        FaultKind::TickSkew { dur, extra } => format!("tick-skew dur={dur} extra={extra}"),
        FaultKind::Upgrade => "upgrade".into(),
    };
    format!("fault at={} {body}", fe.at)
}

/// A complete, self-contained experiment description. Pure data: two
/// equal scenarios produce byte-identical runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Label for reports and digests.
    pub name: String,
    /// The simulated machine.
    pub topology: TopologySpec,
    /// Policy under test.
    pub policy: PolicyKind,
    /// Workload attached to the enclave.
    pub workload: WorkloadSpec,
    /// Seed for the kernel RNG and the workload shape.
    pub seed: u64,
    /// Virtual run length for [`Scenario::run`].
    pub horizon: Nanos,
    /// Deterministic fault schedule (empty = no perturbation).
    pub faults: FaultPlan,
    /// Enclave watchdog timeout (`None` = watchdog off).
    pub watchdog: Option<Nanos>,
    /// Pre-stage a second policy version for in-place upgrade (§3.4).
    pub stage_upgrade: bool,
    /// Arm a hot standby with a respawn factory (§3.4 failover).
    pub standby: bool,
    /// Trace ring capacity per CPU; 0 disables tracing.
    pub trace_capacity: usize,
    /// Enclave CPUs; `None` = the policy's default placement.
    pub enclave_cpus: Option<Vec<u16>>,
    /// Timer-tick period (`None` = the kernel default; 0 = tickless).
    pub tick_ns: Option<Nanos>,
}

impl Scenario {
    /// Starts building a scenario. Defaults: 8-CPU small machine,
    /// centralized FIFO, no workload, seed 1, 100 ms horizon, no
    /// faults, no watchdog, tracing off.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The canonical spec string: every field that affects the outcome,
    /// one per line, in fixed order. This is the cache key input and
    /// the determinism contract — if two scenarios render the same
    /// spec, they must produce the same result.
    pub fn spec_string(&self) -> String {
        let mut s = String::from("ghost-lab scenario v1\n");
        s.push_str(&format!("topology {}\n", self.topology.label()));
        s.push_str(&format!("policy {}\n", self.policy.name()));
        s.push_str(&format!("{}\n", self.workload.spec_line()));
        s.push_str(&format!("seed {}\n", self.seed));
        s.push_str(&format!("horizon {}\n", self.horizon));
        match self.watchdog {
            Some(w) => s.push_str(&format!("watchdog {w}\n")),
            None => s.push_str("watchdog none\n"),
        }
        s.push_str(&format!("stage-upgrade {}\n", u8::from(self.stage_upgrade)));
        s.push_str(&format!("standby {}\n", u8::from(self.standby)));
        s.push_str(&format!("trace-capacity {}\n", self.trace_capacity));
        match self.tick_ns {
            Some(t) => s.push_str(&format!("tick {t}\n")),
            None => s.push_str("tick default\n"),
        }
        match &self.enclave_cpus {
            Some(cpus) => {
                let list: Vec<String> = cpus.iter().map(u16::to_string).collect();
                s.push_str(&format!("cpus {}\n", list.join(",")));
            }
            None => s.push_str("cpus default\n"),
        }
        for fe in &self.faults.events {
            s.push_str(&fault_spec_line(fe));
            s.push('\n');
        }
        s
    }

    /// Builds and wires the whole simulation — kernel, runtime, enclave,
    /// workload — without running it. Callers that need to poke at the
    /// half-way state (inject crashes, check agents) run the kernel
    /// themselves from here.
    pub fn launch(&self) -> LabRun {
        let sink = if self.trace_capacity > 0 {
            TraceSink::recording(1, self.trace_capacity)
        } else {
            TraceSink::Null
        };
        let mut config = KernelConfig {
            seed: self.seed,
            trace: sink.clone(),
            faults: self.faults.clone(),
            ..KernelConfig::default()
        };
        if let Some(t) = self.tick_ns {
            config.tick_ns = t;
        }
        let mut kernel = Kernel::new(self.topology.build(), config);
        let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
        let cpus: CpuSet = match &self.enclave_cpus {
            Some(list) => list.iter().copied().map(CpuId).collect(),
            None => self.policy.enclave_cpus(&kernel.state.topo),
        };
        let mut config = self.policy.enclave_config(&self.name);
        if let Some(w) = self.watchdog {
            config = config.with_watchdog(w);
        }
        if self.standby {
            config = config.with_standby(StandbyConfig::default());
        }
        let enclave = runtime.launch_enclave(&mut kernel, cpus, config, self.policy.build());
        if self.stage_upgrade {
            enclave.stage_upgrade(self.policy.build());
        }
        if self.standby {
            let policy = self.policy;
            enclave.set_standby_policy(move || policy.build());
        }

        let (threads, completions) = attach_workload(
            &mut kernel,
            &enclave,
            &self.workload,
            self.seed,
            self.policy,
        );

        LabRun {
            sim: GhostSim {
                kernel,
                runtime,
                enclave,
                sink,
            },
            threads,
            completions,
            horizon: self.horizon,
        }
    }

    /// Launches, runs to the horizon, and summarizes. The hashable
    /// one-call path used by [`Experiment::execute`].
    pub fn run(&self) -> RunSummary {
        let mut run = self.launch();
        run.run_to_horizon();
        run.summary()
    }
}

impl Experiment for Scenario {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn spec(&self) -> String {
        self.spec_string()
    }

    fn execute(&self) -> ExperimentResult {
        let summary = self.run();
        ExperimentResult {
            pass: true,
            hash: summary.hash,
            lines: summary.lines,
        }
    }
}

/// Builds [`Scenario`] values, and doubles as the repo's canonical
/// low-level setup path via [`ScenarioBuilder::build_kernel`] and
/// [`ScenarioBuilder::build_with`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self {
            scenario: Scenario {
                name: "scenario".into(),
                topology: TopologySpec::Small { cores: 4 },
                policy: PolicyKind::CentralizedFifo,
                workload: WorkloadSpec::None,
                seed: 1,
                horizon: 100 * MILLIS,
                faults: FaultPlan::none(),
                watchdog: None,
                stage_upgrade: false,
                standby: false,
                trace_capacity: 0,
                enclave_cpus: None,
                tick_ns: None,
            },
        }
    }
}

impl ScenarioBuilder {
    /// Report label.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.scenario.name = name.into();
        self
    }

    /// Shorthand for a small SMT machine with `n` logical CPUs
    /// (rounded up to a whole 2-thread core).
    pub fn cpus(mut self, n: u16) -> Self {
        self.scenario.topology = TopologySpec::Small {
            cores: n.div_ceil(2).max(1),
        };
        self
    }

    /// The simulated machine.
    pub fn topology(mut self, topo: TopologySpec) -> Self {
        self.scenario.topology = topo;
        self
    }

    /// Policy under test.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.scenario.policy = policy;
        self
    }

    /// Workload attached to the enclave.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.scenario.workload = workload;
        self
    }

    /// Seed for the kernel RNG and workload shape.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Virtual run length.
    pub fn horizon(mut self, horizon: Nanos) -> Self {
        self.scenario.horizon = horizon;
        self
    }

    /// Deterministic fault schedule.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.scenario.faults = plan;
        self
    }

    /// Enclave watchdog timeout.
    pub fn watchdog(mut self, timeout: Nanos) -> Self {
        self.scenario.watchdog = Some(timeout);
        self
    }

    /// Pre-stage a second policy version for in-place upgrade.
    pub fn stage_upgrade(mut self, yes: bool) -> Self {
        self.scenario.stage_upgrade = yes;
        self
    }

    /// Arm a hot standby with a respawn factory.
    pub fn standby(mut self, yes: bool) -> Self {
        self.scenario.standby = yes;
        self
    }

    /// Trace ring capacity per recorder CPU; 0 disables tracing.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.scenario.trace_capacity = capacity;
        self
    }

    /// Explicit enclave CPUs (default: the policy's placement).
    pub fn enclave_cpus(mut self, cpus: impl IntoIterator<Item = u16>) -> Self {
        self.scenario.enclave_cpus = Some(cpus.into_iter().collect());
        self
    }

    /// Timer-tick period (0 = tickless, §5).
    pub fn tick(mut self, tick_ns: Nanos) -> Self {
        self.scenario.tick_ns = Some(tick_ns);
        self
    }

    /// Finishes the declarative description.
    pub fn build(self) -> Scenario {
        self.scenario
    }

    /// Low-level finisher: just the kernel (topology + seed + faults +
    /// trace sink), no runtime or enclave. For baselines and tests that
    /// do not use ghOSt at all. The sink is also reachable later via
    /// [`GhostSim::sink`]-style cloning from `kernel.state.trace`.
    pub fn build_kernel(self) -> (Kernel, TraceSink) {
        let s = self.scenario;
        let sink = if s.trace_capacity > 0 {
            TraceSink::recording(1, s.trace_capacity)
        } else {
            TraceSink::Null
        };
        let mut config = KernelConfig {
            seed: s.seed,
            trace: sink.clone(),
            faults: s.faults.clone(),
            ..KernelConfig::default()
        };
        if let Some(t) = s.tick_ns {
            config.tick_ns = t;
        }
        (Kernel::new(s.topology.build(), config), sink)
    }

    /// Low-level finisher for bespoke policies and enclave shapes:
    /// builds the kernel, the runtime, and one enclave via the
    /// canonical [`GhostRuntime::launch_enclave`] path. The caller
    /// attaches its own workload.
    pub fn build_with(self, config: EnclaveConfig, policy: Box<dyn GhostPolicy>) -> GhostSim {
        let cpus_spec = self.scenario.enclave_cpus.clone();
        let (mut kernel, sink) = self.build_kernel();
        let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
        let cpus: CpuSet = match cpus_spec {
            Some(list) => list.into_iter().map(CpuId).collect(),
            None => kernel.state.topo.all_cpus_set(),
        };
        let enclave = runtime.launch_enclave(&mut kernel, cpus, config, policy);
        GhostSim {
            kernel,
            runtime,
            enclave,
            sink,
        }
    }
}

/// A wired simulation: kernel + runtime + one live enclave. What the
/// builder's low-level finisher returns; `Send`, so it can run on a
/// worker thread.
pub struct GhostSim {
    /// The simulated kernel.
    pub kernel: Kernel,
    /// The ghOSt runtime installed into it.
    pub runtime: GhostRuntime,
    /// The enclave created at build time.
    pub enclave: EnclaveHandle,
    /// The trace sink (snapshot it after running).
    pub sink: TraceSink,
}

/// A launched scenario: the wired simulation plus its workload.
pub struct LabRun {
    /// The wired simulation.
    pub sim: GhostSim,
    /// Workload thread ids, in spawn order.
    pub threads: Vec<Tid>,
    /// Shared completion counter (pulse workload segments finished).
    completions: Arc<Mutex<u64>>,
    /// The scenario horizon.
    pub horizon: Nanos,
}

impl LabRun {
    /// Runs the kernel to the scenario horizon.
    pub fn run_to_horizon(&mut self) {
        self.sim.kernel.run_until(self.horizon);
    }

    /// Workload segments completed so far.
    pub fn completions(&self) -> u64 {
        *self.completions.lock().unwrap()
    }

    /// Summarizes the observable outcome into stable, hashable lines:
    /// completion and runtime counters plus a hash of the full trace.
    /// Two runs of the same scenario must summarize identically — the
    /// engine's serial-vs-parallel check compares exactly this.
    pub fn summary(&self) -> RunSummary {
        let stats = self.sim.runtime.stats();
        // One lock: the count, the drops and the hash describe one trace.
        let (trace_records, trace_dropped, trace_hash) = self
            .sim
            .sink
            .with_records(|records, dropped| (records.len(), dropped, fnv64_debug_lines(records)));
        let lines = vec![
            format!("completions {}", self.completions()),
            format!("activations {}", stats.activations),
            format!("txns-committed {}", stats.txns_committed),
            format!("txns-stale {}", stats.txns_stale),
            format!("msgs-posted {}", stats.msgs_posted.iter().sum::<u64>()),
            format!("msgs-dropped {}", stats.msgs_dropped),
            format!("pnt-picks {}", stats.pnt_picks),
            format!("upgrades {}", stats.upgrades),
            format!("fallbacks {}", stats.fallbacks),
            format!("reconstructions {}", stats.reconstructions),
            format!("watchdog-destroys {}", stats.watchdog_destroys),
            format!("enclave-alive {}", u8::from(self.sim.enclave.alive())),
            format!("trace-records {trace_records}"),
            format!("trace-dropped {trace_dropped}"),
            format!("trace-hash {trace_hash:016x}"),
        ];
        let hash = fnv64_lines(&lines);
        RunSummary { lines, hash }
    }
}

/// The hashable outcome of one scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Stable result lines (counters + trace hash).
    pub lines: Vec<String>,
    /// FNV-1a over the lines — the digest value for this run.
    pub hash: u64,
}

/// Spawns and attaches the threads of `workload` to an already-launched
/// enclave on `kernel`, exactly as [`Scenario::launch`] does. Public so
/// tests and harnesses that build a bespoke policy instance through
/// [`ScenarioBuilder::build_with`] (e.g. to attach a knob probe) can
/// still drive the canonical workloads. Returns the workload tids in
/// spawn order and the shared segment-completion counter.
pub fn attach_workload(
    kernel: &mut Kernel,
    enclave: &EnclaveHandle,
    workload: &WorkloadSpec,
    seed: u64,
    policy: PolicyKind,
) -> (Vec<Tid>, Arc<Mutex<u64>>) {
    let completions = Arc::new(Mutex::new(0u64));
    if matches!(workload, WorkloadSpec::None) {
        return (Vec::new(), completions);
    }
    let app = kernel.state.next_app_id();
    let mut conf = HashMap::new();
    let mut antagonists = HashSet::new();
    let mut burst_at_opt = None;
    let mut tids = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0C0F_FEE0);
    // One spawn + one conf insert per thread, in index order: the rng
    // consumption order here is part of the determinism contract (the
    // `Pulse` arm must consume exactly two samples per thread, as it
    // always has — digest_freeze pins the resulting traces).
    match workload {
        WorkloadSpec::None => unreachable!(),
        WorkloadSpec::Pulse {
            threads,
            seg,
            period,
        } => {
            for i in 0..*threads {
                let tid = spawn_workload_thread(kernel, app, policy, i);
                let s = rng.gen_range(seg.0..seg.1);
                let p = rng.gen_range(period.0..period.1);
                conf.insert(tid, (s, p, p));
                tids.push(tid);
            }
        }
        WorkloadSpec::Antagonist {
            pulse,
            hogs,
            seg,
            period,
            slice,
        } => {
            for i in 0..pulse + hogs {
                let tid = spawn_workload_thread(kernel, app, policy, i);
                if i < *pulse {
                    let s = rng.gen_range(seg.0..seg.1);
                    let p = rng.gen_range(period.0..period.1);
                    conf.insert(tid, (s, p, p));
                } else {
                    // Hogs run back to back; the long re-arm period only
                    // matters if a fault ever blocks one.
                    conf.insert(tid, (*slice, 10 * MILLIS, 10 * MILLIS));
                    antagonists.insert(tid);
                }
                tids.push(tid);
            }
        }
        WorkloadSpec::FlashCrowd {
            threads,
            seg,
            quiet,
            burst,
            burst_at,
        } => {
            burst_at_opt = Some(*burst_at);
            for i in 0..*threads {
                let tid = spawn_workload_thread(kernel, app, policy, i);
                let s = rng.gen_range(seg.0..seg.1);
                let q = rng.gen_range(quiet.0..quiet.1);
                let b = rng.gen_range(burst.0..burst.1);
                conf.insert(tid, (s, q, b));
                tids.push(tid);
            }
        }
    }
    kernel.add_app(Box::new(PulseApp {
        conf,
        antagonists,
        burst_at: burst_at_opt,
        completions: Arc::clone(&completions),
    }));
    for &tid in &tids {
        enclave.attach_thread(&mut kernel.state, tid);
    }
    for (i, &tid) in tids.iter().enumerate() {
        kernel
            .state
            .arm_app_timer((i as u64 + 1) * 10_000, app, tid.0 as u64);
    }
    (tids, completions)
}

fn spawn_workload_thread(
    kernel: &mut Kernel,
    app: ghost_sim::app::AppId,
    policy: PolicyKind,
    i: usize,
) -> Tid {
    kernel.spawn(
        ThreadSpec::workload(&format!("w{i}"), &kernel.state.topo)
            .app(app)
            .cookie(policy.cookie_for(i)),
    )
}

/// The pulse workload app: each thread repeatedly runs a segment then
/// blocks, re-armed by a periodic timer. Tolerant of fault-induced
/// weirdness (spurious wakeups may leave a thread non-blocked when its
/// timer fires; the timer just re-arms). Antagonist threads never
/// block: they yield between back-to-back segments. Flash-crowd
/// workloads switch every thread's re-arm period from `quiet` to
/// `burst` once the virtual clock passes `burst_at`.
struct PulseApp {
    conf: HashMap<Tid, (Nanos, Nanos, Nanos)>, // (segment, quiet period, burst period)
    antagonists: HashSet<Tid>,
    burst_at: Option<Nanos>,
    completions: Arc<Mutex<u64>>,
}

impl App for PulseApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "pulse"
    }

    fn on_timer(&mut self, key: u64, k: &mut KernelState) {
        let tid = Tid(key as u32);
        let Some(&(seg, quiet, burst)) = self.conf.get(&tid) else {
            return;
        };
        if k.thread(tid).state == ThreadState::Blocked {
            k.thread_mut(tid).remaining = seg;
            k.wake(tid);
        }
        let app = k.thread(tid).app.expect("pulse threads have an app");
        let period = match self.burst_at {
            Some(at) if k.now >= at => burst,
            _ => quiet,
        };
        k.arm_app_timer(k.now + period, app, key);
    }

    fn on_segment_end(&mut self, tid: Tid, _k: &mut KernelState) -> Next {
        if self.antagonists.contains(&tid) {
            // Hogs do not count toward workload throughput; they exist
            // to squeeze it.
            let slice = self.conf.get(&tid).map_or(MILLIS, |c| c.0);
            return Next::Yield { dur: slice };
        }
        *self.completions.lock().unwrap() += 1;
        Next::Block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_string_is_total() {
        let s = Scenario::builder()
            .name("spec-test")
            .cpus(8)
            .policy(PolicyKind::Shinjuku)
            .workload(WorkloadSpec::pulse(5))
            .seed(7)
            .watchdog(20 * MILLIS)
            .faults(FaultPlan::from_events([(
                MILLIS,
                FaultKind::AgentCrash { cpu: CpuId(1) },
            )]))
            .build();
        let spec = s.spec_string();
        for needle in [
            "topology small-4",
            "policy shinjuku",
            "workload pulse threads=5",
            "seed 7",
            "watchdog 20000000",
            "fault at=1000000 agent-crash cpu=1",
        ] {
            assert!(spec.contains(needle), "spec missing {needle:?}:\n{spec}");
        }
        // The name is a label, not part of the outcome: renaming must
        // not invalidate cached results.
        let renamed = Scenario {
            name: "other".into(),
            ..s.clone()
        };
        assert_eq!(spec, renamed.spec_string());
    }

    #[test]
    fn same_scenario_same_summary() {
        let s = Scenario::builder()
            .name("det")
            .cpus(8)
            .policy(PolicyKind::PerCpu)
            .workload(WorkloadSpec::pulse(4))
            .seed(3)
            .horizon(20 * MILLIS)
            .trace_capacity(1 << 14)
            .build();
        let a = s.run();
        let b = s.run();
        assert_eq!(a, b, "same scenario must produce identical summaries");
        assert!(a.lines.iter().any(|l| l.starts_with("completions ")));
    }

    #[test]
    fn whole_runs_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Kernel>();
        assert_send::<GhostRuntime>();
        assert_send::<GhostSim>();
        assert_send::<LabRun>();
        assert_send::<Scenario>();
    }
}
