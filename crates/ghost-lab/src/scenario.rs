//! Declarative experiment descriptions.
//!
//! A [`Scenario`] is a *value* that fully describes one simulation:
//! topology, the enclaves that partition the machine (each with its
//! policy, CPUs and workload), fault plan, trace knobs, and the seed.
//! Same scenario, same result — always, on any thread. That property is
//! what lets the [`crate::engine`] run scenarios concurrently while
//! each simulation stays single-threaded and byte-identical to its
//! serial run, and what lets the [`crate::cache`] key results by spec
//! content.
//!
//! Construction goes through [`ScenarioBuilder`]
//! (`Scenario::builder().cpus(8).policy(..).workload(..).seed(s).build()`),
//! and [`Scenario::launch`] is the one path from a description to a
//! running DES machine: one-enclave runs, two-enclave core lending
//! ([`crate::lending`]), the chaos families and the examples all go
//! through it. A caller with a bespoke policy instance (a probe, a
//! hostile agent) uses [`Scenario::launch_with`]; a run with no ghOSt at
//! all takes [`ScenarioBuilder::build_kernel`].

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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// One enclave of a [`Scenario`]: its policy, CPUs, workload and §3.4
/// arming. Pure data, like the scenario that holds it.
#[derive(Debug, Clone, PartialEq)]
pub struct EnclaveSpec {
    /// Policy under test.
    pub policy: PolicyKind,
    /// Enclave CPUs; `None` = the policy's default placement.
    pub enclave_cpus: Option<Vec<u16>>,
    /// Workload attached to the enclave.
    pub workload: WorkloadSpec,
    /// Enclave watchdog timeout (`None` = watchdog off).
    pub watchdog: Option<Nanos>,
    /// Pre-stage a second policy version for in-place upgrade (§3.4).
    pub stage_upgrade: bool,
    /// Arm a hot standby with a respawn factory (§3.4 failover).
    pub standby: bool,
}

impl Default for EnclaveSpec {
    /// Centralized FIFO on its default CPUs, no workload, nothing armed.
    fn default() -> Self {
        EnclaveSpec {
            policy: PolicyKind::CentralizedFifo,
            enclave_cpus: None,
            workload: WorkloadSpec::None,
            watchdog: None,
            stage_upgrade: false,
            standby: false,
        }
    }
}

impl EnclaveSpec {
    /// The enclave's spec lines: policy, workload, watchdog,
    /// stage-upgrade, standby, cpus.
    fn spec_lines(&self) -> [String; 6] {
        let cpus = match &self.enclave_cpus {
            Some(cpus) => cpus
                .iter()
                .map(u16::to_string)
                .collect::<Vec<_>>()
                .join(","),
            None => "default".into(),
        };
        [
            format!("policy {}", self.policy.name()),
            self.workload.spec_line(),
            match self.watchdog {
                Some(w) => format!("watchdog {w}"),
                None => "watchdog none".into(),
            },
            format!("stage-upgrade {}", u8::from(self.stage_upgrade)),
            format!("standby {}", u8::from(self.standby)),
            format!("cpus {cpus}"),
        ]
    }
}

/// A complete, self-contained experiment description: one machine and
/// the enclaves that partition it (§3). Pure data: two equal scenarios
/// produce byte-identical runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Label for reports and digests.
    pub name: String,
    /// The simulated machine.
    pub topology: TopologySpec,
    /// The enclaves, launched and then given their workloads in this
    /// order. There is at least one: [`ScenarioBuilder`] starts with
    /// enclave 0, which its per-enclave setters configure.
    pub enclaves: Vec<EnclaveSpec>,
    /// Seed for the kernel RNG and the workload shapes.
    pub seed: u64,
    /// Virtual run length for [`Scenario::run`].
    pub horizon: Nanos,
    /// Deterministic fault schedule (empty = no perturbation).
    pub faults: FaultPlan,
    /// Trace ring capacity per CPU; 0 disables tracing.
    pub trace_capacity: usize,
    /// Timer-tick period (`None` = the kernel default; 0 = tickless).
    pub tick_ns: Option<Nanos>,
}

impl Scenario {
    /// Starts building a scenario. Defaults: 8-CPU small machine, one
    /// centralized-FIFO enclave with no workload, seed 1, 100 ms
    /// horizon, no faults, no watchdog, tracing off.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The canonical spec string: every field that affects the outcome,
    /// one per line, in fixed order. This is the cache key input and
    /// the determinism contract — if two scenarios render the same
    /// spec, they must produce the same result. Enclave 0's lines sit
    /// where the one-enclave format has always put them, so the keys of
    /// one-enclave scenarios never change; each further enclave adds an
    /// `enclave <i>` block.
    pub fn spec_string(&self) -> String {
        let [policy, workload, watchdog, upgrade, standby, cpus] = self
            .enclaves
            .first()
            .expect("a scenario has at least one enclave")
            .spec_lines();
        let mut lines = vec![
            "ghost-lab scenario v1".to_string(),
            format!("topology {}", self.topology.label()),
            policy,
            workload,
            format!("seed {}", self.seed),
            format!("horizon {}", self.horizon),
            watchdog,
            upgrade,
            standby,
            format!("trace-capacity {}", self.trace_capacity),
            match self.tick_ns {
                Some(t) => format!("tick {t}"),
                None => "tick default".into(),
            },
            cpus,
        ];
        for (i, enclave) in self.enclaves.iter().enumerate().skip(1) {
            lines.push(format!("enclave {i}"));
            lines.extend(enclave.spec_lines());
        }
        lines.extend(self.faults.events.iter().map(fault_spec_line));
        lines.push(String::new());
        lines.join("\n")
    }

    /// Builds and wires the whole simulation — kernel, runtime,
    /// enclaves, workloads — without running it. Callers that need to
    /// poke at the half-way state (inject crashes, check agents, start
    /// an RM) run the kernel themselves from here.
    pub fn launch(&self) -> LabRun {
        self.launch_with(|i, config| (config, self.enclaves[i].policy.build()))
    }

    /// [`Scenario::launch`] with a hook for bespoke policies:
    /// `enclave(i, config)` gets enclave `i`'s index and the config its
    /// spec implies, and returns the config and policy instance to
    /// launch it with. A staged upgrade or standby respawn still builds
    /// the spec's [`PolicyKind`].
    ///
    /// Order, which the digests pin: each enclave in list order is
    /// launched, its upgrade staged and its standby armed; then each
    /// enclave's workload is attached in list order, with its own app,
    /// its own timers from 10 µs, and its own stream seeded
    /// `seed ^ i·0xD0_1104`.
    pub fn launch_with(
        &self,
        mut enclave: impl FnMut(usize, EnclaveConfig) -> (EnclaveConfig, Box<dyn GhostPolicy>),
    ) -> LabRun {
        let (mut kernel, sink) = self.new_kernel();
        let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
        let mut enclaves = Vec::with_capacity(self.enclaves.len());
        for (i, spec) in self.enclaves.iter().enumerate() {
            let cpus: CpuSet = match &spec.enclave_cpus {
                Some(list) => list.iter().copied().map(CpuId).collect(),
                None => spec.policy.enclave_cpus(&kernel.state.topo),
            };
            let mut config = spec.policy.enclave_config(&self.name);
            if let Some(w) = spec.watchdog {
                config = config.with_watchdog(w);
            }
            let (config, policy) = enclave(i, config);
            let handle = runtime.launch_enclave(&mut kernel, cpus, config, policy);
            if spec.stage_upgrade {
                handle
                    .try_stage_upgrade(spec.policy.build())
                    .expect("stage upgrade");
            }
            if spec.standby {
                let policy = spec.policy;
                handle.set_standby(StandbyConfig::default(), move || policy.build());
            }
            enclaves.push(handle);
        }
        let (threads, completions) = self
            .enclaves
            .iter()
            .zip(&enclaves)
            .enumerate()
            .map(|(i, (spec, handle))| {
                let seed = self.seed ^ (i as u64 * 0xD0_1104);
                attach_workload(&mut kernel, handle, spec, seed)
            })
            .unzip();
        LabRun {
            sim: GhostSim {
                kernel,
                runtime,
                enclaves,
                sink,
            },
            threads,
            completions,
            horizon: self.horizon,
        }
    }

    /// The bare kernel this scenario runs on: topology, seed, faults,
    /// tick period and trace sink, no runtime or enclave.
    fn new_kernel(&self) -> (Kernel, TraceSink) {
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
        (Kernel::new(self.topology.build(), config), sink)
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

/// Builds [`Scenario`] values. The per-enclave setters configure
/// enclave 0; [`ScenarioBuilder::enclave`] appends another.
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
                enclaves: vec![EnclaveSpec::default()],
                seed: 1,
                horizon: 100 * MILLIS,
                faults: FaultPlan::none(),
                trace_capacity: 0,
                tick_ns: None,
            },
        }
    }
}

impl ScenarioBuilder {
    fn first(&mut self) -> &mut EnclaveSpec {
        &mut self.scenario.enclaves[0]
    }

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

    /// Enclave 0's policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.first().policy = policy;
        self
    }

    /// Enclave 0's workload.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.first().workload = workload;
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

    /// Enclave 0's watchdog timeout.
    pub fn watchdog(mut self, timeout: Nanos) -> Self {
        self.first().watchdog = Some(timeout);
        self
    }

    /// Pre-stage a second version of enclave 0's policy for in-place
    /// upgrade.
    pub fn stage_upgrade(mut self, yes: bool) -> Self {
        self.first().stage_upgrade = yes;
        self
    }

    /// Arm a hot standby for enclave 0.
    pub fn standby(mut self, yes: bool) -> Self {
        self.first().standby = yes;
        self
    }

    /// Trace ring capacity per recorder CPU; 0 disables tracing.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.scenario.trace_capacity = capacity;
        self
    }

    /// Enclave 0's CPUs (default: the policy's placement).
    pub fn enclave_cpus(mut self, cpus: impl IntoIterator<Item = u16>) -> Self {
        self.first().enclave_cpus = Some(cpus.into_iter().collect());
        self
    }

    /// Timer-tick period (0 = tickless, §5).
    pub fn tick(mut self, tick_ns: Nanos) -> Self {
        self.scenario.tick_ns = Some(tick_ns);
        self
    }

    /// Appends an enclave after those already described.
    pub fn enclave(mut self, spec: EnclaveSpec) -> Self {
        self.scenario.enclaves.push(spec);
        self
    }

    /// Finishes the declarative description.
    pub fn build(self) -> Scenario {
        self.scenario
    }

    /// Just the kernel (topology + seed + faults + trace sink), no
    /// runtime or enclave: for baselines and tests that do not use
    /// ghOSt at all.
    pub fn build_kernel(self) -> (Kernel, TraceSink) {
        self.scenario.new_kernel()
    }
}

/// A wired simulation: kernel + runtime + the live enclaves. `Send`,
/// so it can run on a worker thread.
pub struct GhostSim {
    /// The simulated kernel.
    pub kernel: Kernel,
    /// The ghOSt runtime installed into it.
    pub runtime: GhostRuntime,
    /// The enclaves, in [`Scenario::enclaves`] order.
    pub enclaves: Vec<EnclaveHandle>,
    /// The trace sink (snapshot it after running).
    pub sink: TraceSink,
}

/// A launched scenario: the wired simulation plus its workloads.
pub struct LabRun {
    /// The wired simulation.
    pub sim: GhostSim,
    /// Each enclave's workload thread ids, in spawn order.
    pub threads: Vec<Vec<Tid>>,
    /// Each enclave's finished pulse segments.
    completions: Vec<Completions>,
    /// The scenario horizon.
    pub horizon: Nanos,
}

impl LabRun {
    /// Runs the kernel to the scenario horizon.
    pub fn run_to_horizon(&mut self) {
        self.sim.kernel.run_until(self.horizon);
    }

    /// Workload segments completed so far, over all enclaves.
    pub fn completions(&self) -> u64 {
        self.completions.iter().map(Completions::get).sum()
    }

    /// Workload segments enclave `i` completed so far.
    pub fn enclave_completions(&self, i: usize) -> u64 {
        self.completions[i].get()
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
        let alive = self.sim.enclaves.iter().filter(|e| e.alive()).count();
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
            format!("enclave-alive {alive}"),
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

/// Spawns the threads of `spec`'s workload and attaches them to its
/// already-launched `enclave`, with their own app and a stream seeded
/// from `seed`. Returns the workload tids in spawn order and the
/// segment-completion counter.
fn attach_workload(
    kernel: &mut Kernel,
    enclave: &EnclaveHandle,
    spec: &EnclaveSpec,
    seed: u64,
) -> (Vec<Tid>, Completions) {
    let completions = Completions::default();
    if matches!(spec.workload, WorkloadSpec::None) {
        return (Vec::new(), completions);
    }
    let app = kernel.state.next_app_id();
    let mut conf = PulseConf::default();
    let mut burst_at_opt = None;
    let mut tids = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0C0F_FEE0);
    let mut spawn = |kernel: &mut Kernel, i: usize| {
        let tid = kernel.spawn(
            ThreadSpec::workload(&format!("w{i}"), &kernel.state.topo)
                .app(app)
                .cookie(spec.policy.cookie_for(i)),
        );
        tids.push(tid);
        tid
    };
    // One spawn + one conf insert per thread, in index order: the rng
    // consumption order here is part of the determinism contract (the
    // `Pulse` arm must consume exactly two samples per thread, as it
    // always has — digest_freeze pins the resulting traces).
    match spec.workload {
        WorkloadSpec::None => unreachable!(),
        WorkloadSpec::Pulse {
            threads,
            seg,
            period,
        } => {
            for i in 0..threads {
                let tid = spawn(kernel, i);
                let s = rng.gen_range(seg.0..seg.1);
                let p = rng.gen_range(period.0..period.1);
                conf.insert(tid, Pulse::new(s, p, p, false));
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
                let tid = spawn(kernel, i);
                if i < pulse {
                    let s = rng.gen_range(seg.0..seg.1);
                    let p = rng.gen_range(period.0..period.1);
                    conf.insert(tid, Pulse::new(s, p, p, false));
                } else {
                    // Hogs run back to back; the long re-arm period only
                    // matters if a fault ever blocks one.
                    conf.insert(tid, Pulse::new(slice, 10 * MILLIS, 10 * MILLIS, true));
                }
            }
        }
        WorkloadSpec::FlashCrowd {
            threads,
            seg,
            quiet,
            burst,
            burst_at,
        } => {
            burst_at_opt = Some(burst_at);
            for i in 0..threads {
                let tid = spawn(kernel, i);
                let s = rng.gen_range(seg.0..seg.1);
                let q = rng.gen_range(quiet.0..quiet.1);
                let b = rng.gen_range(burst.0..burst.1);
                conf.insert(tid, Pulse::new(s, q, b, false));
            }
        }
    }
    kernel.add_app(Box::new(PulseApp {
        conf,
        burst_at: burst_at_opt,
        completions: completions.clone(),
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

/// A count of finished pulse segments, shared between the workload app
/// that counts and the harness that reads it. The app is its only
/// writer, so counting is a load and a store, not a locked
/// read-modify-write.
#[derive(Debug, Clone, Default)]
struct Completions(Arc<AtomicU64>);

impl Completions {
    /// Segments finished so far.
    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn count_one(&self) {
        self.0.store(self.get() + 1, Ordering::Relaxed);
    }
}

/// One pulse thread's shape.
#[derive(Debug, Clone, Copy)]
struct Pulse {
    seg: Nanos,
    /// Re-arm period before the flash crowd's `burst_at`, and after it.
    quiet: Nanos,
    burst: Nanos,
    /// An antagonist: yields between back-to-back segments, never counts.
    hog: bool,
}

impl Pulse {
    fn new(seg: Nanos, quiet: Nanos, burst: Nanos, hog: bool) -> Self {
        Pulse {
            seg,
            quiet,
            burst,
            hog,
        }
    }
}

/// Pulse shapes indexed by dense tid.
#[derive(Default)]
struct PulseConf(Vec<Option<Pulse>>);

impl PulseConf {
    fn insert(&mut self, tid: Tid, pulse: Pulse) {
        if self.0.len() <= tid.index() {
            self.0.resize(tid.index() + 1, None);
        }
        self.0[tid.index()] = Some(pulse);
    }

    fn get(&self, tid: Tid) -> Option<Pulse> {
        self.0.get(tid.index()).copied().flatten()
    }
}

/// The pulse workload app: each thread repeatedly runs a segment then
/// blocks, re-armed by a periodic timer. Tolerant of fault-induced
/// weirdness (spurious wakeups may leave a thread non-blocked when its
/// timer fires; the timer just re-arms). Antagonist threads never
/// block: they yield between back-to-back segments. Flash-crowd
/// workloads switch every thread's re-arm period from `quiet` to
/// `burst` once the virtual clock passes `burst_at`.
struct PulseApp {
    conf: PulseConf,
    burst_at: Option<Nanos>,
    completions: Completions,
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
        let Some(pulse) = self.conf.get(tid) else {
            return;
        };
        if k.thread(tid).state == ThreadState::Blocked {
            k.thread_mut(tid).remaining = pulse.seg;
            k.wake(tid);
        }
        let app = k.thread(tid).app.expect("pulse threads have an app");
        let period = match self.burst_at {
            Some(at) if k.now >= at => pulse.burst,
            _ => pulse.quiet,
        };
        k.arm_app_timer(k.now + period, app, key);
    }

    fn on_segment_end(&mut self, tid: Tid, _k: &mut KernelState) -> Next {
        match self.conf.get(tid) {
            // Hogs do not count toward workload throughput; they exist
            // to squeeze it.
            Some(pulse) if pulse.hog => Next::Yield { dur: pulse.seg },
            _ => {
                self.completions.count_one();
                Next::Block
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-enclave machine: enclave 0 as `one` has it, and a per-CPU
    /// enclave with its own pulse workload on CPUs 4–5.
    fn two_enclaves(one: ScenarioBuilder) -> Scenario {
        one.enclave_cpus([1, 2, 3])
            .enclave(EnclaveSpec {
                policy: PolicyKind::PerCpu,
                enclave_cpus: Some(vec![4, 5]),
                workload: WorkloadSpec::pulse(2),
                ..EnclaveSpec::default()
            })
            .build()
    }

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

        // Every field of a second enclave is part of the outcome too.
        let two = two_enclaves(Scenario::builder().cpus(8));
        let edits: [fn(&mut EnclaveSpec); 6] = [
            |e| e.policy = PolicyKind::CentralizedFifo,
            |e| e.enclave_cpus = Some(vec![4]),
            |e| e.workload = WorkloadSpec::pulse(3),
            |e| e.watchdog = Some(MILLIS),
            |e| e.stage_upgrade = true,
            |e| e.standby = true,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut other = two.clone();
            edit(&mut other.enclaves[1]);
            assert_ne!(two.spec_string(), other.spec_string(), "edit {i}");
        }
    }

    /// A one-enclave scenario with every field set renders exactly the
    /// bytes it always has, so cached results stay valid.
    #[test]
    fn one_enclave_spec_string_is_pinned() {
        let s = Scenario::builder()
            .name("pinned")
            .topology(TopologySpec::Rome256)
            .policy(PolicyKind::ShinjukuAdaptive)
            .workload(WorkloadSpec::antagonist(3, 2))
            .seed(11)
            .horizon(50 * MILLIS)
            .faults(FaultPlan::from_events([
                (MILLIS, FaultKind::AgentCrash { cpu: CpuId(1) }),
                (2 * MILLIS, FaultKind::Upgrade),
            ]))
            .watchdog(20 * MILLIS)
            .stage_upgrade(true)
            .standby(true)
            .trace_capacity(4096)
            .enclave_cpus([1, 2, 3])
            .tick(500 * MICROS)
            .build();
        assert_eq!(
            s.spec_string(),
            "ghost-lab scenario v1\n\
             topology rome-256\n\
             policy shinjuku-adaptive\n\
             workload antagonist pulse=3 hogs=2 seg=20000..200000 period=500000..2000000 slice=1000000\n\
             seed 11\n\
             horizon 50000000\n\
             watchdog 20000000\n\
             stage-upgrade 1\n\
             standby 1\n\
             trace-capacity 4096\n\
             tick 500000\n\
             cpus 1,2,3\n\
             fault at=1000000 agent-crash cpu=1\n\
             fault at=2000000 upgrade\n"
        );
    }

    #[test]
    fn same_scenario_same_summary() {
        let one = Scenario::builder()
            .name("det")
            .cpus(8)
            .policy(PolicyKind::PerCpu)
            .workload(WorkloadSpec::pulse(4))
            .seed(3)
            .horizon(20 * MILLIS)
            .trace_capacity(1 << 14);
        for s in [one.clone().build(), two_enclaves(one)] {
            let a = s.run();
            let b = s.run();
            assert_eq!(a, b, "same scenario must produce identical summaries");
            assert!(a.lines.iter().any(|l| l.starts_with("completions ")));
        }
    }

    #[test]
    fn whole_runs_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Kernel>();
        assert_send::<GhostRuntime>();
        assert_send::<GhostSim>();
        assert_send::<LabRun>();
        assert_send::<Scenario>();
        // A launched two-enclave machine runs on another thread exactly
        // as it does on this one.
        let s = two_enclaves(
            Scenario::builder()
                .cpus(8)
                .workload(WorkloadSpec::pulse(3))
                .horizon(10 * MILLIS),
        );
        let mut run = s.launch();
        let moved = std::thread::spawn(move || {
            run.run_to_horizon();
            (run.summary(), run.enclave_completions(1))
        })
        .join()
        .unwrap();
        assert_eq!(moved.0, s.run());
        assert!(moved.1 > 0, "enclave 1's workload never ran");
    }
}
