//! # ghost-lab — deterministic parallel experiment engine
//!
//! The repo's experiments — chaos sweeps, figure benches, property
//! tests — are all "build a simulated machine, run a policy under a
//! workload, measure". This crate turns that recipe into data and runs
//! it at scale:
//!
//! * [`scenario::Scenario`] — a *value* that fully describes one
//!   simulation (topology, policy, workload, faults, trace knobs,
//!   seed). Built with [`scenario::ScenarioBuilder`], the repo-wide
//!   canonical setup path.
//! * [`engine::run_sweep`] — executes a matrix of experiments on a
//!   `std::thread` worker pool. Each simulation stays single-threaded,
//!   so a parallel sweep is byte-identical to a serial one; the
//!   per-run result hash proves it.
//! * [`cache::Cache`] — content-addressed results keyed by spec string
//!   and crate version: re-running an unchanged sweep executes zero
//!   simulations.
//! * [`tournament`] — every registered policy over a scenario × fault
//!   matrix, scored into a league table; [`lending`] — two-enclave core
//!   lending under control-plane faults. Both are experiments on the
//!   same engine; the `ghost-lab` binary is the tournament's CLI.
//!
//! Wall-clock performance is measured by the repo benchmark
//! (`benchmark/`, declared in `BENCHMARK.json`), not here.
//!
//! ```
//! use ghost_lab::engine::run_sweep;
//! use ghost_lab::scenario::{PolicyKind, Scenario, WorkloadSpec};
//! use ghost_sim::time::MILLIS;
//!
//! let scenarios: Vec<Scenario> = (0..4)
//!     .map(|seed| {
//!         Scenario::builder()
//!             .name(format!("demo/seed={seed}"))
//!             .cpus(8)
//!             .policy(PolicyKind::CentralizedFifo)
//!             .workload(WorkloadSpec::pulse(4))
//!             .seed(seed)
//!             .horizon(10 * MILLIS)
//!             .trace_capacity(1 << 14)
//!             .build()
//!     })
//!     .collect();
//! let report = run_sweep(&scenarios, 2, None);
//! assert_eq!(report.items.len(), 4);
//! ```

pub mod cache;
pub mod engine;
pub mod lending;
pub mod scenario;
pub mod tournament;

pub use cache::{fnv64, fnv64_debug_lines, fnv64_lines, Cache};
pub use engine::{run_cases, run_sweep, Experiment, ExperimentResult, SweepItem, SweepReport};
pub use lending::{
    lease_verdicts, lending_fault_matrix, lending_library, LendingFault, LendingRun,
    LendingScenario, LendingWorkload,
};
pub use scenario::{
    attach_workload, GhostSim, LabRun, PolicyCaps, PolicyEntry, PolicyKind, RunSummary, Scenario,
    ScenarioBuilder, TopologySpec, WorkloadSpec,
};
pub use tournament::{
    fault_matrix, league_table, run_tournament, scenario_library, FaultCell, LeagueStanding,
    ScenarioCell, TournamentCell, TournamentOpts, TournamentReport,
};
