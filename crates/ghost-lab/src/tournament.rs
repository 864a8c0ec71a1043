//! The policy tournament: league-table scoring over the scenario ×
//! fault matrix.
//!
//! Every registered policy plays every cell of a fixed matrix — a
//! scenario library (paper-style latency, overload, antagonist
//! colocation, and flash-crowd workloads) crossed with a fault plan
//! library (clean run, agent crash with hot-standby failover, agent
//! hang, agent slowdown, message-queue overflow). Each cell is one
//! deterministic [`TournamentCell`] experiment on the
//! [`crate::engine`] sweep engine, so the whole tournament inherits
//! the engine's contract: serial and parallel runs are byte-identical,
//! and unchanged cells replay from the content-addressed cache.
//!
//! Scoring is per cell: wakeup-to-run tail latency (p50/p99/p99.9 from
//! the trace-derived histogram), segment throughput, latency-SLO
//! violations, and — on cells whose fault plan kills an agent — the
//! worst `RecoveryStart` → `ReconstructDone` failover span. Within a
//! cell, policies are ranked by p99 (registry order breaks ties) and
//! awarded league points: `n` policies in the cell, the winner takes
//! `n`, the last place takes 1. Points sum across the matrix into the
//! season [`LeagueStanding`]s rendered by [`league_table`].

use crate::cache::{fnv64_lines, Cache};
use crate::engine::{run_sweep, Experiment, ExperimentResult, SweepReport};
use crate::scenario::{PolicyKind, Scenario, WorkloadSpec};
use ghost_metrics::table::{fmt_ns, Table};
use ghost_sim::faults::{FaultKind, FaultPlan};
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use ghost_sim::topology::CpuId;
use ghost_trace::check::{Checker, DEFAULT_GRACE_NS};
use ghost_trace::derive::Deriver;

/// One workload column of the tournament matrix.
#[derive(Debug, Clone)]
pub struct ScenarioCell {
    /// Stable column name (part of every cell label and spec).
    pub name: &'static str,
    /// The workload every policy faces in this column.
    pub workload: WorkloadSpec,
}

/// The tournament's scenario library: four workload shapes on the
/// 8-CPU small machine.
///
/// * `fig5-pulse` — the paper's Fig. 5-style light-load latency
///   workload: well under capacity, measuring clean wakeup-to-run.
/// * `fig6-overload` — sustained ~1.15× overdemand: the FIFO backs up
///   and stays backed up, so preemption and steal policy decide p99.
/// * `antagonist` — Fig. 6-style colocation: latency-sensitive pulse
///   threads squeezed by never-blocking CPU hogs.
/// * `flash-crowd` — an idle fleet whose re-arm period collapses
///   mid-run, hammering the wakeup path with a burst arrival curve.
pub fn scenario_library() -> Vec<ScenarioCell> {
    vec![
        ScenarioCell {
            name: "fig5-pulse",
            workload: WorkloadSpec::pulse(6),
        },
        ScenarioCell {
            name: "fig6-overload",
            workload: WorkloadSpec::Pulse {
                threads: 24,
                seg: (50 * MICROS, 150 * MICROS),
                period: (200 * MICROS, 400 * MICROS),
            },
        },
        ScenarioCell {
            name: "antagonist",
            workload: WorkloadSpec::antagonist(6, 4),
        },
        ScenarioCell {
            name: "flash-crowd",
            workload: WorkloadSpec::flash_crowd(16, 20 * MILLIS),
        },
    ]
}

/// One fault row of the tournament matrix.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// Stable row name (part of every cell label and spec).
    pub name: &'static str,
    /// The deterministic fault schedule injected into the cell.
    pub plan: FaultPlan,
    /// Arm a hot standby (crash cells: §3.4 failover is the thing
    /// being scored).
    pub standby: bool,
}

/// The fault matrix, with injection times scaled to `horizon`. The
/// `bounded` subset (clean / crash / overflow) is what CI and the
/// determinism tests run; the full matrix adds agent hang and agent
/// slowdown rows.
///
/// Agent faults target CPU 1: it is inside the enclave under every
/// policy's default placement (CPU 0 is enclave-resident only under
/// whole-core policies).
pub fn fault_matrix(horizon: Nanos, bounded: bool) -> Vec<FaultCell> {
    let mut cells = vec![
        FaultCell {
            name: "none",
            plan: FaultPlan::none(),
            standby: false,
        },
        FaultCell {
            name: "agent-crash",
            plan: FaultPlan::from_events([(horizon / 4, FaultKind::AgentCrash { cpu: CpuId(1) })]),
            standby: true,
        },
        FaultCell {
            name: "queue-overflow",
            plan: FaultPlan::from_events([(
                horizon / 2,
                FaultKind::QueueOverflow { dur: horizon / 8 },
            )]),
            standby: false,
        },
    ];
    if !bounded {
        cells.push(FaultCell {
            name: "agent-hang",
            plan: FaultPlan::from_events([(
                horizon / 3,
                FaultKind::AgentHang {
                    cpu: CpuId(1),
                    // Kept under the watchdog timeout: the cell scores
                    // the stall, not an enclave teardown.
                    dur: horizon / 8,
                },
            )]),
            standby: false,
        });
        cells.push(FaultCell {
            name: "agent-slow",
            plan: FaultPlan::from_events([(
                horizon / 3,
                FaultKind::AgentSlow {
                    cpu: CpuId(1),
                    dur: horizon / 4,
                    factor: 8,
                },
            )]),
            standby: false,
        });
    }
    cells
}

/// Tournament parameters. The defaults are the committed-league
/// configuration; tests shrink `horizon`/`policies` and set `bounded`.
#[derive(Debug, Clone)]
pub struct TournamentOpts {
    /// Contestants, in registry order (ranking tie-break order).
    pub policies: Vec<PolicyKind>,
    /// Seed shared by every cell (the workload shape per column is
    /// identical across policies, so cells are comparable).
    pub seed: u64,
    /// Virtual run length per cell; fault times scale with it.
    pub horizon: Nanos,
    /// Wakeup-to-run latency SLO: samples above it are violations.
    pub slo: Nanos,
    /// Run only the bounded fault subset (CI / determinism tests).
    pub bounded: bool,
    /// Trace ring capacity per cell.
    pub trace_capacity: usize,
}

impl Default for TournamentOpts {
    fn default() -> Self {
        Self {
            policies: PolicyKind::registered().collect(),
            seed: 1,
            horizon: 60 * MILLIS,
            slo: MILLIS,
            bounded: false,
            trace_capacity: 1 << 20,
        }
    }
}

/// One cell of the tournament: a policy playing one scenario under one
/// fault plan. An [`Experiment`], so sweeps over cells cache and
/// parallelize exactly like scenario sweeps.
#[derive(Debug, Clone)]
pub struct TournamentCell {
    /// The contestant.
    pub policy: PolicyKind,
    /// Scenario-library column name.
    pub scenario_name: &'static str,
    /// Fault-matrix row name.
    pub fault_name: &'static str,
    /// The fully-wired scenario the cell runs.
    pub scenario: Scenario,
    /// The cell's latency SLO.
    pub slo: Nanos,
}

/// Every cell of the matrix described by `opts`, in a fixed order:
/// scenario-major, then fault, then policy. Group order is what the
/// scorer relies on; the label/spec of each cell is order-independent.
pub fn tournament_cells(opts: &TournamentOpts) -> Vec<TournamentCell> {
    let mut cells = Vec::new();
    for sc in scenario_library() {
        for fc in fault_matrix(opts.horizon, opts.bounded) {
            for &policy in &opts.policies {
                let label = cell_label(policy, sc.name, fc.name);
                let scenario = Scenario::builder()
                    .name(label)
                    .cpus(8)
                    .policy(policy)
                    .workload(sc.workload.clone())
                    .seed(opts.seed)
                    .horizon(opts.horizon)
                    .watchdog(opts.horizon / 3)
                    .standby(fc.standby)
                    .faults(fc.plan.clone())
                    .trace_capacity(opts.trace_capacity)
                    .build();
                cells.push(TournamentCell {
                    policy,
                    scenario_name: sc.name,
                    fault_name: fc.name,
                    scenario,
                    slo: opts.slo,
                });
            }
        }
    }
    cells
}

fn cell_label(policy: PolicyKind, scenario: &str, fault: &str) -> String {
    format!("{}@{scenario}+{fault}", policy.name())
}

impl Experiment for TournamentCell {
    fn label(&self) -> String {
        cell_label(self.policy, self.scenario_name, self.fault_name)
    }

    fn spec(&self) -> String {
        format!(
            "ghost-lab tournament v1\nslo {}\n{}",
            self.slo,
            self.scenario.spec_string()
        )
    }

    fn execute(&self) -> ExperimentResult {
        let mut run = self.scenario.launch();
        run.run_to_horizon();
        // Derive and check in one pass over the borrowed trace; `dropped`
        // comes from the same lock acquisition.
        let (metrics, violations, dropped) = run.sim.sink.with_records(|records, dropped| {
            let (mut derive, mut checker) = (Deriver::default(), Checker::new(DEFAULT_GRACE_NS));
            for rec in records {
                derive.observe(rec);
                checker.observe(rec);
            }
            (derive.finish(), checker.finish(), dropped)
        });
        let tail = metrics.wakeup_to_run.tail_summary();
        let slo_violations = metrics.wakeup_to_run.count_above(self.slo);
        let lines = vec![
            format!("policy {}", self.policy.name()),
            format!("scenario {}", self.scenario_name),
            format!("fault {}", self.fault_name),
            format!("completions {}", run.completions()),
            format!("latency-samples {}", tail.count),
            format!("p50-ns {}", tail.p50),
            format!("p99-ns {}", tail.p99),
            format!("p999-ns {}", tail.p999),
            format!("max-ns {}", tail.max),
            format!("slo-violations {slo_violations}"),
            match metrics.recovery_max_ns() {
                Some(ns) => format!("recovery-ns {ns}"),
                None => "recovery-ns none".into(),
            },
            format!("invariant-violations {}", violations.len()),
            format!("trace-dropped {dropped}"),
        ];
        let hash = fnv64_lines(&lines);
        ExperimentResult {
            pass: violations.is_empty() && dropped == 0,
            hash,
            lines,
        }
    }
}

/// The per-cell score, parsed back out of a cell's (possibly cached)
/// result lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellScore {
    /// Workload segments completed.
    pub completions: u64,
    /// Wakeup-to-run samples scored.
    pub samples: u64,
    /// p50 wakeup-to-run latency, ns.
    pub p50_ns: u64,
    /// p99 wakeup-to-run latency, ns — the ranking metric.
    pub p99_ns: u64,
    /// p99.9 wakeup-to-run latency, ns.
    pub p999_ns: u64,
    /// Worst single wakeup-to-run latency, ns.
    pub max_ns: u64,
    /// Samples over the cell's SLO.
    pub slo_violations: u64,
    /// Worst failover span, ns (crash cells).
    pub recovery_ns: Option<u64>,
    /// Trace-invariant violations (0 on a passing cell).
    pub invariant_violations: u64,
}

fn line_value<'a>(lines: &'a [String], key: &str) -> Option<&'a str> {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
}

fn line_u64(lines: &[String], key: &str) -> u64 {
    line_value(lines, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("tournament result lines missing '{key}'"))
}

impl CellScore {
    /// Parses the stable result lines emitted by
    /// [`TournamentCell::execute`]. Panics on a malformed result — that
    /// only happens if a stale cache entry from an incompatible schema
    /// version leaks through, which the spec version line prevents.
    pub fn from_lines(lines: &[String]) -> Self {
        CellScore {
            completions: line_u64(lines, "completions"),
            samples: line_u64(lines, "latency-samples"),
            p50_ns: line_u64(lines, "p50-ns"),
            p99_ns: line_u64(lines, "p99-ns"),
            p999_ns: line_u64(lines, "p999-ns"),
            max_ns: line_u64(lines, "max-ns"),
            slo_violations: line_u64(lines, "slo-violations"),
            recovery_ns: line_value(lines, "recovery-ns")
                .filter(|v| *v != "none")
                .and_then(|v| v.parse().ok()),
            invariant_violations: line_u64(lines, "invariant-violations"),
        }
    }
}

/// One scored cell of the finished tournament.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// `policy@scenario+fault`.
    pub label: String,
    /// The contestant.
    pub policy: PolicyKind,
    /// Scenario-library column.
    pub scenario: &'static str,
    /// Fault-matrix row.
    pub fault: &'static str,
    /// The parsed score.
    pub score: CellScore,
    /// League points awarded in this cell (winner takes the field
    /// size, last place takes 1).
    pub points: u64,
    /// Did the cell pass (no invariant violations, no trace drops)?
    pub pass: bool,
    /// Result hash (the serial-vs-parallel comparison value).
    pub hash: u64,
    /// Served from the content-addressed cache?
    pub cached: bool,
}

/// One policy's season row in the league table.
#[derive(Debug, Clone)]
pub struct LeagueStanding {
    /// The contestant.
    pub policy: PolicyKind,
    /// Season points (sum over all cells).
    pub points: u64,
    /// Cells won outright (ranked first on p99).
    pub wins: u64,
    /// Cells played.
    pub cells: u64,
    /// Worst per-cell p99 across the season, ns.
    pub worst_p99_ns: u64,
    /// Worst per-cell p99.9 across the season, ns.
    pub worst_p999_ns: u64,
    /// Total SLO violations across the season.
    pub slo_violations: u64,
    /// Total segments completed across the season.
    pub completions: u64,
    /// Worst failover span across the season, ns (crash cells).
    pub worst_recovery_ns: Option<u64>,
    /// Every cell passed invariants cleanly.
    pub clean: bool,
}

/// A finished, scored tournament.
#[derive(Debug)]
pub struct TournamentReport {
    /// Every cell, in matrix order (scenario-major, fault, policy).
    pub cells: Vec<CellOutcome>,
    /// Season standings, best first.
    pub standings: Vec<LeagueStanding>,
    /// Cells that actually executed.
    pub executed: usize,
    /// Cells served from the cache.
    pub cached: usize,
    /// The SLO every cell was scored against.
    pub slo: Nanos,
}

impl TournamentReport {
    /// True if every cell passed (no invariant violations, no drops).
    pub fn all_passed(&self) -> bool {
        self.cells.iter().all(|c| c.pass)
    }

    /// `label <hash> pts=<points>` lines, one per cell in matrix
    /// order — the value compared between serial and parallel runs.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&format!("{} {:016x} pts={}\n", c.label, c.hash, c.points));
        }
        out
    }

    /// The p99 of one `(policy, scenario, fault)` cell, if played.
    pub fn cell_p99(&self, policy: PolicyKind, scenario: &str, fault: &str) -> Option<u64> {
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.scenario == scenario && c.fault == fault)
            .map(|c| c.score.p99_ns)
    }
}

/// Runs the whole tournament matrix on the sweep engine (`jobs`
/// workers, optional result cache) and scores it. Deterministic: the
/// returned report — cells, points, standings, digest — is identical
/// for any `jobs` value and for cached replays.
pub fn run_tournament(
    opts: &TournamentOpts,
    jobs: usize,
    cache: Option<&Cache>,
) -> TournamentReport {
    let cells = tournament_cells(opts);
    let sweep = run_sweep(&cells, jobs, cache);
    score_sweep(opts, &cells, &sweep)
}

fn score_sweep(
    opts: &TournamentOpts,
    cells: &[TournamentCell],
    sweep: &SweepReport,
) -> TournamentReport {
    let mut outcomes: Vec<CellOutcome> = cells
        .iter()
        .zip(&sweep.items)
        .map(|(cell, item)| CellOutcome {
            label: item.label.clone(),
            policy: cell.policy,
            scenario: cell.scenario_name,
            fault: cell.fault_name,
            score: CellScore::from_lines(&item.result.lines),
            points: 0,
            pass: item.result.pass,
            hash: item.result.hash,
            cached: item.cached,
        })
        .collect();

    // Rank within each (scenario, fault) group: p99 ascending, input
    // (= registry) order breaking ties. Winner takes the field size.
    let mut groups: Vec<(&'static str, &'static str)> = Vec::new();
    for c in &outcomes {
        if !groups.contains(&(c.scenario, c.fault)) {
            groups.push((c.scenario, c.fault));
        }
    }
    for (scenario, fault) in groups {
        let mut idxs: Vec<usize> = (0..outcomes.len())
            .filter(|&i| outcomes[i].scenario == scenario && outcomes[i].fault == fault)
            .collect();
        idxs.sort_by_key(|&i| outcomes[i].score.p99_ns);
        let field = idxs.len() as u64;
        for (rank, &i) in idxs.iter().enumerate() {
            outcomes[i].points = field - rank as u64;
        }
    }

    let mut standings: Vec<LeagueStanding> = opts
        .policies
        .iter()
        .map(|&policy| {
            let mine: Vec<&CellOutcome> = outcomes.iter().filter(|c| c.policy == policy).collect();
            let field = mine.first().map_or(0, |c| {
                outcomes
                    .iter()
                    .filter(|o| o.scenario == c.scenario && o.fault == c.fault)
                    .count()
            }) as u64;
            LeagueStanding {
                policy,
                points: mine.iter().map(|c| c.points).sum(),
                wins: mine.iter().filter(|c| c.points == field).count() as u64,
                cells: mine.len() as u64,
                worst_p99_ns: mine.iter().map(|c| c.score.p99_ns).max().unwrap_or(0),
                worst_p999_ns: mine.iter().map(|c| c.score.p999_ns).max().unwrap_or(0),
                slo_violations: mine.iter().map(|c| c.score.slo_violations).sum(),
                completions: mine.iter().map(|c| c.score.completions).sum(),
                worst_recovery_ns: mine.iter().filter_map(|c| c.score.recovery_ns).max(),
                clean: mine.iter().all(|c| c.pass),
            }
        })
        .collect();
    // Best first; the stable sort keeps registry order among ties.
    standings.sort_by_key(|s| std::cmp::Reverse(s.points));

    TournamentReport {
        cells: outcomes,
        standings,
        executed: sweep.executed,
        cached: sweep.cached,
        slo: opts.slo,
    }
}

/// Renders the season standings as the human league table.
pub fn league_table(report: &TournamentReport) -> String {
    let mut t = Table::new(vec![
        "#",
        "policy",
        "pts",
        "wins",
        "cells",
        "worst p99",
        "worst p99.9",
        "slo viol",
        "completions",
        "worst recovery",
        "clean",
    ])
    .with_title(format!(
        "policy tournament — {} cells, slo {}",
        report.cells.len(),
        fmt_ns(report.slo)
    ));
    for (i, s) in report.standings.iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            s.policy.name().to_string(),
            s.points.to_string(),
            s.wins.to_string(),
            s.cells.to_string(),
            fmt_ns(s.worst_p99_ns),
            fmt_ns(s.worst_p999_ns),
            s.slo_violations.to_string(),
            s.completions.to_string(),
            s.worst_recovery_ns.map_or_else(|| "-".into(), fmt_ns),
            if s.clean { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_shape_covers_the_acceptance_floor() {
        assert!(scenario_library().len() >= 4);
        assert!(fault_matrix(60 * MILLIS, true).len() >= 3);
        assert_eq!(fault_matrix(60 * MILLIS, false).len(), 5);
        // Bounded rows are a prefix of the full matrix.
        let full: Vec<&str> = fault_matrix(60 * MILLIS, false)
            .iter()
            .map(|f| f.name)
            .collect();
        let bounded: Vec<&str> = fault_matrix(60 * MILLIS, true)
            .iter()
            .map(|f| f.name)
            .collect();
        assert_eq!(&full[..bounded.len()], &bounded[..]);
    }

    #[test]
    fn default_matrix_enrolls_every_registered_policy() {
        let opts = TournamentOpts::default();
        let cells = tournament_cells(&opts);
        let policies: Vec<PolicyKind> = PolicyKind::registered().collect();
        assert_eq!(cells.len(), 4 * 5 * policies.len());
        for p in policies {
            assert!(cells.iter().any(|c| c.policy == p));
        }
    }

    #[test]
    fn cell_spec_is_versioned_and_slo_sensitive() {
        let opts = TournamentOpts {
            bounded: true,
            ..TournamentOpts::default()
        };
        let cells = tournament_cells(&opts);
        let spec = cells[0].spec();
        assert!(spec.starts_with("ghost-lab tournament v1\n"));
        assert!(spec.contains(&format!("slo {}", opts.slo)));
        // Two cells never share a spec (policy/workload/fault all land
        // in the string), so the cache can never cross-serve them.
        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                assert_ne!(a.spec(), b.spec(), "{} vs {}", a.label(), b.label());
            }
        }
    }

    fn synthetic_lines(p99: u64) -> Vec<String> {
        vec![
            "completions 100".into(),
            "latency-samples 100".into(),
            "p50-ns 10".into(),
            format!("p99-ns {p99}"),
            "p999-ns 500".into(),
            "max-ns 900".into(),
            "slo-violations 3".into(),
            "recovery-ns none".into(),
            "invariant-violations 0".into(),
        ]
    }

    #[test]
    fn cell_score_round_trips_the_result_lines() {
        let mut lines = synthetic_lines(250);
        let s = CellScore::from_lines(&lines);
        assert_eq!(s.p99_ns, 250);
        assert_eq!(s.recovery_ns, None);
        lines[7] = "recovery-ns 42".into();
        assert_eq!(CellScore::from_lines(&lines).recovery_ns, Some(42));
    }

    #[test]
    fn ranking_awards_field_size_to_the_lowest_p99() {
        let opts = TournamentOpts {
            policies: vec![
                PolicyKind::CentralizedFifo,
                PolicyKind::Shinjuku,
                PolicyKind::ShinjukuAdaptive,
            ],
            ..TournamentOpts::default()
        };
        let cells: Vec<TournamentCell> = tournament_cells(&opts).into_iter().take(3).collect();
        // Hand-build a sweep: FIFO slowest, adaptive fastest.
        let sweep = SweepReport {
            items: cells
                .iter()
                .zip([900u64, 500, 100])
                .map(|(c, p99)| crate::engine::SweepItem {
                    label: c.label(),
                    key: c.spec(),
                    result: ExperimentResult {
                        pass: true,
                        hash: p99,
                        lines: synthetic_lines(p99),
                    },
                    cached: false,
                })
                .collect(),
            executed: 3,
            cached: 0,
        };
        let report = score_sweep(&opts, &cells, &sweep);
        let by_policy: Vec<(PolicyKind, u64)> =
            report.cells.iter().map(|c| (c.policy, c.points)).collect();
        assert_eq!(
            by_policy,
            vec![
                (PolicyKind::CentralizedFifo, 1),
                (PolicyKind::Shinjuku, 2),
                (PolicyKind::ShinjukuAdaptive, 3),
            ]
        );
        assert_eq!(report.standings[0].policy, PolicyKind::ShinjukuAdaptive);
        assert_eq!(report.standings[0].wins, 1);
        let table = league_table(&report);
        assert!(table.contains("shinjuku-adaptive"));
        assert!(table.contains("policy tournament"));
    }
}
