//! [`ChaosCase`]: what a chaos family has to say about itself. A family
//! is a plain data type — one point of its sweep — that can be generated
//! from a seed, run to a [`CaseReport`], written to and read from a
//! `repro.json` document, and (optionally) offer smaller neighbours of
//! itself. Everything else — sweeping, shrinking, repro and trace files,
//! replay, bench rows, the exit code — is the [`crate::driver`], written
//! once over this trait.

use crate::oracle::Failure;
use ghost_lab::engine::{Experiment, ExperimentResult};
use ghost_lab::schema::BenchRow;
use ghost_lab::{fnv64_lines, PolicyKind};
use ghost_trace::json::Json;
use ghost_trace::TraceSink;

/// One measured contribution of one run to a `--bench-out` row. The
/// driver pools the samples of a sweep by `name` ([`crate::driver::pool`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchSample {
    /// Row name, e.g. `lease-reclaim-per-cpu`.
    pub name: String,
    /// Wall-clock time the sample accounts for.
    pub wall_ns: u128,
    /// Work items behind the sample (ignored when `spans` is non-empty:
    /// the pooled row then counts spans).
    pub work_items: u64,
    /// Individual latency spans, pooled into the row's percentiles.
    pub spans: Vec<u64>,
}

/// What the bench hook of a family receives after a sweep: the policies
/// swept, the seed base, and every sample its cases reported.
pub type BenchFold = fn(&[PolicyKind], u64, Vec<BenchSample>) -> Vec<BenchRow>;

/// Everything a finished run exposes to the driver and to tests.
pub struct CaseReport {
    /// Oracle verdicts; empty means the run was clean.
    pub failures: Vec<Failure>,
    /// `key value` summary lines. With one `failure ...` line per
    /// verdict appended they hash to the case's sweep digest entry, so
    /// for a deterministic family they must repeat exactly.
    pub lines: Vec<String>,
    /// The sink holding the run's trace, for Chrome export of failures.
    pub trace: TraceSink,
    /// Measured samples for `--bench-out` (wall-clock families only).
    pub bench: Vec<BenchSample>,
}

impl CaseReport {
    /// The value of summary line `key`, if the report has one.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.lines
            .iter()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
    }
}

/// One family of chaos cases. A value of the type is one sweep point and
/// holds everything needed to run it again.
pub trait ChaosCase: Clone + PartialEq + Sync + Sized {
    /// `"kind"` of the family's repro documents, and its name in reports.
    const KIND: &'static str;
    /// Sweep size when `--combos` is not given.
    const COMBOS: u64;
    /// True if the same case always produces the same report. Such
    /// families sweep on the parallel engine (jobs, cache, digest),
    /// shrink, and re-run a failure for its trace; the others run on the
    /// wall clock, serially, and keep the failing run's own trace.
    const DETERMINISTIC: bool;
    /// How a finished sweep becomes `--bench-out` rows; `None` if the
    /// family measures nothing.
    const BENCH: Option<BenchFold> = None;

    /// The policies a sweep rotates through.
    fn policies() -> Vec<PolicyKind>;

    /// True if `policy` can be named by `--policy` or a repro document.
    fn admits(policy: PolicyKind) -> bool {
        Self::policies().contains(&policy)
    }

    /// The `index`-th case of the sweep starting at `seed_base` over
    /// `policies` (never empty). A pure function of its arguments.
    fn generate(index: u64, seed_base: u64, policies: &[PolicyKind]) -> Self;

    /// Short label for reports and digests.
    fn label(&self) -> String;

    /// Canonical description of everything that affects the outcome: the
    /// sweep cache key. The repro document is one by construction.
    fn spec(&self) -> String {
        self.encode().to_string()
    }

    /// Runs the case and judges it with the family's oracles.
    fn run(&self) -> CaseReport;

    /// The case as a repro document (an object carrying `"kind"`).
    fn encode(&self) -> Json;

    /// Reads a case back from a repro document.
    fn decode(doc: &Json) -> Result<Self, String>;

    /// The cases one deletion smaller than this one, for shrinking.
    fn shrink_candidates(&self) -> Vec<Self> {
        Vec::new()
    }
}

/// A case on the `ghost-lab` sweep engine: the spec is the cache key, the
/// result is the report's lines plus one `failure ...` line per verdict,
/// and `pass` means no oracle fired.
pub struct Swept<C>(pub C);

impl<C: ChaosCase> Experiment for Swept<C> {
    fn label(&self) -> String {
        self.0.label()
    }

    fn spec(&self) -> String {
        self.0.spec()
    }

    fn execute(&self) -> ExperimentResult {
        let report = self.0.run();
        let mut lines = report.lines;
        lines.extend(report.failures.iter().map(|f| format!("failure {f}")));
        ExperimentResult {
            pass: report.failures.is_empty(),
            hash: fnv64_lines(&lines),
            lines,
        }
    }
}

/// Greedily shrinks a failing case to a 1-minimal one: no single
/// [`ChaosCase::shrink_candidates`] neighbour of the result still fails.
/// Each round keeps the first failing neighbour, so the worst case is
/// quadratic in the case's size — cases are a handful of elements. A
/// case that does not fail comes back unchanged.
pub fn shrink<C: ChaosCase>(case: &C) -> C {
    let fails = |c: &C| !c.run().failures.is_empty();
    let mut best = case.clone();
    if fails(&best) {
        while let Some(smaller) = best.shrink_candidates().into_iter().find(fails) {
            best = smaller;
        }
    }
    best
}
