//! The one chaos driver: sweep, shrink, repro and trace files, replay
//! and the pass/fail verdict, written once over
//! [`ChaosCase`]. Nothing here names a family.
//!
//! A deterministic family sweeps on the `ghost-lab` engine — each case
//! is a single-threaded simulation, so `--jobs N` changes wall-clock time
//! and nothing else, `--digest` output is byte-identical to a serial run
//! (CI diffs the two), and unchanged cases come out of `--cache`. Its
//! failures are shrunk serially after the sweep, so repro files do not
//! depend on worker scheduling, and the minimal case is run once more for
//! its trace. A wall-clock family runs real OS threads: serially (parallel
//! cases would contend for cores and poison each other's latencies) and
//! unshrunk (a re-run observes a different interleaving), keeping the
//! failing run's own trace. Which of the two applies is
//! [`ChaosCase::DETERMINISTIC`], not a flag.

use crate::case::{shrink, CaseReport, ChaosCase, Swept};
use ghost_lab::{run_sweep, Cache, PolicyKind};
use ghost_trace::json::{self, Json};
use ghost_trace::TraceSink;
use std::time::Instant;

/// What a sweep is asked to do (the CLI's switches, minus the family).
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// Cases to run; the family's [`ChaosCase::COMBOS`] if `None`.
    pub combos: Option<u64>,
    /// Seed of case 0; case `i` runs seed `seed_base + i`.
    pub seed_base: u64,
    /// Directory for `repro-<i>.json` and `trace-<i>.json`.
    pub out_dir: String,
    /// Sweep this policy only.
    pub policy: Option<PolicyKind>,
    /// Engine worker threads (deterministic families).
    pub jobs: Option<usize>,
    /// Engine result cache directory (deterministic families).
    pub cache: Option<String>,
    /// File for the `label hash` digest (deterministic families).
    pub digest: Option<String>,
}

/// `Ok(true)`: every case passed. `Ok(false)`: some oracle fired. `Err`:
/// the request could not be honoured (bad flags, unreadable file); the
/// CLI reports it and exits 2.
pub type Verdict = Result<bool, String>;

fn write(path: &str, contents: String) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Sweeps `opts.combos` generated cases of family `C`, reports and
/// captures every failure, and writes the digest file if asked for. A
/// flag the family cannot honour is an error, not ignored.
pub fn sweep<C: ChaosCase>(opts: &Opts) -> Verdict {
    let engine_flag = [
        ("--jobs", opts.jobs.is_some()),
        ("--cache", opts.cache.is_some()),
        ("--digest", opts.digest.is_some()),
    ];
    if let Some((flag, _)) = engine_flag
        .iter()
        .find(|(_, set)| *set && !C::DETERMINISTIC)
    {
        return Err(format!(
            "{flag} needs a deterministic sweep; {} cases run on the wall clock, serially",
            C::KIND
        ));
    }
    let policies = match opts.policy {
        None => C::policies(),
        Some(p) if C::admits(p) => vec![p],
        Some(p) => {
            let pool: Vec<&str> = C::policies().iter().map(|p| p.name()).collect();
            return Err(format!(
                "policy '{}' is not in the {} sweep (its policies: {})",
                p.name(),
                C::KIND,
                pool.join(", ")
            ));
        }
    };
    let combos = opts.combos.unwrap_or(C::COMBOS);
    let cases: Vec<Swept<C>> = (0..combos)
        .map(|i| Swept(C::generate(i, opts.seed_base, &policies)))
        .collect();
    let jobs = opts.jobs.unwrap_or(1);
    let started = Instant::now();

    let mut failed = 0u64;
    let (executed, cached) = if C::DETERMINISTIC {
        let open = |dir| Cache::open(dir).map_err(|e| format!("cannot open cache {dir}: {e}"));
        let cache = opts.cache.as_ref().map(open).transpose()?;
        let report = run_sweep(&cases, jobs, cache.as_ref());
        for (i, item) in report.items.iter().enumerate() {
            if !item.result.pass {
                failed += 1;
                println!("combo {i}: {} FAILED:", item.label);
                for line in &item.result.lines {
                    if let Some(failure) = line.strip_prefix("failure ") {
                        println!("  {failure}");
                    }
                }
                // One more run of the minimal case, for its trace.
                let minimal = shrink(&cases[i].0);
                capture(&opts.out_dir, i, &minimal, &minimal.run().trace);
            }
        }
        if let Some(path) = &opts.digest {
            write(path, report.digest())?;
            println!("wrote digest to {path}");
        }
        (report.executed, report.cached)
    } else {
        for (i, case) in cases.iter().enumerate() {
            let report = case.0.run();
            let verdict = if report.failures.is_empty() {
                ""
            } else {
                " FAILED:"
            };
            println!("combo {i}: {}{verdict}", case.0.label());
            print_report(&report);
            if !report.failures.is_empty() {
                failed += 1;
                capture(&opts.out_dir, i, &case.0, &report.trace);
            }
        }
        (cases.len(), 0)
    };
    println!(
        "swept {combos} {} combos across {} policies with {jobs} job(s) in {:.2?} \
         ({executed} executed, {cached} cached): {failed} failed",
        C::KIND,
        policies.len(),
        started.elapsed(),
    );
    Ok(failed == 0)
}

fn print_report(report: &CaseReport) {
    let counters: Vec<String> = report
        .lines
        .iter()
        .map(|l| l.replacen(' ', "=", 1))
        .collect();
    println!("  {}", counters.join(" "));
    for failure in &report.failures {
        println!("  FAIL {failure}");
    }
}

/// Writes `repro-<index>.json` and `trace-<index>.json` (Chrome format)
/// for a failing case and the trace of a failing run of it. Best effort —
/// a sweep goes on if the directory cannot be written.
fn capture<C: ChaosCase>(out_dir: &str, index: usize, case: &C, trace: &TraceSink) {
    let repro_path = format!("{out_dir}/repro-{index}.json");
    let trace_path = format!("{out_dir}/trace-{index}.json");
    let trace = ghost_trace::chrome::export(&trace.snapshot());
    let written = std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {out_dir}: {e}"))
        .and_then(|()| write(&repro_path, format!("{}\n", case.encode())))
        .and_then(|()| write(&trace_path, trace));
    match written {
        Ok(()) => println!("  wrote {repro_path} and {trace_path}"),
        Err(e) => eprintln!("{e}"),
    }
}

/// Decodes `doc` as a case of family `C`, checking its `"kind"` first. A
/// document without one is a fault-plan repro: the only kind files
/// written before kinds existed can be.
pub fn decode<C: ChaosCase>(doc: &Json) -> Result<C, String> {
    match kind_of(doc)? {
        kind if kind == C::KIND => C::decode(doc),
        kind => Err(format!("a '{kind}' repro, not a '{}' one", C::KIND)),
    }
}

/// The `"kind"` of a repro document (`"fault"` if it carries none).
pub fn kind_of(doc: &Json) -> Result<&str, String> {
    match doc.get("kind") {
        None => Ok("fault"),
        Some(kind) => kind
            .as_str()
            .ok_or_else(|| "field 'kind' is not a string".to_string()),
    }
}

/// Runs the case in `doc` once and prints its report.
pub fn replay<C: ChaosCase>(doc: &Json) -> Verdict {
    let case: C = decode(doc)?;
    let exactly = if C::DETERMINISTIC {
        "bit-identically"
    } else {
        "on the wall clock: the case replays exactly, the interleaving is best-effort"
    };
    println!("replaying {} {exactly}", case.label());
    let report = case.run();
    print_report(&report);
    if report.failures.is_empty() {
        println!("  PASS: all oracles clean");
    }
    Ok(report.failures.is_empty())
}

/// One family as the CLI sees it: its switch, and the generic driver
/// instantiated for its case type.
pub struct Family {
    /// The CLI switch selecting the family (`""`: the default sweep).
    pub flag: &'static str,
    /// [`ChaosCase::KIND`].
    pub kind: &'static str,
    /// [`ChaosCase::COMBOS`].
    pub combos: u64,
    /// [`sweep`] for the family.
    pub sweep: fn(&Opts) -> Verdict,
    /// [`replay`] for the family.
    pub replay: fn(&Json) -> Verdict,
}

impl Family {
    /// The family of case type `C`, selected by `flag`.
    pub const fn of<C: ChaosCase>(flag: &'static str) -> Self {
        Family {
            flag,
            kind: C::KIND,
            combos: C::COMBOS,
            sweep: sweep::<C>,
            replay: replay::<C>,
        }
    }
}

/// Replays the repro document at `path` with whichever of `families`
/// its `"kind"` names.
pub fn rerun_file(path: &str, families: &[Family]) -> Verdict {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let kind = kind_of(&doc).map_err(|e| format!("{path}: {e}"))?;
    let family = families
        .iter()
        .find(|f| f.kind == kind)
        .ok_or_else(|| format!("{path}: unknown repro kind '{kind}'"))?;
    (family.replay)(&doc).map_err(|e| format!("{path}: {e}"))
}
