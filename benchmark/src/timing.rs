//! The rep loop every timed run shares, and the end-to-end metric
//! assembly.

use crate::report::Outcome;
use std::time::Instant;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// How long the timed reps should take in total, seconds.
    pub seconds: f64,
    /// When the process started (`main`'s first statement).
    pub started: Instant,
}

/// The reps of one timed run.
pub struct Reps<R> {
    /// The untimed warm-up rep.
    pub warm: R,
    /// Process start → start of the first timed rep, seconds, with the
    /// warm-up rep's cost taken from the cleanest of the run's reps.
    pub setup_s: f64,
    /// The timed reps.
    pub timed: Vec<R>,
}

/// Fewest and most timed reps a run makes, whatever `--seconds` says:
/// three leave a choice of rep, thirty bound the run if a rep gets very
/// fast.
const REP_RANGE: (f64, f64) = (3.0, 30.0);

/// What a run reports for a quantity measured once per rep: the value of
/// its cleanest rep (`higher_is_better` says which end that is). Every rep
/// does identical work, and a noisy neighbour or a preempted lane only
/// ever slows a rep down, so the reps differ by how much of the host they
/// got, not by what the program did; on the baseline VM a median over the
/// reps moves 25 % between a quiet quarter of an hour and a busy one.
pub fn cleanest(per_rep: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    per_rep
        .iter()
        .copied()
        .reduce(pick)
        .expect("a run has at least one rep")
}

/// Runs one untimed warm-up rep, then as many timed reps as fit in
/// `args.seconds` going by the warm-up's wall time (`wall_s`). Every rep
/// does identical work, fixture construction included, so the rep count
/// changes how long the run measures, never what it measures.
pub fn run_reps<R>(
    args: &RunArgs,
    mut rep: impl FnMut() -> R,
    wall_s: impl Fn(&R) -> f64,
) -> Reps<R> {
    let before_warm_s = args.started.elapsed().as_secs_f64();
    let mut costs_s = Vec::new();
    let mut costed = || {
        let at = Instant::now();
        let r = rep();
        costs_s.push(at.elapsed().as_secs_f64());
        r
    };
    let warm = costed();
    let count = (args.seconds / wall_s(&warm))
        .round()
        .clamp(REP_RANGE.0, REP_RANGE.1) as usize;
    let timed = (0..count).map(|_| costed()).collect();
    Reps {
        warm,
        // The warm-up rep is one shot; the reps after it repeat the same
        // set-up and work, so the cleanest of them all says what it costs.
        setup_s: before_warm_s + cleanest(&costs_s, false),
        timed,
    }
}

/// Stores the five end-to-end metrics. `work_per_s` holds one value per
/// timed rep ([`cleanest`] is reported); `latency_ns` is `(p50, p99)`;
/// `rss_mib` is the peak RSS read right after the last timed rep.
pub fn set_end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    work_per_s: &[f64],
    latency_ns: (f64, f64),
    rss_mib: f64,
) {
    let per_rep: Vec<String> = work_per_s.iter().map(|w| format!("{w:.4e}")).collect();
    out.notes
        .push(format!("work_per_s by rep: {}", per_rep.join(" ")));
    let m = &mut out.metrics;
    m.set("setup_s", setup_s);
    m.set("work_per_s", cleanest(work_per_s, true));
    m.set("latency_p50_us", latency_ns.0 / 1e3);
    m.set("latency_p99_us", latency_ns.1 / 1e3);
    m.set("peak_rss_mb", rss_mib);
}
