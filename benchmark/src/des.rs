//! The three DES workloads: `des-pulse-central`, `des-fig5-rome256`,
//! `des-tournament-traced`.
//!
//! Throughput is host time: a rep advances the simulation through a fixed
//! amount of work and the rep's wall time gives `work_per_s`. Latency is
//! simulated time: after the timed reps a short recorded pass at the same
//! seed yields the scheduler's own wake-to-run latencies, which no amount
//! of host noise can move.

use crate::gen::SplitMix64;
use crate::layers::{
    add_ghost_stats, add_sim_stats, set_core_counts, set_overhead, set_sim_counts, TraceFold,
};
use crate::micro::unit_costs;
use crate::report::{Metrics, Outcome};
use crate::rss::peak_rss_mib;
use crate::spans::Spans;
use crate::stats::{interp_percentile, median, p50_p99};
use crate::timing::{run_reps, set_end_to_end, RunArgs};
use ghost_bench::fig5::{run_point_with_threads, sweep_order, FIG5_WORK};
use ghost_core::{EnclaveConfig, GhostRuntime, GhostStats};
use ghost_lab::cache::Cache;
use ghost_lab::engine::Experiment;
use ghost_lab::scenario::{LabRun, PolicyKind, Scenario, WorkloadSpec};
use ghost_lab::tournament::{run_tournament, tournament_cells, TournamentOpts, TournamentReport};
use ghost_metrics::LogHistogram;
use ghost_policies::CentralizedFifo;
use ghost_sim::app::{App, Next};
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, SimStats, ThreadSpec};
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MICROS, MILLIS, SECS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::CpuSet;
use ghost_trace::check::DEFAULT_GRACE_NS;
use ghost_trace::derive::TraceMetrics;
use ghost_trace::{TraceEvent, TraceRecord, TraceSink, CLASS_GHOST, NO_TID, PREV_RUNNABLE};
use std::collections::HashMap;
use std::time::Instant;

/// Advances `sim` from `from` in steps of `slice` simulated ns while
/// `more` says so, one `sim.run_until` span per step. Returns the wall
/// seconds it took and the simulated time reached.
fn advance<S>(
    sim: &mut S,
    (from, slice): (Nanos, Nanos),
    spans: &mut Spans,
    step: impl Fn(&mut S, Nanos),
    more: impl Fn(&S, Nanos) -> bool,
) -> (f64, Nanos) {
    let started = Instant::now();
    let mut until = from;
    while more(sim, until) {
        until += slice;
        spans.scope("sim.run_until", |_| step(sim, until));
    }
    (started.elapsed().as_secs_f64(), until)
}

/// Pools a simulated latency over `pool` workload shapes: `sample` runs
/// one recorded simulation at the sub-seed it is given (sub-seeds are
/// drawn from `seed`) and records its latencies into the histogram.
/// Returns the pooled `(p50, p99)`, ns. One shape's percentiles follow
/// what the seed happened to draw; pooled over many, the scheduler's
/// behaviour is the only thing left that can move them.
fn pooled_latency(
    seed: u64,
    pool: u64,
    mut sample: impl FnMut(u64, &mut LogHistogram) -> Result<(), String>,
) -> Result<(f64, f64), String> {
    let mut seeds = SplitMix64::new(seed);
    let mut pooled = LogHistogram::new();
    for _ in 0..pool {
        sample(seeds.next_u64(), &mut pooled)?;
    }
    Ok((
        interp_percentile(&pooled, 50.0),
        interp_percentile(&pooled, 99.0),
    ))
}

/// A latency pass whose ring overwrote records has lost samples.
fn check_nothing_dropped(sink: &TraceSink) -> Result<(), String> {
    match sink.dropped() {
        0 => Ok(()),
        n => Err(format!("latency pass dropped {n} trace records")),
    }
}

/// One finished rep of a sliced DES workload.
struct DesRep {
    wall_s: f64,
    /// Work items done in `wall_s` (simulated events / committed
    /// transactions).
    work: u64,
    /// Simulated time advanced in `wall_s`.
    sim_ns: Nanos,
    /// Simulated time since the simulation started, which is what the
    /// `sim` and `ghost` counters cover (fig5's include its warm-up).
    clock_ns: Nanos,
    /// Counters that must be identical across reps at one seed.
    fingerprint: [u64; 4],
    sim: SimStats,
    ghost: GhostStats,
}

impl DesRep {
    fn posted(&self) -> u64 {
        self.ghost.msgs_posted.iter().sum()
    }

    fn work_per_s(&self) -> f64 {
        self.work as f64 / self.wall_s
    }
}

/// Runs the timed reps of a sliced DES workload, then `latency` (the
/// recorded pass, `(p50, p99)` in simulated ns), and assembles the
/// outcome. Peak RSS is read between the two.
fn des_outcome(
    args: &RunArgs,
    rep: impl FnMut() -> DesRep,
    latency: impl FnOnce() -> Result<(f64, f64), String>,
) -> Result<Outcome, String> {
    let reps = run_reps(args, rep, |r| r.wall_s);
    let mut out = Outcome::default();
    for r in &reps.timed {
        out.check(r.fingerprint == reps.warm.fingerprint, || {
            format!(
                "reps at one seed differ: {:x?} vs {:x?}",
                r.fingerprint, reps.warm.fingerprint
            )
        });
        out.attempted += r.posted();
        out.failed += r.ghost.msgs_dropped;
    }
    let work_per_s: Vec<f64> = reps.timed.iter().map(DesRep::work_per_s).collect();
    let rss = peak_rss_mib()?;
    let latency = latency()?;
    out.notes.push(format!(
        "{} timed reps of {:.2} simulated s; latencies are simulated wake-to-run time",
        reps.timed.len(),
        reps.warm.sim_ns as f64 / 1e9
    ));
    set_end_to_end(&mut out, reps.setup_s, &work_per_s, latency, rss);
    Ok(out)
}

/// Per-layer metrics every sliced DES traced run shares.
fn set_des_layers(
    m: &mut Metrics,
    spans: &Spans,
    fold: &mut TraceFold,
    (untraced, traced): (&DesRep, &DesRep),
) {
    unit_costs(m);
    set_sim_counts(m, &traced.sim, traced.wall_s, traced.sim_ns);
    set_core_counts(m, &traced.ghost, traced.wall_s, traced.clock_ns);
    let pop_push = m.get("sim.event_queue.push_pop_ns.d1k").unwrap_or(0.0);
    m.set(
        "sim.event_queue.share_est",
        untraced.sim.events as f64 * pop_push / (untraced.wall_s * 1e9),
    );
    let (p50, p99) = p50_p99(&mut spans.durations("sim.run_until"));
    m.set("sim.run_until.slice_p50_us", p50 as f64 / 1e3);
    m.set("sim.run_until.slice_p99_us", p99 as f64 / 1e3);
    set_overhead(m, untraced.work_per_s(), traced.work_per_s());
    fold.set_metrics(m, spans, false);
}

// ---------------------------------------------------------------- pulse

/// Simulated time one `run_until` call advances.
const PULSE_SLICE: Nanos = 100 * MILLIS;
/// A timed rep ends at the first slice boundary past this many simulated
/// events (≈1.2 s host, 80–130 simulated s). The rep is sized in events, not
/// in simulated time, because the seed decides how heavy a load the 16
/// threads draw: a fixed horizon would make a rep 1.7–2.7 s long.
const PULSE_REP_EVENTS: u64 = 8_000_000;
/// The traced rep is a tenth of that, so its ≈1.5 M trace records fit one
/// ring.
const PULSE_TRACED_EVENTS: u64 = PULSE_REP_EVENTS / 10;
const PULSE_TRACED_RING: usize = 1 << 22;

fn pulse_scenario(policy: PolicyKind, seed: u64, ring: usize) -> Scenario {
    Scenario::builder()
        .name("bench/des-pulse-central")
        .cpus(8)
        .policy(policy)
        .workload(WorkloadSpec::pulse(16))
        .seed(seed)
        .trace_capacity(ring)
        .build()
}

fn pulse_rep(scenario: &Scenario, events: u64, spans: &mut Spans) -> (DesRep, LabRun) {
    let mut run = spans.scope("lab.launch", |_| scenario.launch());
    let (wall_s, sim_ns) = advance(
        &mut run,
        (0, PULSE_SLICE),
        spans,
        |run, until| run.sim.kernel.run_until(until),
        |run, _| run.sim.kernel.state.stats.events < events,
    );
    let sim = run.sim.kernel.state.stats.clone();
    let ghost = run.sim.runtime.stats();
    // `summary()` hashes a rendering of every trace record, so it is only
    // affordable (and only comparable across reps) with the sink off.
    let summary_hash = if scenario.trace_capacity == 0 {
        run.summary().hash
    } else {
        0
    };
    let rep = DesRep {
        wall_s,
        work: sim.events,
        sim_ns,
        clock_ns: sim_ns,
        fingerprint: [
            sim.events,
            run.completions(),
            ghost.txns_committed,
            summary_hash,
        ],
        sim,
        ghost,
    };
    (rep, run)
}

/// The pulse latency pools this many workload shapes, each simulated for
/// [`PULSE_POOL_HORIZON`] (≈0.1 M trace records).
const PULSE_POOL: u64 = 48;
const PULSE_POOL_HORIZON: Nanos = 400 * MILLIS;
const PULSE_POOL_RING: usize = 1 << 18;

/// Simulated wake-to-run latency of the pulse scenario:
/// `TraceMetrics::wakeup_to_run`, pooled. A single shape's p99 moves
/// ±15 % with its draw of segment lengths and periods.
pub fn pulse_sim_latency(seed: u64) -> Result<(f64, f64), String> {
    pooled_latency(seed, PULSE_POOL, |sub_seed, pooled| {
        let scenario = Scenario {
            horizon: PULSE_POOL_HORIZON,
            ..pulse_scenario(PolicyKind::CentralizedFifo, sub_seed, PULSE_POOL_RING)
        };
        let mut run = scenario.launch();
        run.run_to_horizon();
        check_nothing_dropped(&run.sim.sink)?;
        let derived = TraceMetrics::from_records(&run.sim.sink.snapshot());
        pooled.merge(&derived.wakeup_to_run);
        Ok(())
    })
}

/// `des-pulse-central`, timed.
pub fn pulse_timed(args: &RunArgs) -> Result<Outcome, String> {
    let scenario = pulse_scenario(PolicyKind::CentralizedFifo, args.seed, 0);
    des_outcome(
        args,
        || pulse_rep(&scenario, PULSE_REP_EVENTS, &mut Spans::off()).0,
        || pulse_sim_latency(args.seed),
    )
}

/// Host ns per simulated event of every registered policy on the pulse
/// scenario (20 simulated seconds each, tracing off).
fn policy_costs(m: &mut Metrics, seed: u64) {
    for policy in PolicyKind::registered() {
        let scenario = Scenario {
            horizon: 20 * SECS,
            ..pulse_scenario(policy, seed, 0)
        };
        let mut run = scenario.launch();
        let started = Instant::now();
        run.run_to_horizon();
        let ns = started.elapsed().as_nanos() as f64;
        m.set(
            &format!("policies.host_ns_per_event.{}", policy.name()),
            ns / run.sim.kernel.state.stats.events.max(1) as f64,
        );
    }
}

/// `des-pulse-central`, traced.
pub fn pulse_traced(args: &RunArgs) -> Result<Outcome, String> {
    let policy = PolicyKind::CentralizedFifo;
    let plain = pulse_scenario(policy, args.seed, 0);
    let recorded = pulse_scenario(policy, args.seed, PULSE_TRACED_RING);
    // The warm-up rep records spans only to time a launch without the
    // traced rep's 4 Mi-record ring allocation in it.
    let mut warm_spans = Spans::on();
    pulse_rep(&plain, PULSE_TRACED_EVENTS, &mut warm_spans);
    let (untraced, _) = pulse_rep(&plain, PULSE_TRACED_EVENTS, &mut Spans::off());
    let mut spans = Spans::on();
    let (traced, run) = pulse_rep(&recorded, PULSE_TRACED_EVENTS, &mut spans);

    let mut out = Outcome::default();
    let mut fold = TraceFold::default();
    let sink = &run.sim.sink;
    fold.add(
        &mut spans,
        || sink.snapshot(),
        sink.dropped(),
        DEFAULT_GRACE_NS,
    );
    // The recording sink must not change what the simulation does.
    out.check(traced.fingerprint[..3] == untraced.fingerprint[..3], || {
        format!(
            "traced rep diverged: {:?} vs {:?}",
            traced.fingerprint, untraced.fingerprint
        )
    });
    out.attempted = traced.posted();
    out.failed = traced.ghost.msgs_dropped;
    let m = &mut out.metrics;
    set_des_layers(m, &spans, &mut fold, (&untraced, &traced));
    m.set(
        "lab.launch_us",
        warm_spans.total_ns("lab.launch") as f64 / 1e3,
    );
    policy_costs(m, args.seed);
    fold.finish(&mut out, &spans, "des-pulse-central")?;
    Ok(out)
}

// ----------------------------------------------------------------- fig5

const FIG5_THREADS: usize = 260;
const FIG5_WARMUP: Nanos = 20 * MILLIS;
/// Measured simulated time per timed rep (≈1 s host).
const FIG5_MEASURE: Nanos = SECS;
/// Simulated time one `run_until` call of the measured window advances.
const FIG5_SLICE: Nanos = MILLIS;
/// Measured simulated time of the canonical-point check, of the traced rep
/// and of the latency pass (~1.5 M trace records, inside one ring).
const FIG5_SHORT_MEASURE: Nanos = 100 * MILLIS;
const FIG5_TRACED_RING: usize = 1 << 22;

/// The Fig. 5 workload: run a segment, yield, repeat.
struct YieldApp;

impl App for YieldApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "bench-fig5-yield"
    }

    fn on_timer(&mut self, _key: u64, _k: &mut KernelState) {}

    fn on_segment_end(&mut self, _tid: Tid, _k: &mut KernelState) -> Next {
        Next::Yield { dur: FIG5_WORK }
    }
}

/// A wired Fig. 5 point.
struct Fig5Sim {
    kernel: Kernel,
    runtime: GhostRuntime,
}

/// Builds the Fig. 5 point on the 256-CPU Rome machine from public parts,
/// the way `ghost_bench::fig5::run_point_with_threads` does: a global
/// centralized-FIFO agent on CPU 0 with group commit, 255 scheduled CPUs,
/// 260 yield-loop threads of 25 µs work. With `seed = None` the threads'
/// initial phases are fig5's even stagger, so the point is the canonical
/// one; with a seed each phase is drawn uniformly from the work segment,
/// which is what makes this workload's input depend on `--seed`.
fn fig5_build(seed: Option<u64>, trace: TraceSink) -> Fig5Sim {
    let topo = Topology::rome_256();
    let agent_cpu = CpuId(0);
    let mut cpus: CpuSet = sweep_order(&topo, agent_cpu).into_iter().collect();
    cpus.add(agent_cpu);
    let config = KernelConfig {
        smt_model: false,
        seed: seed.unwrap_or(KernelConfig::default().seed),
        trace,
        ..KernelConfig::default()
    };
    let mut kernel = Kernel::new(topo, config);
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let mut policy = CentralizedFifo::new();
    policy.decision_cost = 20;
    let enclave = runtime.launch_enclave(
        &mut kernel,
        cpus,
        EnclaveConfig::centralized("fig5").with_queue_capacity(65_536),
        Box::new(policy),
    );
    let app = kernel.state.next_app_id();
    let tids: Vec<Tid> = (0..FIG5_THREADS)
        .map(|i| {
            let spec = ThreadSpec::workload(&format!("y{i}"), &kernel.state.topo)
                .app(app)
                .affinity(cpus);
            kernel.spawn(spec)
        })
        .collect();
    kernel.add_app(Box::new(YieldApp));
    let mut rng = seed.map(SplitMix64::new);
    for (i, &tid) in tids.iter().enumerate() {
        enclave.attach_thread(&mut kernel.state, tid);
        let phase = match &mut rng {
            Some(rng) => rng.range(MICROS, FIG5_WORK),
            None => (FIG5_WORK * (i as u64 + 1) / (tids.len() as u64 + 1)).max(MICROS),
        };
        kernel.state.thread_mut(tid).remaining = phase;
    }
    for &tid in &tids {
        kernel.wake_now(tid);
    }
    Fig5Sim { kernel, runtime }
}

/// The harness-built canonical point must reproduce ghost-bench's own
/// `txns_per_sec` exactly, or the timed reps measure something else than
/// the Fig. 5 the repo reports.
fn fig5_check_canonical(out: &mut Outcome) {
    let mut sim = fig5_build(None, TraceSink::Null);
    sim.kernel.run_until(FIG5_WARMUP);
    let before = sim.runtime.stats().txns_committed;
    sim.kernel.run_until(FIG5_WARMUP + FIG5_SHORT_MEASURE);
    let committed = sim.runtime.stats().txns_committed - before;
    let ours = committed as f64 / (FIG5_SHORT_MEASURE as f64 / 1e9);
    let theirs = run_point_with_threads(
        Topology::rome_256(),
        255,
        FIG5_THREADS,
        FIG5_WORK,
        FIG5_WARMUP,
        FIG5_SHORT_MEASURE,
        true,
    )
    .txns_per_sec;
    out.check(ours == theirs, || {
        format!("harness-built fig5 point gives {ours} txns/s, ghost_bench::fig5 gives {theirs}")
    });
}

fn fig5_rep(seed: u64, measure: Nanos, trace: TraceSink, spans: &mut Spans) -> DesRep {
    let mut sim = spans.scope("lab.build", |_| fig5_build(Some(seed), trace));
    spans.scope("sim.run_until", |_| sim.kernel.run_until(FIG5_WARMUP));
    let before = sim.runtime.stats().txns_committed;
    let (wall_s, until) = advance(
        &mut sim,
        (FIG5_WARMUP, FIG5_SLICE),
        spans,
        |sim, until| sim.kernel.run_until(until),
        |_, until| until < FIG5_WARMUP + measure,
    );
    let sim_stats = sim.kernel.state.stats.clone();
    let ghost = sim.runtime.stats();
    DesRep {
        wall_s,
        work: ghost.txns_committed - before,
        sim_ns: until - FIG5_WARMUP,
        clock_ns: until,
        fingerprint: [
            sim_stats.events,
            ghost.txns_committed,
            sim_stats.ctx_switches,
            ghost.msgs_posted.iter().sum(),
        ],
        sim: sim_stats,
        ghost,
    }
}

/// Simulated ns from each ghOSt thread's yield (switched out still
/// runnable) to its next switch-in, for switch-outs at or after `from`.
fn yield_to_run(records: &[TraceRecord], from: Nanos) -> Vec<u64> {
    let mut yielded: HashMap<u32, Nanos> = HashMap::new();
    let mut samples = Vec::new();
    for rec in records {
        let TraceEvent::SchedSwitch {
            prev_tid,
            prev_class,
            prev_state,
            next_tid,
            ..
        } = rec.event
        else {
            continue;
        };
        if let Some(at) = yielded.remove(&next_tid) {
            samples.push(rec.ts - at);
        }
        if prev_tid != NO_TID
            && prev_class == CLASS_GHOST
            && prev_state == PREV_RUNNABLE
            && rec.ts >= from
        {
            yielded.insert(prev_tid, rec.ts);
        }
    }
    samples
}

/// The fig5 latency pools this many draws of the threads' phases, each
/// measured for [`FIG5_POOL_MEASURE`] after the warm-up (≈0.35 M trace
/// records). The point settles into a periodic orbit set by the phases,
/// so a short window sees all of one orbit and the pool sees many.
const FIG5_POOL: u64 = 16;
const FIG5_POOL_MEASURE: Nanos = 10 * MILLIS;
const FIG5_POOL_RING: usize = 1 << 19;

/// Simulated yield-to-run latency at the Fig. 5 point, pooled: how long a
/// thread that yields waits for the saturated global agent to run it
/// again. The median is the agent's round over the 260 threads.
pub fn fig5_sim_latency(seed: u64) -> Result<(f64, f64), String> {
    pooled_latency(seed, FIG5_POOL, |sub_seed, pooled| {
        let sink = TraceSink::recording(1, FIG5_POOL_RING);
        fig5_rep(sub_seed, FIG5_POOL_MEASURE, sink.clone(), &mut Spans::off());
        check_nothing_dropped(&sink)?;
        for ns in yield_to_run(&sink.snapshot(), FIG5_WARMUP) {
            pooled.record(ns);
        }
        Ok(())
    })
}

/// `des-fig5-rome256`, timed.
pub fn fig5_timed(args: &RunArgs) -> Result<Outcome, String> {
    let mut checks = Outcome::default();
    fig5_check_canonical(&mut checks);
    let mut out = des_outcome(
        args,
        || fig5_rep(args.seed, FIG5_MEASURE, TraceSink::Null, &mut Spans::off()),
        || fig5_sim_latency(args.seed),
    )?;
    out.errors.append(&mut checks.errors);
    Ok(out)
}

/// `des-fig5-rome256`, traced.
pub fn fig5_traced(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    fig5_check_canonical(&mut out);
    let untraced = fig5_rep(
        args.seed,
        FIG5_SHORT_MEASURE,
        TraceSink::Null,
        &mut Spans::off(),
    );
    let mut spans = Spans::on();
    let sink = TraceSink::recording(1, FIG5_TRACED_RING);
    let traced = fig5_rep(args.seed, FIG5_SHORT_MEASURE, sink.clone(), &mut spans);

    let mut fold = TraceFold::default();
    fold.add(
        &mut spans,
        || sink.snapshot(),
        sink.dropped(),
        DEFAULT_GRACE_NS,
    );
    out.check(traced.fingerprint == untraced.fingerprint, || {
        format!(
            "traced rep diverged: {:?} vs {:?}",
            traced.fingerprint, untraced.fingerprint
        )
    });
    out.attempted = traced.posted();
    out.failed = traced.ghost.msgs_dropped;
    let m = &mut out.metrics;
    set_des_layers(m, &spans, &mut fold, (&untraced, &traced));
    m.set("lab.launch_us", spans.total_ns("lab.build") as f64 / 1e3);
    fold.finish(&mut out, &spans, "des-fig5-rome256")?;
    Ok(out)
}

// ----------------------------------------------------------- tournament

/// The bounded tournament matrix at the league's own defaults: every
/// registered policy × 4 scenarios × 3 fault rows, 60 simulated ms a
/// cell, a 1 Mi-record trace ring per cell.
fn tournament_opts(seed: u64) -> TournamentOpts {
    TournamentOpts {
        seed,
        bounded: true,
        ..TournamentOpts::default()
    }
}

/// One `run_tournament` call.
struct TournamentRep {
    wall_s: f64,
    report: TournamentReport,
}

fn tournament_rep(opts: &TournamentOpts) -> TournamentRep {
    let started = Instant::now();
    let report = run_tournament(opts, 1, None);
    TournamentRep {
        wall_s: started.elapsed().as_secs_f64(),
        report,
    }
}

/// The cell whose wake-to-run percentiles stand for the tournament:
/// Shinjuku under sustained overload with no fault injected, where the
/// preemption quantum, not the seed's load draw, sets the tail.
const LATENCY_CELL: &str = "shinjuku@fig6-overload+none";

/// The tournament's simulated latency: [`LATENCY_CELL`]'s wake-to-run
/// p50 and p99. The cell reports bucket floors (four distinct p99 values
/// over twenty seeds), so its scenario is simulated once more here and the
/// percentiles are interpolated; the redone histogram must put p99 in the
/// bucket the cell reported.
fn tournament_sim_latency(
    opts: &TournamentOpts,
    report: &TournamentReport,
) -> Result<(f64, f64), String> {
    let missing = || format!("the tournament has no cell {LATENCY_CELL}");
    let cells = tournament_cells(opts);
    let cell = cells
        .iter()
        .find(|c| c.label() == LATENCY_CELL)
        .ok_or_else(missing)?;
    let reported = report
        .cells
        .iter()
        .find(|c| c.label == LATENCY_CELL)
        .ok_or_else(missing)?;
    let mut run = cell.scenario.launch();
    run.run_to_horizon();
    check_nothing_dropped(&run.sim.sink)?;
    let latency = TraceMetrics::from_records(&run.sim.sink.snapshot()).wakeup_to_run;
    if latency.percentile(99.0) != reported.score.p99_ns {
        return Err(format!(
            "{LATENCY_CELL}: redone p99 {} ns, the cell reported {}",
            latency.percentile(99.0),
            reported.score.p99_ns
        ));
    }
    Ok((
        interp_percentile(&latency, 50.0),
        interp_percentile(&latency, 99.0),
    ))
}

/// `des-tournament-traced`, timed: every rep is `run_tournament` on the
/// bounded matrix with `jobs = 1` and no cache.
pub fn tournament_timed(args: &RunArgs) -> Result<Outcome, String> {
    let opts = tournament_opts(args.seed);
    let reps = run_reps(args, || tournament_rep(&opts), |r| r.wall_s);
    let mut out = Outcome::default();
    let digest = reps.warm.report.digest();
    let sim_s = (opts.horizon * reps.warm.report.cells.len() as u64) as f64 / 1e9;
    for r in &reps.timed {
        let failed = r.report.cells.iter().filter(|c| !c.pass).count();
        out.attempted += r.report.cells.len() as u64;
        out.failed += failed as u64;
        out.check(failed == 0, || format!("{failed} cells failed"));
        out.check(r.report.digest() == digest, || {
            "tournament digest differs between reps".into()
        });
    }
    let work_per_s: Vec<f64> = reps.timed.iter().map(|r| sim_s / r.wall_s).collect();
    let rss = peak_rss_mib()?;
    out.notes.push(format!(
        "{} timed reps of {} cells ({sim_s} simulated s); latencies are {LATENCY_CELL}'s",
        reps.timed.len(),
        reps.warm.report.cells.len()
    ));
    let latency = tournament_sim_latency(&opts, &reps.warm.report)?;
    set_end_to_end(&mut out, reps.setup_s, &work_per_s, latency, rss);
    Ok(out)
}

/// `des-tournament-traced`, traced: the cell's own steps (launch, run,
/// snapshot, derive, check) are redone from public parts under spans, and
/// must arrive at the p99 the cell itself reported.
pub fn tournament_traced(args: &RunArgs) -> Result<Outcome, String> {
    let opts = tournament_opts(args.seed);
    let cells = tournament_cells(&opts);
    let mut out = Outcome::default();
    let mut spans = Spans::on();

    // Reference run, filling a result cache; then a replay from the warm
    // cache, which is key hashing, 96 loads and the scoring.
    let cache_dir = crate::out_dir()?.join(format!("tournament-cache-{}", std::process::id()));
    let cache = Cache::open(&cache_dir).map_err(|e| format!("open {cache_dir:?}: {e}"))?;
    let started = Instant::now();
    let report = spans.scope("lab.run_tournament", |_| {
        run_tournament(&opts, 1, Some(&cache))
    });
    let serial_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let replay = spans.scope("lab.score", |_| run_tournament(&opts, 1, Some(&cache)));
    let score_s = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&cache_dir);
    let started = Instant::now();
    let parallel = spans.scope("lab.run_tournament_j2", |_| run_tournament(&opts, 2, None));
    let parallel_s = started.elapsed().as_secs_f64();
    out.check(report.all_passed(), || {
        "run_tournament: a cell failed".into()
    });
    out.check(
        replay.executed == 0 && replay.digest() == report.digest(),
        || "cached replay differs from the run that filled the cache".into(),
    );
    out.check(parallel.digest() == report.digest(), || {
        "jobs=2 digest differs from jobs=1".into()
    });

    // Traced pass, then the same scenarios with the sink off.
    let mut fold = TraceFold::default();
    let (mut sim, mut ghost) = (SimStats::default(), GhostStats::default());
    let mut traced_run_ns = 0u64;
    for (i, (cell, want)) in cells.iter().zip(&report.cells).enumerate() {
        spans.set_rep(i as u32);
        let p99 = spans.scope("lab.cell", |spans| {
            let at = Instant::now();
            let mut run = spans.scope("lab.launch", |_| cell.scenario.launch());
            spans.scope("sim.run_until", |_| run.run_to_horizon());
            traced_run_ns += at.elapsed().as_nanos() as u64;
            add_sim_stats(&mut sim, &run.sim.kernel.state.stats);
            add_ghost_stats(&mut ghost, &run.sim.runtime.stats());
            let sink = &run.sim.sink;
            let derived = fold.add(spans, || sink.snapshot(), sink.dropped(), DEFAULT_GRACE_NS);
            derived.wakeup_to_run.tail_summary().p99
        });
        out.check(p99 == want.score.p99_ns, || {
            format!(
                "{}: redone p99 {p99} ns, cell reported {}",
                want.label, want.score.p99_ns
            )
        });
    }
    let mut plain_run_ns = 0u64;
    for cell in &cells {
        let plain = Scenario {
            trace_capacity: 0,
            ..cell.scenario.clone()
        };
        let at = Instant::now();
        plain.launch().run_to_horizon();
        plain_run_ns += at.elapsed().as_nanos() as u64;
    }

    out.attempted = cells.len() as u64;
    out.failed = report.cells.iter().filter(|c| !c.pass).count() as u64;
    let m = &mut out.metrics;
    unit_costs(m);
    let sim_ns = opts.horizon * cells.len() as u64;
    let traced_s = traced_run_ns as f64 / 1e9;
    set_sim_counts(m, &sim, traced_s, sim_ns);
    set_core_counts(m, &ghost, traced_s, sim_ns);
    let sim_s = sim_ns as f64 / 1e9;
    set_overhead(m, sim_s / (plain_run_ns as f64 / 1e9), sim_s / traced_s);
    fold.set_metrics(m, &spans, false);
    let launches_us: Vec<f64> = spans
        .durations("lab.launch")
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    m.set("lab.launch_us", median(&launches_us));
    m.set_p50_p99(
        "lab.cell_wall_ms",
        p50_p99(&mut spans.durations("lab.cell")),
        1e6,
    );
    m.set("lab.score_ms", score_s * 1e3);
    m.set("lab.engine.j2_speedup", serial_s / parallel_s);
    policy_costs(m, args.seed);
    fold.finish(&mut out, &spans, "des-tournament-traced")?;
    Ok(out)
}
