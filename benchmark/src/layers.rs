//! Per-layer metrics shared by the DES and live workloads: counts read
//! from the program's public stats, and the fold over its trace stream.

use crate::hops::Hops;
use crate::report::{Metrics, Outcome};
use crate::spans::{span_totals, Spans};
use crate::stats::{interp_percentile, p50_p99};
use ghost_core::GhostStats;
use ghost_metrics::LogHistogram;
use ghost_sim::kernel::SimStats;
use ghost_trace::check::check_with_grace;
use ghost_trace::derive::TraceMetrics;
use ghost_trace::{Nanos, TraceRecord};

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// ghost-sim counts for `sim_ns` of simulated time advanced in `wall_s`.
pub fn set_sim_counts(m: &mut Metrics, s: &SimStats, wall_s: f64, sim_ns: Nanos) {
    m.set("sim.events", s.events as f64);
    m.set("sim.ctx_switches", s.ctx_switches as f64);
    m.set("sim.ipis_sent", s.ipis_sent as f64);
    m.set("sim.ticks", s.ticks as f64);
    m.set("sim.sim_s_per_host_s", sim_ns as f64 / 1e9 / wall_s);
    m.set(
        "sim.host_ns_per_event",
        wall_s * 1e9 / s.events.max(1) as f64,
    );
}

/// ghost-core counts. `clock_ns` is the time base `agent_busy_ns` is
/// charged against: simulated ns for the DES, wall ns for ghost-live.
pub fn set_core_counts(m: &mut Metrics, g: &GhostStats, wall_s: f64, clock_ns: Nanos) {
    m.set("core.msgs_posted", g.msgs_posted.iter().sum::<u64>() as f64);
    m.set("core.msgs_dropped", g.msgs_dropped as f64);
    m.set("core.activations", g.activations as f64);
    m.set(
        "core.empty_activation_ratio",
        ratio(g.empty_activations, g.activations),
    );
    m.set("core.txns_committed", g.txns_committed as f64);
    m.set(
        "core.txn_fail_ratio",
        ratio(g.txns_failed(), g.txns_committed + g.txns_failed()),
    );
    m.set("core.group_commits", g.group_commits as f64);
    m.set(
        "core.txns_per_group_commit",
        ratio(g.txns_committed, g.group_commits),
    );
    m.set("core.pnt_picks", g.pnt_picks as f64);
    m.set("core.agent_busy_frac", ratio(g.agent_busy_ns, clock_ns));
    m.set(
        "core.host_ns_per_txn",
        wall_s * 1e9 / g.txns_committed.max(1) as f64,
    );
}

/// `trace.overhead_pct` and the two throughputs it comes from.
pub fn set_overhead(m: &mut Metrics, untraced_work_per_s: f64, traced_work_per_s: f64) {
    m.set("harness.untraced_work_per_s", untraced_work_per_s);
    m.set("harness.traced_work_per_s", traced_work_per_s);
    m.set(
        "trace.overhead_pct",
        (untraced_work_per_s / traced_work_per_s - 1.0) * 100.0,
    );
}

/// Sums `b`'s counters the per-layer metrics read into `a` (the
/// tournament adds up its 96 cells).
pub fn add_ghost_stats(a: &mut GhostStats, b: &GhostStats) {
    for (x, y) in a.msgs_posted.iter_mut().zip(b.msgs_posted) {
        *x += y;
    }
    a.msgs_dropped += b.msgs_dropped;
    a.activations += b.activations;
    a.empty_activations += b.empty_activations;
    a.agent_busy_ns += b.agent_busy_ns;
    a.txns_committed += b.txns_committed;
    a.txns_stale += b.txns_stale;
    a.txns_not_runnable += b.txns_not_runnable;
    a.txns_unknown_target += b.txns_unknown_target;
    a.txns_cpu_busy += b.txns_cpu_busy;
    a.txns_cpu_unavailable += b.txns_cpu_unavailable;
    a.txns_aborted += b.txns_aborted;
    a.group_commits += b.group_commits;
    a.pnt_picks += b.pnt_picks;
}

/// Sums `b` into `a`.
pub fn add_sim_stats(a: &mut SimStats, b: &SimStats) {
    a.events += b.events;
    a.ctx_switches += b.ctx_switches;
    a.ipis_sent += b.ipis_sent;
    a.ticks += b.ticks;
    a.migrations += b.migrations;
}

/// Everything a traced run folds out of the program's trace stream, over
/// one trace or many.
pub struct TraceFold {
    /// Records seen.
    pub records: u64,
    /// Records the rings overwrote (must stay 0).
    pub dropped: u64,
    /// Invariant violations the checker found.
    pub violations: Vec<String>,
    /// Hop latency samples.
    pub hops: Hops,
    /// `TraceMetrics::wakeup_to_run`, merged over traces.
    pub wakeup_to_run: LogHistogram,
}

impl Default for TraceFold {
    fn default() -> Self {
        Self {
            records: 0,
            dropped: 0,
            violations: Vec::new(),
            hops: Hops::default(),
            wakeup_to_run: LogHistogram::new(),
        }
    }
}

impl TraceFold {
    /// Snapshots one trace under a `trace.snapshot` span and folds it in.
    pub fn add(
        &mut self,
        spans: &mut Spans,
        snapshot: impl FnOnce() -> Vec<TraceRecord>,
        dropped: u64,
        grace_ns: Nanos,
    ) -> TraceMetrics {
        let records = spans.scope("trace.snapshot", |_| snapshot());
        self.add_records(spans, &records, dropped, grace_ns)
    }

    /// Runs derive, check and the hop pairing over one trace, each under
    /// its own span. Returns the derived metrics so a caller can compare
    /// them with what the program itself reported.
    pub fn add_records(
        &mut self,
        spans: &mut Spans,
        records: &[TraceRecord],
        dropped: u64,
        grace_ns: Nanos,
    ) -> TraceMetrics {
        let derived = spans.scope("trace.derive", |_| TraceMetrics::from_records(records));
        let violations = spans.scope("trace.check", |_| check_with_grace(records, grace_ns));
        self.records += records.len() as u64;
        self.dropped += dropped;
        self.violations
            .extend(violations.iter().take(5).map(|v| v.to_string()));
        self.hops.add(records);
        self.wakeup_to_run.merge(&derived.wakeup_to_run);
        derived
    }

    /// Finishes a traced outcome: the trace-stream checks, a per-span-name
    /// summary in the remarks, and the spans file.
    pub fn finish(&self, out: &mut Outcome, spans: &Spans, workload: &str) -> Result<(), String> {
        out.check(self.dropped == 0, || {
            format!("trace dropped {} records", self.dropped)
        });
        out.check(self.violations.is_empty(), || {
            format!("invariant violations: {:?}", self.violations)
        });
        for (name, t) in span_totals(spans.spans()) {
            out.notes.push(format!(
                "span {name}: {} calls, {:.3} ms total, {:.3} ms self",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        crate::write_spans(workload, spans)
    }

    /// Stores the ghost-trace metrics and the hop latencies. Per-record
    /// costs are the `trace.*` spans' totals over the records seen.
    /// `live` selects the wall-clock-only hops.
    pub fn set_metrics(&mut self, m: &mut Metrics, spans: &Spans, live: bool) {
        m.set("trace.records", self.records as f64);
        m.set("trace.dropped", self.dropped as f64);
        let per_record = |name| spans.total_ns(name) as f64 / self.records.max(1) as f64;
        m.set("trace.snapshot_ns_per_record", per_record("trace.snapshot"));
        m.set("trace.derive_ns_per_record", per_record("trace.derive"));
        m.set("trace.check_ns_per_record", per_record("trace.check"));
        m.set_p50_p99(
            "core.hop.msg_queue_wait_us",
            p50_p99(&mut self.hops.msg_queue_wait),
            1e3,
        );
        m.set_p50_p99(
            "core.hop.decide_commit_us",
            p50_p99(&mut self.hops.decide_commit),
            1e3,
        );
        if live {
            m.set_p50_p99(
                "live.hop.commit_to_switch_us",
                p50_p99(&mut self.hops.commit_to_switch),
                1e3,
            );
            m.set(
                "live.wake_to_run_us.p50",
                interp_percentile(&self.wakeup_to_run, 50.0) / 1e3,
            );
            m.set(
                "live.wake_to_run_us.p99",
                interp_percentile(&self.wakeup_to_run, 99.0) / 1e3,
            );
        }
    }
}
