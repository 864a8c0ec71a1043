//! Every metric the harness can print: name, unit, and which direction is
//! better. `BENCHMARK.json` lists the same names; `tests/arith.rs` holds
//! the two in step.

/// One catalog row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics: printed by every timed run (`--trace 0`), same
/// names on every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("work_per_s", "1/s", "higher"),
    def("latency_p50_us", "us", "lower"),
    def("latency_p99_us", "us", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics: printed by every traced run (`--trace 1`). A metric
/// whose layer is not on the workload's path reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // harness
    def("harness.untraced_work_per_s", "1/s", "higher"),
    def("harness.traced_work_per_s", "1/s", "higher"),
    // ghost-sim
    def("sim.events", "count", "lower"),
    def("sim.ctx_switches", "count", "lower"),
    def("sim.ipis_sent", "count", "lower"),
    def("sim.ticks", "count", "lower"),
    def("sim.sim_s_per_host_s", "1/s", "higher"),
    def("sim.host_ns_per_event", "ns", "lower"),
    def("sim.event_queue.push_pop_ns.d1k", "ns", "lower"),
    def("sim.event_queue.push_pop_ns.d64k", "ns", "lower"),
    def("sim.event_queue.share_est", "ratio", "lower"),
    def("sim.cpuset.and_first_ns", "ns", "lower"),
    def("sim.run_until.slice_p50_us", "us", "lower"),
    def("sim.run_until.slice_p99_us", "us", "lower"),
    // ghost-core
    def("core.msgs_posted", "count", "lower"),
    def("core.msgs_dropped", "count", "lower"),
    def("core.activations", "count", "lower"),
    def("core.empty_activation_ratio", "ratio", "lower"),
    def("core.txns_committed", "count", "higher"),
    def("core.txn_fail_ratio", "ratio", "lower"),
    def("core.group_commits", "count", "higher"),
    def("core.txns_per_group_commit", "ratio", "higher"),
    def("core.pnt_picks", "count", "higher"),
    def("core.agent_busy_frac", "ratio", "lower"),
    def("core.host_ns_per_txn", "ns", "lower"),
    def("core.msg_queue.push_pop_ns", "ns", "lower"),
    def("core.status_word.publish_ns", "ns", "lower"),
    def("core.pnt.push_pop_ns", "ns", "lower"),
    def("core.slab.insert_get_remove_ns", "ns", "lower"),
    def("core.runtime.lock_probe_ns", "ns", "lower"),
    def("core.hop.msg_queue_wait_us.p50", "us", "lower"),
    def("core.hop.msg_queue_wait_us.p99", "us", "lower"),
    def("core.hop.decide_commit_us.p50", "us", "lower"),
    def("core.hop.decide_commit_us.p99", "us", "lower"),
    // ghost-policies (one per registered policy)
    def("policies.host_ns_per_event.centralized-fifo", "ns", "lower"),
    def("policies.host_ns_per_event.per-cpu", "ns", "lower"),
    def("policies.host_ns_per_event.shinjuku", "ns", "lower"),
    def("policies.host_ns_per_event.snap", "ns", "lower"),
    def("policies.host_ns_per_event.core-sched", "ns", "lower"),
    def(
        "policies.host_ns_per_event.shinjuku-shenango",
        "ns",
        "lower",
    ),
    def("policies.host_ns_per_event.search", "ns", "lower"),
    def(
        "policies.host_ns_per_event.shinjuku-adaptive",
        "ns",
        "lower",
    ),
    // ghost-trace
    def("trace.records", "count", "lower"),
    def("trace.dropped", "count", "lower"),
    def("trace.overhead_pct", "%", "lower"),
    def("trace.recorder.record_ns", "ns", "lower"),
    def("trace.snapshot_ns_per_record", "ns", "lower"),
    def("trace.derive_ns_per_record", "ns", "lower"),
    def("trace.check_ns_per_record", "ns", "lower"),
    // ghost-lab
    def("lab.launch_us", "us", "lower"),
    def("lab.cell_wall_ms.p50", "ms", "lower"),
    def("lab.cell_wall_ms.p99", "ms", "lower"),
    def("lab.score_ms", "ms", "lower"),
    def("lab.engine.j2_speedup", "x", "higher"),
    // ghost-metrics
    def("metrics.hist.record_ns", "ns", "lower"),
    def("metrics.hist.percentile_ns", "ns", "lower"),
    // ghost-live
    def("live.dispatches", "count", "lower"),
    def("live.wakes", "count", "lower"),
    def("live.ipis", "count", "lower"),
    def("live.timers_fired", "count", "lower"),
    def("live.preempts", "count", "lower"),
    def("live.resched_cycle_us", "us", "lower"),
    def("live.wake_call_ns.p50", "ns", "lower"),
    def("live.wake_call_ns.p99", "ns", "lower"),
    def("live.hop.commit_to_switch_us.p50", "us", "lower"),
    def("live.hop.commit_to_switch_us.p99", "us", "lower"),
    def("live.wake_to_run_us.p50", "us", "lower"),
    def("live.wake_to_run_us.p99", "us", "lower"),
    def("live.ring.push_pop_ns", "ns", "lower"),
    def("live.worker_ctl.handoff_us", "us", "lower"),
    def("live.launch_us", "us", "lower"),
    def("live.shutdown_ms", "ms", "lower"),
    def("live.gen_late_us.p99", "us", "lower"),
    def("live.gen_late_us.max", "us", "lower"),
    // ghost-live kv
    def("kv.push_ns", "ns", "lower"),
    def("kv.req_p999_us", "us", "lower"),
    def("kv.slo_miss_ratio", "ratio", "lower"),
    def("kv.open.p99_us.r1000", "us", "lower"),
    def("kv.open.p99_us.r4000", "us", "lower"),
    def("kv.open.max_rate_ok", "1/s", "higher"),
];

/// The five workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "des-pulse-central",
        "DES hot path: runtime hook, message queue, single commits; shallow calendar, trivial policy, tracing off",
    ),
    (
        "des-fig5-rome256",
        "DES at scale: deep event calendar, 256-wide CpuSet ops, batched drain and group commit, IPI fan-out",
    ),
    (
        "des-tournament-traced",
        "same DES with the trace sink on, faults and recovery on, every registered policy, derive and check per cell",
    ),
    (
        "live-closed-central",
        "real threads, closed loop: callers wait for replies, so throughput and p99 carry the yield-agent-commit-unpark cycle",
    ),
    (
        "live-open-percpu",
        "real threads, open loop at a fixed rate: every request crosses wake, agent activation, commit, unpark; no batching",
    ),
];
