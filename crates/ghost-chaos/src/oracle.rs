//! Oracles: decide whether a perturbed run still upheld the runtime's
//! safety and liveness contracts.
//!
//! Safety comes from the `ghost-trace` invariant checker — exclusive CPU
//! occupancy, runnable-at-switch-in, Tseq/Aseq monotonicity across
//! faults, and commit pairing (every `TxnCommitOk` consumes a matching
//! `TxnArmed`). Liveness is judged here: after every fault in the plan,
//! either the agent recovers or the watchdog/fallback machinery must
//! rescue the workload.

use crate::fault::WATCHDOG;
use ghost_core::enclave::EnclaveId;
use ghost_core::runtime::GhostRuntime;
use ghost_sim::kernel::KernelState;
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::{Nanos, MILLIS};
use ghost_sim::CLASS_CFS;
use ghost_trace::check::{check_with_grace, DEFAULT_GRACE_NS};
use ghost_trace::{TraceEvent, TraceRecord};
use std::fmt;

/// A runnable thread left waiting longer than this at end of run failed
/// liveness: the watchdog plus CFS fallback bound recovery to roughly
/// two timeouts, with margin for scheduling latency.
pub const STARVATION_BOUND: Nanos = 2 * WATCHDOG + 10 * MILLIS;

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Which oracle fired, e.g. `"starvation"`.
    pub oracle: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// The checks every family's verdict starts with, on either backend.
///
/// * **trace-lossless** — the checker needs the whole stream to verify
///   ordering invariants.
/// * **trace-invariant** — the full `ghost-trace` suite (occupancy,
///   runnable switch-in, Tseq/Aseq continuity, commit pairing, wakeup
///   liveness with blackout excuses for watchdog/teardown windows),
///   forgiving wakeups younger than `grace` at end of trace.
/// * **progress** — `completed` `unit`s of work got done: even a
///   destroyed enclave must not stop the workload (CFS picks it up).
pub fn preamble<'a>(
    records: impl IntoIterator<Item = &'a TraceRecord>,
    trace_dropped: u64,
    grace: Nanos,
    completed: u64,
    unit: &str,
) -> Vec<Failure> {
    let mut failures = Vec::new();
    if trace_dropped > 0 {
        failures.push(Failure {
            oracle: "trace-lossless",
            detail: format!("trace ring dropped {trace_dropped} records; grow the capacity"),
        });
    }
    for v in check_with_grace(records, grace) {
        failures.push(Failure {
            oracle: "trace-invariant",
            detail: v.to_string(),
        });
    }
    if completed == 0 {
        failures.push(Failure {
            oracle: "progress",
            detail: format!("no {unit} completed over the whole run"),
        });
    }
    failures
}

/// Judges a finished simulated run: the [`preamble`] plus the end-state
/// liveness contracts. Returns every violated contract; an empty vector
/// means the run survived its fault plan. When the run armed a hot
/// standby, `recovery_slo` carries its bound and enables the
/// bounded-time recovery oracle.
#[allow(clippy::too_many_arguments)]
pub fn evaluate<'a>(
    records: impl IntoIterator<Item = &'a TraceRecord> + Clone,
    trace_dropped: u64,
    k: &KernelState,
    runtime: &GhostRuntime,
    enclave: EnclaveId,
    workload: &[Tid],
    completions: u64,
    recovery_slo: Option<Nanos>,
) -> Vec<Failure> {
    let mut failures = preamble(
        records.clone(),
        trace_dropped,
        DEFAULT_GRACE_NS,
        completions,
        "workload segment",
    );

    // Liveness: no workload thread starved past the watchdog bound. The
    // blackout excuse in the trace checker deliberately forgives wakeups
    // stranded by an enclave teardown, so end-state starvation must be
    // checked against the kernel directly.
    for &tid in workload {
        let th = k.thread(tid);
        if th.state == ThreadState::Runnable {
            let waited = k.now.saturating_sub(th.runnable_since);
            if waited > STARVATION_BOUND {
                failures.push(Failure {
                    oracle: "starvation",
                    detail: format!(
                        "thread {tid} runnable and unscheduled for {waited} ns at end of run \
                         (bound {STARVATION_BOUND} ns)"
                    ),
                });
            }
        }
    }

    // Liveness: fallback-to-CFS completes. Once the enclave is gone,
    // every surviving workload thread must actually be back under CFS —
    // a thread left in the ghOSt class has no scheduler at all.
    let alive = runtime.handle(enclave).alive();
    if !alive {
        for &tid in workload {
            let th = k.thread(tid);
            if th.state != ThreadState::Dead && th.class != CLASS_CFS {
                failures.push(Failure {
                    oracle: "fallback-to-cfs",
                    detail: format!(
                        "thread {tid} left in scheduling class {} after enclave teardown",
                        th.class
                    ),
                });
            }
        }
    }

    // Bounded-time recovery: every degraded-mode failover the standby
    // machinery started must finish — a status-word reconstruction scan
    // completing within the SLO — unless the respawn budget ran out and
    // the enclave was (legitimately) destroyed, which the fallback
    // oracle above covers.
    if let Some(slo) = recovery_slo {
        let starts: Vec<Nanos> = records
            .clone()
            .into_iter()
            .filter(|r| matches!(r.event, TraceEvent::RecoveryStart { .. }))
            .map(|r| r.ts)
            .collect();
        let dones: Vec<Nanos> = records
            .into_iter()
            .filter(|r| matches!(r.event, TraceEvent::ReconstructDone { .. }))
            .map(|r| r.ts)
            .collect();
        for &start in &starts {
            match dones.iter().find(|&&d| d >= start) {
                Some(&done) if done.saturating_sub(start) > slo => {
                    failures.push(Failure {
                        oracle: "recovery-slo",
                        detail: format!(
                            "recovery started at {start} ns completed only at {done} ns \
                             ({} ns > SLO {slo} ns)",
                            done - start
                        ),
                    });
                }
                Some(_) => {}
                None if alive => {
                    failures.push(Failure {
                        oracle: "recovery-slo",
                        detail: format!(
                            "recovery started at {start} ns never reconstructed \
                             and the enclave is still alive"
                        ),
                    });
                }
                None => {} // Budget exhausted: fallback oracle judges it.
            }
        }
        // Re-absorption: once recovery ran and the enclave survived,
        // every surviving workload thread must be scheduled by ghOSt
        // again — none left stranded on the transient CFS excursion.
        // Threads the commit governor shed to CFS are exempt (shedding
        // is deliberate), so only shed-free runs are checked.
        if !starts.is_empty() && alive && runtime.stats().estale_sheds == 0 {
            for &tid in workload {
                let th = k.thread(tid);
                if th.state != ThreadState::Dead && th.class == CLASS_CFS {
                    failures.push(Failure {
                        oracle: "recovery-reclaim",
                        detail: format!(
                            "thread {tid} still under CFS after degraded-mode recovery"
                        ),
                    });
                }
            }
        }
    }

    failures
}
