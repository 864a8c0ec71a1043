//! `--live` sweep: the same deterministic fault plans, injected into
//! the real-thread backend and judged by wall-clock oracles.
//!
//! A [`LiveCombo`] mirrors [`crate::fault::Combo`] for `ghost-live`: the
//! plan is still a [`FaultPlan`] (one type, both backends), but `at` and
//! `dur` are read against the monotonic wall clock, the workload is the
//! closed-loop KV service, and the run takes real time on real OS
//! threads. That changes what the harness can promise: a live run is
//! *not* bit-reproducible, so there is no shrinking — a failing combo is
//! captured as `repro.json` (plan + seed + shape) for best-effort replay
//! plus the full trace for offline reading.
//!
//! The oracles are the live analogues of [`crate::oracle`]:
//!
//! * **trace-invariant** — the `ghost-trace` checker with the shared
//!   [`LIVE_GRACE_NS`] window for host-scheduler jitter.
//! * **live-stranded** — at end of run no workload thread may be left
//!   runnable in the ghOSt class with nobody scheduled to run it.
//! * **recovery** / **recovery-slo** — crash combos must respawn and
//!   reconstruct (§3.4), and the measured wall-clock gap from
//!   `RecoveryStart` to `ReconstructDone` must fit
//!   [`RECOVERY_WALL_SLO`].
//! * **recovery-reclaim** — after a survived recovery no thread stays
//!   on the transient CFS excursion (unless the commit governor shed it
//!   deliberately).
//! * **progress** / **live-timeout** — the KV loop completed, and every
//!   admitted request terminated as completed, shed, or failed.

use crate::case::{BenchFold, BenchSample, CaseReport, ChaosCase};
use crate::codec::{list, list_field, num, obj, policy_field, text, wide};
use crate::driver::pool;
use crate::oracle::{self, Failure};
use ghost_core::runtime::EnclaveHandle;
use ghost_core::StandbyConfig;
use ghost_lab::PolicyKind;
use ghost_live::{DegradedLimits, KvService, LiveConfig, LiveKernel};
use ghost_sim::faults::{FaultEvent, FaultKind, FaultPlan};
use ghost_sim::thread::{ThreadKind, ThreadState, Tid};
use ghost_sim::time::{Nanos, MICROS, MILLIS, SECS};
use ghost_sim::topology::CpuId;
use ghost_sim::{CpuSet, CLASS_CFS, CLASS_GHOST};
use ghost_trace::check::LIVE_GRACE_NS;
use ghost_trace::derive::TraceMetrics;
use ghost_trace::json::Json;
use ghost_trace::TraceSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request service-time floor for the live KV workload.
pub const LIVE_SERVICE_NS: u64 = 2 * MICROS;

/// Wall-clock bound from `RecoveryStart` to `ReconstructDone` for a
/// crashed agent: detection is immediate (the dying thread's own
/// teardown hook), the respawn backoff contributes ~100 ms, and the
/// status-word scan is microseconds — measured runs land around 105 ms,
/// so one second is a full order of magnitude of headroom.
pub const RECOVERY_WALL_SLO: Nanos = SECS;

/// Watchdog for live enclaves: longer than any injected hang (so a hang
/// stalls instead of destroying the enclave) but short enough that a
/// genuinely wedged run still gets reaped inside the supervise deadline.
pub const LIVE_WATCHDOG: Nanos = 2 * SECS;

/// Most worker CPUs (one OS thread each, plus agents) a live repro
/// document may ask the backend for.
pub const MAX_LIVE_CPUS: usize = 64;

/// Launches the enclave under test on `cpus` with the live watchdog and,
/// if `standby`, the §3.4 machinery: a respawn budget, a 100 ms backoff
/// and a staged standby instance of the same policy.
pub(crate) fn launch_guarded(
    kernel: &LiveKernel,
    cpus: CpuSet,
    policy: PolicyKind,
    name: &str,
    standby: bool,
) -> EnclaveHandle {
    let mut config = policy.enclave_config(name).with_watchdog(LIVE_WATCHDOG);
    if standby {
        config = config.with_standby(StandbyConfig {
            max_respawns: 3,
            respawn_backoff: 100 * MILLIS,
            recovery_slo: RECOVERY_WALL_SLO,
        });
    }
    let enclave = kernel.launch_enclave(cpus, config, policy.build());
    if standby {
        enclave.set_standby_policy(move || policy.build());
    }
    enclave
}

/// Blocks until the respawned agent has reconstructed (or the enclave
/// died, or ten seconds passed), so a crash arm is judged after the §3.4
/// machinery finished even if the workload already drained on the
/// surviving lanes.
pub(crate) fn await_recovery(kernel: &LiveKernel, enclave: &EnclaveHandle) {
    let rescue = Instant::now() + Duration::from_secs(10);
    while kernel.runtime().stats().recoveries < 1 && Instant::now() < rescue && enclave.alive() {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The closed-loop KV workload both live families load their enclave
/// with: one worker thread per lane serving `requests` requests, two in
/// flight per lane, under [`DegradedLimits`] so a recovering enclave
/// sheds load instead of queueing without bound.
pub(crate) struct KvLoop {
    kv: Arc<KvService>,
    workers: Vec<Tid>,
    requests: u64,
}

impl KvLoop {
    /// Spawns `lanes` workers, attaches them to `enclave`, and starts
    /// the loop.
    pub(crate) fn start(
        kernel: &LiveKernel,
        enclave: &EnclaveHandle,
        lanes: usize,
        requests: u64,
    ) -> Self {
        let limits = DegradedLimits {
            request_timeout: 50 * MILLIS,
            max_retries: 3,
            retry_backoff: MILLIS,
            shed_depth: 2,
        };
        let kv = KvService::with_limits(16, LIVE_SERVICE_NS, limits);
        let workers: Vec<Tid> = (0..lanes)
            .map(|i| kernel.spawn_kv_worker(&format!("chaos-kv-{i}"), Arc::clone(&kv)))
            .collect();
        for &tid in &workers {
            kernel.attach(enclave, tid);
        }
        kv.start_closed_loop(requests, 2 * lanes as u64, kernel.now());
        for &tid in &workers {
            kernel.wake(tid);
        }
        Self {
            kv,
            workers,
            requests,
        }
    }

    /// Supervises the loop: every millisecond mirrors `enclave`'s
    /// degraded mode into the KV service (load shedding during failover),
    /// pumps retry backoffs, kicks a blocked worker if work is queued,
    /// and calls `tick` — until every admitted request has terminated
    /// and `tick` reports its own work done. A loop still going after a
    /// minute is the `live-timeout` failure.
    pub(crate) fn supervise(
        &self,
        kernel: &LiveKernel,
        enclave: &EnclaveHandle,
        failures: &mut Vec<Failure>,
        mut tick: impl FnMut(&mut Vec<Failure>) -> bool,
    ) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !(tick(failures) && self.kv.accounted_count() >= self.requests) {
            if Instant::now() > deadline {
                failures.push(Failure {
                    oracle: "live-timeout",
                    detail: format!(
                        "closed loop stalled at {}/{} accounted requests",
                        self.kv.accounted_count(),
                        self.requests
                    ),
                });
                break;
            }
            let degraded = enclave.degraded();
            self.kv.set_degraded(degraded);
            self.kv.pump_delayed(kernel.now());
            if self.kv.depth() > 0 {
                kernel.wake_one_blocked(&self.workers);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.kv.set_degraded(false);
    }

    /// The service, for its end-of-run counters.
    pub(crate) fn service(&self) -> &KvService {
        &self.kv
    }
}

/// One point of the live sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveCombo {
    /// Policy under test (one of [`PolicyKind::live_backend`]).
    pub policy: PolicyKind,
    /// Seed for the fault plan (and the sweep's bookkeeping).
    pub seed: u64,
    /// Fault schedule, with `at`/`dur` in wall-clock nanoseconds.
    pub plan: FaultPlan,
    /// Closed-loop KV requests to complete (or shed/fail) before the
    /// run ends.
    pub requests: u64,
    /// Worker CPUs (and worker threads) the live kernel manages.
    pub cpus: usize,
}

impl LiveCombo {
    /// The sweep's combo for `(policy, seed)`: standard shape, fault
    /// plan derived from the seed by [`generate_live_plan`].
    pub fn generated(policy: PolicyKind, seed: u64) -> Self {
        let cpus = 2;
        let targets: Vec<CpuId> = (0..cpus as u16).map(CpuId).collect();
        Self {
            policy,
            seed,
            plan: generate_live_plan(seed, &targets),
            requests: 60_000,
            cpus,
        }
    }

    /// True if the plan kills an agent (arming the standby machinery).
    pub fn injects_crash(&self) -> bool {
        self.plan
            .events
            .iter()
            .any(|fe| matches!(fe.kind, FaultKind::AgentCrash { .. }))
    }
}

/// Generates the live fault plan for `seed`: a deterministic rotation
/// over the three wall-clock-meaningful agent faults, with times scaled
/// to real milliseconds.
///
/// * `seed % 3 == 0` — one `AgentCrash` on `cpus[0]` (the centralized
///   global agent's pin, and per-CPU agent 0), mid-run.
/// * `seed % 3 == 1` — an `AgentHang` window on every CPU, 100–200 ms.
/// * `seed % 3 == 2` — an `AgentSlow` window on every CPU covering the
///   whole run.
///
/// Same `(seed, cpus)`, same plan — the plan side of a live repro is
/// exactly reproducible even though the run itself is wall-clock.
pub fn generate_live_plan(seed: u64, cpus: &[CpuId]) -> FaultPlan {
    assert!(!cpus.is_empty(), "fault plans need at least one target CPU");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE_CA05);
    let at = rng.gen_range(50 * MILLIS..100 * MILLIS);
    let mut events = Vec::new();
    match seed % 3 {
        0 => events.push(FaultEvent {
            at,
            kind: FaultKind::AgentCrash { cpu: cpus[0] },
        }),
        1 => {
            let dur = rng.gen_range(100 * MILLIS..200 * MILLIS);
            for &cpu in cpus {
                events.push(FaultEvent {
                    at,
                    kind: FaultKind::AgentHang { cpu, dur },
                });
            }
        }
        _ => {
            let factor = rng.gen_range(8u32..=32);
            for &cpu in cpus {
                events.push(FaultEvent {
                    at: 0,
                    kind: FaultKind::AgentSlow {
                        cpu,
                        dur: 30 * SECS,
                        factor,
                    },
                });
            }
        }
    }
    FaultPlan { events }
}

impl ChaosCase for LiveCombo {
    const KIND: &'static str = "live";
    /// One crash, hang and slow plan on each of the two policies.
    const COMBOS: u64 = 6;
    const DETERMINISTIC: bool = false;
    const BENCH: Option<BenchFold> = Some(|_, _, samples| pool(samples));

    /// The registry's `live_backend` capability: the two agent models
    /// (centralized, per-CPU). The other evaluation policies add
    /// scheduling flavour, not new recovery machinery, and live combos
    /// cost real wall-clock time.
    fn policies() -> Vec<PolicyKind> {
        PolicyKind::live_backend()
    }

    fn generate(index: u64, seed_base: u64, policies: &[PolicyKind]) -> Self {
        let policy = policies[(index % policies.len() as u64) as usize];
        Self::generated(policy, seed_base + index)
    }

    fn label(&self) -> String {
        let kinds: std::collections::BTreeSet<&str> =
            self.plan.events.iter().map(|fe| fe.kind.name()).collect();
        let kinds: Vec<&str> = kinds.into_iter().collect();
        let (policy, seed) = (self.policy.name(), self.seed);
        format!("live/{policy}/{}/seed={seed}", kinds.join("+"))
    }

    /// Runs the combo on the live backend and evaluates the wall-clock
    /// oracles. Takes real time (roughly the fault windows plus the KV
    /// service time); the verdict — not the timing — is what repeats.
    fn run(&self) -> CaseReport {
        let started = Instant::now();
        let sink = TraceSink::recording(self.cpus, 1 << 20);
        let kernel = LiveKernel::new(LiveConfig {
            cpus: self.cpus,
            trace: sink.clone(),
            faults: self.plan.clone(),
            ..LiveConfig::default()
        });
        let crash = self.injects_crash();
        let name = format!("chaos-live-{}", self.seed);
        let enclave = launch_guarded(
            &kernel,
            CpuSet::first_n(self.cpus),
            self.policy,
            &name,
            crash,
        );
        let kv = KvLoop::start(&kernel, &enclave, self.cpus, self.requests);
        let mut failures = Vec::new();
        kv.supervise(&kernel, &enclave, &mut failures, |_| true);
        if crash {
            await_recovery(&kernel, &enclave);
        }

        let stats = kernel.runtime().stats();
        let completed = kv.service().completed_count();
        // Copy the trace out rather than judging it under the recorder's
        // lock: the agents are still running and block on every emit.
        let (records, dropped) = sink.with_records(|r, dropped| (r.to_vec(), dropped));
        failures.extend(oracle::preamble(
            &records,
            dropped,
            LIVE_GRACE_NS,
            completed,
            "KV request",
        ));
        // The measured `RecoveryStart` → `ReconstructDone` gap.
        let recovery_wall_ns = TraceMetrics::from_records(&records)
            .recovery_spans
            .first()
            .map(|(start, done)| done - start);

        // Liveness: nobody left stranded. A workload thread that is
        // runnable in the ghOSt class at end of run, and still is a moment
        // later — so not merely between its wakeup and the agent's next
        // pass — has an agent that never came back for it.
        let workload = || {
            let threads = kernel.thread_snapshots().into_iter();
            threads.filter(|(_, th)| th.kind == ThreadKind::Workload)
        };
        let waiting = || -> Vec<Tid> {
            workload()
                .filter(|(_, th)| th.state == ThreadState::Runnable && th.class == CLASS_GHOST)
                .map(|(tid, _)| tid)
                .collect()
        };
        let mut stranded = waiting();
        if !stranded.is_empty() {
            std::thread::sleep(Duration::from_millis(20));
            let still = waiting();
            stranded.retain(|tid| still.contains(tid));
        }
        for tid in stranded {
            failures.push(Failure {
                oracle: "live-stranded",
                detail: format!("thread {tid} left runnable in the ghOSt class at end of run"),
            });
        }

        if crash {
            if stats.respawns < 1 || stats.reconstructions < 1 || !enclave.alive() {
                failures.push(Failure {
                    oracle: "recovery",
                    detail: format!(
                        "crash not recovered: respawns={} reconstructions={} alive={}",
                        stats.respawns,
                        stats.reconstructions,
                        enclave.alive()
                    ),
                });
            }
            match recovery_wall_ns {
                Some(gap) if gap > RECOVERY_WALL_SLO => failures.push(Failure {
                    oracle: "recovery-slo",
                    detail: format!(
                        "wall-clock recovery took {gap} ns (SLO {RECOVERY_WALL_SLO} ns)"
                    ),
                }),
                None if enclave.alive() => failures.push(Failure {
                    oracle: "recovery-slo",
                    detail: "crash combo recorded no RecoveryStart/ReconstructDone pair"
                        .to_string(),
                }),
                _ => {}
            }
            // Re-absorption after the transient CFS excursion (threads the
            // commit governor shed deliberately are exempt).
            if enclave.alive() && stats.estale_sheds == 0 {
                for (tid, th) in workload() {
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

        let degraded = kv.service().degraded_stats();
        kernel.shutdown();
        let wall_ns = started.elapsed().as_nanos();
        let mut bench = vec![BenchSample {
            name: "chaos-degraded-shed".to_string(),
            wall_ns,
            work_items: degraded.shed,
            spans: Vec::new(),
        }];
        if let Some(ns) = recovery_wall_ns {
            bench.push(BenchSample {
                name: format!("chaos-recovery-{}", self.policy.name()),
                wall_ns: ns.into(),
                work_items: stats.respawns,
                spans: Vec::new(),
            });
        }
        CaseReport {
            failures,
            lines: vec![
                format!("completed {completed}"),
                format!("shed {}", degraded.shed),
                format!("failed {}", degraded.failed),
                format!("respawns {}", stats.respawns),
                format!("reconstructions {}", stats.reconstructions),
                format!(
                    "recovery-ns {}",
                    recovery_wall_ns.map_or_else(|| "-".to_string(), |ns| ns.to_string())
                ),
                format!("wall-ms {}", wall_ns / 1_000_000),
            ],
            trace: sink,
            bench,
        }
    }

    fn encode(&self) -> Json {
        obj([
            ("kind", text(Self::KIND)),
            ("policy", text(self.policy.name())),
            ("seed", wide::enc(self.seed)),
            ("requests", num::enc(self.requests)),
            ("cpus", num::enc(self.cpus as u64)),
            ("plan", list(&self.plan.events)),
        ])
    }

    fn decode(doc: &Json) -> Result<Self, String> {
        let cpus: usize = doc.uint("cpus")?;
        if !(1..=MAX_LIVE_CPUS).contains(&cpus) {
            return Err(format!(
                "field 'cpus': {cpus} is outside the live backend's 1..={MAX_LIVE_CPUS}"
            ));
        }
        Ok(Self {
            policy: policy_field(doc, "policy", Self::admits)?,
            seed: wide::dec(doc, "seed")?,
            plan: FaultPlan {
                events: list_field(doc, "plan")?,
            },
            requests: doc.uint("requests")?,
            cpus,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_plans_are_deterministic_and_rotated() {
        let cpus: Vec<CpuId> = (0..2u16).map(CpuId).collect();
        for seed in 0..12 {
            let a = generate_live_plan(seed, &cpus);
            let b = generate_live_plan(seed, &cpus);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(!a.events.is_empty());
            let expect_crash = seed % 3 == 0;
            assert_eq!(
                a.events
                    .iter()
                    .any(|fe| matches!(fe.kind, FaultKind::AgentCrash { .. })),
                expect_crash,
                "seed {seed} rotation broken"
            );
        }
    }

    #[test]
    fn generated_combos_mark_crashes() {
        let crash = LiveCombo::generated(PolicyKind::CentralizedFifo, 3);
        assert!(crash.injects_crash());
        let hang = LiveCombo::generated(PolicyKind::PerCpu, 4);
        assert!(!hang.injects_crash());
    }
}
