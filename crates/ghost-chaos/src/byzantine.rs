//! The Byzantine-agent adversary: a seeded generator of hostile ABI call
//! sequences, executed by a co-resident malicious enclave while a
//! well-behaved victim enclave runs the normal chaos workload.
//!
//! The paper's trust model (§2.2) is that agents "are not trusted for
//! system integrity": whatever an agent writes into the shared-memory
//! ABI — transactions, queue configuration, status-word addresses — the
//! kernel must validate, and the worst a misbehaving agent can achieve
//! is the destruction of its own enclave (threads fall back to CFS).
//! This module tests that claim adversarially with three oracles:
//!
//! * **never-panic** — the whole run executes under `catch_unwind`; any
//!   kernel-side panic reached through the ABI is a failure.
//! * **typed-rejection** — every hostile call the kernel rejects must
//!   carry a specific [`AbiError`] (commits via [`Transaction::error`],
//!   runtime calls via `Result`), and every rejection must be counted in
//!   [`GhostStats::abi_rejects`] — no silent drops.
//! * **victim-liveness** — the co-resident victim enclave, which also
//!   absorbs an agent crash and recovers through a hot standby, must
//!   keep meeting the PR 3 recovery SLO and all chaos liveness oracles
//!   regardless of what the byzantine neighbour does.
//!
//! A [`ByzCombo`] is `(victim policy, seed, ops)` and is fully
//! deterministic: the same combo always produces the same report, so
//! failures shrink (drop ops one at a time) and replay from
//! `repro.json` exactly like fault-plan combos. The [`ByzOp`] vocabulary
//! is one table, which is its repro encoding, its decoding, and its
//! cache-key rendering.

use crate::case::{CaseReport, ChaosCase};
use crate::codec::{coded_enum, list, list_field, obj, policy_field, text, wide, Coded};
use crate::fault::WATCHDOG;
use crate::oracle::{self, Failure};
use ghost_core::enclave::{EnclaveConfig, QueueId, WakeMode};
use ghost_core::msg::Message;
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::runtime::{EnclaveHandle, GhostRuntime, GhostStats};
use ghost_core::txn::{Transaction, TxnStatus};
use ghost_core::{AbiError, StandbyConfig, ThreadSnapshot};
use ghost_lab::PolicyKind;
use ghost_policies::CentralizedFifo;
use ghost_sim::app::{App, Next};
use ghost_sim::faults::{FaultKind, FaultPlan};
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, ThreadSpec};
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::CpuSet;
use ghost_trace::json::Json;
use ghost_trace::TraceSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Virtual run length of a byzantine combo.
pub const BYZ_HORIZON: Nanos = 120 * MILLIS;

/// One hostile ABI call. Policy-layer ops are issued by the byzantine
/// agent from inside its own activation (through [`PolicyCtx`], exactly
/// like a real agent would); runtime-layer ops are issued between kernel
/// steps through the enclave/runtime API (the syscall surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzOp {
    /// Commit the agent's own thread onto a forged CPU id (out of range
    /// or outside the enclave).
    CommitForgedCpu {
        /// Forged target CPU.
        cpu: u16,
    },
    /// Commit a tid the enclave does not manage (a victim thread, an
    /// agent, or a nonexistent id).
    CommitForeignTid {
        /// Forged target tid.
        tid: u32,
    },
    /// Commit with a deliberately stale agent sequence number.
    CommitStaleSeq,
    /// Atomic group commit where one member carries a forged CPU: the
    /// whole group must fail with typed errors, none may take effect.
    CommitAtomicMixed {
        /// Forged CPU of the poisoned group member.
        cpu: u16,
    },
    /// `RECALL` a forged CPU.
    RecallForged {
        /// Forged CPU.
        cpu: u16,
    },
    /// Destroy the enclave's default queue (protected).
    QueueDestroyDefault,
    /// `ASSOCIATE_QUEUE` with a forged tid and/or queue id.
    QueueAssociateForged {
        /// Forged tid.
        tid: u32,
        /// Queue id (may or may not exist).
        queue: u32,
    },
    /// `CONFIG_QUEUE_WAKEUP` pointing the default queue at a forged
    /// wake-target tid.
    QueueWakeupForged {
        /// Forged wake target.
        tid: u32,
    },
    /// Push a foreign/nonexistent tid into the pick_next_task ring.
    PntPushForeign {
        /// Forged tid.
        tid: u32,
    },
    /// Ping the core agent of a forged CPU.
    PingForged {
        /// Forged CPU.
        cpu: u16,
    },
    /// Attach a forged tid (dead, foreign, agent, or nonexistent) to the
    /// byzantine enclave.
    AttachForged {
        /// Forged tid.
        tid: u32,
    },
    /// Write garbage into a thread's status word (the word is
    /// kernel-owned; every write must reject).
    StatusWrite {
        /// Target tid.
        tid: u32,
        /// Garbage payload.
        value: u64,
    },
    /// Read the status word of a thread the enclave does not manage.
    StatusReadForged {
        /// Forged tid.
        tid: u32,
    },
    /// Set a scheduling hint on a forged tid.
    HintForged {
        /// Forged tid.
        tid: u32,
    },
    /// `UPGRADE` with nothing staged.
    UpgradeWithoutStage,
    /// Destroy the enclave, then destroy it again (the second call must
    /// reject with [`AbiError::EnclaveDestroyed`], never panic or
    /// silently succeed).
    DestroyTwice,
    /// Create a second enclave over a CPU that is already owned (or out
    /// of range).
    CreateOverlapping {
        /// Contested CPU.
        cpu: u16,
    },
}

impl ByzOp {
    /// True if the op executes inside the byzantine agent's activation
    /// (via [`PolicyCtx`]); false if the harness issues it through the
    /// runtime API between kernel steps.
    pub fn is_policy_op(&self) -> bool {
        !matches!(
            self,
            ByzOp::AttachForged { .. }
                | ByzOp::StatusWrite { .. }
                | ByzOp::StatusReadForged { .. }
                | ByzOp::HintForged { .. }
                | ByzOp::UpgradeWithoutStage
                | ByzOp::DestroyTwice
                | ByzOp::CreateOverlapping { .. }
        )
    }

    /// Stable one-line rendering for spec strings and reports: the op's
    /// `repro.json` object as `name field=value ...`.
    pub fn spec(&self) -> String {
        let Json::Obj(members) = self.encode() else {
            unreachable!("coded_enum! encodes objects");
        };
        let words: Vec<String> = members
            .iter()
            .map(|(key, value)| match (key.as_str(), value) {
                ("op", Json::Str(name)) => name.clone(),
                (_, Json::Str(digits)) => format!("{key}={digits}"),
                _ => format!("{key}={value}"),
            })
            .collect();
        words.join(" ")
    }
}

coded_enum!(ByzOp, "op", "byzantine op", {
    "commit-forged-cpu" => CommitForgedCpu { cpu: num },
    "commit-foreign-tid" => CommitForeignTid { tid: num },
    "commit-stale-seq" => CommitStaleSeq {},
    "commit-atomic-mixed" => CommitAtomicMixed { cpu: num },
    "recall-forged" => RecallForged { cpu: num },
    "queue-destroy-default" => QueueDestroyDefault {},
    "queue-associate-forged" => QueueAssociateForged { tid: num, queue: num },
    "queue-wakeup-forged" => QueueWakeupForged { tid: num },
    "pnt-push-foreign" => PntPushForeign { tid: num },
    "ping-forged" => PingForged { cpu: num },
    "attach-forged" => AttachForged { tid: num },
    "status-write" => StatusWrite { tid: num, value: wide },
    "status-read-forged" => StatusReadForged { tid: num },
    "hint-forged" => HintForged { tid: num },
    "upgrade-without-stage" => UpgradeWithoutStage {},
    "destroy-twice" => DestroyTwice {},
    "create-overlapping" => CreateOverlapping { cpu: num },
});

/// One point of the byzantine sweep: everything needed to reproduce the
/// hostile run exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByzCombo {
    /// The co-resident well-behaved policy whose liveness is judged.
    pub victim: PolicyKind,
    /// Seed for the kernel RNG and the victim workload shape.
    pub seed: u64,
    /// The hostile call sequence, in issue order per layer.
    pub ops: Vec<ByzOp>,
}

impl ByzCombo {
    /// The sweep's combo for `(victim, seed)`: hostile ops derived from
    /// the seed.
    pub fn generated(victim: PolicyKind, seed: u64) -> Self {
        Self {
            victim,
            seed,
            ops: generate_byz_ops(seed),
        }
    }

    /// Runs the combo to its horizon under the never-panic oracle and
    /// judges it with the typed-rejection and victim-liveness oracles.
    /// Hands back the runtime's counters too (tests read per-error
    /// reject counts). Fully deterministic.
    pub fn execute(&self) -> (CaseReport, GhostStats) {
        catch_unwind(AssertUnwindSafe(|| run_unguarded(self))).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            let report = CaseReport {
                failures: vec![Failure {
                    oracle: "never-panic",
                    detail: format!("hostile ABI sequence panicked the kernel: {msg}"),
                }],
                lines: Vec::new(),
                trace: TraceSink::Null,
                bench: Vec::new(),
            };
            (report, GhostStats::default())
        })
    }

    /// Byzantine strike budget of the hostile enclave: even seeds arm
    /// quarantine (four strikes), odd seeds leave it unarmed so both
    /// configurations stay in every sweep. Derived from the seed alone —
    /// never stored — so a replayed `repro.json` rebuilds it.
    pub fn strike_budget(&self) -> Option<u32> {
        self.seed.is_multiple_of(2).then_some(4)
    }
}

/// Generates a 3–8 op hostile sequence from `seed`. Parameters are drawn
/// from adversarial pools: CPU ids that are out of range for the 8-CPU
/// machine, inside the victim enclave, or merely outside the byzantine
/// enclave; tids that are agents, victim threads, or nonexistent.
pub fn generate_byz_ops(seed: u64) -> Vec<ByzOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB12A_0D5E);
    // CPU 0 is CFS-only, 1–3 are the victim's, 4–5 the byzantine
    // enclave's; everything from 8 up does not exist on the machine
    // (and u16::MAX is beyond MAX_CPUS, so it is unrepresentable in
    // any mask).
    const CPUS: [u16; 7] = [0, 1, 8, 250, 300, 999, u16::MAX];
    const TIDS: [u32; 6] = [0, 1, 5, 40, 9_999, u32::MAX];
    const QUEUES: [u32; 3] = [0, 9, 250];
    const VALUES: [u64; 3] = [0, 0xDEAD_BEEF, u64::MAX];
    let cpu = |rng: &mut StdRng| CPUS[rng.gen_range(0..CPUS.len())];
    let tid = |rng: &mut StdRng| TIDS[rng.gen_range(0..TIDS.len())];
    let n = rng.gen_range(3usize..=8);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let op = match rng.gen_range(0u32..17) {
            0 => ByzOp::CommitForgedCpu { cpu: cpu(&mut rng) },
            1 => ByzOp::CommitForeignTid { tid: tid(&mut rng) },
            2 => ByzOp::CommitStaleSeq,
            3 => ByzOp::CommitAtomicMixed { cpu: cpu(&mut rng) },
            4 => ByzOp::RecallForged { cpu: cpu(&mut rng) },
            5 => ByzOp::QueueDestroyDefault,
            6 => ByzOp::QueueAssociateForged {
                tid: tid(&mut rng),
                queue: QUEUES[rng.gen_range(0..QUEUES.len())],
            },
            7 => ByzOp::QueueWakeupForged { tid: tid(&mut rng) },
            8 => ByzOp::PntPushForeign { tid: tid(&mut rng) },
            9 => ByzOp::PingForged { cpu: cpu(&mut rng) },
            10 => ByzOp::AttachForged { tid: tid(&mut rng) },
            11 => ByzOp::StatusWrite {
                tid: tid(&mut rng),
                value: VALUES[rng.gen_range(0..VALUES.len())],
            },
            12 => ByzOp::StatusReadForged { tid: tid(&mut rng) },
            13 => ByzOp::HintForged { tid: tid(&mut rng) },
            14 => ByzOp::UpgradeWithoutStage,
            15 => ByzOp::DestroyTwice,
            // Contested CPUs only: victim-owned or out of range, so the
            // call always rejects (a free CPU would legitimately
            // succeed and leave a stray agent-less enclave behind).
            _ => ByzOp::CreateOverlapping {
                cpu: [1u16, 2, 3, 300, 999][rng.gen_range(0..5usize)],
            },
        };
        ops.push(op);
    }
    ops
}

/// Shared outcome ledger between the byzantine policy (in-activation
/// ops) and the harness (runtime-layer ops).
#[derive(Default)]
struct Ledger {
    /// Hostile calls the kernel rejected; each must show up in
    /// [`GhostStats::abi_rejects`].
    rejected: u64,
    /// Typed-rejection contract violations.
    violations: Vec<String>,
}

impl Ledger {
    /// Records a typed-rejection contract violation by `op`.
    fn violate(&mut self, op: &ByzOp, what: impl std::fmt::Display) {
        self.violations.push(format!("{}: {what}", op.spec()));
    }

    /// Counts the rejection if `result` is one; true if the call was
    /// accepted. For calls that may legitimately succeed.
    fn note<T, E>(&mut self, result: Result<T, E>) -> bool {
        self.rejected += u64::from(result.is_err());
        result.is_ok()
    }

    /// For calls that must always reject: acceptance is the violation
    /// `accepted`.
    fn must_reject<T, E>(&mut self, op: &ByzOp, result: Result<T, E>, accepted: &str) {
        if self.note(result) {
            self.violate(op, accepted);
        }
    }

    /// Checks the commit contract on every settled transaction: a
    /// failing status must carry a typed error that maps back to it
    /// (casualties of an atomic unwind are `Aborted` and carry the
    /// group-failing error instead).
    fn check_txns(&mut self, op: &ByzOp, txns: &[Transaction]) {
        for t in txns {
            if t.status.committed() || t.status == TxnStatus::Pending {
                continue;
            }
            // An `Aborted` casualty of an atomic unwind is collateral of
            // the group's one rejection, not an independently rejected
            // call — it still must carry the group error, but only the
            // group-failing txn counts against `abi_rejects`.
            if t.status != TxnStatus::Aborted {
                self.rejected += 1;
            }
            let status = t.status;
            match t.error {
                None => self.violate(
                    op,
                    format_args!("commit rejected with status {status:?} but no AbiError"),
                ),
                Some(e) if e.txn_status() != status && status != TxnStatus::Aborted => self
                    .violate(
                        op,
                        format_args!(
                            "error {e} maps to {:?} but status is {status:?}",
                            e.txn_status()
                        ),
                    ),
                Some(_) => {}
            }
        }
    }
}

/// The hostile agent: drains one queued [`ByzOp`] per activation through
/// the real agent ABI, then behaves like a normal centralized FIFO for
/// its own threads (so its enclave produces a well-formed trace and the
/// only anomalies are the deliberate ones).
struct ByzantinePolicy {
    inner: CentralizedFifo,
    ops: Arc<Mutex<VecDeque<ByzOp>>>,
    ledger: Arc<Mutex<Ledger>>,
}

impl ByzantinePolicy {
    fn run_op(&mut self, op: ByzOp, ctx: &mut PolicyCtx<'_>) {
        let own_cpu = ctx.enclave_cpus().first().unwrap_or(CpuId(0));
        let own_tid = ctx.managed_threads().first().copied().unwrap_or(Tid(0));
        let mut led = self.ledger.lock().unwrap();
        match op {
            ByzOp::CommitForgedCpu { cpu } => {
                let mut t = Transaction::new(own_tid, CpuId(cpu));
                ctx.commit_one(&mut t);
                led.check_txns(&op, &[t]);
            }
            ByzOp::CommitForeignTid { tid } => {
                let mut t = Transaction::new(Tid(tid), own_cpu);
                ctx.commit_one(&mut t);
                led.check_txns(&op, &[t]);
            }
            ByzOp::CommitStaleSeq => {
                let mut t = Transaction::new(own_tid, own_cpu).with_agent_seq(0);
                ctx.commit_one(&mut t);
                led.check_txns(&op, &[t]);
            }
            ByzOp::CommitAtomicMixed { cpu } => {
                let mut txns = [
                    Transaction::new(own_tid, own_cpu),
                    Transaction::new(own_tid, CpuId(cpu)),
                ];
                ctx.commit_atomic(&mut txns);
                if txns.iter().any(|t| t.status.committed()) {
                    led.violate(&op, "poisoned atomic group partially committed");
                }
                led.check_txns(&op, &txns);
            }
            ByzOp::RecallForged { cpu } => {
                led.note(ctx.try_recall(CpuId(cpu)));
            }
            ByzOp::QueueDestroyDefault => {
                let q = ctx.queue_of_cpu(own_cpu);
                led.must_reject(&op, ctx.try_destroy_queue(q), "default queue destroyed");
            }
            ByzOp::QueueAssociateForged { tid, queue } => {
                led.note(ctx.try_associate_queue(Tid(tid), QueueId(queue)));
            }
            ByzOp::QueueWakeupForged { tid } => {
                let q = ctx.queue_of_cpu(own_cpu);
                // A forged wake target would be dereferenced by the
                // kernel on every later message: acceptance is only
                // legal if the tid really is one of our agents.
                let forged = tid != ctx.agent_tid().0;
                let wake = WakeMode::WakeAgent(Tid(tid));
                if led.note(ctx.try_config_queue_wakeup(q, wake)) && forged {
                    led.violate(&op, "forged wake target accepted");
                }
            }
            ByzOp::PntPushForeign { tid } => {
                // Pushing a thread we DO manage may benignly return false
                // (PNT disabled, ring full) with no reject; only a tid we
                // do not manage is a typed rejection.
                let foreign = !ctx.managed_threads().contains(&Tid(tid));
                if !ctx.pnt_push(0, Tid(tid)) && foreign {
                    led.rejected += 1;
                }
            }
            ByzOp::PingForged { cpu } => {
                // Pinging a machine-valid CPU that simply has no core
                // agent in this enclave is a benign miss (false, no
                // reject); only a forged id is a typed rejection.
                let forged = (cpu as usize) >= ctx.topo().num_cpus();
                if !ctx.ping_core_agent(CpuId(cpu)) && forged {
                    led.rejected += 1;
                }
            }
            // Runtime-layer ops never reach the policy.
            _ => {}
        }
    }
}

impl GhostPolicy for ByzantinePolicy {
    fn name(&self) -> &str {
        "byzantine"
    }

    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
        self.inner.on_msg(msg, ctx);
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        let op = self.ops.lock().unwrap().pop_front();
        if let Some(op) = op {
            self.run_op(op, ctx);
        }
        self.inner.schedule(ctx);
        if !self.ops.lock().unwrap().is_empty() {
            ctx.request_wakeup_at(ctx.now() + 500 * MICROS);
        }
    }

    fn on_reconstruct(&mut self, snapshot: &[ThreadSnapshot], ctx: &mut PolicyCtx<'_>) {
        self.inner.on_reconstruct(snapshot, ctx);
    }
}

/// Issues one runtime-layer op through the enclave/runtime API.
fn run_runtime_op(
    op: &ByzOp,
    k: &mut KernelState,
    runtime: &GhostRuntime,
    byz: &EnclaveHandle,
    led: &mut Ledger,
) {
    match *op {
        ByzOp::AttachForged { tid } => {
            led.note(byz.try_attach_thread(k, Tid(tid)));
        }
        ByzOp::StatusWrite { tid, value } => led.must_reject(
            op,
            byz.try_write_status(k, Tid(tid), value),
            "kernel-owned status word accepted a write",
        ),
        ByzOp::StatusReadForged { tid } => {
            led.note(byz.try_thread_status(Tid(tid)));
        }
        ByzOp::HintForged { tid } => {
            led.note(runtime.try_set_hint(Tid(tid), u64::MAX));
        }
        ByzOp::UpgradeWithoutStage => led.must_reject(
            op,
            byz.try_upgrade_now(k),
            "upgrade succeeded with nothing staged",
        ),
        ByzOp::DestroyTwice => {
            // The first call may find it already gone (e.g. quarantined):
            // still a typed rejection.
            led.note(byz.try_destroy(k));
            match byz.try_destroy(k) {
                Ok(()) => led.violate(op, "double destroy accepted"),
                Err(AbiError::EnclaveDestroyed) => led.rejected += 1,
                Err(e) => led.violate(
                    op,
                    format_args!("double destroy rejected with {e}, want enclave-destroyed"),
                ),
            }
        }
        ByzOp::CreateOverlapping { cpu } => led.must_reject(
            op,
            runtime.try_create_enclave(
                CpuSet::from_iter([CpuId(cpu)]),
                EnclaveConfig::centralized("byz-clone"),
                Box::new(CentralizedFifo::new()),
            ),
            &format!("contested CPU {cpu} granted"),
        ),
        _ => {}
    }
}

/// The victim/byzantine pulse workload: every thread repeatedly runs a
/// seed-derived segment then blocks until its periodic timer re-arms it.
/// Completions are tracked per tid so victim progress can be judged
/// separately from byzantine-enclave noise.
struct SplitPulseApp {
    conf: HashMap<Tid, (Nanos, Nanos)>, // (segment, period)
    completions: Arc<Mutex<HashMap<Tid, u64>>>,
}

impl App for SplitPulseApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "byz-pulse"
    }

    fn on_timer(&mut self, key: u64, k: &mut KernelState) {
        let tid = Tid(key as u32);
        let Some(&(seg, period)) = self.conf.get(&tid) else {
            return;
        };
        if k.thread(tid).state == ThreadState::Blocked {
            k.thread_mut(tid).remaining = seg;
            k.wake(tid);
        }
        let app = k.thread(tid).app.expect("pulse threads have an app");
        k.arm_app_timer(k.now + period, app, key);
    }

    fn on_segment_end(&mut self, tid: Tid, _k: &mut KernelState) -> Next {
        *self.completions.lock().unwrap().entry(tid).or_insert(0) += 1;
        Next::Block
    }
}

/// The run proper: two enclaves, the hostile op schedule, the verdict.
fn run_unguarded(combo: &ByzCombo) -> (CaseReport, GhostStats) {
    let sink = TraceSink::recording(1, 1 << 18);
    // The victim also absorbs an agent crash mid-run: its hot standby
    // must recover within the SLO *while* the byzantine neighbour is
    // hammering the ABI.
    let plan = FaultPlan::from_events([(30 * MILLIS, FaultKind::AgentCrash { cpu: CpuId(1) })]);
    let config = KernelConfig {
        seed: combo.seed,
        trace: sink.clone(),
        faults: plan,
        ..KernelConfig::default()
    };
    let mut kernel = Kernel::new(Topology::test_small(4), config);
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());

    // Victim enclave on CPUs 1–3, watchdog + hot standby armed.
    let victim_kind = combo.victim;
    let victim_cfg = victim_kind
        .enclave_config("victim")
        .with_watchdog(WATCHDOG)
        .with_standby(StandbyConfig::default());
    let victim = runtime.launch_enclave(
        &mut kernel,
        [1u16, 2, 3].into_iter().map(CpuId).collect(),
        victim_cfg,
        victim_kind.build(),
    );
    victim.set_standby_policy(move || victim_kind.build());

    // Byzantine enclave on CPUs 4–5.
    let ledger = Arc::new(Mutex::new(Ledger::default()));
    let (policy_ops, runtime_ops): (Vec<ByzOp>, Vec<ByzOp>) =
        combo.ops.iter().partition(|o| o.is_policy_op());
    let ops_queue = Arc::new(Mutex::new(VecDeque::from(policy_ops)));
    let mut byz_cfg = EnclaveConfig::centralized("byzantine").with_watchdog(WATCHDOG);
    if let Some(budget) = combo.strike_budget() {
        byz_cfg = byz_cfg.with_abi_strikes(budget);
    }
    let byz = runtime.launch_enclave(
        &mut kernel,
        [4u16, 5].into_iter().map(CpuId).collect(),
        byz_cfg,
        Box::new(ByzantinePolicy {
            inner: CentralizedFifo::new(),
            ops: ops_queue,
            ledger: Arc::clone(&ledger),
        }),
    );

    // Workload: four victim threads, two byzantine-enclave threads.
    let completions = Arc::new(Mutex::new(HashMap::new()));
    let app = kernel.state.next_app_id();
    let mut conf = HashMap::new();
    let mut rng = StdRng::seed_from_u64(combo.seed ^ 0x0C0F_FEE0);
    let mut spawn = |kernel: &mut Kernel, name: String, cookie: u64| {
        let tid = kernel.spawn(
            ThreadSpec::workload(&name, &kernel.state.topo)
                .app(app)
                .cookie(cookie),
        );
        let seg = rng.gen_range(20 * MICROS..200 * MICROS);
        let period = rng.gen_range(500 * MICROS..2 * MILLIS);
        conf.insert(tid, (seg, period));
        tid
    };
    let victim_tids: Vec<Tid> = (0..4)
        .map(|i| spawn(&mut kernel, format!("v{i}"), victim_kind.cookie_for(i)))
        .collect();
    let byz_tids: Vec<Tid> = (0..2)
        .map(|i| spawn(&mut kernel, format!("b{i}"), 0))
        .collect();
    kernel.add_app(Box::new(SplitPulseApp {
        conf,
        completions: Arc::clone(&completions),
    }));
    for &tid in &victim_tids {
        victim.attach_thread(&mut kernel.state, tid);
    }
    for &tid in &byz_tids {
        byz.attach_thread(&mut kernel.state, tid);
    }
    for (i, &tid) in victim_tids.iter().chain(byz_tids.iter()).enumerate() {
        kernel
            .state
            .arm_app_timer((i as u64 + 1) * 10_000, app, tid.0 as u64);
    }

    // Run, issuing runtime-layer ops at deterministic breakpoints.
    for (i, op) in runtime_ops.iter().enumerate() {
        kernel.run_until((8 + 9 * i as u64) * MILLIS);
        let mut led = ledger.lock().unwrap();
        run_runtime_op(op, &mut kernel.state, &runtime, &byz, &mut led);
    }
    kernel.run_until(BYZ_HORIZON);

    // Judge.
    let stats = runtime.stats();
    let led = ledger.lock().unwrap();
    let mut failures: Vec<Failure> = led
        .violations
        .iter()
        .map(|v| Failure {
            oracle: "typed-rejection",
            detail: v.clone(),
        })
        .collect();
    if stats.abi_rejects_total() < led.rejected {
        failures.push(Failure {
            oracle: "typed-rejection",
            detail: format!(
                "silent drop: {} hostile calls rejected but only {} typed rejections counted",
                led.rejected,
                stats.abi_rejects_total()
            ),
        });
    }
    let victim_completions: u64 = {
        let c = completions.lock().unwrap();
        victim_tids
            .iter()
            .map(|t| c.get(t).copied().unwrap_or(0))
            .sum()
    };
    let trace_records = sink.with_records(|records, dropped| {
        failures.extend(oracle::evaluate(
            records.clone(),
            dropped,
            &kernel.state,
            &runtime,
            victim.id(),
            &victim_tids,
            victim_completions,
            Some(StandbyConfig::default().recovery_slo),
        ));
        records.len()
    });
    let report = CaseReport {
        failures,
        lines: vec![
            format!("victim-completions {victim_completions}"),
            format!("hostile-rejected {}", led.rejected),
            format!("abi-rejects {}", stats.abi_rejects_total()),
            format!("quarantines {}", stats.quarantines),
            format!("txns-committed {}", stats.txns_committed),
            format!("trace-records {trace_records}"),
        ],
        trace: sink,
        bench: Vec::new(),
    };
    (report, stats)
}

impl ChaosCase for ByzCombo {
    const KIND: &'static str = "byzantine";
    const COMBOS: u64 = 64;
    const DETERMINISTIC: bool = true;

    /// Victim policies the sweep rotates through, queried from the
    /// registry's `byzantine_victim` capability flag. Core scheduling is
    /// excluded: it requires whole physical cores across the entire
    /// machine and cannot co-reside with a second enclave.
    fn policies() -> Vec<PolicyKind> {
        PolicyKind::byzantine_victims()
    }

    fn generate(index: u64, seed_base: u64, victims: &[PolicyKind]) -> Self {
        let victim = victims[(index % victims.len() as u64) as usize];
        Self::generated(victim, seed_base + index)
    }

    fn label(&self) -> String {
        format!("byz/{}/seed={}", self.victim.name(), self.seed)
    }

    /// Every field that affects the outcome, one per line.
    fn spec(&self) -> String {
        let budget = self
            .strike_budget()
            .map_or_else(|| "none".to_string(), |b| b.to_string());
        let mut s = format!(
            "ghost-chaos byzantine v1\nvictim {}\nseed {}\nstrike-budget {budget}\n",
            self.victim.name(),
            self.seed
        );
        for op in &self.ops {
            s.push_str(&format!("op {}\n", op.spec()));
        }
        s
    }

    fn run(&self) -> CaseReport {
        self.execute().0
    }

    fn encode(&self) -> Json {
        obj([
            ("kind", text(Self::KIND)),
            ("victim", text(self.victim.name())),
            ("seed", wide::enc(self.seed)),
            ("ops", list(&self.ops)),
        ])
    }

    fn decode(doc: &Json) -> Result<Self, String> {
        Ok(Self {
            victim: policy_field(doc, "victim", Self::admits)?,
            seed: wide::dec(doc, "seed")?,
            ops: list_field(doc, "ops")?,
        })
    }

    /// The op sequence with any one op deleted.
    fn shrink_candidates(&self) -> Vec<Self> {
        (0..self.ops.len())
            .map(|i| {
                let mut smaller = self.clone();
                smaller.ops.remove(i);
                smaller
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops() {
        for seed in 0..64 {
            assert_eq!(
                generate_byz_ops(seed),
                generate_byz_ops(seed),
                "seed {seed} not deterministic"
            );
        }
    }

    #[test]
    fn ops_are_bounded_and_cover_both_layers() {
        let mut policy_ops = 0usize;
        let mut runtime_ops = 0usize;
        for seed in 0..64 {
            let ops = generate_byz_ops(seed);
            assert!((3..=8).contains(&ops.len()));
            policy_ops += ops.iter().filter(|o| o.is_policy_op()).count();
            runtime_ops += ops.iter().filter(|o| !o.is_policy_op()).count();
        }
        assert!(policy_ops > 0, "no in-activation hostile ops generated");
        assert!(runtime_ops > 0, "no runtime-layer hostile ops generated");
    }

    fn count(report: &CaseReport, key: &str) -> u64 {
        report.value(key).unwrap().parse().unwrap()
    }

    #[test]
    fn every_op_round_trips_and_renders_its_spec() {
        let ops = [
            ByzOp::CommitForgedCpu { cpu: 999 },
            ByzOp::CommitForeignTid { tid: u32::MAX },
            ByzOp::CommitStaleSeq,
            ByzOp::CommitAtomicMixed { cpu: 300 },
            ByzOp::RecallForged { cpu: u16::MAX },
            ByzOp::QueueDestroyDefault,
            ByzOp::QueueAssociateForged { tid: 7, queue: 250 },
            ByzOp::QueueWakeupForged { tid: 9_999 },
            ByzOp::PntPushForeign { tid: 40 },
            ByzOp::PingForged { cpu: 8 },
            ByzOp::AttachForged { tid: 0 },
            // Would not survive an f64 round trip.
            ByzOp::StatusWrite {
                tid: 1,
                value: u64::MAX,
            },
            ByzOp::StatusReadForged { tid: 5 },
            ByzOp::HintForged { tid: 4_096 },
            ByzOp::UpgradeWithoutStage,
            ByzOp::DestroyTwice,
            ByzOp::CreateOverlapping { cpu: 1 },
        ];
        for op in ops {
            assert_eq!(ByzOp::decode(&op.encode()), Ok(op));
        }
        // The cache-key rendering is part of the determinism contract.
        assert_eq!(ops[2].spec(), "commit-stale-seq");
        assert_eq!(ops[6].spec(), "queue-associate-forged tid=7 queue=250");
        assert_eq!(
            ops[11].spec(),
            "status-write tid=1 value=18446744073709551615"
        );
        assert!(ByzOp::decode(&obj([("op", text("format-disk"))]))
            .unwrap_err()
            .contains("unknown byzantine op 'format-disk'"));
        // A forged id that does not fit the field is rejected, not wrapped.
        let mut doc = ByzOp::PingForged { cpu: 8 }.encode();
        if let Json::Obj(members) = &mut doc {
            members[1].1 = Json::Num(70_000.0);
        }
        assert!(ByzOp::decode(&doc).unwrap_err().contains("'cpu'"));
    }

    #[test]
    fn byzantine_smoke_absorbs_hostile_sequences() {
        // A bounded in-tree slice of the CI byzantine sweep: every
        // hostile sequence must be absorbed — no panic, every rejection
        // typed, the victim alive — across all rotated victim policies.
        let victims = ByzCombo::policies();
        for index in 0..12 {
            let combo = ByzCombo::generate(index, 1, &victims);
            let report = combo.run();
            assert!(
                report.failures.is_empty(),
                "{} ops={:?} failed: {:?}",
                combo.label(),
                combo.ops,
                report.failures
            );
        }
    }

    #[test]
    fn byzantine_runs_are_deterministic() {
        let combo = ByzCombo::generated(PolicyKind::PerCpu, 3);
        let (a, b) = (combo.run(), combo.run());
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.trace.snapshot(), b.trace.snapshot());
    }

    #[test]
    fn quarantine_fires_on_even_seeds_with_enough_strikes() {
        // Craft a sequence of guaranteed byzantine-classified strikes
        // (forged out-of-range CPUs and kernel-owned status writes) on
        // an even seed, which arms a budget of four.
        let combo = ByzCombo {
            victim: PolicyKind::PerCpu,
            seed: 2,
            ops: vec![
                ByzOp::CommitForgedCpu { cpu: 999 },
                ByzOp::CommitForgedCpu { cpu: 998 },
                ByzOp::StatusWrite {
                    tid: 0,
                    value: u64::MAX,
                },
                ByzOp::StatusWrite { tid: 1, value: 7 },
                ByzOp::CommitForgedCpu { cpu: 997 },
                ByzOp::CommitForgedCpu { cpu: 996 },
            ],
        };
        assert_eq!(combo.strike_budget(), Some(4));
        let report = combo.run();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(
            count(&report, "quarantines") >= 1,
            "six byzantine strikes against a budget of four must quarantine"
        );
        assert!(count(&report, "hostile-rejected") >= 6);
    }
}
