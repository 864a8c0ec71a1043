//! Enclaves: CPU partitions each managed by one ghOSt policy (§3, Fig. 2).
//!
//! "A system can be partitioned into multiple independent enclaves, at CPU
//! granularity, each of which runs its own policy. ... Enclaves also help
//! in isolating faults, limiting the damage of an agent-crash to the
//! enclave it belongs to."

use crate::msg::Message;
use crate::pnt::PntRings;
use crate::queue::MessageQueue;
use crate::slab::{CpuMap, TidMap, TidSlab};
use crate::status::{StatusWord, StatusWordRef, SW_ATTACHED};
use ghost_sim::cpuset::CpuSet;
use ghost_sim::thread::Tid;
use ghost_sim::time::Nanos;
use ghost_sim::topology::CpuId;

/// Identifier of an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EnclaveId(pub u32);

/// Identifier of a message queue within an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueId(pub u32);

/// How agents are organized in an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentMode {
    /// One active agent per CPU, each with its own queue (Fig. 2 left).
    PerCpu,
    /// One spinning global agent scheduling every CPU in the enclave;
    /// all other agents are inactive hot-standbys (Fig. 2 right).
    Centralized,
    /// One queue and one active agent per *physical core*, scheduling
    /// both SMT siblings with synchronized group commits (§4.5, Fig. 9).
    PerCore,
}

/// Per-enclave configuration.
#[derive(Debug, Clone)]
pub struct EnclaveConfig {
    /// Debug name.
    pub name: String,
    /// Agent organization.
    pub mode: AgentMode,
    /// Capacity of each message queue.
    pub queue_capacity: usize,
    /// Deliver `TIMER_TICK` messages for enclave CPUs.
    pub deliver_ticks: bool,
    /// Watchdog: destroy the enclave if a runnable ghOSt thread is left
    /// unscheduled for this long (§3.4). `None` disables the watchdog.
    pub watchdog_timeout: Option<Nanos>,
    /// Enable the BPF `pick_next_task` fast path with this per-node ring
    /// capacity (§3.2/§5). `None` disables it.
    pub pnt_ring_capacity: Option<usize>,
    /// Degraded-mode failover (§3.4): when an agent crashes with no staged
    /// policy, threads transiently fall back to CFS while a standby agent
    /// respawns and reconstructs from status words. `None` keeps the
    /// crash-destroys-the-enclave behaviour.
    pub standby: Option<crate::recovery::StandbyConfig>,
    /// Byzantine strike budget: quarantine (destroy → CFS fallback) the
    /// enclave after this many rejected ABI calls that no benign race
    /// can produce ([`crate::abi::AbiError::byzantine`]). `None`
    /// disables quarantine; rejections are still counted and traced.
    pub abi_strike_budget: Option<u32>,
}

impl EnclaveConfig {
    /// A centralized enclave with sensible defaults.
    pub fn centralized(name: &str) -> Self {
        Self {
            name: name.to_string(),
            mode: AgentMode::Centralized,
            queue_capacity: 65_536,
            deliver_ticks: false,
            watchdog_timeout: None,
            pnt_ring_capacity: None,
            standby: None,
            abi_strike_budget: None,
        }
    }

    /// A per-CPU enclave with sensible defaults.
    pub fn per_cpu(name: &str) -> Self {
        Self {
            name: name.to_string(),
            mode: AgentMode::PerCpu,
            queue_capacity: 8_192,
            deliver_ticks: true,
            watchdog_timeout: None,
            pnt_ring_capacity: None,
            standby: None,
            abi_strike_budget: None,
        }
    }

    /// A per-physical-core enclave (secure VM scheduling, §4.5).
    pub fn per_core(name: &str) -> Self {
        Self {
            name: name.to_string(),
            mode: AgentMode::PerCore,
            queue_capacity: 8_192,
            deliver_ticks: false,
            watchdog_timeout: None,
            pnt_ring_capacity: None,
            standby: None,
            abi_strike_budget: None,
        }
    }

    /// Sets the per-queue message capacity. Size for the worst burst the
    /// workload can produce — a cohort of `n` threads attached and woken
    /// at once posts `2n` messages before the agent runs, and an
    /// overflowed queue drops (the watchdog, not the producer, notices).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the watchdog timeout.
    pub fn with_watchdog(mut self, timeout: Nanos) -> Self {
        self.watchdog_timeout = Some(timeout);
        self
    }

    /// Enables the PNT fast path.
    pub fn with_pnt(mut self, ring_capacity: usize) -> Self {
        self.pnt_ring_capacity = Some(ring_capacity);
        self
    }

    /// Enables or disables tick delivery.
    pub fn with_ticks(mut self, deliver: bool) -> Self {
        self.deliver_ticks = deliver;
        self
    }

    /// Enables degraded-mode failover with a standby agent.
    pub fn with_standby(mut self, standby: crate::recovery::StandbyConfig) -> Self {
        self.standby = Some(standby);
        self
    }

    /// Sets the byzantine strike budget (quarantine threshold).
    pub fn with_abi_strikes(mut self, budget: u32) -> Self {
        self.abi_strike_budget = Some(budget);
        self
    }
}

/// How message production into a queue wakes agents
/// (`CONFIG_QUEUE_WAKEUP()`, §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeMode {
    /// No wakeup: the queue is polled (by the spinning global agent).
    Polled,
    /// Wake this agent thread when a message is produced.
    WakeAgent(Tid),
    /// Wake the agent pinned to the CPU that generated the event; that
    /// agent becomes the active agent for its physical core (per-core
    /// mode, §4.5 / Fig. 9).
    WakeEventCpuAgent,
}

/// A queue plus its wakeup configuration.
pub struct QueueState {
    /// The shared-memory ring.
    pub queue: MessageQueue,
    /// Wakeup behaviour.
    pub wake: WakeMode,
}

/// Kernel-side bookkeeping for a ghOSt-managed thread.
pub struct ThreadInfo {
    /// Queue this thread's messages are routed to (`ASSOCIATE_QUEUE()`).
    pub queue: QueueId,
    /// The thread's sequence number `Tseq`.
    pub tseq: u64,
    /// Messages for this thread produced but not yet consumed; a nonzero
    /// count fails `ASSOCIATE_QUEUE()` per §3.1.
    pub pending_msgs: u32,
    /// Shared status word (seq + on-CPU/runnable flags).
    pub status: StatusWordRef,
    /// Set while a committed-but-not-yet-run transaction references the
    /// thread, so a second transaction cannot double-schedule it.
    pub picked: bool,
}

/// A committed transaction waiting for its target CPU to act on it.
#[derive(Debug, Clone, Copy)]
pub struct CommittedSlot {
    /// Thread to run.
    pub tid: Tid,
    /// Virtual time at which the target CPU observes the commit (IPI
    /// arrival + handler for remote targets; end of the agent's local
    /// commit work for local targets).
    pub arm_at: Nanos,
}

/// Per-agent bookkeeping.
pub struct AgentSlot {
    /// The agent's pthread.
    pub tid: Tid,
    /// The CPU this agent is pinned to.
    pub cpu: CpuId,
    /// The agent's status word; its seq is `Aseq`.
    pub status: StatusWordRef,
}

/// An enclave: a CPU partition managed by one policy.
pub struct Enclave {
    /// Identifier.
    pub id: EnclaveId,
    /// Configuration.
    pub config: EnclaveConfig,
    /// CPUs owned by the enclave.
    pub cpus: CpuSet,
    /// Queues by id (None = destroyed).
    pub queues: Vec<Option<QueueState>>,
    /// The default queue new threads are associated with.
    pub default_queue: QueueId,
    /// Queue receiving CPU-scoped messages, per CPU.
    pub cpu_queues: CpuMap<QueueId>,
    /// ghOSt-managed threads: slab storage with `u32` index handles so
    /// the post/activate/commit/PNT paths never hash a tid.
    pub threads: TidSlab<ThreadInfo>,
    /// Agents by CPU.
    pub agents: CpuMap<AgentSlot>,
    /// The currently active global agent (centralized mode).
    pub global_agent: Option<Tid>,
    /// Active agent per physical core (per-core mode), keyed by the
    /// first CPU of the core.
    pub core_active: CpuMap<Tid>,
    /// Kernel-side committed-transaction slot per CPU.
    pub committed: CpuMap<CommittedSlot>,
    /// PNT fast-path rings, if enabled.
    pub pnt: Option<PntRings>,
    /// Scheduling hints published by workloads (Fig. 1's optional
    /// hints channel): tid → opaque hint word interpreted by the policy
    /// (e.g. expected runtime or a deadline).
    pub hints: TidMap<u64>,
    /// Set once the enclave is being destroyed; all operations abort.
    pub destroyed: bool,
    /// An armed-activation flag to coalesce agent-loop scheduling.
    pub loop_armed: bool,
    /// Time of the most recent in-place policy upgrade, if any. The
    /// watchdog measures starvation from here rather than from before the
    /// handoff, so a freshly promoted agent is not blamed for its
    /// predecessor's backlog (and reaped a second time).
    pub upgraded_at: Option<Nanos>,
    /// Set when an incoming agent (staged upgrade or respawned standby)
    /// must rebuild its view with a status-word scan before its next
    /// activation consumes messages (§3.4).
    pub needs_reconstruct: bool,
    /// Degraded-mode failover in flight (crash happened, standby not yet
    /// re-absorbed every thread). `None` when healthy.
    pub recovery: Option<crate::recovery::RecoveryState>,
    /// Byzantine strikes accumulated: rejected ABI calls whose
    /// [`crate::abi::AbiError`] is structurally impossible from a benign
    /// race (`AbiError::byzantine()`). Crossing
    /// [`EnclaveConfig::abi_strike_budget`] quarantines the enclave.
    pub abi_strikes: u32,
    /// Standby respawns consumed over the enclave's lifetime. The budget
    /// is never replenished — an enclave whose agents keep dying is
    /// destroyed after `max_respawns` total, even if each individual
    /// recovery completed in between.
    pub respawn_attempts: u32,
    /// Total rejected ABI calls charged to this enclave (benign races
    /// and byzantine strikes alike) — the per-enclave reject pressure
    /// the resource manager samples each epoch.
    pub abi_rejects: u64,
    /// CPUs granted to this enclave (lease grant or lease return) whose
    /// policy has not yet been told via
    /// [`crate::policy::GhostPolicy::on_cpu_grant`]. Drained at the
    /// start of the next agent activation.
    pub pending_grants: Vec<CpuId>,
    /// CPUs taken from this enclave (lent away or lease revoked) whose
    /// policy has not yet been told via
    /// [`crate::policy::GhostPolicy::on_cpu_revoke`]. Drained at the
    /// start of the next agent activation.
    pub pending_revokes: Vec<CpuId>,
}

impl Enclave {
    /// `CREATE_QUEUE()`: appends a queue with the given wakeup behaviour.
    pub fn add_queue(&mut self, wake: WakeMode) -> QueueId {
        let id = QueueId(self.queues.len() as u32);
        self.queues.push(Some(QueueState {
            queue: MessageQueue::new(self.config.queue_capacity),
            wake,
        }));
        id
    }

    /// A live queue (`None` once destroyed, or for a forged id).
    pub fn queue(&self, qid: QueueId) -> Option<&QueueState> {
        self.queues.get(qid.0 as usize)?.as_ref()
    }

    /// Mutable access to a live queue.
    pub fn queue_mut(&mut self, qid: QueueId) -> Option<&mut QueueState> {
        self.queues.get_mut(qid.0 as usize)?.as_mut()
    }

    /// Pops every message from `qid` into a caller-owned buffer
    /// (appending), updating per-thread pending counts. The activation
    /// loop reuses one buffer across queues and activations, so the drain
    /// itself never allocates in steady state.
    pub fn drain_queue_into(&mut self, qid: QueueId, out: &mut Vec<Message>) {
        let Some(Some(qs)) = self.queues.get(qid.0 as usize) else {
            return;
        };
        let start = out.len();
        qs.queue.drain_into(out);
        for m in &out[start..] {
            if m.ty.is_thread_msg() {
                if let Some(info) = self.threads.get_mut(m.tid) {
                    info.pending_msgs = info.pending_msgs.saturating_sub(1);
                }
            }
        }
    }

    /// The queue CPU-scoped messages for `cpu` go to.
    pub fn queue_for_cpu(&self, cpu: CpuId) -> QueueId {
        self.cpu_queues
            .get(cpu)
            .copied()
            .unwrap_or(self.default_queue)
    }

    /// Agent pthreads in agent-CPU order (`CpuMap` iterates by `CpuId`),
    /// so "the first survivor" is the same agent on every replay.
    pub fn agent_tids(&self) -> Vec<Tid> {
        self.agents.values().map(|a| a.tid).collect()
    }

    /// Registers the agent pinned to `cpu` with a fresh status word.
    pub fn add_agent(&mut self, cpu: CpuId, tid: Tid) {
        let status = StatusWord::new();
        status.set_flags(SW_ATTACHED);
        self.agents.insert(cpu, AgentSlot { tid, cpu, status });
    }

    /// Hands the default queue's wakeups to the lowest-CPU surviving agent
    /// if the departed agent `gone` owned them.
    pub fn rehome_default_queue(&mut self, gone: Tid) {
        let successor = self.agents.values().next().map(|a| a.tid);
        if let (Some(succ), Some(qs)) = (successor, self.queue_mut(self.default_queue)) {
            if qs.wake == WakeMode::WakeAgent(gone) {
                qs.wake = WakeMode::WakeAgent(succ);
            }
        }
    }

    /// Forgets `tid`'s commit slot and PNT offer: the thread is leaving
    /// the set an agent may schedule (kill, class move, failover stash).
    pub fn unschedule(&mut self, tid: Tid) {
        self.committed.retain(|_, slot| slot.tid != tid);
        if let Some(pnt) = &mut self.pnt {
            pnt.revoke(tid);
        }
        if let Some(info) = self.threads.get_mut(tid) {
            info.picked = false;
        }
    }

    /// Recalls the commit pending on `cpu`, if any; its thread becomes
    /// schedulable again.
    pub fn recall(&mut self, cpu: CpuId) -> Option<Tid> {
        let slot = self.committed.remove(cpu)?;
        if let Some(info) = self.threads.get_mut(slot.tid) {
            info.picked = false;
        }
        Some(slot.tid)
    }

    /// Hands the enclave to an incoming agent (staged upgrade, respawned
    /// standby, stash reclaim): the next activation rebuilds its view from
    /// a status-word scan, the watchdog measures starvation from `now`,
    /// and an `Aseq` barrier on every agent fails commits prepared
    /// against the predecessor's view with `ESTALE`.
    pub fn raise_barrier(&mut self, now: Nanos) {
        self.needs_reconstruct = true;
        self.upgraded_at = Some(now);
        for slot in self.agents.values() {
            slot.status.bump_seq();
        }
    }

    /// True once the byzantine strike budget is spent and the enclave is
    /// still standing to be quarantined.
    pub fn strikes_exhausted(&self) -> bool {
        !self.destroyed
            && self
                .config
                .abi_strike_budget
                .is_some_and(|budget| self.abi_strikes >= budget)
    }
}
