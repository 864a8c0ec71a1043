//! # ghost-live — real OS threads behind the ghOSt ABI
//!
//! The second implementation of [`ghost_core::GhostBackend`]: where
//! `ghost-sim` runs the runtime against a discrete-event kernel,
//! `ghost-live` runs the *same unmodified runtime and policies* against
//! real `std::thread` workers, a monotonic wall clock, per-thread command
//! mailboxes, and the same status words and message queues, reached
//! under the state lock — the paper's claim that scheduling logic lives
//! entirely in userspace, demonstrated by swapping the machine out from
//! underneath it.
//!
//! | piece | DES (`ghost-sim`) | live (this crate) |
//! |---|---|---|
//! | time | virtual event clock | [`clock::MonotonicClock`] |
//! | threads | `SimThread` table entries | parked/unparked OS threads |
//! | dispatch | `Switching` + event | unpark on commit ([`worker::WorkerCtl`]) |
//! | preemption | resched event | preempt flag at request boundary |
//! | timers | event heap | timer thread over a deadline heap |
//! | agent kick | agent-loop event | `Run` post to its mailbox ([`worker::WorkerCtl`]) |
//! | status words | `ghost_core::status`, owned by the checked-out `Core` | the same type, reached under the state lock |
//!
//! Scheduling semantics are kept aligned with the DES by construction:
//! `LiveState::settle` applies deferred operations in the DES's
//! priority order, stint endings map to the same `OffCpuReason` →
//! `THREAD_*` messages, and trace emission uses the same
//! `SchedWakeup`/`SchedSwitch` conventions — so `ghost-trace`'s invariant
//! checker validates live executions unchanged. The conformance suite
//! (`tests/conformance.rs`) runs the same checks against both backends.
//!
//! Fault injection works live: the same deterministic
//! `ghost_sim::faults::FaultPlan` the DES sweeps is consulted against the
//! wall clock — window faults (queue overflow, IPI delay/loss, agent
//! hang/slow) gate the backend's `fault_*` hooks, one-shot faults (agent
//! crash, spurious wakeup, upgrade) fire from the timer thread, and an
//! `AgentCrash` genuinely exits the agent's OS thread, driving §3.4
//! failover (CFS fallback, standby respawn, reclaim) on real threads.
//! The [`kv`] service layers graceful degradation on top: request
//! timeouts, bounded retry with backoff, and load shedding while the
//! enclave is degraded ([`kv::DegradedLimits`]).
//!
//! What is *not* modelled live: CFS runqueues (unmanaged threads run on
//! the host scheduler; `cfs_queued` is always 0, so §3.3 hot handoff
//! never triggers) and hardware pinning (lanes are logical; the host
//! kernel places threads).

pub mod clock;
pub mod kernel;
pub mod kv;
pub mod ring;
pub mod state;
pub mod worker;

pub use clock::MonotonicClock;
pub use kernel::{LiveConfig, LiveKernel};
pub use kv::{
    await_completion, open_loop_drive, DegradedLimits, DegradedStats, KvRequest, KvService,
};
pub use ring::{spsc, SpscConsumer, SpscProducer};
pub use state::LiveStats;
pub use worker::{WorkerCmd, WorkerCtl};
