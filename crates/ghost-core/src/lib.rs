//! # ghost-core — the ghOSt ABI and runtime
//!
//! This crate is the paper's primary contribution: the infrastructure for
//! delegating kernel scheduling decisions to userspace agents.
//!
//! The kernel side is [`runtime::GhostRuntime`]: a scheduling class
//! plugged into the `ghost-sim` kernel *below* CFS and the agent driver
//! that runs agent activations, both over any [`backend::GhostBackend`].
//! The userspace side is the [`policy::GhostPolicy`] trait and the
//! [`policy::PolicyCtx`] API that policies program against — the analogue
//! of the paper's userspace support library.
//!
//! Communication follows §3 of the paper exactly:
//!
//! * **Kernel → agent** ([`msg`], [`queue`], [`status`]): thread state
//!   changes are posted as [`msg::Message`]s into shared-memory
//!   [`queue::MessageQueue`]s; sequence numbers (`Aseq` per agent, `Tseq`
//!   per thread) are exposed through [`status::StatusWord`]s.
//! * **Agent → kernel** ([`txn`]): scheduling decisions are
//!   [`txn::Transaction`]s committed (individually or as group commits)
//!   and validated against sequence numbers — a stale view fails with
//!   [`txn::TxnStatus::Stale`].
//!
//! The full Table 1 syscall surface maps onto this API:
//!
//! | paper syscall | here |
//! |---|---|
//! | `AGENT_INIT()` | [`runtime::GhostRuntime::launch_enclave`] (one agent per enclave CPU) |
//! | `START_GHOST()` | [`runtime::EnclaveHandle::attach_thread`] / `try_attach_thread` |
//! | `TXN_CREATE()` | [`txn::Transaction::new`] |
//! | `TXNS_COMMIT()` | [`policy::PolicyCtx::commit`] / `commit_atomic` / `commit_one` |
//! | `TXNS_RECALL()` | [`policy::PolicyCtx::try_recall`] |
//! | `CREATE_QUEUE()` | [`policy::PolicyCtx::create_queue`] |
//! | `DESTROY_QUEUE()` | [`policy::PolicyCtx::try_destroy_queue`] |
//! | `ASSOCIATE_QUEUE()` | [`policy::PolicyCtx::try_associate_queue`] |
//! | `CONFIG_QUEUE_WAKEUP()` | [`policy::PolicyCtx::try_config_queue_wakeup`] |
//!
//! Partitioning, fault isolation, and upgrades (§3.4) live in
//! [`enclave`] and [`runtime`]: enclaves own CPU sets, the watchdog
//! destroys enclaves whose agents stop scheduling runnable threads, agent
//! crashes fall back to CFS, and a staged policy can take over in place.
//! The BPF `pick_next_task` fast path (§3.2/§5) is modelled by [`pnt`].

pub mod abi;
pub mod backend;
pub mod enclave;
pub mod lease;
pub mod msg;
pub mod pnt;
pub mod policy;
pub mod queue;
pub mod recovery;
pub mod rm;
pub mod runtime;
pub mod slab;
pub mod status;
pub mod txn;

pub use abi::AbiError;
pub use backend::{BackendCpu, BackendThread, GhostBackend};
pub use enclave::{AgentMode, EnclaveConfig, EnclaveId, QueueId};
pub use lease::{Lease, LeaseStats, LeaseTable, RevokeReason};
pub use msg::{Message, MsgType};
pub use policy::{GhostPolicy, PolicyCtx, ThreadView};
pub use queue::MessageQueue;
pub use recovery::{CommitGovernor, StaleVerdict, StandbyConfig, ThreadSnapshot};
pub use rm::{EnclaveHealth, RmConfig, RmDecision, RmState, RmStats};
pub use runtime::{EnclaveHandle, GhostRuntime, GhostStats};
pub use status::StatusWord;
pub use txn::{SeqConstraint, Transaction, TxnStatus};
