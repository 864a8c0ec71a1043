//! Counters describing everything the runtime did.

use crate::abi::{AbiError, ABI_ERROR_KINDS};
use crate::msg::MsgType;

/// Counters describing everything the runtime did.
#[derive(Debug, Default, Clone)]
pub struct GhostStats {
    /// Messages posted, indexed by [`MsgType`] discriminant order.
    pub msgs_posted: [u64; 8],
    /// Messages dropped because a queue was full.
    pub msgs_dropped: u64,
    /// Agent activations.
    pub activations: u64,
    /// Activations that drained no messages (pure timer/poll wakeups).
    pub empty_activations: u64,
    /// Total agent busy time (ns of virtual time).
    pub agent_busy_ns: u64,
    /// Transactions committed successfully.
    pub txns_committed: u64,
    /// Transactions failed with `ESTALE`.
    pub txns_stale: u64,
    /// Transactions failed: target not runnable.
    pub txns_not_runnable: u64,
    /// Transactions failed: CPU busy with higher-class work.
    pub txns_cpu_busy: u64,
    /// Transactions failed: CPU/affinity unavailable.
    pub txns_cpu_unavailable: u64,
    /// Transactions aborted (atomic group failure or enclave teardown).
    pub txns_aborted: u64,
    /// Transactions recalled via `TXNS_RECALL()`.
    pub txns_recalled: u64,
    /// `TXNS_COMMIT()` calls with more than one transaction.
    pub group_commits: u64,
    /// Threads scheduled through the PNT fast path.
    pub pnt_picks: u64,
    /// Global-agent hot handoffs (§3.3).
    pub handoffs: u64,
    /// Enclaves destroyed by the watchdog.
    pub watchdog_destroys: u64,
    /// Enclaves destroyed in total.
    pub enclave_destroys: u64,
    /// In-place agent upgrades (§3.4).
    pub upgrades: u64,
    /// Agent crashes that fell back to CFS.
    pub fallbacks: u64,
    /// Status-word reconstruction scans run by incoming agents (§3.4).
    pub reconstructions: u64,
    /// Standby agents respawned during degraded-mode failover.
    pub respawns: u64,
    /// Degraded-mode failovers that completed: every stashed thread was
    /// reclaimed (or died) and the standby finished reconstructing.
    pub recoveries: u64,
    /// Threads shed to CFS by a policy's bounded `ESTALE` retry governor.
    pub estale_sheds: u64,
    /// Transactions failed: target tid is not a schedulable thread of the
    /// enclave at all (never attached, dead, foreign, or an agent).
    pub txns_unknown_target: u64,
    /// ABI calls rejected at the validation boundary, indexed by
    /// [`AbiError::kind`].
    pub abi_rejects: [u64; ABI_ERROR_KINDS],
    /// Enclaves quarantined for exhausting their byzantine strike budget.
    pub quarantines: u64,
}

impl GhostStats {
    pub(crate) fn msg_idx(ty: MsgType) -> usize {
        match ty {
            MsgType::ThreadCreated => 0,
            MsgType::ThreadBlocked => 1,
            MsgType::ThreadPreempted => 2,
            MsgType::ThreadYield => 3,
            MsgType::ThreadDead => 4,
            MsgType::ThreadWakeup => 5,
            MsgType::ThreadAffinity => 6,
            MsgType::TimerTick => 7,
        }
    }

    /// Count of messages posted with the given type.
    pub fn posted(&self, ty: MsgType) -> u64 {
        self.msgs_posted[Self::msg_idx(ty)]
    }

    /// Total failed transactions.
    pub fn txns_failed(&self) -> u64 {
        self.txns_stale
            + self.txns_not_runnable
            + self.txns_unknown_target
            + self.txns_cpu_busy
            + self.txns_cpu_unavailable
            + self.txns_aborted
    }

    /// Count of ABI rejections carrying the given error.
    pub fn rejects(&self, err: AbiError) -> u64 {
        self.abi_rejects[err.kind()]
    }

    /// Total ABI rejections across every error kind.
    pub fn abi_rejects_total(&self) -> u64 {
        self.abi_rejects.iter().sum()
    }
}
