//! Agent failover and bounded-time enclave recovery (§3.4).
//!
//! The paper's fault model: "if an agent crashes, the kernel can simply
//! fall back to CFS for the enclave's threads" and "a newly started agent
//! reconstructs the enclave state by scanning the status words of the
//! threads in the enclave" — absorbing 50k threads in ~105 ms (Fig. 9).
//!
//! Three pieces live here:
//!
//! * [`ThreadSnapshot`]: one entry of the status-word scan a joining or
//!   upgraded agent performs. The runtime collects the scan under an
//!   `Aseq` barrier and hands it to
//!   [`crate::policy::GhostPolicy::on_reconstruct`]; stale in-flight
//!   messages (older seqnums still sitting in queues) are discarded by
//!   the policy-side trackers when they compare sequence numbers.
//! * [`StandbyConfig`] + [`RecoveryState`]: degraded-mode failover. When
//!   an agent dies with no staged successor, the enclave's threads fall
//!   back to CFS *transiently* while a standby agent respawns,
//!   re-attaches the threads, reconstructs, and reclaims them into ghOSt
//!   — all within [`StandbyConfig::recovery_slo`]. Enclave destruction is
//!   the last resort, after [`StandbyConfig::max_respawns`] failed
//!   respawns with exponential backoff.
//! * [`CommitGovernor`]: bounded `ESTALE` commit retry. A thread whose
//!   commits persistently fail stale is shed to CFS instead of letting
//!   the agent spin on it forever.

use crate::enclave::ThreadInfo;
use crate::slab::{TidMap, TidSlab};
use ghost_sim::thread::Tid;
use ghost_sim::time::Nanos;
use ghost_sim::topology::CpuId;

/// Driver-timer key flag marking a standby-respawn timer. Watchdog timers
/// use the raw enclave id as their key, so the high bit keeps the two
/// spaces disjoint.
pub(crate) const RESPAWN_TIMER_FLAG: u64 = 1 << 63;

/// Degraded-mode failover knobs. Attached to
/// [`crate::enclave::EnclaveConfig::standby`]; `None` there keeps the
/// pre-failover behaviour (agent crash without a staged policy destroys
/// the enclave).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StandbyConfig {
    /// Respawn attempts before the enclave is destroyed for good.
    pub max_respawns: u32,
    /// Delay before the first respawn; doubles on every further attempt
    /// consumed from the enclave's lifetime respawn budget.
    pub respawn_backoff: Nanos,
    /// Target bound from crash detection to every runnable thread being
    /// schedulable by ghOSt again. The runtime does not enforce this —
    /// the chaos harness's recovery oracle verifies it from traces.
    pub recovery_slo: Nanos,
}

impl Default for StandbyConfig {
    fn default() -> Self {
        Self {
            max_respawns: 3,
            respawn_backoff: 100_000, // 100 µs
            recovery_slo: 10_000_000, // 10 ms
        }
    }
}

/// One entry of the status-word scan: everything an incoming agent can
/// learn about a thread without having seen its message history (§3.4).
#[derive(Debug, Clone, Copy)]
pub struct ThreadSnapshot {
    /// The thread.
    pub tid: Tid,
    /// The status word's sequence number (`Tseq`). Messages still in
    /// flight with `seq` below this are pre-scan leftovers and must be
    /// discarded by the consumer.
    pub seq: u64,
    /// `SW_RUNNABLE`: waiting for an agent decision.
    pub runnable: bool,
    /// `SW_ONCPU`: running right now.
    pub on_cpu: bool,
    /// Last CPU the thread ran on (locality seed).
    pub last_cpu: CpuId,
    /// Grouping cookie (VM id, Snap/batch marker, …).
    pub cookie: u64,
}

/// In-flight degraded-mode failover bookkeeping, held by the enclave
/// between the crash and the standby's first activation.
pub struct RecoveryState {
    /// `ThreadInfo` of every degraded thread, preserved across the CFS
    /// excursion so `Tseq` stays monotone and the status word survives.
    /// Slab-backed like the live thread table, so reclaim is a handle
    /// move, not a rehash.
    pub stashed: TidSlab<ThreadInfo>,
    /// CPUs whose agent died and still awaits a respawn.
    pub pending_cpus: Vec<CpuId>,
    /// Virtual time the first crash of this recovery was detected — the
    /// origin the recovery SLO is measured from.
    pub started_at: Nanos,
}

impl RecoveryState {
    /// True once nothing is left to reclaim or respawn.
    pub fn finished(&self) -> bool {
        self.stashed.is_empty() && self.pending_cpus.is_empty()
    }
}

/// Verdict of the [`CommitGovernor`] for one more stale failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaleVerdict {
    /// Requeue and retry after `backoff` (exponential in the consecutive
    /// failure count).
    Retry {
        /// Suggested delay before the retry.
        backoff: Nanos,
    },
    /// The retry budget is exhausted: shed the thread to CFS
    /// ([`crate::policy::PolicyCtx::shed_to_cfs`]).
    Shed,
}

/// Bounded `ESTALE` retry with backoff and persistent-overflow shedding.
///
/// The natural reaction to a stale commit is to requeue the thread — the
/// in-flight message that invalidated the agent's view arrives and the
/// next attempt succeeds. But a thread whose state churns faster than the
/// agent can observe it fails *every* attempt, and an unbounded retry loop
/// turns that into agent livelock. The governor counts consecutive stale
/// failures per thread, backs retries off exponentially, and after
/// `max_retries` tells the policy to shed the thread to CFS.
#[derive(Debug)]
pub struct CommitGovernor {
    max_retries: u32,
    base_backoff: Nanos,
    stale: TidMap<u32>,
}

impl CommitGovernor {
    /// Creates a governor allowing `max_retries` consecutive stale
    /// failures per thread, with `base_backoff` ns before the first retry.
    pub fn new(max_retries: u32, base_backoff: Nanos) -> Self {
        Self {
            max_retries,
            base_backoff,
            stale: TidMap::new(),
        }
    }

    /// Records one stale failure for `tid` and says what to do about it.
    pub fn on_stale(&mut self, tid: Tid) -> StaleVerdict {
        let n = self.stale.or_insert(tid, 0);
        *n += 1;
        if *n > self.max_retries {
            self.stale.remove(tid);
            StaleVerdict::Shed
        } else {
            let shift = (*n - 1).min(16);
            StaleVerdict::Retry {
                backoff: self.base_backoff << shift,
            }
        }
    }

    /// A commit for `tid` succeeded: the streak is over.
    pub fn on_committed(&mut self, tid: Tid) {
        self.stale.remove(tid);
    }

    /// Forgets a thread entirely (it died or left the enclave).
    pub fn forget(&mut self, tid: Tid) {
        self.stale.remove(tid);
    }

    /// Drops all streaks (after a reconstruction the old view — and its
    /// failures — are meaningless).
    pub fn reset(&mut self) {
        self.stale.clear();
    }

    /// Consecutive stale failures currently recorded for `tid`.
    pub fn streak(&self, tid: Tid) -> u32 {
        self.stale.get(tid).copied().unwrap_or(0)
    }
}

impl Default for CommitGovernor {
    /// Eight consecutive stale failures, starting at a 5 µs backoff.
    fn default() -> Self {
        Self::new(8, 5_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governor_backs_off_exponentially_then_sheds() {
        let mut g = CommitGovernor::new(3, 1_000);
        assert_eq!(g.on_stale(Tid(1)), StaleVerdict::Retry { backoff: 1_000 });
        assert_eq!(g.on_stale(Tid(1)), StaleVerdict::Retry { backoff: 2_000 });
        assert_eq!(g.on_stale(Tid(1)), StaleVerdict::Retry { backoff: 4_000 });
        assert_eq!(g.on_stale(Tid(1)), StaleVerdict::Shed);
        // The shed resets the streak: a reappearing thread starts over.
        assert_eq!(g.on_stale(Tid(1)), StaleVerdict::Retry { backoff: 1_000 });
    }

    #[test]
    fn success_resets_the_streak() {
        let mut g = CommitGovernor::new(2, 1_000);
        g.on_stale(Tid(7));
        g.on_stale(Tid(7));
        assert_eq!(g.streak(Tid(7)), 2);
        g.on_committed(Tid(7));
        assert_eq!(g.streak(Tid(7)), 0);
        assert_eq!(g.on_stale(Tid(7)), StaleVerdict::Retry { backoff: 1_000 });
    }

    #[test]
    fn streaks_are_per_thread() {
        let mut g = CommitGovernor::new(1, 500);
        assert_eq!(g.on_stale(Tid(1)), StaleVerdict::Retry { backoff: 500 });
        assert_eq!(g.on_stale(Tid(2)), StaleVerdict::Retry { backoff: 500 });
        assert_eq!(g.on_stale(Tid(1)), StaleVerdict::Shed);
        assert_eq!(g.streak(Tid(2)), 1);
    }

    #[test]
    fn default_standby_is_bounded() {
        let c = StandbyConfig::default();
        assert!(c.max_respawns > 0);
        assert!(c.respawn_backoff > 0);
        // Worst-case total backoff stays within the SLO.
        let total: Nanos = (0..c.max_respawns).map(|i| c.respawn_backoff << i).sum();
        assert!(total < c.recovery_slo);
    }
}
