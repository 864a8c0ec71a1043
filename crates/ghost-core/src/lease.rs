//! Deadline-bounded core lending between enclaves.
//!
//! A lease records that one enclave (the *lender*) has temporarily
//! handed a CPU to another (the *borrower*). The table is **kernel
//! state**, not resource-manager state: the deadline is enforced by a
//! driver timer regardless of whether the RM that negotiated the lease
//! is still alive, and a borrower that crashes, is quarantined, or is
//! mid-reconstruction can never strand a leased CPU — every enclave
//! death path resolves its leases first.
//!
//! Forced reclaim at deadline expiry runs through the same deferred-op
//! path as any other preemption (resched IPI → `put_prev`/`pick_next`),
//! so lending composes with the determinism contract: serial and
//! parallel sweeps over lending scenarios stay byte-identical.
//!
//! Timer-key encoding: lease deadlines are armed as driver timers with
//! `LEASE_TIMER_FLAG` set, the CPU id in the low 16 bits and the
//! lease's grant sequence number in bits 16..56. The sequence number
//! disambiguates stale timers — a deadline firing after the lease was
//! already returned (or the CPU re-lent under a new lease) compares
//! sequence numbers and no-ops.

use crate::enclave::EnclaveId;
use ghost_sim::time::Nanos;
use ghost_sim::topology::CpuId;

/// Driver-timer key flag for lease-deadline timers (bit 63 is the
/// respawn flag, bit 61 the resource-manager epoch flag).
pub(crate) const LEASE_TIMER_FLAG: u64 = 1 << 62;
/// Driver-timer key flag for resource-manager epoch ticks.
pub(crate) const RM_TIMER_FLAG: u64 = 1 << 61;

/// Encodes a lease-deadline timer key: flag | seq << 16 | cpu.
pub(crate) fn lease_timer_key(cpu: CpuId, seq: u64) -> u64 {
    debug_assert!(seq < (1 << 40));
    LEASE_TIMER_FLAG | (seq << 16) | cpu.0 as u64
}

/// Decodes a lease-deadline timer key back into (cpu, seq).
pub(crate) fn decode_lease_timer_key(key: u64) -> (CpuId, u64) {
    let cpu = CpuId((key & 0xffff) as u16);
    let seq = (key >> 16) & ((1 << 40) - 1);
    (cpu, seq)
}

/// Why a lease ended; carried on the `ghost_lease_revoked` tracepoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RevokeReason {
    /// The borrower (or the RM on its behalf) returned the CPU before
    /// the deadline.
    Returned = 0,
    /// The deadline expired; the kernel forced the CPU back.
    Expired = 1,
    /// The borrower enclave died (crash, quarantine, destroy); its
    /// borrowed CPUs revert to their lenders.
    BorrowerDied = 2,
    /// The lender enclave died; ownership of the lent CPU transfers to
    /// the borrower permanently and the lease is cancelled.
    LenderDied = 3,
}

impl RevokeReason {
    /// Stable snake_case name for stats dumps and trace args.
    pub fn name(self) -> &'static str {
        match self {
            RevokeReason::Returned => "returned",
            RevokeReason::Expired => "expired",
            RevokeReason::BorrowerDied => "borrower_died",
            RevokeReason::LenderDied => "lender_died",
        }
    }
}

/// One active lease: `cpu` is owned by `lender` but currently a member
/// of `borrower`'s partition, until `deadline` (or earlier return).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    pub cpu: CpuId,
    pub lender: EnclaveId,
    pub borrower: EnclaveId,
    pub granted_at: Nanos,
    pub deadline: Nanos,
    /// Monotonic grant sequence number; ties the lease to its deadline
    /// timer so stale timers can be recognised and ignored.
    pub seq: u64,
}

/// Aggregate lease counters, surfaced through `GhostStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseStats {
    /// Leases granted over the table's lifetime.
    pub granted: u64,
    /// Leases ended by voluntary return before the deadline.
    pub returned: u64,
    /// Leases ended by forced reclaim at deadline expiry.
    pub expired: u64,
    /// Leases resolved because the borrower enclave died.
    pub borrower_deaths: u64,
    /// Leases cancelled because the lender enclave died (ownership
    /// transferred to the borrower).
    pub lender_deaths: u64,
}

/// The kernel-side table of active leases.
///
/// At most one lease per CPU; lookups scan a small sorted vec (lease
/// counts are bounded by the machine's CPU count, and the table is off
/// the commit hot path).
#[derive(Debug, Default)]
pub struct LeaseTable {
    /// Active leases, kept sorted by `cpu` for deterministic iteration.
    leases: Vec<Lease>,
    /// Next grant sequence number.
    next_seq: u64,
    pub stats: LeaseStats,
}

impl LeaseTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of active leases.
    pub fn len(&self) -> usize {
        self.leases.len()
    }

    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }

    /// The active lease on `cpu`, if any.
    pub fn on_cpu(&self, cpu: CpuId) -> Option<&Lease> {
        self.leases.iter().find(|l| l.cpu == cpu)
    }

    /// Active leases, sorted by CPU id (deterministic iteration order).
    pub fn iter(&self) -> impl Iterator<Item = &Lease> {
        self.leases.iter()
    }

    /// Records a new lease and returns it. Panics (debug) if the CPU is
    /// already leased — callers validate with [`Self::on_cpu`] first.
    pub(crate) fn grant(
        &mut self,
        cpu: CpuId,
        lender: EnclaveId,
        borrower: EnclaveId,
        now: Nanos,
        deadline: Nanos,
    ) -> Lease {
        debug_assert!(self.on_cpu(cpu).is_none(), "cpu {cpu:?} already leased");
        let seq = self.next_seq;
        self.next_seq += 1;
        let lease = Lease {
            cpu,
            lender,
            borrower,
            granted_at: now,
            deadline,
            seq,
        };
        let at = self
            .leases
            .binary_search_by_key(&cpu.0, |l| l.cpu.0)
            .unwrap_err();
        self.leases.insert(at, lease);
        self.stats.granted += 1;
        lease
    }

    /// Removes the lease on `cpu` and counts it under `reason`.
    /// Returns the removed lease, or `None` if the CPU was not leased.
    pub(crate) fn resolve(&mut self, cpu: CpuId, reason: RevokeReason) -> Option<Lease> {
        let at = self.leases.iter().position(|l| l.cpu == cpu)?;
        let lease = self.leases.remove(at);
        match reason {
            RevokeReason::Returned => self.stats.returned += 1,
            RevokeReason::Expired => self.stats.expired += 1,
            RevokeReason::BorrowerDied => self.stats.borrower_deaths += 1,
            RevokeReason::LenderDied => self.stats.lender_deaths += 1,
        }
        Some(lease)
    }

    /// CPUs currently borrowed by `eid`, sorted.
    pub fn borrowed_by(&self, eid: EnclaveId) -> Vec<CpuId> {
        self.leases
            .iter()
            .filter(|l| l.borrower == eid)
            .map(|l| l.cpu)
            .collect()
    }

    /// CPUs currently lent out by `eid`, sorted.
    pub fn lent_by(&self, eid: EnclaveId) -> Vec<CpuId> {
        self.leases
            .iter()
            .filter(|l| l.lender == eid)
            .map(|l| l.cpu)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_resolve_roundtrip_and_stats() {
        let mut t = LeaseTable::new();
        let l = t.grant(CpuId(3), EnclaveId(0), EnclaveId(1), 100, 1_100);
        assert_eq!(l.seq, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.on_cpu(CpuId(3)).unwrap().borrower, EnclaveId(1));
        assert!(t.on_cpu(CpuId(4)).is_none());
        assert_eq!(t.borrowed_by(EnclaveId(1)), vec![CpuId(3)]);
        assert_eq!(t.lent_by(EnclaveId(0)), vec![CpuId(3)]);
        let back = t.resolve(CpuId(3), RevokeReason::Returned).unwrap();
        assert_eq!(back.seq, 0);
        assert!(t.is_empty());
        assert_eq!(t.resolve(CpuId(3), RevokeReason::Expired), None);
        assert_eq!(t.stats.granted, 1);
        assert_eq!(t.stats.returned, 1);
        assert_eq!(t.stats.expired, 0);
    }

    #[test]
    fn seq_is_monotonic_across_reuse() {
        let mut t = LeaseTable::new();
        let a = t.grant(CpuId(2), EnclaveId(0), EnclaveId(1), 0, 500);
        t.resolve(CpuId(2), RevokeReason::Returned);
        let b = t.grant(CpuId(2), EnclaveId(0), EnclaveId(1), 600, 1_200);
        assert!(b.seq > a.seq, "re-lease of the same cpu gets a fresh seq");
    }

    #[test]
    fn iteration_is_cpu_sorted() {
        let mut t = LeaseTable::new();
        t.grant(CpuId(7), EnclaveId(0), EnclaveId(1), 0, 10);
        t.grant(CpuId(2), EnclaveId(0), EnclaveId(1), 0, 10);
        t.grant(CpuId(5), EnclaveId(2), EnclaveId(1), 0, 10);
        let cpus: Vec<u16> = t.iter().map(|l| l.cpu.0).collect();
        assert_eq!(cpus, vec![2, 5, 7]);
    }

    #[test]
    fn timer_key_roundtrip() {
        let key = lease_timer_key(CpuId(513), 77);
        assert!(key & LEASE_TIMER_FLAG != 0);
        assert!(key & RM_TIMER_FLAG == 0);
        let (cpu, seq) = decode_lease_timer_key(key);
        assert_eq!(cpu, CpuId(513));
        assert_eq!(seq, 77);
    }

    #[test]
    fn revoke_reason_names_are_stable() {
        assert_eq!(RevokeReason::Returned.name(), "returned");
        assert_eq!(RevokeReason::Expired.name(), "expired");
        assert_eq!(RevokeReason::BorrowerDied.name(), "borrower_died");
        assert_eq!(RevokeReason::LenderDied.name(), "lender_died");
    }
}
