//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a fixed schedule of perturbations baked into
//! [`crate::kernel::KernelConfig`] before the run starts, exercising the
//! failure modes §3.4 of the paper claims ghOSt survives: crashed, hung,
//! and upgraded agents, overflowing message queues, and delayed or lost
//! wakeup interrupts. Because the plan is data (not callbacks) a failing
//! run can be shrunk to a minimal plan and replayed bit-for-bit.
//!
//! Two delivery mechanisms:
//!
//! * **One-shot faults** ([`FaultKind::is_one_shot`]) are scheduled as
//!   events at their `at` time and dispatched once by the kernel (and
//!   forwarded to [`crate::class::SchedClass::on_fault`]).
//! * **Window faults** are pure time-range predicates the kernel (and the
//!   agent runtime) consult on every affected operation — e.g. every IPI
//!   send checks [`FaultPlan::ipi_fate`].

use crate::time::Nanos;
use crate::topology::CpuId;

/// One scheduled perturbation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires (one-shot) or its window opens.
    pub at: Nanos,
    /// What happens.
    pub kind: FaultKind,
}

/// The kinds of perturbation a plan can inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Kill the agent pthread pinned to `cpu` (§3.4 agent crash).
    AgentCrash { cpu: CpuId },
    /// The agent pinned to `cpu` spins uselessly until `at + dur`: its
    /// activations do no scheduling work, emulating a deadlocked agent.
    AgentHang { cpu: CpuId, dur: Nanos },
    /// Activations of the agent pinned to `cpu` take `factor`× their
    /// normal time during the window (a slow resume after e.g. a GC
    /// pause or page fault storm).
    AgentSlow { cpu: CpuId, dur: Nanos, factor: u32 },
    /// All message-queue pushes in the window are rejected as if the
    /// rings were full (queue shrink/overflow).
    QueueOverflow { dur: Nanos },
    /// Reschedule IPIs sent during the window arrive `extra` late.
    IpiDelay { dur: Nanos, extra: Nanos },
    /// Reschedule IPIs sent during the window are dropped outright.
    IpiLoss { dur: Nanos },
    /// Wake the `nth` (modulo live count) workload thread even though
    /// nothing unblocked it.
    SpuriousWakeup { nth: u32 },
    /// Timer ticks re-armed during the window land `extra` late (clock
    /// skew between CPUs).
    TickSkew { dur: Nanos, extra: Nanos },
    /// Promote the staged policy in place (§3.4 in-place upgrade).
    /// Delivered to the agent driver; a no-op if nothing is staged.
    Upgrade,
}

impl FaultKind {
    /// True for faults delivered once as an event (vs. window predicates).
    pub fn is_one_shot(&self) -> bool {
        matches!(
            self,
            FaultKind::AgentCrash { .. } | FaultKind::SpuriousWakeup { .. } | FaultKind::Upgrade
        )
    }

    /// Stable kebab-case label, matching the `repro.json` encoding.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::AgentCrash { .. } => "agent-crash",
            FaultKind::AgentHang { .. } => "agent-hang",
            FaultKind::AgentSlow { .. } => "agent-slow",
            FaultKind::QueueOverflow { .. } => "queue-overflow",
            FaultKind::IpiDelay { .. } => "ipi-delay",
            FaultKind::IpiLoss { .. } => "ipi-loss",
            FaultKind::SpuriousWakeup { .. } => "spurious-wakeup",
            FaultKind::TickSkew { .. } => "tick-skew",
            FaultKind::Upgrade => "upgrade",
        }
    }
}

/// What happens to an IPI sent while fault windows are open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpiFate {
    /// Delivered normally.
    Normal,
    /// Delivered this much later.
    Delayed(Nanos),
    /// Never delivered.
    Lost,
}

/// A deterministic schedule of faults; empty by default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled perturbations, in no particular order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a plan from `(at, kind)` pairs.
    pub fn from_events(events: impl IntoIterator<Item = (Nanos, FaultKind)>) -> Self {
        Self {
            events: events
                .into_iter()
                .map(|(at, kind)| FaultEvent { at, kind })
                .collect(),
        }
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn windows<'a, F: Fn(&'a FaultKind) -> Option<Nanos> + 'a>(
        &'a self,
        now: Nanos,
        dur_of: F,
    ) -> impl Iterator<Item = &'a FaultEvent> {
        self.events.iter().filter(move |fe| {
            dur_of(&fe.kind).is_some_and(|dur| fe.at <= now && now < fe.at.saturating_add(dur))
        })
    }

    /// True while a [`FaultKind::QueueOverflow`] window is open.
    pub fn queue_overflow_active(&self, now: Nanos) -> bool {
        self.windows(now, |k| match k {
            FaultKind::QueueOverflow { dur } => Some(*dur),
            _ => None,
        })
        .next()
        .is_some()
    }

    /// The fate of an IPI sent at `now`. Loss wins over delay; delays
    /// from overlapping windows add up.
    pub fn ipi_fate(&self, now: Nanos) -> IpiFate {
        let lost = self
            .windows(now, |k| match k {
                FaultKind::IpiLoss { dur } => Some(*dur),
                _ => None,
            })
            .next()
            .is_some();
        if lost {
            return IpiFate::Lost;
        }
        let extra: Nanos = self
            .windows(now, |k| match k {
                FaultKind::IpiDelay { dur, .. } => Some(*dur),
                _ => None,
            })
            .map(|fe| match fe.kind {
                FaultKind::IpiDelay { extra, .. } => extra,
                _ => 0,
            })
            .sum();
        if extra > 0 {
            IpiFate::Delayed(extra)
        } else {
            IpiFate::Normal
        }
    }

    /// If the agent pinned to `cpu` is hung at `now`, the time the hang
    /// ends (the latest end across overlapping windows).
    pub fn agent_hang_until(&self, cpu: CpuId, now: Nanos) -> Option<Nanos> {
        self.windows(now, move |k| match k {
            FaultKind::AgentHang { cpu: c, dur } if *c == cpu => Some(*dur),
            _ => None,
        })
        .map(|fe| match fe.kind {
            FaultKind::AgentHang { dur, .. } => fe.at.saturating_add(dur),
            _ => unreachable!(),
        })
        .max()
    }

    /// Slowdown multiplier for activations of the agent pinned to `cpu`
    /// at `now` (1 when no window is open; overlapping windows multiply).
    pub fn agent_slow_factor(&self, cpu: CpuId, now: Nanos) -> u64 {
        self.windows(now, move |k| match k {
            FaultKind::AgentSlow { cpu: c, dur, .. } if *c == cpu => Some(*dur),
            _ => None,
        })
        .map(|fe| match fe.kind {
            FaultKind::AgentSlow { factor, .. } => factor.max(1) as u64,
            _ => 1,
        })
        .product::<u64>()
        .max(1)
    }

    /// Extra delay applied to a tick re-armed at `now` (0 when no skew
    /// window is open; overlapping windows add up).
    pub fn tick_extra(&self, now: Nanos) -> Nanos {
        self.windows(now, |k| match k {
            FaultKind::TickSkew { dur, .. } => Some(*dur),
            _ => None,
        })
        .map(|fe| match fe.kind {
            FaultKind::TickSkew { extra, .. } => extra,
            _ => 0,
        })
        .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_perturbs_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.queue_overflow_active(0));
        assert_eq!(p.ipi_fate(0), IpiFate::Normal);
        assert_eq!(p.agent_hang_until(CpuId(0), 0), None);
        assert_eq!(p.agent_slow_factor(CpuId(0), 0), 1);
        assert_eq!(p.tick_extra(0), 0);
    }

    #[test]
    fn windows_are_half_open() {
        let p = FaultPlan::from_events([(100, FaultKind::QueueOverflow { dur: 50 })]);
        assert!(!p.queue_overflow_active(99));
        assert!(p.queue_overflow_active(100));
        assert!(p.queue_overflow_active(149));
        assert!(!p.queue_overflow_active(150));
    }

    #[test]
    fn ipi_loss_wins_over_delay() {
        let p = FaultPlan::from_events([
            (0, FaultKind::IpiDelay { dur: 100, extra: 7 }),
            (50, FaultKind::IpiLoss { dur: 10 }),
        ]);
        assert_eq!(p.ipi_fate(10), IpiFate::Delayed(7));
        assert_eq!(p.ipi_fate(55), IpiFate::Lost);
        assert_eq!(p.ipi_fate(200), IpiFate::Normal);
    }

    #[test]
    fn agent_windows_are_per_cpu() {
        let p = FaultPlan::from_events([
            (
                10,
                FaultKind::AgentHang {
                    cpu: CpuId(1),
                    dur: 20,
                },
            ),
            (
                10,
                FaultKind::AgentSlow {
                    cpu: CpuId(2),
                    dur: 20,
                    factor: 4,
                },
            ),
        ]);
        assert_eq!(p.agent_hang_until(CpuId(1), 15), Some(30));
        assert_eq!(p.agent_hang_until(CpuId(2), 15), None);
        assert_eq!(p.agent_slow_factor(CpuId(2), 15), 4);
        assert_eq!(p.agent_slow_factor(CpuId(1), 15), 1);
    }

    #[test]
    fn one_shot_classification() {
        assert!(FaultKind::AgentCrash { cpu: CpuId(0) }.is_one_shot());
        assert!(FaultKind::Upgrade.is_one_shot());
        assert!(FaultKind::SpuriousWakeup { nth: 3 }.is_one_shot());
        assert!(!FaultKind::QueueOverflow { dur: 1 }.is_one_shot());
        assert!(!FaultKind::IpiLoss { dur: 1 }.is_one_shot());
    }
}
