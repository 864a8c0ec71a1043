//! Self-tuning Shinjuku: the static policy of [`crate::shinjuku`] with
//! its two load-bearing knobs — the preemption quantum and the
//! queue-depth steal threshold — adapted online from observed
//! wakeup-to-commit waits.
//!
//! The paper's pitch is that ghOSt makes policies cheap to write; this
//! policy is the follow-on claim that it also makes them cheap to
//! *tune*. Every epoch (1 ms of virtual time) the policy reads the p99
//! of the waits its own queue imposed during that epoch and nudges the
//! knobs:
//!
//! * p99 wait above target → shrink the quantum (waiters reach a CPU
//!   sooner behind a rotating queue) and lower the steal threshold
//!   (preempt the longest-running worker as soon as the queue backs
//!   up, without waiting for its slice to expire).
//! * p99 wait comfortably below target → grow both back toward the
//!   static defaults, shedding preemption overhead when the load does
//!   not need it.
//!
//! Everything is driven by virtual time and the policy's own message
//! stream, so a run is byte-identical for a given scenario seed — the
//! knob trajectory itself is a deterministic artifact that tests pin.

use crate::shinjuku::{ShinjukuConfig, ShinjukuPolicy};
use ghost_core::msg::Message;
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::slab::TidMap;
use ghost_metrics::LogHistogram;
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use std::sync::{Arc, Mutex};

/// Tunables for the tuner itself (the knobs it adjusts live in the
/// wrapped [`ShinjukuConfig`]).
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Initial preemption quantum (the static policy's 30 µs).
    pub initial_slice: Nanos,
    /// Quantum floor.
    pub min_slice: Nanos,
    /// Quantum ceiling.
    pub max_slice: Nanos,
    /// Initial queue-depth steal threshold.
    pub initial_steal: usize,
    /// Steal-threshold floor.
    pub min_steal: usize,
    /// Steal-threshold ceiling.
    pub max_steal: usize,
    /// Adaptation epoch (virtual time between knob updates).
    pub epoch: Nanos,
    /// Target p99 wakeup-to-commit wait.
    pub target_p99_wait: Nanos,
    /// Minimum epoch samples before the tuner trusts its p99.
    pub min_samples: u64,
    /// Per-decision compute cost (ns), charged like the static policy.
    pub decision_cost: Nanos,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            initial_slice: 30 * MICROS,
            min_slice: 5 * MICROS,
            // The ceiling is the static policy's quantum: adaptation only
            // ever *shrinks* below it under queue pressure, so the tuned
            // policy can never rotate slower than static Shinjuku.
            max_slice: 30 * MICROS,
            initial_steal: 8,
            min_steal: 2,
            max_steal: 16,
            epoch: MILLIS,
            target_p99_wait: 50 * MICROS,
            min_samples: 8,
            decision_cost: 60,
        }
    }
}

/// One knob update, recorded at each epoch boundary. The trajectory of
/// these samples is deterministic per scenario seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobSample {
    /// Virtual time of the update.
    pub at: Nanos,
    /// Quantum in force after the update.
    pub timeslice: Nanos,
    /// Steal threshold in force after the update.
    pub steal_threshold: usize,
    /// The epoch's observed p99 wait (0 when below `min_samples`).
    pub p99_wait: Nanos,
    /// Waits observed during the epoch.
    pub samples: u64,
}

/// Shared knob-trajectory probe, for tests that need to observe the
/// tuner from outside a boxed policy.
pub type KnobProbe = Arc<Mutex<Vec<KnobSample>>>;

/// The self-tuning Shinjuku policy.
pub struct ShinjukuAdaptivePolicy {
    pub(crate) inner: ShinjukuPolicy,
    cfg: AdaptiveConfig,
    /// Current queue-depth steal threshold.
    steal_threshold: usize,
    /// Start of the current adaptation epoch.
    epoch_start: Nanos,
    /// Wakeup timestamp of each thread currently waiting in the FIFO.
    waiting_since: TidMap<Nanos>,
    /// Waits observed this epoch.
    epoch_waits: LogHistogram,
    /// Every knob update so far, in order.
    pub trajectory: Vec<KnobSample>,
    /// Optional external observer for the trajectory.
    probe: Option<KnobProbe>,
    /// Early (pre-expiry) steals issued.
    pub steals: u64,
}

impl ShinjukuAdaptivePolicy {
    /// Creates the policy with the given tuner config.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        let inner = ShinjukuPolicy::new(ShinjukuConfig {
            timeslice: cfg.initial_slice,
            decision_cost: cfg.decision_cost,
        });
        Self {
            inner,
            steal_threshold: cfg.initial_steal.max(1),
            cfg,
            epoch_start: 0,
            waiting_since: TidMap::new(),
            epoch_waits: LogHistogram::new(),
            trajectory: Vec::new(),
            probe: None,
            steals: 0,
        }
    }

    /// Attaches a shared trajectory probe (tests).
    pub fn with_probe(mut self, probe: KnobProbe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Current preemption quantum.
    pub fn timeslice(&self) -> Nanos {
        self.inner.config.timeslice
    }

    /// Current steal threshold.
    pub fn steal_threshold(&self) -> usize {
        self.steal_threshold
    }

    /// Applies one knob update if the current epoch has elapsed.
    fn maybe_adapt(&mut self, now: Nanos) {
        if now < self.epoch_start + self.cfg.epoch {
            return;
        }
        let samples = self.epoch_waits.count();
        let p99 = if samples >= self.cfg.min_samples {
            self.epoch_waits.percentile(99.0)
        } else {
            0
        };
        let slice = self.inner.config.timeslice;
        if samples >= self.cfg.min_samples {
            if p99 > self.cfg.target_p99_wait {
                // Queue waits blowing the target: rotate faster, steal
                // sooner. Multiplicative decrease — a backed-up FIFO
                // punishes every epoch spent converging, so converge in
                // a few.
                self.inner.config.timeslice = (slice / 2).max(self.cfg.min_slice);
                self.steal_threshold = self
                    .steal_threshold
                    .saturating_sub(1)
                    .max(self.cfg.min_steal);
            } else if p99 < self.cfg.target_p99_wait / 2 {
                // Comfortable: back off slowly toward the static
                // defaults, shedding preemption overhead.
                self.inner.config.timeslice = (slice + slice / 4).min(self.cfg.max_slice);
                self.steal_threshold = (self.steal_threshold + 1).min(self.cfg.max_steal);
            }
        }
        let sample = KnobSample {
            at: now,
            timeslice: self.inner.config.timeslice,
            steal_threshold: self.steal_threshold,
            p99_wait: p99,
            samples,
        };
        self.trajectory.push(sample);
        if let Some(probe) = &self.probe {
            probe.lock().unwrap().push(sample);
        }
        self.epoch_waits.reset();
        self.epoch_start = now;
    }
}

impl GhostPolicy for ShinjukuAdaptivePolicy {
    fn name(&self) -> &str {
        "shinjuku-adaptive"
    }

    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
        self.inner.track(msg);
        // Mirror the queue state into wait bookkeeping: a thread sitting
        // in the FIFO is waiting; anything else is not.
        if self.inner.rq.contains(msg.tid) {
            self.waiting_since.or_insert(msg.tid, ctx.now());
        } else if !self.inner.clock.is_running(msg.tid) {
            self.waiting_since.remove(msg.tid);
        }
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        self.maybe_adapt(ctx.now());
        // Every commit that puts a worker on a CPU closes its wait sample.
        let (waiting, waits) = (&mut self.waiting_since, &mut self.epoch_waits);
        let mut observe = |tid, now: Nanos| {
            if let Some(woke) = waiting.remove(tid) {
                waits.record(now.saturating_sub(woke).max(1));
            }
        };
        let inner = &mut self.inner;
        inner.fill_idle(ctx, &mut observe);
        if !inner.rq.is_empty() {
            // Static Shinjuku's victims: any worker past the current
            // quantum. The steal: when nobody has expired yet but the
            // queue is at least the threshold deep, take the CPU of the
            // longest-running worker even though its slice has time left.
            // Ties break on CPU id so the choice is deterministic.
            let mut victims = inner.clock.preemptible(ctx, inner.config.timeslice);
            let steal = victims.is_empty() && inner.rq.len() >= self.steal_threshold;
            if steal {
                let running = inner.clock.preemptible(ctx, 0).into_iter();
                victims.extend(running.min_by_key(|&(since, _, cpu)| (since, cpu.0)));
            }
            let preempted = inner.preempt(ctx, victims, &mut observe);
            if steal {
                self.steals += preempted;
            }
        }
        inner.arm_slice_timer(ctx);
    }

    fn on_reconstruct(&mut self, snapshot: &[ghost_core::ThreadSnapshot], ctx: &mut PolicyCtx<'_>) {
        let now = ctx.now();
        self.inner.reseed_from(snapshot, now, |_| true);
        // Knobs survive recovery — the load did not change because the
        // agent died — but in-flight wait samples are re-based at the
        // reconstruction point.
        self.waiting_since.clear();
        for tid in self.inner.rq.iter() {
            self.waiting_since.insert(tid, now);
        }
        self.epoch_waits.reset();
        self.epoch_start = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_static_shinjuku_start() {
        let p = ShinjukuAdaptivePolicy::new(AdaptiveConfig::default());
        assert_eq!(p.timeslice(), 30 * MICROS);
        assert_eq!(p.steal_threshold(), 8);
        assert!(p.trajectory.is_empty());
    }

    #[test]
    fn high_p99_shrinks_knobs_low_p99_grows_them() {
        let mut p = ShinjukuAdaptivePolicy::new(AdaptiveConfig::default());
        for _ in 0..100 {
            p.epoch_waits.record(400 * MICROS); // way over target
        }
        p.maybe_adapt(2 * MILLIS);
        assert!(p.timeslice() < 30 * MICROS, "hot epoch must shrink slice");
        assert_eq!(p.steal_threshold(), 7);
        assert_eq!(p.trajectory.len(), 1);
        assert_eq!(p.trajectory[0].samples, 100);

        for _ in 0..100 {
            p.epoch_waits.record(10 * MICROS); // way under target
        }
        p.maybe_adapt(4 * MILLIS);
        assert_eq!(p.steal_threshold(), 8);
        assert_eq!(p.trajectory.len(), 2);
        assert!(p.trajectory[1].timeslice > p.trajectory[0].timeslice);
    }

    #[test]
    fn sparse_epochs_hold_knobs_steady() {
        let mut p = ShinjukuAdaptivePolicy::new(AdaptiveConfig::default());
        p.epoch_waits.record(500 * MICROS); // one outlier, below min_samples
        p.maybe_adapt(2 * MILLIS);
        assert_eq!(p.timeslice(), 30 * MICROS);
        assert_eq!(p.steal_threshold(), 8);
        assert_eq!(p.trajectory[0].p99_wait, 0);
    }

    #[test]
    fn knob_bounds_are_respected() {
        let mut p = ShinjukuAdaptivePolicy::new(AdaptiveConfig::default());
        for round in 1..=50u64 {
            for _ in 0..100 {
                p.epoch_waits.record(MILLIS);
            }
            p.maybe_adapt(round * 2 * MILLIS);
        }
        assert_eq!(p.timeslice(), AdaptiveConfig::default().min_slice);
        assert_eq!(p.steal_threshold(), AdaptiveConfig::default().min_steal);
        for round in 51..=120u64 {
            for _ in 0..100 {
                p.epoch_waits.record(1);
            }
            p.maybe_adapt(round * 2 * MILLIS);
        }
        assert_eq!(p.timeslice(), AdaptiveConfig::default().max_slice);
        assert_eq!(p.steal_threshold(), AdaptiveConfig::default().max_steal);
    }
}
