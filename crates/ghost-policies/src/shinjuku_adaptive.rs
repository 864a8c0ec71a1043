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

use crate::shinjuku::{self, ShinjukuPolicy};
use crate::tracker::discovered;
use ghost_core::msg::Message;
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::slab::TidMap;
use ghost_metrics::LogHistogram;
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use std::sync::{Arc, Mutex};

/// Quantum floor.
const MIN_SLICE: Nanos = 5 * MICROS;
/// Quantum ceiling, which is also where the quantum starts.
const MAX_SLICE: Nanos = 30 * MICROS;
// Adaptation only ever shrinks the quantum below the static policy's
// under queue pressure, so the tuned policy can never rotate slower than
// static Shinjuku.
const _: () = assert!(MAX_SLICE == shinjuku::TIMESLICE);
/// Initial queue-depth steal threshold.
const INITIAL_STEAL: usize = 8;
/// Steal-threshold floor.
const MIN_STEAL: usize = 2;
/// Steal-threshold ceiling.
const MAX_STEAL: usize = 16;
/// Adaptation epoch (virtual time between knob updates).
const EPOCH: Nanos = MILLIS;
/// Target p99 wakeup-to-commit wait.
const TARGET_P99_WAIT: Nanos = 50 * MICROS;
/// Minimum epoch samples before the tuner trusts its p99.
const MIN_SAMPLES: u64 = 8;

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
    /// The epoch's observed p99 wait (0 when the epoch had too few samples to trust).
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

impl Default for ShinjukuAdaptivePolicy {
    fn default() -> Self {
        Self {
            inner: ShinjukuPolicy::new(),
            steal_threshold: INITIAL_STEAL,
            epoch_start: 0,
            waiting_since: TidMap::new(),
            epoch_waits: LogHistogram::new(),
            trajectory: Vec::new(),
            probe: None,
            steals: 0,
        }
    }
}

impl ShinjukuAdaptivePolicy {
    /// Creates the policy at the static policy's quantum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a shared trajectory probe (tests).
    pub fn with_probe(mut self, probe: KnobProbe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Current preemption quantum.
    pub fn timeslice(&self) -> Nanos {
        self.inner.timeslice
    }

    /// Current steal threshold.
    pub fn steal_threshold(&self) -> usize {
        self.steal_threshold
    }

    /// Applies one knob update if the current epoch has elapsed.
    fn maybe_adapt(&mut self, now: Nanos) {
        if now < self.epoch_start + EPOCH {
            return;
        }
        let samples = self.epoch_waits.count();
        let p99 = if samples >= MIN_SAMPLES {
            self.epoch_waits.percentile(99.0)
        } else {
            0
        };
        let slice = self.inner.timeslice;
        if samples >= MIN_SAMPLES {
            if p99 > TARGET_P99_WAIT {
                // Queue waits blowing the target: rotate faster, steal
                // sooner. Multiplicative decrease — a backed-up FIFO
                // punishes every epoch spent converging, so converge in
                // a few.
                self.inner.timeslice = (slice / 2).max(MIN_SLICE);
                self.steal_threshold = self.steal_threshold.saturating_sub(1).max(MIN_STEAL);
            } else if p99 < TARGET_P99_WAIT / 2 {
                // Comfortable: back off slowly toward the static
                // defaults, shedding preemption overhead.
                self.inner.timeslice = (slice + slice / 4).min(MAX_SLICE);
                self.steal_threshold = (self.steal_threshold + 1).min(MAX_STEAL);
            }
        }
        let sample = KnobSample {
            at: now,
            timeslice: self.inner.timeslice,
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
        // Taking over a running enclave: the first epoch starts now.
        if discovered(msg) {
            self.epoch_start = ctx.now();
        }
        self.inner.track(msg, || shinjuku::running_now(msg, ctx));
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
            let mut victims = inner.clock.preemptible(ctx, inner.timeslice);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_static_shinjuku_start() {
        let p = ShinjukuAdaptivePolicy::new();
        assert_eq!(p.timeslice(), 30 * MICROS);
        assert_eq!(p.steal_threshold(), 8);
        assert!(p.trajectory.is_empty());
    }

    #[test]
    fn high_p99_shrinks_knobs_low_p99_grows_them() {
        let mut p = ShinjukuAdaptivePolicy::new();
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
        let mut p = ShinjukuAdaptivePolicy::new();
        p.epoch_waits.record(500 * MICROS); // one outlier, below min_samples
        p.maybe_adapt(2 * MILLIS);
        assert_eq!(p.timeslice(), 30 * MICROS);
        assert_eq!(p.steal_threshold(), 8);
        assert_eq!(p.trajectory[0].p99_wait, 0);
    }

    #[test]
    fn knob_bounds_are_respected() {
        let mut p = ShinjukuAdaptivePolicy::new();
        for round in 1..=50u64 {
            for _ in 0..100 {
                p.epoch_waits.record(MILLIS);
            }
            p.maybe_adapt(round * 2 * MILLIS);
        }
        assert_eq!(p.timeslice(), MIN_SLICE);
        assert_eq!(p.steal_threshold(), MIN_STEAL);
        for round in 51..=120u64 {
            for _ in 0..100 {
                p.epoch_waits.record(1);
            }
            p.maybe_adapt(round * 2 * MILLIS);
        }
        assert_eq!(p.timeslice(), MAX_SLICE);
        assert_eq!(p.steal_threshold(), MAX_STEAL);
    }
}
