//! Heap-vs-wheel equivalence: the timer-wheel [`EventQueue`] must pop in
//! exactly the order of the original `BinaryHeap` implementation —
//! earliest `at` first, FIFO on same-deadline ties — for arbitrary
//! interleavings of pushes and pops.
//!
//! The pre-wheel `BinaryHeap` queue lives on here, test-only, as the
//! oracle ([`HeapQueue`]). Each case derives a random op sequence from a
//! `for_seeds!` RNG and applies it to both queues in lockstep ([`Pair`]);
//! any divergence in popped `(time, event)` pairs or lengths is a wheel
//! bug. Time distributions are chosen to cross slot and level
//! boundaries: dense same-microsecond ties, mid-range spreads, and
//! far-future outliers that exercise multi-level cascades. Dedicated
//! cases drive the wheel's sorted near run through the shapes the
//! simulator produces: group-commit bursts at one deadline, pushes that
//! land mid-run or behind the consumed prefix, sparse events that
//! cascade down from levels 1–3, a machine-wide instant pushed from every
//! level's distance, and bounded pops.

use ghost_chaos::for_seeds;
use ghost_sim::event::{Ev, EventQueue};
use ghost_sim::thread::Tid;
use ghost_sim::time::Nanos;
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The original `BinaryHeap` event queue, kept verbatim as the oracle.
struct HeapQueue {
    heap: BinaryHeap<HeapEntry>,
    next_seq: u64,
}

struct HeapEntry {
    at: Nanos,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl HeapQueue {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, at: Nanos, ev: Ev) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { at, seq, ev });
    }

    fn pop(&mut self) -> Option<(Nanos, Ev)> {
        self.heap.pop().map(|e| (e.at, e.ev))
    }

    fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// The wheel and the oracle driven in lockstep, with every pushed event
/// distinct so a misordered pop names the entry.
struct Pair {
    wheel: EventQueue,
    oracle: HeapQueue,
    next_tid: u32,
    /// Latest popped time: the simulation clock.
    now: Nanos,
}

impl Pair {
    fn new() -> Self {
        Self {
            wheel: EventQueue::new(),
            oracle: HeapQueue::new(),
            next_tid: 0,
            now: 0,
        }
    }

    fn push(&mut self, at: Nanos) {
        let ev = Ev::Wake {
            tid: Tid(self.next_tid),
        };
        self.next_tid += 1;
        self.wheel.push(at, ev);
        self.oracle.push(at, ev);
    }

    fn pop(&mut self) -> Option<(Nanos, Ev)> {
        let got = self.wheel.pop();
        assert_eq!(got, self.oracle.pop(), "pop divergence");
        self.after(got)
    }

    /// `pop_until` against the oracle's peek-then-pop.
    fn pop_until(&mut self, until: Nanos) -> Option<(Nanos, Ev)> {
        let want = match self.oracle.peek_time() {
            Some(at) if at <= until => self.oracle.pop(),
            _ => None,
        };
        let got = self.wheel.pop_until(until);
        assert_eq!(got, want, "pop_until({until}) divergence");
        self.after(got)
    }

    fn after(&mut self, got: Option<(Nanos, Ev)>) -> Option<(Nanos, Ev)> {
        assert_eq!(self.wheel.len(), self.oracle.len(), "len divergence");
        if let Some((t, _)) = got {
            // The simulation clock only moves forward.
            self.now = self.now.max(t);
        }
        got
    }

    /// Drains both: the full remaining order must agree.
    fn drain(mut self) {
        while self.pop().is_some() {}
        assert!(self.wheel.is_empty());
        assert_eq!(self.wheel.pop(), None);
    }
}

/// Draws a time from a mix of distributions that stress every wheel
/// regime: same-slot ties, level-0 neighbours, mid-level spreads, and
/// far-future cascade fodder.
fn draw_time(rng: &mut StdRng, now: Nanos) -> Nanos {
    match rng.gen_range(0u8..10) {
        // Dense ties inside one 1024 ns slot (FIFO order must hold).
        0..=2 => now + rng.gen_range(0u64..8) * 256,
        // Within a few level-0 slots.
        3..=5 => now + rng.gen_range(0u64..1 << 14),
        // Level 1-3 territory.
        6..=7 => now + rng.gen_range(0u64..1 << 28),
        // Far future: multi-level cascades on the way down.
        8 => now + rng.gen_range(0u64..1 << 45),
        // Behind the wheel's current position (handlers never do this,
        // but the queue must still order it correctly).
        _ => now.saturating_sub(rng.gen_range(0u64..1 << 12)),
    }
}

#[test]
fn wheel_matches_heap_oracle_on_random_sequences() {
    for_seeds!(0x1E41, 300, |rng: &mut StdRng| {
        let mut q = Pair::new();
        for _ in 0..rng.gen_range(1usize..500) {
            if rng.gen_bool(0.55) {
                let at = draw_time(rng, q.now);
                q.push(at);
            } else if rng.gen_bool(0.3) {
                let until = draw_time(rng, q.now);
                q.pop_until(until);
            } else {
                q.pop();
            }
        }
        q.drain();
    });
}

/// Same-deadline events pushed across different wheel positions (some
/// direct to near, some cascaded down a level) must still pop in global
/// insertion order.
#[test]
fn cross_level_ties_preserve_global_fifo() {
    for_seeds!(0x71E5, 100, |rng: &mut StdRng| {
        let mut q = Pair::new();
        let deadline: Nanos = 1 << rng.gen_range(12u32..40);
        // Interleave ties at `deadline` with earlier events that force
        // the wheel to advance between pushes.
        for round in 0..rng.gen_range(2usize..20) {
            q.push(deadline);
            q.push((round as u64) * rng.gen_range(1u64..1 << 10));
            if rng.gen_bool(0.5) {
                q.pop();
            }
        }
        q.drain();
    });
}

/// A global agent's group commit: 64–512 events at one deadline, pushed
/// while the current run is partly consumed. The deadline is the clock
/// itself (behind every pending entry), a pending entry's time (a tie in
/// the middle of the run) or later in the slot (an append).
#[test]
fn group_commit_bursts_into_a_partly_consumed_run() {
    for_seeds!(0x6C0B, 40, |rng: &mut StdRng| {
        let mut q = Pair::new();
        let base: Nanos = rng.gen_range(0u64..1 << 30);
        for _ in 0..rng.gen_range(1usize..64) {
            q.push(base + rng.gen_range(0u64..16) * 64);
        }
        for _ in 0..rng.gen_range(1usize..6) {
            // Consume part of the run (loading it on the first pop).
            for _ in 0..rng.gen_range(1usize..16) {
                q.pop();
            }
            let at = match rng.gen_range(0u8..3) {
                0 => q.now,
                1 => q.now + rng.gen_range(0u64..16) * 64,
                _ => q.now + rng.gen_range(0u64..1 << 12),
            };
            for _ in 0..rng.gen_range(64usize..=512) {
                q.push(at);
                if rng.gen_bool(0.02) {
                    q.pop();
                }
            }
        }
        q.drain();
    });
}

/// Single pushes anywhere around a partly consumed run: between pending
/// entries, tied with them, after the tail, and behind `head` (earlier
/// than entries already popped).
#[test]
fn pushes_land_mid_run_and_behind_head() {
    for_seeds!(0x41D5, 100, |rng: &mut StdRng| {
        let mut q = Pair::new();
        let base: Nanos = rng.gen_range(1u64 << 12..1 << 30);
        for _ in 0..rng.gen_range(2usize..128) {
            q.push(base + rng.gen_range(0u64..1 << 10));
        }
        for _ in 0..rng.gen_range(1usize..300) {
            if rng.gen_bool(0.4) {
                q.pop();
                continue;
            }
            let at = match rng.gen_range(0u8..4) {
                // Mid-run or tied with a pending entry.
                0 | 1 => q.now + rng.gen_range(0u64..1 << 9),
                // Behind head: earlier than what was just popped.
                2 => q.now.saturating_sub(rng.gen_range(1u64..1 << 11)),
                // Into a later slot.
                _ => q.now + rng.gen_range(0u64..1 << 13),
            };
            q.push(at);
        }
        q.drain();
    });
}

/// Sparse timers, one event per level-0 slot with level-1–3 gaps, so
/// every slot is reached by a cascade from above; some slots get a small
/// cluster pushed latest-first, which the cascade must sort.
#[test]
fn sparse_gaps_cascade_from_levels_1_to_3() {
    for_seeds!(0x5CA5, 100, |rng: &mut StdRng| {
        let mut q = Pair::new();
        let mut at: Nanos = 0;
        for _ in 0..rng.gen_range(1usize..64) {
            // A gap in level-1 (64 KiB), level-2 (4 MiB) or level-3
            // (256 MiB) territory.
            let level = rng.gen_range(1u32..=3);
            at += rng.gen_range(1u64 << 10..1 << (10 + 6 * level));
            if rng.gen_bool(0.25) {
                for k in (0..rng.gen_range(2u64..5)).rev() {
                    q.push((at & !1023) + k * 200);
                }
            } else {
                q.push(at);
            }
            if rng.gen_bool(0.3) {
                q.pop();
            }
        }
        q.drain();
    });
}

/// The kernel's event loop: pop everything due by a bound, then move the
/// bound on, with handlers pushing follow-up events as they go.
#[test]
fn pop_until_matches_peek_then_pop() {
    for_seeds!(0xB0D5, 100, |rng: &mut StdRng| {
        let mut q = Pair::new();
        let mut until: Nanos = 0;
        for _ in 0..rng.gen_range(1usize..40) {
            until = draw_time(rng, until);
            while q.pop_until(until).is_some() {
                if rng.gen_bool(0.5) {
                    let at = draw_time(rng, q.now);
                    q.push(at);
                }
            }
            for _ in 0..rng.gen_range(0usize..8) {
                let at = draw_time(rng, q.now);
                q.push(at);
            }
        }
        q.drain();
    });
}

/// A 256-CPU machine's events at one instant (a tick or a group commit's
/// IPIs on every CPU), pushed in batches of 256 while the clock stands a
/// level-3, level-2, level-1 and level-0 distance before it, then at it:
/// the batches sit in slots of different levels and cascade together,
/// and every tie must still pop in push order.
#[test]
fn a_machine_wide_instant_ties_across_levels() {
    for_seeds!(0x2560, 40, |rng: &mut StdRng| {
        let mut q = Pair::new();
        let instant: Nanos = rng.gen_range(1u64 << 34..1 << 40);
        let mut stations: Vec<Nanos> = [28u32, 22, 16, 10]
            .iter()
            .map(|&bits| instant - rng.gen_range(1u64 << bits..1 << (bits + 2)))
            .collect();
        stations.push(instant);
        for station in stations {
            // Move the clock (and the wheel) to the station.
            q.push(station);
            while q.now < station {
                q.pop();
            }
            for _ in 0..256 {
                q.push(instant);
                if rng.gen_bool(0.05) {
                    let at = station + rng.gen_range(0u64..1 << 12);
                    q.push(at);
                }
            }
        }
        q.drain();
    });
}
