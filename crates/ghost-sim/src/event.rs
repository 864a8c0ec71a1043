//! The discrete-event queue driving the simulation.
//!
//! [`EventQueue`] is a flat hierarchical timer wheel: 9 levels of 64
//! slots, level 0 at 1024 ns granularity, each level 64× coarser than the
//! one below, so the 9 levels jointly cover the full `u64` nanosecond
//! range with no overflow list. Pushes hash into a slot in O(1); pops
//! load the earliest slot into a "near" run: a `Vec` sorted by
//! `(time, insertion seq)` and consumed from a `head` index. A push into
//! the near window carries the largest seq yet issued, so its exact place
//! is after every pending entry with the same or an earlier time — an
//! append when events arrive in order, which they mostly do. Keys are
//! unique, so the run pops in exactly the order of the original binary
//! heap — earliest time first, FIFO on ties — and simulation digests are
//! byte-identical to the pre-wheel queue (pinned by `ghost-lab`'s
//! digest-freeze suite and the heap-vs-wheel equivalence property test).
//!
//! A slot is a linked list through one shared entry arena, with a free
//! list (the intrusive layout of Varghese & Lauck's hashed wheels and of
//! Linux's `kernel/time/timer.c`). Order inside a slot is free, because
//! a loaded slot is sorted; so the wheel's storage is bounded by the
//! peak number of pending entries, not by the largest burst each of its
//! 576 slots ever held.

use crate::app::AppId;
use crate::thread::Tid;
use crate::time::Nanos;
use crate::topology::CpuId;

/// A simulation event.
///
/// Events that can become stale (because the thing they refer to changed
/// state in the meantime) carry a generation counter checked at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// A running thread's current work segment completes.
    SegmentEnd { tid: Tid, stint: u64 },
    /// Periodic timer tick on a CPU.
    Tick { cpu: CpuId },
    /// A context switch on `cpu` finishes.
    CtxSwitchDone { cpu: CpuId, seq: u64 },
    /// Re-run the scheduler on `cpu` (e.g., IPI arrival).
    Resched { cpu: CpuId },
    /// Re-activate a spinning agent thread.
    AgentLoop { tid: Tid, gen: u64 },
    /// An agent finishes its work and leaves the CPU: blocking
    /// (`block = true`) or yielding while staying runnable.
    AgentPark { tid: Tid, gen: u64, block: bool },
    /// Wake a thread at a future time.
    Wake { tid: Tid },
    /// A timer armed by an [`crate::app::App`].
    AppTimer { app: AppId, key: u64 },
    /// A timer armed for the agent driver (the ghOSt class slot).
    DriverTimer { key: u64 },
    /// A one-shot fault from the configured [`crate::faults::FaultPlan`]
    /// fires; `idx` indexes into the plan's events.
    Fault { idx: usize },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    at: Nanos,
    seq: u64,
    ev: Ev,
}

/// The end of a slot's list or of the free list.
const NIL: u32 = u32::MAX;

/// log2 of the level-0 slot width: 1024 ns per slot.
const SHIFT0: u32 = 10;
/// log2 of the slots per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of levels. `SHIFT0 + LEVELS * LEVEL_BITS = 64`, so the wheel
/// spans every representable `u64` time and needs no overflow list.
const LEVELS: usize = 9;

/// Earliest-first event queue with deterministic FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use ghost_sim::event::{Ev, EventQueue};
/// use ghost_sim::topology::CpuId;
///
/// let mut q = EventQueue::new();
/// q.push(20, Ev::Resched { cpu: CpuId(1) });
/// q.push(10, Ev::Resched { cpu: CpuId(0) });
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!(t, 10);
/// assert_eq!(ev, Ev::Resched { cpu: CpuId(0) });
/// ```
#[derive(Debug)]
pub struct EventQueue {
    /// Entries within the current level-0 slot (and any pushed at or
    /// before it), sorted by `(at, seq)`; `near[head..]` are pending,
    /// `near[..head]` already popped. Always holds the global minimum at
    /// `head` when non-empty: every wheel entry is in a strictly later
    /// level-0 slot. Cleared (and `head` reset) once fully consumed.
    near: Vec<Entry>,
    head: usize,
    /// The arena: every entry in a wheel slot, and the free nodes
    /// between them. `links[n]` is the node after `n` in its slot's list
    /// or in the free list.
    nodes: Vec<Entry>,
    links: Vec<u32>,
    /// Head of the free list.
    free: u32,
    /// `LEVELS * SLOTS` lists by first node; level `k` slot `i` is
    /// `slots[k*SLOTS+i]`.
    slots: Vec<u32>,
    /// One occupancy bitmap word per level.
    occ: [u64; LEVELS],
    /// Start of the level-0 slot the `near` run currently represents.
    /// Only ever advances; pushes at or before it go straight to `near`.
    cur: Nanos,
    /// Total pending entries (near + all slots).
    len: usize,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            near: Vec::new(),
            head: 0,
            nodes: Vec::new(),
            links: Vec::new(),
            free: NIL,
            slots: vec![NIL; LEVELS * SLOTS],
            occ: [0; LEVELS],
            cur: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `ev` at absolute time `at`.
    pub fn push(&mut self, at: Nanos, ev: Ev) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let e = Entry { at, seq, ev };
        if (at >> SHIFT0) > (self.cur >> SHIFT0) {
            self.place(e);
        } else if self.near.last().is_some_and(|last| at < last.at) {
            // In (or before) the current near window, but earlier than the
            // run's tail. `seq` is the largest issued, so the entry goes
            // after every pending entry at or before `at`.
            let i = self.head + self.near[self.head..].partition_point(|x| x.at <= at);
            self.near.insert(i, e);
        } else {
            self.near.push(e);
        }
    }

    /// Buckets a future entry (strictly after the near window) in a free
    /// node.
    fn place(&mut self, e: Entry) {
        let n = if self.free == NIL {
            assert!(self.nodes.len() < NIL as usize, "wheel arena full");
            self.nodes.push(e);
            self.links.push(NIL);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.links[n as usize];
            self.nodes[n as usize] = e;
            n
        };
        self.link(n, e.at);
    }

    /// Prepends node `n`, due at `at`, to its slot's list. The level is
    /// the highest bit group in which `at` differs from `cur`; because
    /// `at` is after `cur`'s level-0 slot, the entry's slot index at that
    /// level is strictly ahead of `cur`'s, so a forward scan always finds
    /// it.
    fn link(&mut self, n: u32, at: Nanos) {
        let diff = (at >> SHIFT0) ^ (self.cur >> SHIFT0);
        debug_assert!(diff != 0);
        let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
        let idx = ((at >> (SHIFT0 + LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.occ[level] |= 1 << idx;
        let slot = &mut self.slots[level * SLOTS + idx];
        self.links[n as usize] = *slot;
        *slot = n;
    }

    /// Advances `cur` to the next occupied slot: loads it into `near` if
    /// it is a level-0 slot, or cascades it into the finer levels below,
    /// until `near` is non-empty; then sorts the run once. Levels are
    /// scanned finest-first — every level-`k` entry is earlier than every
    /// level-`k+1` entry, and within a level lower indices are earlier —
    /// so the first occupied slot found is the earliest.
    fn advance(&mut self) {
        'outer: loop {
            for level in 0..LEVELS {
                let shift = SHIFT0 + LEVEL_BITS * level as u32;
                let cur_idx = ((self.cur >> shift) & (SLOTS as u64 - 1)) as u32;
                // Occupied slots at this level are always strictly ahead
                // of cur's index (a behind-or-equal index would differ
                // from cur at a higher level and live there instead).
                let ahead = self.occ[level] & (!0u64).checked_shl(cur_idx + 1).unwrap_or(0);
                if ahead == 0 {
                    continue;
                }
                let idx = ahead.trailing_zeros();
                // cur := start of the found slot (zero everything below
                // this level, keep everything above).
                let above = shift + LEVEL_BITS;
                let high = if above >= 64 {
                    0
                } else {
                    (self.cur >> above) << above
                };
                self.cur = high | ((idx as u64) << shift);
                self.occ[level] &= !(1 << idx);
                // Entries of the new level-0 slot join the run and free
                // their nodes; the rest relink a level or more down.
                let mut n = std::mem::replace(&mut self.slots[level * SLOTS + idx as usize], NIL);
                let cur0 = self.cur >> SHIFT0;
                while n != NIL {
                    let (e, next) = (self.nodes[n as usize], self.links[n as usize]);
                    if (e.at >> SHIFT0) == cur0 {
                        self.near.push(e);
                        self.links[n as usize] = self.free;
                        self.free = n;
                    } else {
                        self.link(n, e.at);
                    }
                    n = next;
                }
                if self.near.is_empty() {
                    continue 'outer;
                }
                self.near.sort_unstable_by_key(|e| (e.at, e.seq));
                return;
            }
            unreachable!("advance() called with no pending entries");
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Nanos, Ev)> {
        self.pop_until(Nanos::MAX)
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `until`; otherwise leaves the queue's contents as they are. May
    /// rotate the wheel internally, which never changes pop order.
    ///
    /// # Examples
    ///
    /// ```
    /// use ghost_sim::event::{Ev, EventQueue};
    /// use ghost_sim::topology::CpuId;
    ///
    /// let mut q = EventQueue::new();
    /// q.push(7, Ev::Tick { cpu: CpuId(0) });
    /// assert_eq!(q.pop_until(6), None);
    /// assert_eq!(q.len(), 1);
    /// assert_eq!(q.pop_until(7), Some((7, Ev::Tick { cpu: CpuId(0) })));
    /// ```
    pub fn pop_until(&mut self, until: Nanos) -> Option<(Nanos, Ev)> {
        if self.len == 0 {
            return None;
        }
        if self.near.is_empty() {
            self.advance();
        }
        let e = self.near[self.head];
        if e.at > until {
            return None;
        }
        self.len -= 1;
        self.head += 1;
        if self.head == self.near.len() {
            self.near.clear();
            self.head = 0;
        }
        Some((e.at, e.ev))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Ev::Wake { tid: Tid(3) });
        q.push(10, Ev::Wake { tid: Tid(1) });
        q.push(20, Ev::Wake { tid: Tid(2) });
        let order: Vec<Nanos> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.push(5, Ev::Wake { tid: Tid(1) });
        q.push(5, Ev::Wake { tid: Tid(2) });
        q.push(5, Ev::Wake { tid: Tid(3) });
        let order: Vec<Tid> = std::iter::from_fn(|| {
            q.pop().map(|(_, ev)| match ev {
                Ev::Wake { tid } => tid,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(order, vec![Tid(1), Tid(2), Tid(3)]);
    }

    #[test]
    fn pop_until_leaves_later_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop_until(Nanos::MAX), None);
        q.push(1 << 20, Ev::Tick { cpu: CpuId(0) });
        // A miss may rotate the wheel to the event's slot; an event pushed
        // behind that slot afterwards must still pop first.
        assert_eq!(q.pop_until(7), None);
        assert_eq!(q.len(), 1);
        q.push(7, Ev::Tick { cpu: CpuId(1) });
        assert_eq!(q.pop_until(7), Some((7, Ev::Tick { cpu: CpuId(1) })));
        assert_eq!(q.pop_until((1 << 20) - 1), None);
        assert_eq!(q.pop_until(1 << 20).map(|(t, _)| t), Some(1 << 20));
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_fifo_across_slots_and_levels() {
        // Same deadline, pushed while the wheel is at different
        // positions: the second batch lands after the wheel advanced.
        let mut q = EventQueue::new();
        let t = 1 << 20; // level-1 territory from cur = 0
        q.push(t, Ev::Wake { tid: Tid(1) });
        q.push(100, Ev::Wake { tid: Tid(0) });
        assert_eq!(q.pop().unwrap().0, 100); // advances cur
        q.push(t, Ev::Wake { tid: Tid(2) }); // now level-0/near territory
        q.push(t, Ev::Wake { tid: Tid(3) });
        let order: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, ev)| match ev {
                Ev::Wake { tid } => tid.0,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn far_future_events_cascade_correctly() {
        let mut q = EventQueue::new();
        // One event per level's range, inserted in reverse order.
        let times: Vec<Nanos> = (0..9).rev().map(|k| 1u64 << (SHIFT0 + 6 * k)).collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, Ev::Wake { tid: Tid(i as u32) });
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let popped: Vec<Nanos> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(popped, sorted);
        assert!(q.is_empty());
    }

    #[test]
    fn pushes_behind_current_position_still_pop_first() {
        let mut q = EventQueue::new();
        q.push(1 << 30, Ev::Wake { tid: Tid(0) });
        q.push(1 << 31, Ev::Wake { tid: Tid(1) });
        assert_eq!(q.pop().unwrap().0, 1 << 30);
        // The wheel has advanced far; a push behind it must still come
        // out before the remaining future event.
        q.push(5, Ev::Wake { tid: Tid(2) });
        assert_eq!(q.pop().unwrap().0, 5);
        assert_eq!(q.pop().unwrap().0, 1 << 31);
    }

    #[test]
    fn interleaved_push_pop_at_same_time() {
        // A handler pushing at the time it is handling (delta = 0) must
        // see its event pop after all already-queued same-time events.
        let mut q = EventQueue::new();
        q.push(50, Ev::Wake { tid: Tid(1) });
        q.push(50, Ev::Wake { tid: Tid(2) });
        let (t, ev) = q.pop().unwrap();
        assert_eq!((t, ev), (50, Ev::Wake { tid: Tid(1) }));
        q.push(50, Ev::Wake { tid: Tid(3) });
        assert_eq!(q.pop().unwrap().1, Ev::Wake { tid: Tid(2) });
        assert_eq!(q.pop().unwrap().1, Ev::Wake { tid: Tid(3) });
        assert!(q.pop().is_none());
    }

    #[test]
    fn storage_is_bounded_by_one_burst_not_by_slots() {
        // Bursts of same-slot entries, each pushed from far enough back
        // to land a level up and cascade, and drained before the next:
        // bucket vectors would keep every burst's capacity in every slot
        // they passed through (about 3 MiB here).
        const BURST: usize = 400;
        let mut q = EventQueue::new();
        for b in 0..200u64 {
            let at = (b + 1) * 3_000_000 + (b % 7) * 70_000;
            for i in 0..BURST as u64 {
                q.push(at + i % 1000, Ev::Wake { tid: Tid(i as u32) });
            }
            while q.pop().is_some() {}
        }
        let entry = std::mem::size_of::<Entry>();
        let retained = (q.nodes.capacity() + q.near.capacity()) * entry + q.links.capacity() * 4;
        let burst = BURST * (2 * entry + 4);
        assert!(
            retained <= 2 * burst,
            "{retained} B retained, one burst is {burst} B"
        );
    }

    #[test]
    fn u64_extremes_are_representable() {
        let mut q = EventQueue::new();
        q.push(u64::MAX, Ev::Wake { tid: Tid(1) });
        q.push(0, Ev::Wake { tid: Tid(0) });
        q.push(u64::MAX - 1, Ev::Wake { tid: Tid(2) });
        assert_eq!(q.pop().unwrap().0, 0);
        assert_eq!(q.pop().unwrap().0, u64::MAX - 1);
        assert_eq!(q.pop().unwrap().0, u64::MAX);
        assert!(q.is_empty());
    }
}
