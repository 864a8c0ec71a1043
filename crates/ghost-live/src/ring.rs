//! Lock-free single-producer single-consumer rings.
//!
//! A lock-free primitive for embedders, mirroring the paper's
//! shared-memory message queues (the benchmark's `live.ring.push_pop_ns`
//! measures it). The live kernel itself does not signal agents through
//! one: a post to an agent's queue kicks the agent's mailbox instead
//! ([`crate::worker::WorkerCtl`]). The implementation is the classic
//! Lamport ring: `tail` is written only by the producer (release) and
//! read by the consumer (acquire); `head` the mirror image. One slot is
//! sacrificed to distinguish full from empty.
//!
//! "Single producer" means *serialized* producers: pushes made while
//! holding one lock are a valid single producer, because mutex
//! release/acquire edges order the tail writes exactly as a single thread
//! would.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct RingInner<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the consumer reads. Written by the consumer only.
    head: AtomicUsize,
    /// Next slot the producer writes. Written by the producer only.
    tail: AtomicUsize,
}

// Slots are only touched by the unique producer (writes at `tail`) and the
// unique consumer (reads at `head`), with the atomics carrying the
// happens-before edges between them.
unsafe impl<T: Send> Sync for RingInner<T> {}
unsafe impl<T: Send> Send for RingInner<T> {}

/// Producer half of an SPSC ring.
pub struct SpscProducer<T> {
    inner: Arc<RingInner<T>>,
}

/// Consumer half of an SPSC ring.
pub struct SpscConsumer<T> {
    inner: Arc<RingInner<T>>,
}

/// Creates an SPSC ring holding up to `capacity` elements.
pub fn spsc<T: Send>(capacity: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    // +1: one slot stays empty so head == tail unambiguously means empty.
    let n = (capacity + 1).next_power_of_two();
    let slots = (0..n)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(RingInner {
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (
        SpscProducer {
            inner: Arc::clone(&inner),
        },
        SpscConsumer { inner },
    )
}

impl<T: Send> SpscProducer<T> {
    /// Pushes `value`, or returns it if the ring is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let inner = &*self.inner;
        let mask = inner.slots.len() - 1;
        let tail = inner.tail.load(Ordering::Relaxed);
        let next = (tail + 1) & mask;
        if next == inner.head.load(Ordering::Acquire) {
            return Err(value); // Full.
        }
        // Safe: the slot at `tail` is outside the consumer's visible
        // window until the release store below publishes it.
        unsafe { (*inner.slots[tail].get()).write(value) };
        inner.tail.store(next, Ordering::Release);
        Ok(())
    }

    /// True if a push would fail right now.
    pub fn is_full(&self) -> bool {
        let inner = &*self.inner;
        let mask = inner.slots.len() - 1;
        let tail = inner.tail.load(Ordering::Relaxed);
        ((tail + 1) & mask) == inner.head.load(Ordering::Acquire)
    }
}

impl<T: Send> SpscConsumer<T> {
    /// Pops the oldest element, if any.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let mask = inner.slots.len() - 1;
        let head = inner.head.load(Ordering::Relaxed);
        if head == inner.tail.load(Ordering::Acquire) {
            return None; // Empty.
        }
        // Safe: the acquire load above synchronized with the producer's
        // release store, so the slot at `head` is initialized.
        let value = unsafe { (*inner.slots[head].get()).assume_init_read() };
        inner.head.store((head + 1) & mask, Ordering::Release);
        Some(value)
    }

    /// True if the ring currently holds no elements.
    pub fn is_empty(&self) -> bool {
        let inner = &*self.inner;
        inner.head.load(Ordering::Relaxed) == inner.tail.load(Ordering::Acquire)
    }

    /// Pops and discards everything currently visible, returning the count.
    pub fn drain(&self) -> usize {
        let mut n = 0;
        while self.pop().is_some() {
            n += 1;
        }
        n
    }
}

impl<T> Drop for RingInner<T> {
    fn drop(&mut self) {
        // Drop any elements still in flight.
        let mask = self.slots.len() - 1;
        let mut head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        while head != tail {
            unsafe { (*self.slots[head].get()).assume_init_drop() };
            head = (head + 1) & mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo() {
        let (p, c) = spsc::<u64>(8);
        for i in 0..5 {
            p.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn full_ring_rejects() {
        let (p, c) = spsc::<u32>(2);
        // Capacity rounds up to a power of two minus the sentinel slot.
        let mut pushed = 0;
        while p.push(pushed).is_ok() {
            pushed += 1;
        }
        assert!(pushed >= 2);
        assert!(p.is_full());
        assert_eq!(c.pop(), Some(0));
        assert!(p.push(99).is_ok());
    }

    #[test]
    fn cross_thread_handoff() {
        let (p, c) = spsc::<u64>(1024);
        let total = 100_000u64;
        let producer = std::thread::spawn(move || {
            for i in 0..total {
                let mut v = i;
                loop {
                    match p.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expect = 0u64;
        while expect < total {
            if let Some(v) = c.pop() {
                assert_eq!(v, expect);
                expect += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }
}
