//! Message queues.
//!
//! The paper: "we opted to use custom queues in shared memory to
//! efficiently handle agent wakeups ... fast lockless ring buffers that
//! synchronize consumer/producer access" (§3.1). Here the producers (the
//! ghOSt class's hooks) and the consumer (the agent driver) run under one
//! owner, the DES kernel's checked-out runtime state or ghost-live's state
//! lock, so a queue is a single-owner bounded FIFO. Like a trace ring, it
//! commits storage as messages arrive: an enclave queue sized for a
//! 65,536-message burst costs nothing until the burst comes.

use crate::msg::Message;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

/// Error returned when producing into a full queue.
///
/// A full queue means the agent has fallen hopelessly behind; the enclave
/// watchdog treats persistent overflow as a misbehaving agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

/// A bounded FIFO of [`Message`]s.
///
/// # Examples
///
/// ```
/// use ghost_core::queue::MessageQueue;
/// use ghost_core::msg::{Message, MsgType};
/// use ghost_sim::thread::Tid;
/// use ghost_sim::topology::CpuId;
///
/// let q = MessageQueue::new(8);
/// let m = Message::thread(MsgType::ThreadWakeup, Tid(1), 1, CpuId(0), 0);
/// q.push(m).unwrap();
/// assert_eq!(q.len(), 1);
/// assert_eq!(q.pop(), Some(m));
/// assert_eq!(q.pop(), None);
/// ```
///
/// A queue has one owner at a time and cannot be shared across threads:
///
/// ```compile_fail,E0277
/// fn shared<T: Sync>() {}
/// shared::<ghost_core::queue::MessageQueue>();
/// ```
#[derive(Debug)]
pub struct MessageQueue {
    msgs: RefCell<VecDeque<Message>>,
    cap: usize,
    /// Messages rejected because the queue was full, cumulative over the
    /// queue's lifetime (the overflow signal the watchdog and the
    /// `ghost_queue_overflow` tracepoint report).
    dropped: Cell<u64>,
}

impl MessageQueue {
    /// Creates a queue with capacity rounded up to a power of two (min 2).
    /// Nothing is reserved up front.
    pub fn new(capacity: usize) -> Self {
        Self {
            msgs: RefCell::new(VecDeque::new()),
            cap: capacity.next_power_of_two().max(2),
            dropped: Cell::new(0),
        }
    }

    /// Capacity (always a power of two).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Produces a message. Fails with [`QueueFull`] when the queue holds
    /// [`MessageQueue::capacity`] messages.
    pub fn push(&self, msg: Message) -> Result<(), QueueFull> {
        let mut msgs = self.msgs.borrow_mut();
        if msgs.len() == self.cap {
            self.note_dropped();
            return Err(QueueFull);
        }
        msgs.push_back(msg);
        Ok(())
    }

    /// Cumulative count of messages rejected by [`MessageQueue::push`]
    /// because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Records a drop that happened outside [`MessageQueue::push`] (fault
    /// injection rejecting a message before it reaches the queue), keeping
    /// the cumulative counter consistent for overflow-resync logic.
    pub fn note_dropped(&self) {
        self.dropped.set(self.dropped.get() + 1);
    }

    /// Consumes the oldest message, if any.
    pub fn pop(&self) -> Option<Message> {
        self.msgs.borrow_mut().pop_front()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.borrow().len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains all currently queued messages into a vector.
    pub fn drain(&self) -> Vec<Message> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Drains all currently queued messages, appending to `out`. The
    /// hot-path form: a reused buffer means a group commit's worth of
    /// messages moves without a per-activation allocation.
    pub fn drain_into(&self, out: &mut Vec<Message>) {
        out.extend(self.msgs.borrow_mut().drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgType;
    use ghost_sim::thread::Tid;
    use ghost_sim::topology::CpuId;

    fn msg(i: u32) -> Message {
        Message::thread(MsgType::ThreadWakeup, Tid(i), i as u64, CpuId(0), 0)
    }

    #[test]
    fn fifo_order() {
        let q = MessageQueue::new(16);
        for i in 0..10 {
            q.push(msg(i)).unwrap();
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().tid, Tid(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(MessageQueue::new(10).capacity(), 16);
        assert_eq!(MessageQueue::new(1).capacity(), 2);
        assert_eq!(MessageQueue::new(64).capacity(), 64);
    }

    #[test]
    fn full_queue_rejects() {
        let q = MessageQueue::new(4);
        for i in 0..4 {
            q.push(msg(i)).unwrap();
        }
        assert_eq!(q.push(msg(99)), Err(QueueFull));
        q.pop().unwrap();
        q.push(msg(4)).unwrap();
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn drop_counter_tracks_rejections() {
        let q = MessageQueue::new(2);
        assert_eq!(q.dropped(), 0);
        q.push(msg(0)).unwrap();
        q.push(msg(1)).unwrap();
        assert_eq!(q.push(msg(2)), Err(QueueFull));
        assert_eq!(q.push(msg(3)), Err(QueueFull));
        assert_eq!(q.dropped(), 2);
        // Draining frees space; the counter keeps its history.
        q.drain();
        q.push(msg(4)).unwrap();
        assert_eq!(q.dropped(), 2);
    }

    #[test]
    fn wraps_many_rounds() {
        let q = MessageQueue::new(4);
        for round in 0..100u32 {
            q.push(msg(round)).unwrap();
            assert_eq!(q.pop().unwrap().tid, Tid(round));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn drain_empties() {
        let q = MessageQueue::new(8);
        for i in 0..5 {
            q.push(msg(i)).unwrap();
        }
        let v = q.drain();
        assert_eq!(v.len(), 5);
        assert!(q.is_empty());
    }
}
