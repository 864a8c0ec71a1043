//! Status words: per-thread and per-agent state the kernel publishes for
//! agents to poll.
//!
//! "ghOSt allows agents to efficiently poll auxiliary information about
//! thread and CPU state through status words, mapped into the agent's
//! address space" (§3.1). Here the kernel and every agent that reads a
//! word run under one owner (the DES kernel's checked-out runtime state,
//! or ghost-live's state lock), so a word is two plain [`Cell`]s stored
//! inline in its thread's or agent's slab slot. The slab is the
//! status-word table the §3.4 reconstruction scan walks. `Cell` also
//! makes the type `!Sync`: the ABI's single-writer contract is a
//! compile-time fact, not a runtime check.

use std::cell::Cell;

/// Flag bit: the thread is on a CPU right now.
pub const SW_ONCPU: u64 = 1 << 0;
/// Flag bit: the thread is runnable (waiting for an agent decision).
pub const SW_RUNNABLE: u64 = 1 << 1;
/// Flag bit: the enclave/agent considers this entity attached and live.
pub const SW_ATTACHED: u64 = 1 << 2;

/// A status word holding a sequence number and state flags.
///
/// # Examples
///
/// ```
/// use ghost_core::status::{StatusWord, SW_RUNNABLE};
///
/// let sw = StatusWord::new();
/// sw.publish(|seq, flags| (seq + 1, flags | SW_RUNNABLE));
/// assert_eq!(sw.seq(), 1);
/// assert!(sw.has_flags(SW_RUNNABLE));
/// ```
///
/// The kernel is the only writer, and a word cannot be shared across
/// threads:
///
/// ```compile_fail,E0277
/// fn shared<T: Sync>() {}
/// shared::<ghost_core::status::StatusWord>();
/// ```
#[derive(Debug, Default)]
pub struct StatusWord {
    seq: Cell<u64>,
    flags: Cell<u64>,
}

impl StatusWord {
    /// Creates a zeroed status word.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current sequence number.
    pub fn seq(&self) -> u64 {
        self.seq.get()
    }

    /// Current flags.
    pub fn flags(&self) -> u64 {
        self.flags.get()
    }

    /// True if all bits of `mask` are set.
    pub fn has_flags(&self, mask: u64) -> bool {
        self.flags() & mask == mask
    }

    /// Kernel-side update: applies `f` to `(seq, flags)` and stores the
    /// result.
    pub fn publish<F: FnOnce(u64, u64) -> (u64, u64)>(&self, f: F) {
        let (seq, flags) = f(self.seq(), self.flags());
        self.seq.set(seq);
        self.flags.set(flags);
    }

    /// Increments the sequence number, returning the new value.
    pub fn bump_seq(&self) -> u64 {
        self.seq.set(self.seq() + 1);
        self.seq()
    }

    /// Sets flag bits.
    pub fn set_flags(&self, mask: u64) {
        self.flags.set(self.flags() | mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed() {
        let sw = StatusWord::new();
        assert_eq!(sw.seq(), 0);
        assert_eq!(sw.flags(), 0);
        assert!(!sw.has_flags(SW_ONCPU));
    }

    #[test]
    fn bump_and_flags() {
        let sw = StatusWord::new();
        assert_eq!(sw.bump_seq(), 1);
        assert_eq!(sw.bump_seq(), 2);
        sw.set_flags(SW_ONCPU | SW_RUNNABLE);
        assert!(sw.has_flags(SW_ONCPU));
        sw.publish(|s, f| (s, f & !SW_ONCPU));
        assert!(!sw.has_flags(SW_ONCPU));
        assert!(sw.has_flags(SW_RUNNABLE));
        assert_eq!(sw.seq(), 2);
    }

    #[test]
    fn publish_is_atomic_pairwise() {
        let sw = StatusWord::new();
        sw.publish(|s, f| (s + 10, f | SW_ATTACHED));
        assert_eq!(sw.seq(), 10);
        assert!(sw.has_flags(SW_ATTACHED));
    }
}
