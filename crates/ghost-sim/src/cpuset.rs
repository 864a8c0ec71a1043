//! CPU affinity masks, the simulator's analogue of the kernel `cpumask`.

use crate::topology::CpuId;

/// Maximum number of CPUs a [`CpuSet`] can describe. The largest machine in
/// the paper's evaluation (AMD Rome) has 256 logical CPUs; headroom up
/// to 1024 covers the Fig. 5 scale point (`fig5-zen-1024-1m` in
/// `ghost-bench`'s `fig5_scalability`) that pushes the simulator beyond
/// the paper's hardware.
pub const MAX_CPUS: usize = 1024;
const WORDS: usize = MAX_CPUS / 64;

/// A fixed-size bitmask over CPU ids.
///
/// # Examples
///
/// ```
/// use ghost_sim::cpuset::CpuSet;
/// use ghost_sim::topology::CpuId;
///
/// let mut s = CpuSet::empty();
/// s.add(CpuId(3));
/// s.add(CpuId(200));
/// assert!(s.contains(CpuId(3)));
/// assert!(!s.contains(CpuId(4)));
/// assert_eq!(s.count(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuSet {
    words: [u64; WORDS],
}

impl CpuSet {
    /// The empty set.
    pub const fn empty() -> Self {
        Self { words: [0; WORDS] }
    }

    /// A set containing CPUs `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_CPUS`.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= MAX_CPUS, "CpuSet supports at most {MAX_CPUS} CPUs");
        let mut s = Self::empty();
        for i in 0..n {
            s.add(CpuId(i as u16));
        }
        s
    }

    /// Adds a CPU to the set, total over all of `u16`: an id beyond
    /// [`MAX_CPUS`] cannot be represented and is silently not inserted.
    /// Agent-supplied masks reach this (e.g. enclave creation), so a
    /// forged id must not panic; the resulting set then fails enclave
    /// validation with a typed error (`EmptyCpuSet` / `InvalidCpu`)
    /// because the forged CPU was never a member.
    pub fn add(&mut self, cpu: CpuId) {
        let i = cpu.0 as usize;
        if i < MAX_CPUS {
            self.words[i / 64] |= 1 << (i % 64);
        }
    }

    /// Removes a CPU from the set. A CPU id beyond [`MAX_CPUS`] was never
    /// a member; removing it is a no-op.
    pub fn remove(&mut self, cpu: CpuId) {
        let i = cpu.0 as usize;
        if i < MAX_CPUS {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Membership test, total over all of `u16`: ids beyond [`MAX_CPUS`]
    /// are simply not members. Agent-supplied CPU ids reach this, so an
    /// out-of-range id must reject, not panic.
    pub fn contains(&self, cpu: CpuId) -> bool {
        let i = cpu.0 as usize;
        i < MAX_CPUS && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of CPUs in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Set intersection.
    pub fn and(&self, other: &CpuSet) -> CpuSet {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
        out
    }

    /// Set union.
    pub fn or(&self, other: &CpuSet) -> CpuSet {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
        out
    }

    /// Set difference (`self` minus `other`).
    pub fn minus(&self, other: &CpuSet) -> CpuSet {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
        out
    }

    /// Iterates over member CPU ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = CpuId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(CpuId((wi * 64 + b as usize) as u16))
                }
            })
        })
    }

    /// Smallest CPU id in the set, if any.
    pub fn first(&self) -> Option<CpuId> {
        self.iter().next()
    }
}

impl std::fmt::Debug for CpuSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CpuSet{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", c.0)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<CpuId> for CpuSet {
    fn from_iter<I: IntoIterator<Item = CpuId>>(iter: I) -> Self {
        let mut s = Self::empty();
        for c in iter {
            s.add(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u16) -> CpuId {
        CpuId(i)
    }

    #[test]
    fn add_remove_contains() {
        let mut s = CpuSet::empty();
        assert!(s.is_empty());
        s.add(c(0));
        s.add(c(63));
        s.add(c(64));
        s.add(c(255));
        assert_eq!(s.count(), 4);
        assert!(s.contains(c(63)));
        assert!(s.contains(c(64)));
        s.remove(c(63));
        assert!(!s.contains(c(63)));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn out_of_range_ids_are_total() {
        let mut s = CpuSet::from_iter([c(7)]);
        // A forged CPU id (e.g. from a byzantine agent) must never panic
        // the mask: it is simply not a member, insertion cannot represent
        // it, and removal is a no-op.
        assert!(!s.contains(c(2000)));
        assert!(!s.contains(c(u16::MAX)));
        s.add(c(2000));
        s.add(c(u16::MAX));
        assert!(!s.contains(c(2000)));
        s.remove(c(2000));
        assert_eq!(s.count(), 1);
        assert!(CpuSet::from_iter([c(1500)]).is_empty());
    }

    #[test]
    fn first_n_covers_prefix() {
        let s = CpuSet::first_n(10);
        assert_eq!(s.count(), 10);
        assert!(s.contains(c(9)));
        assert!(!s.contains(c(10)));
        assert_eq!(s.first(), Some(c(0)));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn first_n_too_large_panics() {
        let _ = CpuSet::first_n(1025);
    }

    #[test]
    fn set_algebra() {
        let a = CpuSet::from_iter([c(1), c(2), c(3)]);
        let b = CpuSet::from_iter([c(2), c(3), c(4)]);
        assert_eq!(a.and(&b).count(), 2);
        assert_eq!(a.or(&b).count(), 4);
        assert_eq!(a.minus(&b).count(), 1);
        assert!(a.minus(&b).contains(c(1)));
    }

    #[test]
    fn iter_is_ordered() {
        let s = CpuSet::from_iter([c(200), c(5), c(77)]);
        let v: Vec<u16> = s.iter().map(|c| c.0).collect();
        assert_eq!(v, vec![5, 77, 200]);
    }

    #[test]
    fn empty_set_iter_and_first() {
        let s = CpuSet::empty();
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.first(), None);
    }
}
