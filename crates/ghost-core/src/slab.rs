//! Dense, index-addressed storage for the runtime hot path.
//!
//! The post/activate/commit/PNT paths used to hash `Tid`s and `CpuId`s
//! into `HashMap`s on every message and transaction. Both id spaces are
//! small and dense — the kernels allocate `Tid`s sequentially and CPU
//! ids are bounded by the topology — so every map on the hot path is
//! replaced by one of three flat structures:
//!
//! * [`TidSlab`] — slab storage with `u32` index handles and a free
//!   list, plus a direct-mapped `tid -> handle` lookup vector. Handles
//!   are recycled on remove; the lookup vector guarantees a recycled
//!   handle can never alias a stale `Tid` (the old tid's lookup entry is
//!   cleared before the handle returns to the free list, and every slot
//!   stores its owning tid for cross-checking).
//! * [`DenseMap`] — a direct-mapped `id -> T` vector over either id
//!   space: [`TidMap`] for sparse per-thread attributes (enclave
//!   membership, hints, strike counts), [`CpuMap`] for per-CPU state.
//!   Iteration is in id order, which is deterministic by construction
//!   (no sort-before-iterate needed, unlike the `HashMap`s it replaces).
//!
//! Forged ids from byzantine agents stay safe: lookups are bounds-checked
//! (an out-of-range id simply misses, as it did with `HashMap`), and the
//! runtime validates ids against the backend before any insert, so a
//! hostile agent cannot force the lookup vectors to balloon.

use ghost_sim::thread::Tid;
use ghost_sim::topology::CpuId;
use std::marker::PhantomData;

/// Sentinel in the `TidSlab` lookup vector: no handle.
const NONE: u32 = u32::MAX;

/// Slab storage keyed by [`Tid`]: `u32` index handles, `Vec`-backed
/// slots, and a free list for recycling.
///
/// # Examples
///
/// ```
/// use ghost_core::slab::TidSlab;
/// use ghost_sim::thread::Tid;
///
/// let mut slab: TidSlab<&'static str> = TidSlab::new();
/// slab.insert(Tid(7), "a");
/// assert_eq!(slab.get(Tid(7)), Some(&"a"));
/// assert_eq!(slab.remove(Tid(7)), Some("a"));
/// // The recycled handle cannot alias the dead tid.
/// slab.insert(Tid(9), "b");
/// assert_eq!(slab.get(Tid(7)), None);
/// ```
#[derive(Debug, Clone)]
pub struct TidSlab<T> {
    /// `tid.index() -> handle`, `NONE` when absent.
    lookup: Vec<u32>,
    /// Dense slot storage; `None` slots are on the free list.
    slots: Vec<Option<(Tid, T)>>,
    /// Recycled handles, popped LIFO on insert.
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for TidSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TidSlab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Self {
            lookup: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot handle for `tid`, if present. Exposed so tests can
    /// observe free-list recycling.
    pub fn handle_of(&self, tid: Tid) -> Option<u32> {
        match self.lookup.get(tid.index()) {
            Some(&h) if h != NONE => Some(h),
            _ => None,
        }
    }

    /// True if `tid` has an entry. Total over all of `u32` (forged ids
    /// miss without allocating).
    pub fn contains(&self, tid: Tid) -> bool {
        self.handle_of(tid).is_some()
    }

    /// Shared access by tid.
    #[inline]
    pub fn get(&self, tid: Tid) -> Option<&T> {
        let h = self.handle_of(tid)?;
        self.slots[h as usize].as_ref().map(|(_, v)| v)
    }

    /// Mutable access by tid.
    #[inline]
    pub fn get_mut(&mut self, tid: Tid) -> Option<&mut T> {
        let h = self.handle_of(tid)?;
        self.slots[h as usize].as_mut().map(|(_, v)| v)
    }

    /// Inserts (or replaces) the entry for `tid`, returning the previous
    /// value. Replacement keeps the existing handle.
    pub fn insert(&mut self, tid: Tid, value: T) -> Option<T> {
        if let Some(h) = self.handle_of(tid) {
            let slot = self.slots[h as usize].as_mut().expect("live handle");
            return Some(std::mem::replace(&mut slot.1, value));
        }
        let h = match self.free.pop() {
            Some(h) => {
                debug_assert!(self.slots[h as usize].is_none());
                self.slots[h as usize] = Some((tid, value));
                h
            }
            None => {
                self.slots.push(Some((tid, value)));
                (self.slots.len() - 1) as u32
            }
        };
        if self.lookup.len() <= tid.index() {
            self.lookup.resize(tid.index() + 1, NONE);
        }
        self.lookup[tid.index()] = h;
        self.len += 1;
        None
    }

    /// Removes the entry for `tid`, recycling its handle.
    pub fn remove(&mut self, tid: Tid) -> Option<T> {
        let h = self.handle_of(tid)?;
        // Clear the lookup entry *before* freeing the handle so a future
        // reuse of the slot can never be reached through the dead tid.
        self.lookup[tid.index()] = NONE;
        let (slot_tid, value) = self.slots[h as usize].take().expect("live handle");
        debug_assert_eq!(slot_tid, tid, "slot/lookup aliasing");
        self.free.push(h);
        self.len -= 1;
        Some(value)
    }

    /// Removes every entry (handles are recycled wholesale).
    pub fn clear(&mut self) {
        self.lookup.clear();
        self.slots.clear();
        self.free.clear();
        self.len = 0;
    }

    /// Iterates `(tid, &value)` in slot-handle order. NOT tid order:
    /// callers that need a deterministic tid order must sort (use
    /// [`TidSlab::sorted_tids`]).
    pub fn iter(&self) -> impl Iterator<Item = (Tid, &T)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(t, v)| (*t, v)))
    }

    /// Live tids in slot-handle order (see [`TidSlab::iter`]).
    pub fn tids(&self) -> impl Iterator<Item = Tid> + '_ {
        self.iter().map(|(t, _)| t)
    }

    /// Live values in slot-handle order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Live tids, ascending — the deterministic iteration order every
    /// digest-affecting walk uses.
    pub fn sorted_tids(&self) -> Vec<Tid> {
        let mut v: Vec<Tid> = self.tids().collect();
        v.sort_by_key(|t| t.0);
        v
    }
}

/// A dense id space a [`DenseMap`] can index by: the kernels allocate
/// `Tid`s sequentially and CPU ids are bounded by the topology.
pub trait DenseKey: Copy {
    /// The vector slot of this id.
    fn index(self) -> usize;
    /// The id stored in vector slot `i`.
    fn from_index(i: usize) -> Self;
}

impl DenseKey for Tid {
    #[inline]
    fn index(self) -> usize {
        Tid::index(self)
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        Tid(i as u32)
    }
}

impl DenseKey for CpuId {
    #[inline]
    fn index(self) -> usize {
        CpuId::index(self)
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        CpuId(i as u16)
    }
}

/// Direct-mapped map: `key.index()` indexes a `Vec`. For kernel-validated
/// id spaces only (the vector grows to the largest inserted key).
/// Iteration is in ascending key order — deterministic by construction,
/// unlike the `HashMap`s this type replaces.
#[derive(Debug, Clone)]
pub struct DenseMap<K, T> {
    v: Vec<Option<T>>,
    len: usize,
    key: PhantomData<K>,
}

/// Per-thread attributes (enclave membership, hints, strike counts).
pub type TidMap<T> = DenseMap<Tid, T>;

/// Per-CPU state, bounded by the topology size.
pub type CpuMap<T> = DenseMap<CpuId, T>;

impl<K: DenseKey, T> Default for DenseMap<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: DenseKey, T> DenseMap<K, T> {
    /// An empty map.
    pub fn new() -> Self {
        Self {
            v: Vec::new(),
            len: 0,
            key: PhantomData,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `key` has a value (bounds-checked; forged ids miss).
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Shared access.
    #[inline]
    pub fn get(&self, key: K) -> Option<&T> {
        self.v.get(key.index()).and_then(|s| s.as_ref())
    }

    /// Mutable access.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut T> {
        self.v.get_mut(key.index()).and_then(|s| s.as_mut())
    }

    /// Inserts, returning the previous value.
    pub fn insert(&mut self, key: K, value: T) -> Option<T> {
        let i = key.index();
        if self.v.len() <= i {
            self.v.resize_with(i + 1, || None);
        }
        let old = self.v[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value.
    pub fn remove(&mut self, key: K) -> Option<T> {
        let old = self.v.get_mut(key.index()).and_then(|s| s.take());
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Returns the value for `key`, inserting `default` first if absent.
    pub fn or_insert(&mut self, key: K, default: T) -> &mut T {
        if !self.contains(key) {
            self.insert(key, default);
        }
        self.get_mut(key).expect("just inserted")
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.v.clear();
        self.len = 0;
    }

    /// Keeps only entries for which `keep` returns true. Visits in key
    /// order; skipped entirely when the map is empty.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &mut T) -> bool) {
        if self.len == 0 {
            return;
        }
        for (i, slot) in self.v.iter_mut().enumerate() {
            if let Some(v) = slot {
                if !keep(K::from_index(i), v) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
    }

    /// Iterates `(key, &value)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &T)> {
        self.v
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (K::from_index(i), v)))
    }

    /// Live values in key order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Live keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_insert_get_remove() {
        let mut s: TidSlab<u64> = TidSlab::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(Tid(3), 30), None);
        assert_eq!(s.insert(Tid(1), 10), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(Tid(3)), Some(&30));
        assert_eq!(s.insert(Tid(3), 33), Some(30));
        assert_eq!(s.len(), 2);
        *s.get_mut(Tid(1)).unwrap() += 1;
        assert_eq!(s.remove(Tid(1)), Some(11));
        assert_eq!(s.remove(Tid(1)), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn slab_recycles_handles_without_aliasing() {
        let mut s: TidSlab<u32> = TidSlab::new();
        s.insert(Tid(10), 1);
        let h10 = s.handle_of(Tid(10)).unwrap();
        s.remove(Tid(10));
        // The next insert reuses the freed handle...
        s.insert(Tid(20), 2);
        assert_eq!(s.handle_of(Tid(20)), Some(h10));
        // ...but the dead tid cannot reach the recycled slot.
        assert_eq!(s.get(Tid(10)), None);
        assert!(!s.contains(Tid(10)));
        assert_eq!(s.get(Tid(20)), Some(&2));
    }

    #[test]
    fn slab_iteration_and_sorted_tids() {
        let mut s: TidSlab<u32> = TidSlab::new();
        for t in [5u32, 1, 9, 3] {
            s.insert(Tid(t), t * 10);
        }
        s.remove(Tid(1));
        s.insert(Tid(7), 70); // reuses tid 1's handle: handle order != tid order
        let sorted: Vec<u32> = s.sorted_tids().iter().map(|t| t.0).collect();
        assert_eq!(sorted, vec![3, 5, 7, 9]);
        assert_eq!(s.values().count(), 4);
        let set: std::collections::BTreeSet<u32> = s.tids().map(|t| t.0).collect();
        assert_eq!(set.into_iter().collect::<Vec<_>>(), vec![3, 5, 7, 9]);
    }

    #[test]
    fn slab_forged_tids_miss_without_allocating() {
        let mut s: TidSlab<u32> = TidSlab::new();
        s.insert(Tid(2), 20);
        assert_eq!(s.get(Tid(u32::MAX)), None);
        assert!(!s.contains(Tid(u32::MAX)));
        assert_eq!(s.remove(Tid(u32::MAX)), None);
        // The lookup vector only ever grew to cover tid 2.
        assert!(s.lookup.len() <= 3);
    }

    #[test]
    fn tidmap_basics() {
        let mut m: TidMap<u64> = TidMap::new();
        assert_eq!(m.insert(Tid(4), 40), None);
        assert_eq!(m.insert(Tid(4), 44), Some(40));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(Tid(4)), Some(&44));
        assert!(!m.contains(Tid(5)));
        assert_eq!(m.remove(Tid(4)), Some(44));
        assert!(m.is_empty());
        assert_eq!(m.get(Tid(u32::MAX)), None);
    }

    #[test]
    fn cpumap_iterates_in_cpu_order_and_retains() {
        let mut m: CpuMap<u32> = CpuMap::new();
        m.insert(CpuId(9), 90);
        m.insert(CpuId(2), 20);
        m.insert(CpuId(5), 50);
        let order: Vec<u16> = m.keys().map(|c| c.0).collect();
        assert_eq!(order, vec![2, 5, 9]);
        m.retain(|_, &mut v| v != 50);
        assert_eq!(m.len(), 2);
        assert!(!m.contains(CpuId(5)));
        assert_eq!(*m.or_insert(CpuId(5), 55), 55);
        assert_eq!(*m.or_insert(CpuId(5), 99), 55);
    }
}
