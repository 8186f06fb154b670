//! Last-level-cache models.
//!
//! The paper's testbed has a 12 MB shared LLC; the effect of that cache is
//! folded into the measured baselines. The simulator needs an explicit
//! model so that "measured" curves include cache behaviour the analytical
//! estimate does not know about — keeping the estimate-accuracy evaluation
//! honest.
//!
//! Three models implement the [`Cache`] trait:
//!
//! * [`ObjectLru`] — object-granular LRU with a byte budget. One
//!   residency-index probe per access; the default for experiment sweeps.
//! * [`SetAssociative`] — classic line-granular set-associative LRU.
//!   Accurate but O(lines touched) per access; used for validation and the
//!   `ablation_cache` bench.
//! * [`NoCache`] — pass-through (every byte misses).
//!
//! [`CacheConfig::build`] returns the configured one as a [`CacheModel`]
//! enum, which the memory system dispatches statically.

use crate::dense::DenseU64Map;
use crate::num;

/// Outcome of pushing one object access through a cache model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheOutcome {
    /// Bytes served from cache.
    pub hit_bytes: u64,
    /// Bytes that must be served by the backing tier.
    pub miss_bytes: u64,
}

impl CacheOutcome {
    /// Total bytes of the access.
    pub fn total(&self) -> u64 {
        self.hit_bytes + self.miss_bytes
    }
}

/// A cache model: given an object access, decide how many bytes hit.
pub trait Cache: Send {
    /// Record an access of `bytes` bytes to object `key` and report the
    /// hit/miss split. Writes allocate like reads (write-allocate).
    fn access(&mut self, key: u64, bytes: u64) -> CacheOutcome;

    /// Remove an object's footprint (called on free/migration so stale
    /// entries cannot produce phantom hits).
    fn invalidate(&mut self, key: u64);

    /// Drop all cached state.
    fn clear(&mut self);

    /// Bytes currently cached (for diagnostics; line-granular models
    /// report resident line bytes).
    fn resident_bytes(&self) -> u64;
}

/// Which cache implementation to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// No cache at all.
    None,
    /// Object-granular LRU (fast; default).
    ObjectLru,
    /// Line-granular set-associative LRU (accurate; slow).
    SetAssociative,
}

/// Configuration of the simulated LLC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Which model to use.
    pub kind: CacheKind,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Cache line size in bytes (used by the set-associative model and for
    /// rounding in the object model).
    pub line_bytes: u64,
    /// Associativity (set-associative model only).
    pub ways: usize,
    /// Latency of a cache hit in nanoseconds.
    pub hit_latency_ns: f64,
    /// Cache fill/read bandwidth in bytes per nanosecond.
    pub bandwidth_bytes_per_ns: f64,
}

impl CacheConfig {
    /// The paper testbed's 12 MB shared LLC (typical Xeon LLC timing).
    pub fn paper_llc() -> CacheConfig {
        CacheConfig {
            kind: CacheKind::ObjectLru,
            capacity_bytes: 12 << 20,
            line_bytes: 64,
            ways: 16,
            hit_latency_ns: 18.0,
            bandwidth_bytes_per_ns: 64.0,
        }
    }

    /// Same geometry, no cache (for the cache ablation).
    pub fn disabled() -> CacheConfig {
        CacheConfig {
            kind: CacheKind::None,
            ..CacheConfig::paper_llc()
        }
    }

    /// Same geometry, line-granular model.
    pub fn line_granular() -> CacheConfig {
        CacheConfig {
            kind: CacheKind::SetAssociative,
            ..CacheConfig::paper_llc()
        }
    }

    /// Build the configured cache model.
    pub fn build(&self) -> CacheModel {
        match self.kind {
            CacheKind::None => CacheModel::None(NoCache),
            CacheKind::ObjectLru => CacheModel::ObjectLru(ObjectLru::new(self.capacity_bytes)),
            CacheKind::SetAssociative => CacheModel::SetAssociative(SetAssociative::new(
                self.capacity_bytes,
                self.line_bytes,
                self.ways,
            )),
        }
    }

    /// Nanoseconds to serve `bytes` out of the cache.
    pub fn hit_ns(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.hit_latency_ns + bytes as f64 / self.bandwidth_bytes_per_ns
    }
}

/// One of the three cache models, chosen by [`CacheKind`]. The memory
/// system holds its LLC as this enum rather than a boxed [`Cache`], so
/// the per-access call is a match the compiler can inline instead of a
/// virtual call.
pub enum CacheModel {
    /// [`NoCache`].
    None(NoCache),
    /// [`ObjectLru`].
    ObjectLru(ObjectLru),
    /// [`SetAssociative`].
    SetAssociative(SetAssociative),
}

impl Cache for CacheModel {
    #[inline]
    fn access(&mut self, key: u64, bytes: u64) -> CacheOutcome {
        match self {
            CacheModel::None(c) => c.access(key, bytes),
            CacheModel::ObjectLru(c) => c.access(key, bytes),
            CacheModel::SetAssociative(c) => c.access(key, bytes),
        }
    }

    fn invalidate(&mut self, key: u64) {
        match self {
            CacheModel::None(c) => c.invalidate(key),
            CacheModel::ObjectLru(c) => c.invalidate(key),
            CacheModel::SetAssociative(c) => c.invalidate(key),
        }
    }

    fn clear(&mut self) {
        match self {
            CacheModel::None(c) => c.clear(),
            CacheModel::ObjectLru(c) => c.clear(),
            CacheModel::SetAssociative(c) => c.clear(),
        }
    }

    fn resident_bytes(&self) -> u64 {
        match self {
            CacheModel::None(c) => c.resident_bytes(),
            CacheModel::ObjectLru(c) => c.resident_bytes(),
            CacheModel::SetAssociative(c) => c.resident_bytes(),
        }
    }
}

/// Pass-through cache: everything misses.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoCache;

impl Cache for NoCache {
    fn access(&mut self, _key: u64, bytes: u64) -> CacheOutcome {
        CacheOutcome {
            hit_bytes: 0,
            miss_bytes: bytes,
        }
    }
    fn invalidate(&mut self, _key: u64) {}
    fn clear(&mut self) {}
    fn resident_bytes(&self) -> u64 {
        0
    }
}

/// Object-granular LRU cache with a byte budget.
///
/// An access to an object either hits fully (object resident) or misses
/// fully (object not resident, gets installed, LRU victims evicted until it
/// fits). Objects larger than the whole cache bypass it. The LRU list is a
/// circular doubly linked list over a slab with `u32` links, closed by a
/// sentinel node at slot 0, so relinking a node never branches on the list
/// ends; each access is O(1) plus amortised evictions.
pub struct ObjectLru {
    capacity: u64,
    used: u64,
    /// Residency index: object key -> slab slot.
    map: DenseU64Map<u32>,
    /// Slot [`SENTINEL`] closes the list: its `next` is the most recently
    /// used node and its `prev` the least recently used.
    slab: Vec<Node>,
    /// Slots of evicted or invalidated nodes, reused before the slab grows.
    free: Vec<u32>,
}

/// Slab slot of the list sentinel.
const SENTINEL: u32 = 0;

#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    bytes: u64,
    prev: u32,
    next: u32,
}

impl Node {
    /// The sentinel of an empty list links to itself.
    const EMPTY_LIST: Node = Node {
        key: 0,
        bytes: 0,
        prev: SENTINEL,
        next: SENTINEL,
    };
}

impl ObjectLru {
    /// Create a cache with the given byte budget.
    pub fn new(capacity: u64) -> ObjectLru {
        ObjectLru {
            capacity,
            used: 0,
            map: DenseU64Map::new(),
            slab: vec![Node::EMPTY_LIST],
            free: Vec::new(),
        }
    }

    #[inline]
    fn node(&mut self, slot: u32) -> &mut Node {
        &mut self.slab[num::usize_from_u32(slot)]
    }

    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = *self.node(slot);
        self.node(prev).next = next;
        self.node(next).prev = prev;
    }

    #[inline]
    fn push_front(&mut self, slot: u32) {
        let first = self.node(SENTINEL).next;
        let node = self.node(slot);
        node.prev = SENTINEL;
        node.next = first;
        self.node(first).prev = slot;
        self.node(SENTINEL).next = slot;
    }

    #[inline]
    fn move_to_front(&mut self, slot: u32) {
        self.unlink(slot);
        self.push_front(slot);
    }

    /// Unlink a resident node and release its slot and bytes.
    fn remove_slot(&mut self, slot: u32) {
        self.unlink(slot);
        let Node { key, bytes, .. } = *self.node(slot);
        self.map.remove(key);
        self.free.push(slot);
        self.used -= bytes;
    }

    /// Evict the least recently used object, if any.
    fn evict_lru(&mut self) {
        let tail = self.node(SENTINEL).prev;
        if tail != SENTINEL {
            self.remove_slot(tail);
        }
    }

    /// Install a non-resident object at the MRU end. Returns false, and
    /// leaves the cache as it was, only when the slab already holds
    /// `u32::MAX` nodes.
    fn install(&mut self, key: u64, bytes: u64) -> bool {
        let node = Node {
            key,
            bytes,
            prev: SENTINEL,
            next: SENTINEL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                *self.node(slot) = node;
                slot
            }
            None => {
                let Ok(slot) = u32::try_from(self.slab.len()) else {
                    return false;
                };
                self.slab.push(node);
                slot
            }
        };
        self.push_front(slot);
        self.map.insert(key, slot);
        self.used += bytes;
        true
    }

    /// Number of resident objects.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Is an object resident?
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(key)
    }

    /// Mark an object most-recently-used without changing its footprint.
    /// Returns false when the object is not resident.
    pub fn touch(&mut self, key: u64) -> bool {
        match self.map.get(key) {
            Some(&slot) => {
                self.move_to_front(slot);
                true
            }
            None => false,
        }
    }

    /// Install (or refresh) an object and report which objects were
    /// evicted to make room — the API DRAM-cache simulations need, where
    /// the caller must charge write-back costs for dirty victims.
    /// Oversized objects (bigger than the whole budget) are not admitted
    /// and evict nothing.
    pub fn insert_reporting(&mut self, key: u64, bytes: u64) -> Vec<u64> {
        let mut evicted = Vec::new();
        self.insert_with(key, bytes, |victim| evicted.push(victim));
        evicted
    }

    /// [`Self::insert_reporting`] for callers that do not need the
    /// victims: same admission and eviction, no allocation.
    pub fn insert(&mut self, key: u64, bytes: u64) {
        self.insert_with(key, bytes, |_| {});
    }

    fn insert_with(&mut self, key: u64, bytes: u64, mut on_evict: impl FnMut(u64)) {
        if bytes == 0 || bytes > self.capacity {
            return;
        }
        if let Some(&slot) = self.map.get(key) {
            // Refresh: adjust footprint in place, then ensure capacity.
            self.move_to_front(slot);
            let node = self.node(slot);
            let cached = node.bytes;
            node.bytes = bytes;
            self.used = self.used - cached + bytes;
        } else if !self.install(key, bytes) {
            return;
        }
        while self.used > self.capacity {
            // The object just installed sits at the MRU end; it is never
            // its own victim (capacity guards ensure only others go).
            let tail = self.node(SENTINEL).prev;
            let victim = self.node(tail).key;
            if tail == SENTINEL || victim == key {
                break;
            }
            on_evict(victim);
            self.remove_slot(tail);
        }
    }
}

impl Cache for ObjectLru {
    fn access(&mut self, key: u64, bytes: u64) -> CacheOutcome {
        if bytes == 0 {
            return CacheOutcome::default();
        }
        if let Some(&slot) = self.map.get(key) {
            // Size may have changed (value overwritten with a new size):
            // treat a size change as a miss of the delta, conservatively a
            // full miss if it grew beyond the cached footprint.
            self.move_to_front(slot);
            let cached = self.node(slot).bytes;
            if bytes <= cached {
                return CacheOutcome {
                    hit_bytes: bytes,
                    miss_bytes: 0,
                };
            }
            let grow = bytes - cached;
            if self.used + grow <= self.capacity {
                self.used += grow;
                self.node(slot).bytes = bytes;
                return CacheOutcome {
                    hit_bytes: cached,
                    miss_bytes: grow,
                };
            }
            // Cannot grow in place; fall through to full reinstall below.
            self.remove_slot(slot);
        }
        if bytes <= self.capacity {
            while self.used + bytes > self.capacity {
                self.evict_lru();
            }
            self.install(key, bytes);
        }
        // Installed, or a streaming object larger than the LLC that
        // bypasses it: a full miss either way.
        CacheOutcome {
            hit_bytes: 0,
            miss_bytes: bytes,
        }
    }

    fn invalidate(&mut self, key: u64) {
        if let Some(&slot) = self.map.get(key) {
            self.remove_slot(slot);
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slab.truncate(1);
        self.slab[0] = Node::EMPTY_LIST;
        self.free.clear();
        self.used = 0;
    }

    fn resident_bytes(&self) -> u64 {
        self.used
    }
}

/// Line-granular set-associative LRU cache.
///
/// Object keys are mapped to disjoint simulated address ranges (key << 40 |
/// offset), lines are `line_bytes` wide, and each set keeps `ways` tags
/// with an LRU stamp. This mirrors a physical LLC closely enough to
/// validate the object-granular approximation.
pub struct SetAssociative {
    line_bytes: u64,
    ways: usize,
    sets: usize,
    /// `sets * ways` entries: (tag, stamp); tag == u64::MAX means empty.
    tags: Vec<(u64, u64)>,
    stamp: u64,
    resident_lines: u64,
}

impl SetAssociative {
    /// Build a cache of `capacity_bytes` with the given geometry. The set
    /// count is rounded down to a power of two.
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> SetAssociative {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways >= 1);
        let lines = (capacity_bytes / line_bytes).max(1);
        let sets = (num::usize_from_u64(lines) / ways)
            .max(1)
            .next_power_of_two()
            >> 1;
        let sets = sets.max(1);
        SetAssociative {
            line_bytes,
            ways,
            sets,
            tags: vec![(u64::MAX, 0); sets * ways],
            stamp: 0,
            resident_lines: 0,
        }
    }

    fn set_index(&self, line_addr: u64) -> usize {
        // Multiplicative hash spreads object-id high bits into sets.
        let h = line_addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        num::usize_from_u64(h >> 32) & (self.sets - 1)
    }

    fn touch_line(&mut self, line_addr: u64) -> bool {
        self.stamp += 1;
        let set = self.set_index(line_addr);
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        // Hit?
        for slot in slots.iter_mut() {
            if slot.0 == line_addr {
                slot.1 = self.stamp;
                return true;
            }
        }
        // Miss: fill the LRU (or empty) way.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, slot) in slots.iter().enumerate() {
            if slot.0 == u64::MAX {
                victim = i;
                break;
            }
            if slot.1 < oldest {
                oldest = slot.1;
                victim = i;
            }
        }
        if slots[victim].0 == u64::MAX {
            self.resident_lines += 1;
        }
        slots[victim] = (line_addr, self.stamp);
        false
    }
}

impl Cache for SetAssociative {
    fn access(&mut self, key: u64, bytes: u64) -> CacheOutcome {
        if bytes == 0 {
            return CacheOutcome::default();
        }
        let base = key << 24; // disjoint 16 MiB address window per object
        let lines = bytes.div_ceil(self.line_bytes);
        let mut hit_lines = 0;
        for l in 0..lines {
            if self.touch_line((base + l * self.line_bytes) / self.line_bytes) {
                hit_lines += 1;
            }
        }
        let hit_bytes = (hit_lines * self.line_bytes).min(bytes);
        CacheOutcome {
            hit_bytes,
            miss_bytes: bytes - hit_bytes,
        }
    }

    fn invalidate(&mut self, key: u64) {
        let prefix = (key << 24) / self.line_bytes;
        // Object lines all share the high bits of the line address.
        let window = (1u64 << 24) / self.line_bytes;
        for slot in &mut self.tags {
            if slot.0 != u64::MAX && slot.0 >= prefix && slot.0 < prefix + window {
                *slot = (u64::MAX, 0);
                self.resident_lines -= 1;
            }
        }
    }

    fn clear(&mut self) {
        for slot in &mut self.tags {
            *slot = (u64::MAX, 0);
        }
        self.resident_lines = 0;
        self.stamp = 0;
    }

    fn resident_bytes(&self) -> u64 {
        self.resident_lines * self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn object_lru_hits_after_install() {
        let mut c = ObjectLru::new(1 << 20);
        let first = c.access(1, 1000);
        assert_eq!(
            first,
            CacheOutcome {
                hit_bytes: 0,
                miss_bytes: 1000
            }
        );
        let second = c.access(1, 1000);
        assert_eq!(
            second,
            CacheOutcome {
                hit_bytes: 1000,
                miss_bytes: 0
            }
        );
        assert_eq!(c.resident_bytes(), 1000);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn object_lru_evicts_least_recent() {
        let mut c = ObjectLru::new(2048);
        c.access(1, 1024);
        c.access(2, 1024); // full
        c.access(1, 1024); // touch 1 so 2 is LRU
        c.access(3, 1024); // evicts 2
        assert_eq!(c.access(2, 1024).hit_bytes, 0, "2 was evicted");
        assert_eq!(
            c.access(1, 1024).hit_bytes,
            0,
            "1 evicted by reinstall of 2"
        );
    }

    #[test]
    fn object_lru_bypass_for_oversized() {
        let mut c = ObjectLru::new(512);
        c.access(1, 256);
        let out = c.access(2, 4096);
        assert_eq!(out.miss_bytes, 4096);
        // Bypass must not have evicted the small resident object.
        assert_eq!(c.access(1, 256).hit_bytes, 256);
    }

    #[test]
    fn object_lru_grows_resized_objects() {
        let mut c = ObjectLru::new(4096);
        c.access(1, 1000);
        let out = c.access(1, 1500);
        assert_eq!(out.hit_bytes, 1000);
        assert_eq!(out.miss_bytes, 500);
        assert_eq!(c.resident_bytes(), 1500);
        // Shrunk access hits fully.
        assert_eq!(c.access(1, 200).hit_bytes, 200);
    }

    #[test]
    fn object_lru_invalidate_removes_footprint() {
        let mut c = ObjectLru::new(4096);
        c.access(7, 2048);
        c.invalidate(7);
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(c.access(7, 2048).hit_bytes, 0);
        // Invalidating a missing key is a no-op.
        c.invalidate(99);
    }

    #[test]
    fn object_lru_clear() {
        let mut c = ObjectLru::new(4096);
        c.access(1, 100);
        c.access(2, 100);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn object_lru_zero_byte_access_is_noop() {
        let mut c = ObjectLru::new(4096);
        assert_eq!(c.access(1, 0), CacheOutcome::default());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn insert_reporting_returns_victims_lru_first() {
        let mut c = ObjectLru::new(3000);
        assert!(c.insert_reporting(1, 1000).is_empty());
        assert!(c.insert_reporting(2, 1000).is_empty());
        assert!(c.insert_reporting(3, 1000).is_empty());
        c.touch(1); // 2 becomes LRU
        let evicted = c.insert_reporting(4, 2000);
        assert_eq!(evicted, vec![2, 3], "LRU order: 2 then 3");
        assert!(c.contains(1) && c.contains(4));
        assert_eq!(c.resident_bytes(), 3000);
    }

    #[test]
    fn insert_reporting_refresh_adjusts_footprint() {
        let mut c = ObjectLru::new(2000);
        c.insert_reporting(1, 500);
        c.insert_reporting(2, 500);
        // Growing 1 to 1600 must evict 2.
        let evicted = c.insert_reporting(1, 1600);
        assert_eq!(evicted, vec![2]);
        assert_eq!(c.resident_bytes(), 1600);
    }

    #[test]
    fn insert_reporting_rejects_oversized() {
        let mut c = ObjectLru::new(100);
        c.insert_reporting(1, 50);
        assert!(
            c.insert_reporting(2, 500).is_empty(),
            "no admission, no eviction"
        );
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn touch_reports_residency() {
        let mut c = ObjectLru::new(100);
        assert!(!c.touch(5));
        c.insert_reporting(5, 50);
        assert!(c.touch(5));
    }

    /// Straightforward reference LRU: a most-recently-used-first list
    /// searched linearly, written from the documented semantics.
    struct ReferenceLru {
        capacity: u64,
        list: Vec<(u64, u64)>,
    }

    impl ReferenceLru {
        fn used(&self) -> u64 {
            self.list.iter().map(|&(_, b)| b).sum()
        }

        fn take(&mut self, key: u64) -> Option<u64> {
            let i = self.list.iter().position(|&(k, _)| k == key)?;
            Some(self.list.remove(i).1)
        }

        fn access(&mut self, key: u64, bytes: u64) -> CacheOutcome {
            if bytes == 0 {
                return CacheOutcome::default();
            }
            if let Some(cached) = self.take(key) {
                if bytes <= cached {
                    self.list.insert(0, (key, cached));
                    return CacheOutcome {
                        hit_bytes: bytes,
                        miss_bytes: 0,
                    };
                }
                if self.used() + bytes <= self.capacity {
                    self.list.insert(0, (key, bytes));
                    return CacheOutcome {
                        hit_bytes: cached,
                        miss_bytes: bytes - cached,
                    };
                }
            }
            if bytes <= self.capacity {
                while self.used() + bytes > self.capacity {
                    self.list.pop();
                }
                self.list.insert(0, (key, bytes));
            }
            CacheOutcome {
                hit_bytes: 0,
                miss_bytes: bytes,
            }
        }

        fn insert_reporting(&mut self, key: u64, bytes: u64) -> Vec<u64> {
            if bytes == 0 || bytes > self.capacity {
                return Vec::new();
            }
            self.take(key);
            self.list.insert(0, (key, bytes));
            let mut evicted = Vec::new();
            while self.used() > self.capacity {
                let (victim, _) = self.list[self.list.len() - 1];
                if victim == key {
                    break;
                }
                self.list.pop();
                evicted.push(victim);
            }
            evicted
        }

        fn touch(&mut self, key: u64) -> bool {
            match self.take(key) {
                Some(bytes) => {
                    self.list.insert(0, (key, bytes));
                    true
                }
                None => false,
            }
        }
    }

    /// Dense keys plus two that spill out of the residency index's
    /// dense range.
    const KEYS: [u64; 8] = [0, 1, 2, 3, 5, 8, 1 << 40, u64::MAX];

    proptest! {
        #[test]
        fn object_lru_matches_reference_lru(
            capacity in 1u64..3_000,
            ops in proptest::collection::vec((0u8..7, 0usize..8, 0u64..1_600), 1..200)
        ) {
            let mut lru = ObjectLru::new(capacity);
            let mut reference = ReferenceLru { capacity, list: Vec::new() };
            for (op, k, bytes) in ops {
                let key = KEYS[k];
                match op {
                    0 | 1 => prop_assert_eq!(lru.access(key, bytes), reference.access(key, bytes)),
                    2 => prop_assert_eq!(
                        lru.insert_reporting(key, bytes),
                        reference.insert_reporting(key, bytes)
                    ),
                    3 => {
                        lru.insert(key, bytes);
                        reference.insert_reporting(key, bytes);
                    }
                    4 => prop_assert_eq!(lru.touch(key), reference.touch(key)),
                    5 => {
                        lru.invalidate(key);
                        reference.take(key);
                    }
                    _ if bytes % 8 == 0 => {
                        lru.clear();
                        reference.list.clear();
                    }
                    _ => prop_assert_eq!(lru.access(key, bytes), reference.access(key, bytes)),
                }
                prop_assert_eq!(lru.resident_bytes(), reference.used());
                prop_assert_eq!(lru.len(), reference.list.len());
                for key in KEYS {
                    prop_assert_eq!(lru.contains(key), reference.list.iter().any(|&(k, _)| k == key));
                }
            }
            // Same recency order: draining by oversubscription evicts in
            // the reference's LRU order.
            let drained = lru.insert_reporting(7, capacity);
            prop_assert_eq!(drained, reference.insert_reporting(7, capacity));
        }
    }

    #[test]
    fn no_cache_misses_everything() {
        let mut c = NoCache;
        assert_eq!(c.access(1, 123).miss_bytes, 123);
        assert_eq!(c.access(1, 123).miss_bytes, 123);
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn set_associative_basic_hit() {
        let mut c = SetAssociative::new(1 << 20, 64, 16);
        let first = c.access(1, 4096);
        assert_eq!(first.miss_bytes, 4096);
        let second = c.access(1, 4096);
        assert_eq!(second.hit_bytes, 4096);
    }

    #[test]
    fn set_associative_evicts_under_pressure() {
        let mut c = SetAssociative::new(8 << 10, 64, 4); // tiny: 128 lines
                                                         // Stream 64 distinct 1 KiB objects (16 lines each = 1024 lines).
        for k in 0..64u64 {
            c.access(k, 1024);
        }
        // Object 0 should long be gone.
        let again = c.access(0, 1024);
        assert!(again.hit_bytes < 1024, "expected at least partial eviction");
    }

    #[test]
    fn set_associative_invalidate() {
        let mut c = SetAssociative::new(1 << 20, 64, 16);
        c.access(3, 2048);
        assert!(c.resident_bytes() >= 2048);
        c.invalidate(3);
        assert_eq!(c.access(3, 2048).hit_bytes, 0);
    }

    #[test]
    fn models_agree_on_small_hot_set() {
        // A working set far below capacity must converge to all-hit under
        // both models.
        let mut a = ObjectLru::new(1 << 20);
        let mut b = SetAssociative::new(1 << 20, 64, 16);
        for round in 0..3 {
            for k in 0..8u64 {
                let oa = a.access(k, 4096);
                let ob = b.access(k, 4096);
                if round > 0 {
                    assert_eq!(oa.hit_bytes, 4096, "object model round {round} key {k}");
                    assert_eq!(ob.hit_bytes, 4096, "line model round {round} key {k}");
                }
            }
        }
    }

    #[test]
    fn config_builders() {
        assert_eq!(CacheConfig::paper_llc().capacity_bytes, 12 << 20);
        assert_eq!(CacheConfig::disabled().kind, CacheKind::None);
        let mut c = CacheConfig::line_granular().build();
        assert_eq!(c.access(1, 64).miss_bytes, 64);
    }

    #[test]
    fn hit_time_scales_with_bytes() {
        let cfg = CacheConfig::paper_llc();
        assert_eq!(cfg.hit_ns(0), 0.0);
        assert!(cfg.hit_ns(4096) > cfg.hit_ns(64));
    }
}
