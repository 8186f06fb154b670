//! Memcached-like engine: slab-allocated, protocol-heavy server.
//!
//! Values live in power-law slab classes (base 96 bytes, 1.25 growth
//! factor, as memcached's default `-f 1.25`), each item carrying a fixed
//! header. The per-op fixed cost is high — memcached's value to the paper
//! is precisely that its protocol/client path *masks* memory latency,
//! which is why Fig. 9 shows it running fully on SlowMem inside a 10%
//! slowdown budget.

use crate::engine::{EngineCore, EngineError, KvEngine};
use crate::profile::StoreKind;
use hybridmem::{AccessKind, CacheOutcome, ChargeLanes, OwnTier, PairNs, Quote, TierId, TierStack};

/// memcached's per-item header (item struct + CAS + key).
const ITEM_HEADER_BYTES: u64 = 48;
/// Smallest slab chunk.
const SLAB_BASE_BYTES: u64 = 96;
/// Slab growth factor (memcached default 1.25).
const SLAB_GROWTH: f64 = 1.25;
/// Largest slab chunk (1 MiB, memcached's default item size limit).
const SLAB_MAX_BYTES: u64 = 1 << 20;

/// Number of slab classes: every `SLAB_GROWTH` step below
/// `SLAB_MAX_BYTES`, plus the 1 MiB class itself.
const SLAB_CLASS_COUNT: usize = {
    let mut n = 1;
    let mut size = SLAB_BASE_BYTES as f64;
    while (size as u64) < SLAB_MAX_BYTES {
        n += 1;
        size *= SLAB_GROWTH;
    }
    n
};

/// The slab chunk sizes, smallest to largest, computed once at compile
/// time with the same float recurrence memcached uses at start-up.
static SLAB_CLASSES: [u64; SLAB_CLASS_COUNT] = {
    let mut classes = [SLAB_MAX_BYTES; SLAB_CLASS_COUNT];
    let mut i = 0;
    let mut size = SLAB_BASE_BYTES as f64;
    while (size as u64) < SLAB_MAX_BYTES {
        classes[i] = size as u64;
        i += 1;
        size *= SLAB_GROWTH;
    }
    classes
};

/// All slab chunk sizes, smallest to largest.
pub fn slab_classes() -> &'static [u64] {
    &SLAB_CLASSES
}

/// Position of the smallest class that holds `bytes`, clamped to the
/// largest class for oversized items (which [`MemcachedLike`] refuses
/// to load).
fn class_index(bytes: u64) -> usize {
    SLAB_CLASSES
        .partition_point(|&c| c < bytes)
        .min(SLAB_CLASS_COUNT - 1)
}

/// The chunk size an item of `bytes` (value + header) is stored in.
pub fn slab_chunk_for(bytes: u64) -> u64 {
    SLAB_CLASSES[class_index(bytes)]
}

/// Memcached-like key-value engine.
pub struct MemcachedLike {
    core: EngineCore,
    /// Per-slab-class item counts, indexed by class position.
    class_counts: [u64; SLAB_CLASS_COUNT],
}

impl MemcachedLike {
    /// Build over a fresh memory system.
    pub fn new(mem: TierStack) -> MemcachedLike {
        MemcachedLike {
            core: EngineCore::new(StoreKind::Memcached.profile(), mem),
            class_counts: [0; SLAB_CLASS_COUNT],
        }
    }

    /// The one GET/UPDATE cost formula: the protocol-heavy fixed cost,
    /// the hash walk, and one copy of the value.
    fn serve<L: ChargeLanes>(
        &mut self,
        key: u64,
        kind: AccessKind,
        lanes: L,
    ) -> Result<L::Ns, EngineError> {
        let touches = self.core.profile().index_touches;
        let op = self.core.charge_op(key, kind, touches, lanes)?;
        Ok(L::Ns::from(self.core.profile().fixed_op_ns) + op.index_ns + op.value_ns)
    }

    fn bump_class(&mut self, item_bytes: u64, delta: i64) {
        let c = &mut self.class_counts[class_index(item_bytes)];
        *c = (*c as i64 + delta).max(0) as u64;
    }
}

impl KvEngine for MemcachedLike {
    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn load(&mut self, key: u64, bytes: u64, tier: TierId) -> Result<(), EngineError> {
        let item = bytes.saturating_add(ITEM_HEADER_BYTES);
        if item > SLAB_MAX_BYTES {
            return Err(EngineError::ItemTooLarge {
                key,
                item_bytes: item,
                limit: SLAB_MAX_BYTES,
            });
        }
        self.core.load(key, bytes, slab_chunk_for(item), tier)?;
        self.bump_class(item, 1);
        Ok(())
    }

    fn get(&mut self, key: u64) -> Result<f64, EngineError> {
        self.serve(key, AccessKind::Read, OwnTier)
    }

    fn put(&mut self, key: u64) -> Result<f64, EngineError> {
        self.serve(key, AccessKind::Write, OwnTier)
    }

    fn quote_pair(
        &mut self,
        key: u64,
        kind: AccessKind,
        alt: TierId,
        llc: CacheOutcome,
    ) -> Result<PairNs, EngineError> {
        self.serve(key, kind, Quote { llc, alt })
    }

    fn delete(&mut self, key: u64) -> Result<f64, EngineError> {
        let index = self
            .core
            .index_walk(key, self.core.profile().index_touches)?;
        let bytes = self.core.remove(key)?;
        self.bump_class(bytes + ITEM_HEADER_BYTES, -1);
        Ok(self.core.profile().fixed_op_ns + index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The table as memcached builds it at start-up, one float step at
    /// a time — the oracle for the compile-time table.
    fn classes_by_recurrence() -> Vec<u64> {
        let mut classes = Vec::new();
        let mut size = SLAB_BASE_BYTES as f64;
        while (size as u64) < SLAB_MAX_BYTES {
            classes.push(size as u64);
            size *= SLAB_GROWTH;
        }
        classes.push(SLAB_MAX_BYTES);
        classes
    }

    /// Linear-scan oracle: (class index, chunk) for an item of `bytes`.
    fn scan(bytes: u64) -> (usize, u64) {
        let classes = slab_classes();
        match classes.iter().position(|&c| bytes <= c) {
            Some(i) => (i, classes[i]),
            None => (classes.len() - 1, SLAB_MAX_BYTES),
        }
    }

    #[test]
    fn static_table_matches_the_start_up_recurrence() {
        assert_eq!(slab_classes(), classes_by_recurrence().as_slice());
    }

    #[test]
    fn lookup_matches_linear_scan_at_every_boundary() {
        let mut probes = vec![0, 1, SLAB_MAX_BYTES + 1, 10 << 20, u64::MAX];
        for &c in slab_classes() {
            probes.extend([c - 1, c, c + 1]);
        }
        for bytes in probes {
            let (idx, chunk) = scan(bytes);
            assert_eq!(class_index(bytes), idx, "class of {bytes}");
            assert_eq!(slab_chunk_for(bytes), chunk, "chunk of {bytes}");
        }
    }

    proptest! {
        #[test]
        fn lookup_matches_linear_scan(bytes in 0u64..(4 << 20)) {
            let (idx, chunk) = scan(bytes);
            prop_assert_eq!(class_index(bytes), idx);
            prop_assert_eq!(slab_chunk_for(bytes), chunk);
        }
    }

    fn small_spec() -> TierStack {
        crate::engine::test_stack(1 << 26, 1 << 26)
    }

    #[test]
    fn slab_classes_grow_geometrically() {
        let classes = slab_classes();
        assert!(classes.len() > 20);
        assert_eq!(classes[0], SLAB_BASE_BYTES);
        assert_eq!(*classes.last().unwrap(), SLAB_MAX_BYTES);
        for w in classes.windows(2) {
            assert!(w[1] > w[0]);
            let ratio = w[1] as f64 / w[0] as f64;
            assert!(
                ratio <= 1.26 + 1e-9 || w[1] == SLAB_MAX_BYTES,
                "ratio {ratio}"
            );
        }
    }

    #[test]
    fn chunk_rounding() {
        assert_eq!(slab_chunk_for(50), 96);
        assert_eq!(slab_chunk_for(96), 96);
        assert_eq!(slab_chunk_for(97), 120);
        assert_eq!(slab_chunk_for(10 << 20), SLAB_MAX_BYTES);
    }

    #[test]
    fn slab_overhead_is_visible() {
        let mut e = MemcachedLike::new(small_spec());
        e.load(1, 100, TierId::FAST).unwrap(); // 100+48=148 -> 150-class
        assert_eq!(e.bytes_in(TierId::FAST), 150);
    }

    #[test]
    fn memcached_is_least_sensitive() {
        let mut e = MemcachedLike::new(small_spec());
        e.load(1, 100_000, TierId::FAST).unwrap();
        e.load(2, 100_000, TierId::SLOW).unwrap();
        e.get(1).unwrap();
        e.get(2).unwrap();
        e.reset_measurement_state();
        let f = e.get(1).unwrap();
        let s = e.get(2).unwrap();
        assert!(
            s / f < 1.15,
            "memcached slowdown must stay small: {}",
            s / f
        );
    }

    #[test]
    fn delete_updates_class_counts() {
        let mut e = MemcachedLike::new(small_spec());
        e.load(1, 100, TierId::FAST).unwrap();
        let before: u64 = e.class_counts.iter().sum();
        e.delete(1).unwrap();
        let after: u64 = e.class_counts.iter().sum();
        assert_eq!(before - 1, after);
        assert_eq!(e.key_count(), 0);
    }
}
