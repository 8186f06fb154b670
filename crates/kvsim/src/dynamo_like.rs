//! DynamoDB-local-like engine: object-graph-heavy document store.
//!
//! The paper observes that "DynamoDB is severely impacted when allocating
//! data in SlowMem" (§V-A). Local DynamoDB is a JVM application storing
//! documents as attribute maps: every request walks a deep index, then
//! materialises the item as Java objects and (de)serialises it to JSON —
//! the value bytes cross memory several times. This engine models exactly
//! that: a depth-scaled index walk plus 3x read / 2x write amplification
//! over a 1.5x-inflated stored footprint.

use crate::engine::{EngineCore, EngineError, KvEngine};
use crate::profile::StoreKind;
use hybridmem::{AccessKind, CacheOutcome, ChargeLanes, OwnTier, PairNs, Quote, TierId, TierStack};

/// Fixed per-item metadata footprint (attribute map skeleton, bytes).
const ITEM_OVERHEAD_BYTES: u64 = 128;
/// JVM object-representation inflation of the stored value bytes.
const STORAGE_INFLATION: f64 = 1.5;

/// DynamoDB-local-like key-value engine.
pub struct DynamoLike {
    core: EngineCore,
    /// [`Self::fresh_index_depth`] of the core, refreshed on
    /// `load`/`delete` (it depends only on the key count) so `get`/`put`
    /// skip the logarithm.
    index_depth: u32,
}

impl DynamoLike {
    /// Build over a fresh memory system.
    pub fn new(mem: TierStack) -> DynamoLike {
        let core = EngineCore::new(StoreKind::Dynamo.profile(), mem);
        DynamoLike {
            index_depth: Self::fresh_index_depth(&core),
            core,
        }
    }

    /// Stored footprint of a value: inflated + fixed item overhead.
    pub fn stored_bytes(value_bytes: u64) -> u64 {
        (value_bytes as f64 * STORAGE_INFLATION) as u64 + ITEM_OVERHEAD_BYTES
    }

    /// The one GET/UPDATE cost formula: fixed cost, the depth-scaled
    /// index walk, and the amplified value traffic.
    fn serve<L: ChargeLanes>(
        &mut self,
        key: u64,
        kind: AccessKind,
        lanes: L,
    ) -> Result<L::Ns, EngineError> {
        let op = self.core.charge_op(key, kind, self.index_depth, lanes)?;
        Ok(L::Ns::from(self.core.profile().fixed_op_ns) + op.index_ns + op.value_ns)
    }

    /// Index-walk depth: the configured touches, deepened logarithmically
    /// with table size (a B-tree-ish index, unlike Redis' flat dict).
    fn fresh_index_depth(core: &EngineCore) -> u32 {
        let base = core.profile().index_touches;
        let n = core.key_count().max(2) as f64;
        // +1 touch per 4x growth beyond 1k items.
        let extra = ((n / 1000.0).max(1.0).log2() / 2.0) as u32;
        base + extra
    }
}

impl KvEngine for DynamoLike {
    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn load(&mut self, key: u64, bytes: u64, tier: TierId) -> Result<(), EngineError> {
        self.core
            .load(key, bytes, Self::stored_bytes(bytes), tier)?;
        self.index_depth = Self::fresh_index_depth(&self.core);
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
        // The walk runs at the pre-delete depth.
        let index = self.core.index_walk(key, self.index_depth)?;
        self.core.remove(key)?;
        self.index_depth = Self::fresh_index_depth(&self.core);
        Ok(self.core.profile().fixed_op_ns + index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redis_like::RedisLike;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn small_spec() -> TierStack {
        crate::engine::test_stack(1 << 26, 1 << 26)
    }

    #[test]
    fn storage_is_inflated() {
        assert_eq!(DynamoLike::stored_bytes(1000), 1628);
        let mut e = DynamoLike::new(small_spec());
        e.load(1, 1000, TierId::FAST).unwrap();
        assert_eq!(e.bytes_in(TierId::FAST), 1628);
        assert_eq!(e.value_bytes(1), Some(1000));
    }

    #[test]
    fn dynamo_most_sensitive_of_all_engines() {
        let slowdown_dynamo = {
            let mut e = DynamoLike::new(small_spec());
            e.load(1, 100_000, TierId::FAST).unwrap();
            e.load(2, 100_000, TierId::SLOW).unwrap();
            e.get(1).unwrap();
            e.get(2).unwrap();
            e.reset_measurement_state();
            e.get(2).unwrap() / e.get(1).unwrap()
        };
        let slowdown_redis = {
            let mut e = RedisLike::new(small_spec());
            e.load(1, 100_000, TierId::FAST).unwrap();
            e.load(2, 100_000, TierId::SLOW).unwrap();
            e.get(1).unwrap();
            e.get(2).unwrap();
            e.reset_measurement_state();
            e.get(2).unwrap() / e.get(1).unwrap()
        };
        assert!(
            slowdown_dynamo > slowdown_redis,
            "dynamo {slowdown_dynamo:.2} must exceed redis {slowdown_redis:.2}"
        );
        assert!(
            slowdown_dynamo > 1.5,
            "dynamo slowdown {slowdown_dynamo:.2}"
        );
    }

    #[test]
    fn index_deepens_with_table_size() {
        let mut small = DynamoLike::new(small_spec());
        small.load(0, 64, TierId::FAST).unwrap();
        let shallow = small.index_depth;
        let mut big = DynamoLike::new(small_spec());
        for k in 0..50_000 {
            big.load(k, 64, TierId::FAST).unwrap();
        }
        assert!(big.index_depth > shallow);
    }

    #[test]
    fn delete_removes_key() {
        let mut e = DynamoLike::new(small_spec());
        e.load(5, 500, TierId::SLOW).unwrap();
        e.delete(5).unwrap();
        assert_eq!(e.key_count(), 0);
        assert!(e.get(5).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Batches of loads and deletes move the key count across the
        /// depth's steps (4k and 16k keys) in both directions.
        #[test]
        fn cached_index_depth_tracks_loads_and_deletes(
            batches in proptest::collection::vec((proptest::bool::ANY, 0u64..6_000), 1..12)
        ) {
            let mut e = DynamoLike::new(small_spec());
            let mut live = BTreeMap::new();
            let mut next_key = 0u64;
            for (load, n) in batches {
                for _ in 0..n {
                    if load {
                        let bytes = 1 + next_key % 700;
                        e.load(next_key, bytes, TierId::SLOW).unwrap();
                        live.insert(next_key, bytes);
                        next_key += 1;
                    } else if let Some((key, _)) = live.pop_first() {
                        e.delete(key).unwrap();
                    }
                }
                prop_assert_eq!(e.index_depth, DynamoLike::fresh_index_depth(&e.core));
            }
            // The depth depends on the key count alone: an engine loaded
            // straight with the surviving keys charges bit-identically.
            let mut fresh = DynamoLike::new(small_spec());
            for (&key, &bytes) in &live {
                fresh.load(key, bytes, TierId::SLOW).unwrap();
            }
            prop_assert_eq!(fresh.index_depth, e.index_depth);
            e.reset_measurement_state();
            fresh.reset_measurement_state();
            for &key in live.keys().take(200) {
                prop_assert_eq!(e.get(key).unwrap().to_bits(), fresh.get(key).unwrap().to_bits());
                prop_assert_eq!(e.put(key).unwrap().to_bits(), fresh.put(key).unwrap().to_bits());
            }
        }
    }
}
