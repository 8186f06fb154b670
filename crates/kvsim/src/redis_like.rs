//! Redis-like engine: single-threaded dict server.
//!
//! Models the parts of Redis that matter for hybrid-memory sensitivity:
//! a chained hash dict whose expected probe depth grows with load factor,
//! an `robj`/SDS header per value, and a single copy of the value bytes
//! per operation. Everything else (event loop, RESP parsing, the loopback
//! network stack shared with the YCSB client) is the profile's fixed
//! per-op cost.

use crate::engine::{EngineCore, EngineError, KvEngine};
use crate::profile::StoreKind;
use hybridmem::{AccessKind, CacheOutcome, ChargeLanes, OwnTier, PairNs, Quote, TierId, TierStack};

/// Per-value header overhead (robj + SDS header + dict entry), bytes.
const VALUE_HEADER_BYTES: u64 = 64;

/// Redis-like key-value engine.
pub struct RedisLike {
    core: EngineCore,
    /// Power-of-two dict table size (doubles like Redis' dict).
    table_size: u64,
    /// [`Self::fresh_chain_scale`] at the current key count and table
    /// size, refreshed whenever either changes (`load`/`delete`) so the
    /// per-request path reads a field instead of dividing.
    chain_scale: f64,
}

impl RedisLike {
    /// Build over a fresh memory system.
    pub fn new(mem: TierStack) -> RedisLike {
        RedisLike {
            core: EngineCore::new(StoreKind::Redis.profile(), mem),
            table_size: 4,
            // An empty dict: load factor 0.
            chain_scale: 1.0,
        }
    }

    /// Current dict load factor (keys per bucket).
    pub fn load_factor(&self) -> f64 {
        self.core.key_count() as f64 / self.table_size as f64
    }

    fn maybe_grow(&mut self) {
        // Redis grows the dict when load factor reaches 1.
        while self.core.key_count() as u64 > self.table_size {
            self.table_size *= 2;
        }
    }

    /// The one GET/UPDATE cost formula: fixed cost, the dict walk scaled
    /// by the expected chain length, and one copy of the value.
    fn serve<L: ChargeLanes>(
        &mut self,
        key: u64,
        kind: AccessKind,
        lanes: L,
    ) -> Result<L::Ns, EngineError> {
        let touches = self.core.profile().index_touches;
        let op = self.core.charge_op(key, kind, touches, lanes)?;
        let index = op.index_ns * self.chain_scale;
        Ok(L::Ns::from(self.core.profile().fixed_op_ns) + index + op.value_ns)
    }

    /// Expected chain-length multiplier at the current load factor.
    fn fresh_chain_scale(&self) -> f64 {
        1.0 + self.load_factor() / 2.0
    }
}

impl KvEngine for RedisLike {
    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn load(&mut self, key: u64, bytes: u64, tier: TierId) -> Result<(), EngineError> {
        self.core
            .load(key, bytes, bytes + VALUE_HEADER_BYTES, tier)?;
        self.maybe_grow();
        self.chain_scale = self.fresh_chain_scale();
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
        // The walk runs at the pre-delete load factor.
        let walk = self
            .core
            .index_walk(key, self.core.profile().index_touches)?;
        let index = walk * self.chain_scale;
        self.core.remove(key)?;
        self.chain_scale = self.fresh_chain_scale();
        Ok(self.core.profile().fixed_op_ns + index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn small_spec() -> TierStack {
        crate::engine::test_stack(1 << 26, 1 << 26)
    }

    #[test]
    fn get_put_delete_roundtrip() {
        let mut e = RedisLike::new(small_spec());
        e.load(1, 1000, TierId::FAST).unwrap();
        assert!(e.get(1).unwrap() > 0.0);
        assert!(e.put(1).unwrap() > 0.0);
        assert!(e.delete(1).unwrap() > 0.0);
        assert_eq!(e.get(1).unwrap_err(), EngineError::UnknownKey(1));
    }

    #[test]
    fn slow_tier_is_slower_end_to_end() {
        let mut e = RedisLike::new(small_spec());
        e.load(1, 100_000, TierId::FAST).unwrap();
        e.load(2, 100_000, TierId::SLOW).unwrap();
        // Skip cache warmup effects: measure second access of each.
        e.get(1).unwrap();
        e.get(2).unwrap();
        e.reset_measurement_state();
        let f = e.get(1).unwrap();
        let s = e.get(2).unwrap();
        assert!(s > f, "slow {s} fast {f}");
        // With the fixed op cost folded in, the slowdown is bounded (the
        // paper's ~1.4x band for thumbnails).
        assert!(s / f < 2.0, "ratio {}", s / f);
    }

    #[test]
    fn writes_less_exposed_than_reads() {
        let mut e = RedisLike::new(small_spec());
        e.load(1, 100_000, TierId::SLOW).unwrap();
        e.get(1).unwrap();
        e.reset_measurement_state();
        let r = e.get(1).unwrap();
        e.reset_measurement_state();
        let w = e.put(1).unwrap();
        assert!(w < r, "write {w} read {r}");
    }

    #[test]
    fn dict_grows_with_keys() {
        let mut e = RedisLike::new(small_spec());
        for k in 0..100 {
            e.load(k, 100, TierId::FAST).unwrap();
        }
        assert!(e.load_factor() <= 1.0);
        assert_eq!(e.key_count(), 100);
    }

    #[test]
    fn header_overhead_is_accounted() {
        let mut e = RedisLike::new(small_spec());
        e.load(1, 1000, TierId::FAST).unwrap();
        assert!(e.bytes_in(TierId::FAST) >= 1000 + VALUE_HEADER_BYTES);
        assert_eq!(e.value_bytes(1), Some(1000));
    }

    #[test]
    fn migrate_between_tiers() {
        let mut e = RedisLike::new(small_spec());
        e.load(1, 1000, TierId::SLOW).unwrap();
        e.migrate(1, TierId::FAST).unwrap();
        assert_eq!(e.placement_of(1), Some(TierId::FAST));
        assert_eq!(e.bytes_in(TierId::SLOW), 0);
    }

    fn tier_of(key: u64) -> TierId {
        if key % 3 == 0 {
            TierId::SLOW
        } else {
            TierId::FAST
        }
    }

    proptest! {
        #[test]
        fn cached_chain_scale_tracks_loads_and_deletes(
            ops in proptest::collection::vec((proptest::bool::ANY, 0u64..48, 1u64..4_000), 1..120)
        ) {
            let mut e = RedisLike::new(small_spec());
            let mut live = BTreeMap::new();
            let mut peak = 0;
            for (load, key, bytes) in ops {
                if load && !live.contains_key(&key) {
                    e.load(key, bytes, tier_of(key)).unwrap();
                    live.insert(key, bytes);
                } else if !load && live.remove(&key).is_some() {
                    e.delete(key).unwrap();
                }
                peak = peak.max(live.len());
                prop_assert_eq!(e.chain_scale.to_bits(), e.fresh_chain_scale().to_bits());
            }
            // Twin: the same key set reached by a different history — a
            // fresh load plus filler keys up to the same peak (so the dict
            // grew to the same size), then the fillers deleted again.
            let mut twin = RedisLike::new(small_spec());
            for (&key, &bytes) in &live {
                twin.load(key, bytes, tier_of(key)).unwrap();
            }
            let fillers = 1_000..(1_000 + (peak - live.len()) as u64);
            for key in fillers.clone() {
                twin.load(key, 64, TierId::FAST).unwrap();
            }
            for key in fillers {
                twin.delete(key).unwrap();
            }
            prop_assert_eq!(twin.table_size, e.table_size);
            prop_assert_eq!(twin.chain_scale.to_bits(), e.chain_scale.to_bits());
            e.reset_measurement_state();
            twin.reset_measurement_state();
            for &key in live.keys() {
                prop_assert_eq!(e.get(key).unwrap().to_bits(), twin.get(key).unwrap().to_bits());
                prop_assert_eq!(e.put(key).unwrap().to_bits(), twin.put(key).unwrap().to_bits());
            }
        }
    }
}
