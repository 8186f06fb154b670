//! The [`KvEngine`] trait and the shared engine core.
//!
//! Engines simulate the *server side* of the paper's setup: they own a
//! [`TierStack`], keep a key → object mapping, and translate every
//! client operation into (a) engine-specific index work, (b) value
//! traffic through the memory system, and (c) a fixed CPU/protocol cost.
//! The returned service times are what the YCSB-style
//! [`Server`](crate::server::Server) accumulates. The paper's two-tier
//! testbed is [`StackSpec::paper_testbed`](hybridmem::StackSpec::paper_testbed);
//! every engine runs unchanged on deeper hierarchies.

use crate::profile::EngineProfile;
use hybridmem::{
    AccessKind, CacheOutcome, ChargeLanes, DenseU64Map, ObjectId, PairNs, StackError,
    StackPlacement, TierId, TierStack,
};

/// Errors surfaced by engines.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Key not loaded.
    UnknownKey(u64),
    /// Key already loaded (double `load`).
    DuplicateKey(u64),
    /// The memory system rejected an operation (or its spec).
    Memory(StackError),
    /// The engine cannot store an item this large (memcached's "object
    /// too large for cache").
    ItemTooLarge {
        /// The rejected key.
        key: u64,
        /// The item's stored size: value plus the engine's item header.
        item_bytes: u64,
        /// The largest item the engine stores.
        limit: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownKey(k) => write!(f, "unknown key {k}"),
            EngineError::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            EngineError::Memory(e) => write!(f, "memory error: {e}"),
            EngineError::ItemTooLarge {
                key,
                item_bytes,
                limit,
            } => write!(
                f,
                "object too large for cache: key {key} is a {item_bytes}-byte item, \
                 the limit is {limit} bytes"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StackError> for EngineError {
    fn from(e: StackError) -> Self {
        EngineError::Memory(e)
    }
}

/// A simulated key-value store engine.
///
/// An engine adds its index and allocation behaviour on top of an
/// [`EngineCore`]; everything that is plain key-table or memory-system
/// bookkeeping has a default that goes through the core.
pub trait KvEngine: Send {
    /// The shared key table and memory system.
    fn core(&self) -> &EngineCore;

    /// Mutable access to the core.
    fn core_mut(&mut self) -> &mut EngineCore;

    /// Pre-load a key of `bytes` into `tier` (dataset population — not
    /// part of the measured run, costs nothing).
    fn load(&mut self, key: u64, bytes: u64, tier: TierId) -> Result<(), EngineError>;

    /// Serve a GET; returns the simulated service time in nanoseconds.
    fn get(&mut self, key: u64) -> Result<f64, EngineError>;

    /// Serve a same-size UPDATE; returns the service time in nanoseconds.
    fn put(&mut self, key: u64) -> Result<f64, EngineError>;

    /// Serve a DELETE; returns the service time in nanoseconds.
    fn delete(&mut self, key: u64) -> Result<f64, EngineError>;

    /// Price a GET (`Read`) or UPDATE (`Write`) twice, recording
    /// nothing, for the LLC outcome `llc` of its value access (the
    /// caller probed it with [`TierStack::probe_llc`]): `own` is
    /// bit-identical to what [`Self::get`]/[`Self::put`] return on that
    /// outcome; `alt` is what it would have cost with the key's data in
    /// tier `alt`, which must be a tier of the engine's stack. Engines
    /// price both through the one cost formula behind `get`/`put`,
    /// generic over [`ChargeLanes`], in a [`hybridmem::Quote`] lane: no
    /// device or cache statistics move and the LLC is not touched. Unless
    /// [`Self::quote_is_pure`] says otherwise, no other state changes
    /// either, so the price is a function of the key, the op, `alt` and
    /// `llc` alone.
    fn quote_pair(
        &mut self,
        key: u64,
        kind: AccessKind,
        alt: TierId,
        llc: CacheOutcome,
    ) -> Result<PairNs, EngineError>;

    /// Whether [`Self::quote_pair`] changes no state, so that a walk may
    /// price each `(key, op, LLC outcome)` once. An engine whose price
    /// also depends on request history (a block cache) advances that
    /// state in `quote_pair`, as `get`/`put` would, and returns `false`.
    fn quote_is_pure(&self) -> bool {
        true
    }

    /// The engine's cost profile.
    fn profile(&self) -> &EngineProfile {
        self.core().profile()
    }

    /// Current tier of a key.
    fn placement_of(&self, key: u64) -> Option<TierId> {
        self.core().placement_of(key)
    }

    /// Move a key's value to `tier`, returning the simulated copy cost
    /// (zero for a no-op move). Static placement, as Mnemo's Placement
    /// Engine performs it, ignores the cost; epoch re-planning charges
    /// it to the run.
    fn migrate(&mut self, key: u64, tier: TierId) -> Result<f64, EngineError> {
        self.core_mut().migrate(key, tier)
    }

    /// Number of loaded keys.
    fn key_count(&self) -> usize {
        self.core().key_count()
    }

    /// Bytes the engine occupies in `tier`, including allocator overhead.
    fn bytes_in(&self, tier: TierId) -> u64 {
        self.core().bytes_in(tier)
    }

    /// Logical value bytes stored for a key.
    fn value_bytes(&self, key: u64) -> Option<u64> {
        self.core().value_bytes(key)
    }

    /// Reset caches and statistics between measured runs.
    fn reset_measurement_state(&mut self) {
        self.core_mut().reset_measurement_state();
    }

    /// The underlying memory system (stats, cache counters).
    fn memory(&self) -> &TierStack {
        self.core().memory()
    }

    /// Mutable access to the memory system — drivers use it to advance
    /// the devices' view of simulated time and install degradation
    /// profiles (fault injection).
    fn memory_mut(&mut self) -> &mut TierStack {
        self.core_mut().memory_mut()
    }
}

/// The two cost components of one index-plus-value operation, resolved
/// by [`EngineCore::charge_op`] with a single key lookup — in
/// nanoseconds, or one nanosecond figure per lane for a paired charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCharge<N = f64> {
    /// Cost of the engine's dependent index pointer-chases.
    pub index_ns: N,
    /// Cost of moving the value (including amplification passes).
    pub value_ns: N,
}

/// Shared implementation: key table, memory system, value traffic.
///
/// Concrete engines embed an `EngineCore` and add their index-walk and
/// allocation-rounding behaviour through the hooks they pass in.
pub struct EngineCore {
    profile: EngineProfile,
    mem: TierStack,
    /// key -> (object, logical value bytes). Trace keys are dense, so
    /// the hot-path lookup is a vector index, not a hash probe.
    table: DenseU64Map<(ObjectId, u64)>,
}

impl EngineCore {
    /// Build a core over a memory system.
    pub fn new(profile: EngineProfile, mem: TierStack) -> EngineCore {
        EngineCore {
            profile,
            mem,
            table: DenseU64Map::new(),
        }
    }

    /// The profile.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// The memory system.
    pub fn memory(&self) -> &TierStack {
        &self.mem
    }

    /// Mutable memory system (engine internals only).
    pub fn memory_mut(&mut self) -> &mut TierStack {
        &mut self.mem
    }

    /// Insert a key whose stored footprint is `stored_bytes` (the
    /// engine's rounded allocation for `value_bytes`).
    pub fn load(
        &mut self,
        key: u64,
        value_bytes: u64,
        stored_bytes: u64,
        tier: TierId,
    ) -> Result<(), EngineError> {
        if self.table.contains_key(key) {
            return Err(EngineError::DuplicateKey(key));
        }
        let id = self.mem.alloc(stored_bytes.max(1), tier)?;
        self.table.insert(key, (id, value_bytes));
        Ok(())
    }

    /// Look up a key.
    pub fn lookup(&self, key: u64) -> Result<(ObjectId, u64), EngineError> {
        self.table
            .get(key)
            .copied()
            .ok_or(EngineError::UnknownKey(key))
    }

    /// The tier currently holding a key.
    pub fn placement_of(&self, key: u64) -> Option<TierId> {
        let (id, _) = self.table.get(key).copied()?;
        self.mem.placement(id).ok().map(|p| p.tier)
    }

    /// Value traffic of one operation: one cached access over the stored
    /// object plus `(amplification - 1)` extra uncached passes (the
    /// (de)serialisation copies of object-heavy stores stream through
    /// fresh buffers, so they pay device speed again).
    fn value_ns<L: ChargeLanes>(
        &mut self,
        id: ObjectId,
        p: StackPlacement,
        value_bytes: u64,
        kind: AccessKind,
        lanes: L,
    ) -> L::Ns {
        let amp = match kind {
            AccessKind::Read => self.profile.read_amplification,
            AccessKind::Write => self.profile.write_amplification,
        };
        let mut ns = lanes.access_at(&mut self.mem, id, p, kind);
        if amp > 1.0 {
            ns = ns + lanes.touch_n(&mut self.mem, p.tier, kind, value_bytes, 1) * (amp - 1.0);
        }
        ns
    }

    /// `touches` dependent metadata pointer-chases in the key's tier.
    /// Resolved with one lookup and charged as a batch — bit-identical
    /// to `touches` separate single-touch charges, since every touch in
    /// the chain is the same size in the same tier.
    pub fn index_walk(&mut self, key: u64, touches: u32) -> Result<f64, EngineError> {
        if touches == 0 {
            return Ok(0.0);
        }
        let (id, _) = self.lookup(key)?;
        let tier = self.mem.placement(id)?.tier;
        let bytes = self.profile.touch_bytes;
        Ok(self
            .mem
            .touch_n(tier, AccessKind::Read, bytes, u64::from(touches)))
    }

    /// The full index + value charge of one operation, with the key
    /// lookup and placement probe done once instead of once per
    /// component. Charges the index walk first, then the value traffic
    /// — the same device-access order as the unbatched sequence, so
    /// stats and totals stay bit-identical. Priced in `lanes`: with
    /// [`hybridmem::OwnTier`] each component is the plain `f64` charge,
    /// recorded; with [`hybridmem::Quote`] it is quoted, unrecorded, in
    /// the key's tier and in the alternative tier, on an LLC outcome
    /// already probed.
    pub fn charge_op<L: ChargeLanes>(
        &mut self,
        key: u64,
        kind: AccessKind,
        touches: u32,
        lanes: L,
    ) -> Result<OpCharge<L::Ns>, EngineError> {
        let (id, value_bytes) = self.lookup(key)?;
        let p = self.mem.placement(id)?;
        let index_ns = lanes.touch_n(
            &mut self.mem,
            p.tier,
            AccessKind::Read,
            self.profile.touch_bytes,
            u64::from(touches),
        );
        let value_ns = self.value_ns(id, p, value_bytes, kind, lanes);
        Ok(OpCharge { index_ns, value_ns })
    }

    /// Remove a key, freeing its storage.
    pub fn remove(&mut self, key: u64) -> Result<u64, EngineError> {
        let (id, value_bytes) = self.table.remove(key).ok_or(EngineError::UnknownKey(key))?;
        self.mem.free(id)?;
        Ok(value_bytes)
    }

    /// Migrate a key's object, returning the simulated copy cost.
    pub fn migrate(&mut self, key: u64, tier: TierId) -> Result<f64, EngineError> {
        let (id, _) = self.lookup(key)?;
        Ok(self.mem.migrate(id, tier)?)
    }

    /// Number of keys.
    pub fn key_count(&self) -> usize {
        self.table.len()
    }

    /// Logical value bytes of a key.
    pub fn value_bytes(&self, key: u64) -> Option<u64> {
        self.table.get(key).map(|&(_, b)| b)
    }

    /// Engine bytes in a tier (device accounting).
    pub fn bytes_in(&self, tier: TierId) -> u64 {
        self.mem.used(tier)
    }

    /// Reset measurement state.
    pub fn reset_measurement_state(&mut self) {
        self.mem.reset_measurement_state();
    }
}

/// The paper testbed with both tiers resized, as a two-tier stack —
/// the memory system the engine unit tests run on.
#[cfg(test)]
pub(crate) fn test_stack(fast_capacity: u64, slow_capacity: u64) -> TierStack {
    let mut spec = hybridmem::StackSpec::paper_testbed();
    spec.tiers[0].capacity_bytes = fast_capacity;
    spec.tiers[1].capacity_bytes = slow_capacity;
    TierStack::new(spec).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::StoreKind;
    use crate::server::make_engine;
    use hybridmem::{CacheOutcome, OwnTier, StackSpec};

    const FAST: TierId = TierId::FAST;
    const SLOW: TierId = TierId::SLOW;

    fn core() -> EngineCore {
        EngineCore::new(StoreKind::Redis.profile(), test_stack(1 << 24, 1 << 24))
    }

    #[test]
    fn load_lookup_remove() {
        let mut c = core();
        c.load(1, 100, 128, FAST).unwrap();
        assert_eq!(c.key_count(), 1);
        assert_eq!(c.value_bytes(1), Some(100));
        assert_eq!(c.placement_of(1), Some(FAST));
        assert_eq!(
            c.load(1, 100, 128, FAST).unwrap_err(),
            EngineError::DuplicateKey(1)
        );
        assert_eq!(c.remove(1).unwrap(), 100);
        assert_eq!(c.lookup(1).unwrap_err(), EngineError::UnknownKey(1));
    }

    /// The value component of a charge with no index walk.
    fn value_traffic(c: &mut EngineCore, key: u64, kind: AccessKind) -> f64 {
        c.charge_op(key, kind, 0, OwnTier).unwrap().value_ns
    }

    #[test]
    fn value_traffic_depends_on_tier() {
        let mut c = core();
        c.load(1, 100_000, 100_000, FAST).unwrap();
        c.load(2, 100_000, 100_000, SLOW).unwrap();
        let tf = value_traffic(&mut c, 1, AccessKind::Read);
        let ts = value_traffic(&mut c, 2, AccessKind::Read);
        assert!(ts > 3.0 * tf, "slow {ts} fast {tf}");
    }

    #[test]
    fn index_walk_scales_with_touches() {
        let mut c = core();
        c.load(1, 64, 64, SLOW).unwrap();
        let one = c.index_walk(1, 1).unwrap();
        let ten = c.index_walk(1, 10).unwrap();
        assert!((ten - 10.0 * one).abs() < 1e-6);
    }

    #[test]
    fn charge_op_is_bit_identical_to_unbatched_components() {
        for kind in [AccessKind::Read, AccessKind::Write] {
            let mut split = core();
            let mut fused = core();
            for c in [&mut split, &mut fused] {
                c.load(1, 100_000, 100_000, SLOW).unwrap();
                // Warm the cache so all paths see the same hit pattern.
                value_traffic(c, 1, kind);
            }
            let index = split.index_walk(1, 5).unwrap();
            let value = value_traffic(&mut split, 1, kind);
            let op = fused.charge_op(1, kind, 5, OwnTier).unwrap();
            assert_eq!(index.to_bits(), op.index_ns.to_bits(), "{kind:?}");
            assert_eq!(value.to_bits(), op.value_ns.to_bits(), "{kind:?}");
            assert_eq!(
                split.memory().tier_stats(SLOW),
                fused.memory().tier_stats(SLOW)
            );
        }
    }

    /// What `get`/`put` charge (and record) for one request.
    fn recorded(e: &mut dyn KvEngine, key: u64, kind: AccessKind) -> f64 {
        match kind {
            AccessKind::Read => e.get(key),
            AccessKind::Write => e.put(key),
        }
        .unwrap()
    }

    /// A key's object and its stored bytes.
    fn object(e: &dyn KvEngine, key: u64) -> (ObjectId, u64) {
        let (id, _) = e.core().lookup(key).unwrap();
        (id, e.memory().placement(id).unwrap().bytes)
    }

    #[test]
    fn quote_pair_is_the_recorded_charge_on_every_llc_outcome() {
        let mut spec = StackSpec::paper_testbed();
        spec.tiers[0].capacity_bytes = 1 << 26;
        spec.tiers[1].capacity_bytes = 1 << 26;
        // A small LLC, so that every store's largest object (Memcached
        // caps its slab chunks at 1 MiB) can bypass it.
        spec.cache.capacity_bytes = 1 << 16;
        let whole = |bytes, hit: bool| CacheOutcome {
            hit_bytes: if hit { bytes } else { 0 },
            miss_bytes: if hit { 0 } else { bytes },
        };
        // Key 1 fits the LLC: a miss, then a hit. Key 2 is larger than
        // the LLC and bypasses it: a miss every time.
        let steps = [(1, false), (1, true), (2, false), (2, false)];
        for store in [
            StoreKind::Redis,
            StoreKind::Memcached,
            StoreKind::Dynamo,
            StoreKind::Rocks,
        ] {
            let build = |tier| {
                let mut e = make_engine(store, spec.clone()).unwrap();
                e.load(1, 4096, tier).unwrap();
                e.load(2, 1 << 17, tier).unwrap();
                e
            };
            for kind in [AccessKind::Read, AccessKind::Write] {
                let cell = format!("{store} {kind:?}");
                let (mut own, mut alt, mut quoted) = (build(SLOW), build(FAST), build(SLOW));
                for (key, hit) in steps {
                    let (id, bytes) = object(quoted.as_ref(), key);
                    let outcome = quoted.memory_mut().probe_llc(id, bytes);
                    assert_eq!(outcome, whole(bytes, hit), "{cell}: key {key}");
                    let mem = quoted.memory();
                    let before = (*mem.tier_stats(FAST), *mem.tier_stats(SLOW));
                    let cache_before = mem.cache_stats();
                    let quote = quoted.quote_pair(key, kind, FAST, outcome).unwrap();
                    let mem = quoted.memory();
                    assert_eq!(
                        (*mem.tier_stats(FAST), *mem.tier_stats(SLOW)),
                        before,
                        "{cell}: a quote records no device traffic"
                    );
                    assert_eq!(mem.cache_stats(), cache_before, "{cell}");
                    let (own_ns, alt_ns) = (
                        recorded(own.as_mut(), key, kind),
                        recorded(alt.as_mut(), key, kind),
                    );
                    assert_eq!(quote.own.to_bits(), own_ns.to_bits(), "{cell}: key {key}");
                    assert_eq!(quote.alt.to_bits(), alt_ns.to_bits(), "{cell}: key {key}");
                }
                // A quote leaves LLC residency alone: a cold object
                // quoted as a hit is still cold, and a resident one
                // quoted as a miss is still resident.
                let mut probe = build(SLOW);
                let (id, bytes) = object(probe.as_ref(), 1);
                probe.quote_pair(1, kind, FAST, whole(bytes, true)).unwrap();
                let mem = probe.memory_mut();
                assert_eq!(mem.probe_llc(id, bytes), whole(bytes, false), "{cell}");
                probe
                    .quote_pair(1, kind, FAST, whole(bytes, false))
                    .unwrap();
                let mem = probe.memory_mut();
                assert_eq!(mem.probe_llc(id, bytes), whole(bytes, true), "{cell}");
            }
        }
    }

    #[test]
    fn charge_op_unknown_key_errors() {
        let mut c = core();
        assert_eq!(
            c.charge_op(9, AccessKind::Read, 3, OwnTier).unwrap_err(),
            EngineError::UnknownKey(9)
        );
    }

    #[test]
    fn migrate_updates_placement() {
        let mut c = core();
        c.load(1, 100, 128, SLOW).unwrap();
        c.migrate(1, FAST).unwrap();
        assert_eq!(c.placement_of(1), Some(FAST));
        assert_eq!(c.bytes_in(SLOW), 0);
    }

    #[test]
    fn migrate_returns_the_copy_cost() {
        let mut c = core();
        c.load(1, 10_000, 10_000, SLOW).unwrap();
        let cost = c.migrate(1, FAST).unwrap();
        let spec = c.memory().spec();
        let expect = spec.tiers[1].spec.access_ns(AccessKind::Read, 10_000)
            + spec.tiers[0].spec.access_ns(AccessKind::Write, 10_000);
        assert_eq!(cost.to_bits(), expect.to_bits());
        assert_eq!(c.migrate(1, FAST).unwrap(), 0.0, "no-op moves are free");
        assert!(matches!(
            c.migrate(1, TierId(7)).unwrap_err(),
            EngineError::Memory(StackError::UnknownTier(TierId(7)))
        ));
        assert_eq!(c.placement_of(1), Some(FAST));
    }

    #[test]
    fn amplified_reads_cost_more() {
        let mut plain = EngineCore::new(StoreKind::Redis.profile(), test_stack(1 << 24, 1 << 24));
        let mut amped = EngineCore::new(StoreKind::Dynamo.profile(), test_stack(1 << 24, 1 << 24));
        plain.load(1, 50_000, 50_000, SLOW).unwrap();
        amped.load(1, 50_000, 50_000, SLOW).unwrap();
        let a = value_traffic(&mut plain, 1, AccessKind::Read);
        let b = value_traffic(&mut amped, 1, AccessKind::Read);
        assert!(b > 2.0 * a, "amplification must dominate: {b} vs {a}");
    }
}
