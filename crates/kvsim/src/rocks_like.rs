//! RocksDB-like engine: a *storage-engaged* store — the negative control
//! for Mnemo's estimation model.
//!
//! §V "Target applications": "We do not argue that the estimation model
//! will work for any data store, especially those engaging storage
//! components. Rather, data accesses that go through the storage
//! subsystem, need to be appropriately studied and modeled."
//!
//! This engine makes that claim testable. It models an LSM store whose
//! working set partially lives on disk: a block cache (LRU over value
//! bytes) fronts a simulated SSD. Reads that hit the block cache follow
//! the usual hybrid-memory path (tier placement matters); reads that
//! miss go to the SSD (placement-independent!) and admit the value into
//! the block cache. Writes land in a memtable (memory write) and charge
//! amortised compaction I/O.
//!
//! The consequence Mnemo cannot see: per-key promotion benefit now
//! depends on each key's *block-cache residency*, which correlates with
//! hotness — cold keys gain nothing from FastMem because their time goes
//! to the SSD. The `model_limits` experiment measures the resulting
//! estimate error.

use crate::engine::{EngineCore, EngineError, KvEngine};
use crate::profile::{EngineProfile, StoreKind};
use hybridmem::cache::ObjectLru;
use hybridmem::Cache as _;
use hybridmem::{AccessKind, CacheOutcome, ChargeLanes, OwnTier, PairNs, Quote, TierId, TierStack};

/// Simulated SSD: ~90 µs access latency, 500 MB/s effective bandwidth.
const SSD_LATENCY_NS: f64 = 90_000.0;
const SSD_BYTES_PER_NS: f64 = 0.5;

/// Write amortisation: memtable flush + compaction rewrite the value
/// this many times on average (classic LSM write amplification ~10, but
/// amortised across the memtable batch the per-op charge is lower).
const AMORTISED_WRITE_AMP: f64 = 2.0;

/// Fraction of the hybrid memory capacity granted to the block cache.
/// Kept deliberately small (RocksDB defaults its block cache to a small
/// share of RAM and leans on the OS page cache): on the paper testbed
/// this yields ~400 MB — enough for a zipfian head, far short of the
/// ~1 GB datasets — so the tail genuinely lives on the SSD.
const BLOCK_CACHE_FRACTION: f64 = 0.05;

/// RocksDB-like storage-engaged engine.
pub struct RocksLike {
    core: EngineCore,
    block_cache: ObjectLru,
    disk_reads: u64,
    cache_reads: u64,
}

impl RocksLike {
    /// Build over a fresh memory system; the block cache gets a fixed
    /// 5% share of the memory system's total capacity.
    pub fn new(mem: TierStack) -> RocksLike {
        let cache_bytes = (mem.spec().total_capacity() as f64 * BLOCK_CACHE_FRACTION) as u64;
        RocksLike::with_cache_bytes(mem, cache_bytes)
    }

    /// Build with an explicit block-cache budget.
    pub fn with_cache_bytes(mem: TierStack, cache_bytes: u64) -> RocksLike {
        // Storage stores have lighter in-memory metadata than Redis but a
        // deep read path; the fixed cost matches Redis-class service.
        let profile = EngineProfile {
            kind: StoreKind::Rocks,
            fixed_op_ns: 120_000.0,
            index_touches: 4,
            touch_bytes: 64,
            read_amplification: 1.0,
            write_amplification: 1.0,
        };
        RocksLike {
            core: EngineCore::new(profile, mem),
            block_cache: ObjectLru::new(cache_bytes),
            disk_reads: 0,
            cache_reads: 0,
        }
    }

    /// SSD access time for `bytes`.
    fn ssd_ns(bytes: u64) -> f64 {
        SSD_LATENCY_NS + bytes as f64 / SSD_BYTES_PER_NS
    }

    /// The one GET/UPDATE cost formula. The block cache is keyed by
    /// key, not by tier, so a paired charge sees the same hit or miss in
    /// both lanes.
    fn serve<L: ChargeLanes>(
        &mut self,
        key: u64,
        kind: AccessKind,
        lanes: L,
    ) -> Result<L::Ns, EngineError> {
        let (_, bytes) = self.core.lookup(key)?;
        let touches = self.core.profile().index_touches;
        let fixed = L::Ns::from(self.core.profile().fixed_op_ns);
        match kind {
            AccessKind::Read => {
                // A block-cache hit serves the value from memory in the
                // key's tier. A miss goes to the SSD, independent of tier
                // placement, and admits the value into the block cache
                // (a memory write in the key's tier).
                let hit = self.block_cache.touch(key);
                let traffic = if hit {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                let op = self.core.charge_op(key, traffic, touches, lanes)?;
                let data = if hit {
                    self.cache_reads += 1;
                    op.value_ns
                } else {
                    self.disk_reads += 1;
                    self.block_cache.insert(key, bytes);
                    L::Ns::from(Self::ssd_ns(bytes)) + op.value_ns
                };
                Ok(fixed + op.index_ns + data)
            }
            AccessKind::Write => {
                // Memtable write in the key's tier + amortised compaction
                // I/O; the fresh value lands in the block cache.
                let op = self
                    .core
                    .charge_op(key, AccessKind::Write, touches, lanes)?;
                let compaction = AMORTISED_WRITE_AMP * Self::ssd_ns(bytes);
                self.block_cache.insert(key, bytes);
                Ok(fixed + op.index_ns + op.value_ns + L::Ns::from(compaction))
            }
        }
    }

    /// `(block-cache reads, disk reads)` served so far.
    pub fn read_split(&self) -> (u64, u64) {
        (self.cache_reads, self.disk_reads)
    }
}

impl KvEngine for RocksLike {
    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn load(&mut self, key: u64, bytes: u64, tier: TierId) -> Result<(), EngineError> {
        // The tier reservation covers the key's *potential* block-cache
        // residency (the memory the store would use for it when hot).
        self.core.load(key, bytes, bytes + 64, tier)
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

    /// The block cache moves with every read and write, and the price
    /// of a read depends on it.
    fn quote_is_pure(&self) -> bool {
        false
    }

    fn delete(&mut self, key: u64) -> Result<f64, EngineError> {
        let index = self
            .core
            .index_walk(key, self.core.profile().index_touches)?;
        self.block_cache.invalidate(key);
        self.core.remove(key)?;
        Ok(self.core.profile().fixed_op_ns + index)
    }

    fn reset_measurement_state(&mut self) {
        self.core.reset_measurement_state();
        self.block_cache.clear();
        self.disk_reads = 0;
        self.cache_reads = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> TierStack {
        let mut spec = hybridmem::StackSpec::paper_testbed();
        spec.tiers[0].capacity_bytes = 1 << 27;
        spec.tiers[1].capacity_bytes = 1 << 27;
        spec.cache = hybridmem::CacheConfig::disabled();
        TierStack::new(spec).unwrap()
    }

    #[test]
    fn cold_reads_hit_disk_then_cache() {
        let mut e = RocksLike::new(small_spec());
        e.load(1, 100_000, TierId::FAST).unwrap();
        let cold = e.get(1).unwrap();
        let warm = e.get(1).unwrap();
        assert!(
            cold > warm + SSD_LATENCY_NS,
            "cold {cold} must include SSD time"
        );
        assert_eq!(e.read_split(), (1, 1));
    }

    #[test]
    fn disk_reads_are_placement_independent() {
        let mut e = RocksLike::with_cache_bytes(small_spec(), 0); // cache nothing
        e.load(1, 100_000, TierId::FAST).unwrap();
        e.load(2, 100_000, TierId::SLOW).unwrap();
        let fast = e.get(1).unwrap();
        let slow = e.get(2).unwrap();
        // Both go to disk; only the admission write differs (small).
        let rel = (slow - fast) / fast;
        assert!(
            rel < 0.25,
            "tier placement must barely matter on disk reads: {rel}"
        );
    }

    #[test]
    fn cached_reads_are_placement_dependent() {
        let mut e = RocksLike::new(small_spec());
        e.load(1, 100_000, TierId::FAST).unwrap();
        e.load(2, 100_000, TierId::SLOW).unwrap();
        e.get(1).unwrap();
        e.get(2).unwrap(); // both now block-cached
        let fast = e.get(1).unwrap();
        let slow = e.get(2).unwrap();
        assert!(
            slow > fast * 1.2,
            "cached reads expose the tier: {slow} vs {fast}"
        );
    }

    #[test]
    fn writes_pay_compaction() {
        let mut e = RocksLike::new(small_spec());
        e.load(1, 100_000, TierId::FAST).unwrap();
        let w = e.put(1).unwrap();
        assert!(
            w > AMORTISED_WRITE_AMP * SSD_LATENCY_NS,
            "compaction I/O charged: {w}"
        );
        // And the write warms the block cache for the next read.
        let r = e.get(1).unwrap();
        assert!(r < w, "post-write read is a cache hit");
        assert_eq!(e.read_split(), (1, 0));
    }

    #[test]
    fn reset_clears_block_cache() {
        let mut e = RocksLike::new(small_spec());
        e.load(1, 50_000, TierId::FAST).unwrap();
        e.get(1).unwrap();
        e.reset_measurement_state();
        e.get(1).unwrap();
        assert_eq!(e.read_split(), (0, 1), "post-reset read must be cold");
    }
}
