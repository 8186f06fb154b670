//! Whole-system counters of the simulated memory system.
//!
//! [`TierStack`](crate::stack::TierStack) is the one memory system: an
//! ordered stack of devices behind a shared LLC. The paper's FastMem /
//! SlowMem testbed is its two-tier case,
//! [`StackSpec::paper_testbed`](crate::stack::StackSpec::paper_testbed).
//! This module holds the LLC counters the stack reports and the
//! end-to-end unit tests of that two-tier configuration.

/// Cache-level counters for a whole system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses fully or partially served from cache.
    pub hits: u64,
    /// Accesses that had to touch a device.
    pub misses: u64,
    /// Bytes served from cache.
    pub hit_bytes: u64,
    /// Bytes served from devices.
    pub miss_bytes: u64,
}

impl CacheStats {
    /// The counters accumulated since `earlier`, an older snapshot of
    /// the same system's stats. Saturating, so a reset between the two
    /// snapshots yields zeros rather than wrapping.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            hit_bytes: self.hit_bytes.saturating_sub(earlier.hit_bytes),
            miss_bytes: self.miss_bytes.saturating_sub(earlier.miss_bytes),
        }
    }

    /// Byte-level hit ratio; 0 when nothing was accessed.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hit_bytes + self.miss_bytes;
        if total == 0 {
            0.0
        } else {
            self.hit_bytes as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::spec::{AccessKind, TierId};
    use crate::stack::{StackError, StackSpec, TierStack};

    const FAST: TierId = TierId::FAST;
    const SLOW: TierId = TierId::SLOW;

    fn small_spec() -> StackSpec {
        let mut spec = StackSpec::paper_testbed();
        spec.tiers[0].capacity_bytes = 1 << 20;
        spec.tiers[1].capacity_bytes = 1 << 20;
        spec
    }

    fn system(spec: StackSpec) -> TierStack {
        TierStack::new(spec).unwrap()
    }

    fn uncached() -> TierStack {
        let mut spec = small_spec();
        spec.cache = CacheConfig::disabled();
        system(spec)
    }

    #[test]
    fn alloc_free_accounting() {
        let mut mem = system(small_spec());
        let id = mem.alloc(1000, FAST).unwrap();
        assert_eq!(mem.used(FAST), 1000);
        assert_eq!(mem.object_count(), 1);
        mem.free(id).unwrap();
        assert_eq!(mem.used(FAST), 0);
        assert_eq!(mem.object_count(), 0);
        assert_eq!(mem.free(id).unwrap_err(), StackError::UnknownObject(id));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut mem = system(small_spec());
        mem.alloc(1 << 20, TierId::FAST).unwrap();
        let err = mem.alloc(1, TierId::FAST).unwrap_err();
        assert!(matches!(err, StackError::OutOfMemory { tier: FAST, .. }));
        // Slow tier unaffected.
        mem.alloc(1, TierId::SLOW).unwrap();
    }

    #[test]
    fn over_commit_surfaces_capacity_details() {
        use crate::device::CapacityError;
        let mut mem = system(small_spec());
        mem.alloc((1 << 20) - 100, FAST).unwrap();
        let err = mem.alloc(500, FAST).unwrap_err();
        assert_eq!(
            err,
            StackError::OutOfMemory {
                tier: FAST,
                source: CapacityError::OutOfMemory {
                    requested: 500,
                    free: 100,
                },
            }
        );
        // The device-level cause is reachable through Error::source.
        let dyn_err: &dyn std::error::Error = &err;
        assert!(dyn_err.source().is_some());
    }

    #[test]
    fn degradation_profile_slows_accesses_in_window() {
        use crate::degrade::{DegradationProfile, DegradationWindow};
        let mut mem = uncached();
        let id = mem.alloc(100_000, SLOW).unwrap();
        let nominal = mem.access(id, AccessKind::Read);
        mem.set_degradation(Some(DegradationProfile::new().with(DegradationWindow {
            latency_mult: 4.0,
            bandwidth_mult: 0.25,
            ..DegradationWindow::nominal(TierId::SLOW, 1_000, 2_000)
        })));
        assert!(mem.degradation().is_some());
        mem.set_now_ns(500);
        assert_eq!(mem.access(id, AccessKind::Read), nominal);
        mem.set_now_ns(1_500);
        let degraded = mem.access(id, AccessKind::Read);
        assert!(degraded > 3.0 * nominal, "degraded {degraded} vs {nominal}");
        mem.set_now_ns(2_000);
        assert_eq!(mem.access(id, AccessKind::Read), nominal);
        mem.set_degradation(None);
        mem.set_now_ns(1_500);
        assert_eq!(mem.access(id, AccessKind::Read), nominal);
    }

    #[test]
    fn capacity_shrink_fails_allocations_during_window() {
        use crate::degrade::{DegradationProfile, DegradationWindow};
        let mut mem = system(small_spec());
        mem.set_degradation(Some(DegradationProfile::new().with(DegradationWindow {
            capacity_shrink: 1 << 20,
            ..DegradationWindow::nominal(TierId::FAST, 100, 200)
        })));
        mem.set_now_ns(150);
        assert_eq!(mem.effective_capacity(FAST), 0);
        let err = mem.alloc(1, FAST).unwrap_err();
        assert!(matches!(err, StackError::OutOfMemory { tier: FAST, .. }));
        // The window passes and the same allocation succeeds.
        mem.set_now_ns(200);
        mem.alloc(1, FAST).unwrap();
    }

    #[test]
    fn slow_reads_cost_more_when_uncached() {
        let mut mem = uncached();
        let f = mem.alloc(100_000, FAST).unwrap();
        let s = mem.alloc(100_000, SLOW).unwrap();
        let tf = mem.access(f, AccessKind::Read);
        let ts = mem.access(s, AccessKind::Read);
        assert!(ts > 5.0 * tf, "slow {ts} vs fast {tf}");
    }

    #[test]
    fn cached_rereads_are_cheap_and_tier_blind() {
        let mut mem = system(small_spec());
        let s = mem.alloc(4096, SLOW).unwrap();
        let cold = mem.access(s, AccessKind::Read);
        let warm = mem.access(s, AccessKind::Read);
        assert!(warm < cold / 5.0, "cold {cold} warm {warm}");
        assert_eq!(mem.cache_stats().hits, 1);
        assert_eq!(mem.cache_stats().misses, 1);
    }

    #[test]
    fn migration_moves_bytes_and_invalidates_cache() {
        let mut mem = system(small_spec());
        let id = mem.alloc(4096, SLOW).unwrap();
        mem.access(id, AccessKind::Read); // warm the cache
        let cost = mem.migrate(id, FAST).unwrap();
        assert!(cost > 0.0);
        assert_eq!(mem.used(FAST), 4096);
        assert_eq!(mem.used(SLOW), 0);
        // Cache was invalidated, so the next read misses (but in Fast now).
        let t = mem.access(id, AccessKind::Read);
        let warm = mem.access(id, AccessKind::Read);
        assert!(t > warm);
        assert_eq!(mem.cache_stats().misses, 2);
        // No-op migration is free.
        assert_eq!(mem.migrate(id, FAST).unwrap(), 0.0);
    }

    #[test]
    fn migration_fails_when_target_full() {
        let mut mem = system(small_spec());
        mem.alloc(1 << 20, FAST).unwrap();
        let id = mem.alloc(4096, SLOW).unwrap();
        assert!(mem.migrate(id, FAST).is_err());
        // Object still lives in Slow, and no capacity leaked.
        assert_eq!(mem.placement(id).unwrap().tier, SLOW);
        assert_eq!(mem.used(SLOW), 4096);
        assert_eq!(mem.used(FAST), 1 << 20);
    }

    #[test]
    fn touch_charges_raw_device_time() {
        let mut mem = system(small_spec());
        let tf = mem.touch_n(FAST, AccessKind::Read, 64, 1);
        let ts = mem.touch_n(SLOW, AccessKind::Read, 64, 1);
        assert!(ts > 3.0 * tf);
        assert_eq!(mem.tier_stats(SLOW).reads, 1);
        // A batched chain charges and counts like separate touches.
        let chain = mem.touch_n(SLOW, AccessKind::Read, 64, 4);
        assert_eq!(chain.to_bits(), (ts + ts + ts + ts).to_bits());
        assert_eq!(mem.tier_stats(SLOW).reads, 5);
    }

    #[test]
    fn reset_measurement_state_clears_cache_and_stats() {
        let mut mem = system(small_spec());
        let id = mem.alloc(4096, FAST).unwrap();
        mem.access(id, AccessKind::Read);
        mem.access(id, AccessKind::Read);
        mem.reset_measurement_state();
        assert_eq!(mem.cache_stats(), CacheStats::default());
        assert_eq!(mem.tier_stats(FAST).reads, 0);
        // First read after reset misses again.
        mem.access(id, AccessKind::Read);
        assert_eq!(mem.cache_stats().misses, 1);
    }

    #[test]
    fn access_unknown_object_is_zero_cost() {
        let mut mem = system(small_spec());
        let id = mem.alloc(10, FAST).unwrap();
        mem.free(id).unwrap();
        assert_eq!(mem.access(id, AccessKind::Read), 0.0);
    }

    #[test]
    fn cache_hit_ratio() {
        let mut mem = system(small_spec());
        let id = mem.alloc(1024, FAST).unwrap();
        mem.access(id, AccessKind::Read);
        mem.access(id, AccessKind::Read);
        assert!((mem.cache_stats().hit_ratio() - 0.5).abs() < 1e-12);
        let later = mem.cache_stats();
        mem.access(id, AccessKind::Read);
        assert_eq!(mem.cache_stats().since(&later).hits, 1);
    }
}
