//! Per-tier memory device: capacity accounting plus access timing.

use crate::degrade::{DegradationProfile, TierFactors};
use crate::spec::{AccessKind, TierId, TierSpec};
use crate::stats::AccessStats;
use std::sync::Arc;

/// Precomputed per-kind charge coefficients: `latency_ns + bytes /
/// bandwidth` is the whole nominal charge, so the per-access dispatch
/// over [`TierSpec::access_ns`]'s write factors happens once at
/// construction instead of on every access.
#[derive(Debug, Clone, Copy)]
struct ChargeRow {
    /// Fixed latency term (read latency, or read latency times the
    /// write latency factor).
    latency_ns: f64,
    /// Effective transfer bandwidth (raw, or scaled by the write
    /// overlap factor) in bytes per nanosecond.
    bandwidth: f64,
}

impl ChargeRow {
    fn table(spec: &TierSpec) -> [ChargeRow; 2] {
        [
            ChargeRow {
                latency_ns: spec.read_latency_ns,
                bandwidth: spec.bandwidth_bytes_per_ns,
            },
            ChargeRow {
                // The same products `TierSpec::access_ns` computes per
                // write, hoisted: identical operations on identical
                // inputs, so the charges stay bit-identical.
                latency_ns: spec.read_latency_ns * spec.write_latency_factor,
                bandwidth: spec.bandwidth_bytes_per_ns * spec.write_overlap_factor,
            },
        ]
    }
}

/// One memory device (a NUMA node in the paper's testbed).
#[derive(Debug, Clone)]
pub struct Device {
    tier: TierId,
    spec: TierSpec,
    capacity: u64,
    used: u64,
    stats: AccessStats,
    /// Device-local view of simulated time, set by the driving server.
    now_ns: u128,
    /// Optional time-varying degradation, consulted on every access
    /// charge and reservation at `now_ns`.
    degradation: Option<Arc<DegradationProfile>>,
    /// Per-kind flattened charge table (see [`ChargeRow`]).
    charge: [ChargeRow; 2],
    /// Degradation factors in effect at `now_ns`, re-resolved only on
    /// [`Device::set_now_ns`]/[`Device::set_degradation`] boundaries so
    /// the access path never walks the profile's windows.
    active: Option<TierFactors>,
}

/// Capacity errors raised by a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityError {
    /// The requested reservation exceeds free capacity.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes still free.
        free: u64,
    },
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapacityError::OutOfMemory { requested, free } => {
                write!(f, "out of memory: requested {requested} bytes, {free} free")
            }
        }
    }
}

impl std::error::Error for CapacityError {}

impl Device {
    /// Create a device of `capacity` bytes with the given timing. The
    /// tier id keys degradation-profile lookups.
    pub fn new(tier: TierId, spec: TierSpec, capacity: u64) -> Device {
        let charge = ChargeRow::table(&spec);
        Device {
            tier,
            spec,
            capacity,
            used: 0,
            stats: AccessStats::default(),
            now_ns: 0,
            degradation: None,
            charge,
            active: None,
        }
    }

    /// Install (or clear) a degradation profile. Shared via `Arc` so both
    /// devices of a system consult the same compiled plan.
    pub fn set_degradation(&mut self, profile: Option<Arc<DegradationProfile>>) {
        self.degradation = profile;
        self.refresh_active();
    }

    /// Advance the device's view of simulated time (monotonicity is the
    /// caller's concern; the profile lookup is a pure function of time).
    pub fn set_now_ns(&mut self, now_ns: u128) {
        self.now_ns = now_ns;
        self.refresh_active();
    }

    /// The device's current view of simulated time.
    pub fn now_ns(&self) -> u128 {
        self.now_ns
    }

    /// Re-resolve the degradation factors in effect at `now_ns`. Called
    /// only on time/profile boundaries, so the per-access path is a
    /// branch on a cached, almost-always-`None` option instead of a
    /// window walk.
    fn refresh_active(&mut self) {
        self.active = self.degradation.as_deref().and_then(|profile| {
            let f = profile.factors_at(self.tier, self.now_ns);
            if f.is_nominal() {
                None
            } else {
                Some(f)
            }
        });
    }

    /// The degradation factors in effect right now; `None` when nominal.
    fn active_factors(&self) -> Option<TierFactors> {
        self.active
    }

    /// Which tier this device implements.
    pub fn tier(&self) -> TierId {
        self.tier
    }

    /// The timing specification.
    pub fn spec(&self) -> &TierSpec {
        self.spec_ref()
    }

    fn spec_ref(&self) -> &TierSpec {
        &self.spec
    }

    /// Total nominal capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Capacity usable right now: nominal capacity minus any active
    /// degradation shrink. Existing reservations are never revoked — a
    /// shrink below `used` only blocks *new* reservations.
    pub fn effective_capacity(&self) -> u64 {
        let shrink = self
            .active_factors()
            .map(|f| f.capacity_shrink)
            .unwrap_or(0);
        self.capacity.saturating_sub(shrink)
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still free under the current effective capacity.
    pub fn free(&self) -> u64 {
        self.effective_capacity().saturating_sub(self.used)
    }

    /// Reserve `bytes`; fails when the device is full.
    pub fn reserve(&mut self, bytes: u64) -> Result<(), CapacityError> {
        if bytes > self.free() {
            return Err(CapacityError::OutOfMemory {
                requested: bytes,
                free: self.free(),
            });
        }
        self.used += bytes;
        Ok(())
    }

    /// Release a prior reservation.
    pub fn release(&mut self, bytes: u64) {
        debug_assert!(bytes <= self.used, "releasing more than reserved");
        self.used = self.used.saturating_sub(bytes);
    }

    /// The nanosecond charge for one access, without recording it. The
    /// flattened row reproduces `TierSpec::access_ns` exactly (same
    /// float operations on the same inputs), and the degraded split —
    /// latency multiplied, transfer divided — matches the window
    /// arithmetic bit for bit since `access_ns(kind, 0)` is the latency
    /// term itself.
    fn charge_ns(&self, kind: AccessKind, bytes: u64) -> f64 {
        let row = match kind {
            AccessKind::Read => self.charge[0],
            AccessKind::Write => self.charge[1],
        };
        let full = row.latency_ns + bytes as f64 / row.bandwidth;
        match self.active {
            Some(f) => row.latency_ns * f.latency_mult + (full - row.latency_ns) / f.bandwidth_mult,
            None => full,
        }
    }

    /// Nanoseconds to serve `bytes` from this device, recorded in stats.
    /// With an active degradation window the latency component is
    /// multiplied and the transfer component divided by the window's
    /// bandwidth factor; nominal accesses take the original single-call
    /// path so undegraded runs stay bit-identical to before.
    pub fn access_ns(&mut self, kind: AccessKind, bytes: u64) -> f64 {
        let ns = self.charge_ns(kind, bytes);
        self.stats.record(kind, bytes, ns);
        ns
    }

    /// Charge `n` identical accesses in one call, returning their summed
    /// cost. The per-access charge is resolved once and accumulated by
    /// repeated addition, so both the stats and the returned total are
    /// bit-identical to `n` separate [`Device::access_ns`] calls.
    pub fn access_ns_n(&mut self, kind: AccessKind, bytes: u64, n: u64) -> f64 {
        let ns = self.charge_ns(kind, bytes);
        self.stats.record_n(kind, bytes, ns, n);
        repeated_sum(ns, n)
    }

    /// What [`Device::access_ns`] would charge, without recording it:
    /// the price of a counterfactual access by data that does not live
    /// here.
    pub fn quote_ns(&self, kind: AccessKind, bytes: u64) -> f64 {
        self.charge_ns(kind, bytes)
    }

    /// What [`Device::access_ns_n`] would charge, without recording it.
    pub fn quote_ns_n(&self, kind: AccessKind, bytes: u64, n: u64) -> f64 {
        repeated_sum(self.charge_ns(kind, bytes), n)
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Reset statistics (capacity accounting is unaffected).
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }
}

/// `ns` added to zero `n` times — the float sum of `n` separate charges.
fn repeated_sum(ns: f64, n: u64) -> f64 {
    let mut total = 0.0;
    for _ in 0..n {
        total += ns;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::new(TierId::FAST, TierSpec::paper_fastmem(), 1024)
    }

    #[test]
    fn reserve_and_release_track_usage() {
        let mut d = dev();
        d.reserve(1000).unwrap();
        assert_eq!(d.used(), 1000);
        assert_eq!(d.free(), 24);
        d.release(600);
        assert_eq!(d.free(), 624);
    }

    #[test]
    fn over_reserve_fails_without_side_effects() {
        let mut d = dev();
        d.reserve(1000).unwrap();
        let err = d.reserve(100).unwrap_err();
        assert_eq!(
            err,
            CapacityError::OutOfMemory {
                requested: 100,
                free: 24
            }
        );
        assert_eq!(d.used(), 1000, "failed reserve must not change usage");
    }

    #[test]
    fn degradation_scales_latency_and_bandwidth() {
        use crate::degrade::{DegradationProfile, DegradationWindow};
        let mut d = dev();
        let nominal = d.access_ns(AccessKind::Read, 14_900);
        let profile = DegradationProfile::new().with(DegradationWindow {
            latency_mult: 2.0,
            bandwidth_mult: 0.5,
            ..DegradationWindow::nominal(TierId::FAST, 1000, 2000)
        });
        d.set_degradation(Some(Arc::new(profile)));
        // Outside the window: unchanged (bit-identical path).
        assert_eq!(d.access_ns(AccessKind::Read, 14_900), nominal);
        d.set_now_ns(1500);
        let degraded = d.access_ns(AccessKind::Read, 14_900);
        // 65.7 * 2 + 1000 / 0.5 = 2131.4 vs nominal 1065.7.
        assert!(
            (degraded - (65.7 * 2.0 + 2000.0)).abs() < 1e-6,
            "{degraded}"
        );
        d.set_now_ns(2000);
        assert_eq!(d.access_ns(AccessKind::Read, 14_900), nominal);
    }

    #[test]
    fn capacity_shrink_blocks_new_reservations_only() {
        use crate::degrade::{DegradationProfile, DegradationWindow};
        let mut d = dev();
        d.reserve(1000).unwrap();
        let profile = DegradationProfile::new().with(DegradationWindow {
            capacity_shrink: 512,
            ..DegradationWindow::nominal(TierId::FAST, 0, u128::MAX)
        });
        d.set_degradation(Some(Arc::new(profile)));
        // 1024 - 512 shrink leaves effective capacity below used: nothing
        // is revoked, but no new bytes fit.
        assert_eq!(d.effective_capacity(), 512);
        assert_eq!(d.used(), 1000);
        assert_eq!(d.free(), 0);
        assert!(d.reserve(1).is_err());
        d.release(600);
        // 512 effective - 400 used = 112 free again.
        assert_eq!(d.free(), 112);
        d.reserve(100).unwrap();
    }

    #[test]
    fn batched_access_is_bit_identical_to_n_singles() {
        use crate::degrade::{DegradationProfile, DegradationWindow};
        let mut singles = dev();
        let mut batched = dev();
        let profile = DegradationProfile::new().with(DegradationWindow {
            latency_mult: 1.7,
            bandwidth_mult: 0.3,
            ..DegradationWindow::nominal(TierId::FAST, 0, 1000)
        });
        singles.set_degradation(Some(Arc::new(profile.clone())));
        batched.set_degradation(Some(Arc::new(profile)));
        for now in [500u128, 5000] {
            singles.set_now_ns(now);
            batched.set_now_ns(now);
            let mut sum = 0.0;
            for _ in 0..9 {
                sum += singles.access_ns(AccessKind::Read, 100);
            }
            let total = batched.access_ns_n(AccessKind::Read, 100, 9);
            assert_eq!(sum.to_bits(), total.to_bits(), "now={now}");
            assert_eq!(singles.stats(), batched.stats(), "now={now}");
            assert_eq!(
                singles.stats().read_ns.to_bits(),
                batched.stats().read_ns.to_bits()
            );
        }
    }

    #[test]
    fn access_records_stats() {
        let mut d = dev();
        let ns = d.access_ns(AccessKind::Read, 64);
        assert!(ns > 65.0);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().read_bytes, 64);
        d.reset_stats();
        assert_eq!(d.stats().reads, 0);
    }
}
