//! Time-varying device degradation profiles.
//!
//! Real hybrid memory misbehaves: NVM latency and bandwidth drift with
//! wear and contention, and emulated-NVM testbeds exhibit transient
//! throttling artifacts. A [`DegradationProfile`] describes that
//! misbehaviour as a set of half-open sim-time windows, each scaling one
//! tier's latency, throttling its bandwidth, or shrinking its usable
//! capacity. Devices consult the profile on every access charge and
//! reservation at their currently-set sim time, so degradation is a pure
//! function of `(tier, now_ns)` — no wall clock, no hidden state — which
//! keeps faulted runs byte-identical across worker counts.
//!
//! Profiles are usually compiled from a seeded `FaultPlan` (the
//! `mnemo-faults` crate); this module only defines the mechanism the
//! devices consume.

use crate::spec::TierId;

/// Multiplicative degradation in effect at one instant for one tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierFactors {
    /// Multiplier on the latency component of every access (>= 1 slows).
    pub latency_mult: f64,
    /// Multiplier on effective bandwidth (in `(0, 1]`; smaller throttles
    /// harder). The transfer component of an access is divided by this.
    pub bandwidth_mult: f64,
    /// Bytes removed from the tier's usable capacity (wear-out or
    /// reservation loss). Existing reservations are never revoked; only
    /// new reservations see the reduced ceiling.
    pub capacity_shrink: u64,
}

impl TierFactors {
    /// No degradation at all.
    pub const NOMINAL: TierFactors = TierFactors {
        latency_mult: 1.0,
        bandwidth_mult: 1.0,
        capacity_shrink: 0,
    };

    /// Whether these factors change anything.
    pub fn is_nominal(&self) -> bool {
        self.latency_mult == 1.0 && self.bandwidth_mult == 1.0 && self.capacity_shrink == 0
    }
}

impl Default for TierFactors {
    fn default() -> TierFactors {
        TierFactors::NOMINAL
    }
}

/// One degradation window on one tier, active over `[start_ns, end_ns)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationWindow {
    /// Tier the window degrades (stack index; [`TierId::FAST`] /
    /// [`TierId::SLOW`] for the legacy two-tier pair).
    pub tier: TierId,
    /// Window start (inclusive), in simulated nanoseconds.
    pub start_ns: u128,
    /// Window end (exclusive); `u128::MAX` for an open-ended window.
    pub end_ns: u128,
    /// Latency multiplier while active (must be >= 1).
    pub latency_mult: f64,
    /// Bandwidth multiplier while active (must be in `(0, 1]`).
    pub bandwidth_mult: f64,
    /// Capacity shrink in bytes while active.
    pub capacity_shrink: u64,
}

impl DegradationWindow {
    /// A window that changes nothing but timing bounds — useful as a
    /// starting point for builders.
    pub fn nominal(tier: TierId, start_ns: u128, end_ns: u128) -> DegradationWindow {
        DegradationWindow {
            tier,
            start_ns,
            end_ns,
            latency_mult: 1.0,
            bandwidth_mult: 1.0,
            capacity_shrink: 0,
        }
    }

    /// Whether the window covers `now_ns`.
    pub fn active_at(&self, now_ns: u128) -> bool {
        self.start_ns <= now_ns && now_ns < self.end_ns
    }
}

/// A set of degradation windows consulted by the devices.
///
/// Overlapping windows compose: latency and bandwidth multipliers
/// multiply, capacity shrinks add (saturating). Composition is
/// order-independent, so profiles built from differently-ordered event
/// lists behave identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationProfile {
    windows: Vec<DegradationWindow>,
}

impl DegradationProfile {
    /// An empty (fully nominal) profile.
    pub fn new() -> DegradationProfile {
        DegradationProfile::default()
    }

    /// Add a window. Panics on non-physical factors — a latency
    /// multiplier below 1 or a bandwidth multiplier outside `(0, 1]`
    /// would model a *faster* device, which is not a fault.
    pub fn push(&mut self, window: DegradationWindow) {
        assert!(
            window.latency_mult >= 1.0 && window.latency_mult.is_finite(),
            "latency multiplier must be >= 1, got {}",
            window.latency_mult
        );
        assert!(
            window.bandwidth_mult > 0.0 && window.bandwidth_mult <= 1.0,
            "bandwidth multiplier must be in (0, 1], got {}",
            window.bandwidth_mult
        );
        assert!(
            window.start_ns < window.end_ns,
            "empty window [{}, {})",
            window.start_ns,
            window.end_ns
        );
        self.windows.push(window);
    }

    /// Builder-style [`Self::push`].
    pub fn with(mut self, window: DegradationWindow) -> DegradationProfile {
        self.push(window);
        self
    }

    /// The windows, in insertion order.
    pub fn windows(&self) -> &[DegradationWindow] {
        &self.windows
    }

    /// Whether the profile has no windows at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The composed factors in effect for `tier` at `now_ns`.
    pub fn factors_at(&self, tier: TierId, now_ns: u128) -> TierFactors {
        let mut f = TierFactors::NOMINAL;
        for w in &self.windows {
            if w.tier == tier && w.active_at(now_ns) {
                f.latency_mult *= w.latency_mult;
                f.bandwidth_mult *= w.bandwidth_mult;
                f.capacity_shrink = f.capacity_shrink.saturating_add(w.capacity_shrink);
            }
        }
        f
    }

    /// Whether *any* tier is degraded at `now_ns` (epoch-level fault
    /// telemetry keys off this).
    pub fn is_active_at(&self, now_ns: u128) -> bool {
        self.windows.iter().any(|w| w.active_at(now_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spike(tier: TierId, start: u128, end: u128, lat: f64) -> DegradationWindow {
        DegradationWindow {
            latency_mult: lat,
            ..DegradationWindow::nominal(tier, start, end)
        }
    }

    #[test]
    fn empty_profile_is_nominal_everywhere() {
        let p = DegradationProfile::new();
        assert!(p.is_empty());
        for t in [TierId::FAST, TierId::SLOW] {
            for now in [0u128, 1, 1 << 40] {
                assert!(p.factors_at(t, now).is_nominal());
            }
        }
        assert!(!p.is_active_at(0));
    }

    #[test]
    fn window_bounds_are_half_open() {
        let p = DegradationProfile::new().with(spike(TierId::SLOW, 100, 200, 3.0));
        assert!(p.factors_at(TierId::SLOW, 99).is_nominal());
        assert_eq!(p.factors_at(TierId::SLOW, 100).latency_mult, 3.0);
        assert_eq!(p.factors_at(TierId::SLOW, 199).latency_mult, 3.0);
        assert!(p.factors_at(TierId::SLOW, 200).is_nominal());
        // The other tier is untouched.
        assert!(p.factors_at(TierId::FAST, 150).is_nominal());
        assert!(p.is_active_at(150));
        assert!(!p.is_active_at(200));
    }

    #[test]
    fn overlapping_windows_compose_order_independently() {
        let a = spike(TierId::FAST, 0, 100, 2.0);
        let mut b = spike(TierId::FAST, 50, 150, 3.0);
        b.bandwidth_mult = 0.5;
        b.capacity_shrink = 1024;
        let ab = DegradationProfile::new().with(a).with(b);
        let ba = DegradationProfile::new().with(b).with(a);
        let f = ab.factors_at(TierId::FAST, 75);
        assert_eq!(f.latency_mult, 6.0);
        assert_eq!(f.bandwidth_mult, 0.5);
        assert_eq!(f.capacity_shrink, 1024);
        assert_eq!(f, ba.factors_at(TierId::FAST, 75));
    }

    #[test]
    #[should_panic(expected = "latency multiplier")]
    fn speedup_windows_are_rejected() {
        DegradationProfile::new().with(spike(TierId::FAST, 0, 1, 0.5));
    }

    #[test]
    #[should_panic(expected = "bandwidth multiplier")]
    fn bandwidth_boost_rejected() {
        let mut w = DegradationWindow::nominal(TierId::FAST, 0, 1);
        w.bandwidth_mult = 2.0;
        DegradationProfile::new().with(w);
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn empty_window_rejected() {
        DegradationProfile::new().with(DegradationWindow::nominal(TierId::FAST, 5, 5));
    }
}
