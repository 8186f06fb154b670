//! Access statistics and service-time histograms.

use crate::num;
use crate::spec::AccessKind;

/// Flat counters for accesses against one device or system.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessStats {
    /// Number of read accesses.
    pub reads: u64,
    /// Number of write accesses.
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Total nanoseconds spent in reads.
    pub read_ns: f64,
    /// Total nanoseconds spent in writes.
    pub write_ns: f64,
}

impl AccessStats {
    /// Record one access.
    pub fn record(&mut self, kind: AccessKind, bytes: u64, ns: f64) {
        match kind {
            AccessKind::Read => {
                self.reads += 1;
                self.read_bytes += bytes;
                self.read_ns += ns;
            }
            AccessKind::Write => {
                self.writes += 1;
                self.write_bytes += bytes;
                self.write_ns += ns;
            }
        }
    }

    /// Record `n` identical accesses of `bytes` bytes at `ns` each. The
    /// nanosecond totals accumulate by repeated addition so the result
    /// is bit-identical to `n` separate [`AccessStats::record`] calls
    /// (f64 addition is not distributive over multiplication).
    pub fn record_n(&mut self, kind: AccessKind, bytes: u64, ns: f64, n: u64) {
        match kind {
            AccessKind::Read => {
                self.reads += n;
                self.read_bytes += bytes * n;
                for _ in 0..n {
                    self.read_ns += ns;
                }
            }
            AccessKind::Write => {
                self.writes += n;
                self.write_bytes += bytes * n;
                for _ in 0..n {
                    self.write_ns += ns;
                }
            }
        }
    }

    /// The counters accumulated since `earlier`, an older snapshot of
    /// the same device's stats. Saturating, so a stats reset between the
    /// two snapshots yields zeros rather than wrapping. This is what
    /// per-epoch telemetry records: window deltas of the cumulative
    /// device counters.
    pub fn since(&self, earlier: &AccessStats) -> AccessStats {
        AccessStats {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            read_bytes: self.read_bytes.saturating_sub(earlier.read_bytes),
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            read_ns: (self.read_ns - earlier.read_ns).max(0.0),
            write_ns: (self.write_ns - earlier.write_ns).max(0.0),
        }
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &AccessStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.read_ns += other.read_ns;
        self.write_ns += other.write_ns;
    }
}

/// Log-scaled latency histogram (HdrHistogram-style, power-of-two buckets
/// subdivided linearly) for service times in nanoseconds.
///
/// Supports the tail-latency reporting of the paper's Figs. 8d/8e: average,
/// p50, p95, p99, p99.9 over millions of samples in O(1) memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// bucket index -> count. Bucket b covers
    /// `[lower(b), lower(b+1))` with `lower = sub * 2^(exp)` layout.
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max: f64,
    min: f64,
    subdivisions: u32,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Default resolution: 32 linear subdivisions per power of two
    /// (~3% relative error on quantiles).
    pub fn new() -> Histogram {
        Histogram::with_subdivisions(32)
    }

    /// Custom resolution.
    pub fn with_subdivisions(subdivisions: u32) -> Histogram {
        assert!(
            subdivisions.is_power_of_two(),
            "subdivisions must be a power of two"
        );
        Histogram {
            counts: Vec::new(),
            total: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
            min: f64::INFINITY,
            subdivisions,
        }
    }

    fn bucket_of(&self, value_ns: f64) -> usize {
        let v = num::u64_from_f64(value_ns.max(0.0));
        if v < u64::from(self.subdivisions) {
            return num::usize_from_u64(v);
        }
        let exp = 63 - v.leading_zeros(); // floor(log2 v)
        let shift = exp - self.subdivisions.trailing_zeros();
        let sub = (v >> shift) - u64::from(self.subdivisions); // 0..subdivisions
        num::usize_from_u64(
            u64::from(exp - self.subdivisions.trailing_zeros() + 1) * u64::from(self.subdivisions)
                + sub,
        )
    }

    fn bucket_lower(&self, bucket: usize) -> f64 {
        let subs = u64::from(self.subdivisions);
        let b = num::u64_from_usize(bucket);
        if b < subs {
            return b as f64;
        }
        let tier = b / subs; // >= 1
        let sub = b % subs;
        ((subs + sub) as f64) * 2f64.powi(num::i32_exp_from_u64(tier) - 1)
    }

    /// Record one sample (nanoseconds).
    pub fn record(&mut self, value_ns: f64) {
        assert!(
            value_ns.is_finite() && value_ns >= 0.0,
            "invalid sample {value_ns}"
        );
        let b = self.bucket_of(value_ns);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
        self.sum += value_ns;
        self.max = self.max.max(value_ns);
        self.min = self.min.min(value_ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of all samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Largest recorded sample; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Smallest recorded sample; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Approximate quantile `q` in [0, 1]; 0 when empty. The returned value
    /// is the lower bound of the bucket containing the q-th sample, i.e.
    /// accurate to the bucket resolution.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.total == 0 {
            return 0.0;
        }
        let rank = num::u64_from_f64((q * self.total as f64).ceil()).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bucket_lower(b);
            }
        }
        self.max
    }

    /// Merge another histogram (same subdivisions) into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.subdivisions, other.subdivisions, "resolution mismatch");
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (b, &c) in other.counts.iter().enumerate() {
            self.counts[b] += c;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stats_record_and_means() {
        let mut s = AccessStats::default();
        s.record(AccessKind::Read, 100, 50.0);
        s.record(AccessKind::Read, 100, 150.0);
        s.record(AccessKind::Write, 10, 30.0);
        assert_eq!((s.reads, s.read_bytes, s.read_ns), (2, 200, 200.0));
        assert_eq!((s.writes, s.write_bytes, s.write_ns), (1, 10, 30.0));
    }

    #[test]
    fn record_n_is_bit_identical_to_n_records() {
        let mut looped = AccessStats::default();
        let mut batched = AccessStats::default();
        // 0.1 is inexact in binary, so repeated addition diverges from
        // multiplication — exactly the case record_n must reproduce.
        for _ in 0..7 {
            looped.record(AccessKind::Read, 64, 0.1);
            looped.record(AccessKind::Write, 32, 0.3);
        }
        batched.record_n(AccessKind::Read, 64, 0.1, 7);
        batched.record_n(AccessKind::Write, 32, 0.3, 7);
        assert_eq!(looped, batched);
        assert_eq!(looped.read_ns.to_bits(), batched.read_ns.to_bits());
        assert_eq!(looped.write_ns.to_bits(), batched.write_ns.to_bits());
    }

    #[test]
    fn stats_merge() {
        let mut a = AccessStats::default();
        a.record(AccessKind::Read, 1, 1.0);
        let mut b = AccessStats::default();
        b.record(AccessKind::Write, 2, 2.0);
        a.merge(&b);
        assert_eq!(a.reads, 1);
        assert_eq!(a.writes, 1);
        assert_eq!(a.write_bytes, 2);
    }

    #[test]
    fn histogram_mean_and_extremes() {
        let mut h = Histogram::new();
        for v in [10.0, 20.0, 30.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.min(), 10.0);
        assert_eq!(h.max(), 30.0);
    }

    #[test]
    fn histogram_quantiles_on_uniform_ramp() {
        let mut h = Histogram::new();
        for v in 1..=10_000 {
            h.record(v as f64);
        }
        for (q, expect) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q);
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.05, "q={q}: got {got}, want ~{expect}");
        }
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn histogram_merge_equals_combined() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..1000 {
            let x = (v * 37 % 5000) as f64;
            if v % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.quantile(0.5), whole.quantile(0.5));
        assert_eq!(a.quantile(0.99), whole.quantile(0.99));
    }

    #[test]
    #[should_panic(expected = "invalid sample")]
    fn histogram_rejects_nan() {
        Histogram::new().record(f64::NAN);
    }

    proptest! {
        #[test]
        fn histogram_quantile_within_resolution(samples in proptest::collection::vec(0.0f64..1e9, 1..300)) {
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            for q in [0.0, 0.5, 0.9, 1.0] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                let got = h.quantile(q);
                // Bucket lower bound: within ~2x/32 relative below, never above exact by more than resolution.
                prop_assert!(got <= exact + 1.0, "q={q} got {got} exact {exact}");
                prop_assert!(got >= exact / 1.05 - 2.0, "q={q} got {got} exact {exact}");
            }
        }

        #[test]
        fn histogram_quantiles_monotone(samples in proptest::collection::vec(0.0f64..1e6, 1..200)) {
            let mut h = Histogram::new();
            for &s in &samples { h.record(s); }
            let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0];
            for w in qs.windows(2) {
                prop_assert!(h.quantile(w[0]) <= h.quantile(w[1]));
            }
        }
    }
}
