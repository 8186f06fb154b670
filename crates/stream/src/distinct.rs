//! Distinct-key estimation by linear probabilistic counting.
//!
//! Whang, Vander-Zanden & Taylor's estimator: hash every key into an
//! `m`-bit bitmap; with `z` bits still zero, the maximum-likelihood
//! estimate of the distinct count is `-m * ln(z / m)`. Standard error is
//! about `O(sqrt(m))`, so an 8 KiB bitmap (65536 bits) tracks the tens
//! of thousands of keys Mnemo's workloads hold to within ~1%.
//!
//! The profiler needs this because the sketches summarise the *head* of
//! the distribution: reconstructing the tail ("how many more keys exist
//! beyond the monitored top-K, over which the residual mass spreads")
//! requires a cardinality estimate.

#[inline]
fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A linear-counting distinct estimator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctCounter {
    bits: Vec<u64>,
    mask: u64,
    zeros: u64,
}

impl DistinctCounter {
    /// Create a counter with `2^log2_bits` bitmap bits (e.g. 16 → 64 Kbit
    /// = 8 KiB). Accurate while the distinct count stays below roughly
    /// the bitmap size; beyond saturation the estimate is a lower bound.
    pub fn new(log2_bits: u32) -> DistinctCounter {
        assert!((6..=30).contains(&log2_bits), "log2_bits out of [6,30]");
        let m = 1u64 << log2_bits;
        DistinctCounter {
            bits: vec![0u64; (m / 64) as usize],
            mask: m - 1,
            zeros: m,
        }
    }

    /// Mark `key` as seen.
    pub fn insert(&mut self, key: u64) {
        let bit = mix(key) & self.mask;
        let (word, shift) = ((bit / 64) as usize, bit % 64);
        if self.bits[word] >> shift & 1 == 0 {
            self.bits[word] |= 1 << shift;
            self.zeros -= 1;
        }
    }

    /// Maximum-likelihood estimate of the number of distinct keys seen.
    pub fn estimate(&self) -> u64 {
        let m = (self.mask + 1) as f64;
        if self.zeros == 0 {
            // Saturated: every bit set. Report the (unreachable in
            // practice) saturation point rather than infinity.
            return m as u64 * 16;
        }
        (-m * (self.zeros as f64 / m).ln()).round() as u64
    }

    /// Heap footprint in bytes (the bitmap).
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * std::mem::size_of::<u64>()
    }

    /// Serialisable snapshot of the bitmap, for warm restarts of
    /// long-lived consumers. The zero count is derivable and is
    /// recomputed on import.
    pub fn export_state(&self) -> DistinctState {
        DistinctState {
            bits: self.bits.clone(),
        }
    }

    /// Rebuild a counter from an exported bitmap. Fails when the word
    /// count is not a power-of-two bitmap in the supported size range.
    pub fn import_state(state: &DistinctState) -> Result<DistinctCounter, String> {
        let words = state.bits.len() as u64;
        if words == 0 || !words.is_power_of_two() {
            return Err(format!("bitmap of {words} words is not a power of two"));
        }
        let m = words * 64;
        let log2 = m.ilog2();
        if !(6..=30).contains(&log2) {
            return Err(format!("bitmap of {m} bits out of supported range"));
        }
        let ones: u64 = state.bits.iter().map(|w| w.count_ones() as u64).sum();
        Ok(DistinctCounter {
            bits: state.bits.clone(),
            mask: m - 1,
            zeros: m - ones,
        })
    }
}

/// Exported [`DistinctCounter`] state (see
/// [`DistinctCounter::export_state`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctState {
    /// The bitmap, as 64-bit words.
    pub bits: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_counts_are_exact() {
        let mut d = DistinctCounter::new(16);
        for key in 0..100u64 {
            d.insert(key);
            d.insert(key); // duplicates are free
        }
        let est = d.estimate();
        assert!((95..=105).contains(&est), "estimate {est}");
    }

    #[test]
    fn ten_thousand_keys_within_two_percent() {
        let mut d = DistinctCounter::new(16);
        for key in 0..10_000u64 {
            d.insert(key * 2_654_435_761); // arbitrary spread-out ids
        }
        let est = d.estimate() as f64;
        assert!((est - 10_000.0).abs() / 10_000.0 < 0.02, "estimate {est}");
        assert_eq!(d.memory_bytes(), 8192);
    }

    #[test]
    fn empty_counter_estimates_zero() {
        assert_eq!(DistinctCounter::new(10).estimate(), 0);
    }

    #[test]
    fn state_round_trips() {
        let mut d = DistinctCounter::new(10);
        for key in 0..300u64 {
            d.insert(key * 7);
        }
        let back = DistinctCounter::import_state(&d.export_state()).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.estimate(), d.estimate());
    }

    #[test]
    fn import_rejects_corrupt_state() {
        let mut state = DistinctCounter::new(10).export_state();
        state.bits.pop();
        assert!(DistinctCounter::import_state(&state).is_err());
        assert!(DistinctCounter::import_state(&DistinctState { bits: vec![] }).is_err());
    }
}
