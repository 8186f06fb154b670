//! Count-Min sketch: per-key counters in sublinear space.
//!
//! A `depth × width` grid of saturating counters. Each key hashes to one
//! counter per row; an update increments all of them and a query takes
//! the row-wise minimum. Collisions only ever *inflate* a counter, so
//! the estimate never undercounts, and with `N` total increments the
//! one-sided error is bounded:
//!
//! ```text
//! true <= estimate <= true + eps * N   with probability >= 1 - delta,
//! eps = e / width,  delta = e^-depth
//! ```
//!
//! (Cormode & Muthukrishnan's analysis; `e` is Euler's number.) The
//! profiler keeps two of these — one for reads, one for writes — so the
//! per-key operation mix survives summarisation.

/// Mixer used to derive the per-row counter index (SplitMix64 finaliser:
/// cheap, well-distributed, and deterministic across runs).
#[inline]
fn mix(key: u64, row_seed: u64) -> u64 {
    let mut z = key ^ row_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A Count-Min sketch over `u64` keys with `u32` counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    counters: Vec<u32>,
    total: u64,
}

impl CountMinSketch {
    /// Create a sketch. `width` is rounded up to a power of two (so the
    /// row index is a mask, not a modulo); `depth` is the number of
    /// independent rows. Both must be nonzero.
    pub fn new(width: usize, depth: usize) -> CountMinSketch {
        assert!(width > 0 && depth > 0, "sketch dimensions must be nonzero");
        let width = width.next_power_of_two();
        CountMinSketch {
            width,
            depth,
            counters: vec![0; width * depth],
            total: 0,
        }
    }

    /// Row width (after power-of-two rounding).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total increments recorded (the `N` of the error bound).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `eps` of the error bound: estimates exceed true counts by at
    /// most `epsilon() * total()` with probability `1 - e^-depth`.
    pub fn epsilon(&self) -> f64 {
        std::f64::consts::E / self.width as f64
    }

    /// The absolute error ceiling at the current stream length, in
    /// requests: `epsilon() * total()`, rounded up.
    pub fn error_bound(&self) -> u64 {
        (self.epsilon() * self.total as f64).ceil() as u64
    }

    /// Record one occurrence of `key`.
    pub fn increment(&mut self, key: u64) {
        self.total += 1;
        for row in 0..self.depth {
            let idx = row * self.width + (mix(key, row as u64 + 1) as usize & (self.width - 1));
            self.counters[idx] = self.counters[idx].saturating_add(1);
        }
    }

    /// Estimated count of `key` (never below the true count).
    pub fn estimate(&self, key: u64) -> u64 {
        (0..self.depth)
            .map(|row| {
                self.counters
                    [row * self.width + (mix(key, row as u64 + 1) as usize & (self.width - 1))]
            })
            .min()
            .unwrap_or(0) as u64
    }

    /// Heap footprint in bytes (counters only; the struct header is
    /// negligible and excluded consistently across all sketches).
    pub fn memory_bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<u32>()
    }

    /// Serialisable snapshot of the sketch, for warm restarts of
    /// long-lived consumers.
    pub fn export_state(&self) -> SketchState {
        SketchState {
            width: self.width,
            depth: self.depth,
            counters: self.counters.clone(),
            total: self.total,
        }
    }

    /// Rebuild a sketch from an exported state. Fails on inconsistent
    /// dimensions (width not a power of two, counter grid of the wrong
    /// size).
    pub fn import_state(state: &SketchState) -> Result<CountMinSketch, String> {
        if state.width == 0 || !state.width.is_power_of_two() {
            return Err(format!("sketch width {} not a power of two", state.width));
        }
        if state.depth == 0 {
            return Err("sketch depth is zero".into());
        }
        if state.counters.len() != state.width * state.depth {
            return Err(format!(
                "sketch grid holds {} counters, expected {}",
                state.counters.len(),
                state.width * state.depth
            ));
        }
        Ok(CountMinSketch {
            width: state.width,
            depth: state.depth,
            counters: state.counters.clone(),
            total: state.total,
        })
    }
}

/// Exported [`CountMinSketch`] state (see
/// [`CountMinSketch::export_state`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchState {
    /// Row width (a power of two).
    pub width: usize,
    /// Number of rows.
    pub depth: usize,
    /// The `depth × width` counter grid, row-major.
    pub counters: Vec<u32>,
    /// Total increments recorded.
    pub total: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_rounds_to_power_of_two() {
        let s = CountMinSketch::new(1000, 4);
        assert_eq!(s.width(), 1024);
        assert_eq!(s.depth(), 4);
        assert_eq!(s.memory_bytes(), 1024 * 4 * 4);
    }

    #[test]
    fn never_undercounts_and_error_is_bounded() {
        let mut s = CountMinSketch::new(256, 4);
        // 100 keys, key k appears k+1 times.
        for key in 0..100u64 {
            for _ in 0..=key {
                s.increment(key);
            }
        }
        assert_eq!(s.total(), 5050);
        for key in 0..100u64 {
            let est = s.estimate(key);
            assert!(est > key, "undercount for {key}: {est}");
            assert!(
                est <= key + 1 + s.error_bound(),
                "estimate {est} for {key} above bound {}",
                s.error_bound()
            );
        }
    }

    #[test]
    fn state_round_trips() {
        let mut s = CountMinSketch::new(128, 3);
        for key in 0..500u64 {
            s.increment(key % 40);
        }
        let back = CountMinSketch::import_state(&s.export_state()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.estimate(7), s.estimate(7));
    }

    #[test]
    fn import_rejects_corrupt_state() {
        let mut state = CountMinSketch::new(128, 3).export_state();
        state.counters.pop();
        assert!(CountMinSketch::import_state(&state).is_err());
        let mut bad_width = CountMinSketch::new(128, 3).export_state();
        bad_width.width = 100;
        assert!(CountMinSketch::import_state(&bad_width).is_err());
    }

    #[test]
    fn unseen_keys_estimate_near_zero() {
        let mut s = CountMinSketch::new(4096, 4);
        for key in 0..50u64 {
            s.increment(key);
        }
        // With 50 increments in 4096-wide rows, an unseen key almost
        // surely hits an untouched counter in at least one of 4 rows.
        let ghost: u64 = (1000..1100).map(|k| s.estimate(k)).sum();
        assert!(
            ghost <= 2,
            "unseen keys should estimate ~0, got sum {ghost}"
        );
    }
}
