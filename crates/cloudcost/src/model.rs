//! The hybrid memory cost-reduction model of Section II (Table II).
//!
//! With a total dataset of `C` bytes split into `F` bytes of FastMem and
//! `S = C - F` bytes of SlowMem, and SlowMem priced at `p` times FastMem
//! per byte, the memory system costs
//!
//! ```text
//! R(p) = (F + (C - F) * p) / C,   0 < p < 1
//! ```
//!
//! of the FastMem-only configuration. `R` runs from `p` (everything in
//! SlowMem — the cheapest possible system) to `1` (everything in FastMem).
//! The paper fixes `p = 0.2` throughout, based on NVDIMM price projections.

/// The paper's fixed SlowMem:FastMem per-byte price factor.
pub const DEFAULT_PRICE_FACTOR: f64 = 0.2;

/// Hybrid memory cost model parameterised by the price factor `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// SlowMem per-byte price as a fraction of FastMem per-byte price.
    pub price_factor: f64,
}

/// One point of a cost sweep: a capacity split and its relative cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPoint {
    /// FastMem bytes.
    pub fast_bytes: u64,
    /// SlowMem bytes.
    pub slow_bytes: u64,
    /// Cost relative to FastMem-only (`R(p)`), in `[p, 1]`.
    pub reduction_factor: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::new(DEFAULT_PRICE_FACTOR)
    }
}

impl CostModel {
    /// Create a model with the given price factor. Panics if `p` is not in
    /// `(0, 1)` — a SlowMem at least as expensive as FastMem makes the
    /// whole trade-off vacuous.
    pub fn new(price_factor: f64) -> Self {
        assert!(
            price_factor > 0.0 && price_factor < 1.0,
            "price factor must be in (0, 1), got {price_factor}"
        );
        CostModel { price_factor }
    }

    /// `R(p)` for an explicit byte split.
    pub fn reduction(&self, fast_bytes: u64, slow_bytes: u64) -> f64 {
        let total = fast_bytes + slow_bytes;
        if total == 0 {
            return 1.0;
        }
        let f = fast_bytes as f64;
        let c = total as f64;
        (f + (c - f) * self.price_factor) / c
    }

    /// `R(p)` for a FastMem capacity *ratio* in `[0, 1]`.
    pub fn reduction_for_ratio(&self, fast_ratio: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&fast_ratio),
            "ratio {fast_ratio} out of [0,1]"
        );
        fast_ratio + (1.0 - fast_ratio) * self.price_factor
    }

    /// Invert the model: which FastMem ratio yields a given relative cost?
    /// Returns `None` when `reduction` is outside the attainable `[p, 1]`.
    pub fn ratio_for_reduction(&self, reduction: f64) -> Option<f64> {
        if reduction < self.price_factor - 1e-12 || reduction > 1.0 + 1e-12 {
            return None;
        }
        let r = (reduction - self.price_factor) / (1.0 - self.price_factor);
        Some(r.clamp(0.0, 1.0))
    }

    /// The lowest attainable relative cost (everything in SlowMem).
    pub fn floor(&self) -> f64 {
        self.price_factor
    }

    /// Sweep the capacity split of a `total_bytes` dataset in `steps`
    /// evenly spaced FastMem ratios from 0 to 1 inclusive (Table II's
    /// best/in-between/worst rows are the ends plus the interior).
    pub fn sweep(&self, total_bytes: u64, steps: usize) -> Vec<CostPoint> {
        assert!(steps >= 2, "need at least the two extreme points");
        (0..steps)
            .map(|s| {
                let ratio = s as f64 / (steps - 1) as f64;
                let fast = (total_bytes as f64 * ratio).round() as u64;
                let fast = fast.min(total_bytes);
                CostPoint {
                    fast_bytes: fast,
                    slow_bytes: total_bytes - fast,
                    reduction_factor: self.reduction(fast, total_bytes - fast),
                }
            })
            .collect()
    }

    /// Table II of the paper: the three named baseline rows for a dataset
    /// of `total_bytes` with the in-between row at `fast_ratio`.
    pub fn table2(&self, total_bytes: u64, fast_ratio: f64) -> [(String, CostPoint); 3] {
        let mid_fast = (total_bytes as f64 * fast_ratio).round() as u64;
        let row = |fast: u64| CostPoint {
            fast_bytes: fast,
            slow_bytes: total_bytes - fast,
            reduction_factor: self.reduction(fast, total_bytes - fast),
        };
        [
            ("Best Case".to_string(), row(total_bytes)),
            ("In between".to_string(), row(mid_fast)),
            ("Worst Case".to_string(), row(0)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn extremes_match_table2() {
        let m = CostModel::default();
        // All FastMem: full cost. All SlowMem: cost factor p.
        assert!((m.reduction(100, 0) - 1.0).abs() < 1e-12);
        assert!((m.reduction(0, 100) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn paper_example_trending() {
        // Section III: "sizing FastMem such that it only holds the hot
        // keys will reduce the system's memory cost to be only 36% of the
        // cost of using only FastMem" — with p=0.2 that corresponds to a
        // 20:80 Fast:Slow split.
        let m = CostModel::default();
        assert!((m.reduction_for_ratio(0.2) - 0.36).abs() < 1e-12);
    }

    #[test]
    fn section5_worked_example() {
        // Section V-A quotes "70:30 FastMem:SlowMem (76% of FastMem-only
        // cost)", which R(0.2) reproduces exactly. The same passage quotes
        // "50:50 ... and only 52%", which is inconsistent with the paper's
        // own formula (50:50 gives 60%; 52% corresponds to a 40:60 split) —
        // we follow the formula.
        let m = CostModel::default();
        assert!((m.reduction_for_ratio(0.7) - 0.76).abs() < 1e-12);
        assert!((m.reduction_for_ratio(0.5) - 0.60).abs() < 1e-12);
        assert!((m.reduction_for_ratio(0.4) - 0.52).abs() < 1e-12);
    }

    #[test]
    fn empty_system_costs_full() {
        let m = CostModel::default();
        assert_eq!(m.reduction(0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "price factor")]
    fn rejects_price_factor_of_one() {
        let _ = CostModel::new(1.0);
    }

    #[test]
    fn sweep_is_monotonic_and_bounded() {
        let m = CostModel::default();
        let pts = m.sweep(1 << 30, 11);
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[0].fast_bytes, 0);
        assert_eq!(pts[10].slow_bytes, 0);
        for w in pts.windows(2) {
            assert!(w[1].reduction_factor >= w[0].reduction_factor);
        }
    }

    #[test]
    fn table2_rows() {
        let m = CostModel::default();
        let rows = m.table2(1000, 0.2);
        assert_eq!(rows[0].1.reduction_factor, 1.0);
        assert!((rows[1].1.reduction_factor - 0.36).abs() < 1e-9);
        assert!((rows[2].1.reduction_factor - 0.2).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn reduction_always_in_band(p in 0.01f64..0.99, fast in 0u64..1_000_000, slow in 0u64..1_000_000) {
            prop_assume!(fast + slow > 0);
            let m = CostModel::new(p);
            let r = m.reduction(fast, slow);
            prop_assert!(r >= p - 1e-12 && r <= 1.0 + 1e-12);
        }

        #[test]
        fn ratio_roundtrips(p in 0.01f64..0.99, ratio in 0.0f64..=1.0) {
            let m = CostModel::new(p);
            let red = m.reduction_for_ratio(ratio);
            let back = m.ratio_for_reduction(red).unwrap();
            prop_assert!((back - ratio).abs() < 1e-9);
        }

        #[test]
        fn reduction_monotone_in_fast_share(p in 0.01f64..0.99, a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let m = CostModel::new(p);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(m.reduction_for_ratio(lo) <= m.reduction_for_ratio(hi) + 1e-12);
        }
    }
}
