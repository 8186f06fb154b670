//! The Placement Engine (Fig. 6, component 4).
//!
//! "Takes the selected key tiering, that satisfies the user's performance
//! to cost trade-offs, and statically places the key-value pairs to the
//! corresponding FastServer and SlowServer, prior to the actual workload
//! execution. ... Mnemo provides a static key allocation, with no support
//! for dynamic data migration."

use crate::curve::CurveRow;
use kvsim::{EngineError, Placement, StoreKind, TwoInstanceCluster};
use ycsb::Trace;

/// The Placement Engine.
#[derive(Debug, Clone, Default)]
pub struct PlacementEngine;

impl PlacementEngine {
    /// The placement implied by a curve row: the first `row.prefix` keys
    /// of `order` in FastMem.
    pub fn placement_for(order: &[u64], row: &CurveRow) -> Placement {
        Placement::fast_prefix(order, row.prefix)
    }

    /// The placement for an explicit FastMem byte budget along `order`
    /// (keys are taken in order until the budget is exhausted; the first
    /// key that does not fit stops the scan, preserving the prefix
    /// property of the estimate curve).
    pub fn placement_for_budget(order: &[u64], sizes: &[u64], budget_bytes: u64) -> Placement {
        let mut used = 0u64;
        let mut n = 0;
        for &k in order {
            let b = sizes[k as usize];
            if used + b > budget_bytes {
                break;
            }
            used += b;
            n += 1;
        }
        Placement::fast_prefix(order, n)
    }

    /// Statically populate a two-instance deployment (FastServer +
    /// SlowServer) from a selected row — the paper's final, optional step
    /// where "the user needs to provide Mnemo with the actual dataset".
    pub fn populate(
        store: StoreKind,
        trace: &Trace,
        order: &[u64],
        row: &CurveRow,
    ) -> Result<TwoInstanceCluster, EngineError> {
        let placement = Self::placement_for(order, row);
        TwoInstanceCluster::from_placement(store, trace, &placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::EstimateCurve;
    use crate::estimate::EstimateEngine;
    use crate::model::{ModelKind, PerfModel};
    use crate::pattern::PatternEngine;
    use crate::sensitivity::SensitivityEngine;
    use cloudcost::CostModel;
    use hybridmem::TierId;
    use ycsb::WorkloadSpec;

    fn setup() -> (Trace, Vec<u64>, EstimateCurve) {
        let t = WorkloadSpec::trending().scaled(120, 1_500).generate(8);
        let b = SensitivityEngine::default()
            .measure(StoreKind::Redis, &t)
            .unwrap();
        let m = PerfModel::fit(ModelKind::GlobalAverage, &b, &t.sizes);
        let p = PatternEngine::analyze(&t);
        let order = p.hotness_order();
        let curve = EstimateEngine::new(m, CostModel::default()).curve(&p, &order);
        (t, order, curve)
    }

    #[test]
    fn placement_for_row_prefixes_order() {
        let (_, order, curve) = setup();
        let row = &curve.rows[30];
        let placement = PlacementEngine::placement_for(&order, row);
        for (i, &k) in order.iter().enumerate() {
            let want = if i < 30 { TierId::FAST } else { TierId::SLOW };
            assert_eq!(placement.tier_of(k), want, "key {k} at position {i}");
        }
    }

    #[test]
    fn budget_placement_stays_within_budget() {
        let (t, order, _) = setup();
        let budget = t.dataset_bytes() / 3;
        let placement = PlacementEngine::placement_for_budget(&order, &t.sizes, budget);
        let used: u64 = (0..t.keys())
            .filter(|&k| placement.tier_of(k) == TierId::FAST)
            .map(|k| t.sizes[k as usize])
            .sum();
        assert!(used <= budget);
        assert!(used > 0);
    }

    #[test]
    fn populate_builds_matching_cluster() {
        let (t, order, curve) = setup();
        let row = &curve.rows[40];
        let cluster = PlacementEngine::populate(StoreKind::Redis, &t, &order, row).unwrap();
        assert_eq!(cluster.key_split().0, 40);
        let (fast_bytes, _) = cluster.byte_split();
        // Engine overhead makes server bytes >= logical curve bytes.
        assert!(fast_bytes >= row.fast_bytes);
    }

    #[test]
    fn curve_rows_match_placement_accounting() {
        let (t, order, curve) = setup();
        for prefix in [0usize, 1, 17, 60, 120] {
            let expect: u64 = order[..prefix].iter().map(|&k| t.sizes[k as usize]).sum();
            assert_eq!(curve.rows[prefix].fast_bytes, expect, "prefix {prefix}");
        }
    }
}
