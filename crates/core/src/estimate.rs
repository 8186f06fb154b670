//! The Estimate Engine (Fig. 6, component 3).
//!
//! Takes the performance baselines (via a fitted [`PerfModel`]), the
//! access pattern from the Pattern Engine and the cost-reduction factor
//! `p`, and calculates the workload's estimated throughput "for
//! incremental tiering of the key space across FastMem and SlowMem",
//! correlating each tiering with its system cost.
//!
//! The computation is incremental: starting from the all-SlowMem
//! estimate, each key moved to FastMem subtracts its promotion benefit —
//! one O(1) update per row, O(n) for the whole curve. This is the
//! "instantaneous" analytical step of §V-B.

use crate::curve::{CurveRow, EstimateCurve};
use crate::model::PerfModel;
use crate::pattern::{KeyStats, PatternEngine};
use crate::tiering::weight_items;
use cloudcost::CostModel;
use hybridmem::TierId;
use mnemo_tier::density;
use ycsb::Op;

/// The Estimate Engine.
#[derive(Debug, Clone)]
pub struct EstimateEngine {
    model: PerfModel,
    cost: CostModel,
    cache_correction: Option<u64>,
}

impl EstimateEngine {
    /// Build from a fitted model and a cost model.
    pub fn new(model: PerfModel, cost: CostModel) -> EstimateEngine {
        EstimateEngine {
            model,
            cost,
            cache_correction: None,
        }
    }

    /// Enable the **cache-aware correction** (an extension beyond the
    /// paper's model). The baseline-average model attributes the measured
    /// Fast/Slow gap to keys in proportion to their access counts; but
    /// keys resident in the server's LLC are served tier-blind, so
    /// promoting them recovers almost nothing. Given the LLC capacity,
    /// the correction redistributes the *measured total* gap: keys whose
    /// cumulative hot-first footprint fits the LLC contribute only their
    /// cold misses, and the remainder of the gap shifts onto
    /// non-resident keys. Endpoint estimates are preserved exactly.
    ///
    /// The correction is deliberately **conservative**: it assumes
    /// resident keys gain nothing beyond cold misses, which under-credits
    /// stores that re-read values through uncached paths (DynamoDB-like
    /// deserialisation). Its errors are therefore pessimistically biased —
    /// recommendations over-provision FastMem rather than violate the
    /// SLO — and it pays off where the plain model over-promises (sharp
    /// zipfian heads whose hot keys are LLC-resident).
    pub fn with_cache_correction(mut self, llc_bytes: u64) -> EstimateEngine {
        self.cache_correction = Some(llc_bytes);
        self
    }

    /// The performance model in use.
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Estimated runtime of one key's requests when its value sits in
    /// `tier`.
    fn key_runtime(&self, stats: &KeyStats, tier: TierId) -> f64 {
        stats.reads as f64 * self.model.predict(tier, Op::Read, stats.bytes)
            + stats.writes as f64 * self.model.predict(tier, Op::Update, stats.bytes)
    }

    /// Per-key promotion deltas (estimated runtime saved by moving each
    /// key to FastMem), after the optional cache-aware redistribution,
    /// plus the all-FastMem runtime total. The deltas always sum to the
    /// model's full Slow-Fast runtime gap, so the curve endpoints are
    /// independent of the correction.
    pub fn key_deltas(&self, pattern: &PatternEngine) -> (f64, Vec<f64>) {
        // Per-key model predictions are independent; chunk them across
        // the bounded pool. The reduction stays sequential over the
        // index-ordered vector, so the totals (and therefore the curve)
        // are bit-identical to the single-threaded path.
        let pool = mnemo_par::Pool::current();
        let fast_runtimes =
            pool.map_slice(pattern.stats(), |_, s| self.key_runtime(s, TierId::FAST)); // mnemo-lint: allow(D007, "predict's sum is a fixed-length dot product inside one task; per-key results gather in key order")
        let fast_total: f64 = fast_runtimes.iter().sum();
        // mnemo-lint: allow(D007, "same per-key dot product as the fast pass; deltas gather in key order regardless of workers")
        let mut deltas: Vec<f64> = pool.map_slice(pattern.stats(), |k, s| {
            self.key_runtime(s, TierId::SLOW) - fast_runtimes[k]
        });
        if let Some(llc) = self.cache_correction {
            // Keys resident in the LLC (hot-first by access density until
            // the capacity is filled) only miss on their cold accesses.
            // An LRU holds a prefix of that order, so the walk stops at
            // the first key that overflows instead of skipping it as
            // `density::fill` would.
            let mut factors = vec![1.0f64; deltas.len()];
            let mut resident_bytes = 0u64;
            for k in residency_order(pattern) {
                let stats = &pattern.stats()[k];
                if resident_bytes + stats.bytes > llc {
                    break;
                }
                resident_bytes += stats.bytes;
                // One cold miss out of `accesses` reaches the device.
                factors[k] = 1.0 / stats.accesses().max(1) as f64;
            }
            let raw_total: f64 = deltas.iter().sum();
            let damped_total: f64 = deltas.iter().zip(&factors).map(|(d, f)| d * f).sum();
            if damped_total > 0.0 && raw_total > 0.0 {
                let scale = raw_total / damped_total;
                for (d, f) in deltas.iter_mut().zip(&factors) {
                    *d *= f * scale;
                }
            }
        }
        (fast_total, deltas)
    }

    /// Estimated total runtime for an arbitrary FastMem key set.
    pub fn runtime_for<F: Fn(u64) -> bool>(&self, pattern: &PatternEngine, in_fast: F) -> f64 {
        let (fast_total, deltas) = self.key_deltas(pattern);
        fast_total
            + deltas
                .iter()
                .enumerate()
                .filter(|(k, _)| !in_fast(*k as u64))
                .map(|(_, d)| d)
                .sum::<f64>()
    }

    /// Produce the full estimate curve for a key ordering (every prefix
    /// of `order` in FastMem, the suffix in SlowMem).
    pub fn curve(&self, pattern: &PatternEngine, order: &[u64]) -> EstimateCurve {
        pattern
            .validate_order(order)
            // mnemo-lint: allow(R001, "a non-permutation ordering is a caller programming error; surfacing it eagerly beats silently mis-estimating")
            .expect("ordering must be a permutation of the key space");
        let requests: usize = pattern.total_requests() as usize;
        let total_bytes = pattern.total_bytes();
        let (fast_total, deltas) = self.key_deltas(pattern);
        let throughput = |runtime_ns: f64| {
            if runtime_ns <= 0.0 {
                0.0
            } else {
                requests as f64 / (runtime_ns / 1e9)
            }
        };
        // Two passes. The prefix state — runtime after each promotion,
        // cumulative FastMem bytes — is an inherently sequential fold of
        // two scalar ops per key, so it is computed inline; the per-row
        // work (cost model, throughput conversion) is then filled in
        // parallel from that state. Each row applies exactly the
        // operations the sequential loop applied to the same prefix
        // values, so the curve is bit-identical for any worker count.
        let mut runtime = fast_total + deltas.iter().sum::<f64>();
        let mut fast_bytes = 0u64;
        let mut prefix_state = Vec::with_capacity(order.len() + 1);
        prefix_state.push((runtime, fast_bytes));
        for &key in order {
            runtime -= deltas[key as usize];
            fast_bytes += pattern.key(key).bytes;
            prefix_state.push((runtime, fast_bytes));
        }
        let rows = mnemo_par::Pool::current().map(order.len() + 1, |i| {
            let (runtime, fast_bytes) = prefix_state[i];
            CurveRow {
                prefix: i,
                key: if i == 0 { None } else { Some(order[i - 1]) },
                fast_bytes,
                cost_reduction: self.cost.reduction(fast_bytes, total_bytes - fast_bytes),
                est_runtime_ns: runtime,
                est_throughput_ops_s: throughput(runtime),
            }
        });
        EstimateCurve {
            rows,
            requests,
            total_bytes,
        }
    }
}

/// Keys in LLC-residency order: descending access density
/// (`accesses / max(bytes, 1)`), ties by ascending key.
fn residency_order(pattern: &PatternEngine) -> impl Iterator<Item = usize> + '_ {
    density::order(weight_items(pattern))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use crate::sensitivity::SensitivityEngine;
    use kvsim::StoreKind;
    use proptest::prelude::*;
    use ycsb::{Trace, WorkloadSpec};

    fn setup(spec: WorkloadSpec) -> (EstimateEngine, PatternEngine, Trace) {
        let t = spec.generate(6);
        let b = SensitivityEngine::default()
            .measure(StoreKind::Redis, &t)
            .unwrap();
        let m = PerfModel::fit(ModelKind::GlobalAverage, &b, &t.sizes);
        (
            EstimateEngine::new(m, CostModel::default()),
            PatternEngine::analyze(&t),
            t,
        )
    }

    #[test]
    fn curve_shape_and_endpoints() {
        let (eng, pattern, t) = setup(WorkloadSpec::trending().scaled(150, 2_000));
        let order = pattern.hotness_order();
        let curve = eng.curve(&pattern, &order);
        assert_eq!(curve.rows.len(), t.keys() as usize + 1);
        // Cost runs from p to 1.
        assert!((curve.slow_only().cost_reduction - 0.2).abs() < 1e-9);
        assert!((curve.fast_only().cost_reduction - 1.0).abs() < 1e-9);
        // Throughput strictly improves from slow-only to fast-only.
        assert!(curve.fast_only().est_throughput_ops_s > curve.slow_only().est_throughput_ops_s);
        // Cost is monotone along the curve.
        for w in curve.rows.windows(2) {
            assert!(w[1].cost_reduction >= w[0].cost_reduction);
            assert!(w[1].fast_bytes >= w[0].fast_bytes);
        }
    }

    #[test]
    fn endpoints_match_measured_baselines() {
        let t = WorkloadSpec::timeline().scaled(150, 2_000).generate(6);
        let b = SensitivityEngine::default()
            .measure(StoreKind::Redis, &t)
            .unwrap();
        let m = PerfModel::fit(ModelKind::GlobalAverage, &b, &t.sizes);
        let eng = EstimateEngine::new(m, CostModel::default());
        let pattern = PatternEngine::analyze(&t);
        let curve = eng.curve(&pattern, pattern.touch_order());
        // With the global-average model, the endpoint estimates equal the
        // measured baseline runtimes by construction.
        // (Tolerance: the measured runtime rounds each request to whole
        // nanoseconds; the estimate works from unrounded totals.)
        let rel_fast =
            (curve.fast_only().est_runtime_ns - b.fast.runtime_ns).abs() / b.fast.runtime_ns;
        let rel_slow =
            (curve.slow_only().est_runtime_ns - b.slow.runtime_ns).abs() / b.slow.runtime_ns;
        assert!(rel_fast < 1e-5, "fast endpoint error {rel_fast}");
        assert!(rel_slow < 1e-5, "slow endpoint error {rel_slow}");
    }

    #[test]
    fn hotness_order_dominates_reverse_order() {
        let (eng, pattern, _) = setup(WorkloadSpec::trending().scaled(150, 2_000));
        let hot = pattern.hotness_order();
        let mut cold = hot.clone();
        cold.reverse();
        let hot_curve = eng.curve(&pattern, &hot);
        let cold_curve = eng.curve(&pattern, &cold);
        // At every interior prefix, promoting hot keys first is at least
        // as good as promoting cold keys first.
        for i in 1..hot_curve.rows.len() - 1 {
            assert!(
                hot_curve.rows[i].est_throughput_ops_s
                    >= cold_curve.rows[i].est_throughput_ops_s - 1e-6,
                "prefix {i}"
            );
        }
        // And strictly better somewhere in the middle.
        let mid = hot_curve.rows.len() / 2;
        assert!(
            hot_curve.rows[mid].est_throughput_ops_s > cold_curve.rows[mid].est_throughput_ops_s
        );
    }

    #[test]
    fn incremental_matches_direct_computation() {
        let (eng, pattern, _) = setup(WorkloadSpec::edit_thumbnail().scaled(100, 1_500));
        let order = pattern.hotness_order();
        let curve = eng.curve(&pattern, &order);
        for prefix in [0usize, 13, 50, 100] {
            let fast: std::collections::HashSet<u64> = order[..prefix].iter().copied().collect();
            let direct = eng.runtime_for(&pattern, |k| fast.contains(&k));
            let incr = curve.rows[prefix].est_runtime_ns;
            assert!(
                (direct - incr).abs() / direct < 1e-9,
                "prefix {prefix}: direct {direct} vs incremental {incr}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rejects_invalid_ordering() {
        let (eng, pattern, _) = setup(WorkloadSpec::trending().scaled(50, 500));
        let _ = eng.curve(&pattern, &[0, 0, 1]);
    }

    #[test]
    fn cache_correction_preserves_endpoints_and_total_gap() {
        let (eng, pattern, t) = setup(WorkloadSpec::timeline().scaled(200, 4_000));
        let plain = eng.clone();
        let corrected = eng.with_cache_correction(t.dataset_bytes() / 10);
        let order = pattern.hotness_order();
        let a = plain.curve(&pattern, &order);
        let b = corrected.curve(&pattern, &order);
        // Endpoints must be identical: the correction only redistributes
        // the measured gap across keys.
        let close = |x: f64, y: f64| (x - y).abs() / x.max(1.0) < 1e-9;
        assert!(close(
            a.slow_only().est_runtime_ns,
            b.slow_only().est_runtime_ns
        ));
        assert!(close(
            a.fast_only().est_runtime_ns,
            b.fast_only().est_runtime_ns
        ));
        // But interior rows differ: the corrected curve credits the
        // cache-resident hottest keys far less.
        let mid = a.rows.len() / 20; // early in the hot head
        assert!(
            b.rows[mid].est_runtime_ns > a.rows[mid].est_runtime_ns,
            "corrected early-prefix estimate must be more conservative"
        );
    }

    #[test]
    fn cache_correction_damps_resident_head_benefit() {
        let (eng, pattern, t) = setup(WorkloadSpec::timeline().scaled(200, 4_000));
        let llc = t.dataset_bytes() / 10;
        let (_, plain) = eng.clone().key_deltas(&pattern);
        let (_, corrected) = eng.with_cache_correction(llc).key_deltas(&pattern);
        // Totals match.
        let sum_a: f64 = plain.iter().sum();
        let sum_b: f64 = corrected.iter().sum();
        assert!((sum_a - sum_b).abs() / sum_a < 1e-9);
        // The single hottest key's delta is strongly damped.
        let hottest = pattern.hotness_order()[0] as usize;
        assert!(
            corrected[hottest] < plain[hottest] / 5.0,
            "hottest key delta {} vs plain {}",
            corrected[hottest],
            plain[hottest]
        );
    }

    #[test]
    fn cache_correction_with_zero_llc_is_identity() {
        let (eng, pattern, _) = setup(WorkloadSpec::trending().scaled(100, 1_000));
        let order = pattern.hotness_order();
        let a = eng.clone().curve(&pattern, &order);
        let b = eng.with_cache_correction(0).curve(&pattern, &order);
        assert_eq!(a, b);
    }

    /// Oracle for `residency_order`: the comparator sort it replaced (two
    /// divisions per compare, `total_cmp` on the densities, then key).
    fn reference_density_order(stats: &[KeyStats]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..stats.len()).collect();
        order.sort_by(|&a, &b| {
            let sa = &stats[a];
            let sb = &stats[b];
            let da = sa.accesses() as f64 / sa.bytes.max(1) as f64;
            let db = sb.accesses() as f64 / sb.bytes.max(1) as f64;
            db.total_cmp(&da).then(a.cmp(&b))
        });
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Small ranges make equal densities common; zero reads, writes
        /// and bytes all occur.
        #[test]
        fn density_order_matches_the_comparator_sort(
            keys in proptest::collection::vec((0u64..4, 0u64..3, 0u64..6), 0..64),
        ) {
            let stats: Vec<KeyStats> = keys
                .iter()
                .map(|&(reads, writes, bytes)| KeyStats { reads, writes, bytes })
                .collect();
            let pattern = PatternEngine::from_stats(stats.clone());
            prop_assert_eq!(
                residency_order(&pattern).collect::<Vec<_>>(),
                reference_density_order(&stats)
            );
        }
    }
}
