//! The end-to-end consultant: baselines → pattern → estimate → pick.
//!
//! This is the "Mnemo user" workflow of Fig. 2: run the Sensitivity
//! Engine once, analyse the pattern, produce the estimate curve, and
//! choose "the line that satisfies its performance requirements and price
//! allowance". [`Advisor::consult`] does the first three;
//! [`Consultation::recommend_resilient`], the one row search, does the
//! choosing (e.g. the 10% slowdown SLO of Fig. 9);
//! [`Consultation::recommend`] reads its compliant answers.

use crate::curve::{CurveRow, EstimateCurve};
use crate::estimate::EstimateEngine;
use crate::model::{ModelKind, PerfModel};
use crate::pattern::PatternEngine;
use crate::sensitivity::{Baselines, SensitivityEngine};
use crate::tiering::MnemoT;
use cloudcost::CostModel;
use hybridmem::clock::NoiseConfig;
use hybridmem::StackSpec;
use kvsim::{EngineError, StoreKind};
use ycsb::Trace;

/// Which key ordering the curve follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingKind {
    /// Standalone Mnemo (Fig. 2a): keys in first-touch order.
    TouchOrder,
    /// Keys sorted hottest-first (the "Trending transformation" of §V-A).
    Hotness,
    /// MnemoT (Fig. 2c): weight = accesses / size.
    #[default]
    MnemoT,
}

/// Advisor configuration.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Testbed specification for the baseline runs.
    pub spec: StackSpec,
    /// Measurement noise for the baseline runs.
    pub noise: NoiseConfig,
    /// SlowMem:FastMem per-byte price factor `p`.
    pub price_factor: f64,
    /// Estimation model variant.
    pub model: ModelKind,
    /// Key ordering for incremental sizing.
    pub ordering: OrderingKind,
    /// Enable the cache-aware delta redistribution (an extension beyond
    /// the paper), passing the server's LLC capacity. `None` keeps the
    /// paper's plain model.
    pub cache_correction: Option<u64>,
    /// Measure the baselines under this fault plan (degradation windows
    /// and crash schedules installed on the baseline servers), so the
    /// estimate curve — and every recommendation derived from it —
    /// describes the *faulted* testbed. `None` keeps the healthy testbed.
    pub fault_plan: Option<mnemo_faults::FaultPlan>,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            spec: StackSpec::paper_testbed(),
            noise: NoiseConfig::disabled(),
            price_factor: cloudcost::model::DEFAULT_PRICE_FACTOR,
            model: ModelKind::GlobalAverage,
            ordering: OrderingKind::MnemoT,
            cache_correction: None,
            fault_plan: None,
        }
    }
}

impl AdvisorConfig {
    /// The default configuration with the cache-aware correction enabled
    /// for this config's own testbed LLC.
    pub fn cache_aware(mut self) -> AdvisorConfig {
        self.cache_correction = Some(self.spec.cache.capacity_bytes);
        self
    }
}

/// One recommended configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// Keys placed in FastMem.
    pub prefix: usize,
    /// FastMem bytes required.
    pub fast_bytes: u64,
    /// FastMem share of the total dataset, in `[0, 1]`.
    pub fast_ratio: f64,
    /// Memory cost relative to FastMem-only.
    pub cost_reduction: f64,
    /// Estimated throughput at this configuration (ops/s).
    pub est_throughput_ops_s: f64,
    /// Estimated slowdown vs the all-FastMem configuration, in `[0, 1]`.
    pub est_slowdown: f64,
}

/// Why a resilient recommendation could not simply comply with the SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradedReason {
    /// The requested slowdown budget was outside `[0, 1]` (or NaN) and
    /// was clamped before searching; [`Consultation::recommend`] returns
    /// `None` on such input.
    SloClamped {
        /// The budget as requested.
        requested: f64,
        /// The budget actually used.
        clamped: f64,
    },
    /// No split on the (possibly faulted) curve reaches the budget
    /// against the reference throughput; the best-performing row is
    /// returned together with the slowdown it actually achieves.
    SloUnattainable {
        /// The requested slowdown budget.
        requested: f64,
        /// The slowdown of the returned nearest-feasible configuration.
        achievable: f64,
    },
    /// The curve has no rows (empty workload); a zero-sized placement is
    /// returned.
    EmptyCurve,
}

/// A recommendation that is always produced: compliant when possible,
/// otherwise the nearest-feasible configuration tagged with the
/// machine-readable reason it is degraded. This is the advisor's
/// fault-tolerant output contract — under any fault profile it never
/// panics and never returns nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientRecommendation {
    /// The recommended configuration.
    pub recommendation: Recommendation,
    /// `None` when the SLO is met outright; otherwise why (and how far
    /// off) the advisor had to degrade.
    pub degraded: Option<DegradedReason>,
}

impl ResilientRecommendation {
    /// Whether the recommendation meets the requested SLO outright.
    pub fn is_compliant(&self) -> bool {
        self.degraded.is_none()
    }

    /// The answer when there is no row to recommend: a zero-sized
    /// placement tagged [`DegradedReason::EmptyCurve`].
    pub fn empty_curve() -> ResilientRecommendation {
        ResilientRecommendation {
            recommendation: Recommendation {
                prefix: 0,
                fast_bytes: 0,
                fast_ratio: 0.0,
                cost_reduction: 0.0,
                est_throughput_ops_s: 0.0,
                est_slowdown: 0.0,
            },
            degraded: Some(DegradedReason::EmptyCurve),
        }
    }
}

/// The full result of one consultation.
#[derive(Debug, Clone)]
pub struct Consultation {
    /// Measured baselines.
    pub baselines: Baselines,
    /// Analysed access pattern.
    pub pattern: PatternEngine,
    /// The fitted performance model.
    pub model: PerfModel,
    /// The key ordering the curve follows.
    pub order: Vec<u64>,
    /// The estimate curve.
    pub curve: EstimateCurve,
}

impl Consultation {
    /// A tail-latency estimator over this consultation's model and
    /// pattern (extension; see [`crate::tail`]).
    pub fn tail_estimator(&self) -> crate::tail::TailEstimator<'_> {
        crate::tail::TailEstimator::new(&self.model, &self.pattern)
    }
}

impl Consultation {
    /// Build a recommendation from a curve row, with the slowdown column
    /// measured against `reference_ops_s`.
    fn rec_from_row(&self, row: &CurveRow, reference_ops_s: f64) -> Recommendation {
        let total = self.curve.total_bytes.max(1);
        Recommendation {
            prefix: row.prefix,
            fast_bytes: row.fast_bytes,
            fast_ratio: row.fast_bytes as f64 / total as f64,
            cost_reduction: row.cost_reduction,
            est_throughput_ops_s: row.est_throughput_ops_s,
            est_slowdown: if reference_ops_s > 0.0 {
                1.0 - row.est_throughput_ops_s / reference_ops_s
            } else {
                0.0
            },
        }
    }

    /// The cheapest configuration within `slowdown` (e.g. `0.10`) of
    /// FastMem-only performance: [`Self::recommend_resilient`] against
    /// the curve's own all-FastMem row, when that answer complies. `None`
    /// otherwise: for an empty curve, and for a budget outside `[0, 1]`
    /// or NaN.
    pub fn recommend(&self, slowdown: f64) -> Option<Recommendation> {
        let resilient = self.recommend_resilient(slowdown, None);
        resilient.is_compliant().then_some(resilient.recommendation)
    }

    /// The one SLO row search; never panics and never returns nothing.
    /// The budget is clamped to `[0, 1]`, `±inf` included, and NaN is
    /// read as 0, the strictest (all tagged
    /// [`DegradedReason::SloClamped`]); it is measured against
    /// `reference_ops_s`, or the curve's own all-FastMem throughput. Rows
    /// rise in cost, so the first row at or above the target is the
    /// cheapest. Under a fault plan, passing the *healthy* all-FastMem
    /// throughput asks "which split keeps us within the SLO of normal
    /// operation?"; when no row can, the best-performing one is tagged
    /// [`DegradedReason::SloUnattainable`] with the slowdown it achieves.
    pub fn recommend_resilient(
        &self,
        slowdown: f64,
        reference_ops_s: Option<f64>,
    ) -> ResilientRecommendation {
        let Some(fast) = self.curve.rows.last() else {
            return ResilientRecommendation::empty_curve();
        };
        // More slack never costs more: `+inf` clamps to 1 as `1.7` does,
        // and only NaN, which names no budget, falls to the strictest.
        let clamped = if slowdown.is_nan() {
            0.0
        } else {
            slowdown.clamp(0.0, 1.0)
        };
        let reference = reference_ops_s
            .filter(|r| r.is_finite() && *r > 0.0)
            .unwrap_or(fast.est_throughput_ops_s);
        let target = reference * (1.0 - clamped);
        if let Some(row) = self
            .curve
            .rows
            .iter()
            .find(|r| r.est_throughput_ops_s >= target)
        {
            let degraded = (clamped != slowdown).then_some(DegradedReason::SloClamped {
                requested: slowdown,
                clamped,
            });
            return ResilientRecommendation {
                recommendation: self.rec_from_row(row, reference),
                degraded,
            };
        }
        // Nearest-feasible: the best-performing row, cheapest among ties
        // (strict `>` keeps the first maximum).
        let mut best = fast;
        let mut best_thr = f64::NEG_INFINITY;
        for r in &self.curve.rows {
            if r.est_throughput_ops_s.is_finite() && r.est_throughput_ops_s > best_thr {
                best_thr = r.est_throughput_ops_s;
                best = r;
            }
        }
        let recommendation = self.rec_from_row(best, reference);
        ResilientRecommendation {
            recommendation,
            degraded: Some(DegradedReason::SloUnattainable {
                requested: slowdown,
                achievable: recommendation.est_slowdown,
            }),
        }
    }

    /// The cost/performance frontier for several SLOs at once: one
    /// recommendation per slowdown budget in `[0, 1]`, in the given order.
    pub fn frontier(&self, slowdowns: &[f64]) -> Vec<Recommendation> {
        slowdowns
            .iter()
            .filter_map(|&s| self.recommend(s))
            .collect()
    }
}

/// The advisor: configuration + the engines it drives.
#[derive(Debug, Clone)]
pub struct Advisor {
    config: AdvisorConfig,
}

impl Advisor {
    /// Build an advisor.
    pub fn new(config: AdvisorConfig) -> Advisor {
        Advisor { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AdvisorConfig {
        &self.config
    }

    /// Run the full pipeline for one store and workload.
    pub fn consult(&self, store: StoreKind, trace: &Trace) -> Result<Consultation, EngineError> {
        let mut sensitivity = SensitivityEngine::new(self.config.spec.clone(), self.config.noise);
        if let Some(plan) = &self.config.fault_plan {
            sensitivity = sensitivity.with_fault_plan(plan.clone());
        }
        let baselines = sensitivity.measure(store, trace)?;
        Ok(self.consult_with_baselines(baselines, trace))
    }

    /// Verify a recommendation by *executing* the recommended placement
    /// (a third measured run, beyond Mnemo's two baselines) and return
    /// `(measured throughput, measured slowdown vs the FastMem-only
    /// baseline)`. This is the acceptance check the examples and
    /// integration tests perform; it is not part of the paper's flow —
    /// Mnemo's pitch is precisely that the estimate makes it unnecessary.
    /// The run is replayed from the baselines' charge tape, bit-identical
    /// to simulating it, and simulated when the tape declines
    /// ([`Baselines::replay_or_run`]).
    pub fn verify(
        &self,
        store: StoreKind,
        trace: &Trace,
        consultation: &Consultation,
        recommendation: &Recommendation,
    ) -> Result<(f64, f64), EngineError> {
        let placement = crate::placement::PlacementEngine::placement_for(
            &consultation.order,
            &consultation.curve.rows[recommendation.prefix],
        );
        let measured = consultation
            .baselines
            .replay_or_run(
                store,
                &self.config.spec,
                trace,
                self.config.noise,
                placement,
            )?
            .throughput_ops_s();
        let best = consultation.baselines.fast.throughput_ops_s();
        Ok((
            measured,
            if best > 0.0 {
                1.0 - measured / best
            } else {
                0.0
            },
        ))
    }

    /// Run the pipeline from pre-measured baselines (lets callers reuse
    /// one Sensitivity run across model/ordering variants).
    pub fn consult_with_baselines(&self, baselines: Baselines, trace: &Trace) -> Consultation {
        self.consult_with_pattern(baselines, PatternEngine::analyze(trace))
    }

    /// Run the pipeline from pre-measured baselines and an externally
    /// supplied pattern — the entry point for *streaming* profilers,
    /// which hold no trace, only sketch-reconstructed per-key statistics
    /// ([`PatternEngine::from_stats`]). The per-key sizes the estimation
    /// model fits against come from the pattern itself.
    pub fn consult_with_pattern(
        &self,
        baselines: Baselines,
        pattern: PatternEngine,
    ) -> Consultation {
        let order = match self.config.ordering {
            OrderingKind::TouchOrder => pattern.touch_order().to_vec(),
            OrderingKind::Hotness => pattern.hotness_order(),
            OrderingKind::MnemoT => MnemoT::weight_order(&pattern),
        };
        let sizes: Vec<u64> = pattern.stats().iter().map(|s| s.bytes).collect();
        let model = PerfModel::fit(self.config.model, &baselines, &sizes);
        let mut estimator =
            EstimateEngine::new(model.clone(), CostModel::new(self.config.price_factor));
        if let Some(llc) = self.config.cache_correction {
            estimator = estimator.with_cache_correction(llc);
        }
        let curve = estimator.curve(&pattern, &order);
        Consultation {
            baselines,
            pattern,
            model,
            order,
            curve,
        }
    }

    /// Fit a bare allocator demand from baselines and a pattern —
    /// the model fit only, skipping the ordering and the O(k²)
    /// estimate curve a full consultation builds. The shared-budget
    /// allocator ([`crate::multi::allocate_demands`]) needs nothing
    /// more, so high-frequency re-planners use this path.
    pub fn demand_with_pattern<'a>(
        &self,
        baselines: &Baselines,
        pattern: &'a PatternEngine,
    ) -> crate::multi::TenantDemand<'a> {
        let sizes: Vec<u64> = pattern.stats().iter().map(|s| s.bytes).collect();
        let model = PerfModel::fit(self.config.model, baselines, &sizes);
        crate::multi::TenantDemand { model, pattern }
    }
}

#[cfg(test)]
impl Consultation {
    /// A consultation of a tiny trace with its curve replaced by `curve`:
    /// the row search reads nothing else.
    pub(crate) fn over(curve: EstimateCurve) -> Consultation {
        let trace = ycsb::WorkloadSpec::trending().scaled(20, 200).generate(1);
        let c = Advisor::new(AdvisorConfig::default())
            .consult(StoreKind::Redis, &trace)
            .unwrap();
        Consultation { curve, ..c }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ycsb::WorkloadSpec;

    fn consult(store: StoreKind, spec: WorkloadSpec) -> Consultation {
        let trace = spec.generate(12);
        Advisor::new(AdvisorConfig::default())
            .consult(store, &trace)
            .unwrap()
    }

    #[test]
    fn trending_allows_large_savings_on_redis() {
        let c = consult(
            StoreKind::Redis,
            WorkloadSpec::trending().scaled(300, 4_000),
        );
        let rec = c.recommend(0.10).unwrap();
        // The paper's headline: hot-set workloads reach well under half
        // of the FastMem-only cost within a 10% slowdown.
        assert!(
            rec.cost_reduction < 0.6,
            "cost reduction {:.3}",
            rec.cost_reduction
        );
        assert!(rec.est_slowdown <= 0.10 + 1e-9);
        assert!(rec.fast_ratio < 0.5, "fast ratio {:.3}", rec.fast_ratio);
    }

    #[test]
    fn memcached_runs_fully_on_slowmem() {
        let c = consult(
            StoreKind::Memcached,
            WorkloadSpec::trending().scaled(300, 4_000),
        );
        let rec = c.recommend(0.10).unwrap();
        // Fig. 9: memcached is non-sensitive -> maximum savings (the 0.2
        // floor).
        assert!(
            (rec.cost_reduction - 0.2).abs() < 0.05,
            "memcached cost {:.3}",
            rec.cost_reduction
        );
    }

    #[test]
    fn dynamo_needs_more_fastmem_than_redis() {
        let spec = WorkloadSpec::timeline().scaled(300, 4_000);
        let redis = consult(StoreKind::Redis, spec.clone())
            .recommend(0.10)
            .unwrap();
        let dynamo = consult(StoreKind::Dynamo, spec).recommend(0.10).unwrap();
        assert!(
            dynamo.cost_reduction > redis.cost_reduction,
            "dynamo {:.3} must cost more than redis {:.3}",
            dynamo.cost_reduction,
            redis.cost_reduction
        );
    }

    #[test]
    fn news_feed_saves_less_than_trending() {
        let trending = consult(
            StoreKind::Redis,
            WorkloadSpec::trending().scaled(300, 6_000),
        )
        .recommend(0.10);
        let news = consult(
            StoreKind::Redis,
            WorkloadSpec::news_feed().scaled(300, 6_000),
        )
        .recommend(0.10);
        let (t, n) = (trending.unwrap(), news.unwrap());
        assert!(
            n.cost_reduction > t.cost_reduction,
            "news feed {:.3} vs trending {:.3}",
            n.cost_reduction,
            t.cost_reduction
        );
    }

    #[test]
    fn tighter_slo_costs_more() {
        let c = consult(
            StoreKind::Redis,
            WorkloadSpec::trending().scaled(200, 3_000),
        );
        let strict = c.recommend(0.02).unwrap();
        let loose = c.recommend(0.30).unwrap();
        assert!(strict.cost_reduction >= loose.cost_reduction);
        assert!(strict.prefix >= loose.prefix);
    }

    #[test]
    fn orderings_produce_valid_curves() {
        let trace = WorkloadSpec::timeline().scaled(150, 2_000).generate(1);
        for ordering in [
            OrderingKind::TouchOrder,
            OrderingKind::Hotness,
            OrderingKind::MnemoT,
        ] {
            let config = AdvisorConfig {
                ordering,
                ..AdvisorConfig::default()
            };
            let c = Advisor::new(config)
                .consult(StoreKind::Redis, &trace)
                .unwrap();
            assert_eq!(c.curve.rows.len(), 151);
            assert!(c.recommend(0.10).is_some());
        }
    }

    #[test]
    fn frontier_is_monotone() {
        let c = consult(
            StoreKind::Redis,
            WorkloadSpec::trending().scaled(200, 3_000),
        );
        let f = c.frontier(&[0.01, 0.05, 0.10, 0.25]);
        assert_eq!(f.len(), 4);
        for w in f.windows(2) {
            assert!(
                w[0].cost_reduction >= w[1].cost_reduction - 1e-12,
                "tighter SLO costs more"
            );
            assert!(w[0].fast_bytes >= w[1].fast_bytes);
        }
    }

    #[test]
    fn verify_confirms_recommendations_within_slo() {
        let trace = WorkloadSpec::trending().scaled(200, 2_500).generate(9);
        let mut config = AdvisorConfig::default();
        config.spec.cache.capacity_bytes = (trace.dataset_bytes() / 85).max(1 << 16);
        let advisor = Advisor::new(config);
        let c = advisor.consult(StoreKind::Redis, &trace).unwrap();
        let rec = c.recommend(0.10).unwrap();
        let (measured, slowdown) = advisor.verify(StoreKind::Redis, &trace, &c, &rec).unwrap();
        assert!(measured > 0.0);
        assert!(
            slowdown <= 0.10 + 0.03,
            "measured slowdown {slowdown:.3} should honour the SLO (est {:.3})",
            rec.est_slowdown
        );
    }

    #[test]
    fn resilient_recommendation_matches_plain_when_attainable() {
        let c = consult(
            StoreKind::Redis,
            WorkloadSpec::trending().scaled(200, 3_000),
        );
        let plain = c.recommend(0.10).unwrap();
        let res = c.recommend_resilient(0.10, None);
        assert!(res.is_compliant());
        assert_eq!(res.recommendation, plain);
    }

    #[test]
    fn resilient_clamps_out_of_range_budgets_instead_of_panicking() {
        let c = consult(
            StoreKind::Redis,
            WorkloadSpec::trending().scaled(150, 2_000),
        );
        let res = c.recommend_resilient(1.7, None);
        match res.degraded {
            Some(DegradedReason::SloClamped { requested, clamped }) => {
                assert_eq!(requested, 1.7);
                assert_eq!(clamped, 1.0);
            }
            other => panic!("expected SloClamped, got {other:?}"),
        }
        // A full-slack budget admits the all-SlowMem row.
        assert_eq!(res.recommendation.prefix, 0);
        // The infinities clamp to the nearer end; NaN to the strictest.
        for (requested, expected) in [
            (f64::INFINITY, 1.0),
            (f64::NEG_INFINITY, 0.0),
            (f64::NAN, 0.0),
        ] {
            match c.recommend_resilient(requested, None).degraded {
                Some(DegradedReason::SloClamped { clamped, .. }) => {
                    assert_eq!(clamped, expected, "budget {requested}")
                }
                other => panic!("budget {requested}: expected SloClamped, got {other:?}"),
            }
        }
        // Negative budgets clamp to zero slack -> all-FastMem.
        let strict = c.recommend_resilient(-0.5, None);
        assert!(matches!(
            strict.degraded,
            Some(DegradedReason::SloClamped { .. })
        ));
        // Zero slack admits only rows at or above the all-fast
        // throughput (the curve is not strictly monotone, so a cheaper
        // row may already match it).
        assert!(
            strict.recommendation.est_throughput_ops_s >= c.curve.fast_only().est_throughput_ops_s
        );
        // `recommend` answers only what the search can comply with.
        for s in [f64::NAN, 1.7, -0.5] {
            assert_eq!(c.recommend(s), None, "budget {s}");
        }
        let empty = Consultation::over(EstimateCurve {
            rows: Vec::new(),
            ..c.curve
        });
        assert_eq!(empty.recommend(0.10), None);
        let res = empty.recommend_resilient(0.10, None);
        assert_eq!(res, ResilientRecommendation::empty_curve());
    }

    #[test]
    fn faulted_consultation_degrades_with_machine_readable_reason() {
        use mnemo_faults::{FaultEvent, FaultPlan};
        let trace = WorkloadSpec::trending().scaled(200, 2_500).generate(9);
        let mut config = AdvisorConfig::default();
        // Shrink the LLC so device speed dominates (the full 12 MB cache
        // would absorb this reduced-scale dataset and mask the fault).
        config.spec.cache.capacity_bytes = (trace.dataset_bytes() / 85).max(1 << 16);
        let healthy = Advisor::new(config.clone())
            .consult(StoreKind::Redis, &trace)
            .unwrap();
        let nominal = healthy.curve.fast_only().est_throughput_ops_s;

        // Both tiers run at 50x latency / 1/50 bandwidth for the whole
        // run: even all-FastMem cannot stay within 10% of nominal.
        let mut plan = FaultPlan::new(5);
        for tier in [hybridmem::TierId::FAST, hybridmem::TierId::SLOW] {
            plan = plan
                .with(FaultEvent::LatencySpike {
                    tier,
                    start_ns: 0,
                    end_ns: u128::MAX,
                    factor: 50.0,
                })
                .with(FaultEvent::BandwidthThrottle {
                    tier,
                    start_ns: 0,
                    end_ns: u128::MAX,
                    factor: 0.02,
                });
        }
        config.fault_plan = Some(plan);
        let faulted = Advisor::new(config)
            .consult(StoreKind::Redis, &trace)
            .unwrap();
        assert!(
            faulted.curve.fast_only().est_throughput_ops_s < nominal * 0.9,
            "the fault must make the nominal SLO unattainable"
        );

        let res = faulted.recommend_resilient(0.10, Some(nominal));
        match res.degraded {
            Some(DegradedReason::SloUnattainable {
                requested,
                achievable,
            }) => {
                assert_eq!(requested, 0.10);
                assert!(achievable > 0.10, "achievable {achievable:.3}");
                assert!(
                    (achievable - res.recommendation.est_slowdown).abs() < 1e-12,
                    "the tag reports the returned row's own slowdown"
                );
            }
            other => panic!("expected SloUnattainable, got {other:?}"),
        }
        // Nearest-feasible = the best-performing split on the faulted
        // curve (nothing beats it, so nothing else can be closer).
        let best_thr = faulted
            .curve
            .rows
            .iter()
            .map(|r| r.est_throughput_ops_s)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(res.recommendation.est_throughput_ops_s, best_thr);
        // Against its own faulted baseline the budget is attainable.
        assert!(faulted.recommend_resilient(0.10, None).is_compliant());
    }

    /// The row search `recommend` replaced, kept as its oracle: the first
    /// row within `slowdown` of the all-FastMem row's throughput.
    fn cheapest_within_slowdown(curve: &EstimateCurve, slowdown: f64) -> Option<&CurveRow> {
        let target = curve.fast_only().est_throughput_ops_s * (1.0 - slowdown);
        curve.rows.iter().find(|r| r.est_throughput_ops_s >= target)
    }

    /// Curves of 1 to 11 rows with throughputs from a few levels, so
    /// ties, drops and zero rows are common.
    fn arb_curve() -> impl Strategy<Value = EstimateCurve> {
        let levels = [0.0, 500.0, 900.0, 1000.0, 1000.0 + 1e-9];
        proptest::collection::vec(0usize..5, 1..12).prop_map(move |picks| EstimateCurve {
            total_bytes: 100 * (picks.len() as u64 - 1),
            rows: picks
                .iter()
                .enumerate()
                .map(|(i, &p)| CurveRow {
                    prefix: i,
                    key: i.checked_sub(1).map(|k| k as u64),
                    fast_bytes: 100 * i as u64,
                    cost_reduction: 0.2 + 0.05 * i as f64,
                    est_runtime_ns: 1e9,
                    est_throughput_ops_s: levels[p],
                })
                .collect(),
            requests: 1000,
        })
    }

    /// SLO budgets in and out of `[0, 1]`, the infinities included.
    fn budget() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NEG_INFINITY),
            Just(-0.5),
            Just(0.0),
            Just(0.1),
            Just(1.0),
            Just(1.7),
            Just(f64::INFINITY),
            0.0..=1.0f64,
        ]
    }

    proptest! {
        #[test]
        fn recommend_is_the_first_row_search(
            curve in arb_curve(),
            slowdown in prop_oneof![Just(0.0), Just(0.1), Just(0.5), Just(1.0), 0.0..=1.0f64],
        ) {
            let c = Consultation::over(curve);
            let best = c.curve.fast_only().est_throughput_ops_s;
            let expected = cheapest_within_slowdown(&c.curve, slowdown)
                .map(|row| c.rec_from_row(row, best));
            prop_assert_eq!(c.recommend(slowdown), expected);
            let resilient = c.recommend_resilient(slowdown, None);
            prop_assert_eq!(resilient.is_compliant().then_some(resilient.recommendation), expected);
        }

        #[test]
        fn more_slack_never_recommends_a_costlier_split(
            curve in arb_curve(),
            budgets in (budget(), budget()),
            reference in prop_oneof![Just(None), Just(Some(950.0)), Just(Some(2000.0))],
        ) {
            let c = Consultation::over(curve);
            let (a, b) = if budgets.1 < budgets.0 { (budgets.1, budgets.0) } else { budgets };
            let strict = c.recommend_resilient(a, reference);
            let slack = c.recommend_resilient(b, reference);
            prop_assert!(
                slack.recommendation.prefix <= strict.recommendation.prefix,
                "budget {} gave prefix {}, budget {} gave {}",
                b, slack.recommendation.prefix, a, strict.recommendation.prefix
            );
            for (budget, res) in [(a, strict), (b, slack)] {
                if !(0.0..=1.0).contains(&budget) {
                    let clamped = matches!(res.degraded, Some(DegradedReason::SloClamped { .. }));
                    let unattainable =
                        matches!(res.degraded, Some(DegradedReason::SloUnattainable { .. }));
                    prop_assert!(clamped || unattainable, "budget {} untagged", budget);
                }
            }
        }
    }

    #[test]
    fn consult_with_baselines_reuses_measurement() {
        let trace = WorkloadSpec::trending().scaled(100, 1_000).generate(2);
        let advisor = Advisor::new(AdvisorConfig::default());
        let c1 = advisor.consult(StoreKind::Redis, &trace).unwrap();
        let c2 = advisor.consult_with_baselines(c1.baselines.clone(), &trace);
        assert_eq!(c1.curve, c2.curve);
    }

    #[test]
    fn consult_with_pattern_matches_trace_path_on_exact_stats() {
        let trace = WorkloadSpec::trending().scaled(100, 1_000).generate(2);
        let advisor = Advisor::new(AdvisorConfig::default());
        let c1 = advisor.consult(StoreKind::Redis, &trace).unwrap();
        // An exact pattern fed through the streaming entry point must
        // reproduce the offline curve (the default MnemoT ordering does
        // not depend on touch order).
        let exact = PatternEngine::from_stats(c1.pattern.stats().to_vec());
        let c2 = advisor.consult_with_pattern(c1.baselines.clone(), exact);
        assert_eq!(c1.curve, c2.curve);
        assert_eq!(c1.order, c2.order);
    }
}
