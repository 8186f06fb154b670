//! Tail-latency estimation — implementing the paper's declared gap.
//!
//! §V-A: "regarding the tail latency of the requests, Mnemo does not
//! produce any estimate, since the simple analytical model it uses is
//! not sufficient to capture the variabilities of the tail latencies."
//!
//! The gap is narrower than it looks: the same per-key model that powers
//! the runtime estimate induces a full *distribution* over request
//! service times — each key contributes `reads_k` predicted read times
//! and `writes_k` predicted write times in its tier. Quantiles of that
//! weighted mixture are a principled tail estimate. It inherits the
//! model's blind spots (cache residency, queueing), so it is offered as
//! an extension with its accuracy quantified in the harness rather than
//! as a paper claim.

use crate::model::PerfModel;
use crate::pattern::PatternEngine;
use hybridmem::TierId;
use ycsb::Op;

/// Tail-quantile estimator over the per-request service-time mixture.
#[derive(Debug, Clone)]
pub struct TailEstimator<'a> {
    model: &'a PerfModel,
    pattern: &'a PatternEngine,
}

impl<'a> TailEstimator<'a> {
    /// Build from a fitted model and an analysed pattern.
    pub fn new(model: &'a PerfModel, pattern: &'a PatternEngine) -> TailEstimator<'a> {
        TailEstimator { model, pattern }
    }

    /// The weighted atoms `(service_ns, request_count)` of the mixture
    /// for a placement.
    fn atoms<F: Fn(u64) -> bool>(&self, in_fast: F) -> Vec<(f64, u64)> {
        let mut atoms = Vec::with_capacity(self.pattern.key_count() * 2);
        for (k, stats) in self.pattern.stats().iter().enumerate() {
            let tier = if in_fast(k as u64) {
                TierId::FAST
            } else {
                TierId::SLOW
            };
            if stats.reads > 0 {
                atoms.push((self.model.predict(tier, Op::Read, stats.bytes), stats.reads));
            }
            if stats.writes > 0 {
                atoms.push((
                    self.model.predict(tier, Op::Update, stats.bytes),
                    stats.writes,
                ));
            }
        }
        atoms
    }

    /// Estimated quantile `q` (e.g. 0.95, 0.99) of per-request service
    /// time under a placement. Returns 0 for empty workloads.
    pub fn quantile<F: Fn(u64) -> bool>(&self, in_fast: F, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let mut atoms = self.atoms(in_fast);
        if atoms.is_empty() {
            return 0.0;
        }
        atoms.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: u64 = atoms.iter().map(|&(_, w)| w).sum();
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (ns, w) in atoms {
            seen += w;
            if seen >= rank {
                return ns;
            }
        }
        unreachable!("rank is clamped to the total weight")
    }

    /// Quantiles for a prefix of a key ordering (the first `prefix` keys
    /// in FastMem) — the placement the estimate-curve rows describe.
    pub fn quantile_at_prefix(&self, order: &[u64], prefix: usize, q: f64) -> f64 {
        let fast: hybridmem::DetHashSet<u64> =
            order[..prefix.min(order.len())].iter().copied().collect();
        self.quantile(|k| fast.contains(&k), q)
    }

    /// A sweep of `(prefix, quantile)` estimates along an ordering, at
    /// `points` evenly spaced prefixes including both endpoints.
    pub fn sweep(&self, order: &[u64], points: usize, q: f64) -> Vec<(usize, f64)> {
        assert!(points >= 2, "need both endpoints");
        (0..points)
            .map(|i| {
                let prefix = i * order.len() / (points - 1);
                (prefix, self.quantile_at_prefix(order, prefix, q))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use crate::sensitivity::SensitivityEngine;
    use hybridmem::{CacheConfig, StackSpec};
    use kvsim::{Placement, Server, StoreKind};
    use ycsb::WorkloadSpec;

    /// Noiseless, cache-free testbed: per-request service times are an
    /// exact affine function of record size, so the SizeAware mixture
    /// should reproduce measured quantiles to histogram resolution.
    fn cacheless_spec() -> StackSpec {
        let mut spec = StackSpec::paper_testbed();
        spec.cache = CacheConfig::disabled();
        spec
    }

    fn setup() -> (PerfModel, PatternEngine, ycsb::Trace, StackSpec) {
        let t = WorkloadSpec::trending_preview()
            .scaled(300, 5_000)
            .generate(3);
        let spec = cacheless_spec();
        let engine =
            SensitivityEngine::new(spec.clone(), hybridmem::clock::NoiseConfig::disabled());
        let b = engine.measure(StoreKind::Redis, &t).unwrap();
        let model = PerfModel::fit(ModelKind::SizeAware, &b, &t.sizes);
        (model, PatternEngine::analyze(&t), t, spec)
    }

    #[test]
    fn tail_estimate_matches_cacheless_measurement() {
        let (model, pattern, trace, spec) = setup();
        let est = TailEstimator::new(&model, &pattern);
        let mut server = Server::build_with(
            StoreKind::Redis,
            spec,
            hybridmem::clock::NoiseConfig::disabled(),
            &trace,
            Placement::AllSlow,
        )
        .unwrap();
        let report = server.run(&trace);
        for q in [0.5, 0.95, 0.99] {
            let predicted = est.quantile(|_| false, q);
            let measured = report.latency_quantile(q).unwrap();
            let rel = (predicted - measured).abs() / measured;
            assert!(
                rel < 0.08,
                "q={q}: predicted {predicted:.0} vs measured {measured:.0}"
            );
        }
    }

    #[test]
    fn tails_fall_as_fastmem_grows() {
        let (model, pattern, _, _) = setup();
        let est = TailEstimator::new(&model, &pattern);
        let order = pattern.hotness_order();
        let sweep = est.sweep(&order, 6, 0.99);
        assert_eq!(sweep.first().unwrap().0, 0);
        assert_eq!(sweep.last().unwrap().0, order.len());
        for w in sweep.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-6,
                "p99 must not rise with more FastMem: {sweep:?}"
            );
        }
        assert!(sweep.last().unwrap().1 < sweep.first().unwrap().1);
    }

    #[test]
    fn p99_exceeds_median() {
        let (model, pattern, _, _) = setup();
        let est = TailEstimator::new(&model, &pattern);
        let p50 = est.quantile(|_| false, 0.5);
        let p99 = est.quantile(|_| false, 0.99);
        assert!(p99 >= p50);
    }

    #[test]
    fn quantile_bounds() {
        let (model, pattern, _, _) = setup();
        let est = TailEstimator::new(&model, &pattern);
        // q=0 is the fastest atom, q=1 the slowest; both finite, ordered.
        let lo = est.quantile(|_| true, 0.0);
        let hi = est.quantile(|_| true, 1.0);
        assert!(lo > 0.0 && hi >= lo);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_quantile() {
        let (model, pattern, _, _) = setup();
        let _ = TailEstimator::new(&model, &pattern).quantile(|_| true, 1.5);
    }
}
