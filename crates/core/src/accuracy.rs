//! Estimate-vs-measured error evaluation (Fig. 8a).
//!
//! "To justify the accuracy of Mnemo we keep track of the percentage
//! error `(r - e) / r * 100%` between the real performance points `r` and
//! their corresponding estimate `e`, across all experiments."

use crate::advisor::Consultation;
use crate::placement::PlacementEngine;
use hybridmem::clock::NoiseConfig;
use hybridmem::StackSpec;
use kvsim::{EngineError, StoreKind};
use ycsb::Trace;

/// One comparison point: a capacity configuration measured for real
/// (simulated) and estimated by the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalPoint {
    /// Keys in FastMem.
    pub prefix: usize,
    /// Cost reduction factor at this configuration.
    pub cost_reduction: f64,
    /// Measured throughput (ops/s).
    pub measured_ops_s: f64,
    /// Estimated throughput (ops/s).
    pub estimated_ops_s: f64,
    /// Measured average latency (ns).
    pub measured_avg_latency_ns: f64,
    /// Estimated average latency (ns).
    pub estimated_avg_latency_ns: f64,
    /// Measured tail latencies `(p95, p99)` in ns — the paper reports
    /// these but does not estimate them (Figs. 8d/8e).
    pub measured_tail_ns: (f64, f64),
}

impl EvalPoint {
    /// The paper's signed percentage error on throughput.
    pub fn error_pct(&self) -> f64 {
        if self.measured_ops_s == 0.0 {
            return 0.0;
        }
        (self.measured_ops_s - self.estimated_ops_s) / self.measured_ops_s * 100.0
    }

    /// Percentage error on average latency.
    pub fn latency_error_pct(&self) -> f64 {
        if self.measured_avg_latency_ns == 0.0 {
            return 0.0;
        }
        (self.measured_avg_latency_ns - self.estimated_avg_latency_ns)
            / self.measured_avg_latency_ns
            * 100.0
    }
}

/// Boxplot-style summary of a set of (absolute) percentage errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Smallest |error|.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median — the paper's headline metric (0.07%).
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest |error|.
    pub max: f64,
    /// Mean |error|.
    pub mean: f64,
    /// Sample count.
    pub count: usize,
}

impl ErrorStats {
    /// Summarise a set of signed percentage errors by magnitude.
    pub fn from_errors(errors: &[f64]) -> ErrorStats {
        assert!(!errors.is_empty(), "need at least one error sample");
        let mut mags: Vec<f64> = errors.iter().map(|e| e.abs()).collect();
        mags.sort_by(f64::total_cmp);
        let q = |f: f64| -> f64 {
            let pos = f * (mags.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                mags[lo]
            } else {
                mags[lo] + (mags[hi] - mags[lo]) * (pos - lo as f64)
            }
        };
        ErrorStats {
            min: mags[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            // mnemo-lint: allow(R001, "from_errors asserts non-emptiness on entry, so the sorted magnitudes have a last element")
            max: *mags.last().expect("nonempty"),
            mean: mags.iter().sum::<f64>() / mags.len() as f64,
            count: mags.len(),
        }
    }
}

/// Evaluate a consultation's estimate against measured runs at `points`
/// evenly spaced prefixes along the curve (endpoints included).
///
/// `spec`/`noise` configure the *measurement* runs; using a different
/// noise seed than the baselines mirrors the paper's separate
/// measurement campaigns. Each run is replayed from the baselines'
/// charge tape, bit-identical to simulating it, and simulated when the
/// tape declines.
pub fn evaluate(
    store: StoreKind,
    trace: &Trace,
    consultation: &Consultation,
    spec: &StackSpec,
    noise: NoiseConfig,
    points: usize,
) -> Result<Vec<EvalPoint>, EngineError> {
    assert!(points >= 2, "need at least both endpoints");
    let keys = consultation.order.len();
    let mut out = Vec::with_capacity(points);
    for i in 0..points {
        let prefix = i * keys / (points - 1);
        let row = consultation.curve.rows[prefix];
        let placement = PlacementEngine::placement_for(&consultation.order, &row);
        let mut noise_i = noise;
        noise_i.seed = noise.seed.wrapping_add(0x9E37 * i as u64 + 17);
        let report = consultation
            .baselines
            .replay_or_run(store, spec, trace, noise_i, placement)?;
        // A replayed or simulated split keeps its histograms; were one
        // missing, its tails would read NaN, never a silent 0.
        let tail = |q| report.latency_quantile(q).unwrap_or(f64::NAN);
        out.push(EvalPoint {
            prefix,
            cost_reduction: row.cost_reduction,
            measured_ops_s: report.throughput_ops_s(),
            estimated_ops_s: row.est_throughput_ops_s,
            measured_avg_latency_ns: report.avg_latency_ns(),
            estimated_avg_latency_ns: row.est_avg_latency_ns(consultation.curve.requests),
            measured_tail_ns: (tail(0.95), tail(0.99)),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{Advisor, AdvisorConfig};
    use ycsb::WorkloadSpec;

    fn eval(noise_sigma: f64) -> Vec<EvalPoint> {
        let trace = WorkloadSpec::trending().scaled(150, 2_500).generate(21);
        let mut config = AdvisorConfig::default();
        // Keep the LLC:dataset proportion of the paper's testbed
        // (12 MB : 1 GB); at test scale the full-size LLC would cache the
        // entire hot set and distort both measurement and estimate.
        config.spec.cache.capacity_bytes = trace.dataset_bytes() / 85;
        config.noise = if noise_sigma > 0.0 {
            NoiseConfig {
                relative_sigma: noise_sigma,
                seed: 1,
            }
        } else {
            NoiseConfig::disabled()
        };
        let consultation = Advisor::new(config.clone())
            .consult(StoreKind::Redis, &trace)
            .unwrap();
        evaluate(
            StoreKind::Redis,
            &trace,
            &consultation,
            &config.spec,
            NoiseConfig {
                relative_sigma: noise_sigma,
                seed: 99,
            },
            7,
        )
        .unwrap()
    }

    #[test]
    fn noiseless_estimate_is_subpercent_accurate() {
        let points = eval(0.0);
        let errors: Vec<f64> = points.iter().map(EvalPoint::error_pct).collect();
        let stats = ErrorStats::from_errors(&errors);
        // Without measurement noise the only estimate error comes from
        // cache effects the simple model cannot see.
        assert!(stats.median < 1.0, "median error {:.4}%", stats.median);
        assert!(stats.max < 5.0, "max error {:.4}%", stats.max);
    }

    #[test]
    fn noisy_estimate_stays_accurate() {
        let points = eval(0.02);
        let errors: Vec<f64> = points.iter().map(EvalPoint::error_pct).collect();
        let stats = ErrorStats::from_errors(&errors);
        assert!(stats.median < 1.5, "median error {:.4}%", stats.median);
    }

    #[test]
    fn latency_estimate_tracks_measurement() {
        let points = eval(0.0);
        for p in &points {
            assert!(
                p.latency_error_pct().abs() < 5.0,
                "prefix {}: {}",
                p.prefix,
                p.latency_error_pct()
            );
            // Tails are above the average.
            assert!(p.measured_tail_ns.1 >= p.measured_tail_ns.0);
            assert!(p.measured_tail_ns.0 >= p.measured_avg_latency_ns * 0.5);
        }
    }

    #[test]
    fn eval_points_cover_both_endpoints() {
        let points = eval(0.0);
        assert_eq!(points.first().unwrap().prefix, 0);
        assert_eq!(points.last().unwrap().prefix, 150);
        // Measured throughput grows with FastMem share.
        assert!(points.last().unwrap().measured_ops_s > points.first().unwrap().measured_ops_s);
    }

    #[test]
    fn error_stats_quartiles() {
        let stats = ErrorStats::from_errors(&[1.0, -2.0, 3.0, -4.0, 5.0]);
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.median, 3.0);
        assert_eq!(stats.max, 5.0);
        assert_eq!(stats.count, 5);
        assert!((stats.mean - 3.0).abs() < 1e-12);
        assert_eq!(stats.q1, 2.0);
        assert_eq!(stats.q3, 4.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn error_stats_reject_empty() {
        let _ = ErrorStats::from_errors(&[]);
    }
}
