//! Comparator profilers for the Table IV overhead comparison.
//!
//! The paper contrasts MnemoT's profiling pipeline with two families of
//! existing solutions:
//!
//! * **Instrumentation-based tiering** (X-Mem, Shen et al., Unimem): use
//!   binary instrumentation or hardware counters to record *every memory
//!   access*, then compute per-object weights. "The utilization of such
//!   tools ... can add up to 40x overhead". [`InstrumentedProfiler`]
//!   reproduces that pipeline: it shadows a workload execution at
//!   cache-line granularity and derives the same hot-first ordering —
//!   correct, but paying per-line work per request.
//! * **One-baseline + learned model** (Tahoe): measure only the
//!   all-SlowMem baseline and infer the all-FastMem baseline with a
//!   pre-trained ML model, trading a second real run for a training
//!   corpus. [`MlBaselineProfiler`] implements the approach with a linear
//!   ridge model over workload features.
//!
//! The `overhead` bench and the `table4` harness binary time these
//! against MnemoT's input-description-only Pattern Engine.

use crate::pattern::PatternEngine;
use crate::sensitivity::{BaselineRun, Baselines, SensitivityEngine};
use hybridmem::{DetHashMap, DetHashSet};
use kvsim::{EngineError, RunReport, StoreKind};
use mnemo_tier::density;
use ycsb::Trace;

/// Cache-line size assumed by the instrumentation shadow.
const LINE_BYTES: u64 = 64;

/// Result of an instrumentation-based profiling pass.
#[derive(Debug, Clone)]
pub struct InstrumentedProfile {
    /// Keys ordered hottest-first by instrumented access density.
    pub order: Vec<u64>,
    /// Total instrumented events (one per cache line touched) — the
    /// quantity the 40x overhead scales with.
    pub events: u64,
    /// Events per request: the instrumentation amplification factor.
    pub amplification: f64,
}

impl InstrumentedProfile {
    /// The profile of `events` observed on `trace`, `per_key[k]` of them
    /// on key `k`: keys by descending count per byte, ties by key.
    fn from_counts(per_key: &[u64], events: u64, trace: &Trace) -> InstrumentedProfile {
        let keys = per_key.iter().zip(&trace.sizes).zip(0u64..);
        let order = density::order(keys.map(|((&count, &bytes), key)| (count as f64, bytes, key)))
            .map(|key| key as u64)
            .collect();
        let amplification = if trace.is_empty() {
            0.0
        } else {
            events as f64 / trace.len() as f64
        };
        InstrumentedProfile {
            order,
            events,
            amplification,
        }
    }
}

/// X-Mem-style instrumentation profiler.
#[derive(Debug, Clone, Default)]
pub struct InstrumentedProfiler;

impl InstrumentedProfiler {
    /// Shadow-execute the trace, counting every cache line touched per
    /// object, and derive the weight ordering from the counts.
    pub fn profile(trace: &Trace) -> InstrumentedProfile {
        let mut line_counts: DetHashMap<u64, u64> = DetHashMap::default();
        let mut events: u64 = 0;
        for r in &trace.requests {
            let bytes = trace.sizes[r.key as usize];
            let lines = bytes.div_ceil(LINE_BYTES).max(1);
            // Every line of the value is an instrumented event, plus two
            // metadata lines (dict entry + header), exactly the accesses
            // a PIN tool would observe.
            let base = r.key << 24;
            for l in 0..lines {
                *line_counts.entry(base + l).or_insert(0) += 1;
                events += 1;
            }
            *line_counts.entry(base + (1 << 20)).or_insert(0) += 1;
            *line_counts.entry(base + (1 << 20) + 1).or_insert(0) += 1;
            events += 2;
        }
        // Aggregate line counts back to objects and order by density.
        let mut per_key: Vec<u64> = vec![0; trace.sizes.len()];
        for (&line, &count) in &line_counts {
            let key = (line >> 24) as usize;
            if key < per_key.len() {
                per_key[key] += count;
            }
        }
        InstrumentedProfile::from_counts(&per_key, events, trace)
    }
}

/// PEBS/IBS-style *sampling* profiler: observes only every `period`-th
/// memory access instead of all of them (the other instrumentation
/// strategy Table IV's comparison set uses — "sampling low-level
/// architecture counters"). Cheaper than full instrumentation by the
/// sampling factor, but the derived ordering is noisy for cold keys.
#[derive(Debug, Clone)]
pub struct SamplingProfiler {
    /// Sample one in `period` accesses.
    pub period: u64,
}

impl SamplingProfiler {
    /// Build with a sampling period (e.g. PEBS at 1/1000).
    pub fn new(period: u64) -> SamplingProfiler {
        assert!(period >= 1, "period must be at least 1");
        SamplingProfiler { period }
    }

    /// Shadow-profile the trace, observing every `period`-th cache-line
    /// access, and derive the hot-first ordering from the samples.
    pub fn profile(&self, trace: &Trace) -> InstrumentedProfile {
        let mut per_key: Vec<u64> = vec![0; trace.sizes.len()];
        let mut events: u64 = 0;
        let mut access_counter: u64 = 0;
        for r in &trace.requests {
            let bytes = trace.sizes[r.key as usize];
            let lines = bytes.div_ceil(LINE_BYTES).max(1) + 2;
            // Deterministic systematic sampling over the access stream:
            // the number of sampled events in [counter, counter+lines).
            let start = access_counter;
            access_counter += lines;
            let sampled = access_counter / self.period - start / self.period;
            if sampled > 0 {
                per_key[r.key as usize] += sampled;
                events += sampled;
            }
        }
        InstrumentedProfile::from_counts(&per_key, events, trace)
    }
}

/// Workload features the Tahoe-like model regresses over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadFeatures {
    /// Measured all-SlowMem runtime (ns).
    pub slow_runtime_ns: f64,
    /// Read requests.
    pub reads: f64,
    /// Write requests.
    pub writes: f64,
    /// Total value bytes requested across the trace.
    pub bytes_requested: f64,
}

impl WorkloadFeatures {
    /// Extract features from a slow-baseline report and its trace.
    pub fn extract(trace: &Trace, slow_report: &RunReport) -> WorkloadFeatures {
        let bytes_requested: u64 = trace
            .requests
            .iter()
            .map(|r| trace.sizes[r.key as usize])
            .sum();
        WorkloadFeatures {
            slow_runtime_ns: slow_report.runtime_ns,
            reads: slow_report.reads as f64,
            writes: slow_report.writes as f64,
            bytes_requested: bytes_requested as f64,
        }
    }

    fn vector(&self) -> [f64; 4] {
        [
            self.slow_runtime_ns,
            self.reads,
            self.writes,
            self.bytes_requested,
        ]
    }
}

/// Linear model predicting the all-FastMem runtime from slow-baseline
/// features (ridge-regularised least squares, closed form via Gaussian
/// elimination).
#[derive(Debug, Clone, PartialEq)]
pub struct MlBaselineModel {
    coefficients: [f64; 4],
}

impl MlBaselineModel {
    /// Fit from `(features, measured fast runtime)` training pairs.
    pub fn train(samples: &[(WorkloadFeatures, f64)]) -> MlBaselineModel {
        assert!(samples.len() >= 2, "need at least two training workloads");
        const D: usize = 4;
        const RIDGE: f64 = 1e-6;
        let mut xtx = [[0.0f64; D]; D];
        let mut xty = [0.0f64; D];
        for (f, y) in samples {
            let x = f.vector();
            for i in 0..D {
                for j in 0..D {
                    xtx[i][j] += x[i] * x[j];
                }
                xty[i] += x[i] * y;
            }
        }
        // Scale-aware ridge: regularise relative to each diagonal.
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += RIDGE * row[i].max(1.0);
        }
        let coefficients = solve_linear(xtx, xty);
        MlBaselineModel { coefficients }
    }

    /// Predict the all-FastMem runtime (ns).
    pub fn predict(&self, features: &WorkloadFeatures) -> f64 {
        let x = features.vector();
        self.coefficients
            .iter()
            .zip(x)
            .map(|(c, v)| c * v)
            .sum::<f64>()
            .max(0.0)
    }
}

/// Solve a 4x4 linear system by Gaussian elimination with partial
/// pivoting.
fn solve_linear(mut a: [[f64; 4]; 4], mut b: [f64; 4]) -> [f64; 4] {
    const D: usize = 4;
    for col in 0..D {
        // Pivot.
        let pivot = (col..D)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap_or(col);
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        assert!(diag.abs() > 1e-30, "singular system");
        let pivot_row = a[col];
        for row in col + 1..D {
            let factor = a[row][col] / diag;
            for (target, &p) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *target -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = [0.0f64; D];
    for row in (0..D).rev() {
        let mut acc = b[row];
        for (k, xk) in x.iter().enumerate().skip(row + 1) {
            acc -= a[row][k] * xk;
        }
        x[row] = acc / a[row][row];
    }
    x
}

/// Tahoe-like profiler: one real baseline + model inference.
#[derive(Debug, Clone)]
pub struct MlBaselineProfiler {
    model: MlBaselineModel,
}

impl MlBaselineProfiler {
    /// Build from a trained model.
    pub fn new(model: MlBaselineModel) -> MlBaselineProfiler {
        MlBaselineProfiler { model }
    }

    /// Collect a training corpus: run *both* baselines for every
    /// (store, workload) pair — this is exactly the data-collection cost
    /// the paper calls "significant".
    pub fn collect_training(
        engine: &SensitivityEngine,
        store: StoreKind,
        traces: &[Trace],
    ) -> Result<Vec<(WorkloadFeatures, f64)>, EngineError> {
        let mut samples = Vec::with_capacity(traces.len());
        for trace in traces {
            let baselines = engine.measure(store, trace)?;
            samples.push((
                WorkloadFeatures::extract(trace, &baselines.slow.report),
                baselines.fast.runtime_ns,
            ));
        }
        Ok(samples)
    }

    /// Profile a workload with one real run: measure the SlowMem baseline
    /// and *infer* the FastMem one. The synthesised fast [`BaselineRun`]
    /// scales the slow run's averages by the predicted runtime ratio.
    pub fn profile(
        &self,
        engine: &SensitivityEngine,
        store: StoreKind,
        trace: &Trace,
    ) -> Result<Baselines, EngineError> {
        let slow = engine.measure_one(store, trace, kvsim::Placement::AllSlow)?;
        let features = WorkloadFeatures::extract(trace, &slow.report);
        let predicted_fast_runtime = self.model.predict(&features);
        let ratio = if slow.runtime_ns > 0.0 {
            predicted_fast_runtime / slow.runtime_ns
        } else {
            1.0
        };
        let mut fast_report = slow.report.clone();
        fast_report.runtime_ns = predicted_fast_runtime;
        fast_report.read_ns_total *= ratio;
        fast_report.write_ns_total *= ratio;
        for s in fast_report.samples.iter_mut().flatten() {
            s.service_ns *= ratio;
        }
        let fast = BaselineRun {
            runtime_ns: predicted_fast_runtime,
            avg_read_ns: slow.avg_read_ns * ratio,
            avg_write_ns: slow.avg_write_ns * ratio,
            report: fast_report,
        };
        Ok(Baselines {
            store,
            workload: trace.name.clone(),
            fast,
            slow,
            tape: None,
        })
    }
}

/// Sanity cross-check used by tests and the harness: the instrumented
/// ordering and MnemoT's description-only ordering agree on the hot head.
pub fn head_agreement(trace: &Trace, head: usize) -> f64 {
    let instrumented = InstrumentedProfiler::profile(trace);
    let pattern = PatternEngine::analyze(trace);
    let mnemot = crate::tiering::MnemoT::weight_order(&pattern);
    let a: DetHashSet<u64> = instrumented.order.iter().take(head).copied().collect();
    let b: DetHashSet<u64> = mnemot.iter().take(head).copied().collect();
    a.intersection(&b).count() as f64 / head.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ycsb::WorkloadSpec;

    #[test]
    fn instrumented_profile_counts_lines() {
        let t = WorkloadSpec::trending().scaled(100, 1_000).generate(4);
        let p = InstrumentedProfiler::profile(&t);
        assert_eq!(p.order.len(), 100);
        // 100 KB thumbnails = ~1600 lines + 2 metadata events per request.
        assert!(
            p.amplification > 1000.0,
            "amplification {}",
            p.amplification
        );
        assert!(p.events > t.len() as u64 * 1000);
    }

    #[test]
    fn instrumented_and_mnemot_agree_on_hot_head() {
        let t = WorkloadSpec::trending().scaled(200, 8_000).generate(4);
        let agreement = head_agreement(&t, 40);
        assert!(agreement > 0.9, "head agreement {agreement}");
    }

    #[test]
    fn solve_linear_recovers_known_solution() {
        let a = [
            [4.0, 1.0, 0.0, 0.0],
            [1.0, 3.0, 1.0, 0.0],
            [0.0, 1.0, 2.0, 1.0],
            [0.0, 0.0, 1.0, 5.0],
        ];
        let x_true = [1.0, -2.0, 3.0, 0.5];
        let mut b = [0.0; 4];
        for i in 0..4 {
            b[i] = (0..4).map(|j| a[i][j] * x_true[j]).sum();
        }
        let x = solve_linear(a, b);
        for i in 0..4 {
            assert!((x[i] - x_true[i]).abs() < 1e-9, "x[{i}]");
        }
    }

    #[test]
    fn ml_model_learns_runtime_ratio() {
        // Synthetic corpus: fast runtime = 0.7 * slow runtime exactly.
        let samples: Vec<(WorkloadFeatures, f64)> = (1..20)
            .map(|i| {
                let slow = 1e9 * i as f64;
                (
                    WorkloadFeatures {
                        slow_runtime_ns: slow,
                        reads: 1000.0 * i as f64,
                        writes: 100.0 * i as f64,
                        bytes_requested: 5e7 * i as f64,
                    },
                    0.7 * slow,
                )
            })
            .collect();
        let model = MlBaselineModel::train(&samples);
        let probe = samples[7].0;
        let rel = (model.predict(&probe) - samples[7].1).abs() / samples[7].1;
        assert!(rel < 0.01, "relative error {rel}");
    }

    #[test]
    fn tahoe_like_profiler_approximates_real_baselines() {
        let engine = SensitivityEngine::default();
        // Train on four workloads, test on a fifth.
        let train_traces: Vec<Trace> = [
            WorkloadSpec::trending(),
            WorkloadSpec::timeline(),
            WorkloadSpec::edit_thumbnail(),
            WorkloadSpec::trending_preview(),
        ]
        .iter()
        .map(|w| w.scaled(120, 1_500).generate(5))
        .collect();
        let samples =
            MlBaselineProfiler::collect_training(&engine, StoreKind::Redis, &train_traces).unwrap();
        let profiler = MlBaselineProfiler::new(MlBaselineModel::train(&samples));

        let test = WorkloadSpec::trending().scaled(120, 1_500).generate(99);
        let inferred = profiler.profile(&engine, StoreKind::Redis, &test).unwrap();
        let real = engine.measure(StoreKind::Redis, &test).unwrap();
        let rel = (inferred.fast.runtime_ns - real.fast.runtime_ns).abs() / real.fast.runtime_ns;
        // The learned baseline is decent but visibly worse than actually
        // running the workload — the paper's argument for Mnemo's choice.
        assert!(rel < 0.25, "inferred fast baseline off by {rel}");
        assert!(rel > 1e-9, "inference should not be magically exact");
    }

    #[test]
    #[should_panic(expected = "two training")]
    fn training_requires_samples() {
        let _ = MlBaselineModel::train(&[]);
    }

    #[test]
    fn sampling_period_one_matches_full_instrumentation() {
        let t = WorkloadSpec::trending().scaled(150, 3_000).generate(8);
        let full = InstrumentedProfiler::profile(&t);
        let sampled = SamplingProfiler::new(1).profile(&t);
        assert_eq!(sampled.events, full.events, "period 1 observes everything");
        assert_eq!(sampled.order, full.order);
    }

    #[test]
    fn sampling_reduces_events_proportionally() {
        let t = WorkloadSpec::trending().scaled(150, 3_000).generate(8);
        let full = InstrumentedProfiler::profile(&t);
        let sampled = SamplingProfiler::new(1000).profile(&t);
        let ratio = full.events as f64 / sampled.events.max(1) as f64;
        assert!(
            (900.0..1100.0).contains(&ratio),
            "event reduction ratio {ratio}"
        );
    }

    #[test]
    fn sampled_ordering_still_finds_the_hot_head() {
        let t = WorkloadSpec::trending().scaled(300, 10_000).generate(8);
        let full = InstrumentedProfiler::profile(&t);
        let sampled = SamplingProfiler::new(1000).profile(&t);
        let head = 60; // hottest 20%
        let a: std::collections::HashSet<u64> = full.order.iter().take(head).copied().collect();
        let b: std::collections::HashSet<u64> = sampled.order.iter().take(head).copied().collect();
        let agreement = a.intersection(&b).count() as f64 / head as f64;
        assert!(
            agreement > 0.7,
            "head agreement under 1/1000 sampling: {agreement}"
        );
    }

    #[test]
    #[should_panic(expected = "period")]
    fn sampling_rejects_zero_period() {
        let _ = SamplingProfiler::new(0);
    }
}
