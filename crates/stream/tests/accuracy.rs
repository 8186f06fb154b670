//! PR acceptance: on a 1M-request scrambled-zipfian stream over 10k
//! keys, the sketch-fed advisor must land within 5% of the exact
//! offline MnemoT consultation's cost factor, while the profiler state
//! stays inside the default 64 KiB budget the whole way.
//!
//! `MNEMO_SCALE` (a divisor, default 1) shrinks the request count so CI
//! can run a cheaper but structurally identical version.

use mnemo::advisor::{Advisor, AdvisorConfig};
use mnemo::sensitivity::SensitivityEngine;
use mnemo_stream::{StreamConfig, StreamProfiler};
use ycsb::{DistKind, WorkloadSpec};

fn scale() -> usize {
    std::env::var("MNEMO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&d| d >= 1)
        .unwrap_or(1)
}

#[test]
fn sketch_fed_advisor_matches_exact_offline_mnemot_within_5_percent() {
    let requests = 1_000_000 / scale();
    let spec = WorkloadSpec {
        distribution: DistKind::ScrambledZipfian { theta: 0.99 },
        ..WorkloadSpec::trending().scaled(10_000, requests)
    };
    let trace = spec.generate(42);

    // One set of measured baselines feeds both paths: the comparison
    // isolates the Pattern Engine (exact vs sketched).
    let config = AdvisorConfig::default();
    let baselines = SensitivityEngine::new(config.spec.clone(), config.noise)
        .measure(kvsim::StoreKind::Redis, &trace)
        .unwrap();
    let advisor = Advisor::new(config);
    let slo = 0.10;

    // Exact offline path: full trace, per-key stats, MnemoT ordering.
    let exact = advisor
        .consult_with_baselines(baselines.clone(), &trace)
        .recommend(slo)
        .unwrap();

    // Streaming path: one pass over the events, bounded state.
    let budget = 64 * 1024;
    let mut profiler = StreamProfiler::new(StreamConfig::default());
    for (i, event) in trace.events().enumerate() {
        profiler.observe(&event);
        if i % 100_000 == 0 {
            assert!(
                profiler.memory_bytes() <= budget,
                "profiler footprint {} blew the {budget} B budget mid-stream",
                profiler.memory_bytes()
            );
        }
    }
    assert!(
        profiler.memory_bytes() <= budget,
        "final footprint {}",
        profiler.memory_bytes()
    );

    let approx = profiler.approx_pattern();
    let streamed = advisor
        .consult_with_pattern(baselines, approx.pattern.clone())
        .recommend(slo)
        .unwrap();

    let rel = (streamed.cost_reduction - exact.cost_reduction).abs() / exact.cost_reduction;
    assert!(
        rel <= 0.05,
        "sketch-fed cost factor {:.4} vs exact {:.4}: {:.1}% off",
        streamed.cost_reduction,
        exact.cost_reduction,
        100.0 * rel
    );
    // Both must actually honour the SLO.
    assert!(exact.est_slowdown <= slo + 1e-9);
    assert!(streamed.est_slowdown <= slo + 1e-9);
}
