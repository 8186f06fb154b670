//! Online vs offline Pattern Engine (extension experiment).
//!
//! Streams a 1M-request scrambled-zipfian workload through the bounded
//! [`mnemo_stream::StreamProfiler`] at several memory budgets and feeds
//! the reconstructed pattern to the advisor, comparing the resulting SLO
//! sweet spot against the exact offline MnemoT consultation that sees
//! every request. Shows the accuracy a few KiB of sketches buy: the cost
//! factor converges onto the exact one as the budget grows.
//!
//! `MNEMO_SCALE` shrinks the stream for CI (divisor, default 1).

use kvsim::StoreKind;
use mnemo::advisor::Advisor;
use mnemo::sensitivity::SensitivityEngine;
use mnemo_bench::{measurement_noise, print_table, scale_divisor, testbed_for, write_csv};
use mnemo_stream::{StreamConfig, StreamProfiler};
use ycsb::{DistKind, WorkloadSpec};

fn main() -> Result<(), mnemo_bench::HarnessError> {
    mnemo_bench::harness_args()?;
    let d = scale_divisor();
    let keys = (10_000u64 / d).max(100);
    let requests = (1_000_000usize / d as usize).max(1_000);
    let spec = WorkloadSpec {
        distribution: DistKind::ScrambledZipfian { theta: 0.99 },
        ..WorkloadSpec::trending().scaled(keys, requests)
    };
    let trace = spec.generate(42);
    println!(
        "streaming the '{}' workload: {} keys, {} requests, {:.1} MB dataset",
        trace.name,
        trace.keys(),
        trace.len(),
        trace.dataset_bytes() as f64 / 1e6
    );

    let slo = 0.10;
    let config = mnemo::advisor::AdvisorConfig {
        spec: testbed_for(&trace),
        noise: measurement_noise(7),
        ..mnemo::advisor::AdvisorConfig::default()
    };
    let baselines = SensitivityEngine::new(config.spec.clone(), config.noise)
        .measure(StoreKind::Redis, &trace)
        .map_err(|e| format!("baseline measurement failed: {e}"))?;
    let advisor = Advisor::new(config);

    // The reference: the offline Pattern Engine with exact per-key stats.
    let exact = advisor
        .consult_with_baselines(baselines.clone(), &trace)
        .recommend(slo)
        .ok_or("offline estimate curve is empty")?;
    println!(
        "exact offline MnemoT @{:.0}% SLO: {:.1}% FastMem bytes, cost {:.3}x\n",
        slo * 100.0,
        exact.fast_ratio * 100.0,
        exact.cost_reduction
    );

    let budgets_kib = [8usize, 16, 32, 64, 128, 256];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &kib in &budgets_kib {
        let mut profiler = StreamProfiler::new(StreamConfig::with_budget_bytes(kib * 1024));
        for event in trace.events() {
            profiler.observe(&event);
        }
        let approx = profiler.approx_pattern();
        let head = approx.head_keys.len();
        let streamed = advisor
            .consult_with_pattern(baselines.clone(), approx.pattern.clone())
            .recommend(slo)
            .ok_or("streamed estimate curve is empty")?;
        let rel_err = (streamed.cost_reduction - exact.cost_reduction).abs() / exact.cost_reduction;
        rows.push(vec![
            format!("{kib}"),
            format!("{:.1}", profiler.memory_bytes() as f64 / 1024.0),
            format!("{head}"),
            format!("{}", profiler.distinct_keys()),
            format!("{:.1}%", streamed.fast_ratio * 100.0),
            format!("{:.3}x", streamed.cost_reduction),
            format!("{:.1}%", 100.0 * rel_err),
        ]);
        csv.push(format!(
            "{kib},{},{head},{},{:.6},{:.6},{:.6},{:.6}",
            profiler.memory_bytes(),
            profiler.distinct_keys(),
            streamed.fast_ratio,
            streamed.cost_reduction,
            exact.cost_reduction,
            rel_err
        ));
    }
    print_table(
        "sketch budget vs advisor accuracy (exact cost is the target)",
        &[
            "budget KiB",
            "used KiB",
            "head keys",
            "distinct est",
            "fast bytes",
            "cost",
            "err vs exact",
        ],
        &rows,
    );
    write_csv(
        "streaming_accuracy.csv",
        "budget_kib,used_bytes,head_keys,distinct_est,fast_ratio,cost_stream,cost_exact,rel_err",
        &csv,
    )?;
    Ok(())
}
