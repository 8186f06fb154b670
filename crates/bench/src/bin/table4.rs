//! Table IV — profiling-overhead comparison between MnemoT and existing
//! tiering solutions, quantified on this substrate:
//!
//! * **MnemoT**: two real baseline executions + an input-description-only
//!   weight calculation (no instrumentation).
//! * **Instrumentation-based** (X-Mem-like): shadow every memory access at
//!   cache-line granularity during execution — the per-request event
//!   amplification is the "up to 40x" overhead source.
//! * **One-baseline + ML** (Tahoe-like): one real baseline + model
//!   inference, but only after a training corpus was collected by running
//!   *both* baselines over many workloads.
//!
//! Every step runs inside a telemetry span ([`SweepTimer::stage`]): the
//! printed table compares their wall-clock times, which the standard
//! `timing-table4.csv` artifact records. `table4_overhead.csv` holds only
//! the deterministic numbers (the instrumentation's events per request,
//! the Tahoe-like inference error, the hot-head agreement and the
//! training workload count), so it is pinned as a golden.

use kvsim::StoreKind;
use mnemo::baselines::{head_agreement, InstrumentedProfiler, MlBaselineModel, MlBaselineProfiler};
use mnemo::pattern::PatternEngine;
use mnemo::sensitivity::SensitivityEngine;
use mnemo::tiering::MnemoT;
use mnemo_bench::{
    paper_workload, paper_workloads, print_table, seed_for, testbed_for, write_csv, write_timing,
    SweepTimer,
};
use std::time::Duration;

fn main() -> Result<(), mnemo_bench::HarnessError> {
    mnemo_bench::harness_args()?;
    println!("Table IV: profiling overhead comparison (wall-clock on this host)");
    let spec = paper_workload("timeline")?;
    let trace = spec.generate(seed_for(&spec.name));
    let engine = SensitivityEngine::new(
        testbed_for(&trace),
        hybridmem::clock::NoiseConfig::disabled(),
    );
    let mut timer = SweepTimer::new("table4");

    // MnemoT: two baseline executions + description-only tiering.
    let baselines = timer.stage("baselines", 2, || {
        engine
            .measure(StoreKind::Redis, &trace)
            .map_err(|e| format!("baseline measurement failed: {e}"))
    })?;
    let order = timer.stage("tiering", trace.keys() as usize, || {
        let pattern = PatternEngine::analyze(&trace);
        MnemoT::weight_order(&pattern)
    });
    assert_eq!(order.len(), trace.keys() as usize);
    let _ = baselines;

    // Instrumentation-based: shadow execution at line granularity.
    let instrumented = timer.stage("instrumentation", trace.len(), || {
        InstrumentedProfiler::profile(&trace)
    });

    // Tahoe-like: training-corpus collection (both baselines over the
    // other workloads) + one real baseline + inference.
    let train_traces: Vec<_> = paper_workloads()
        .iter()
        .filter(|w| w.name != "timeline")
        .map(|w| w.generate(seed_for(&w.name)))
        .collect();
    let samples = timer.stage("training", train_traces.len(), || {
        MlBaselineProfiler::collect_training(&engine, StoreKind::Redis, &train_traces)
            .map_err(|e| format!("training-corpus collection failed: {e}"))
    })?;
    let profiler = MlBaselineProfiler::new(MlBaselineModel::train(&samples));
    let inferred = timer.stage("tahoe_profile", 1, || {
        profiler
            .profile(&engine, StoreKind::Redis, &trace)
            .map_err(|e| format!("inference failed: {e}"))
    })?;
    let real = engine
        .measure(StoreKind::Redis, &trace)
        .map_err(|e| format!("reference measurement failed: {e}"))?;
    let infer_err =
        (inferred.fast.runtime_ns - real.fast.runtime_ns).abs() / real.fast.runtime_ns * 100.0;

    let stages = timer.stages();
    let wall = |name: &str| -> Result<Duration, String> {
        stages
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.wall)
            .ok_or_else(|| format!("stage {name} was not recorded"))
    };
    let baseline_time = wall("baselines")?;
    let tiering_time = wall("tiering")?;
    let instr_time = wall("instrumentation")?;
    let training_time = wall("training")?;
    let tahoe_profile_time = wall("tahoe_profile")?;

    let ms = |d: Duration| format!("{:.1} ms", d.as_secs_f64() * 1e3);
    print_table(
        "profiling step timings",
        &[
            "profiling step",
            "MnemoT",
            "instrumented (X-Mem-like)",
            "ML-baseline (Tahoe-like)",
        ],
        &[
            vec![
                "input preparation".into(),
                "workload description only".into(),
                "instrument every access".into(),
                "workload description only".into(),
            ],
            vec![
                "performance baselines".into(),
                format!("2 runs: {}", ms(baseline_time)),
                format!("2 runs: {}", ms(baseline_time)),
                format!(
                    "1 run + infer: {} (err {:.1}%)",
                    ms(tahoe_profile_time),
                    infer_err
                ),
            ],
            vec![
                "training data".into(),
                "none".into(),
                "none".into(),
                format!(
                    "{} ({} workloads x 2 runs)",
                    ms(training_time),
                    train_traces.len()
                ),
            ],
            vec![
                "tiering calculation".into(),
                ms(tiering_time),
                format!(
                    "{} ({:.0}x events/request)",
                    ms(instr_time),
                    instrumented.amplification
                ),
                ms(tiering_time),
            ],
        ],
    );
    let speedup = instr_time.as_secs_f64() / tiering_time.as_secs_f64().max(1e-9);
    let agreement = head_agreement(&trace, (trace.keys() / 5) as usize);
    println!("\nMnemoT tiering is {speedup:.0}x faster than instrumented profiling while agreeing");
    println!(
        "on {:.0}% of the hot head (top 20% of keys).",
        agreement * 100.0
    );
    write_csv(
        "table4_overhead.csv",
        "quantity,value",
        &[
            format!(
                "instrumentation_events_per_request,{:.6}",
                instrumented.amplification
            ),
            format!("tahoe_inference_error_pct,{infer_err:.6}"),
            format!("hot_head_agreement_pct,{:.6}", agreement * 100.0),
            format!("training_workloads,{}", train_traces.len()),
        ],
    )?;
    write_timing(&timer)?;
    mnemo_bench::export_telemetry("table4", &[timer.snapshot()])?;
    Ok(())
}
