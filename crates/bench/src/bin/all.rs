//! Regenerate every table and figure in sequence (see EXPERIMENTS.md).
//!
//! Usage: `all [--jobs N]` — the flag is forwarded to every experiment,
//! and a `timing-all.csv` per-experiment wall-clock summary lands next
//! to the figure CSVs.

use std::process::Command;

const EXPERIMENTS: [&str; 20] = [
    "fig1",
    "table1",
    "table2",
    "table3",
    "fig3",
    "fig4",
    "fig5",
    "fig8",
    "fig9",
    "slo_truth",
    "table4",
    "downsampling",
    "ycsb_core",
    "sweep_slowmem",
    "dynamic_vs_static",
    "cache_mode",
    "model_limits",
    "pipelining",
    "variance",
    "appendix",
];

fn main() -> Result<(), mnemo_bench::HarnessError> {
    mnemo_bench::harness_args()?;
    let jobs = mnemo_par::effective_jobs();
    let mut timer = mnemo_bench::SweepTimer::new("all");
    // Run siblings through cargo so they are rebuilt if stale (spawning
    // target-dir executables directly can silently run old code).
    for exp in EXPERIMENTS {
        println!("\n================ {exp} ================");
        // Each experiment is one telemetry span; the per-experiment
        // wall-clock summary still lands in timing-all.csv.
        let status = timer.stage(exp, 1, || {
            let mut args = vec![
                "run".to_string(),
                "--release".into(),
                "--quiet".into(),
                "-p".into(),
                "mnemo-bench".into(),
                "--bin".into(),
                exp.to_string(),
                "--".into(),
                "--jobs".into(),
                jobs.to_string(),
            ];
            if let Some(dir) = mnemo_bench::telemetry_dir() {
                args.push(format!("--telemetry={}", dir.display()));
            }
            Command::new("cargo").args(&args).status()
        });
        let status = status.map_err(|e| format!("cannot spawn {exp} via cargo: {e}"))?;
        assert!(status.success(), "{exp} failed");
    }
    mnemo_bench::write_timing(&timer)?;
    println!("\nAll experiments regenerated. CSVs in target/experiments/.");
    Ok(())
}
