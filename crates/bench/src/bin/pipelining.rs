//! Extension experiment: client pipelining vs the cost trade-off.
//!
//! The paper's testbed drives one synchronous YCSB client, so every
//! request pays a full network/protocol round trip — the fixed cost that
//! *masks* memory time and caps Redis' Fast-vs-Slow gap at ~40%. Real
//! Redis deployments pipeline. Amortising the fixed cost across a batch
//! exposes memory time: the same workload becomes far more
//! hybrid-memory-sensitive, and the 10%-slowdown SLO suddenly demands
//! much more FastMem.

use kvsim::{Placement, Server, StoreKind};
use mnemo::advisor::{Advisor, AdvisorConfig, OrderingKind};
use mnemo::sensitivity::{BaselineRun, Baselines};
use mnemo_bench::{paper_workload, print_table, seed_for, testbed_for, write_csv};

const DEPTHS: [u32; 4] = [1, 4, 16, 64];

fn main() -> Result<(), mnemo_bench::HarnessError> {
    mnemo_bench::harness_args()?;
    println!("Pipelining: amortised fixed cost exposes memory time (Trending, Redis)");
    let spec = paper_workload("trending")?;
    let trace = spec.generate(seed_for(&spec.name));
    let testbed = testbed_for(&trace);

    let results = mnemo_bench::parallel(DEPTHS.len(), |i| -> Result<_, String> {
        let depth = DEPTHS[i];
        let run = |placement: Placement| -> Result<_, String> {
            Ok(Server::build_with(
                StoreKind::Redis,
                testbed.clone(),
                hybridmem::clock::NoiseConfig::disabled(),
                &trace,
                placement,
            )
            .map_err(|e| format!("server build failed: {e}"))?
            .run_pipelined(&trace, depth))
        };
        let fast_report = run(Placement::AllFast)?;
        let slow_report = run(Placement::AllSlow)?;
        let sensitivity = fast_report.throughput_ops_s() / slow_report.throughput_ops_s() - 1.0;

        // Feed the pipelined baselines through the normal Mnemo pipeline.
        let baselines = Baselines {
            store: StoreKind::Redis,
            workload: trace.name.clone(),
            fast: BaselineRun {
                runtime_ns: fast_report.runtime_ns,
                avg_read_ns: fast_report.avg_read_ns(),
                avg_write_ns: fast_report.avg_write_ns(),
                report: fast_report,
            },
            slow: BaselineRun {
                runtime_ns: slow_report.runtime_ns,
                avg_read_ns: slow_report.avg_read_ns(),
                avg_write_ns: slow_report.avg_write_ns(),
                report: slow_report,
            },
            tape: None,
        };
        let advisor = Advisor::new(AdvisorConfig {
            spec: testbed.clone(),
            ordering: OrderingKind::MnemoT,
            ..AdvisorConfig::default()
        });
        let rec = advisor
            .consult_with_baselines(baselines, &trace)
            .recommend(0.10)
            .ok_or("estimate curve is empty")?;
        Ok((depth, sensitivity, rec))
    });
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (depth, sensitivity, rec) in &results {
        rows.push(vec![
            depth.to_string(),
            format!("{:+.1}%", sensitivity * 100.0),
            format!("{:.2}x", rec.cost_reduction),
            format!("{:.0}%", rec.fast_ratio * 100.0),
        ]);
        csv.push(format!(
            "{depth},{sensitivity:.5},{:.4},{:.4}",
            rec.cost_reduction, rec.fast_ratio
        ));
    }
    print_table(
        "pipeline depth vs sensitivity and cost at the 10% SLO",
        &["depth", "fast-vs-slow gain", "cost", "FastMem share"],
        &rows,
    );
    write_csv(
        "pipelining.csv",
        "depth,sensitivity,cost_reduction,fast_ratio",
        &csv,
    )?;
    println!("\nReading: the paper's ~40% gap is an artifact of a synchronous client.");
    println!("Pipelined clients amortise the fixed cost, memory dominates, and the same");
    println!("SLO needs much more FastMem — cost sizing depends on the client model too.");
    Ok(())
}
