//! Extension experiment: Mnemo's static placement vs a migrating
//! dynamic tierer (the "existing tiering solution" class of Fig. 2b), at
//! an equal FastMem budget.
//!
//! Expected shape: on stable patterns (trending, timeline) the static
//! placement Mnemo produces matches the dynamic tierer, which wastes
//! time migrating; on sliding patterns (news feed) only migration tracks
//! the hot window — quantifying the paper's scoping statement that Mnemo
//! offers "a static key allocation, with no support for dynamic data
//! migration".

use kvsim::{Server, StoreKind};
use mnemo::advisor::OrderingKind;
use mnemo::placement::PlacementEngine;
use mnemo_bench::{
    consult, decay_server, paper_workloads, print_table, seed_for, testbed_for, tierer_epoch,
    write_csv,
};

const BUDGET_FRACTION: f64 = 0.2; // 20% of the dataset in FastMem

fn main() -> Result<(), mnemo_bench::HarnessError> {
    mnemo_bench::harness_args()?;
    println!(
        "Static (Mnemo) vs dynamic tiering at a {:.0}% FastMem budget (Redis)",
        BUDGET_FRACTION * 100.0
    );
    let workloads = paper_workloads();
    let results = mnemo_bench::parallel(workloads.len(), |i| -> Result<_, String> {
        let spec = &workloads[i];
        let trace = spec.generate(seed_for(&spec.name));
        let budget = (trace.dataset_bytes() as f64 * BUDGET_FRACTION) as u64;
        let testbed = testbed_for(&trace);

        // Mnemo: static placement from the MnemoT ordering at the budget.
        let consultation = consult(StoreKind::Redis, &trace, OrderingKind::MnemoT)?;
        let placement =
            PlacementEngine::placement_for_budget(&consultation.order, &trace.sizes, budget);
        let static_report = Server::build_with(
            StoreKind::Redis,
            testbed.clone(),
            hybridmem::clock::NoiseConfig::disabled(),
            &trace,
            placement,
        )
        .map_err(|e| format!("static server build failed: {e}"))?
        .run(&trace);

        // Dynamic tierer at the same budget (discovers the hot set online,
        // pays migration time).
        let mut dynamic = decay_server(&trace, &testbed, budget, tierer_epoch(&trace))?;
        let dynamic_report = dynamic.run(&trace);
        let stats = dynamic.migration_stats();
        Ok((spec.name.clone(), static_report, dynamic_report, stats))
    });
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, stat, dyn_, mig) in &results {
        let ratio = dyn_.throughput_ops_s() / stat.throughput_ops_s();
        rows.push(vec![
            name.clone(),
            format!("{:8.0}", stat.throughput_ops_s()),
            format!("{:8.0}", dyn_.throughput_ops_s()),
            format!("{:+5.1}%", (ratio - 1.0) * 100.0),
            format!("{}", mig.moved_keys),
            format!("{:.1} ms", mig.migration_ns / 1e6),
        ]);
        csv.push(format!(
            "{name},{:.1},{:.1},{},{:.3}",
            stat.throughput_ops_s(),
            dyn_.throughput_ops_s(),
            mig.moved_keys,
            mig.migration_ns / 1e6
        ));
    }
    print_table(
        "measured throughput (ops/s): Mnemo static vs migrating tierer",
        &[
            "workload",
            "static",
            "dynamic",
            "dyn vs static",
            "migrations",
            "migration time",
        ],
        &rows,
    );
    write_csv(
        "dynamic_vs_static.csv",
        "workload,static_ops_s,dynamic_ops_s,migrations,migration_ms",
        &csv,
    )?;
    println!("\nReading: on stable hot sets Mnemo's one-shot placement wins outright — the");
    println!("tierer pays migration bandwidth for nothing. On news feed the gap narrows but");
    println!("whether migration *wins* depends on how fast the window slides vs how fast");
    println!("data can be copied, which the churn sweep below isolates.");

    churn_sweep()?;
    Ok(())
}

/// News-feed churn sweep: slow the content churn (requests per new item)
/// and watch dynamic tiering cross from losing to winning.
fn churn_sweep() -> Result<(), mnemo_bench::HarnessError> {
    println!("\n--- news feed churn sweep (Redis, dynamic vs static) ---");
    let base = mnemo_bench::paper_workload("news feed")?;
    let sweep: Vec<u64> = vec![
        (base.requests as u64 / base.keys).max(1), // paper pace: window rotates once per trace
        4 * (base.requests as u64 / base.keys).max(1),
        16 * (base.requests as u64 / base.keys).max(1),
    ];
    let results = mnemo_bench::parallel(sweep.len(), |i| -> Result<_, String> {
        let churn_period = sweep[i];
        let mut spec = base.clone();
        spec.distribution = ycsb::DistKind::Latest {
            theta: 0.99,
            churn_period,
        };
        spec.name = format!("news feed (churn 1/{churn_period})");
        let trace = spec.generate(seed_for(&spec.name));
        let budget = (trace.dataset_bytes() as f64 * BUDGET_FRACTION) as u64;
        let testbed = testbed_for(&trace);

        let consultation = consult(StoreKind::Redis, &trace, OrderingKind::MnemoT)?;
        let placement =
            PlacementEngine::placement_for_budget(&consultation.order, &trace.sizes, budget);
        let static_report = Server::build_with(
            StoreKind::Redis,
            testbed.clone(),
            hybridmem::clock::NoiseConfig::disabled(),
            &trace,
            placement,
        )
        .map_err(|e| format!("static server build failed: {e}"))?
        .run(&trace);
        let dynamic_report =
            decay_server(&trace, &testbed, budget, tierer_epoch(&trace))?.run(&trace);
        Ok((
            churn_period,
            static_report.throughput_ops_s(),
            dynamic_report.throughput_ops_s(),
        ))
    });
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(churn, st, dy)| {
            vec![
                format!("1 new item / {churn} requests"),
                format!("{st:8.0}"),
                format!("{dy:8.0}"),
                format!("{:+5.1}%", (dy / st - 1.0) * 100.0),
            ]
        })
        .collect();
    print_table(
        "churn pace vs who wins",
        &["content churn", "static", "dynamic", "dyn vs static"],
        &rows,
    );
    println!("Observed: epoch-granular migration never actually wins here — news feed's");
    println!("recency skew concentrates on the *newest* items, whose hottest moment has");
    println!("passed by the time an epoch boundary promotes them. The gap is smallest at");
    println!("moderate churn (enough reuse per item to reward tracking, little enough");
    println!("migration bandwidth). This reinforces Fig. 9: news-feed-like patterns simply");
    println!("need DRAM; neither static placement nor page migration recovers the gap.");
    Ok(())
}
