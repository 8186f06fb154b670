//! Extension experiment: three ways to spend the same FastMem capacity.
//!
//! The paper assumes a *flat* hybrid address space ("FastMem does not
//! serve the purpose of caching for SlowMem") and proposes static,
//! planned placement. This experiment compares, at an equal FastMem
//! budget across capacity ratios:
//!
//! 1. **Mnemo static partition** — planned placement from the estimate
//!    curve (needs profiling, zero runtime overhead);
//! 2. **cache mode** — FastMem as a write-back object cache of SlowMem
//!    (Intel Memory Mode-style: zero planning, admission/write-back
//!    traffic at runtime);
//! 3. **dynamic tiering** — epoch-based migration (Fig. 2b systems).

use kvsim::{Server, StoreKind};
use mnemo::advisor::OrderingKind;
use mnemo::placement::PlacementEngine;
use mnemo_bench::{
    consult, decay_server, paper_workload, print_table, seed_for, testbed_for, tierer_epoch,
    write_csv,
};

const RATIOS: [f64; 4] = [0.1, 0.2, 0.4, 0.6];

fn main() -> Result<(), mnemo_bench::HarnessError> {
    mnemo_bench::harness_args()?;
    println!("Three deployments of the same FastMem capacity (Redis)");
    let mut csv = Vec::new();
    for workload in ["trending", "news feed", "edit thumbnail"] {
        let spec = paper_workload(workload)?;
        let trace = spec.generate(seed_for(&spec.name));
        let testbed = testbed_for(&trace);
        let consultation = consult(StoreKind::Redis, &trace, OrderingKind::MnemoT)?;

        let results = mnemo_bench::parallel(RATIOS.len(), |i| -> Result<_, String> {
            let ratio = RATIOS[i];
            let budget = (trace.dataset_bytes() as f64 * ratio) as u64;

            let placement =
                PlacementEngine::placement_for_budget(&consultation.order, &trace.sizes, budget);
            let static_tp = Server::build_with(
                StoreKind::Redis,
                testbed.clone(),
                hybridmem::clock::NoiseConfig::disabled(),
                &trace,
                placement,
            )
            .map_err(|e| format!("static server build failed: {e}"))?
            .run(&trace)
            .throughput_ops_s();

            let mut cm =
                Server::build_cache_mode(StoreKind::Redis, testbed.clone(), &trace, budget)
                    .map_err(|e| format!("cache-mode server build failed: {e}"))?;
            let cache_tp = cm.run(&trace).throughput_ops_s();
            let hit_ratio = cm.cache_mode_stats().unwrap_or_default().hit_ratio();

            let dyn_tp = decay_server(&trace, &testbed, budget, tierer_epoch(&trace))?
                .run(&trace)
                .throughput_ops_s();

            Ok((ratio, static_tp, cache_tp, hit_ratio, dyn_tp))
        });
        let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;

        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|(ratio, st, ca, hit, dy)| {
                csv.push(format!(
                    "{workload},{ratio},{st:.1},{ca:.1},{hit:.4},{dy:.1}"
                ));
                vec![
                    format!("{:.0}%", ratio * 100.0),
                    format!("{st:8.0}"),
                    format!("{ca:8.0} ({:.0}% hits)", hit * 100.0),
                    format!("{dy:8.0}"),
                ]
            })
            .collect();
        print_table(
            &format!("{workload}: throughput (ops/s) by FastMem share"),
            &["FastMem", "Mnemo static", "cache mode", "dynamic tiering"],
            &rows,
        );
    }
    write_csv(
        "cache_mode.csv",
        "workload,fast_ratio,static_ops_s,cache_ops_s,hit_ratio,dynamic_ops_s",
        &csv,
    )?;
    println!("\nReading: planned static placement avoids all runtime traffic and wins when");
    println!("the hot set is stable and known; cache mode needs no planning and adapts");
    println!("instantly (strongest on sliding news-feed patterns) but pays admission and");
    println!("write-back bandwidth — most visible on the update-heavy workload.");
    Ok(())
}
