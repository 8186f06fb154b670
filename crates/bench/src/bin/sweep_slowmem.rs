//! Extension experiment: how do the savings depend on the SlowMem
//! technology? The paper fixes Table I's throttled-DRAM point (B:0.12,
//! L:3.62); this sweep varies the bandwidth and latency factors across
//! the NVDIMM design space (including an Optane-DC-like point) and
//! reports the Fig. 9 quantity — cost at a 10% slowdown SLO — plus the
//! store sensitivity at each point.

use hybridmem::{StackSpec, TierSpec};
use kvsim::StoreKind;
use mnemo::advisor::{Advisor, AdvisorConfig, OrderingKind};
use mnemo_bench::{measurement_noise, paper_workload, print_table, seed_for, write_csv};

/// (label, bandwidth factor, latency factor) points across the NVM space.
const POINTS: [(&str, f64, f64); 6] = [
    ("near-DRAM", 0.50, 1.5),
    ("optane-dc-like", 0.25, 2.5),
    ("paper (Table I)", 0.12, 3.62),
    ("slower NVM", 0.08, 5.0),
    ("flash-like", 0.04, 10.0),
    ("extreme", 0.02, 20.0),
];

fn main() -> Result<(), mnemo_bench::HarnessError> {
    mnemo_bench::harness_args()?;
    println!("SlowMem technology sweep (Trending, Redis, 10% SLO, p = 0.2)");
    let spec_w = paper_workload("trending")?;
    let trace = spec_w.generate(seed_for(&spec_w.name));

    let results = mnemo_bench::parallel(POINTS.len(), |i| -> Result<_, String> {
        let (label, b, l) = POINTS[i];
        let mut spec = StackSpec::paper_testbed();
        spec.tiers[1].spec = TierSpec::derived(&spec.tiers[0].spec, b, l);
        spec.cache.capacity_bytes = spec
            .cache
            .capacity_bytes
            .min((trace.dataset_bytes() / 85).max(1 << 16));
        let advisor = Advisor::new(AdvisorConfig {
            spec,
            noise: measurement_noise(3),
            price_factor: 0.2,
            model: mnemo::ModelKind::GlobalAverage,
            ordering: OrderingKind::MnemoT,
            cache_correction: None,
            fault_plan: None,
        });
        let consultation = advisor
            .consult(StoreKind::Redis, &trace)
            .map_err(|e| format!("consultation failed: {e}"))?;
        let rec = consultation
            .recommend(0.10)
            .ok_or("recommendation on an empty curve")?;
        Ok((label, b, l, consultation.baselines.sensitivity(), rec))
    });
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (label, b, l, sens, rec) in results {
        rows.push(vec![
            label.to_string(),
            format!("B:{b:.2} L:{l:.2}"),
            format!("{:+.1}%", sens * 100.0),
            format!("{:.2}x", rec.cost_reduction),
            format!("{:.0}%", rec.fast_ratio * 100.0),
        ]);
        csv.push(format!(
            "{label},{b},{l},{sens:.5},{:.4},{:.4}",
            rec.cost_reduction, rec.fast_ratio
        ));
    }
    print_table(
        "cost at 10% SLO vs SlowMem speed",
        &[
            "technology",
            "factors",
            "fast-vs-slow gain",
            "cost",
            "FastMem share",
        ],
        &rows,
    );
    write_csv(
        "sweep_slowmem.csv",
        "label,bandwidth_factor,latency_factor,sensitivity,cost_reduction,fast_ratio",
        &csv,
    )?;
    println!("\nExpected shape: the faster the NVM, the less FastMem the SLO needs and the");
    println!("closer the bill falls to the 0.20 floor; very slow NVM forces FastMem to hold");
    println!("most of the hot set and erodes the savings.");
    Ok(())
}
