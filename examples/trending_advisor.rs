//! End-to-end MnemoT deployment (the paper's Fig. 2c scenario):
//! consult, choose a row, let the Placement Engine populate a real
//! FastServer + SlowServer pair, and *verify* the SLO by running the
//! workload against the populated cluster.
//!
//! ```sh
//! cargo run --release --example trending_advisor [slo_percent]
//! ```

use kvsim::StoreKind;
use mnemo::advisor::{Advisor, AdvisorConfig, OrderingKind};
use mnemo::placement::PlacementEngine;
use ycsb::WorkloadSpec;

fn main() {
    let slo: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .map(|pct: f64| pct / 100.0)
        .unwrap_or(0.10);
    let trace = WorkloadSpec::trending().scaled(2_000, 20_000).generate(7);

    // MnemoT: weight-based tiering (accesses / size) + estimate curve.
    let config = AdvisorConfig {
        ordering: OrderingKind::MnemoT,
        ..AdvisorConfig::default()
    };
    let advisor = Advisor::new(config);
    let consultation = advisor
        .consult(StoreKind::Redis, &trace)
        .expect("consultation");

    println!(
        "SLO: at most {:.0}% below FastMem-only throughput\n",
        slo * 100.0
    );
    for slo_try in [0.02, 0.05, slo, 0.25] {
        let rec = consultation.recommend(slo_try).expect("curve nonempty");
        println!(
            "  {:4.0}% slowdown budget -> {:5.1}% FastMem, cost {:.2}x",
            slo_try * 100.0,
            rec.fast_ratio * 100.0,
            rec.cost_reduction
        );
    }

    // Deploy: Placement Engine populates the two server instances.
    let rec = consultation.recommend(slo).expect("curve nonempty");
    let row = consultation.curve.rows[rec.prefix];
    let mut cluster =
        PlacementEngine::populate(StoreKind::Redis, &trace, &consultation.order, &row)
            .expect("cluster population");
    let (fast_keys, slow_keys) = cluster.key_split();
    println!("\ndeployed: FastServer holds {fast_keys} keys, SlowServer {slow_keys} keys");

    // Verify the recommendation against a real (simulated) run.
    let report = cluster.run(&trace);
    let fast_only = consultation.baselines.fast.throughput_ops_s();
    let achieved = report.throughput_ops_s();
    let slowdown = 1.0 - achieved / fast_only;
    println!(
        "measured: {:.0} ops/s = {:.1}% below FastMem-only (estimated {:.1}%)",
        achieved,
        slowdown * 100.0,
        rec.est_slowdown * 100.0
    );
    // The cluster's report is rebuilt from its samples, histograms
    // included.
    let tail_us = |q| report.latency_quantile(q).expect("histograms") / 1e3;
    println!(
        "tail latency: p95 {:.0} us, p99 {:.0} us",
        tail_us(0.95),
        tail_us(0.99)
    );
    assert!(
        slowdown <= slo + 0.02,
        "measured slowdown {:.3} blew the SLO {:.3}",
        slowdown,
        slo
    );
    println!(
        "\nSLO verified. Memory bill: {:.0}% of the all-DRAM configuration.",
        rec.cost_reduction * 100.0
    );
}
