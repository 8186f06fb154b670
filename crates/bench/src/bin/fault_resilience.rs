//! Robustness experiment: fault intensity vs SLO attainment.
//!
//! Sweeps a seeded fault plan from nominal to severe — SlowMem latency
//! spikes, bandwidth throttles and migration failures scaling together —
//! and reports, per intensity:
//!
//! * what the advisor recommends under the faulted baselines and whether
//!   that recommendation still meets the healthy-hardware SLO (or comes
//!   back tagged with a machine-readable [`mnemo::advisor::DegradedReason`]);
//! * the measured slowdown of the advised static placement replayed
//!   through the faulted server vs the clean run;
//! * the dynamic tierer's retry/fallback behaviour under the same plan.
//!
//! Everything is keyed off the plan seed and the virtual clock, so the
//! whole sweep is byte-identical for every `--jobs` value — the export
//! joins the `--jobs` determinism gate.

use kvsim::{Server, StoreKind};
use mnemo::advisor::{Advisor, AdvisorConfig, OrderingKind};
use mnemo::placement::PlacementEngine;
use mnemo_bench::{decay_server, measurement_noise, print_table, testbed_for, write_csv};
use mnemo_faults::{FaultEvent, FaultPlan};
use ycsb::WorkloadSpec;

const SLO_SLOWDOWN: f64 = 0.10;
const PLAN_SEED: u64 = 2026;
/// Past every virtual timestamp the runs reach: the windows cover the
/// whole replay.
const FOREVER_NS: u128 = u128::MAX;

/// The sweep axis: 0.0 = healthy hardware, 1.0 = severe degradation.
const INTENSITIES: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

/// A whole-run fault plan at the given intensity. The latency and
/// bandwidth factors scale hard enough that the LLC cannot hide them.
fn plan_at(intensity: f64) -> FaultPlan {
    let mut plan = FaultPlan::new(PLAN_SEED);
    if intensity <= 0.0 {
        return plan;
    }
    plan = plan
        .with(FaultEvent::LatencySpike {
            tier: hybridmem::TierId::SLOW,
            start_ns: 0,
            end_ns: FOREVER_NS,
            factor: 1.0 + 40.0 * intensity,
        })
        .with(FaultEvent::BandwidthThrottle {
            tier: hybridmem::TierId::SLOW,
            start_ns: 0,
            end_ns: FOREVER_NS,
            factor: 1.0 / (1.0 + 15.0 * intensity),
        })
        .with(FaultEvent::MigrationFailure {
            start_ns: 0,
            end_ns: FOREVER_NS,
            probability: 0.9 * intensity,
        });
    plan
}

fn advisor_with(trace: &ycsb::Trace, plan: Option<FaultPlan>) -> Advisor {
    Advisor::new(AdvisorConfig {
        spec: testbed_for(trace),
        noise: measurement_noise(7),
        price_factor: 0.2,
        model: mnemo::ModelKind::GlobalAverage,
        ordering: OrderingKind::MnemoT,
        cache_correction: None,
        fault_plan: plan,
    })
}

fn main() -> Result<(), mnemo_bench::HarnessError> {
    mnemo_bench::harness_args()?;
    println!(
        "Fault resilience: fault intensity vs attainment of a {:.0}% slowdown SLO (Redis, trending)",
        SLO_SLOWDOWN * 100.0
    );
    let trace = WorkloadSpec::trending().scaled(300, 8_000).generate(11);
    let testbed = testbed_for(&trace);

    // The healthy consultation anchors the SLO: "within 10% of what the
    // hardware delivered before it degraded".
    let healthy = advisor_with(&trace, None)
        .consult(StoreKind::Redis, &trace)
        .map_err(|e| format!("healthy consultation failed: {e}"))?;
    let healthy_fast_ops = healthy.curve.fast_only().est_throughput_ops_s;

    let results = mnemo_bench::parallel(INTENSITIES.len(), |i| -> Result<_, String> {
        let intensity = INTENSITIES[i];
        let plan = plan_at(intensity);

        // Advise on the faulted hardware, judged against the healthy SLO.
        let consultation = advisor_with(&trace, Some(plan.clone()))
            .consult(StoreKind::Redis, &trace)
            .map_err(|e| format!("faulted consultation failed: {e}"))?;
        let resilient = consultation.recommend_resilient(SLO_SLOWDOWN, Some(healthy_fast_ops));

        // Replay the advised placement through clean and faulted servers.
        let placement = PlacementEngine::placement_for_budget(
            &consultation.order,
            &trace.sizes,
            resilient.recommendation.fast_bytes,
        );
        let build = |faulted: bool| -> Result<_, String> {
            let mut server = Server::build_with(
                StoreKind::Redis,
                testbed.clone(),
                hybridmem::clock::NoiseConfig::disabled(),
                &trace,
                placement.clone(),
            )
            .map_err(|e| format!("server build failed: {e}"))?;
            if faulted {
                server.install_fault_plan(&plan);
            }
            Ok(server.run(&trace))
        };
        let clean = build(false)?;
        let faulted = build(true)?;
        let measured_slowdown = 1.0 - faulted.throughput_ops_s() / clean.throughput_ops_s();

        // The dynamic tierer under the same plan: migrations fail with
        // the plan's probability and retreat through capped backoff.
        let budget = (trace.dataset_bytes() as f64 * 0.2) as u64;
        let mut dynamic = decay_server(&trace, &testbed, budget, 2_000)?;
        dynamic.install_fault_plan(&plan);
        dynamic.run(&trace);
        let mig = dynamic.migration_stats();

        Ok((intensity, resilient, measured_slowdown, mig))
    });
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut tel = mnemo_telemetry::Recorder::new();
    for (intensity, resilient, measured_slowdown, mig) in &results {
        let rec = &resilient.recommendation;
        let tag = match resilient.degraded {
            None => "compliant".to_string(),
            Some(reason) => format!("{reason:?}"),
        };
        rows.push(vec![
            format!("{intensity:.1}"),
            format!("{:.3}", rec.est_slowdown),
            format!("{:3.0}%", rec.fast_ratio * 100.0),
            if resilient.is_compliant() {
                "yes"
            } else {
                "no"
            }
            .to_string(),
            format!("{:.3}", measured_slowdown),
            format!("{}", mig.retries),
            format!("{}", mig.fallbacks),
        ]);
        csv.push(format!(
            "{intensity:.2},{:.5},{:.5},{},{},{:.5},{},{},{}",
            rec.est_slowdown,
            rec.fast_ratio,
            resilient.is_compliant(),
            tag.split_whitespace().next().unwrap_or("compliant"),
            measured_slowdown,
            mig.retries,
            mig.failures,
            mig.fallbacks
        ));
        tel.count("fault_resilience.points", 1);
        tel.gauge("fault_resilience.est_slowdown", rec.est_slowdown);
        tel.gauge("fault_resilience.measured_slowdown", *measured_slowdown);
        tel.count("fault_resilience.migration_retries", mig.retries);
        tel.count("fault_resilience.migration_fallbacks", mig.fallbacks);
        if resilient.is_compliant() {
            tel.count("fault_resilience.compliant", 1);
        } else {
            tel.count("fault_resilience.degraded", 1);
        }
    }
    print_table(
        "advised placement under faults, judged against the healthy SLO",
        &[
            "intensity",
            "est_slowdown",
            "fast share",
            "meets SLO",
            "measured vs clean",
            "retries",
            "fallbacks",
        ],
        &rows,
    );
    write_csv(
        "fault_resilience.csv",
        "intensity,est_slowdown,fast_ratio,compliant,degraded,measured_slowdown,retries,failures,fallbacks",
        &csv,
    )?;
    mnemo_bench::export_telemetry("fault_resilience", &[tel.take_snapshot(0)])?;
    println!("\nShape: low intensities stay compliant by buying more FastMem; past the point");
    println!("where even FastMem-only misses the healthy SLO the advisor returns the");
    println!("nearest-feasible row tagged SloUnattainable instead of failing.");
    Ok(())
}
