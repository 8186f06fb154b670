//! End-to-end pipeline tests: workload generation → baselines → pattern
//! → estimate → placement → verified execution, spanning every crate.

use kvsim::{Placement, Server, StoreKind};
use mnemo::advisor::{Advisor, AdvisorConfig, OrderingKind};
use mnemo::placement::PlacementEngine;
use ycsb::WorkloadSpec;

/// Shared test scale: big enough for stable statistics, small enough to
/// keep the suite fast. The LLC is scaled to the paper's cache:dataset
/// proportion.
fn config_for(trace: &ycsb::Trace) -> AdvisorConfig {
    let mut config = AdvisorConfig::default();
    config.spec.cache.capacity_bytes = (trace.dataset_bytes() / 85).max(1 << 16);
    config
}

#[test]
fn full_pipeline_recommendation_is_verified_by_execution() {
    let trace = WorkloadSpec::trending().scaled(400, 6_000).generate(1);
    let mut config = config_for(&trace);
    config.ordering = OrderingKind::MnemoT;
    config.cache_correction = Some(config.spec.cache.capacity_bytes);
    let spec = config.spec.clone();
    let consultation = Advisor::new(config)
        .consult(StoreKind::Redis, &trace)
        .unwrap();
    let rec = consultation.recommend(0.10).unwrap();

    // Deploy the recommended placement and measure for real.
    let placement =
        PlacementEngine::placement_for(&consultation.order, &consultation.curve.rows[rec.prefix]);
    let report = Server::build_with(
        StoreKind::Redis,
        spec.clone(),
        hybridmem::clock::NoiseConfig::disabled(),
        &trace,
        placement,
    )
    .unwrap()
    .run(&trace);
    let fast_only = Server::build_with(
        StoreKind::Redis,
        spec,
        hybridmem::clock::NoiseConfig::disabled(),
        &trace,
        Placement::AllFast,
    )
    .unwrap()
    .run(&trace);
    let slowdown = 1.0 - report.throughput_ops_s() / fast_only.throughput_ops_s();
    assert!(
        slowdown <= 0.10 + 0.03,
        "measured slowdown {slowdown:.3} should honour the 10% SLO (+3% tolerance)"
    );
    // And the savings must be real.
    assert!(
        rec.cost_reduction < 0.7,
        "trending must save memory cost: {}",
        rec.cost_reduction
    );
}

#[test]
fn estimate_accuracy_holds_across_stores_and_workloads() {
    // A compact version of Fig. 8a: median error must stay sub-percent.
    let mut errors = Vec::new();
    for store in [StoreKind::Redis, StoreKind::Memcached, StoreKind::Dynamo] {
        for spec in [WorkloadSpec::trending(), WorkloadSpec::edit_thumbnail()] {
            let trace = spec.scaled(250, 3_000).generate(7);
            let config = config_for(&trace);
            let testbed = config.spec.clone();
            let consultation = Advisor::new(config).consult(store, &trace).unwrap();
            let points = mnemo::accuracy::evaluate(
                store,
                &trace,
                &consultation,
                &testbed,
                hybridmem::clock::NoiseConfig::disabled(),
                5,
            )
            .unwrap();
            errors.extend(points.iter().map(mnemo::accuracy::EvalPoint::error_pct));
        }
    }
    let stats = mnemo::accuracy::ErrorStats::from_errors(&errors);
    assert!(stats.median < 1.0, "median |error| {:.3}%", stats.median);
    assert!(stats.max < 6.0, "max |error| {:.3}%", stats.max);
}

#[test]
fn csv_output_matches_curve() {
    let trace = WorkloadSpec::timeline().scaled(100, 1_000).generate(2);
    let consultation = Advisor::new(config_for(&trace))
        .consult(StoreKind::Redis, &trace)
        .unwrap();
    let csv = consultation.curve.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 102, "header + 101 rows");
    // Cost column is monotone non-decreasing down the file.
    let costs: Vec<f64> = lines[1..]
        .iter()
        .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
        .collect();
    for w in costs.windows(2) {
        assert!(w[1] >= w[0] - 1e-12);
    }
    // Keys listed are exactly the ordering.
    for (line, key) in lines[2..].iter().zip(&consultation.order) {
        assert_eq!(line.split(',').next().unwrap(), key.to_string());
    }
}

#[test]
fn downsampled_profile_transfers_to_full_workload() {
    let full = WorkloadSpec::trending().scaled(400, 12_000).generate(3);
    let sampled = ycsb::sample::downsample(&full, 8, 1);
    let mut config = config_for(&full);
    config.cache_correction = Some(config.spec.cache.capacity_bytes);
    let spec = config.spec.clone();
    let consultation = Advisor::new(config)
        .consult(StoreKind::Redis, &sampled)
        .unwrap();
    let rec = consultation.recommend(0.10).unwrap();
    let placement =
        PlacementEngine::placement_for(&consultation.order, &consultation.curve.rows[rec.prefix]);
    let run = |p: Placement| {
        Server::build_with(
            StoreKind::Redis,
            spec.clone(),
            hybridmem::clock::NoiseConfig::disabled(),
            &full,
            p,
        )
        .unwrap()
        .run(&full)
        .throughput_ops_s()
    };
    let slowdown = 1.0 - run(placement) / run(Placement::AllFast);
    assert!(
        slowdown <= 0.10 + 0.04,
        "sampled sizing broke SLO on full workload: {slowdown:.3}"
    );
}

#[test]
fn tail_estimator_tracks_measured_tails_across_stores() {
    // Cache-free testbed: the SizeAware mixture should reproduce the
    // measured tail quantiles closely for every engine model.
    let trace = WorkloadSpec::trending_preview()
        .scaled(250, 4_000)
        .generate(6);
    for store in [StoreKind::Redis, StoreKind::Memcached, StoreKind::Dynamo] {
        let mut config = AdvisorConfig::default();
        config.spec.cache = hybridmem::CacheConfig::disabled();
        config.model = mnemo::ModelKind::SizeAware;
        let spec = config.spec.clone();
        let consultation = Advisor::new(config).consult(store, &trace).unwrap();
        let report = Server::build_with(
            store,
            spec,
            hybridmem::clock::NoiseConfig::disabled(),
            &trace,
            Placement::AllSlow,
        )
        .unwrap()
        .run(&trace);
        let est = consultation.tail_estimator();
        for q in [0.95, 0.99] {
            let predicted = est.quantile(|_| false, q);
            let measured = report.latency_quantile(q).unwrap();
            let rel = (predicted - measured).abs() / measured;
            assert!(
                rel < 0.10,
                "{store} q={q}: predicted {predicted:.0} measured {measured:.0}"
            );
        }
    }
}

#[test]
fn advisor_is_deterministic() {
    let trace = WorkloadSpec::news_feed().scaled(200, 2_000).generate(5);
    let a = Advisor::new(config_for(&trace))
        .consult(StoreKind::Dynamo, &trace)
        .unwrap();
    let b = Advisor::new(config_for(&trace))
        .consult(StoreKind::Dynamo, &trace)
        .unwrap();
    assert_eq!(a.curve, b.curve);
    assert_eq!(a.order, b.order);
}
