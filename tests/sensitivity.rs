//! The one-walk Sensitivity Engine against its definition.
//!
//! `SensitivityEngine::measure` prices every request in both tiers on a
//! single trace walk. Its contract is that the two baselines are
//! bit-identical to two separate `measure_one` runs, and that the
//! per-key ledger it yields prices every split exactly. These tests hold
//! it to both: the first against the two-run path it replaced, the
//! second against full simulations of the split.

use hybridmem::clock::NoiseConfig;
use hybridmem::{StackError, TierId};
use kvsim::{EngineError, PairedDecline, Placement, RunReport, Server, StoreKind};
use mnemo::advisor::{Advisor, AdvisorConfig};
use mnemo::{BaselineRun, SensitivityEngine};
use mnemo_bench::{measurement_noise, testbed_for};
use mnemo_faults::{FaultEvent, FaultPlan};
use ycsb::{Trace, WorkloadSpec};

const STORES: [StoreKind; 4] = [
    StoreKind::Redis,
    StoreKind::Memcached,
    StoreKind::Dynamo,
    StoreKind::Rocks,
];

/// Table III and YCSB A-F at reduced scale.
fn traces() -> Vec<Trace> {
    WorkloadSpec::table3()
        .into_iter()
        .chain(WorkloadSpec::ycsb_core_suite())
        .map(|w| w.scaled(300, 3_000).generate(11))
        .collect()
}

fn assert_reports_identical(a: &RunReport, b: &RunReport, cell: &str) {
    assert_eq!(a.runtime_ns.to_bits(), b.runtime_ns.to_bits(), "{cell}");
    assert_eq!(a.requests, b.requests, "{cell}");
    assert_eq!((a.reads, a.writes), (b.reads, b.writes), "{cell}");
    assert_eq!(
        a.read_ns_total.to_bits(),
        b.read_ns_total.to_bits(),
        "{cell}"
    );
    assert_eq!(
        a.write_ns_total.to_bits(),
        b.write_ns_total.to_bits(),
        "{cell}"
    );
    assert_eq!(a.read_hist, b.read_hist, "{cell}");
    assert_eq!(a.write_hist, b.write_hist, "{cell}");
    assert_eq!(a.samples.len(), b.samples.len(), "{cell}");
    for (i, (x, y)) in a.samples.iter().zip(&b.samples).enumerate() {
        assert_eq!((x.key, x.op), (y.key, y.op), "{cell} sample {i}");
        assert_eq!(
            x.service_ns.to_bits(),
            y.service_ns.to_bits(),
            "{cell} sample {i}"
        );
    }
}

fn assert_runs_identical(a: &BaselineRun, b: &BaselineRun, cell: &str) {
    assert_eq!(a.runtime_ns.to_bits(), b.runtime_ns.to_bits(), "{cell}");
    assert_eq!(a.avg_read_ns.to_bits(), b.avg_read_ns.to_bits(), "{cell}");
    assert_eq!(a.avg_write_ns.to_bits(), b.avg_write_ns.to_bits(), "{cell}");
    assert_reports_identical(&a.report, &b.report, cell);
}

#[test]
fn one_walk_measure_is_bit_identical_to_two_runs() {
    for trace in traces() {
        for noise in [NoiseConfig::disabled(), measurement_noise(7)] {
            let engine = SensitivityEngine::new(testbed_for(&trace), noise);
            for store in STORES {
                let cell = format!("{} / {store} / sigma {}", trace.name, noise.relative_sigma);
                let one = engine.measure(store, &trace).unwrap();
                assert!(one.ledger.is_some(), "{cell}: the walk must not decline");
                let fast = engine
                    .measure_one(store, &trace, Placement::AllFast)
                    .unwrap();
                let slow = engine
                    .measure_one(store, &trace, Placement::AllSlow)
                    .unwrap();
                assert_runs_identical(&one.fast, &fast, &format!("{cell} fast"));
                assert_runs_identical(&one.slow, &slow, &format!("{cell} slow"));
            }
        }
    }
}

#[test]
fn faulted_measure_declines_the_walk_and_matches_two_runs() {
    let trace = WorkloadSpec::trending().scaled(300, 3_000).generate(5);
    let plan = FaultPlan::new(3).with(FaultEvent::LatencySpike {
        tier: TierId::SLOW,
        start_ns: 0,
        end_ns: u128::MAX,
        factor: 4.0,
    });
    let engine = SensitivityEngine::new(testbed_for(&trace), measurement_noise(7))
        .with_fault_plan(plan.clone());
    for store in STORES {
        let measured = engine.measure(store, &trace).unwrap();
        assert!(
            measured.ledger.is_none(),
            "{store}: a faulted run has no ledger"
        );
        for (run, placement) in [
            (&measured.fast, Placement::AllFast),
            (&measured.slow, Placement::AllSlow),
        ] {
            let alone = engine.measure_one(store, &trace, placement).unwrap();
            assert_runs_identical(run, &alone, &format!("{store} faulted"));
        }
        let mut server = Server::build(store, &trace, Placement::AllFast).unwrap();
        server.install_fault_plan(&plan);
        assert_eq!(
            server
                .run_paired(&trace, TierId::SLOW, NoiseConfig::disabled())
                .unwrap_err(),
            PairedDecline::Degradation
        );
    }
}

#[test]
fn paired_run_declines_with_typed_reasons() {
    let trace = WorkloadSpec::trending().scaled(300, 3_000).generate(5);
    let alt = TierId::SLOW;
    let quiet = NoiseConfig::disabled();
    // Epoch re-planning on an N-tier build.
    let spec = testbed_for(&trace);
    let greedy = || mnemo_tier::PolicyKind::Greedy.build(1, &[]);
    let mut tiered =
        Server::build_tiered(StoreKind::Redis, spec.clone(), quiet, &trace, greedy(), 500).unwrap();
    assert_eq!(
        tiered.run_paired(&trace, alt, quiet).unwrap_err(),
        PairedDecline::EpochPlanner
    );
    // A static tiered build has nothing to decline over.
    let mut fixed =
        Server::build_tiered(StoreKind::Redis, spec, quiet, &trace, greedy(), 0).unwrap();
    assert!(fixed.run_paired(&trace, alt, quiet).is_ok());
    // Crashes, a foreign tier, and a tier too small for the dataset.
    let mut server = Server::build(StoreKind::Redis, &trace, Placement::AllFast).unwrap();
    server.set_crash_schedule(vec![mnemo_faults::ShardCrash {
        at_ns: 1,
        restart_ns: 1e3,
        rebuild_ns_per_key: 1.0,
    }]);
    assert_eq!(
        server.run_paired(&trace, alt, quiet).unwrap_err(),
        PairedDecline::CrashSchedule
    );
    server.set_crash_schedule(Vec::new());
    assert_eq!(
        server
            .run_paired(&trace, hybridmem::TierId(2), quiet)
            .unwrap_err(),
        PairedDecline::UnknownTier(hybridmem::TierId(2))
    );
    let mut small = testbed_for(&trace);
    small.tiers[1].capacity_bytes = trace.dataset_bytes() / 2;
    let mut server = Server::build_with(
        StoreKind::Redis,
        small.clone(),
        quiet,
        &trace,
        Placement::AllFast,
    )
    .unwrap();
    assert!(matches!(
        server.run_paired(&trace, alt, quiet).unwrap_err(),
        PairedDecline::AltCapacity { .. }
    ));
    // Cache mode comes first: a front cache couples keys' charges
    // through evictions and write-backs, whatever else is installed.
    let budget = trace.dataset_bytes() / 4;
    let cache_mode =
        || Server::build_cache_mode(StoreKind::Redis, testbed_for(&trace), &trace, budget).unwrap();
    let mut cached = cache_mode();
    cached.set_crash_schedule(vec![mnemo_faults::ShardCrash {
        at_ns: u128::MAX,
        restart_ns: 1e3,
        rebuild_ns_per_key: 1.0,
    }]);
    assert_eq!(
        cached.run_paired(&trace, alt, quiet).unwrap_err(),
        PairedDecline::CacheMode
    );
    // The decline left the cache cold: the next run is a fresh server's.
    let mut fresh = cache_mode();
    assert_reports_identical(
        &cached.run(&trace),
        &fresh.run(&trace),
        "cache mode after a declined paired run",
    );
    assert_eq!(cached.cache_mode_stats(), fresh.cache_mode_stats());
    // ... and there `measure` reports the all-SlowMem build's own error.
    let engine = SensitivityEngine::new(small, quiet);
    assert_eq!(
        engine.measure(StoreKind::Redis, &trace).unwrap_err(),
        engine
            .measure_one(StoreKind::Redis, &trace, Placement::AllSlow)
            .unwrap_err()
    );
}

#[test]
fn one_tier_stack_is_a_typed_error_from_the_consultant() {
    let trace = WorkloadSpec::trending().scaled(300, 3_000).generate(5);
    let quiet = NoiseConfig::disabled();
    let mut spec = testbed_for(&trace);
    spec.tiers.truncate(1);
    assert_eq!(spec.validate(), Ok(()));
    // The paired walk has no SlowMem to price against and declines...
    let mut server = Server::build_with(
        StoreKind::Redis,
        spec.clone(),
        quiet,
        &trace,
        Placement::AllFast,
    )
    .unwrap();
    assert_eq!(
        server.run_paired(&trace, TierId::SLOW, quiet).unwrap_err(),
        PairedDecline::UnknownTier(TierId::SLOW)
    );
    // ... and the all-SlowMem load of the two-run fallback fails typed.
    let advisor = Advisor::new(AdvisorConfig {
        spec,
        noise: quiet,
        ..AdvisorConfig::default()
    });
    assert_eq!(
        advisor.consult(StoreKind::Redis, &trace).unwrap_err(),
        EngineError::Memory(StackError::UnknownTier(TierId::SLOW))
    );
}

/// Prefix lengths at 0, 5, 10, 30, 70 and 100% of `keys`.
fn prefixes(keys: usize) -> Vec<usize> {
    [0, 5, 10, 30, 70, 100]
        .iter()
        .map(|pct| keys * pct / 100)
        .collect()
}

#[test]
fn truth_curve_is_exact_against_simulated_splits() {
    let quiet = NoiseConfig::disabled();
    for spec in WorkloadSpec::table3() {
        let trace = spec.scaled(400, 4_000).generate(3);
        let testbed = testbed_for(&trace);
        let advisor = Advisor::new(AdvisorConfig {
            spec: testbed.clone(),
            noise: quiet,
            ..AdvisorConfig::default()
        });
        for store in STORES {
            let cell = format!("{} / {store}", trace.name);
            let c = advisor.consult(store, &trace).unwrap();
            let truth = c.baselines.truth_curve(&c.order).unwrap();
            assert_eq!(truth.len(), c.order.len() + 1, "{cell}");
            assert_eq!(truth[0], c.baselines.slow.runtime_ns, "{cell}");
            assert_eq!(truth[c.order.len()], c.baselines.fast.runtime_ns, "{cell}");
            for n in prefixes(c.order.len()) {
                let simulated = Server::build_with(
                    store,
                    testbed.clone(),
                    quiet,
                    &trace,
                    Placement::fast_prefix(&c.order, n),
                )
                .unwrap()
                .run(&trace)
                .runtime_ns;
                assert_eq!(truth[n], simulated, "{cell}: prefix {n}");
            }
            if let Some(rec) = c.recommend(0.10) {
                let (measured, _) = advisor.verify(store, &trace, &c, &rec).unwrap();
                let exact = trace.len() as f64 / (truth[rec.prefix] / 1e9);
                assert_eq!(measured.to_bits(), exact.to_bits(), "{cell}: verify");
            }
        }
    }
}
