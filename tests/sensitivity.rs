//! The one-walk Sensitivity Engine against its definition.
//!
//! `SensitivityEngine::measure` prices every request in both tiers on a
//! single trace walk and keeps each request's two charges as a tape. Its
//! contract is that the two baselines are bit-identical to two separate
//! `measure_one` runs, that the ledger folded from the tape prices every
//! split exactly, and that every split replayed from the tape is
//! bit-identical to simulating it. These tests hold it to all three:
//! the first against the two-run path it replaced, the others against
//! full simulations of the split.

use hybridmem::clock::NoiseConfig;
use hybridmem::{StackError, TierId};
use kvsim::{
    EngineError, PairedDecline, Placement, ReplayDecline, RequestSample, RunReport, Server,
    StoreKind,
};
use mnemo::accuracy::{evaluate, EvalPoint};
use mnemo::advisor::{Advisor, AdvisorConfig, Consultation};
use mnemo::placement::PlacementEngine;
use mnemo::{BaselineRun, SensitivityEngine};
use mnemo_bench::{measurement_noise, testbed_for};
use mnemo_faults::{FaultEvent, FaultPlan};
use ycsb::{Op, Request, Trace, WorkloadSpec};

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

/// Every total of two reports, bit for bit.
fn assert_sums_identical(a: &RunReport, b: &RunReport, cell: &str) {
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
}

/// Every total and histogram of two reports that both keep histograms,
/// bit for bit.
fn assert_totals_identical(a: &RunReport, b: &RunReport, cell: &str) {
    assert_sums_identical(a, b, cell);
    assert!(a.histograms.is_some(), "{cell}");
    assert_eq!(a.histograms, b.histograms, "{cell}");
}

fn assert_samples_identical(a: &[RequestSample], b: &[RequestSample], cell: &str) {
    assert_eq!(a.len(), b.len(), "{cell}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!((x.key, x.op), (y.key, y.op), "{cell} sample {i}");
        assert_eq!(
            x.service_ns.to_bits(),
            y.service_ns.to_bits(),
            "{cell} sample {i}"
        );
    }
}

/// Two simulated runs: totals, histograms and samples, bit for bit.
fn assert_reports_identical(a: &RunReport, b: &RunReport, cell: &str) {
    assert_totals_identical(a, b, cell);
    assert_samples_identical(
        a.samples.as_deref().unwrap(),
        b.samples.as_deref().unwrap(),
        cell,
    );
}

/// A baseline of `trace` against a separately measured run; the
/// baseline's samples are `samples`, read through `Baselines::samples`.
/// A walk's lane keeps totals only, so its histograms are checked on the
/// full report rebuilt from those samples.
fn assert_runs_identical(
    a: &BaselineRun,
    samples: &[RequestSample],
    b: &BaselineRun,
    trace: &Trace,
    cell: &str,
) {
    assert_eq!(a.runtime_ns.to_bits(), b.runtime_ns.to_bits(), "{cell}");
    assert_eq!(a.avg_read_ns.to_bits(), b.avg_read_ns.to_bits(), "{cell}");
    assert_eq!(a.avg_write_ns.to_bits(), b.avg_write_ns.to_bits(), "{cell}");
    assert_sums_identical(&a.report, &b.report, cell);
    let full = RunReport::from_samples(a.report.store, trace, samples.iter().copied());
    assert_reports_identical(&full, &b.report, cell);
}

#[test]
fn one_walk_measure_is_bit_identical_to_two_runs() {
    for trace in traces() {
        for noise in [NoiseConfig::disabled(), measurement_noise(7)] {
            let engine = SensitivityEngine::new(testbed_for(&trace), noise);
            for store in STORES {
                let cell = format!("{} / {store} / sigma {}", trace.name, noise.relative_sigma);
                let one = engine.measure(store, &trace).unwrap();
                assert!(one.tape.is_some(), "{cell}: the walk must not decline");
                // The walk's lanes keep totals only. Their samples come
                // from the tape, never from an empty list, and without
                // histograms a quantile is `None`, never a silent 0.
                for report in [&one.fast.report, &one.slow.report] {
                    assert!(report.samples.is_none(), "{cell}");
                    assert!(report.histograms.is_none(), "{cell}");
                    assert_eq!(report.latency_quantile(0.5), None, "{cell}");
                }
                let fast = engine
                    .measure_one(store, &trace, Placement::AllFast)
                    .unwrap();
                let slow = engine
                    .measure_one(store, &trace, Placement::AllSlow)
                    .unwrap();
                let samples = |tier| one.samples(tier).unwrap();
                assert_runs_identical(
                    &one.fast,
                    &samples(TierId::FAST),
                    &fast,
                    &trace,
                    &format!("{cell} fast"),
                );
                assert_runs_identical(
                    &one.slow,
                    &samples(TierId::SLOW),
                    &slow,
                    &trace,
                    &format!("{cell} slow"),
                );
            }
        }
    }
}

/// Hot keys that a periodic sweep evicts from the LLC, so each flips
/// between hit and miss, and one key larger than the LLC, which
/// bypasses it every time; reads and updates mixed.
fn flipping_trace() -> Trace {
    let mut keys = Vec::new();
    for round in 0..60u64 {
        keys.extend([0, 1, 0, 2, 0]);
        if round % 3 == 0 {
            keys.extend(3..12);
        }
        if round % 5 == 0 {
            keys.push(12);
        }
    }
    let requests = keys
        .into_iter()
        .enumerate()
        .map(|(i, key)| Request {
            key,
            op: if i % 4 == 1 { Op::Update } else { Op::Read },
        })
        .collect();
    let mut sizes = vec![12 << 10; 12];
    sizes.push(1 << 18);
    Trace {
        name: "llc-flips".to_string(),
        sizes,
        requests,
    }
}

#[test]
fn priced_once_tape_equals_each_placements_run() {
    let trace = flipping_trace();
    let spec = testbed_for(&trace);
    assert!(
        spec.cache.capacity_bytes < trace.sizes[12],
        "key 12 bypasses"
    );
    for noise in [NoiseConfig::disabled(), measurement_noise(7)] {
        let alt_noise = NoiseConfig {
            seed: noise.seed ^ 0x5a5a,
            ..noise
        };
        for store in STORES {
            let cell = format!("{store} / sigma {}", noise.relative_sigma);
            let build = |placement, noise| {
                Server::build_with(store, spec.clone(), noise, &trace, placement).unwrap()
            };
            let tape = build(Placement::AllFast, noise)
                .run_paired(&trace, TierId::SLOW, alt_noise)
                .unwrap()
                .tape;
            for (tier, placement, noise) in [
                (TierId::FAST, Placement::AllFast, noise),
                (TierId::SLOW, Placement::AllSlow, alt_noise),
            ] {
                let run = build(placement, noise).run(&trace);
                assert_samples_identical(
                    &tape.samples(tier).unwrap(),
                    run.samples.as_deref().unwrap(),
                    &format!("{cell} {tier}"),
                );
            }
            // Noise-free, key 0's reads cost two amounts: they see both
            // LLC outcomes, so its row prices both columns.
            if noise.relative_sigma == 0.0 {
                let own_reads: std::collections::BTreeSet<u64> = tape
                    .samples(TierId::FAST)
                    .unwrap()
                    .iter()
                    .filter(|s| (s.key, s.op) == (0, Op::Read))
                    .map(|s| s.service_ns.to_bits())
                    .collect();
                assert!(own_reads.len() >= 2, "{cell}: key 0 never flipped");
            }
        }
    }
}

#[test]
fn a_run_after_a_paired_walk_is_a_run_after_a_run() {
    let trace = flipping_trace();
    let spec = testbed_for(&trace);
    for noise in [NoiseConfig::disabled(), measurement_noise(7)] {
        for store in STORES {
            let cell = format!("{store} / sigma {}", noise.relative_sigma);
            let build = || {
                Server::build_with(store, spec.clone(), noise, &trace, Placement::AllFast).unwrap()
            };
            let (mut walked, mut ran) = (build(), build());
            walked.run_paired(&trace, TierId::SLOW, noise).unwrap();
            ran.run(&trace);
            assert_reports_identical(&walked.run(&trace), &ran.run(&trace), &cell);
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
            measured.tape.is_none(),
            "{store}: a faulted run has no tape"
        );
        for (run, tier, placement) in [
            (&measured.fast, TierId::FAST, Placement::AllFast),
            (&measured.slow, TierId::SLOW, Placement::AllSlow),
        ] {
            let alone = engine.measure_one(store, &trace, placement).unwrap();
            let samples = measured.samples(tier).unwrap();
            assert_runs_identical(run, &samples, &alone, &trace, &format!("{store} faulted"));
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

fn assert_points_identical(a: &[EvalPoint], b: &[EvalPoint], cell: &str) {
    assert_eq!(a.len(), b.len(), "{cell}");
    for (x, y) in a.iter().zip(b) {
        let bits = |p: &EvalPoint| {
            (
                p.prefix,
                [
                    p.cost_reduction,
                    p.measured_ops_s,
                    p.estimated_ops_s,
                    p.measured_avg_latency_ns,
                    p.estimated_avg_latency_ns,
                    p.measured_tail_ns.0,
                    p.measured_tail_ns.1,
                ]
                .map(f64::to_bits),
            )
        };
        assert_eq!(bits(x), bits(y), "{cell}: prefix {}", x.prefix);
    }
}

/// `c` with its tape dropped: every verify and evaluate run on it is a
/// full simulation.
fn untaped(c: &Consultation) -> Consultation {
    let mut c = c.clone();
    c.baselines.tape = None;
    c
}

/// The recommended split of `c` at a 10% SLO (the all-FastMem row when
/// the curve offers none).
fn recommended(c: &Consultation) -> mnemo::advisor::Recommendation {
    c.recommend(0.10)
        .unwrap_or_else(|| c.recommend(0.0).unwrap())
}

#[test]
fn replayed_splits_are_bit_identical_to_simulated_ones() {
    let traces: Vec<Trace> = WorkloadSpec::table3()
        .into_iter()
        .chain(WorkloadSpec::ycsb_core_suite())
        .map(|w| w.scaled(200, 1_500).generate(13))
        .collect();
    let noises = [
        NoiseConfig::disabled(),
        measurement_noise(7),
        measurement_noise(8),
        measurement_noise(9),
    ];
    for trace in &traces {
        let spec = testbed_for(trace);
        for noise in noises {
            let advisor = Advisor::new(AdvisorConfig {
                spec: spec.clone(),
                noise,
                ..AdvisorConfig::default()
            });
            for store in STORES {
                let cell = format!(
                    "{} / {store} / sigma {} seed {}",
                    trace.name, noise.relative_sigma, noise.seed
                );
                let c = advisor.consult(store, trace).unwrap();
                assert!(c.baselines.tape.is_some(), "{cell}");
                // The verify run itself, then what verify reports.
                let rec = recommended(&c);
                let row = &c.curve.rows[rec.prefix];
                let placement = PlacementEngine::placement_for(&c.order, row);
                let replayed = c
                    .baselines
                    .replay(store, &spec, trace, noise, &placement)
                    .unwrap();
                assert!(replayed.samples.is_none(), "{cell}");
                let simulated = Server::build_with(store, spec.clone(), noise, trace, placement)
                    .unwrap()
                    .run(trace);
                assert_totals_identical(&replayed, &simulated, &format!("{cell} verify run"));
                let (a, b) = (
                    advisor.verify(store, trace, &c, &rec).unwrap(),
                    advisor.verify(store, trace, &untaped(&c), &rec).unwrap(),
                );
                assert_eq!(
                    (a.0.to_bits(), a.1.to_bits()),
                    (b.0.to_bits(), b.1.to_bits()),
                    "{cell}"
                );
                // Five evaluate points under their own noise seeds.
                let eval_noise = NoiseConfig {
                    seed: noise.seed ^ 0x5a5a,
                    ..noise
                };
                let eval =
                    |c: &Consultation| evaluate(store, trace, c, &spec, eval_noise, 5).unwrap();
                assert_points_identical(
                    &eval(&c),
                    &eval(&untaped(&c)),
                    &format!("{cell} evaluate"),
                );
            }
        }
    }
}

#[test]
fn replays_know_a_tape_by_its_requests() {
    let trace = WorkloadSpec::trending().scaled(300, 3_000).generate(5);
    let spec = testbed_for(&trace);
    let noise = measurement_noise(7);
    let advisor = Advisor::new(AdvisorConfig {
        spec: spec.clone(),
        noise,
        ..AdvisorConfig::default()
    });
    // The walk's length, sizes, store and spec, so only the requests
    // tell these runs from the walk's: one op flipped, and two requests
    // for different keys swapped.
    let flip = trace.len() / 2;
    let mut flipped = trace.clone();
    flipped.requests[flip].op = match trace.requests[flip].op {
        Op::Read => Op::Update,
        Op::Update => Op::Read,
    };
    let first = 17;
    let other = (first + 1..trace.len())
        .find(|&i| trace.requests[i].key != trace.requests[first].key)
        .unwrap();
    let mut swapped = trace.clone();
    swapped.requests.swap(first, other);
    for store in STORES {
        let c = advisor.consult(store, &trace).unwrap();
        let rec = recommended(&c);
        let placement = PlacementEngine::placement_for(&c.order, &c.curve.rows[rec.prefix]);
        assert!(c
            .baselines
            .replay(store, &spec, &trace, noise, &placement)
            .is_ok());
        for (what, run, index) in [("flipped op", &flipped, flip), ("swapped", &swapped, first)] {
            let cell = format!("{store}: {what}");
            let declined = c.baselines.replay(store, &spec, run, noise, &placement);
            assert_eq!(
                declined.unwrap_err(),
                ReplayDecline::Request { index },
                "{cell}"
            );
            // Verify simulates the run instead.
            let simulated = Server::build_with(store, spec.clone(), noise, run, placement.clone())
                .unwrap()
                .run(run)
                .throughput_ops_s();
            let (measured, _) = advisor.verify(store, run, &c, &rec).unwrap();
            assert_eq!(measured.to_bits(), simulated.to_bits(), "{cell}");
        }
    }
}

#[test]
fn declined_replays_fall_back_to_simulation() {
    let trace = WorkloadSpec::trending().scaled(300, 3_000).generate(5);
    let foreign = WorkloadSpec::trending().scaled(300, 3_000).generate(6);
    let spec = testbed_for(&trace);
    let noise = measurement_noise(7);
    let config = AdvisorConfig {
        spec: spec.clone(),
        noise,
        ..AdvisorConfig::default()
    };
    let advisor = Advisor::new(config.clone());
    let mut other_spec = spec.clone();
    other_spec.cache.capacity_bytes /= 2;
    let other = Advisor::new(AdvisorConfig {
        spec: other_spec.clone(),
        ..config.clone()
    });
    let plan = FaultPlan::new(3).with(FaultEvent::LatencySpike {
        tier: TierId::SLOW,
        start_ns: 0,
        end_ns: u128::MAX,
        factor: 4.0,
    });
    let faulted = Advisor::new(AdvisorConfig {
        fault_plan: Some(plan),
        ..config
    });
    for store in STORES {
        let c = advisor.consult(store, &trace).unwrap();
        let rec = recommended(&c);
        let placement = PlacementEngine::placement_for(&c.order, &c.curve.rows[rec.prefix]);
        let other_store = if store == StoreKind::Redis {
            StoreKind::Dynamo
        } else {
            StoreKind::Redis
        };
        let cases = [
            ("foreign trace", &advisor, store, &foreign, &spec),
            ("other spec", &other, store, &trace, &other_spec),
            ("other store", &advisor, other_store, &trace, &spec),
        ];
        for (what, advisor, run_store, trace, spec) in cases {
            let cell = format!("{store}: {what}");
            let declined = c
                .baselines
                .replay(run_store, spec, trace, noise, &placement);
            assert!(
                matches!(declined, Err(ReplayDecline::Fingerprint { .. })),
                "{cell}: {declined:?}"
            );
            let simulated =
                Server::build_with(run_store, spec.clone(), noise, trace, placement.clone())
                    .unwrap()
                    .run(trace)
                    .throughput_ops_s();
            let (measured, _) = advisor.verify(run_store, trace, &c, &rec).unwrap();
            assert_eq!(measured.to_bits(), simulated.to_bits(), "{cell}");
            let eval = |c: &Consultation| evaluate(run_store, trace, c, spec, noise, 3).unwrap();
            assert_points_identical(&eval(&c), &eval(&untaped(&c)), &cell);
        }
        // A fault plan declines the walk, so there is no tape at all.
        let fc = faulted.consult(store, &trace).unwrap();
        assert_eq!(
            fc.baselines
                .replay(store, &spec, &trace, noise, &placement)
                .unwrap_err(),
            ReplayDecline::NoTape
        );
        let simulated = Server::build_with(store, spec.clone(), noise, &trace, placement.clone())
            .unwrap()
            .run(&trace)
            .throughput_ops_s();
        let (measured, _) = faulted.verify(store, &trace, &fc, &rec).unwrap();
        assert_eq!(
            measured.to_bits(),
            simulated.to_bits(),
            "{store}: fault plan"
        );
    }
}
