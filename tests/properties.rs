//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary workload shapes, not just the Table III presets.

use kvsim::StoreKind;
use mnemo::advisor::{Advisor, AdvisorConfig, OrderingKind};
use proptest::prelude::*;
use ycsb::dist::DistKind;
use ycsb::{SizeClass, SizeModel, WorkloadSpec};

/// Arbitrary-but-small workload specs.
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    let dist = prop_oneof![
        Just(DistKind::Uniform),
        (0.5f64..0.95).prop_map(|t| DistKind::Zipfian { theta: t }),
        (0.5f64..0.95).prop_map(|t| DistKind::ScrambledZipfian { theta: t }),
        ((0.05f64..0.5), (0.5f64..0.95)).prop_map(|(h, o)| DistKind::Hotspot {
            hot_fraction: h,
            hot_op_fraction: o
        }),
        (1u64..20).prop_map(|c| DistKind::Latest {
            theta: 0.9,
            churn_period: c
        }),
    ];
    let sizes = prop_oneof![
        Just(SizeModel::Single(SizeClass::Caption)),
        Just(SizeModel::Single(SizeClass::TextPost)),
        Just(SizeModel::Mixed(vec![
            (SizeClass::TextPost, 1.0),
            (SizeClass::Caption, 2.0)
        ])),
    ];
    (dist, sizes, 20u64..80, 200usize..800, 0.3f64..1.0).prop_map(
        |(distribution, sizes, keys, requests, read_fraction)| WorkloadSpec {
            name: "property".into(),
            distribution,
            ops: ycsb::OpMix::read_update(read_fraction),
            sizes,
            keys,
            requests,
            use_case: String::new(),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn curve_invariants_hold_for_arbitrary_workloads(spec in arb_spec(), seed in 0u64..1000) {
        let trace = spec.generate(seed);
        let consultation = Advisor::new(AdvisorConfig::default())
            .consult(StoreKind::Redis, &trace)
            .unwrap();
        let curve = &consultation.curve;
        // Row count = keys + 1, cost in [p, 1], monotone, throughput
        // improves end to end, and bytes accumulate to the dataset.
        prop_assert_eq!(curve.rows.len(), trace.keys() as usize + 1);
        for w in curve.rows.windows(2) {
            prop_assert!(w[1].cost_reduction >= w[0].cost_reduction - 1e-12);
            prop_assert!(w[1].fast_bytes >= w[0].fast_bytes);
            // Moving any key to FastMem never hurts the estimate.
            prop_assert!(w[1].est_runtime_ns <= w[0].est_runtime_ns + 1e-6);
        }
        prop_assert!(curve.slow_only().cost_reduction >= 0.2 - 1e-12);
        prop_assert!((curve.fast_only().cost_reduction - 1.0).abs() < 1e-12);
        prop_assert_eq!(curve.fast_only().fast_bytes, trace.dataset_bytes());
        // Recommendations exist for any SLO and tighten monotonically.
        let loose = consultation.recommend(0.5).unwrap();
        let tight = consultation.recommend(0.01).unwrap();
        prop_assert!(tight.fast_bytes >= loose.fast_bytes);
        prop_assert!(tight.cost_reduction >= loose.cost_reduction - 1e-12);
    }

    #[test]
    fn orderings_never_change_endpoints(spec in arb_spec(), seed in 0u64..1000) {
        let trace = spec.generate(seed);
        let advisor = Advisor::new(AdvisorConfig::default());
        let base = advisor.consult(StoreKind::Memcached, &trace).unwrap();
        let mut endpoints = Vec::new();
        for ordering in [OrderingKind::TouchOrder, OrderingKind::Hotness, OrderingKind::MnemoT] {
            let config = AdvisorConfig { ordering, ..AdvisorConfig::default() };
            let c = Advisor::new(config)
                .consult_with_baselines(base.baselines.clone(), &trace);
            endpoints.push((c.curve.slow_only().est_runtime_ns, c.curve.fast_only().est_runtime_ns));
        }
        for w in endpoints.windows(2) {
            prop_assert!((w[0].0 - w[1].0).abs() < 1e-6);
            prop_assert!((w[0].1 - w[1].1).abs() < 1e-6);
        }
    }

    #[test]
    fn downsampling_preserves_read_fraction_and_dataset(
        spec in arb_spec(),
        factor in 2usize..10,
        seed in 0u64..1000,
    ) {
        let full = spec.generate(seed);
        let sampled = ycsb::sample::downsample(&full, factor, seed ^ 0xABCD);
        prop_assert_eq!(&sampled.sizes, &full.sizes);
        prop_assert!(sampled.len() <= full.len() / factor + full.len() / 100 + 1);
        if full.read_fraction() > 0.05 && full.read_fraction() < 0.95 && !sampled.is_empty() {
            // Binomial sampling noise: allow 4 standard deviations.
            let p = full.read_fraction();
            let tol = 4.0 * (p * (1.0 - p) / sampled.len() as f64).sqrt() + 0.01;
            prop_assert!(
                (sampled.read_fraction() - p).abs() < tol,
                "sampled {} vs full {} (tol {})",
                sampled.read_fraction(), p, tol
            );
        }
    }

    #[test]
    fn trace_cdf_invariants(spec in arb_spec(), seed in 0u64..1000) {
        let trace = spec.generate(seed);
        let cdf = trace.key_cdf();
        let mass = trace.hot_mass_curve();
        prop_assert_eq!(cdf.len(), trace.keys() as usize);
        prop_assert_eq!(mass.len(), trace.keys() as usize);
        // Both end at 1 for nonempty traces and are monotone; the
        // hottest-first mass curve dominates the id-order CDF pointwise.
        if !trace.is_empty() {
            prop_assert!((cdf.last().unwrap() - 1.0).abs() < 1e-9);
            prop_assert!((mass.last().unwrap() - 1.0).abs() < 1e-9);
        }
        for w in cdf.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
        for (m, c) in mass.iter().zip(&cdf) {
            prop_assert!(m + 1e-9 >= *c, "hot-mass must dominate id-order CDF");
        }
    }

    #[test]
    fn trace_file_roundtrip_for_arbitrary_workloads(spec in arb_spec(), seed in 0u64..1000) {
        let trace = spec.generate(seed);
        let text = ycsb::fileio::trace_to_string(&trace);
        let back = ycsb::fileio::trace_from_str(&text).unwrap();
        prop_assert_eq!(trace, back);
    }

    #[test]
    fn engine_service_times_are_sane_for_arbitrary_records(
        bytes in 64u64..500_000,
        store_pick in 0u8..3,
    ) {
        use hybridmem::{CacheConfig, StackSpec, TierId};
        let store = [StoreKind::Redis, StoreKind::Memcached, StoreKind::Dynamo]
            [store_pick as usize];
        let mut spec = StackSpec::paper_testbed();
        spec.cache = CacheConfig::disabled();
        let mut engine = kvsim::server::make_engine(store, spec).unwrap();
        engine.load(0, bytes, TierId::FAST).unwrap();
        engine.load(1, bytes, TierId::SLOW).unwrap();
        let fast_get = engine.get(0).unwrap();
        let slow_get = engine.get(1).unwrap();
        let fast_put = engine.put(0).unwrap();
        let slow_put = engine.put(1).unwrap();
        // Positive, finite, ordered by tier for both ops.
        for t in [fast_get, slow_get, fast_put, slow_put] {
            prop_assert!(t.is_finite() && t > 0.0);
        }
        prop_assert!(slow_get > fast_get);
        prop_assert!(slow_put >= fast_put);
        // Writes are less tier-exposed than reads (paper §III).
        prop_assert!(slow_put - fast_put <= slow_get - fast_get + 1e-6);
        // Determinism: repeating the access costs the same (no cache).
        let again = engine.get(1).unwrap();
        prop_assert!((again - slow_get).abs() < 1e-9);
    }

    #[test]
    fn hotness_order_dominates_any_other_order_at_every_prefix(
        seed in 0u64..200,
    ) {
        // Under the global-average model, each key's promotion benefit is
        // proportional to its access count (read-only workload), so the
        // hotness ordering maximises the estimated throughput at *every*
        // prefix count — here verified against the touch ordering.
        // (Weight/density orderings optimise per *byte*, not per prefix,
        // and can legitimately lose at fixed prefix counts when sizes
        // vary.)
        let spec = WorkloadSpec {
            name: "prop-zipf".into(),
            distribution: DistKind::ScrambledZipfian { theta: 0.9 },
            ops: ycsb::OpMix::read_only(),
            sizes: SizeModel::Single(SizeClass::TextPost),
            keys: 60,
            requests: 600,
            use_case: String::new(),
        };
        let trace = spec.generate(seed);
        let advisor = |ordering| {
            Advisor::new(AdvisorConfig { ordering, ..AdvisorConfig::default() })
        };
        let base = advisor(OrderingKind::TouchOrder)
            .consult(StoreKind::Redis, &trace)
            .unwrap();
        let touch = base.curve.clone();
        let hot = advisor(OrderingKind::Hotness)
            .consult_with_baselines(base.baselines.clone(), &trace)
            .curve;
        for (h, t) in hot.rows.iter().zip(&touch.rows) {
            prop_assert!(
                h.est_throughput_ops_s >= t.est_throughput_ops_s - 1e-6,
                "prefix {}: hotness {} < touch {}",
                h.prefix, h.est_throughput_ops_s, t.est_throughput_ops_s
            );
        }
    }
}
