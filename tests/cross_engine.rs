//! Cross-architecture consistency: the single placement-aware server
//! and the paper's two-instance cluster must agree on what they
//! measure, for every engine model.

use hybridmem::DetHashSet;
use kvsim::{Placement, Server, StoreKind, TwoInstanceCluster};
use ycsb::WorkloadSpec;

fn trace() -> ycsb::Trace {
    WorkloadSpec::timeline().scaled(200, 3_000).generate(17)
}

#[test]
fn all_architectures_agree_on_throughput() {
    let t = trace();
    let fast_keys: DetHashSet<u64> = (0..60).collect();
    for store in [StoreKind::Redis, StoreKind::Memcached, StoreKind::Dynamo] {
        let single = Server::build(store, &t, Placement::FastSet(fast_keys.clone()))
            .unwrap()
            .run(&t)
            .throughput_ops_s();
        let cluster = TwoInstanceCluster::build(store, &t, fast_keys.clone())
            .unwrap()
            .run(&t)
            .throughput_ops_s();
        let rel = |a: f64, b: f64| (a - b).abs() / a;
        assert!(
            rel(single, cluster) < 0.05,
            "{store}: single {single} vs cluster {cluster}"
        );
    }
}

#[test]
fn sensitivity_ordering_is_stable_across_workloads() {
    // §V-A: DynamoDB > Redis > Memcached in hybrid-memory sensitivity,
    // regardless of workload.
    for spec in [
        WorkloadSpec::trending(),
        WorkloadSpec::timeline(),
        WorkloadSpec::edit_thumbnail(),
    ] {
        let t = spec.scaled(150, 2_000).generate(3);
        let gap = |store: StoreKind| {
            let f = Server::build(store, &t, Placement::AllFast)
                .unwrap()
                .run(&t);
            let s = Server::build(store, &t, Placement::AllSlow)
                .unwrap()
                .run(&t);
            f.throughput_ops_s() / s.throughput_ops_s()
        };
        let (redis, memcached, dynamo) = (
            gap(StoreKind::Redis),
            gap(StoreKind::Memcached),
            gap(StoreKind::Dynamo),
        );
        assert!(
            dynamo > redis && redis > memcached,
            "{}: dynamo {dynamo:.3} redis {redis:.3} memcached {memcached:.3}",
            t.name
        );
    }
}

#[test]
fn per_store_storage_overheads_differ() {
    let t = trace();
    let bytes = |store: StoreKind| {
        let server = Server::build(store, &t, Placement::AllFast).unwrap();
        server.engine().bytes_in(hybridmem::TierId::FAST)
    };
    let logical = t.dataset_bytes();
    let redis = bytes(StoreKind::Redis);
    let memcached = bytes(StoreKind::Memcached);
    let dynamo = bytes(StoreKind::Dynamo);
    assert!(redis > logical, "redis adds headers");
    assert!(memcached > logical, "memcached slab-rounds");
    assert!(
        dynamo as f64 > logical as f64 * 1.4,
        "dynamo inflates object graphs"
    );
    assert!(dynamo > redis, "dynamo heaviest");
}

#[test]
fn migration_is_equivalent_to_fresh_placement_for_all_stores() {
    let t = trace();
    let placement = Placement::FastSet((0..100).collect());
    for store in [StoreKind::Redis, StoreKind::Memcached, StoreKind::Dynamo] {
        let fresh = Server::build(store, &t, placement.clone()).unwrap().run(&t);
        let mut migrated = Server::build(store, &t, Placement::AllSlow).unwrap();
        migrated.apply_placement(&t, &placement).unwrap();
        let rep = migrated.run(&t);
        let rel =
            (fresh.throughput_ops_s() - rep.throughput_ops_s()).abs() / fresh.throughput_ops_s();
        assert!(rel < 1e-6, "{store}: fresh vs migrated drift {rel}");
    }
}

#[test]
fn repeated_runs_are_identical_without_noise() {
    let t = trace();
    for store in [StoreKind::Redis, StoreKind::Memcached, StoreKind::Dynamo] {
        let mut server = Server::build(store, &t, Placement::AllSlow).unwrap();
        let a = server.run(&t).runtime_ns;
        let b = server.run(&t).runtime_ns;
        assert_eq!(a, b, "{store}: re-running must be bit-identical");
    }
}

#[test]
fn storage_engaged_store_is_least_placement_sensitive() {
    // The RocksLike negative control: most of its traffic is SSD-bound,
    // so its Fast-vs-Slow gap sits below every in-memory store's.
    let t = trace();
    let gap = |store: StoreKind| {
        let f = Server::build(store, &t, Placement::AllFast)
            .unwrap()
            .run(&t);
        let s = Server::build(store, &t, Placement::AllSlow)
            .unwrap()
            .run(&t);
        f.throughput_ops_s() / s.throughput_ops_s()
    };
    assert!(gap(StoreKind::Rocks) < gap(StoreKind::Redis));
    assert!(gap(StoreKind::Rocks) < gap(StoreKind::Dynamo));
}

#[test]
fn capacity_pressure_surfaces_as_engine_error() {
    // A spec too small for the dataset must fail loading, not corrupt
    // state.
    let t = trace();
    let mut spec = hybridmem::StackSpec::paper_testbed();
    spec.tiers[0].capacity_bytes = 1 << 20; // 1 MiB, dataset is ~20 MiB
    let err = Server::build_with(
        StoreKind::Redis,
        spec,
        hybridmem::clock::NoiseConfig::disabled(),
        &t,
        Placement::AllFast,
    )
    .err()
    .expect("overcommitted load must fail");
    assert!(matches!(err, kvsim::EngineError::Memory(_)));
}

#[test]
fn oversized_memcached_item_is_a_typed_load_error() {
    // 1 MiB is the largest slab class and an item carries a 48-byte
    // header: key 0 fills the class exactly, key 1 is 48 bytes over.
    let t = ycsb::Trace {
        name: "oversized".into(),
        sizes: vec![(1 << 20) - 48, 1 << 20],
        requests: vec![ycsb::Request {
            key: 1,
            op: ycsb::Op::Read,
        }],
    };
    let err = Server::build(StoreKind::Memcached, &t, Placement::AllFast)
        .err()
        .expect("an item above the largest slab class must not load");
    assert_eq!(
        err,
        kvsim::EngineError::ItemTooLarge {
            key: 1,
            item_bytes: (1 << 20) + 48,
            limit: 1 << 20,
        }
    );
    assert!(err.to_string().contains("too large"), "{err}");
    // The other engines have no item size limit.
    assert!(Server::build(StoreKind::Redis, &t, Placement::AllFast).is_ok());
}
