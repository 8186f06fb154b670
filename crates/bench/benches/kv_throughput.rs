//! Simulation speed of the three KV engine models (requests simulated
//! per second of host time) — the practical cost of a Sensitivity Engine
//! run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kvsim::{Placement, Server, StoreKind};
use std::hint::black_box;
use ycsb::WorkloadSpec;

fn bench_engines(c: &mut Criterion) {
    let trace = WorkloadSpec::timeline().scaled(1_000, 10_000).generate(3);
    let mut group = c.benchmark_group("kv_engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    for store in [StoreKind::Redis, StoreKind::Memcached, StoreKind::Dynamo] {
        for placement in [Placement::AllFast, Placement::AllSlow] {
            let label = format!("{store}/{placement:?}");
            group.bench_with_input(BenchmarkId::new("run", label), &store, |b, &store| {
                let mut server = Server::build(store, &trace, placement.clone()).expect("server");
                b.iter(|| black_box(server.run(&trace).runtime_ns));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
