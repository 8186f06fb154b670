//! Ablation: LLC model choice (none / object-LRU / set-associative).
//!
//! The object-granular LRU is the default because it is ~an order of
//! magnitude cheaper to simulate than the line-granular set-associative
//! model; this bench quantifies both the simulation-speed gap and (in the
//! printed preamble) how little the measured curve differs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hybridmem::{CacheConfig, CacheKind, StackSpec};
use kvsim::{Placement, Server, StoreKind};
use std::hint::black_box;
use ycsb::WorkloadSpec;

fn spec_with(kind: CacheKind, dataset: u64) -> StackSpec {
    let mut spec = StackSpec::paper_testbed();
    spec.cache = match kind {
        CacheKind::None => CacheConfig::disabled(),
        CacheKind::ObjectLru => CacheConfig::paper_llc(),
        CacheKind::SetAssociative => CacheConfig::line_granular(),
    };
    spec.cache.capacity_bytes = (dataset / 85).max(1 << 16);
    spec
}

fn curve_delta_summary() {
    let trace = WorkloadSpec::trending().scaled(500, 5_000).generate(9);
    let mut results = Vec::new();
    for kind in [
        CacheKind::None,
        CacheKind::ObjectLru,
        CacheKind::SetAssociative,
    ] {
        let spec = spec_with(kind, trace.dataset_bytes());
        let report = Server::build_with(
            StoreKind::Redis,
            spec,
            hybridmem::clock::NoiseConfig::disabled(),
            &trace,
            Placement::AllSlow,
        )
        .expect("server")
        .run(&trace);
        results.push((kind, report.throughput_ops_s()));
    }
    let obj = results[1].1;
    let line = results[2].1;
    println!(
        "[ablation_cache] slow-only throughput: none {:.0}, object-LRU {:.0}, set-assoc {:.0} \
         (object vs line gap {:+.2}%)",
        results[0].1,
        obj,
        line,
        (obj / line - 1.0) * 100.0
    );
}

fn bench_cache_models(c: &mut Criterion) {
    curve_delta_summary();
    let trace = WorkloadSpec::trending().scaled(500, 5_000).generate(9);
    let mut group = c.benchmark_group("cache_model");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    for kind in [
        CacheKind::None,
        CacheKind::ObjectLru,
        CacheKind::SetAssociative,
    ] {
        group.bench_with_input(
            BenchmarkId::new("run_trace", format!("{kind:?}")),
            &kind,
            |b, &kind| {
                let spec = spec_with(kind, trace.dataset_bytes());
                let mut server = Server::build_with(
                    StoreKind::Redis,
                    spec,
                    hybridmem::clock::NoiseConfig::disabled(),
                    &trace,
                    Placement::AllSlow,
                )
                .expect("server");
                b.iter(|| black_box(server.run(&trace).runtime_ns));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cache_models);
criterion_main!(benches);
