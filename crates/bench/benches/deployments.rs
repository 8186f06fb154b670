//! Simulation speed of the deployment alternatives (static server,
//! dynamic tierer, cache mode) and of the profiler family (full
//! instrumentation vs PEBS-style sampling vs MnemoT's description-only
//! pattern analysis).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kvsim::{Placement, Server, StoreKind};
use mnemo::baselines::{InstrumentedProfiler, SamplingProfiler};
use std::hint::black_box;
use ycsb::WorkloadSpec;

fn bench_deployments(c: &mut Criterion) {
    let trace = WorkloadSpec::trending().scaled(500, 8_000).generate(6);
    let budget = trace.dataset_bytes() / 5;
    let mut group = c.benchmark_group("deployments");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));

    group.bench_function(BenchmarkId::new("run", "static"), |b| {
        let mut server = Server::build(StoreKind::Redis, &trace, Placement::AllSlow).unwrap();
        b.iter(|| black_box(server.run(&trace).runtime_ns));
    });
    group.bench_function(BenchmarkId::new("run", "dynamic_tiering"), |b| {
        let mut server = mnemo_bench::decay_server(
            &trace,
            &hybridmem::StackSpec::paper_testbed(),
            budget,
            1_000,
        )
        .unwrap();
        b.iter(|| black_box(server.run(&trace).runtime_ns));
    });
    group.bench_function(BenchmarkId::new("run", "cache_mode"), |b| {
        let mut server = Server::build_cache_mode(
            StoreKind::Redis,
            hybridmem::StackSpec::paper_testbed(),
            &trace,
            budget,
        )
        .unwrap();
        b.iter(|| black_box(server.run(&trace).runtime_ns));
    });
    group.finish();
}

fn bench_profilers(c: &mut Criterion) {
    let trace = WorkloadSpec::timeline().scaled(1_000, 10_000).generate(6);
    let mut group = c.benchmark_group("profiler_family");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("instrumented_full", |b| {
        b.iter(|| black_box(InstrumentedProfiler::profile(&trace).events));
    });
    for period in [100u64, 1_000, 10_000] {
        group.bench_with_input(
            BenchmarkId::new("sampling", period),
            &period,
            |b, &period| {
                let profiler = SamplingProfiler::new(period);
                b.iter(|| black_box(profiler.profile(&trace).events));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_deployments, bench_profilers);
criterion_main!(benches);
