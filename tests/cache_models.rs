//! The LLC model ablation. The simulator's default LLC is an
//! object-granular LRU; the line-granular set-associative model it
//! stands in for is far slower to simulate (the `components` perf
//! bench times the pair as its `llc-object-lru` and `llc-set-assoc`
//! stages). The swap is only sound if both models give nearly the same
//! throughput, which this test pins.

use hybridmem::clock::NoiseConfig;
use hybridmem::{CacheConfig, StackSpec};
use kvsim::{Placement, Server, StoreKind};
use ycsb::{Trace, WorkloadSpec};

/// Slow-only Redis throughput, noise off, with `cache` sized at 1/85
/// of the dataset (the paper's cache:dataset proportion).
fn slow_only_ops_s(trace: &Trace, cache: CacheConfig) -> f64 {
    let mut spec = StackSpec::paper_testbed();
    spec.cache = cache;
    spec.cache.capacity_bytes = trace.dataset_bytes() / 85;
    Server::build_with(
        StoreKind::Redis,
        spec,
        NoiseConfig::disabled(),
        trace,
        Placement::AllSlow,
    )
    .unwrap()
    .run(trace)
    .throughput_ops_s()
}

/// Object-LRU and set-associative throughput agree within 1% (the gap
/// measured on this setup is +0.21%), and closer than either is to
/// running with no LLC at all: the model choice matters less than
/// modelling the cache.
#[test]
fn object_lru_tracks_the_set_associative_llc() {
    let trace = WorkloadSpec::trending().scaled(500, 5_000).generate(9);
    let object = slow_only_ops_s(&trace, CacheConfig::paper_llc());
    let line = slow_only_ops_s(&trace, CacheConfig::line_granular());
    let none = slow_only_ops_s(&trace, CacheConfig::disabled());
    let gap = object / line - 1.0;
    assert!(
        gap.abs() < 0.01,
        "object-LRU {object:.0} ops/s vs set-associative {line:.0} ops/s: gap {:+.3}%",
        gap * 100.0
    );
    let uncached = object / none - 1.0;
    assert!(
        gap.abs() < uncached.abs(),
        "the LLC model gap {:+.3}% must be smaller than the LLC's own effect {:+.3}%",
        gap * 100.0,
        uncached * 100.0
    );
}
