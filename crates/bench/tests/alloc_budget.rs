//! Allocation budget of the Sensitivity Engine's baseline pass.
//!
//! Building an engine and replaying a trace must not allocate per key:
//! every per-key structure (key table, object slots, LLC residency
//! index and node slab) is a vector that grows geometrically, so a
//! ten-times-larger key space costs only a handful of extra
//! reallocations. A per-key heap allocation anywhere on the build or
//! request path adds thousands and fails this test.
//!
//! Both baselines come from one trace walk, so `measure` may allocate
//! only a few more times than a single-baseline `measure_one`.
//!
//! The counter is process-wide, so this file holds a single test: no
//! other test of the binary can allocate concurrently.

use kvsim::{Placement, StoreKind};
use mnemo::SensitivityEngine;
use mnemo_bench::alloc_track::allocation_counts;
use ycsb::{Trace, WorkloadSpec};

/// Requests per trace: equal for both key counts, so the per-request
/// buffers cost the same and only per-key growth shows in the delta.
const REQUESTS: usize = 20_000;

/// Allowed extra allocations for ten times the keys: a few doublings
/// of each per-key vector in two builds, far below one per key.
const BUDGET: u64 = 64;

/// Allowed extra allocations of one `measure` (both baselines from one
/// walk) over one `measure_one` (a single baseline): the second lane's
/// report, noise table and workload name, and the charge tape.
const PAIRED_BUDGET: u64 = 8;

fn allocations_of(store: StoreKind, trace: &Trace) -> u64 {
    let engine = SensitivityEngine::default();
    let (before, _) = allocation_counts();
    let baselines = engine.measure(store, trace).unwrap();
    let (after, _) = allocation_counts();
    assert_eq!(baselines.fast.report.requests, REQUESTS);
    assert!(baselines.tape.is_some(), "{store:?}: the walk declined");
    after - before
}

fn allocations_of_one(store: StoreKind, trace: &Trace) -> u64 {
    let engine = SensitivityEngine::default();
    let (before, _) = allocation_counts();
    let run = engine
        .measure_one(store, trace, Placement::AllFast)
        .unwrap();
    let (after, _) = allocation_counts();
    assert_eq!(run.report.requests, REQUESTS);
    after - before
}

#[test]
fn baseline_allocations_do_not_grow_with_keys() {
    mnemo_par::set_jobs(1);
    let small = WorkloadSpec::trending().scaled(1_000, REQUESTS).generate(7);
    let large = WorkloadSpec::trending()
        .scaled(10_000, REQUESTS)
        .generate(7);
    for store in [
        StoreKind::Redis,
        StoreKind::Memcached,
        StoreKind::Dynamo,
        StoreKind::Rocks,
    ] {
        // Warm-up: lazy statics and the worker pool allocate once.
        allocations_of(store, &small);
        let a_small = allocations_of(store, &small);
        let a_large = allocations_of(store, &large);
        println!("{store:?}: 1k keys {a_small} allocations, 10k keys {a_large}");
        assert!(
            a_large.saturating_sub(a_small) < BUDGET,
            "{store:?}: 10k keys allocate {a_large}, 1k keys {a_small}; \
             the difference must stay below {BUDGET}"
        );
        let one = allocations_of_one(store, &large);
        println!("{store:?}: measure {a_large} allocations, measure_one {one}");
        assert!(
            a_large <= one + PAIRED_BUDGET,
            "{store:?}: measure allocates {a_large}, measure_one {one}; \
             both baselines from one walk may add at most {PAIRED_BUDGET}"
        );
    }
}
