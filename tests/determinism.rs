//! The parallel sweep engine's determinism guarantee: for the same seed
//! and input, every `--jobs` value produces **bit-identical** results —
//! curves and shared allocations. The worker count tunes wall-clock
//! speed only; it must never leak into any output byte.
//!
//! `mnemo_par::set_jobs` is process-global, so every test that varies it
//! serialises on one lock and restores the unbounded default before
//! releasing it.

use kvsim::StoreKind;
use mnemo::advisor::{Advisor, AdvisorConfig, OrderingKind};
use mnemo::curve::EstimateCurve;
use proptest::prelude::*;
use std::sync::Mutex;
use ycsb::dist::DistKind;
use ycsb::{OpMix, SizeClass, SizeModel, Trace, WorkloadSpec};

/// Serialises tests that touch the process-global worker-count override.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the pool bounded to `jobs` workers, restoring the
/// default afterwards. Callers must hold `JOBS_LOCK`.
fn with_jobs<T>(jobs: usize, f: impl FnOnce() -> T) -> T {
    mnemo_par::set_jobs(jobs);
    let out = f();
    mnemo_par::set_jobs(0);
    out
}

fn spec(keys: u64, requests: usize, theta: f64) -> WorkloadSpec {
    WorkloadSpec {
        name: "determinism".into(),
        distribution: DistKind::Zipfian { theta },
        ops: OpMix::read_update(0.9),
        sizes: SizeModel::Single(SizeClass::TextPost),
        keys,
        requests,
        use_case: String::new(),
    }
}

fn curve_for(trace: &Trace, ordering: OrderingKind) -> EstimateCurve {
    let config = AdvisorConfig {
        ordering,
        ..AdvisorConfig::default()
    };
    Advisor::new(config)
        .consult(StoreKind::Redis, trace)
        .unwrap()
        .curve
}

/// Bitwise row equality — `==` on f64 would accept -0.0 vs 0.0 and
/// hides nothing; the guarantee is *byte* identity.
fn assert_rows_bit_identical(a: &EstimateCurve, b: &EstimateCurve, jobs: usize) {
    assert_eq!(a.rows.len(), b.rows.len(), "jobs={jobs}");
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.prefix, rb.prefix, "jobs={jobs}");
        assert_eq!(ra.key, rb.key, "jobs={jobs}");
        assert_eq!(ra.fast_bytes, rb.fast_bytes, "jobs={jobs}");
        assert_eq!(
            ra.cost_reduction.to_bits(),
            rb.cost_reduction.to_bits(),
            "jobs={jobs} prefix={}",
            ra.prefix
        );
        assert_eq!(
            ra.est_runtime_ns.to_bits(),
            rb.est_runtime_ns.to_bits(),
            "jobs={jobs} prefix={}",
            ra.prefix
        );
        assert_eq!(
            ra.est_throughput_ops_s.to_bits(),
            rb.est_throughput_ops_s.to_bits(),
            "jobs={jobs} prefix={}",
            ra.prefix
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn any_jobs_value_yields_identical_curves(
        seed in 0u64..1_000,
        keys in 40u64..150,
        requests in 400usize..2_000,
        theta in 0.55f64..0.95,
        jobs in 2usize..6,
    ) {
        let _guard = JOBS_LOCK.lock().unwrap();
        let trace = spec(keys, requests, theta).generate(seed);
        let sequential = with_jobs(1, || curve_for(&trace, OrderingKind::MnemoT));
        let parallel = with_jobs(jobs, || curve_for(&trace, OrderingKind::MnemoT));
        assert_rows_bit_identical(&sequential, &parallel, jobs);
        // And the CSV artifact — what the CI gate diffs — is equal as a
        // byte string, not merely row-wise.
        prop_assert_eq!(sequential.to_csv(), parallel.to_csv());
    }
}

#[test]
fn every_ordering_is_jobs_invariant() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let trace = spec(120, 2_000, 0.8).generate(77);
    for ordering in [
        OrderingKind::TouchOrder,
        OrderingKind::Hotness,
        OrderingKind::MnemoT,
    ] {
        let sequential = with_jobs(1, || curve_for(&trace, ordering));
        for jobs in [2, 3, 8] {
            let parallel = with_jobs(jobs, || curve_for(&trace, ordering));
            assert_rows_bit_identical(&sequential, &parallel, jobs);
        }
    }
}

#[test]
fn shared_allocation_is_jobs_invariant() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let consult = |jobs: usize| {
        with_jobs(jobs, || {
            let tenants: Vec<_> = [3u64, 9]
                .iter()
                .map(|&seed| {
                    let trace = spec(80, 1_200, 0.85).generate(seed);
                    Advisor::new(AdvisorConfig::default())
                        .consult(StoreKind::Dynamo, &trace)
                        .unwrap()
                })
                .collect();
            let budget: u64 = tenants.iter().map(|c| c.curve.total_bytes).sum::<u64>() / 3;
            mnemo::multi::allocate_shared(&tenants, budget)
        })
    };
    let sequential = consult(1);
    let parallel = consult(5);
    assert_eq!(sequential.used_bytes, parallel.used_bytes);
    for (s, p) in sequential.tenants.iter().zip(&parallel.tenants) {
        assert_eq!(s.keys, p.keys);
        assert_eq!(s.fast_bytes, p.fast_bytes);
        assert_eq!(s.est_runtime_ns.to_bits(), p.est_runtime_ns.to_bits());
    }
}
