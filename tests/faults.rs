//! Fault-injection guarantees, end to end:
//!
//! 1. migration retries are bounded by the plan's capped-exponential
//!    backoff policy — no unbounded retry storms — on every
//!    epoch-planned server, whatever its policy;
//! 2. the advisor never panics under faults: every query returns a
//!    recommendation that is either SLO-compliant or tagged with a
//!    machine-readable [`DegradedReason`].
//!
//! That a seeded plan perturbs runs deterministically (faulted CSVs and
//! telemetry byte-identical for every `--jobs` value) is checked on the
//! `fault_resilience` binary by `crates/bench/tests/golden.rs`.

use hybridmem::clock::NoiseConfig;
use hybridmem::StackSpec;
use kvsim::tiered::trace_windows;
use kvsim::{MigrationStats, Server, StoreKind};
use mnemo::advisor::{Advisor, AdvisorConfig, DegradedReason};
use mnemo_faults::{Backoff, FaultEvent, FaultPlan};
use mnemo_tier::{dram_optane_ssd, DecayPolicy, PolicyKind, TieringPolicy};
use ycsb::{Trace, WorkloadSpec};

fn trace() -> Trace {
    WorkloadSpec::trending().scaled(250, 5_000).generate(17)
}

/// A plan whose only fault fails every migration attempt with
/// probability `p`, for the whole run, retried under a tight backoff.
fn migration_plan(p: f64) -> FaultPlan {
    let mut plan = FaultPlan::new(5).with(FaultEvent::MigrationFailure {
        start_ns: 0,
        end_ns: u128::MAX,
        probability: p,
    });
    plan.backoff = Backoff {
        base_ns: 1_000.0,
        factor: 2.0,
        cap_ns: 16_000.0,
        max_retries: 4,
    };
    plan
}

/// The p = 1.0 bounds: nothing moves, and every move the policy wanted
/// was attempted exactly `max_retries + 1` times before it fell back.
fn assert_bounded_by_backoff(stats: &MigrationStats, backoff: &Backoff, what: &str) {
    assert_eq!(stats.moved_keys, 0, "{what}: {stats:?}");
    let cap = u64::from(backoff.max_retries);
    assert_eq!(stats.retries, stats.fallbacks * cap, "{what}: {stats:?}");
    assert_eq!(
        stats.failures,
        stats.fallbacks * (cap + 1),
        "{what}: {stats:?}"
    );
    // The charged wait per abandoned migration is bounded by the capped
    // sum of delays, so the total is too.
    let worst = backoff.worst_case_delay_ns() * stats.fallbacks as f64;
    assert!(
        stats.retry_ns <= worst * 1.000001,
        "{what}: retry_ns {} exceeds the policy bound {worst}",
        stats.retry_ns
    );
}

#[test]
fn migration_retries_are_bounded_by_the_backoff_cap() {
    let t = trace();
    let plan = migration_plan(1.0); // every attempt fails: worst case
    let budget = (t.dataset_bytes() as f64 * 0.3) as u64;
    let mut server = Server::build_tiered(
        StoreKind::Redis,
        StackSpec::paper_testbed(),
        NoiseConfig::disabled(),
        &t,
        Box::new(DecayPolicy::new(budget)),
        1_000,
    )
    .unwrap();
    server.install_fault_plan(&plan);
    server.run(&t);
    let stats = server.migration_stats();

    // With p = 1.0 every attempted migration is abandoned after exactly
    // `max_retries` retries — never more — and falls back to SlowMem.
    assert!(stats.fallbacks > 0, "no migrations were even attempted");
    assert_bounded_by_backoff(&stats, &plan.backoff, "decay");
}

#[test]
fn migration_faults_bind_every_epoch_planned_server() {
    let t = trace();
    // A tight top of the stack, so every re-planning policy moves keys.
    let mut spec = dram_optane_ssd();
    spec.tiers[0].capacity_bytes = t.dataset_bytes() / 6;
    spec.tiers[1].capacity_bytes = t.dataset_bytes() / 3;
    let epoch = 500;
    let windows = trace_windows(&t, epoch);
    // Every catalog policy, then the migrating tierer (`None`).
    let policy = |kind: Option<PolicyKind>| -> Box<dyn TieringPolicy> {
        match kind {
            Some(kind) => kind.build(3, &windows),
            None => Box::new(DecayPolicy::new(t.dataset_bytes() / 6)),
        }
    };
    for kind in PolicyKind::ALL.into_iter().map(Some).chain([None]) {
        let name = kind.map_or("decay", PolicyKind::name);
        let run = |plan: Option<&FaultPlan>| {
            let mut server = Server::build_tiered(
                StoreKind::Redis,
                spec.clone(),
                NoiseConfig::disabled(),
                &t,
                policy(kind),
                epoch,
            )
            .unwrap();
            if let Some(plan) = plan {
                server.install_fault_plan(plan);
            }
            let report = server.run(&t);
            (report.runtime_ns, server.migration_stats())
        };
        let (clean_ns, clean) = run(None);
        // A plan that cannot fail a move changes nothing, to the bit.
        for plan in [FaultPlan::new(5), migration_plan(0.0)] {
            let (ns, stats) = run(Some(&plan));
            assert_eq!(ns.to_bits(), clean_ns.to_bits(), "{name}");
            assert_eq!(stats, clean, "{name}");
        }
        let plan = migration_plan(1.0);
        let (_, stats) = run(Some(&plan));
        assert_bounded_by_backoff(&stats, &plan.backoff, name);
        if clean.moved_keys > 0 {
            assert!(
                stats.fallbacks > 0,
                "{name}: wanted moves were not attempted"
            );
        }
    }
}

#[test]
fn advisor_under_faults_always_answers_compliant_or_tagged() {
    let t = trace();
    // Degrade *both* tiers so that even FastMem-only misses the healthy
    // throughput — the regime where plain `recommend` would give up.
    let plan = FaultPlan::new(3)
        .with(FaultEvent::LatencySpike {
            tier: hybridmem::TierId::FAST,
            start_ns: 0,
            end_ns: u128::MAX,
            factor: 50.0,
        })
        .with(FaultEvent::LatencySpike {
            tier: hybridmem::TierId::SLOW,
            start_ns: 0,
            end_ns: u128::MAX,
            factor: 50.0,
        })
        .with(FaultEvent::BandwidthThrottle {
            tier: hybridmem::TierId::FAST,
            start_ns: 0,
            end_ns: u128::MAX,
            factor: 0.02,
        })
        .with(FaultEvent::BandwidthThrottle {
            tier: hybridmem::TierId::SLOW,
            start_ns: 0,
            end_ns: u128::MAX,
            factor: 0.02,
        });
    // Scale the LLC to the dataset (the paper's ~85:1 proportion);
    // otherwise the cache absorbs every device access and hides the
    // injected latency entirely.
    let mut spec = StackSpec::paper_testbed();
    spec.cache.capacity_bytes = spec
        .cache
        .capacity_bytes
        .min((t.dataset_bytes() / 85).max(1 << 16));
    let healthy = Advisor::new(AdvisorConfig {
        spec: spec.clone(),
        ..AdvisorConfig::default()
    })
    .consult(StoreKind::Redis, &t)
    .unwrap();
    let faulted = Advisor::new(AdvisorConfig {
        spec,
        fault_plan: Some(plan),
        ..AdvisorConfig::default()
    })
    .consult(StoreKind::Redis, &t)
    .unwrap();
    let healthy_ops = healthy.curve.fast_only().est_throughput_ops_s;

    // Hostile SLO inputs: none may panic, every answer must be a real
    // row that is compliant or carries a reason.
    for slo in [0.10, 0.0, 1.0, 2.0, -1.0, f64::NAN, f64::INFINITY] {
        let r = faulted.recommend_resilient(slo, None);
        assert!(r.recommendation.est_throughput_ops_s > 0.0, "slo={slo}");
        assert!(
            r.is_compliant() || r.degraded.is_some(),
            "slo={slo}: neither compliant nor tagged"
        );
    }

    // Judged against the *healthy* reference, the faulted hardware
    // cannot reach within 10%: the advisor degrades gracefully to the
    // nearest-feasible row and says why, instead of returning nothing.
    let vs = faulted.recommend_resilient(0.10, Some(healthy_ops));
    match vs.degraded {
        Some(DegradedReason::SloUnattainable {
            requested,
            achievable,
        }) => {
            assert_eq!(requested, 0.10);
            assert!(achievable > 0.10, "achievable={achievable}");
        }
        other => panic!("expected SloUnattainable, got {other:?}"),
    }
    // Nearest-feasible == the best the degraded curve can do.
    let best = faulted
        .curve
        .rows
        .iter()
        .map(|r| r.est_throughput_ops_s)
        .fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(vs.recommendation.est_throughput_ops_s, best);
}
