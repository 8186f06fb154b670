//! Policy-driven tiering for the one [`Server`](crate::Server): the
//! per-key stats a [`TieringPolicy`] plans from, the spill-tolerant
//! initial load, and the epoch re-planner behind
//! [`Server::build_tiered`](crate::Server::build_tiered).
//!
//! At N=2 with the greedy policy and no epochs, a policy-placed run is
//! bit-identical to the same server with the Pattern Engine's `FastSet`
//! placement (covered by `tests/tier.rs`): both are the same request
//! loop over the same engine, differing only in who picked the tiers.

use crate::engine::{EngineError, KvEngine};
use crate::server::MigrationStats;
use hybridmem::{AccessKind, TierId};
use mnemo_faults::{Backoff, MigrationFaults};
use mnemo_tier::{KeyStat, TieringPolicy};
use ycsb::{Op, Trace};

/// Load every key at its planned tier. Policies plan against logical
/// value bytes while engines add per-value overhead, so a
/// capacity-tight planned tier can run out. The plan is advisory: spill
/// toward the bottom of the stack first, then back up, and fail only
/// when no tier at all has room.
pub(crate) fn load_planned(
    engine: &mut dyn KvEngine,
    stats: &[KeyStat],
    plan: &[TierId],
) -> Result<(), EngineError> {
    let num_tiers = engine.memory().num_tiers();
    for (s, &tier) in stats.iter().zip(plan) {
        let mut err = None;
        let spill = (tier.index()..num_tiers).chain((0..tier.index()).rev());
        for t in spill {
            match engine.load(s.key, s.bytes, TierId(u8::try_from(t).unwrap_or(u8::MAX))) {
                Ok(()) => {
                    err = None;
                    break;
                }
                Err(e @ EngineError::Memory(_)) => err = Some(e),
                Err(e) => return Err(e),
            }
        }
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(())
}

/// Epoch re-planning state of a policy-placed server: the policy, the
/// period, the current epoch's per-key read/write counts, and the
/// seeded migration-failure schedule with its retry policy.
pub(crate) struct EpochPlanner {
    policy: Box<dyn TieringPolicy>,
    /// Re-plan period in requests (positive).
    every: u64,
    /// Full-dataset sizes, for epoch stat assembly.
    sizes: Vec<u64>,
    reads: Vec<u64>,
    writes: Vec<u64>,
    /// Injected migration failures (empty = none).
    faults: MigrationFaults,
    /// Retry policy for a failed move.
    backoff: Backoff,
}

impl EpochPlanner {
    pub(crate) fn new(policy: Box<dyn TieringPolicy>, every: u64, trace: &Trace) -> EpochPlanner {
        let keys = trace.sizes.len();
        EpochPlanner {
            policy,
            every,
            sizes: trace.sizes.clone(),
            reads: vec![0; keys],
            writes: vec![0; keys],
            faults: MigrationFaults::default(),
            backoff: Backoff::default(),
        }
    }

    /// Install the migration-failure schedule and retry policy.
    pub(crate) fn set_faults(&mut self, faults: MigrationFaults, backoff: Backoff) {
        self.faults = faults;
        self.backoff = backoff;
    }

    /// Zero the epoch counters at the start of a run.
    pub(crate) fn reset(&mut self) {
        self.reads.iter_mut().for_each(|c| *c = 0);
        self.writes.iter_mut().for_each(|c| *c = 0);
    }

    /// Whether a re-plan runs before request `seq`.
    pub(crate) fn is_due(&self, seq: usize) -> bool {
        seq > 0 && seq as u64 % self.every == 0
    }

    /// Count one served request and show it to the policy.
    pub(crate) fn observe(&mut self, key: u64, op: Op, seq: usize) {
        let kind = match op {
            Op::Read => {
                self.reads[key as usize] += 1;
                AccessKind::Read
            }
            Op::Update => {
                self.writes[key as usize] += 1;
                AccessKind::Write
            }
        };
        self.policy.on_access(key, kind, seq as u64);
    }

    /// Hand the epoch's stats and the current placement to the policy
    /// and move every key whose desired tier differs from its current
    /// one, accumulating into `acc`. Returns the nanoseconds to charge:
    /// each move's copy cost plus any backoff delay.
    ///
    /// A move the schedule fails is retried with capped-exponential
    /// backoff; its verdicts are drawn at `now_ns` plus the delay so far,
    /// so a failure window can expire mid-backoff. A move that exhausts
    /// its retries falls back (the key stays put) and only the delays
    /// are charged. A move whose target tier is full is skipped rather
    /// than aborting the run: re-planning is best-effort.
    pub(crate) fn replan(
        &mut self,
        engine: &mut dyn KvEngine,
        now_ns: u128,
        acc: &mut MigrationStats,
    ) -> f64 {
        let stats: Vec<KeyStat> = self
            .sizes
            .iter()
            .enumerate()
            .map(|(key, &bytes)| KeyStat {
                key: key as u64,
                bytes,
                reads: self.reads[key],
                writes: self.writes[key],
            })
            .collect();
        self.reset();
        let mem = engine.memory();
        let bottom = TierId(u8::try_from(mem.num_tiers().saturating_sub(1)).unwrap_or(u8::MAX));
        let current: Vec<TierId> = stats
            .iter()
            .map(|s| engine.placement_of(s.key).unwrap_or(bottom))
            .collect();
        let desired = self.policy.on_epoch(&stats, &current, mem.spec());
        let mut ns = 0.0;
        for (key, tier) in desired {
            if engine.placement_of(key) == Some(tier) {
                continue;
            }
            let mut delay = 0.0f64;
            let mut attempt = 0u32;
            let mut gave_up = false;
            while !self.faults.is_empty() && self.faults.fails(now_ns + delay as u128, key, attempt)
            {
                acc.failures += 1;
                if attempt >= self.backoff.max_retries {
                    acc.fallbacks += 1;
                    gave_up = true;
                    break;
                }
                delay += self.backoff.delay_ns(attempt);
                acc.retries += 1;
                attempt += 1;
            }
            acc.retry_ns += delay;
            ns += delay;
            if gave_up {
                continue;
            }
            if let Ok(cost) = engine.migrate(key, tier) {
                acc.moved_keys += 1;
                acc.moved_bytes += self.sizes.get(key as usize).copied().unwrap_or(0);
                ns += cost;
            }
        }
        acc.epochs += 1;
        acc.migration_ns += ns;
        ns
    }
}

/// Whole-trace per-key stats, in key order — the offline knowledge the
/// paper's Pattern Engine extracts from the workload description.
pub fn trace_stats(trace: &Trace) -> Vec<KeyStat> {
    let counts = trace.key_counts();
    trace
        .sizes
        .iter()
        .enumerate()
        .map(|(key, &bytes)| KeyStat {
            key: key as u64,
            bytes,
            reads: counts[key].0,
            writes: counts[key].1,
        })
        .collect()
}

/// Per-epoch future stats windows for the oracle policy: the trace cut
/// every `epoch_requests` requests (one window for the whole trace when
/// zero).
pub fn trace_windows(trace: &Trace, epoch_requests: u64) -> Vec<Vec<KeyStat>> {
    if epoch_requests == 0 {
        return vec![trace_stats(trace)];
    }
    let keys = trace.sizes.len();
    let mut windows = Vec::new();
    for chunk in trace
        .requests
        .chunks(hybridmem::num::usize_from_u64(epoch_requests))
    {
        let mut reads = vec![0u64; keys];
        let mut writes = vec![0u64; keys];
        for r in chunk {
            match r.op {
                Op::Read => reads[r.key as usize] += 1,
                Op::Update => writes[r.key as usize] += 1,
            }
        }
        windows.push(
            trace
                .sizes
                .iter()
                .enumerate()
                .map(|(key, &bytes)| KeyStat {
                    key: key as u64,
                    bytes,
                    reads: reads[key],
                    writes: writes[key],
                })
                .collect(),
        );
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::StoreKind;
    use crate::server::{Placement, Server};
    use hybridmem::clock::NoiseConfig;
    use hybridmem::StackSpec;
    use mnemo_faults::{FaultEvent, FaultPlan};
    use mnemo_tier::{dram_optane_ssd, DecayPolicy, GreedyPolicy, PolicyKind};
    use ycsb::WorkloadSpec;

    fn trace() -> Trace {
        WorkloadSpec::trending().scaled(200, 3_000).generate(42)
    }

    /// A Redis server over `spec`, placed by `policy`, re-planning every
    /// `epoch` requests.
    fn server(spec: StackSpec, policy: Box<dyn TieringPolicy>, t: &Trace, epoch: u64) -> Server {
        Server::build_tiered(
            StoreKind::Redis,
            spec,
            NoiseConfig::disabled(),
            t,
            policy,
            epoch,
        )
        .unwrap()
    }

    fn greedy(t: &Trace) -> Server {
        server(dram_optane_ssd(), Box::new(GreedyPolicy), t, 0)
    }

    #[test]
    fn three_tier_run_is_deterministic_and_accounted() {
        let t = trace();
        let run = |_: u32| greedy(&t).run(&t);
        let a = run(0);
        let b = run(1);
        assert_eq!(a.runtime_ns.to_bits(), b.runtime_ns.to_bits());
        assert_eq!(a.reads + a.writes, t.len() as u64);
        assert_eq!(a.samples.as_ref().map(Vec::len), Some(t.len()));
    }

    /// Plans every key into one tier, whatever its capacity.
    struct AllIn(TierId);

    impl TieringPolicy for AllIn {
        fn name(&self) -> &'static str {
            "all-in"
        }

        fn place(&mut self, stats: &[KeyStat], _: &StackSpec) -> Vec<TierId> {
            vec![self.0; stats.len()]
        }
    }

    #[test]
    fn overfull_plans_spill_down_then_up() {
        let t = trace();
        let stored: u64 = t.sizes.iter().map(|b| b + 64).sum();
        let mut spec = dram_optane_ssd();
        spec.tiers[0].capacity_bytes = stored;
        spec.tiers[1].capacity_bytes = stored / 4;
        spec.tiers[2].capacity_bytes = stored / 4;
        // Everything planned into the middle tier: it fills, the rest
        // spills down into the bottom tier, then back up to the top.
        let s = server(spec.clone(), Box::new(AllIn(TierId(1))), &t, 0);
        let used: Vec<u64> = spec.ids().map(|tier| s.engine().bytes_in(tier)).collect();
        assert_eq!(s.engine().key_count(), t.sizes.len());
        assert_eq!(used.iter().sum::<u64>(), stored);
        for (bytes, tier) in used.iter().zip(&spec.tiers) {
            assert!(*bytes > 0 && *bytes <= tier.capacity_bytes, "{used:?}");
        }
        // A hierarchy that cannot hold the dataset at all fails the build.
        spec.tiers[0].capacity_bytes = stored / 4;
        let err = Server::build_tiered(
            StoreKind::Redis,
            spec,
            NoiseConfig::disabled(),
            &t,
            Box::new(AllIn(TierId(1))),
            0,
        )
        .err()
        .unwrap();
        assert!(matches!(err, EngineError::Memory(_)), "{err}");
    }

    #[test]
    fn every_policy_serves_the_full_trace() {
        let t = trace();
        for kind in PolicyKind::ALL {
            let windows = trace_windows(&t, 500);
            let report = server(dram_optane_ssd(), kind.build(9, &windows), &t, 500).run(&t);
            assert_eq!(report.requests, t.len(), "{kind}");
            assert!(report.runtime_ns > 0.0, "{kind}");
        }
    }

    #[test]
    fn epochs_charge_migrations_into_the_runtime() {
        let t = trace();
        // A tight top tier forces the LRU re-plan to move keys.
        let mut spec = dram_optane_ssd();
        spec.tiers[0].capacity_bytes = t.dataset_bytes() / 6;
        spec.tiers[1].capacity_bytes = t.dataset_bytes() / 3;
        let mut static_server = server(spec.clone(), PolicyKind::Lru.build(0, &[]), &t, 0);
        let static_run = static_server.run(&t);
        assert_eq!(static_server.migration_stats(), Default::default());
        let mut moving = server(spec, PolicyKind::Lru.build(0, &[]), &t, 250);
        let moved = moving.run(&t);
        let stats = moving.migration_stats();
        assert!(stats.epochs > 0);
        assert!(stats.moved_keys > 0, "LRU must move something: {stats:?}");
        assert!(
            moved.runtime_ns > static_run.runtime_ns,
            "migration cost is part of the measured runtime"
        );
        assert!(stats.migration_ns > 0.0);
    }

    #[test]
    fn telemetry_counts_tier_hits_by_name() {
        let t = trace();
        let (report, snaps) = greedy(&t).run_telemetered(&t, 0);
        let sum = |name: &str| snaps.iter().map(|s| s.counter(name)).sum::<u64>();
        assert_eq!(sum("kv.requests"), t.len() as u64);
        let tier_hits: u64 = ["dram", "optane", "ssd"]
            .iter()
            .map(|n| sum(&format!("kv.tier.{n}.hits")))
            .sum();
        assert_eq!(tier_hits, t.len() as u64);
        // Telemetry must be a pure observer.
        let clean = greedy(&t).run(&t);
        assert_eq!(report.runtime_ns.to_bits(), clean.runtime_ns.to_bits());
    }

    #[test]
    fn fault_plans_degrade_named_tiers() {
        use mnemo_faults::TierNames;
        let t = trace();
        let clean = greedy(&t).run(&t);
        let names = TierNames::from_names(&["dram", "optane", "ssd"]);
        let plan_text = r#"
seed = 1

[[event]]
kind = "latency_spike"
tier = "dram"
start_ns = 0
end_ns = 340282366920938463463374607431768211455
factor = 40.0

[[event]]
kind = "bandwidth_throttle"
tier = "dram"
start_ns = 0
end_ns = 340282366920938463463374607431768211455
factor = 0.025
"#;
        let plan = FaultPlan::parse_toml_with(plan_text, &names).unwrap();
        let mut server = greedy(&t);
        server.install_fault_plan(&plan);
        let faulted = server.run(&t);
        assert!(
            faulted.runtime_ns > clean.runtime_ns * 1.01,
            "faulted {} vs clean {}",
            faulted.runtime_ns,
            clean.runtime_ns
        );
        // Clearing restores nominal timing exactly.
        server.set_degradation(None);
        server.set_crash_schedule(Vec::new());
        let restored = server.run(&t);
        assert_eq!(restored.runtime_ns.to_bits(), clean.runtime_ns.to_bits());
    }

    // ------------------------------------------- the migrating tierer --

    fn budget_for(t: &Trace) -> u64 {
        t.dataset_bytes() / 5
    }

    /// Paper-proportioned testbed (the full 12 MB LLC would cache these
    /// reduced-scale datasets outright and mask placement effects).
    fn scaled_spec(t: &Trace) -> StackSpec {
        let mut spec = StackSpec::paper_testbed();
        spec.cache.capacity_bytes = (t.dataset_bytes() / 85).max(1 << 16);
        spec
    }

    /// A Redis server on `spec` tiered by [`DecayPolicy`] at a 20%
    /// FastMem budget, re-planning every `epoch` requests.
    fn decay(spec: StackSpec, t: &Trace, epoch: u64) -> Server {
        let policy = Box::new(DecayPolicy::new(budget_for(t)));
        server(spec, policy, t, epoch)
    }

    /// A server stuck with the hottest keys by full-trace counts, at the
    /// same budget: static placement with perfect hindsight.
    fn hindsight_static(t: &Trace) -> crate::RunReport {
        let counts = t.key_counts();
        let mut order: Vec<u64> = (0..t.keys()).collect();
        order.sort_by_key(|&k| std::cmp::Reverse(counts[k as usize].0 + counts[k as usize].1));
        let mut used = 0u64;
        let fast: hybridmem::DetHashSet<u64> = order
            .iter()
            .copied()
            .take_while(|&k| {
                used += t.sizes[k as usize];
                used <= budget_for(t)
            })
            .collect();
        Server::build_with(
            StoreKind::Redis,
            scaled_spec(t),
            NoiseConfig::disabled(),
            t,
            Placement::FastSet(fast),
        )
        .unwrap()
        .run(t)
    }

    fn always_failing(seed: u64, probability: f64) -> FaultPlan {
        FaultPlan::new(seed).with(FaultEvent::MigrationFailure {
            start_ns: 0,
            end_ns: u128::MAX,
            probability,
        })
    }

    #[test]
    fn decay_respects_budget() {
        let t = WorkloadSpec::trending().scaled(200, 4_000).generate(3);
        let mut s = decay(StackSpec::paper_testbed(), &t, 1_000);
        let _ = s.run(&t);
        // Engine-side overhead makes bytes slightly exceed the logical
        // budget; allow the header slack.
        let fast = s.engine().bytes_in(TierId::FAST);
        assert!(
            fast <= budget_for(&t) + 64 * t.keys(),
            "fast bytes {fast} exceed budget {}",
            budget_for(&t)
        );
        assert!(s.migration_stats().moved_keys > 0);
    }

    #[test]
    fn decay_beats_static_on_sliding_patterns() {
        // News feed: the hot window slides, so a static placement (even a
        // clairvoyant one from full-trace counts) decays, while the
        // migrating tierer follows the window.
        let t = WorkloadSpec::news_feed().scaled(300, 12_000).generate(7);
        let moving = decay(scaled_spec(&t), &t, 500).run(&t);
        let fixed = hindsight_static(&t);
        assert!(
            moving.throughput_ops_s() > fixed.throughput_ops_s(),
            "decay {} must beat static {} on news feed",
            moving.throughput_ops_s(),
            fixed.throughput_ops_s()
        );
    }

    #[test]
    fn static_suffices_on_stable_patterns() {
        // Trending: the hot set never moves; static placement (Mnemo's
        // product) matches or beats the migrating tierer, which pays
        // migration traffic for nothing.
        let t = WorkloadSpec::trending().scaled(300, 12_000).generate(7);
        let moving = decay(scaled_spec(&t), &t, 500).run(&t);
        let fixed = hindsight_static(&t);
        assert!(
            fixed.throughput_ops_s() >= moving.throughput_ops_s() * 0.98,
            "static {} should match decay {} on trending",
            fixed.throughput_ops_s(),
            moving.throughput_ops_s()
        );
    }

    #[test]
    fn decay_migration_costs_are_charged() {
        let t = WorkloadSpec::timeline().scaled(200, 6_000).generate(2);
        let mut s = decay(StackSpec::paper_testbed(), &t, 200);
        let report = s.run(&t);
        assert!(s.migration_stats().migration_ns > 0.0);
        // Runtime includes migration time on top of request service time.
        let service: f64 = report.samples.iter().flatten().map(|r| r.service_ns).sum();
        assert!(
            report.runtime_ns > service,
            "migration must inflate runtime"
        );
    }

    #[test]
    fn copy_cost_matches_the_closed_form() {
        // One epoch, nothing faulted or degraded: every charged
        // nanosecond is a promotion's copy, slow read + fast write of the
        // key's stored bytes, priced straight from the tier specs.
        let t = WorkloadSpec::timeline().scaled(200, 2_000).generate(2);
        let spec = StackSpec::paper_testbed();
        let (fast, slow) = (spec.tiers[0].spec, spec.tiers[1].spec);
        let mut s = decay(spec, &t, 1_000);
        s.run(&t);
        let stats = s.migration_stats();
        assert_eq!(stats.epochs, 1);
        let mut promoted = 0u64;
        let mut expect = 0.0;
        for key in 0..t.keys() {
            if s.engine().placement_of(key) != Some(TierId::FAST) {
                continue;
            }
            let (id, _) = s.engine().core().lookup(key).unwrap();
            let stored = s.engine().memory().placement(id).unwrap().bytes;
            assert!(stored > t.sizes[key as usize], "copies move stored bytes");
            promoted += 1;
            expect += slow.access_ns(hybridmem::AccessKind::Read, stored)
                + fast.access_ns(hybridmem::AccessKind::Write, stored);
        }
        assert!(promoted > 0);
        assert_eq!(stats.moved_keys, promoted);
        let rel = (stats.migration_ns - expect).abs() / expect;
        assert!(
            rel < 1e-9,
            "charged {} vs closed form {expect}",
            stats.migration_ns
        );
    }

    #[test]
    fn telemetered_decay_run_records_migration_events() {
        let t = WorkloadSpec::timeline().scaled(200, 6_000).generate(2);
        let mut s = decay(StackSpec::paper_testbed(), &t, 200);
        let (report, snaps) = s.run_telemetered(&t, 1_000);
        let stats = s.migration_stats();
        let sum = |name: &str| snaps.iter().map(|s| s.counter(name)).sum::<u64>();
        assert_eq!(sum("kv.requests"), report.requests as u64);
        assert_eq!(sum("kv.tier.moved_keys"), stats.moved_keys);
        assert_eq!(sum("kv.tier.epochs"), stats.epochs);
        let cost: f64 = snaps
            .iter()
            .filter_map(|s| s.gauge("kv.tier.migration_ns"))
            .map(|g| g.sum)
            .sum();
        assert!((cost - stats.migration_ns).abs() < 1e-6 * stats.migration_ns.max(1.0));
        assert!(stats.epochs > 0 && stats.moved_keys > 0);
    }

    #[test]
    fn injected_migration_failures_fall_back_gracefully() {
        let t = WorkloadSpec::timeline().scaled(200, 6_000).generate(2);
        let mut s = decay(StackSpec::paper_testbed(), &t, 200);
        s.install_fault_plan(&always_failing(9, 1.0));
        let report = s.run(&t);
        let stats = s.migration_stats();
        assert_eq!(stats.moved_keys, 0, "every migration is injected to fail");
        assert!(stats.fallbacks > 0, "abandoned migrations must be counted");
        let cap = u64::from(mnemo_faults::Backoff::default().max_retries);
        assert_eq!(
            stats.retries,
            stats.fallbacks * cap,
            "retry count is bounded by the backoff cap"
        );
        assert_eq!(stats.failures, stats.fallbacks * (cap + 1));
        assert!(stats.retry_ns > 0.0, "backoff delays are charged");
        assert_eq!(stats.migration_ns, stats.retry_ns, "nothing was copied");
        assert_eq!(
            s.engine().bytes_in(TierId::FAST),
            0,
            "keys gracefully stay in SlowMem"
        );
        let service: f64 = report.samples.iter().flatten().map(|r| r.service_ns).sum();
        assert!(
            report.runtime_ns > service + stats.retry_ns * 0.99,
            "retry delays inflate the measured runtime"
        );
    }

    #[test]
    fn faulted_decay_runs_are_deterministic_and_counted() {
        let t = WorkloadSpec::timeline().scaled(200, 6_000).generate(2);
        let plan = always_failing(7, 0.5);
        let run = || {
            let mut s = decay(StackSpec::paper_testbed(), &t, 200);
            s.install_fault_plan(&plan);
            let out = s.run_telemetered(&t, 0);
            (out, s.migration_stats())
        };
        let ((r1, snaps), s1) = run();
        let ((r2, _), s2) = run();
        assert_eq!(r1.runtime_ns.to_bits(), r2.runtime_ns.to_bits());
        assert_eq!(s1, s2, "seeded injection must be reproducible");
        assert!(s1.retries > 0, "p=0.5 must fail some attempts");
        assert!(s1.moved_keys > 0, "p=0.5 must let some retries through");
        let sum = |name: &str| snaps.iter().map(|s| s.counter(name)).sum::<u64>();
        assert_eq!(sum("kv.tier.retries"), s1.retries);
        assert_eq!(sum("kv.fault.migration_failures"), s1.failures);
        assert_eq!(sum("kv.tier.fallbacks"), s1.fallbacks);
        let retry_ns: f64 = snaps
            .iter()
            .filter_map(|s| s.gauge("kv.tier.retry_ns"))
            .map(|g| g.sum)
            .sum();
        assert!((retry_ns - s1.retry_ns).abs() < 1e-6 * s1.retry_ns.max(1.0));
    }
}
