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
use hybridmem::{AccessKind, TierId};
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
/// period, and the current epoch's per-key read/write counts.
pub(crate) struct EpochPlanner {
    policy: Box<dyn TieringPolicy>,
    /// Re-plan period in requests (positive).
    every: u64,
    /// Full-dataset sizes, for epoch stat assembly.
    sizes: Vec<u64>,
    reads: Vec<u64>,
    writes: Vec<u64>,
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
        }
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

    /// Hand the epoch's stats to the policy and move every key whose
    /// desired tier differs from its current one. Returns the keys and
    /// logical bytes moved and the summed copy cost. A failed move
    /// (target tier full) skips the key rather than aborting the run:
    /// re-planning is best-effort.
    pub(crate) fn replan(&mut self, engine: &mut dyn KvEngine) -> (u64, u64, f64) {
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
        let desired = self.policy.on_epoch(&stats, engine.memory().spec());
        let mut moved_keys = 0u64;
        let mut moved_bytes = 0u64;
        let mut ns = 0.0;
        for (key, tier) in desired {
            if engine.placement_of(key) == Some(tier) {
                continue;
            }
            if let Ok(cost) = engine.migrate(key, tier) {
                moved_keys += 1;
                moved_bytes += self.sizes.get(key as usize).copied().unwrap_or(0);
                ns += cost;
            }
        }
        (moved_keys, moved_bytes, ns)
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
    use crate::server::Server;
    use hybridmem::clock::NoiseConfig;
    use hybridmem::StackSpec;
    use mnemo_faults::FaultPlan;
    use mnemo_tier::{dram_optane_ssd, GreedyPolicy, PolicyKind};
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
        assert_eq!(a.samples.len(), t.len());
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
}
