//! N-tier estimation and shared-capacity planning — the Estimate and
//! Placement Engines generalised past two tiers.
//!
//! The paper's Estimate Engine predicts two-tier runtimes from two
//! baseline runs. For N-tier hierarchies the same linear per-op cost
//! structure holds tier by tier, so this module computes the expected
//! service cost of every (key, tier) pair **analytically** from the
//! hierarchy's Table-I-style device parameters and the engine's cost
//! profile — the exact arithmetic the Redis-like engine charges per
//! request, summed in expectation. On a cache-less hierarchy the
//! estimate matches a measured [`kvsim::Server`] run to float
//! rounding; with an LLC configured it is a consistent upper bound (the
//! cache only removes value traffic), which preserves the ranking the
//! curves and planners need.
//!
//! Three artifacts:
//!
//! * [`NTierEstimator`] — expected runtime of a full assignment.
//! * [`capacity_sweep`] — the N-tier [`EstimateCurve`](crate::curve)
//!   analog: sweep the top tier's capacity, greedy-place, and report
//!   runtime / hierarchy cost / cost-efficiency per point.
//! * [`plan_shared_stack`] —
//!   [`multi::allocate_shared`](crate::multi::allocate_shared) lifted
//!   to N tiers: fill every tier of a shared hierarchy across tenants
//!   by global hotness density.

use hybridmem::stack::StackSpec;
use hybridmem::{AccessKind, TierId};
use kvsim::{EngineProfile, StoreKind};
use mnemo_tier::{GreedyPolicy, KeyStat, TieringPolicy};
use serde::Serialize;

/// Value-header overhead of the Redis-like engines; keys occupy
/// `bytes + VALUE_HEADER_BYTES` of device capacity.
const VALUE_HEADER_BYTES: u64 = 64;

/// Analytic expected-runtime model of a policy-placed [`kvsim::Server`]
/// run ([`kvsim::Server::build_tiered`]): per-key, per-tier op costs
/// from the device parameters and the store profile, with the dict
/// chain-length factor of the loaded key count.
pub struct NTierEstimator {
    spec: StackSpec,
    profile: EngineProfile,
    chain_scale: f64,
}

impl NTierEstimator {
    /// Build for `store` serving `key_count` loaded keys on `spec`.
    pub fn new(spec: StackSpec, store: StoreKind, key_count: usize) -> NTierEstimator {
        // The dict table doubles from 4 until it holds every key, and no
        // keys are inserted or deleted during a measured run, so the
        // chain-length multiplier is a run constant.
        let mut table_size = 4u64;
        while key_count as u64 > table_size {
            table_size *= 2;
        }
        let load_factor = key_count as f64 / table_size as f64;
        NTierEstimator {
            spec,
            profile: store.profile(),
            chain_scale: 1.0 + load_factor / 2.0,
        }
    }

    /// The hierarchy this estimator prices against.
    pub fn spec(&self) -> &StackSpec {
        &self.spec
    }

    /// Expected service nanoseconds of one op on a key of `bytes`
    /// living in `tier` — the same charge arithmetic as the tiered
    /// engine: fixed cost, chain-scaled index walk, value traffic, and
    /// amplification passes.
    pub fn op_ns(&self, tier: TierId, bytes: u64, kind: AccessKind) -> f64 {
        let Some(def) = self.spec.tier(tier) else {
            return f64::INFINITY;
        };
        let touch = def
            .spec
            .access_ns(AccessKind::Read, self.profile.touch_bytes);
        let mut index_ns = 0.0;
        for _ in 0..self.profile.index_touches {
            index_ns += touch;
        }
        let amp = match kind {
            AccessKind::Read => self.profile.read_amplification,
            AccessKind::Write => self.profile.write_amplification,
        };
        let stored = (bytes + VALUE_HEADER_BYTES).max(1);
        let mut value_ns = def.spec.access_ns(kind, stored);
        if amp > 1.0 {
            value_ns += (amp - 1.0) * def.spec.access_ns(kind, bytes);
        }
        self.profile.fixed_op_ns + index_ns * self.chain_scale + value_ns
    }

    /// Expected total runtime of serving `stats` (whole-trace per-key
    /// counts) under `assignment` (aligned with `stats`).
    pub fn runtime_ns(&self, stats: &[KeyStat], assignment: &[TierId]) -> f64 {
        let mut total = 0.0;
        for (s, &tier) in stats.iter().zip(assignment.iter()) {
            total += s.reads as f64 * self.op_ns(tier, s.bytes, AccessKind::Read);
            total += s.writes as f64 * self.op_ns(tier, s.bytes, AccessKind::Write);
        }
        total
    }
}

/// One point of an N-tier capacity sweep.
#[derive(Debug, Clone, Serialize)]
pub struct NTierRow {
    /// Configured top-tier capacity at this point (bytes).
    pub top_capacity_bytes: u64,
    /// Stored bytes the greedy placement put in each tier, top first.
    pub tier_bytes: Vec<u64>,
    /// Estimated runtime of the whole trace (ns).
    pub est_runtime_ns: f64,
    /// Dollar cost of the configured hierarchy.
    pub cost_usd: f64,
    /// Estimated throughput per dollar (ops/s/$) — the paper's memory
    /// cost-efficiency metric, lifted to N tiers.
    pub cost_efficiency: f64,
}

/// Sweep the top tier's capacity from zero to the full stored dataset
/// in `points` equal steps (inclusive), greedy-placing at each point.
/// Lower tiers keep their configured capacities and prices, so each row
/// prices the hierarchy an operator would actually buy. Runtime is
/// non-increasing and cost non-decreasing along the sweep; the
/// cost-efficiency column exposes the knee.
pub fn capacity_sweep(
    base: &StackSpec,
    stats: &[KeyStat],
    store: StoreKind,
    points: usize,
) -> Vec<NTierRow> {
    let stored_total: u64 = stats
        .iter()
        .map(|s| (s.bytes + VALUE_HEADER_BYTES).max(1))
        .sum();
    let requests: u64 = stats.iter().map(|s| s.reads + s.writes).sum();
    let points = points.max(1);
    let mut rows = Vec::with_capacity(points + 1);
    for i in 0..=points {
        let mut spec = base.clone();
        // A zero-capacity tier is invalid; one byte holds nothing.
        spec.tiers[0].capacity_bytes = (stored_total * i as u64 / points as u64).max(1);
        let assignment = GreedyPolicy.place(stats, &spec);
        let estimator = NTierEstimator::new(spec.clone(), store, stats.len());
        let est_runtime_ns = estimator.runtime_ns(stats, &assignment);
        let mut tier_bytes = vec![0u64; spec.tiers.len()];
        for (s, tier) in stats.iter().zip(assignment.iter()) {
            tier_bytes[tier.index()] += (s.bytes + VALUE_HEADER_BYTES).max(1);
        }
        let cost_usd = spec.cost_usd();
        let est_throughput = if est_runtime_ns > 0.0 {
            requests as f64 / (est_runtime_ns / 1e9)
        } else {
            0.0
        };
        rows.push(NTierRow {
            top_capacity_bytes: spec.tiers[0].capacity_bytes,
            tier_bytes,
            est_runtime_ns,
            cost_usd,
            cost_efficiency: if cost_usd > 0.0 {
                est_throughput / cost_usd
            } else {
                0.0
            },
        });
    }
    rows
}

/// CSV form of a capacity sweep (header + one row per point).
pub fn sweep_to_csv(rows: &[NTierRow]) -> String {
    let mut out = String::from("top_capacity_bytes,est_runtime_ns,cost_usd,cost_efficiency\n");
    for r in rows {
        out.push_str(&format!(
            "{},{:.3},{:.6},{:.6}\n",
            r.top_capacity_bytes, r.est_runtime_ns, r.cost_usd, r.cost_efficiency
        ));
    }
    out
}

/// One tenant's workload for shared-hierarchy planning.
pub struct TenantWorkload {
    /// Whole-trace per-key stats (key ids are tenant-local).
    pub stats: Vec<KeyStat>,
    /// The tenant's store engine (sets its cost profile).
    pub store: StoreKind,
}

/// Per-tenant outcome of a shared N-tier plan.
#[derive(Debug, Clone, Serialize)]
pub struct TenantStackGrant {
    /// Tenant index (order of the input slice).
    pub tenant: usize,
    /// Stored bytes granted in each tier, top first.
    pub tier_bytes: Vec<u64>,
    /// Estimated runtime under the granted placement (ns).
    pub est_runtime_ns: f64,
    /// Estimated slowdown vs this tenant running entirely in the top
    /// tier (0 = at top-tier speed).
    pub est_slowdown: f64,
}

/// Result of [`plan_shared_stack`].
#[derive(Debug, Clone, Serialize)]
pub struct SharedStackPlan {
    /// Per-tenant grants, in input order.
    pub tenants: Vec<TenantStackGrant>,
    /// Stored bytes used of each tier, top first.
    pub used_bytes: Vec<u64>,
    /// Per-tier capacities offered, top first.
    pub capacity_bytes: Vec<u64>,
}

impl SharedStackPlan {
    /// The worst per-tenant estimated slowdown — the fleet SLO metric.
    pub fn worst_slowdown(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.est_slowdown)
            .fold(0.0, f64::max)
    }
}

/// Fill every tier of one shared hierarchy across tenants by global
/// hotness density (`accesses / bytes`, the MnemoT weight), top tier
/// first with skip-but-continue packing — the within-workload greedy of
/// the paper lifted across workloads *and* across tiers. Keys that fit
/// in no upper tier land in the bottom tier, which the plan treats as
/// uncapacitated swap (its used column may exceed its capacity; the
/// caller decides whether that is acceptable).
pub fn plan_shared_stack(tenants: &[TenantWorkload], spec: &StackSpec) -> SharedStackPlan {
    struct Cand {
        tenant: usize,
        key_index: usize,
        stored: u64,
        weight: f64,
    }
    let mut candidates = Vec::new();
    for (tenant, w) in tenants.iter().enumerate() {
        for (key_index, s) in w.stats.iter().enumerate() {
            candidates.push(Cand {
                tenant,
                key_index,
                stored: (s.bytes + VALUE_HEADER_BYTES).max(1),
                weight: s.accesses() as f64 / s.bytes.max(1) as f64,
            });
        }
    }
    candidates.sort_by(|a, b| {
        b.weight
            .total_cmp(&a.weight)
            .then(a.tenant.cmp(&b.tenant))
            .then(a.key_index.cmp(&b.key_index))
    });

    let num_tiers = spec.tiers.len();
    let bottom = num_tiers - 1;
    let mut used = vec![0u64; num_tiers];
    // assignment[tenant][key_index] = tier index.
    let mut assignment: Vec<Vec<usize>> = tenants
        .iter()
        .map(|w| vec![bottom; w.stats.len()])
        .collect();
    let mut grant_bytes: Vec<Vec<u64>> = tenants.iter().map(|_| vec![0u64; num_tiers]).collect();
    for cand in &candidates {
        let mut placed = bottom;
        for (t, def) in spec.tiers.iter().enumerate().take(bottom) {
            if used[t] + cand.stored <= def.capacity_bytes {
                placed = t;
                break;
            }
        }
        used[placed] += cand.stored;
        assignment[cand.tenant][cand.key_index] = placed;
        grant_bytes[cand.tenant][placed] += cand.stored;
    }

    let grants = tenants
        .iter()
        .enumerate()
        .map(|(tenant, w)| {
            let estimator = NTierEstimator::new(spec.clone(), w.store, w.stats.len());
            let tiers: Vec<TierId> = assignment[tenant]
                .iter()
                .map(|&t| TierId(u8::try_from(t).unwrap_or(u8::MAX)))
                .collect();
            let est_runtime_ns = estimator.runtime_ns(&w.stats, &tiers);
            let top = vec![TierId(0); w.stats.len()];
            let top_ns = estimator.runtime_ns(&w.stats, &top);
            let est_slowdown = if est_runtime_ns > 0.0 {
                ((est_runtime_ns - top_ns) / est_runtime_ns).max(0.0)
            } else {
                0.0
            };
            TenantStackGrant {
                tenant,
                tier_bytes: std::mem::take(&mut grant_bytes[tenant]),
                est_runtime_ns,
                est_slowdown,
            }
        })
        .collect();
    SharedStackPlan {
        tenants: grants,
        used_bytes: used,
        capacity_bytes: spec.tiers.iter().map(|t| t.capacity_bytes).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem::clock::NoiseConfig;
    use hybridmem::CacheConfig;
    use kvsim::tiered::trace_stats;
    use kvsim::Server;
    use mnemo_tier::dram_optane_ssd;
    use ycsb::WorkloadSpec;

    fn trace() -> ycsb::Trace {
        WorkloadSpec::trending().scaled(150, 2_000).generate(11)
    }

    #[test]
    fn estimate_matches_a_cacheless_measured_run() {
        let t = trace();
        let stats = trace_stats(&t);
        let mut spec = dram_optane_ssd();
        spec.cache = CacheConfig::disabled();
        // Force keys across all three tiers.
        let stored: u64 = stats.iter().map(|s| s.bytes + VALUE_HEADER_BYTES).sum();
        spec.tiers[0].capacity_bytes = stored / 4;
        spec.tiers[1].capacity_bytes = stored / 3;
        let assignment = GreedyPolicy.place(&stats, &spec);
        let estimator = NTierEstimator::new(spec.clone(), StoreKind::Redis, stats.len());
        let est = estimator.runtime_ns(&stats, &assignment);

        let mut server = Server::build_tiered(
            StoreKind::Redis,
            spec,
            NoiseConfig::disabled(),
            &t,
            Box::new(GreedyPolicy),
            0,
        )
        .unwrap();
        let report = server.run(&t);
        // The run clock quantizes each request to whole nanoseconds, so
        // compare against the un-quantized per-request service times.
        let measured: f64 = report.samples.iter().map(|s| s.service_ns).sum();
        let rel = (est - measured).abs() / measured;
        assert!(rel < 1e-9, "est {est} vs measured {measured} (rel {rel})");
        let wall = report.runtime_ns;
        assert!((est - wall).abs() / wall < 1e-5, "clock-rounded {wall}");
    }

    #[test]
    fn faster_tiers_cost_fewer_nanoseconds() {
        let t = trace();
        let stats = trace_stats(&t);
        let spec = dram_optane_ssd();
        let estimator = NTierEstimator::new(spec.clone(), StoreKind::Redis, stats.len());
        for s in stats.iter().take(10) {
            for kind in [AccessKind::Read, AccessKind::Write] {
                let top = estimator.op_ns(TierId(0), s.bytes, kind);
                let mid = estimator.op_ns(TierId(1), s.bytes, kind);
                let bot = estimator.op_ns(TierId(2), s.bytes, kind);
                assert!(top < mid && mid < bot, "{top} {mid} {bot}");
            }
        }
        let all = |tier: TierId| {
            let a = vec![tier; stats.len()];
            estimator.runtime_ns(&stats, &a)
        };
        assert!(all(TierId(0)) < all(TierId(1)));
        assert!(all(TierId(1)) < all(TierId(2)));
    }

    #[test]
    fn capacity_sweep_is_monotone_and_brackets_the_extremes() {
        let t = trace();
        let stats = trace_stats(&t);
        let rows = capacity_sweep(&dram_optane_ssd(), &stats, StoreKind::Redis, 8);
        assert_eq!(rows.len(), 9);
        for pair in rows.windows(2) {
            assert!(pair[1].est_runtime_ns <= pair[0].est_runtime_ns + 1e-6);
            assert!(pair[1].cost_usd >= pair[0].cost_usd);
        }
        // Final point: everything fits in the top tier.
        let last = rows.last().unwrap();
        assert_eq!(last.tier_bytes[1], 0);
        assert_eq!(last.tier_bytes[2], 0);
        let csv = sweep_to_csv(&rows);
        assert!(csv.starts_with("top_capacity_bytes,"));
        assert_eq!(csv.lines().count(), 10);
    }

    #[test]
    fn shared_plan_respects_upper_tier_capacities() {
        let t = trace();
        let tenants = vec![
            TenantWorkload {
                stats: trace_stats(&t),
                store: StoreKind::Dynamo,
            },
            TenantWorkload {
                stats: trace_stats(&t),
                store: StoreKind::Memcached,
            },
        ];
        let mut spec = dram_optane_ssd();
        let stored: u64 = tenants
            .iter()
            .flat_map(|w| w.stats.iter())
            .map(|s| s.bytes + VALUE_HEADER_BYTES)
            .sum();
        spec.tiers[0].capacity_bytes = stored / 5;
        spec.tiers[1].capacity_bytes = stored / 4;
        let plan = plan_shared_stack(&tenants, &spec);
        for t in 0..2 {
            assert!(
                plan.used_bytes[t] <= plan.capacity_bytes[t],
                "tier {t}: {} > {}",
                plan.used_bytes[t],
                plan.capacity_bytes[t]
            );
        }
        let granted: u64 = plan.tenants.iter().map(|g| g.tier_bytes[0]).sum();
        assert_eq!(granted, plan.used_bytes[0]);
        assert!(plan.worst_slowdown() >= 0.0);
        // Deterministic across calls.
        let again = plan_shared_stack(&tenants, &spec);
        assert_eq!(
            plan.tenants[0].est_runtime_ns.to_bits(),
            again.tenants[0].est_runtime_ns.to_bits()
        );
    }

    #[test]
    fn hot_small_keys_win_the_top_tier_across_tenants() {
        // Tenant 0: hot small keys. Tenant 1: cold large keys.
        let hot: Vec<KeyStat> = (0..20)
            .map(|k| KeyStat {
                key: k,
                bytes: 256,
                reads: 1_000,
                writes: 100,
            })
            .collect();
        let cold: Vec<KeyStat> = (0..20)
            .map(|k| KeyStat {
                key: k,
                bytes: 64 << 10,
                reads: 3,
                writes: 1,
            })
            .collect();
        let tenants = vec![
            TenantWorkload {
                stats: hot,
                store: StoreKind::Redis,
            },
            TenantWorkload {
                stats: cold,
                store: StoreKind::Redis,
            },
        ];
        let mut spec = dram_optane_ssd();
        // Top tier fits the hot set with room to spare but not the cold set.
        spec.tiers[0].capacity_bytes = 64 << 10;
        let plan = plan_shared_stack(&tenants, &spec);
        assert!(plan.tenants[0].tier_bytes[0] > 0, "hot tenant got no DRAM");
        assert_eq!(
            plan.tenants[1].tier_bytes[0], 0,
            "cold tenant should get no DRAM"
        );
        assert!(plan.tenants[0].est_slowdown <= plan.tenants[1].est_slowdown);
    }
}
