//! Multi-tenant FastMem allocation — an extension for consolidated
//! deployments.
//!
//! The paper sizes one workload at a time; real cache fleets consolidate
//! several key-value workloads onto one hybrid-memory box, sharing a
//! single FastMem budget. Given each tenant's consultation (its fitted
//! model and per-key promotion deltas), the allocator fills the shared
//! budget greedily by *benefit density* (estimated nanoseconds saved per
//! FastMem byte) across the union of all tenants' keys — the same
//! density rule MnemoT applies within one workload, lifted across
//! workloads through the same fill (`mnemo_tier::density`).

use crate::advisor::Consultation;
use crate::estimate::EstimateEngine;
use crate::model::PerfModel;
use crate::pattern::{KeyStats, PatternEngine};
use cloudcost::CostModel;
use mnemo_tier::density;

/// Per-tenant outcome of a shared allocation.
#[derive(Debug, Clone)]
pub struct TenantAllocation {
    /// Tenant index (order of the input slice).
    pub tenant: usize,
    /// Keys of this tenant promoted to FastMem.
    pub keys: Vec<u64>,
    /// FastMem bytes granted.
    pub fast_bytes: u64,
    /// Estimated runtime with this allocation (ns).
    pub est_runtime_ns: f64,
    /// Estimated slowdown vs this tenant running all-FastMem.
    pub est_slowdown: f64,
}

/// Result of a shared-budget allocation.
#[derive(Debug, Clone)]
pub struct SharedAllocation {
    /// Per-tenant grants, in input order.
    pub tenants: Vec<TenantAllocation>,
    /// FastMem bytes used of the budget.
    pub used_bytes: u64,
    /// The budget that was offered.
    pub budget_bytes: u64,
}

impl SharedAllocation {
    /// The worst per-tenant estimated slowdown — the fleet's SLO metric.
    pub fn worst_slowdown(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.est_slowdown)
            .fold(0.0, f64::max)
    }
}

/// The allocator's per-tenant inputs: a fitted performance model plus
/// the tenant's profiled access pattern. This is the cheap subset of a
/// full [`Consultation`] — no key ordering, no estimate curve — so
/// high-frequency callers (the serve daemon re-plans every few ticks)
/// can build one per tenant without paying the curve construction. The
/// pattern is borrowed, so a demand never copies per-key statistics.
#[derive(Debug, Clone)]
pub struct TenantDemand<'a> {
    /// The tenant's fitted performance model.
    pub model: PerfModel,
    /// The tenant's profiled access pattern.
    pub pattern: &'a PatternEngine,
}

impl TenantDemand<'_> {
    /// The demand a full consultation implies.
    pub fn from_consultation(c: &Consultation) -> TenantDemand<'_> {
        TenantDemand {
            model: c.model.clone(),
            pattern: &c.pattern,
        }
    }
}

/// Allocate a shared FastMem `budget_bytes` across tenants by benefit
/// density. Each consultation supplies the per-key promotion deltas of
/// its own fitted model (including any cache-aware correction it was
/// configured with).
pub fn allocate_shared(consultations: &[Consultation], budget_bytes: u64) -> SharedAllocation {
    let demands: Vec<TenantDemand> = consultations
        .iter()
        .map(TenantDemand::from_consultation)
        .collect();
    allocate_demands(&demands, budget_bytes)
}

/// [`allocate_shared`] from bare demand summaries. The all-SlowMem
/// runtime each slowdown is judged against is the model's own endpoint
/// (`fast_total + Σ deltas`), bit-identical to the estimate curve's
/// all-slow row, so the two entry points produce the same allocation.
pub fn allocate_demands(demands: &[TenantDemand], budget_bytes: u64) -> SharedAllocation {
    // Rebuild each tenant's engine to get its deltas (price factor does
    // not matter for deltas; use the default model). Tenants are
    // independent, so the delta evaluations run as coarse jobs on the
    // bounded pool; gathering stays in tenant order, keeping the
    // knapsack-style fill deterministic.
    let per_tenant: Vec<(f64, Vec<f64>)> =
        // mnemo-lint: allow(D007, "the reachable sum is predict's fixed coefficient dot product, fully inside each tenant job")
        mnemo_par::Pool::current().run_jobs(demands.len(), |tenant| {
            let d = &demands[tenant];
            let engine = EstimateEngine::new(d.model.clone(), CostModel::default());
            engine.key_deltas(d.pattern)
        });
    let stats: Vec<&[KeyStats]> = demands.iter().map(|d| d.pattern.stats()).collect();
    allocate_by_density(&per_tenant, &stats, budget_bytes)
}

/// The density fill behind [`allocate_demands`]: tenant `t` has the
/// all-FastMem runtime `per_tenant[t].0`, promotion delta
/// `per_tenant[t].1[k]` and record size `stats[t][k].bytes` for key `k`.
/// Keys with a positive delta and a positive size are granted in
/// descending density (`delta / bytes`), ties broken by tenant, then
/// key, while they fit the budget: [`density::fill`] with one group per
/// tenant, whose value sums are the runtime each grant saves.
fn allocate_by_density(
    per_tenant: &[(f64, Vec<f64>)],
    stats: &[&[KeyStats]],
    budget_bytes: u64,
) -> SharedAllocation {
    let groups = per_tenant.iter().zip(stats).map(|((_, deltas), stats)| {
        deltas
            .iter()
            .zip(stats.iter())
            .map(|(&delta, s)| (delta > 0.0 && s.bytes > 0).then_some((delta, s.bytes)))
    });
    let grants = density::fill(groups, budget_bytes);
    let used_bytes = grants.iter().map(|g| g.bytes).sum();
    let tenants = per_tenant
        .iter()
        .zip(grants)
        .enumerate()
        .map(|(tenant, ((fast, deltas), grant))| {
            // Runtime = all-slow estimate minus what the grant saves.
            let est_runtime_ns = fast + deltas.iter().sum::<f64>() - grant.value;
            let est_slowdown = if *fast > 0.0 {
                // Throughput ratio via runtimes: slowdown vs all-fast.
                (est_runtime_ns - fast) / est_runtime_ns
            } else {
                0.0
            };
            TenantAllocation {
                tenant,
                keys: grant.positions,
                fast_bytes: grant.bytes,
                est_runtime_ns,
                est_slowdown: est_slowdown.max(0.0),
            }
        })
        .collect();
    SharedAllocation {
        tenants,
        used_bytes,
        budget_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{Advisor, AdvisorConfig};
    use kvsim::StoreKind;
    use proptest::prelude::*;
    use ycsb::WorkloadSpec;

    fn consult(spec: WorkloadSpec, store: StoreKind) -> Consultation {
        let trace = spec.generate(5);
        Advisor::new(AdvisorConfig::default())
            .consult(store, &trace)
            .unwrap()
    }

    fn two_tenants() -> Vec<Consultation> {
        vec![
            consult(
                WorkloadSpec::trending().scaled(200, 2_500),
                StoreKind::Dynamo,
            ),
            consult(
                WorkloadSpec::trending().scaled(200, 2_500),
                StoreKind::Memcached,
            ),
        ]
    }

    #[test]
    fn budget_is_respected_and_used() {
        let tenants = two_tenants();
        let total: u64 = tenants.iter().map(|c| c.curve.total_bytes).sum();
        let alloc = allocate_shared(&tenants, total / 4);
        assert!(alloc.used_bytes <= alloc.budget_bytes);
        assert!(
            alloc.used_bytes > alloc.budget_bytes / 2,
            "budget should be mostly used"
        );
        let granted: u64 = alloc.tenants.iter().map(|t| t.fast_bytes).sum();
        assert_eq!(granted, alloc.used_bytes);
    }

    #[test]
    fn sensitive_tenant_wins_the_budget() {
        // DynamoDB (very memory-sensitive) vs Memcached (insensitive) on
        // the same workload: the shared budget should flow to DynamoDB.
        let tenants = two_tenants();
        let total: u64 = tenants.iter().map(|c| c.curve.total_bytes).sum();
        let alloc = allocate_shared(&tenants, total / 4);
        assert!(
            alloc.tenants[0].fast_bytes > 4 * alloc.tenants[1].fast_bytes.max(1),
            "dynamo {} vs memcached {}",
            alloc.tenants[0].fast_bytes,
            alloc.tenants[1].fast_bytes
        );
    }

    #[test]
    fn zero_budget_grants_nothing() {
        let tenants = two_tenants();
        let alloc = allocate_shared(&tenants, 0);
        assert_eq!(alloc.used_bytes, 0);
        for t in &alloc.tenants {
            assert!(t.keys.is_empty());
            // All-slow runtime equals the tenant's slow-only estimate.
            let slow = tenants[t.tenant].curve.slow_only().est_runtime_ns;
            assert!((t.est_runtime_ns - slow).abs() / slow < 1e-9);
        }
    }

    #[test]
    fn full_budget_reaches_all_fast() {
        let tenants = two_tenants();
        let total: u64 = tenants.iter().map(|c| c.curve.total_bytes).sum();
        let alloc = allocate_shared(&tenants, total);
        for t in &alloc.tenants {
            assert!(
                t.est_slowdown < 1e-9,
                "tenant {} slowdown {}",
                t.tenant,
                t.est_slowdown
            );
        }
        assert!(alloc.worst_slowdown() < 1e-9);
    }

    #[test]
    fn bigger_budget_never_hurts_anyone() {
        let tenants = two_tenants();
        let total: u64 = tenants.iter().map(|c| c.curve.total_bytes).sum();
        let small = allocate_shared(&tenants, total / 8);
        let large = allocate_shared(&tenants, total / 2);
        for (s, l) in small.tenants.iter().zip(&large.tenants) {
            assert!(l.est_runtime_ns <= s.est_runtime_ns + 1e-6);
        }
        assert!(large.worst_slowdown() <= small.worst_slowdown() + 1e-12);
    }

    /// Oracle for `allocate_by_density`: the same fill behind a plain
    /// comparator sort (two divisions per compare, `total_cmp` on the
    /// densities, then tenant, then key).
    fn reference_by_density(
        per_tenant: &[(f64, Vec<f64>)],
        stats: &[&[KeyStats]],
        budget_bytes: u64,
    ) -> SharedAllocation {
        struct Cand {
            tenant: usize,
            key: u64,
            bytes: u64,
            delta: f64,
        }
        let mut candidates = Vec::new();
        let mut fast_totals = Vec::new();
        let mut slow_totals = Vec::new();
        for (tenant, (fast_total, deltas)) in per_tenant.iter().enumerate() {
            fast_totals.push(*fast_total);
            slow_totals.push(*fast_total + deltas.iter().sum::<f64>());
            for (key, &delta) in deltas.iter().enumerate() {
                let bytes = stats[tenant][key].bytes;
                if delta > 0.0 && bytes > 0 {
                    candidates.push(Cand {
                        tenant,
                        key: key as u64,
                        bytes,
                        delta,
                    });
                }
            }
        }
        candidates.sort_by(|a, b| {
            let da = a.delta / a.bytes as f64;
            let db = b.delta / b.bytes as f64;
            db.total_cmp(&da)
                .then(a.tenant.cmp(&b.tenant))
                .then(a.key.cmp(&b.key))
        });
        let mut used = 0u64;
        let mut grants: Vec<Vec<u64>> = per_tenant.iter().map(|_| Vec::new()).collect();
        let mut granted_bytes: Vec<u64> = per_tenant.iter().map(|_| 0).collect();
        let mut saved: Vec<f64> = per_tenant.iter().map(|_| 0.0).collect();
        for cand in candidates {
            if used + cand.bytes <= budget_bytes {
                used += cand.bytes;
                grants[cand.tenant].push(cand.key);
                granted_bytes[cand.tenant] += cand.bytes;
                saved[cand.tenant] += cand.delta;
            }
        }
        let tenants = (0..per_tenant.len())
            .map(|tenant| {
                let slow = slow_totals[tenant];
                let fast = fast_totals[tenant];
                let est_runtime_ns = slow - saved[tenant];
                let est_slowdown = if fast > 0.0 {
                    (est_runtime_ns - fast) / est_runtime_ns
                } else {
                    0.0
                };
                TenantAllocation {
                    tenant,
                    keys: std::mem::take(&mut grants[tenant]),
                    fast_bytes: granted_bytes[tenant],
                    est_runtime_ns,
                    est_slowdown: est_slowdown.max(0.0),
                }
            })
            .collect();
        SharedAllocation {
            tenants,
            used_bytes: used,
            budget_bytes,
        }
    }

    fn assert_same_allocation(a: &SharedAllocation, b: &SharedAllocation) {
        assert_eq!(a.used_bytes, b.used_bytes);
        assert_eq!(a.budget_bytes, b.budget_bytes);
        assert_eq!(a.tenants.len(), b.tenants.len());
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.keys, y.keys, "grant order of tenant {}", x.tenant);
            assert_eq!(x.fast_bytes, y.fast_bytes);
            assert_eq!(x.est_runtime_ns.to_bits(), y.est_runtime_ns.to_bits());
            assert_eq!(x.est_slowdown.to_bits(), y.est_slowdown.to_bits());
        }
    }

    #[test]
    fn consultations_allocate_like_the_comparator_sort() {
        let tenants = two_tenants();
        let demands: Vec<TenantDemand> = tenants
            .iter()
            .map(TenantDemand::from_consultation)
            .collect();
        let per_tenant: Vec<(f64, Vec<f64>)> = demands
            .iter()
            .map(|d| {
                EstimateEngine::new(d.model.clone(), CostModel::default()).key_deltas(d.pattern)
            })
            .collect();
        let stats: Vec<&[KeyStats]> = demands.iter().map(|d| d.pattern.stats()).collect();
        let total: u64 = tenants.iter().map(|c| c.curve.total_bytes).sum();
        for budget in [0, total / 8, total / 3, total] {
            assert_same_allocation(
                &allocate_demands(&demands, budget),
                &reference_by_density(&per_tenant, &stats, budget),
            );
        }
    }

    /// Keys in runs of one `(delta, bytes)` value from a small palette:
    /// long runs fill whole classes, more values than `density::fill`
    /// keeps classes open for interleave and split classes, and `(d, 100)` against `(2d, 200)`
    /// divide to bitwise-equal densities across sizes (1 read of 100 B
    /// against 2 reads of 200 B under a zero slope).
    fn runs_of_classes() -> impl Strategy<Value = Vec<(f64, u64)>> {
        let d = 1234.567;
        let palette = [
            (d, 100),
            (2.0 * d, 200),
            (3.0 * d, 300),
            (250.0, 64),
            (500.0, 64),
            (0.0, 64),
            (-250.0, 64),
            (250.0, 0),
        ];
        proptest::collection::vec((0..palette.len(), 1usize..60), 0..12).prop_map(move |runs| {
            runs.into_iter()
                .flat_map(|(value, len)| std::iter::repeat_n(palette[value], len))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Few distinct delta and size values, so equal densities recur
        /// within and across tenants; zero and negative deltas and
        /// zero-byte keys must be skipped exactly as the comparator
        /// fill skips them. Tenants are either scattered keys or runs of
        /// classes, and one budget choice ends halfway into a key of
        /// the comparator order, so mostly in the middle of a class.
        #[test]
        fn integer_key_sort_matches_the_comparator_sort(
            tenants in proptest::collection::vec(
                (
                    prop_oneof![Just(0.0f64), 1.0f64..1e6],
                    prop_oneof![
                        proptest::collection::vec(
                            (
                                prop_oneof![
                                    (-4i32..9).prop_map(|d| d as f64 * 250.0),
                                    0.001f64..5e3,
                                ],
                                prop_oneof![Just(0u64), 1u64..5, (1u64..5).prop_map(|b| b * 64)],
                            ),
                            0..40,
                        ),
                        runs_of_classes(),
                    ],
                ),
                0..5,
            ),
            budget_pick in 0u8..6,
            budget_frac in 0.0f64..1.0,
        ) {
            let per_tenant: Vec<(f64, Vec<f64>)> = tenants
                .iter()
                .map(|(fast, keys)| (*fast, keys.iter().map(|&(d, _)| d).collect()))
                .collect();
            let key_stats: Vec<Vec<KeyStats>> = tenants
                .iter()
                .map(|(_, keys)| {
                    keys.iter()
                        .map(|&(_, bytes)| KeyStats { reads: 1, writes: 0, bytes })
                        .collect()
                })
                .collect();
            let stats: Vec<&[KeyStats]> = key_stats.iter().map(|s| s.as_slice()).collect();
            let candidate_bytes: u64 = tenants
                .iter()
                .flat_map(|(_, keys)| keys)
                .filter(|&&(d, b)| d > 0.0 && b > 0)
                .map(|&(_, b)| b)
                .sum();
            // The comparator order's sizes, for a budget that runs out
            // halfway into one of its keys.
            let mut order: Vec<(f64, usize, usize, u64)> = tenants
                .iter()
                .enumerate()
                .flat_map(|(t, (_, keys))| {
                    keys.iter().enumerate().map(move |(k, &(d, b))| (d, t, k, b))
                })
                .filter(|&(d, _, _, b)| d > 0.0 && b > 0)
                .map(|(d, t, k, b)| (d / b as f64, t, k, b))
                .collect();
            order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            let cut = ((order.len() as f64 * budget_frac) as usize).min(order.len());
            let mid_key = order[..cut].iter().map(|c| c.3).sum::<u64>()
                + order.get(cut).map_or(0, |c| c.3 / 2);
            // Zero, a partial fill, exactly everything, overflow, and
            // mid-key.
            let budget = match budget_pick {
                0 => 0,
                1 => (candidate_bytes as f64 * budget_frac) as u64,
                2 => candidate_bytes,
                3 => candidate_bytes.saturating_sub(1),
                4 => candidate_bytes + 1 + (budget_frac * 1e4) as u64,
                _ => mid_key,
            };
            assert_same_allocation(
                &allocate_by_density(&per_tenant, &stats, budget),
                &reference_by_density(&per_tenant, &stats, budget),
            );
        }
    }
}
