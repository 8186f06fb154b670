//! VM planning: from a FastMem/SlowMem byte split to a cloud bill.
//!
//! The paper envisions Mnemo helping users "quickly understand what
//! capacity sizings of VMs with DRAM and VMs with NVM provide the best
//! tradeoffs". This module closes that loop: given the byte split a
//! consultation recommends, it prices the configuration against a
//! provider's catalogue — either as a pair of instances (a DRAM VM plus
//! an NVM-equipped VM, the deployment Google announced for Optane DC) or
//! against the fitted per-GB rate with the NVM price factor applied.

use crate::catalog::{Instance, Provider};
use crate::regression::CostSplit;

/// Bytes per GiB.
const GIB: f64 = (1u64 << 30) as f64;

/// A priced deployment plan for a hybrid capacity split.
#[derive(Debug, Clone)]
pub struct VmPlan {
    /// Chosen DRAM-backed instance (smallest that fits the FastMem GiB).
    pub dram_instance: String,
    /// Chosen NVM-carrier instance (smallest that fits the SlowMem GiB;
    /// its memory is billed at the NVM price factor).
    pub nvm_instance: Option<String>,
    /// Hourly bill in USD.
    pub hourly_usd: f64,
    /// Hourly bill of the all-DRAM alternative in USD.
    pub dram_only_hourly_usd: f64,
}

impl VmPlan {
    /// Savings fraction vs the all-DRAM deployment.
    pub fn savings(&self) -> f64 {
        if self.dram_only_hourly_usd <= 0.0 {
            return 0.0;
        }
        1.0 - self.hourly_usd / self.dram_only_hourly_usd
    }
}

/// Planning errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// No catalogue instance is big enough for the requested capacity.
    NoInstanceFits {
        /// GiB requested.
        gib: f64,
        /// Largest instance available, GiB.
        largest: f64,
    },
    /// The catalogue could not be fitted (see [`CostSplit::fit`]).
    Fit(crate::regression::FitError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoInstanceFits { gib, largest } => {
                write!(
                    f,
                    "no instance fits {gib:.1} GiB (largest is {largest:.1} GiB)"
                )
            }
            PlanError::Fit(e) => write!(f, "catalogue fit failed: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The smallest instance with at least `gib` of memory (ties broken by
/// price). Memory-optimized instances are preferred only through their
/// price; the whole catalogue competes.
pub fn smallest_fitting(provider: &Provider, gib: f64) -> Result<&Instance, PlanError> {
    provider
        .instances
        .iter()
        .filter(|i| i.memory_gb >= gib)
        .min_by(|a, b| a.hourly_usd.total_cmp(&b.hourly_usd))
        .ok_or_else(|| PlanError::NoInstanceFits {
            gib,
            largest: provider
                .instances
                .iter()
                .map(|i| i.memory_gb)
                .fold(0.0, f64::max),
        })
}

/// Price a FastMem/SlowMem byte split against a provider.
///
/// The DRAM side is billed as the smallest fitting instance at list
/// price. The NVM side is billed as the smallest fitting instance with
/// its *memory component re-priced* by `nvm_price_factor` (the paper's
/// `p`): NVM carriers keep the instance's vCPU cost but replace the
/// fitted per-GB DRAM rate with `p` times it. A zero-byte side
/// contributes nothing.
pub fn plan(
    provider: &Provider,
    fast_bytes: u64,
    slow_bytes: u64,
    nvm_price_factor: f64,
) -> Result<VmPlan, PlanError> {
    assert!(
        nvm_price_factor > 0.0 && nvm_price_factor < 1.0,
        "price factor must be in (0,1)"
    );
    let split = CostSplit::fit(&provider.instances).map_err(PlanError::Fit)?;
    let fast_gib = fast_bytes as f64 / GIB;
    let slow_gib = slow_bytes as f64 / GIB;
    let total_gib = fast_gib + slow_gib;

    let dram_only = smallest_fitting(provider, total_gib)?;
    let dram_only_hourly = dram_only.hourly_usd;

    let mut hourly = 0.0;
    let dram_instance = if fast_gib > 0.0 {
        let inst = smallest_fitting(provider, fast_gib)?;
        hourly += inst.hourly_usd;
        inst.name.to_string()
    } else {
        "(none)".to_string()
    };
    let nvm_instance = if slow_gib > 0.0 {
        let inst = smallest_fitting(provider, slow_gib)?;
        // Re-price the memory component at the NVM rate.
        let dram_memory_cost = split.per_gb * inst.memory_gb;
        let nvm_memory_cost = dram_memory_cost * nvm_price_factor;
        hourly += inst.hourly_usd - dram_memory_cost + nvm_memory_cost;
        Some(inst.name.to_string())
    } else {
        None
    };

    Ok(VmPlan {
        dram_instance,
        nvm_instance,
        hourly_usd: hourly,
        dram_only_hourly_usd: dram_only_hourly,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ProviderKind;

    #[test]
    fn smallest_fitting_picks_cheapest_adequate() {
        let p = Provider::gcp();
        let inst = smallest_fitting(&p, 1000.0).unwrap();
        // 1000 GiB needs megamem/ultramem; the cheapest fitting is
        // megamem-96 (1433 GiB, $10.67) over ultramem-80 ($12.61).
        assert_eq!(inst.name, "n1-megamem-96");
        let small = smallest_fitting(&p, 3.0).unwrap();
        assert_eq!(small.name, "n1-standard-1", "smallest cheap instance wins");
    }

    #[test]
    fn oversize_requests_error() {
        let p = Provider::aws();
        let err = smallest_fitting(&p, 100_000.0).unwrap_err();
        assert!(matches!(err, PlanError::NoInstanceFits { .. }));
    }

    #[test]
    fn hybrid_plan_beats_dram_only() {
        for kind in ProviderKind::ALL {
            let p = Provider::new(kind);
            // 20:80 split of a 256 GiB dataset (fits every catalogue).
            let fast = (256u64 << 30) / 5;
            let slow = (256u64 << 30) - fast;
            let plan = plan(&p, fast, slow, 0.2).unwrap();
            assert!(
                plan.hourly_usd < plan.dram_only_hourly_usd,
                "{kind:?}: hybrid {} vs dram {}",
                plan.hourly_usd,
                plan.dram_only_hourly_usd
            );
            assert!(
                plan.savings() > 0.15,
                "{kind:?}: savings {:.3}",
                plan.savings()
            );
            assert!(plan.nvm_instance.is_some());
        }
    }

    #[test]
    fn all_fast_plan_has_no_nvm_instance() {
        let p = Provider::gcp();
        let plan = plan(&p, 1 << 36, 0, 0.2).unwrap();
        assert!(plan.nvm_instance.is_none());
        assert!(plan.savings().abs() < 1e-9, "all-DRAM split saves nothing");
    }

    #[test]
    fn all_slow_plan_still_needs_a_dram_host() {
        // Degenerate all-slow split: no DRAM instance, one NVM carrier.
        let p = Provider::gcp();
        let plan = plan(&p, 0, 1 << 36, 0.2).unwrap();
        assert_eq!(plan.dram_instance, "(none)");
        assert!(plan.savings() > 0.3);
    }

    #[test]
    fn savings_shrink_as_the_fast_share_grows() {
        // (Instance-size granularity means even a 90:10 split can save a
        // bit — the single all-DRAM instance often overshoots the needed
        // capacity — but savings must still fall monotonically-ish with
        // the DRAM share.)
        let p = Provider::gcp();
        let total = 256u64 << 30;
        let at = |fast_share: f64| {
            let fast = (total as f64 * fast_share) as u64;
            plan(&p, fast, total - fast, 0.2).unwrap().savings()
        };
        assert!(at(0.2) > at(0.9), "20% fast saves more than 90% fast");
        assert!(at(0.9) >= -0.2, "granularity penalties stay bounded");
    }

    #[test]
    fn cheaper_nvm_saves_more() {
        let p = Provider::azure();
        let fast = (256u64 << 30) / 10;
        let slow = (256u64 << 30) - fast;
        let cheap = plan(&p, fast, slow, 0.15).unwrap();
        let pricey = plan(&p, fast, slow, 0.5).unwrap();
        assert!(cheap.hourly_usd < pricey.hourly_usd);
    }
}
