//! Least-squares split of VM prices into per-vCPU and per-GB components.
//!
//! Following Amur et al. (SoCC '13), the paper models each instance price
//! as `price = vcpus * C + memory_gb * M` and solves the overdetermined
//! system across a provider's catalogue with ordinary least squares. With
//! only two unknowns the normal equations are a 2x2 system solved in closed
//! form — no linear-algebra dependency required.

use crate::catalog::Instance;

/// The fitted per-resource hourly rates for one provider.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSplit {
    /// Hourly cost of one vCPU, USD.
    pub per_vcpu: f64,
    /// Hourly cost of one GiB of memory, USD.
    pub per_gb: f64,
    /// Root-mean-square relative residual of the fit (diagnostic).
    pub rms_relative_error: f64,
}

/// Errors from fitting the cost split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// Fewer than two instances were supplied.
    TooFewInstances,
    /// The instance shapes are collinear (single fixed GiB:vCPU ratio), so
    /// the per-vCPU and per-GB rates cannot be separated.
    Degenerate,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewInstances => write!(f, "need at least two instances to fit"),
            FitError::Degenerate => {
                write!(
                    f,
                    "instance shapes are collinear; cannot separate vCPU and GB rates"
                )
            }
        }
    }
}

impl std::error::Error for FitError {}

impl CostSplit {
    /// Fit `price = vcpus*C + memory_gb*M` over `instances` with ordinary
    /// least squares (no intercept, as in the paper's equation).
    pub fn fit(instances: &[Instance]) -> Result<CostSplit, FitError> {
        if instances.len() < 2 {
            return Err(FitError::TooFewInstances);
        }
        // Normal equations for X = [vcpus, gb], y = price:
        //   [ Σv²  Σvg ] [C]   [ Σvy ]
        //   [ Σvg  Σg² ] [M] = [ Σgy ]
        let (mut svv, mut svg, mut sgg, mut svy, mut sgy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for i in instances {
            svv += i.vcpus * i.vcpus;
            svg += i.vcpus * i.memory_gb;
            sgg += i.memory_gb * i.memory_gb;
            svy += i.vcpus * i.hourly_usd;
            sgy += i.memory_gb * i.hourly_usd;
        }
        let det = svv * sgg - svg * svg;
        // Relative determinant threshold: the absolute determinant scales
        // with the magnitudes, so normalise before comparing.
        if det.abs() < 1e-9 * svv * sgg {
            return Err(FitError::Degenerate);
        }
        let per_vcpu = (svy * sgg - sgy * svg) / det;
        let per_gb = (sgy * svv - svy * svg) / det;

        let mut sq = 0.0;
        for i in instances {
            let pred = per_vcpu * i.vcpus + per_gb * i.memory_gb;
            let rel = (pred - i.hourly_usd) / i.hourly_usd;
            sq += rel * rel;
        }
        let rms_relative_error = (sq / instances.len() as f64).sqrt();

        Ok(CostSplit {
            per_vcpu,
            per_gb,
            rms_relative_error,
        })
    }

    /// Predicted hourly price of an instance under this split.
    pub fn predict(&self, instance: &Instance) -> f64 {
        self.per_vcpu * instance.vcpus + self.per_gb * instance.memory_gb
    }

    /// Fraction of the instance's *actual* hourly price attributable to
    /// memory — the quantity plotted in the paper's Fig. 1.
    pub fn memory_share(&self, instance: &Instance) -> f64 {
        (self.per_gb * instance.memory_gb) / instance.hourly_usd
    }
}

/// Fig. 1 row: memory share of cost for one memory-optimized instance.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryShareRow {
    /// Instance type name.
    pub instance: &'static str,
    /// Memory share of the actual hourly price, in [0, 1]-ish (can exceed
    /// 1 marginally if the fit over-attributes memory for an outlier).
    pub share: f64,
}

/// Compute the Fig. 1 series for a provider: fit the split over the whole
/// catalogue, then report the memory share of every memory-optimized
/// instance.
pub fn memory_share_series(instances: &[Instance]) -> Result<Vec<MemoryShareRow>, FitError> {
    let split = CostSplit::fit(instances)?;
    Ok(instances
        .iter()
        .filter(|i| i.memory_optimized)
        .map(|i| MemoryShareRow {
            instance: i.name,
            share: split.memory_share(i),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Provider, ProviderKind};

    fn synth(vcpus: f64, gb: f64, c: f64, m: f64) -> Instance {
        Instance {
            name: "synthetic",
            vcpus,
            memory_gb: gb,
            hourly_usd: vcpus * c + gb * m,
            memory_optimized: false,
        }
    }

    #[test]
    fn recovers_exact_rates_from_noiseless_data() {
        let (c, m) = (0.03, 0.006);
        let data = vec![
            synth(2.0, 8.0, c, m),
            synth(4.0, 32.0, c, m),
            synth(8.0, 16.0, c, m),
            synth(64.0, 1024.0, c, m),
        ];
        let fit = CostSplit::fit(&data).unwrap();
        assert!((fit.per_vcpu - c).abs() < 1e-10, "C={}", fit.per_vcpu);
        assert!((fit.per_gb - m).abs() < 1e-10, "M={}", fit.per_gb);
        assert!(fit.rms_relative_error < 1e-10);
    }

    #[test]
    fn collinear_shapes_are_rejected() {
        let (c, m) = (0.03, 0.006);
        // All instances share exactly 4 GiB per vCPU.
        let data = vec![
            synth(1.0, 4.0, c, m),
            synth(2.0, 8.0, c, m),
            synth(16.0, 64.0, c, m),
        ];
        assert_eq!(CostSplit::fit(&data).unwrap_err(), FitError::Degenerate);
    }

    #[test]
    fn too_few_instances_is_an_error() {
        assert_eq!(
            CostSplit::fit(&[synth(1.0, 4.0, 0.1, 0.01)]).unwrap_err(),
            FitError::TooFewInstances
        );
    }

    #[test]
    fn memory_share_matches_paper_band_for_all_providers() {
        // Section I: "the cost of memory approximately constitutes 60% to
        // 85% of the overall VM cost" for the memory-optimized instances.
        // Allow a modest margin around the band since the shares are
        // per-instance, not averaged.
        for kind in ProviderKind::ALL {
            let p = Provider::new(kind);
            let rows = memory_share_series(&p.instances).unwrap();
            assert!(!rows.is_empty());
            let avg: f64 = rows.iter().map(|r| r.share).sum::<f64>() / rows.len() as f64;
            assert!(
                (0.50..=0.95).contains(&avg),
                "{kind:?}: average memory share {avg:.3} outside sanity band"
            );
        }
    }

    #[test]
    fn fit_quality_is_good_on_real_catalogues() {
        for kind in ProviderKind::ALL {
            let p = Provider::new(kind);
            let fit = CostSplit::fit(&p.instances).unwrap();
            assert!(
                fit.rms_relative_error < 0.35,
                "{kind:?}: rms {:.3}",
                fit.rms_relative_error
            );
            assert!(fit.per_gb > 0.0, "{kind:?}: per-GB rate must be positive");
            assert!(
                fit.per_vcpu > 0.0,
                "{kind:?}: per-vCPU rate must be positive"
            );
        }
    }
}
