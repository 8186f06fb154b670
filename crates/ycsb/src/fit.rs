//! Distribution fitting: characterise an observed trace.
//!
//! §V ("Workload downsampling"): when the real workload is unavailable,
//! "the user may either create a synthetic workload with similar request
//! distribution or downsize a real workload". Downsizing is
//! [`crate::sample`]; this module supports the *synthesis* path by
//! measuring an observed trace's skew so a matching [`DistKind`] can be
//! generated:
//!
//! * the zipfian exponent `theta`, fitted by least squares on the
//!   log-log rank-frequency curve;
//! * hot-set concentration (share of requests captured by the hottest
//!   10/20/50% of keys);
//! * the Gini coefficient of the per-key request counts.

use crate::dist::DistKind;
use crate::trace::Trace;

/// Fit the zipfian exponent `theta` to per-key request counts by least
/// squares on the log-log rank-frequency curve. `counts` need not be
/// sorted (ranking happens internally) and zero counts are ignored.
/// Returns `None` when fewer than three distinct ranks were observed or
/// every observed count is identical; otherwise a value clamped to
/// `[0, 3]` (0 = uniform; YCSB's default skew is 0.99).
///
/// This is shared between offline trace analysis ([`SkewReport`]) and
/// the streaming skew-drift detector, which fits it per epoch over a
/// heavy-hitter summary instead of exact counts.
pub fn fit_zipf_theta(counts: &[u64]) -> Option<f64> {
    let mut sorted: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let points: Vec<(f64, f64)> = sorted
        .iter()
        .enumerate()
        .map(|(rank, &c)| (((rank + 1) as f64).ln(), (c as f64).ln()))
        .collect();
    if points.len() < 3 {
        return None;
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let (mut cov, mut var) = (0.0, 0.0);
    for (x, y) in &points {
        cov += (x - mx) * (y - my);
        var += (x - mx) * (x - mx);
    }
    if var < 1e-12 {
        None
    } else {
        Some((-cov / var).clamp(0.0, 3.0))
    }
}

/// Skew statistics of an observed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewReport {
    /// Fitted zipfian exponent over the rank-frequency curve (0 =
    /// uniform; YCSB's default is 0.99). `None` when fewer than three
    /// distinct ranks were observed.
    pub zipf_theta: Option<f64>,
    /// Share of requests captured by the hottest 10% of keys.
    pub hot10_mass: f64,
    /// Share captured by the hottest 20% (the paper's running example).
    pub hot20_mass: f64,
    /// Share captured by the hottest 50%.
    pub hot50_mass: f64,
    /// Gini coefficient of per-key request counts (0 = uniform, → 1 =
    /// maximally concentrated).
    pub gini: f64,
    /// Fraction of keys never requested.
    pub untouched_fraction: f64,
}

impl SkewReport {
    /// Analyse a trace.
    pub fn analyze(trace: &Trace) -> SkewReport {
        let counts: Vec<u64> = trace.key_counts().iter().map(|&(r, w)| r + w).collect();
        let total: u64 = counts.iter().sum();
        let keys = counts.len().max(1);

        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a)); // hottest first
        let mass_at = |fraction: f64| -> f64 {
            if total == 0 {
                return 0.0;
            }
            let k = ((keys as f64 * fraction).round() as usize).clamp(1, keys);
            sorted[..k].iter().sum::<u64>() as f64 / total as f64
        };

        let zipf_theta = fit_zipf_theta(&sorted);

        // Gini over the (ascending) count distribution.
        let gini = if total == 0 {
            0.0
        } else {
            let mut asc = counts.clone();
            asc.sort_unstable();
            let n = asc.len() as f64;
            let weighted: f64 = asc
                .iter()
                .enumerate()
                .map(|(i, &c)| (i as f64 + 1.0) * c as f64)
                .sum();
            (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
        };

        SkewReport {
            zipf_theta,
            hot10_mass: mass_at(0.10),
            hot20_mass: mass_at(0.20),
            hot50_mass: mass_at(0.50),
            gini,
            untouched_fraction: counts.iter().filter(|&&c| c == 0).count() as f64 / keys as f64,
        }
    }

    /// Propose a [`DistKind`] that reproduces the observed skew — the
    /// "create a synthetic workload with similar request distribution"
    /// path. Heuristic: near-uniform traces map to uniform; a heavy but
    /// internally *flat* head (the hottest 10% of keys holding about
    /// half the mass of the hottest 20%) is a hot-set signature and maps
    /// to hotspot; a head that keeps decaying within itself is zipfian
    /// and maps to a scrambled zipfian at the fitted theta.
    pub fn suggest_distribution(&self) -> DistKind {
        if self.gini < 0.15 {
            return DistKind::Uniform;
        }
        let head_decay = if self.hot20_mass > 0.0 {
            self.hot10_mass / self.hot20_mass
        } else {
            0.5
        };
        if self.hot20_mass > 0.5 && head_decay < 0.7 {
            return DistKind::Hotspot {
                hot_fraction: 0.2,
                hot_op_fraction: self.hot20_mass.min(0.95),
            };
        }
        let theta = self.zipf_theta.unwrap_or(0.99).clamp(0.1, 0.99);
        DistKind::ScrambledZipfian { theta }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opmix::OpMix;
    use crate::sizes::{SizeClass, SizeModel};
    use crate::workload::WorkloadSpec;

    fn trace_for(dist: DistKind) -> Trace {
        WorkloadSpec {
            name: "fit".into(),
            distribution: dist,
            ops: OpMix::read_only(),
            sizes: SizeModel::Single(SizeClass::Caption),
            keys: 2_000,
            requests: 60_000,
            use_case: String::new(),
        }
        .generate(13)
    }

    #[test]
    fn uniform_has_low_gini_and_no_skew() {
        let r = SkewReport::analyze(&trace_for(DistKind::Uniform));
        assert!(r.gini < 0.15, "gini {}", r.gini);
        // Order statistics over multinomial noise bias the "hottest 20%"
        // slightly above the nominal 0.20 even for a uniform workload.
        assert!(
            (0.18..0.30).contains(&r.hot20_mass),
            "hot20 {}",
            r.hot20_mass
        );
        assert_eq!(r.suggest_distribution().name(), "uniform");
    }

    #[test]
    fn zipfian_theta_is_recovered() {
        let r = SkewReport::analyze(&trace_for(DistKind::Zipfian { theta: 0.99 }));
        let theta = r.zipf_theta.expect("enough ranks");
        assert!((theta - 0.99).abs() < 0.25, "fitted theta {theta}");
        assert!(r.gini > 0.5, "zipfian is concentrated: {}", r.gini);
        assert!(matches!(
            r.suggest_distribution(),
            DistKind::ScrambledZipfian { .. }
        ));
    }

    #[test]
    fn hotspot_is_recognised() {
        let r = SkewReport::analyze(&trace_for(DistKind::Hotspot {
            hot_fraction: 0.2,
            hot_op_fraction: 0.8,
        }));
        assert!((r.hot20_mass - 0.8).abs() < 0.05, "hot20 {}", r.hot20_mass);
        match r.suggest_distribution() {
            DistKind::Hotspot {
                hot_op_fraction, ..
            } => {
                assert!((hot_op_fraction - 0.8).abs() < 0.1)
            }
            other => panic!("expected hotspot, got {other:?}"),
        }
    }

    #[test]
    fn suggested_distribution_reproduces_skew() {
        // Analyse -> synthesise -> re-analyse: the synthetic workload's
        // concentration must match the original.
        let original = SkewReport::analyze(&trace_for(DistKind::Zipfian { theta: 0.9 }));
        let synth_trace = trace_for(original.suggest_distribution());
        let synth = SkewReport::analyze(&synth_trace);
        assert!(
            (original.hot20_mass - synth.hot20_mass).abs() < 0.12,
            "original {} vs synthetic {}",
            original.hot20_mass,
            synth.hot20_mass
        );
        assert!((original.gini - synth.gini).abs() < 0.15);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = Trace {
            name: "e".into(),
            sizes: vec![10, 10],
            requests: vec![],
        };
        let r = SkewReport::analyze(&t);
        assert_eq!(r.gini, 0.0);
        assert_eq!(r.hot20_mass, 0.0);
        assert_eq!(r.untouched_fraction, 1.0);
        assert!(r.zipf_theta.is_none());
    }

    #[test]
    fn untouched_fraction_counts_cold_keys() {
        let r = SkewReport::analyze(&trace_for(DistKind::Sequential));
        assert_eq!(r.untouched_fraction, 0.0, "sequential touches every key");
    }

    #[test]
    fn fit_zipf_theta_accepts_unsorted_counts() {
        // Exact zipfian counts c(r) = C * r^-theta, deliberately shuffled.
        let theta = 0.8;
        let mut counts: Vec<u64> = (1..=200)
            .map(|r| (1e6 * (r as f64).powf(-theta)) as u64)
            .collect();
        counts.swap(0, 150);
        counts.swap(3, 99);
        counts.push(0); // ignored
        let fitted = fit_zipf_theta(&counts).expect("enough ranks");
        assert!((fitted - theta).abs() < 0.02, "fitted {fitted}");
        // Degenerate inputs refuse to fit.
        assert_eq!(fit_zipf_theta(&[5, 4]), None);
        assert_eq!(fit_zipf_theta(&[]), None);
        // Perfectly flat counts are a zipfian with theta 0.
        assert_eq!(fit_zipf_theta(&[7, 7, 7, 7]), Some(0.0));
    }
}
