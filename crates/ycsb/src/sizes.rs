//! Record-size classes (the paper's Fig. 4).
//!
//! The paper infers record sizes from "social media cheat sheets": photo
//! thumbnails around 100 KB, text posts around 10 KB and photo captions
//! around 1 KB. Sizes within a class follow a right-skewed lognormal
//! spread, as the Fig. 4 CDFs show. Each key's size is assigned once, at
//! load time, and stays fixed for the run.

use rand::rngs::StdRng;
use rand::RngExt;

/// One social-media record-size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// Photo thumbnail, ~100 KB.
    Thumbnail,
    /// Text post, ~10 KB.
    TextPost,
    /// Photo caption, ~1 KB.
    Caption,
}

impl SizeClass {
    /// All classes, largest first (presentation order of Fig. 4).
    pub const ALL: [SizeClass; 3] = [
        SizeClass::Thumbnail,
        SizeClass::TextPost,
        SizeClass::Caption,
    ];

    /// Median size in bytes.
    pub fn median_bytes(self) -> u64 {
        match self {
            SizeClass::Thumbnail => 100 * 1024,
            SizeClass::TextPost => 10 * 1024,
            SizeClass::Caption => 1024,
        }
    }

    /// Lognormal sigma of the class (spread of Fig. 4's curves).
    pub fn sigma(self) -> f64 {
        match self {
            SizeClass::Thumbnail => 0.35,
            SizeClass::TextPost => 0.5,
            SizeClass::Caption => 0.6,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SizeClass::Thumbnail => "thumbnail",
            SizeClass::TextPost => "text post",
            SizeClass::Caption => "photo caption",
        }
    }

    /// Draw a size: lognormal around the median, clamped to [64 B, 1 MB].
    pub fn sample(self, rng: &mut StdRng) -> u64 {
        let mu = (self.median_bytes() as f64).ln();
        let z = standard_normal(rng);
        let bytes = (mu + self.sigma() * z).exp();
        (bytes.round() as u64).clamp(64, 1 << 20)
    }

    /// Exact CDF of the (unclamped) lognormal model at `bytes` — used to
    /// regenerate Fig. 4 without sampling noise.
    pub fn cdf(self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        let mu = (self.median_bytes() as f64).ln();
        let z = (bytes.ln() - mu) / self.sigma();
        normal_cdf(z)
    }
}

/// Standard normal via Box–Muller (one variate per call).
fn standard_normal(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.random();
        let u2: f64 = rng.random();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// Φ(z) via the Abramowitz–Stegun erf approximation (|err| < 1.5e-7).
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// How a workload assigns sizes to keys.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeModel {
    /// Every key belongs to one class.
    Single(SizeClass),
    /// Keys are split between classes by weight (e.g. Trending Preview:
    /// thumbnail + caption + news summary per item). Assignment is by key
    /// hash, so it is stable across runs and independent of the request
    /// distribution.
    Mixed(Vec<(SizeClass, f64)>),
    /// A free-form lognormal: values centred on `median_bytes` with
    /// log-sd `sigma`. Captures measured production distributions (e.g.
    /// Facebook's memcached ETC pool: tiny values with a very long tail,
    /// Atikoglu et al. 2012) that the social-media classes do not.
    Lognormal {
        /// Median value size in bytes.
        median_bytes: u64,
        /// Lognormal sigma (spread).
        sigma: f64,
    },
}

impl SizeModel {
    /// The class a given key belongs to; `None` for free-form models.
    pub fn class_of(&self, key: u64) -> Option<SizeClass> {
        match self {
            SizeModel::Single(c) => Some(*c),
            SizeModel::Mixed(parts) => {
                assert!(
                    !parts.is_empty(),
                    "mixed size model needs at least one class"
                );
                let total: f64 = parts.iter().map(|(_, w)| w).sum();
                // Map the key hash to [0, total) and walk the weights.
                let h = crate::dist::fnv1a64(key ^ 0xABCD_EF01) as f64 / u64::MAX as f64 * total;
                let mut acc = 0.0;
                for (class, w) in parts {
                    acc += w;
                    if h < acc {
                        return Some(*class);
                    }
                }
                {
                    // mnemo-lint: allow(R001, "every classed model is built from a nonempty static class table")
                    Some(parts.last().expect("nonempty").0)
                }
            }
            SizeModel::Lognormal { .. } => None,
        }
    }

    /// Draw the stored size of `key` (deterministic per `(key, seed)`).
    pub fn size_of(&self, key: u64, seed: u64) -> u64 {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed ^ crate::dist::fnv1a64(key));
        match self {
            SizeModel::Lognormal {
                median_bytes,
                sigma,
            } => {
                let mu = (*median_bytes as f64).ln();
                let z = standard_normal(&mut rng);
                ((mu + sigma * z).exp().round() as u64).clamp(16, 1 << 20)
            }
            _ => {
                // mnemo-lint: allow(R001, "class_of returns Some for every non-lognormal model and this arm excludes Lognormal")
                self.class_of(key).expect("classed model").sample(&mut rng)
            }
        }
    }

    /// Mean of the class medians weighted by assignment — a quick
    /// order-of-magnitude footprint estimate.
    pub fn approx_mean_bytes(&self) -> f64 {
        match self {
            SizeModel::Single(c) => c.median_bytes() as f64,
            SizeModel::Mixed(parts) => {
                let total: f64 = parts.iter().map(|(_, w)| w).sum();
                parts
                    .iter()
                    .map(|(c, w)| c.median_bytes() as f64 * w / total)
                    .sum()
            }
            // Lognormal mean = median * exp(sigma^2 / 2).
            SizeModel::Lognormal {
                median_bytes,
                sigma,
            } => *median_bytes as f64 * (sigma * sigma / 2.0).exp(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn medians_are_the_paper_values() {
        assert_eq!(SizeClass::Thumbnail.median_bytes(), 102_400);
        assert_eq!(SizeClass::TextPost.median_bytes(), 10_240);
        assert_eq!(SizeClass::Caption.median_bytes(), 1_024);
    }

    #[test]
    fn samples_center_on_median() {
        let mut rng = StdRng::seed_from_u64(1);
        for class in SizeClass::ALL {
            let mut samples: Vec<u64> = (0..5000).map(|_| class.sample(&mut rng)).collect();
            samples.sort_unstable();
            let med = samples[samples.len() / 2] as f64;
            let expect = class.median_bytes() as f64;
            assert!(
                (med / expect - 1.0).abs() < 0.1,
                "{}: median {med} vs {expect}",
                class.name()
            );
        }
    }

    #[test]
    fn samples_are_clamped() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let s = SizeClass::Caption.sample(&mut rng);
            assert!((64..=1 << 20).contains(&s));
        }
    }

    #[test]
    fn cdf_is_monotone_and_half_at_median() {
        for class in SizeClass::ALL {
            let m = class.median_bytes() as f64;
            assert!((class.cdf(m) - 0.5).abs() < 1e-6, "{}", class.name());
            assert!(class.cdf(m / 4.0) < class.cdf(m));
            assert!(class.cdf(m) < class.cdf(m * 4.0));
            assert_eq!(class.cdf(0.0), 0.0);
            assert!(class.cdf(1e12) > 0.9999);
        }
    }

    #[test]
    fn classes_are_an_order_of_magnitude_apart() {
        // Fig. 4's log-x axis shows three well-separated curves.
        let t = SizeClass::Thumbnail.median_bytes();
        let p = SizeClass::TextPost.median_bytes();
        let c = SizeClass::Caption.median_bytes();
        assert_eq!(t / p, 10);
        assert_eq!(p / c, 10);
    }

    #[test]
    fn single_model_is_constant_class() {
        let m = SizeModel::Single(SizeClass::TextPost);
        for key in 0..100 {
            assert_eq!(m.class_of(key), Some(SizeClass::TextPost));
        }
    }

    #[test]
    fn mixed_model_respects_weights() {
        let m = SizeModel::Mixed(vec![
            (SizeClass::Thumbnail, 1.0),
            (SizeClass::TextPost, 1.0),
            (SizeClass::Caption, 2.0),
        ]);
        let mut counts = [0usize; 3];
        for key in 0..40_000u64 {
            match m.class_of(key).expect("mixed model is classed") {
                SizeClass::Thumbnail => counts[0] += 1,
                SizeClass::TextPost => counts[1] += 1,
                SizeClass::Caption => counts[2] += 1,
            }
        }
        let total = 40_000.0;
        assert!((counts[0] as f64 / total - 0.25).abs() < 0.02, "{counts:?}");
        assert!((counts[1] as f64 / total - 0.25).abs() < 0.02, "{counts:?}");
        assert!((counts[2] as f64 / total - 0.50).abs() < 0.02, "{counts:?}");
    }

    #[test]
    fn size_of_is_deterministic() {
        let m = SizeModel::Single(SizeClass::Thumbnail);
        assert_eq!(m.size_of(7, 42), m.size_of(7, 42));
        assert_ne!(m.size_of(7, 42), m.size_of(8, 42));
    }

    #[test]
    fn approx_mean_bytes() {
        let single = SizeModel::Single(SizeClass::Caption);
        assert_eq!(single.approx_mean_bytes(), 1024.0);
        let mixed = SizeModel::Mixed(vec![(SizeClass::Thumbnail, 1.0), (SizeClass::Caption, 1.0)]);
        assert!((mixed.approx_mean_bytes() - (102_400.0 + 1024.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn lognormal_model_centres_on_median() {
        let m = SizeModel::Lognormal {
            median_bytes: 300,
            sigma: 1.2,
        };
        assert!(m.class_of(0).is_none());
        let mut sizes: Vec<u64> = (0..5000).map(|k| m.size_of(k, 9)).collect();
        sizes.sort_unstable();
        let med = sizes[sizes.len() / 2];
        assert!((200..=450).contains(&med), "median {med}");
        // Long tail: p99 far above the median (the ETC signature).
        let p99 = sizes[sizes.len() * 99 / 100];
        assert!(p99 > med * 10, "p99 {p99} vs median {med}");
        // Mean formula.
        assert!((m.approx_mean_bytes() - 300.0 * (1.2f64 * 1.2 / 2.0).exp()).abs() < 1e-9);
    }
}
