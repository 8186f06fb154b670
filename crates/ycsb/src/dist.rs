//! Key choosers — the request distributions of the paper's Fig. 3.
//!
//! Every chooser is deterministic given the caller's seeded RNG, and all
//! of them draw key *indices* in `[0, keys)`. The zipfian sampler is the
//! Gray et al. algorithm used by YCSB's `ZipfianGenerator`; the scrambled
//! variant spreads the hot ranks over the key space with an FNV-1a hash,
//! exactly as YCSB's `ScrambledZipfianGenerator` does.

use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// YCSB's default zipfian skew constant.
pub const ZIPFIAN_CONSTANT: f64 = 0.99;

/// Which distribution a workload uses (Fig. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DistKind {
    /// Every key equally likely.
    Uniform,
    /// Keys in round-robin order.
    Sequential,
    /// Zipfian: hot keys at the *beginning* of the key range.
    Zipfian {
        /// Skew parameter (YCSB default 0.99).
        theta: f64,
    },
    /// Zipfian ranks scattered over the key space by hashing.
    ScrambledZipfian {
        /// Skew parameter (YCSB default 0.99).
        theta: f64,
    },
    /// A hot set of `hot_fraction` of the keys receives `hot_op_fraction`
    /// of the requests; the rest are uniform over the cold set.
    Hotspot {
        /// Fraction of the key space that is hot.
        hot_fraction: f64,
        /// Fraction of operations that target the hot set.
        hot_op_fraction: f64,
    },
    /// Zipfian over recency: key `head - z` for zipfian offset `z`. With
    /// `churn_period > 0` the head advances by one key every that many
    /// requests, modelling new content continuously displacing the "news
    /// feed" — the reason the paper finds News Feed workloads benefit
    /// little from *static* placement.
    Latest {
        /// Skew parameter over recency distance.
        theta: f64,
        /// Requests between head advances (0 = static head at the newest
        /// key).
        churn_period: u64,
    },
}

impl DistKind {
    /// Paper-facing name (matches Fig. 3's legend).
    pub fn name(&self) -> &'static str {
        match self {
            DistKind::Uniform => "uniform",
            DistKind::Sequential => "sequential",
            DistKind::Zipfian { .. } => "zipfian",
            DistKind::ScrambledZipfian { .. } => "scrambled zipfian",
            DistKind::Hotspot { .. } => "hotspot",
            DistKind::Latest { .. } => "latest",
        }
    }

    /// Instantiate a chooser over `keys` keys.
    pub fn chooser(&self, keys: u64) -> KeyChooser {
        assert!(keys > 0, "need at least one key");
        let core = match *self {
            DistKind::Uniform => ChooserCore::Uniform,
            DistKind::Sequential => ChooserCore::Sequential { next: 0 },
            DistKind::Zipfian { theta } => ChooserCore::Zipfian(Zipfian::new(keys, theta)),
            DistKind::ScrambledZipfian { theta } => {
                ChooserCore::Scrambled(Zipfian::new(keys, theta))
            }
            DistKind::Hotspot {
                hot_fraction,
                hot_op_fraction,
            } => {
                assert!(
                    (0.0..=1.0).contains(&hot_fraction),
                    "hot_fraction out of range"
                );
                assert!(
                    (0.0..=1.0).contains(&hot_op_fraction),
                    "hot_op_fraction out of range"
                );
                let hot_keys = ((keys as f64 * hot_fraction).round() as u64).clamp(1, keys);
                ChooserCore::Hotspot {
                    hot_keys,
                    hot_op_fraction,
                }
            }
            DistKind::Latest {
                theta,
                churn_period,
            } => ChooserCore::Latest {
                zipf: Zipfian::new(keys, theta),
                churn_period,
                head: keys - 1,
                issued: 0,
            },
        };
        KeyChooser { keys, core }
    }
}

/// A stateful key chooser (one per generated trace).
#[derive(Debug, Clone)]
pub struct KeyChooser {
    keys: u64,
    core: ChooserCore,
}

#[derive(Debug, Clone)]
enum ChooserCore {
    Uniform,
    Sequential {
        next: u64,
    },
    Zipfian(Zipfian),
    Scrambled(Zipfian),
    Hotspot {
        hot_keys: u64,
        hot_op_fraction: f64,
    },
    Latest {
        zipf: Zipfian,
        churn_period: u64,
        head: u64,
        issued: u64,
    },
}

impl KeyChooser {
    /// Number of keys this chooser draws from.
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// Draw the next key index in `[0, keys)`.
    pub fn next(&mut self, rng: &mut StdRng) -> u64 {
        let keys = self.keys;
        match &mut self.core {
            ChooserCore::Uniform => rng.random_range(0..keys),
            ChooserCore::Sequential { next } => {
                let k = *next;
                *next = (*next + 1) % keys;
                k
            }
            ChooserCore::Zipfian(z) => z.sample(rng),
            ChooserCore::Scrambled(z) => {
                let rank = z.sample(rng);
                fnv1a64(rank) % keys
            }
            ChooserCore::Hotspot {
                hot_keys,
                hot_op_fraction,
            } => {
                if rng.random_bool(*hot_op_fraction) {
                    rng.random_range(0..*hot_keys)
                } else if *hot_keys == keys {
                    rng.random_range(0..keys)
                } else {
                    rng.random_range(*hot_keys..keys)
                }
            }
            ChooserCore::Latest {
                zipf,
                churn_period,
                head,
                issued,
            } => {
                if *churn_period > 0 && *issued > 0 && *issued % *churn_period == 0 {
                    *head = (*head + 1) % keys;
                }
                *issued += 1;
                let dist = zipf.sample(rng); // 0 = newest
                (*head + keys - dist % keys) % keys
            }
        }
    }
}

/// FNV-1a 64-bit hash of a u64's little-endian bytes (YCSB's
/// scrambling hash).
pub fn fnv1a64(value: u64) -> u64 {
    mnemo_codec::fnv64(&value.to_le_bytes())
}

/// Gray et al. "Quickly generating billion-record synthetic databases"
/// zipfian sampler over `[0, n)` — the algorithm inside YCSB's
/// `ZipfianGenerator`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Build a sampler for `n` items with skew `theta` in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0, "need at least one item");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0,1), got {theta}"
        );
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Draw a rank in `[0, n)`; rank 0 is the hottest item.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n >= 2 && uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let raw = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        raw.min(self.n - 1)
    }

    /// Exact probability of rank `k` (for CDF plots and tests).
    pub fn probability(&self, rank: u64) -> f64 {
        assert!(rank < self.n);
        1.0 / ((rank + 1) as f64).powf(self.theta) / self.zetan
    }
}

/// Generalised harmonic number `H_{n,theta}`.
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn counts(kind: DistKind, keys: u64, draws: usize, seed: u64) -> Vec<u64> {
        let mut chooser = kind.chooser(keys);
        let mut rng = rng(seed);
        let mut counts = vec![0u64; keys as usize];
        for _ in 0..draws {
            counts[chooser.next(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn all_choosers_stay_in_range() {
        let kinds = [
            DistKind::Uniform,
            DistKind::Sequential,
            DistKind::Zipfian { theta: 0.99 },
            DistKind::ScrambledZipfian { theta: 0.99 },
            DistKind::Hotspot {
                hot_fraction: 0.2,
                hot_op_fraction: 0.8,
            },
            DistKind::Latest {
                theta: 0.99,
                churn_period: 10,
            },
        ];
        for kind in kinds {
            let mut chooser = kind.chooser(97);
            let mut r = rng(1);
            for _ in 0..10_000 {
                assert!(chooser.next(&mut r) < 97, "{} out of range", kind.name());
            }
        }
    }

    #[test]
    fn sequential_round_robins() {
        let mut chooser = DistKind::Sequential.chooser(3);
        let mut r = rng(0);
        let seq: Vec<u64> = (0..7).map(|_| chooser.next(&mut r)).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn uniform_is_flat() {
        let c = counts(DistKind::Uniform, 100, 100_000, 2);
        let expected = 1000.0;
        for (k, &n) in c.iter().enumerate() {
            let dev = (n as f64 - expected).abs() / expected;
            assert!(dev < 0.25, "key {k}: count {n}");
        }
    }

    #[test]
    fn zipfian_head_matches_theory() {
        let keys = 1000u64;
        let draws = 200_000;
        let c = counts(DistKind::Zipfian { theta: 0.99 }, keys, draws, 3);
        let z = Zipfian::new(keys, 0.99);
        // The Gray et al. sampler draws ranks 0 and 1 exactly; higher
        // ranks come from a continuous approximation with a small bias, so
        // only sanity-check those.
        for rank in [0u64, 1] {
            let expect = z.probability(rank) * draws as f64;
            let got = c[rank as usize] as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.15, "rank {rank}: got {got}, expect {expect:.0}");
        }
        // Heavy head, decaying tail.
        assert!(c[0] > c[1] && c[1] > c[5] && c[5] > c[500]);
        let head_share: u64 = c[..100].iter().sum();
        assert!(
            head_share as f64 / draws as f64 > 0.5,
            "top-10% share {head_share}"
        );
    }

    #[test]
    fn zipfian_probabilities_sum_to_one() {
        let z = Zipfian::new(500, 0.99);
        let sum: f64 = (0..500).map(|k| z.probability(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let keys = 1000u64;
        let c = counts(DistKind::ScrambledZipfian { theta: 0.99 }, keys, 100_000, 4);
        // The hottest key must NOT be key 0 (that's the plain zipfian
        // signature); scrambling moves it somewhere pseudo-random.
        let hottest = c.iter().enumerate().max_by_key(|(_, &n)| n).unwrap().0;
        assert_ne!(hottest, 0);
        // And the same *mass concentration* as plain zipfian: few keys
        // carry a large share.
        let mut sorted = c.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = sorted.iter().take(10).sum();
        assert!(top10 as f64 / 100_000.0 > 0.3, "top-10 share {top10}");
    }

    #[test]
    fn hotspot_splits_mass_as_configured() {
        let keys = 1000u64;
        let c = counts(
            DistKind::Hotspot {
                hot_fraction: 0.2,
                hot_op_fraction: 0.8,
            },
            keys,
            100_000,
            5,
        );
        let hot: u64 = c[..200].iter().sum();
        let share = hot as f64 / 100_000.0;
        assert!((share - 0.8).abs() < 0.02, "hot share {share}");
    }

    #[test]
    fn hotspot_full_hot_set_degenerates_to_uniform() {
        let c = counts(
            DistKind::Hotspot {
                hot_fraction: 1.0,
                hot_op_fraction: 0.5,
            },
            50,
            50_000,
            6,
        );
        for &n in &c {
            assert!(n > 500, "count {n}");
        }
    }

    #[test]
    fn latest_without_churn_concentrates_on_newest() {
        let keys = 1000u64;
        let c = counts(
            DistKind::Latest {
                theta: 0.99,
                churn_period: 0,
            },
            keys,
            100_000,
            7,
        );
        // Newest key = keys-1 must be the hottest.
        let hottest = c.iter().enumerate().max_by_key(|(_, &n)| n).unwrap().0;
        assert_eq!(hottest, keys as usize - 1);
    }

    #[test]
    fn latest_with_churn_spreads_over_time() {
        let keys = 1000u64;
        // Head advances every 10 requests: over 100k requests it wraps the
        // key space 10 times, so aggregate counts are much flatter.
        let c = counts(
            DistKind::Latest {
                theta: 0.99,
                churn_period: 10,
            },
            keys,
            100_000,
            8,
        );
        let touched = c.iter().filter(|&&n| n > 0).count();
        assert!(
            touched > 900,
            "churning latest should touch nearly all keys, got {touched}"
        );
        let max = *c.iter().max().unwrap() as f64;
        assert!(
            max / 100_000.0 < 0.05,
            "no single key should dominate, max share {max}"
        );
    }

    #[test]
    fn choosers_are_deterministic_per_seed() {
        for kind in [
            DistKind::Zipfian { theta: 0.99 },
            DistKind::Hotspot {
                hot_fraction: 0.1,
                hot_op_fraction: 0.9,
            },
            DistKind::Latest {
                theta: 0.99,
                churn_period: 5,
            },
        ] {
            let a: Vec<u64> = {
                let mut ch = kind.chooser(100);
                let mut r = rng(99);
                (0..50).map(|_| ch.next(&mut r)).collect()
            };
            let b: Vec<u64> = {
                let mut ch = kind.chooser(100);
                let mut r = rng(99);
                (0..50).map(|_| ch.next(&mut r)).collect()
            };
            assert_eq!(a, b, "{}", kind.name());
        }
    }

    #[test]
    fn fnv_is_stable_and_spreading() {
        // Values of the byte-wise fold this hash has always computed.
        assert_eq!(fnv1a64(0), 0xa8c7_f832_281a_39c5);
        assert_eq!(fnv1a64(u64::MAX), 0x8cf5_1a8b_fca3_883d);
        assert_eq!(fnv1a64(0x0123_4567_89ab_cdef), 0x37eb_3f33_4776_1c55);
        assert_ne!(fnv1a64(0), fnv1a64(1));
        // Consecutive inputs land far apart modulo a typical key count.
        let spread: Vec<u64> = (0..10).map(|v| fnv1a64(v) % 10_000).collect();
        let mut sorted = spread.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "no collisions among consecutive inputs");
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn zipfian_rejects_theta_one() {
        let _ = Zipfian::new(10, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn chooser_rejects_zero_keys() {
        let _ = DistKind::Uniform.chooser(0);
    }

    #[test]
    fn single_key_always_zero() {
        let mut ch = DistKind::Zipfian { theta: 0.5 }.chooser(1);
        let mut r = rng(1);
        for _ in 0..100 {
            assert_eq!(ch.next(&mut r), 0);
        }
    }
}
