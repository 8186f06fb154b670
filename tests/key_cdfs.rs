//! Fig. 3's closed-form oracle: the key CDF each Table III preset
//! generates at golden scale (`MNEMO_SCALE=50`, the scale the golden
//! gate runs `fig3` at) against the CDF its key chooser draws from,
//! computed from the chooser's parameters alone.
//!
//! Tolerance: each request draws its key independently, so by the
//! Dvoretzky–Kiefer–Wolfowitz inequality the empirical CDF of `n` draws
//! strays more than `eps` from the true CDF, anywhere, with probability
//! at most `2·exp(−2·n·eps²)`. The test takes the `eps` for a 1e-6
//! chance: `sqrt(ln(2e6) / 2n)`, 0.060 at golden scale's 2,000
//! requests. The zipfian choosers draw ranks with Gray et al.'s
//! sampler, which approximates the zipf mass: at 200 keys and theta
//! 0.99 its key CDF is within 0.011 of the exact mass's, so the
//! scrambled presets get a further 0.02.

use mnemo_bench::{paper_workloads_at, seed_for};
use ycsb::dist::{fnv1a64, Zipfian};
use ycsb::DistKind;

/// The scale divisor the golden gate runs the figure binaries at.
const GOLDEN_SCALE: u64 = 50;

/// Chance that a correct chooser fails the DKW check at a given seed.
const DELTA: f64 = 1e-6;

/// Slack for Gray et al.'s approximation of the zipf mass.
const SAMPLER_ALLOWANCE: f64 = 0.02;

/// DKW's `eps` for `n` independent draws at failure chance [`DELTA`].
fn dkw_eps(n: usize) -> f64 {
    ((2.0 / DELTA).ln() / (2.0 * n as f64)).sqrt()
}

fn cumulative(mass: &[f64]) -> Vec<f64> {
    mass.iter()
        .scan(0.0, |acc, p| {
            *acc += p;
            Some(*acc)
        })
        .collect()
}

/// Hotspot: `hot_op_fraction` of the mass spread evenly over the first
/// `hot_fraction` of the keys, the rest evenly over the others. The
/// CDF is piecewise linear with its knee at the hot set's end.
fn hotspot_cdf(keys: u64, hot_fraction: f64, hot_op_fraction: f64) -> Vec<f64> {
    let hot = ((keys as f64 * hot_fraction).round() as u64).clamp(1, keys);
    let mass: Vec<f64> = (0..keys)
        .map(|k| {
            if k < hot {
                hot_op_fraction / hot as f64
            } else {
                (1.0 - hot_op_fraction) / (keys - hot) as f64
            }
        })
        .collect();
    cumulative(&mass)
}

/// Zipf mass over ranks, each rank moved to key `rank_key(rank)`.
fn zipf_cdf(keys: u64, theta: f64, rank_key: impl Fn(u64) -> u64) -> Vec<f64> {
    let zipf = Zipfian::new(keys, theta);
    let mut mass = vec![0.0; keys as usize];
    for rank in 0..keys {
        mass[rank_key(rank) as usize] += zipf.probability(rank);
    }
    cumulative(&mass)
}

fn sup_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Each hotspot preset's key CDF is piecewise linear, and each
/// scrambled-zipfian preset's is the zipf mass through the chooser's
/// FNV-1a scramble map, both within the DKW tolerance. Each also sits
/// beyond the other family's tolerance, so the check can tell them
/// apart. `latest` (news feed) is excluded: its head advances through
/// the key space as the trace runs, so the static zipf-over-recency
/// form does not describe it, and the test asserts that it does not.
#[test]
fn table3_key_cdfs_match_their_choosers_closed_forms() {
    let mut checked = Vec::new();
    for spec in paper_workloads_at(GOLDEN_SCALE) {
        let trace = spec.generate(seed_for(&spec.name));
        let observed = trace.key_cdf();
        let eps = dkw_eps(trace.len());
        let keys = spec.keys;
        let hotspot = hotspot_cdf(keys, 0.2, 0.8);
        let scrambled = zipf_cdf(keys, 0.99, |rank| fnv1a64(rank) % keys);
        let (expected, other, tolerance) = match spec.distribution {
            DistKind::Hotspot {
                hot_fraction,
                hot_op_fraction,
            } => (
                hotspot_cdf(keys, hot_fraction, hot_op_fraction),
                scrambled,
                eps,
            ),
            DistKind::ScrambledZipfian { theta } => (
                zipf_cdf(keys, theta, |rank| fnv1a64(rank) % keys),
                hotspot,
                eps + SAMPLER_ALLOWANCE,
            ),
            DistKind::Latest {
                theta,
                churn_period,
            } => {
                assert!(churn_period > 0, "{}: latest without churn", spec.name);
                let fixed_head = zipf_cdf(keys, theta, |rank| keys - 1 - rank);
                let d = sup_distance(&observed, &fixed_head);
                assert!(
                    d > eps + SAMPLER_ALLOWANCE,
                    "{}: churning latest within {d:.4} of the fixed-head closed form",
                    spec.name
                );
                continue;
            }
            other => panic!("{}: no Table III preset uses {}", spec.name, other.name()),
        };
        let d = sup_distance(&observed, &expected);
        assert!(
            d <= tolerance,
            "{} ({}): key CDF {d:.4} from its closed form, tolerance {tolerance:.4}",
            spec.name,
            spec.distribution.name()
        );
        let d = sup_distance(&observed, &other);
        assert!(
            d > tolerance,
            "{}: the other family's closed form is only {d:.4} away",
            spec.name
        );
        checked.push(spec.name);
    }
    assert_eq!(
        checked,
        ["trending", "timeline", "edit thumbnail", "trending preview"]
    );
}
