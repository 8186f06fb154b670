//! Order statistics for reported timings and for `compare`.

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Samples needed before the `q` tail percentile (`q < 1`) has
/// [`MIN_BEYOND`] samples beyond it (100 for p90, 1000 for p99).
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| n - rank(n, q) >= MIN_BEYOND)
        .expect("a tail below 1 leaves samples beyond it")
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of sorted samples, with the count beyond it.
fn nearest_rank(sorted: &[f64], q: f64) -> (f64, usize) {
    let n = sorted.len();
    let r = rank(n, q);
    (sorted[r - 1], n - r)
}

/// The median (nearest rank); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    nearest_rank(&sorted(samples), 0.5).0
}

/// The nearest-rank `q` percentile, refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &[f64], q: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("no samples for the p{}", q * 100.0));
    }
    let (value, beyond) = nearest_rank(&sorted(samples), q);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {} samples has only {beyond} beyond it (need {MIN_BEYOND}, i.e. {} samples)",
            q * 100.0,
            samples.len(),
            min_samples(q)
        ));
    }
    Ok(value)
}

/// The first and third quartiles as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_percentile() {
        for q in [0.90, 0.99] {
            let need = min_samples(q);
            for n in [need, need + 1, need * 3 + 7] {
                let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let p = tail(&samples, q).unwrap();
                let beyond = samples.iter().filter(|&&s| s > p).count();
                assert!(beyond >= MIN_BEYOND, "q {q}, n {n}: {beyond} beyond");
            }
            let short: Vec<f64> = (0..need - 1).map(|i| i as f64).collect();
            assert!(tail(&short, q).is_err(), "q {q} with {} samples", need - 1);
        }
        assert_eq!((min_samples(0.90), min_samples(0.99)), (100, 1000));
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 4], n=4) == [1.0, 4.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
