//! Estimators.  Everything the benchmark reports goes through these
//! functions, so their behaviour on small samples is pinned by unit tests.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) by the nearest-rank rule on the
/// sorted sample: the smallest value with at least `p` % of the sample at
/// or below it.  `values` must be non-empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The benchmark's estimate of an undisturbed value from a metric's
/// samples: the mean of the better tenth of them (at least two values) — the
/// lowest for lower-is-better metrics, the highest for higher-is-better
/// ones.
///
/// The sandbox's noise is one-sided: a slow spell of the host only ever
/// makes a sample slower, and in a bad quarter of an hour three samples in
/// four are touched, so the median of the samples and even their better
/// quartile move with the host (README, noise rule 1).  Averaging the best
/// few instead of taking the single best keeps one lucky sample from
/// setting the value.
pub fn better_tail(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "estimate from an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if better == Better::Higher {
        sorted.reverse();
    }
    let k = values.len().div_ceil(10).max(2).min(values.len());
    sorted[..k].iter().sum::<f64>() / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Order of the input does not matter; ties are fine.
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[2.0], 90.0), 2.0);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }

    #[test]
    fn better_tail_averages_the_best_tenth() {
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        // A tenth of 30 is 3: mean of 1, 2, 3 and of 28, 29, 30.
        assert_eq!(better_tail(&v, Better::Lower), 2.0);
        assert_eq!(better_tail(&v, Better::Higher), 29.0);
        // One-sided noise: two thirds of the samples three times slower
        // do not move the estimate at all.
        let mut noisy = vec![10.0; 10];
        noisy.extend(vec![30.0; 20]);
        assert_eq!(better_tail(&noisy, Better::Lower), 10.0);
        // Never fewer than two values, so one lucky round cannot set it...
        assert_eq!(better_tail(&[5.0, 4.0, 3.0, 2.0, 1.0], Better::Lower), 1.5);
        assert_eq!(better_tail(&[1.0, 2.0, 3.0, 4.0, 5.0], Better::Higher), 4.5);
        // ...unless there is only one.
        assert_eq!(better_tail(&[7.0], Better::Lower), 7.0);
    }
}
