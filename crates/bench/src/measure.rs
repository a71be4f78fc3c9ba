//! Measurement utilities for the DelayClin / CD◦Lin experiments.
//!
//! `DelayClin` means: preprocessing linear in `‖D‖`, and the delay between two
//! consecutive answers bounded by a constant that does not depend on `D`.
//! These helpers record the preprocessing time and the distribution of
//! per-answer delays so that the experiments can check both halves of the
//! definition empirically.

use std::time::Instant;

/// Timing statistics of one enumeration run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DelayStats {
    /// Wall-clock microseconds spent in the preprocessing closure.
    pub preprocess_micros: u128,
    /// Number of answers produced.
    pub answers: usize,
    /// Total enumeration time in microseconds.
    pub enumeration_micros: u128,
    /// Maximum delay between two consecutive answers (or between the start of
    /// the enumeration phase and the first answer), in nanoseconds.
    pub max_delay_nanos: u128,
    /// 99th-percentile delay in nanoseconds (more robust than the maximum
    /// against operating-system noise).
    pub p99_delay_nanos: u128,
    /// Mean delay in nanoseconds.
    pub mean_delay_nanos: u128,
}

/// Measures a two-phase computation.
///
/// * `preprocess` builds whatever state the enumeration needs;
/// * `enumerate` receives that state and a `tick` callback which it must call
///   once per produced answer.
pub fn measure_stream<S>(
    preprocess: impl FnOnce() -> S,
    enumerate: impl FnOnce(&mut S, &mut dyn FnMut()),
) -> DelayStats {
    let start = Instant::now();
    let mut state = preprocess();
    let preprocess_micros = start.elapsed().as_micros();

    let mut delays: Vec<u128> = Vec::new();
    let enumeration_start = Instant::now();
    let mut last = Instant::now();
    {
        let mut tick = || {
            let now = Instant::now();
            delays.push(now.duration_since(last).as_nanos());
            last = now;
        };
        enumerate(&mut state, &mut tick);
    }
    let enumeration_micros = enumeration_start.elapsed().as_micros();
    finish_stats(preprocess_micros, enumeration_micros, delays)
}

fn finish_stats(
    preprocess_micros: u128,
    enumeration_micros: u128,
    delays: Vec<u128>,
) -> DelayStats {
    let answers = delays.len();
    let total_delay: u128 = delays.iter().sum();
    let max_delay = delays.iter().copied().max().unwrap_or(0);
    let p99_delay = if delays.is_empty() {
        0
    } else {
        let mut sorted = delays.clone();
        sorted.sort_unstable();
        sorted[(sorted.len() - 1).min(sorted.len() * 99 / 100)]
    };
    DelayStats {
        preprocess_micros,
        answers,
        enumeration_micros,
        max_delay_nanos: max_delay,
        p99_delay_nanos: p99_delay,
        mean_delay_nanos: if answers == 0 {
            0
        } else {
            total_delay / answers as u128
        },
    }
}

/// Least-squares slope and the coefficient of determination of `y ~ a·x + b`.
/// Used to report how close a preprocessing-time series is to linear.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx == 0.0 || syy == 0.0 {
        return (0.0, 1.0);
    }
    let slope = sxy / sxx;
    let r2 = (sxy * sxy) / (sxx * syy);
    (slope, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_answers_and_delays() {
        let stats = measure_stream(
            || (0..100).collect::<Vec<u32>>(),
            |state, tick| {
                for _ in state.iter() {
                    tick();
                }
            },
        );
        assert_eq!(stats.answers, 100);
        assert!(stats.max_delay_nanos >= stats.mean_delay_nanos);
    }

    #[test]
    fn empty_enumeration() {
        let stats = measure_stream(|| (), |_, _| {});
        assert_eq!(stats.answers, 0);
        assert_eq!(stats.mean_delay_nanos, 0);
    }

    #[test]
    fn linear_fit_of_a_line() {
        let xs: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        let (slope, r2) = linear_fit(&xs, &ys);
        assert!((slope - 3.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_of_noise_is_not_perfect() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        let ys = vec![1.0, 10.0, 2.0, 20.0];
        let (_, r2) = linear_fit(&xs, &ys);
        assert!(r2 < 0.99);
    }
}
