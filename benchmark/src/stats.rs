//! Order statistics for repetition samples.

/// Median of `v` (mean of the two middle values for an even count).
/// Zero for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(v, n=4)` uses (exclusive), so a spread computed
/// here matches one computed there. Fewer than two values have no spread:
/// both quartiles are the value itself.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, clamped into the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Median absolute deviation from the median.
pub fn mad(v: &[f64]) -> f64 {
    let m = median(v);
    let dev: Vec<f64> = v.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Nearest-rank percentile, `p` in `[0, 100]`. Zero for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The summary reported beside every timing metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median: the metric's value.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Median absolute deviation.
    pub mad: f64,
    /// The samples, in repetition order.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarises `samples`.
    pub fn of(samples: Vec<f64>) -> Summary {
        let (q1, q3) = quartiles(&samples);
        Summary {
            n: samples.len(),
            median: median(&samples),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            q3,
            mad: mad(&samples),
            samples,
        }
    }

    /// A metric that is counted, not sampled: one exact value.
    pub fn exact(value: f64) -> Summary {
        Summary::of(vec![value])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 6.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 1.0, 1.0, 1.0, 100.0]), 0.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn summary_carries_min_and_quartiles() {
        let s = Summary::of(vec![2.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!((s.n, s.median, s.min, s.q1, s.q3), (7, 4.0, 1.0, 2.0, 6.0));
        let one = Summary::exact(5.0);
        assert_eq!(
            (one.n, one.median, one.q1, one.q3, one.mad),
            (1, 5.0, 5.0, 5.0, 0.0)
        );
    }
}
