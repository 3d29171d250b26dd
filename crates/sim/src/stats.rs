//! Measurement statistics: latency histograms and confidence intervals.
//!
//! The paper reports latency distributions (Fig. 5b/e/h) and means with 95%
//! confidence intervals over five repetitions (Fig. 6). [`Histogram`] is a
//! log-bucketed (HDR-style) histogram with ~3% value resolution and fixed
//! memory; [`mean_ci95`] computes Student-t confidence intervals.

use serde::{Deserialize, Serialize};

/// Number of exact buckets for small values (also the sub-bucket granularity).
const FIRST: u64 = 64;
/// Sub-buckets per power-of-two group above [`FIRST`].
const SUB: u64 = 32;
/// Total bucket count covering the full `u64` range.
const BUCKETS: usize = (FIRST + (64 - 6 - 1) * SUB) as usize;

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Values below 64 are exact; above that, relative error is bounded by
/// 1/32 ≈ 3%, which is ample for reproducing latency box plots.
///
/// # Examples
///
/// ```
/// use mts_sim::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.percentile(50.0);
/// assert!((470..=530).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("mean", &self.mean())
            .finish()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < FIRST {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros() as u64; // >= 6
            let group = msb - 5; // >= 1
            let sub = (value >> group) - SUB; // in [0, 32)
            (FIRST + (group - 1) * SUB + sub) as usize
        }
    }

    fn bucket_low(index: usize) -> u64 {
        let index = index as u64;
        if index < FIRST {
            index
        } else {
            let group = (index - FIRST) / SUB + 1;
            let sub = (index - FIRST) % SUB;
            (SUB + sub) << group
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value.
    fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket_of(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Returns the number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the exact mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Returns the smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Returns the largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Returns the value at percentile `p` in `[0, 100]`.
    ///
    /// Exact for small values, within ~3% above; returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        if p >= 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_low(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Returns the number of samples whose bucket lies at or below the
    /// bucket containing `bound` — a cumulative count with the same ~3%
    /// bucket resolution as [`Histogram::percentile`]. Used to export
    /// Prometheus-style cumulative `le` bucket series.
    pub fn count_le(&self, bound: u64) -> u64 {
        let b = Self::bucket_of(bound).min(self.counts.len() - 1);
        self.counts[..=b].iter().sum()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Produces a compact summary of the distribution.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            p25: self.percentile(25.0),
            p50: self.percentile(50.0),
            p75: self.percentile(75.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
            max: self.max(),
        }
    }
}

/// A compact five-number-plus summary of a distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: u64,
    /// 25th percentile.
    pub p25: u64,
    /// Median.
    pub p50: u64,
    /// 75th percentile.
    pub p75: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile — the tail the SLO panels report.
    pub p999: u64,
    /// Maximum sample.
    pub max: u64,
}

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Returns the number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Returns the mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Returns the sample variance (0 with fewer than two samples).
    fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Returns the sample standard deviation.
    fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Two-sided Student-t critical values at 95% confidence, by degrees of
/// freedom 1..=30. Beyond 30 we use the normal approximation 1.96.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Returns `(mean, half_width)` of the 95% confidence interval of the mean.
///
/// With fewer than two samples the half-width is zero. This mirrors the
/// paper's reporting: five repetitions, mean with 95% confidence.
pub fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mut w = Welford::new();
    for &s in samples {
        w.add(s);
    }
    if n < 2 {
        return (w.mean(), 0.0);
    }
    let t = if n - 1 <= 30 { T95[n - 2] } else { 1.96 };
    let half = t * w.stddev() / (n as f64).sqrt();
    (w.mean(), half)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.count(), 64);
        assert!((h.mean() - 31.5).abs() < 1e-9);
    }

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        // For any value, the bucket's lower bound is within 1/32 below it.
        for shift in 6..62 {
            for off in [0u64, 1, 13, 37] {
                let v = (1u64 << shift) + off * ((1u64 << shift) / 64).max(1);
                let low = Histogram::bucket_low(Histogram::bucket_of(v));
                assert!(low <= v, "low {low} > v {v}");
                assert!((v - low) as f64 <= v as f64 / 32.0 + 1.0, "v={v} low={low}");
            }
        }
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i) % 10_000_000;
            h.record(x);
        }
        let mut last = 0;
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= last, "p{p} regressed: {v} < {last}");
            last = v;
        }
        assert_eq!(h.percentile(100.0), h.max());
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in 0..1000u64 {
            let val = v * 97 % 50_000;
            if v % 2 == 0 {
                a.record(val);
            } else {
                b.record(val);
            }
            c.record(val);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
        assert_eq!(a.percentile(50.0), c.percentile(50.0));
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn welford_matches_closed_form() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.add(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic data set is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn ci95_five_samples_uses_t_distribution() {
        let samples = [10.0, 12.0, 11.0, 9.0, 13.0];
        let (mean, half) = mean_ci95(&samples);
        assert!((mean - 11.0).abs() < 1e-12);
        // stddev = sqrt(2.5), t(4) = 2.776 => half = 2.776*sqrt(2.5)/sqrt(5).
        let expect = 2.776 * 2.5f64.sqrt() / 5f64.sqrt();
        assert!((half - expect).abs() < 1e-9);
    }

    #[test]
    fn ci95_degenerate_cases() {
        assert_eq!(mean_ci95(&[]), (0.0, 0.0));
        assert_eq!(mean_ci95(&[5.0]), (5.0, 0.0));
        let (m, h) = mean_ci95(&[3.0, 3.0, 3.0]);
        assert_eq!((m, h), (3.0, 0.0));
    }

    #[test]
    fn summary_fields_are_ordered() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert!(s.min <= s.p25 && s.p25 <= s.p50);
        assert!(s.p50 <= s.p75 && s.p75 <= s.p90);
        assert!(s.p90 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max);
        assert_eq!(s.count, 10_000);
    }

    #[test]
    fn p999_is_exact_on_small_value_distribution() {
        // Values below 64 land in exact (width-1) buckets, so every
        // quantile on them is exact. 1000 samples of 0..=49: rank for
        // p99.9 is ceil(0.999*1000)=999, i.e. the 999th smallest = 49.
        let mut h = Histogram::new();
        for v in 0..50u64 {
            h.record_n(v, 20);
        }
        assert_eq!(h.percentile(99.9), 49);
        assert_eq!(h.percentile(50.0), 24);
        assert_eq!(h.summary().p999, 49);
    }

    #[test]
    fn p999_on_known_uniform_distribution_is_within_bucket_resolution() {
        // Uniform 1..=100_000: true p99.9 = 99_900. Log buckets above 64
        // have <= 1/32 relative width, so assert within 3.2%.
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p999 = h.percentile(99.9);
        let err = (p999 as f64 - 99_900.0).abs() / 99_900.0;
        assert!(err <= 0.032, "p999={p999} err={err}");
        // And the heavy-tail case: 999 samples at 10, one at 1_000_000.
        // p999 must surface the outlier (within bucket resolution) even
        // though p50/p99 sit on the bulk of the distribution.
        let mut t = Histogram::new();
        t.record_n(10, 999);
        t.record(1_000_000);
        assert_eq!(t.percentile(50.0), 10);
        assert_eq!(t.summary().p99, 10);
        let tail = t.summary().p999;
        let tail_err = (tail as f64 - 1_000_000.0).abs() / 1_000_000.0;
        assert!(tail_err <= 0.032, "p999={tail}");
        assert_eq!(t.percentile(100.0), 1_000_000);
    }

    #[test]
    fn count_le_matches_exact_counts_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count_le(0), 1);
        assert_eq!(h.count_le(31), 32);
        assert_eq!(h.count_le(63), 64);
        assert_eq!(h.count_le(1 << 40), 64);
    }

    #[test]
    fn count_le_is_monotone_and_bounded() {
        let mut h = Histogram::new();
        let mut x = 7u64;
        for i in 0..5_000u64 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(i) % 3_000_000;
            h.record(x);
        }
        let mut last = 0;
        for bound in [10, 100, 1_000, 10_000, 100_000, 1_000_000, u64::MAX] {
            let c = h.count_le(bound);
            assert!(c >= last, "count_le not monotone at {bound}");
            last = c;
        }
        assert_eq!(h.count_le(u64::MAX), h.count());
    }
}
