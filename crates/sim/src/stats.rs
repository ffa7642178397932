//! Online statistics used to aggregate experiment results.

/// Welford online mean / variance accumulator.
///
/// Numerically stable single-pass algorithm; suitable for aggregating the
/// 10 repetitions the paper reports per experiment point as well as
/// per-function measurements inside one run.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel aggregation).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std dev / mean); 0 when the mean is 0.
    /// The paper reports run-to-run variance below 5%; experiments assert
    /// on this value.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m.abs()
        }
    }

    /// Smallest observation (NaN-free; infinity when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

/// Exact percentile calculator over retained samples.
///
/// Retains all pushed values; meant for per-run distributions (hundreds to
/// tens of thousands of points), not unbounded streams.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Percentile `p` in `[0, 100]` by nearest-rank interpolation; `None`
    /// when empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = p / 100.0 * (self.samples.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Median (p50).
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }
}

/// Fixed-width histogram for recovery-time distributions.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    width: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Histogram over `[lo, hi)` with `bins` equal-width buckets.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0, "invalid histogram bounds");
        Histogram {
            lo,
            width: (hi - lo) / bins as f64,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.bins.len() {
            self.overflow += 1;
        } else {
            self.bins[idx] += 1;
        }
    }

    /// Bucket counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below range / at-or-above range.
    pub fn out_of_range(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }

    /// Total recorded observations including out-of-range.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut all = Welford::new();
        let mut a = Welford::new();
        let mut b = Welford::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            all.push(x);
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_empty_is_safe() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.cv(), 0.0);
        let mut a = Welford::new();
        a.merge(&w);
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn percentiles_basic() {
        let mut p = Percentiles::new();
        for i in 1..=100 {
            p.push(i as f64);
        }
        assert_eq!(p.percentile(0.0), Some(1.0));
        assert_eq!(p.percentile(100.0), Some(100.0));
        let med = p.median().unwrap();
        assert!((med - 50.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_empty() {
        let mut p = Percentiles::new();
        assert_eq!(p.percentile(50.0), None);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-1.0);
        h.record(0.0);
        h.record(9.99);
        h.record(10.0);
        h.record(5.5);
        assert_eq!(h.out_of_range(), (1, 1));
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.bins()[5], 1);
        assert_eq!(h.total(), 5);
    }
}
