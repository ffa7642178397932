//! Order statistics for repeated timings and the FNV-1a outcome digest.

/// Median, quartiles and range of a set of samples. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so the figures here match the ones an outside
/// script computes from the same samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the middle two for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarize `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        let (q1, q3) = if n == 1 {
            (s[0], s[0])
        } else {
            (exclusive_quartile(&s, 1), exclusive_quartile(&s, 3))
        };
        Some(Summary {
            n,
            median,
            q1,
            q3,
            min: s[0],
            max: s[n - 1],
        })
    }
}

/// Quartile `i` (1..=3) of sorted data by the exclusive method: position
/// `i (n + 1) / 4`, clamped to the data and linearly interpolated.
fn exclusive_quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Nearest-rank percentile of unsorted integer samples (0 when empty).
pub fn percentile_u64(samples: &mut [u64], pct: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(idx).1
}

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorb bytes.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Absorb one integer, little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(
            (s.q1, s.median, s.q3, s.min, s.max),
            (1.0, 2.0, 3.0, 1.0, 3.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
    }

    #[test]
    fn nearest_rank_percentile() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_u64(&mut v, 99.0), 99);
        assert_eq!(percentile_u64(&mut v, 50.0), 50);
        assert_eq!(percentile_u64(&mut [], 99.0), 0);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
