//! Deterministic pseudo-random number generation for simulations.
//!
//! Every experiment in the reproduction must be exactly replayable from a
//! single `u64` seed, including when sub-simulations run on different
//! threads. We therefore own the generator: a xoshiro256++ core seeded via
//! SplitMix64, with an explicit [`SimRng::split`] operation that derives
//! statistically independent child streams (one per job, per function, per
//! failure injector, ...) so that adding a consumer never perturbs the draws
//! seen by existing consumers.

/// SplitMix64 step; used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state; splitmix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Derive an independent child stream keyed by `tag`.
    ///
    /// Two calls with the same tag on generators in the same state produce
    /// identical children; different tags produce unrelated children. The
    /// parent is *not* advanced, so consumers can be added without shifting
    /// existing streams.
    pub fn split(&self, tag: u64) -> SimRng {
        let mut sm =
            self.s[0] ^ self.s[2].rotate_left(17) ^ tag.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        if s == [0; 4] {
            s[0] = tag | 1;
        }
        SimRng { s }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift with rejection to avoid modulo bias.
    pub fn u64_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "u64_below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.u64_below(hi - lo)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponentially distributed sample with the given mean. Panics if the
    /// mean is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "exponential mean {mean}");
        // Avoid ln(0): f64() is in [0,1), so 1-f64() is in (0,1].
        -mean * (1.0 - self.f64()).ln()
    }

    /// Normally distributed sample (Box–Muller).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "negative std_dev");
        let u1 = 1.0 - self.f64(); // (0, 1]
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * r * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.u64_below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.u64_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Sample exactly `k` distinct indices from `[0, n)`, in random order.
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} of {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: after k swaps the first k entries are a
        // uniform k-subset in uniform order.
        for i in 0..k {
            let j = i + self.u64_below((n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_is_stable_and_does_not_advance_parent() {
        let parent = SimRng::seed_from_u64(7);
        let mut c1 = parent.split(11);
        let mut c2 = parent.split(11);
        let mut c3 = parent.split(12);
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
        // Parent unchanged by splitting.
        let mut p1 = parent.clone();
        let _ = parent.split(99);
        let mut p2 = parent.clone();
        assert_eq!(p1.next_u64(), p2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn u64_below_respects_bound_and_covers() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = rng.u64_below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SimRng::seed_from_u64(9);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }

    #[test]
    fn bernoulli_rate_roughly_matches() {
        let mut rng = SimRng::seed_from_u64(10);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.15)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.15).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn exponential_mean_roughly_matches() {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn normal_moments_roughly_match() {
        let mut rng = SimRng::seed_from_u64(12);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = SimRng::seed_from_u64(13);
        for _ in 0..100 {
            let s = rng.sample_indices(50, 20);
            assert_eq!(s.len(), 20);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 20, "indices must be distinct");
            assert!(sorted.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from_u64(14);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn u64_below_zero_panics() {
        SimRng::seed_from_u64(0).u64_below(0);
    }
}
