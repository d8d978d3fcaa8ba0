//! Deterministic random number generation with named sub-streams.
//!
//! Every stochastic component of the reproduction (trace synthesis, topology
//! generation, BH2's randomized gateway choice, Monte-Carlo analyses) draws
//! from a [`SimRng`]: xoshiro256\*\* seeded through SplitMix64, implemented
//! here so the whole workspace has one audited, stable source of randomness
//! that never changes behaviour under a dependency upgrade.
//!
//! Reproducibility across components uses **forked streams**: deriving a
//! child generator from a parent plus a string label
//! ([`SimRng::fork`]) decorrelates components, so adding a draw in one module
//! cannot perturb the sequence seen by another — a classic simulation
//! pitfall.

/// SplitMix64, used to expand seeds. Reference: Steele, Lea, Flood,
/// "Fast splittable pseudorandom number generators", OOPSLA 2014.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a SplitMix64 stream from a 64-bit seed.
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* generator (Blackman & Vigna). Period 2^256−1, passes BigCrush;
/// the de-facto standard simulation PRNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
    /// Seed identity captured at construction; `fork` derives children from
    /// this, so forking is independent of how far the stream has advanced.
    id: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64, per
    /// the xoshiro authors' recommendation).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = sm.next_u64();
        }
        // All-zero state is the one invalid state; SplitMix64 cannot emit four
        // consecutive zeros, but the guard costs nothing.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s, id: seed }
    }

    /// Derives an independent child stream from this generator's *identity*
    /// (not its current position) and a label. Forking is stable: the same
    /// parent seed and label always produce the same child, regardless of how
    /// many values the parent has already drawn.
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the initial state words.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mix =
            self.id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ self.id.rotate_left(33);
        SimRng::new(h ^ mix)
    }

    /// Derives a child stream from an integer index (e.g. per-repetition).
    pub fn fork_idx(&self, label: &str, idx: u64) -> SimRng {
        let base = self.fork(label);
        SimRng::new(
            base.id ^ idx.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(0x632B_E59B_D9B4_E019),
        )
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's nearly-divisionless rejection method.
        let mut x = self.next();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform usize in `[0, n)`.
    #[inline]
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli draw.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below_usize(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples an index with probability proportional to the `i`-th
    /// weight. Non-finite or negative weights are treated as zero. Returns
    /// `None` if all weights are zero or there are none. The weights are
    /// walked twice (sum, then draw), so callers pass a cheap, cloneable
    /// iterator — such as a filter over a slice — instead of collecting
    /// one.
    pub fn pick_weighted<I>(&mut self, weights: I) -> Option<usize>
    where
        I: IntoIterator<Item = f64>,
        I::IntoIter: Clone,
    {
        let clean = |w: f64| if w.is_finite() && w > 0.0 { w } else { 0.0 };
        let weights = weights.into_iter();
        let total: f64 = weights.clone().map(clean).sum();
        if total <= 0.0 {
            return None;
        }
        let mut x = self.f64() * total;
        let mut last_positive = None;
        for (i, w) in weights.enumerate() {
            let w = clean(w);
            x -= w;
            if x < 0.0 {
                return Some(i);
            }
            if w > 0.0 {
                last_positive = Some(i);
            }
        }
        // Floating point slack: return the last positive-weight index.
        last_positive
    }

    /// Exponential variate with the given mean (`mean = 1/λ`).
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse transform; 1-f64() ∈ (0,1] avoids ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Pareto variate with scale `xm > 0` and shape `alpha > 0`.
    #[inline]
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        debug_assert!(xm > 0.0 && alpha > 0.0);
        xm / (1.0 - self.f64()).powf(1.0 / alpha)
    }

    /// Standard normal variate (Box–Muller, one value per call).
    #[inline]
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        let u1 = 1.0 - self.f64(); // (0,1]
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std * z
    }

    /// Log-normal variate parameterized by the underlying normal's μ and σ.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Poisson variate (Knuth's method; intended for small-to-moderate λ).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        debug_assert!(lambda >= 0.0);
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 64.0 {
            // Normal approximation for large λ keeps this O(1).
            return self.normal(lambda, lambda.sqrt()).round().max(0.0) as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Binomial variate by direct summation (fine for the small `n` used in
    /// switch-size analyses).
    pub fn binomial(&mut self, n: u32, p: f64) -> u32 {
        (0..n).filter(|_| self.chance(p)).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next() == b.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_stable_and_label_sensitive() {
        let parent = SimRng::new(7);
        let mut drawn = parent.clone();
        for _ in 0..100 {
            drawn.next();
        }
        // Fork depends on identity, not position.
        assert_eq!(parent.fork("traffic"), drawn.fork("traffic"));
        assert_ne!(parent.fork("traffic"), parent.fork("topology"));
        assert_ne!(parent.fork_idx("rep", 0), parent.fork_idx("rep", 1));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut r = SimRng::new(5);
        let n = 10u64;
        let mut counts = [0u64; 10];
        let draws = 100_000;
        for _ in 0..draws {
            counts[r.below(n) as usize] += 1;
        }
        let expected = draws as f64 / n as f64;
        for &c in &counts {
            assert!((c as f64 - expected).abs() < expected * 0.1, "counts: {counts:?}");
        }
    }

    #[test]
    fn exp_mean_converges() {
        let mut r = SimRng::new(11);
        let mean = 20.0;
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.exp(mean)).sum();
        assert!((sum / n as f64 - mean).abs() < 0.5);
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = SimRng::new(13);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.15);
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let mut r = SimRng::new(17);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[r.pick_weighted(weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
        assert_eq!(r.pick_weighted([0.0, 0.0]), None);
        assert_eq!(r.pick_weighted([]), None);
        // Negative and NaN weights are ignored rather than corrupting the draw.
        assert_eq!(r.pick_weighted([-1.0, f64::NAN, 2.0]), Some(2));
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut r = SimRng::new(19);
        for &lambda in &[0.5, 4.0, 30.0, 120.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| r.poisson(lambda)).sum();
            let mean = sum as f64 / n as f64;
            assert!((mean - lambda).abs() < lambda.max(1.0) * 0.05, "λ={lambda} mean={mean}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(23);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "50 elements staying put is ~impossible");
    }
}
