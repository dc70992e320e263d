//! Self-contained deterministic pseudo-random number generator.
//!
//! The simulator pins its random stream to the seed alone — not to the
//! version of an external RNG crate — by implementing xoshiro256++
//! (Blackman & Vigna, 2019) directly. The state is seeded from a single
//! `u64` via SplitMix64, the initialization recommended by the authors.

/// Deterministic xoshiro256++ generator with distribution helpers used by
/// the workload generators and randomized load balancers (RPS, LetFlow...).
///
/// ```
/// use tlb_engine::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// assert!(a.gen_range(10) < 10);
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child stream, e.g. one per simulated component,
    /// so that adding randomness in one place does not perturb another.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased multiply-shift
    /// rejection method. Panics if `n == 0`.
    #[inline]
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, n)`; convenience for indexing.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.gen_range(n as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.f64()
    }

    /// Exponentially distributed sample with the given mean (for Poisson
    /// inter-arrival times). Uses inverse-transform sampling; the uniform is
    /// nudged away from zero to keep `ln` finite.
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Sample `k` distinct indices from `[0, n)` (partial Fisher–Yates).
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_distinct: k > n");
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_stream_is_stable() {
        // Regression pin: if this changes, every experiment's random stream
        // changes and EXPERIMENTS.md numbers must be regenerated.
        let mut r = SimRng::new(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180,
                211316841551650330
            ]
        );
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let x = r.gen_range(13);
            assert!(x < 13);
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut r = SimRng::new(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
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
    fn f64_mean_near_half() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exp_mean_matches() {
        let mut r = SimRng::new(5);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn sample_distinct_is_distinct() {
        let mut r = SimRng::new(8);
        for _ in 0..100 {
            let mut s = r.sample_distinct(20, 7);
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 7);
            assert!(s.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(10);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::new(99);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn index_zero_of_one() {
        let mut r = SimRng::new(12);
        assert_eq!(r.index(1), 0);
    }
}
