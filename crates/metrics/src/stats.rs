//! Percentiles, means and empirical CDFs.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Largest value; 0 for an empty slice (the shared benign-empty
/// convention). Non-empty slices fold from `-inf` so all-negative data
/// reports its true maximum — seeding the fold with `0.0` would silently
/// clamp it to zero, the bug `SampleSet::max` shipped with.
pub fn max(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Smallest value; 0 for an empty slice. Folds from `+inf` on non-empty
/// data for the same reason [`max`] folds from `-inf`.
pub fn min(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `p`-quantile (0 ≤ p ≤ 1) of **sorted** data using the
/// nearest-rank-with-interpolation convention. Panics in debug builds if
/// the slice is unsorted.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty data");
    assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile input must be sorted"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// An empirical cumulative distribution function built from samples.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from (unsorted) samples.
    pub fn from_samples(mut samples: Vec<f64>) -> Cdf {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The value at quantile `p`.
    pub fn quantile(&self, p: f64) -> f64 {
        percentile(&self.sorted, p)
    }

    /// Evenly spaced (value, cumulative-fraction) points for plotting,
    /// `n` of them.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2);
        if self.sorted.is_empty() {
            return Vec::new();
        }
        (0..n)
            .map(|i| {
                let p = i as f64 / (n - 1) as f64;
                (self.quantile(p), p)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn min_max_handle_all_negative_and_empty() {
        assert_eq!(max(&[]), 0.0);
        assert_eq!(min(&[]), 0.0);
        assert_eq!(max(&[-3.0, -1.0, -2.0]), -1.0);
        assert_eq!(min(&[-3.0, -1.0, -2.0]), -3.0);
        assert_eq!(max(&[4.0, -7.0]), 4.0);
        assert_eq!(min(&[4.0, -7.0]), -7.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        let ys = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&ys, 0.5), 3.0);
        assert_eq!(percentile(&ys, 0.25), 2.0);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        let _ = percentile(&[], 0.5);
    }

    #[test]
    fn cdf_fraction_below() {
        let c = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_below(0.5), 0.0);
        assert_eq!(c.fraction_below(2.0), 0.5);
        assert_eq!(c.fraction_below(10.0), 1.0);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let c = Cdf::from_samples(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        let pts = c.points(11);
        assert_eq!(pts.len(), 11);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(pts[0].0, 1.0);
        assert_eq!(pts[10].0, 5.0);
    }

    proptest! {
        /// percentile is monotone in p and bounded by min/max.
        #[test]
        fn prop_percentile_monotone(
            mut xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
            p1 in 0.0f64..1.0,
            p2 in 0.0f64..1.0,
        ) {
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let v_lo = percentile(&xs, lo);
            let v_hi = percentile(&xs, hi);
            prop_assert!(v_lo <= v_hi + 1e-9);
            prop_assert!(v_lo >= xs[0] - 1e-9);
            prop_assert!(v_hi <= xs[xs.len() - 1] + 1e-9);
        }

        /// fraction_below(quantile(p)) >= p - 1/n: the interpolated-quantile
        /// convention can undershoot by at most one sample's mass.
        #[test]
        fn prop_cdf_consistency(
            xs in proptest::collection::vec(0.0f64..100.0, 1..100),
            p in 0.0f64..1.0,
        ) {
            let n = xs.len() as f64;
            let c = Cdf::from_samples(xs);
            let q = c.quantile(p);
            prop_assert!(c.fraction_below(q) >= p - 1.0 / n - 1e-9);
        }
    }
}
