//! A bag of scalar samples with summary statistics.

use crate::stats::{max, mean, min, percentile, Cdf};

/// Collects scalar observations (queue lengths, queueing delays, …) and
/// summarizes them. Sorting is deferred to read time.
#[derive(Clone, Debug, Default)]
pub struct SampleSet {
    samples: Vec<f64>,
}

impl SampleSet {
    /// An empty sample set.
    pub fn new() -> SampleSet {
        SampleSet::default()
    }

    /// An empty sample set with room for `cap` observations before the
    /// backing storage grows. Hot-path recorders pre-size from workload
    /// bounds so steady state stays allocation-free.
    pub fn with_capacity(cap: usize) -> SampleSet {
        SampleSet {
            samples: Vec::with_capacity(cap),
        }
    }

    /// Reserve room for `additional` more observations.
    pub fn reserve(&mut self, additional: usize) {
        self.samples.reserve(additional);
    }

    /// Record one observation.
    #[inline]
    pub fn push(&mut self, v: f64) {
        debug_assert!(v.is_finite());
        self.samples.push(v);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        mean(&self.samples)
    }

    /// The `p`-quantile; 0 when empty. Readers that need several
    /// quantiles of the same set should use [`SampleSet::quantiles`],
    /// which sorts once for all of them.
    pub fn quantile(&self, p: f64) -> f64 {
        self.quantiles(&[p])[0]
    }

    /// Batch quantiles over one sorted copy of the samples. Empty sets
    /// yield all zeros.
    pub fn quantiles(&self, ps: &[f64]) -> Vec<f64> {
        if self.samples.is_empty() {
            return vec![0.0; ps.len()];
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        ps.iter().map(|&p| percentile(&sorted, p)).collect()
    }

    /// Largest observation. Empty sets report 0 (the benign-empty
    /// convention shared by every summary here), but non-empty sets fold
    /// from `-inf` — the previous fold from `0.0` silently clamped
    /// all-negative sample sets to zero.
    pub fn max(&self) -> f64 {
        max(&self.samples)
    }

    /// Smallest observation (0 when empty, same convention as `max`).
    pub fn min(&self) -> f64 {
        min(&self.samples)
    }

    /// Raw observations in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Consume into an empirical CDF.
    pub fn into_cdf(self) -> Cdf {
        Cdf::from_samples(self.samples)
    }

    /// Borrowing CDF construction.
    pub fn cdf(&self) -> Cdf {
        Cdf::from_samples(self.samples.clone())
    }

    /// Merge another sample set into this one.
    pub fn merge(&mut self, other: &SampleSet) {
        self.samples.extend_from_slice(&other.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let mut s = SampleSet::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
    }

    #[test]
    fn empty_set_is_benign() {
        let s = SampleSet::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.99), 0.0);
        assert_eq!(s.quantiles(&[0.5, 0.99]), vec![0.0, 0.0]);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn batch_quantiles_match_single_calls() {
        let mut s = SampleSet::new();
        for v in [9.0, 2.0, 5.0, 7.0, 1.0, 8.0, 3.0] {
            s.push(v);
        }
        let ps = [0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0];
        let batch = s.quantiles(&ps);
        for (&p, &q) in ps.iter().zip(&batch) {
            assert_eq!(q.to_bits(), s.quantile(p).to_bits(), "p={p}");
        }
    }

    #[test]
    fn max_of_all_negative_samples_is_negative() {
        // Regression: the old fold seeded with 0.0, so a set of negative
        // observations reported max == 0.0.
        let mut s = SampleSet::new();
        for v in [-5.0, -1.5, -9.0] {
            s.push(v);
        }
        assert_eq!(s.max(), -1.5);
        assert_eq!(s.min(), -9.0);
    }

    #[test]
    fn with_capacity_does_not_grow_within_bound() {
        let mut s = SampleSet::with_capacity(64);
        let cap = s.samples.capacity();
        for v in 0..64 {
            s.push(v as f64);
        }
        assert_eq!(s.samples.capacity(), cap);
    }

    #[test]
    fn merge_combines() {
        let mut a = SampleSet::new();
        a.push(1.0);
        let mut b = SampleSet::new();
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.mean(), 2.0);
    }

    #[test]
    fn cdf_roundtrip() {
        let mut s = SampleSet::new();
        for v in 0..100 {
            s.push(v as f64);
        }
        let cdf = s.into_cdf();
        assert!((cdf.fraction_below(49.0) - 0.5).abs() < 0.02);
    }
}
