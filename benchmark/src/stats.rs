//! Order statistics over a handful of repetitions.

/// Five-number summary of one metric over the repetitions of one workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarise `values` (any order; must be non-empty and finite).
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
        Summary {
            n: v.len(),
            min: v[0],
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
            max: v[v.len() - 1],
        }
    }
}

/// Median of `values` (non-empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Linear-interpolated quantile of an ascending slice: position
/// `p·(n−1)`, so `p = 0.5` is the textbook median for odd and even `n`.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        let s = Summary::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 15.0, 17.5));
        assert_eq!(s.n, 2);
    }
}
