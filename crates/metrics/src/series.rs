//! Bucketed time series for "instantaneous" metrics.

use tlb_engine::SimTime;

/// Accumulates `(time, value)` observations into fixed-width buckets; reads
/// back per-bucket means, sums or rates. Used for instantaneous throughput
/// (Fig. 9(b)), reordering ratio over time (Fig. 8(a)), queue delay over
/// time (Fig. 8(b)).
#[derive(Clone, Debug)]
pub struct TimeSeries {
    bucket: SimTime,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl TimeSeries {
    /// A series with the given bucket width.
    pub fn new(bucket: SimTime) -> TimeSeries {
        assert!(!bucket.is_zero(), "zero bucket width");
        TimeSeries {
            bucket,
            sums: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Reserve room for every bucket up to `horizon` now, so `add` calls
    /// within the horizon never reallocate mid-run. Nothing is written: a
    /// run that ends long before its horizon touches only the buckets it
    /// reached. `cap` bounds the up-front reservation for absurd
    /// horizon/bucket ratios; observations beyond it fall back to
    /// growth on demand.
    pub fn reserve_until(&mut self, horizon: SimTime, cap: usize) {
        let n = (self.idx(horizon) + 1).min(cap);
        self.sums.reserve_exact(n.saturating_sub(self.sums.len()));
        self.counts
            .reserve_exact(n.saturating_sub(self.counts.len()));
    }

    fn idx(&self, t: SimTime) -> usize {
        (t.as_nanos() / self.bucket.as_nanos()) as usize
    }

    /// Record an observation at time `t`.
    pub fn add(&mut self, t: SimTime, v: f64) {
        let i = self.idx(t);
        if i >= self.sums.len() {
            self.sums.resize(i + 1, 0.0);
            self.counts.resize(i + 1, 0);
        }
        self.sums[i] += v;
        self.counts[i] += 1;
    }

    /// Number of buckets touched so far.
    pub fn n_buckets(&self) -> usize {
        self.sums.len()
    }

    /// Per-bucket `(bucket_start_time_s, mean_value)`; buckets without
    /// observations are skipped.
    pub fn means(&self) -> Vec<(f64, f64)> {
        self.per_bucket(|sum, count| sum / count as f64)
    }

    /// Per-bucket `(bucket_start_time_s, sum)`.
    pub fn sums(&self) -> Vec<(f64, f64)> {
        self.per_bucket(|sum, _| sum)
    }

    /// Per-bucket `(bucket_start_time_s, sum / bucket_seconds)` — e.g.
    /// bytes recorded per bucket become bytes/second.
    pub fn rates(&self) -> Vec<(f64, f64)> {
        let w = self.bucket.as_secs_f64();
        self.per_bucket(move |sum, _| sum / w)
    }

    fn per_bucket(&self, f: impl Fn(f64, u64) -> f64) -> Vec<(f64, f64)> {
        let w = self.bucket.as_secs_f64();
        self.sums
            .iter()
            .zip(&self.counts)
            .enumerate()
            .filter(|(_, (_, &c))| c > 0)
            .map(|(i, (&s, &c))| (i as f64 * w, f(s, c)))
            .collect()
    }

    /// Merge another series into this one, bucket by bucket (sums add,
    /// counts add). Widths must match. Note the merged per-bucket sums add
    /// each shard's subtotal rather than the serial observation order, so
    /// floating-point results may differ from a serial run in the last bits
    /// — merged series are reporting artifacts, not digest material.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(self.bucket, other.bucket, "bucket widths differ");
        if other.sums.len() > self.sums.len() {
            self.sums.resize(other.sums.len(), 0.0);
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, (&s, &c)) in other.sums.iter().zip(&other.counts).enumerate() {
            self.sums[i] += s;
            self.counts[i] += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn buckets_by_time() {
        let mut s = TimeSeries::new(ms(10));
        s.add(ms(1), 2.0);
        s.add(ms(9), 4.0);
        s.add(ms(15), 10.0);
        let m = s.means();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0], (0.0, 3.0));
        assert_eq!(m[1], (0.010, 10.0));
    }

    #[test]
    fn rates_divide_by_width() {
        let mut s = TimeSeries::new(ms(100));
        // 1 MB in a 100 ms bucket = 10 MB/s.
        s.add(ms(50), 1_000_000.0);
        let r = s.rates();
        assert_eq!(r.len(), 1);
        assert!((r[0].1 - 10_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_buckets_skipped() {
        let mut s = TimeSeries::new(ms(1));
        s.add(ms(0), 1.0);
        s.add(ms(5), 1.0);
        assert_eq!(s.n_buckets(), 6);
        assert_eq!(s.means().len(), 2);
        assert_eq!(s.sums().len(), 2);
    }

    #[test]
    fn reserve_until_reserves_without_changing_output() {
        let mut s = TimeSeries::new(ms(1));
        s.reserve_until(ms(10), 1 << 16);
        assert_eq!(s.n_buckets(), 0, "reserving writes no bucket");
        let cap = s.sums.capacity();
        s.add(ms(0), 1.0);
        s.add(ms(9), 3.0);
        assert_eq!(s.sums.capacity(), cap, "adds within horizon must not grow");
        // Zero-count buckets stay invisible to every reader.
        assert_eq!(s.means().len(), 2);
        // The cap bounds the up-front footprint.
        let mut t = TimeSeries::new(ms(1));
        t.reserve_until(ms(1_000_000), 64);
        assert!((64..128).contains(&t.sums.capacity()));
    }

    #[test]
    fn merge_adds_buckets_pairwise() {
        let mut a = TimeSeries::new(ms(1));
        a.add(ms(0), 1.0);
        a.add(ms(2), 2.0);
        let mut b = TimeSeries::new(ms(1));
        b.add(ms(0), 3.0);
        b.add(ms(4), 5.0);
        a.merge(&b);
        assert_eq!(a.means(), vec![(0.0, 2.0), (0.002, 2.0), (0.004, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "zero bucket width")]
    fn zero_bucket_rejected() {
        let _ = TimeSeries::new(SimTime::ZERO);
    }
}
