//! Integer simulation time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a span of simulated time, in nanoseconds.
///
/// `SimTime` doubles as both an instant and a duration: the simulator's clock
/// starts at [`SimTime::ZERO`] so the two are interchangeable, and keeping a
/// single type avoids a proliferation of conversions in hot paths.
///
/// Arithmetic is checked in debug builds (Rust's native overflow checks); the
/// nanosecond range covers ~584 years of simulated time, far beyond any run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time / the zero-length span.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest nanosecond).
    ///
    /// Panics in debug builds if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s.is_finite() && s >= 0.0, "invalid time: {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time as fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: SimTime) -> SimTime {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// True for the zero time/span.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}ns)", self.0)
    }
}

impl fmt::Display for SimTime {
    /// Human-friendly rendering with an adaptive unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// Compute the serialization (transmission) time of `bytes` on a link of
/// `bytes_per_sec` capacity, rounding up to the next nanosecond so that a
/// busy link is never modelled as infinitely fast. Exact: the product is
/// formed in `u64` (one division, no `u128` call) unless it overflows,
/// past 18 GB, where it falls back to `u128`.
#[inline]
pub fn tx_time(bytes: u64, bytes_per_sec: u64) -> SimTime {
    debug_assert!(bytes_per_sec > 0, "zero-capacity link");
    let ns = match bytes.checked_mul(1_000_000_000) {
        Some(bits) => bits.div_ceil(bytes_per_sec),
        None => tx_time_wide(bytes, bytes_per_sec),
    };
    SimTime::from_nanos(ns)
}

/// [`tx_time`]'s nanoseconds in `u128`, for a product past `u64::MAX`.
#[cold]
fn tx_time_wide(bytes: u64, bytes_per_sec: u64) -> u64 {
    (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_millis(500));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = SimTime::from_micros(100);
        let b = SimTime::from_micros(40);
        assert_eq!((a + b).as_nanos(), 140_000);
        assert_eq!((a - b).as_nanos(), 60_000);
        assert_eq!((a * 3).as_nanos(), 300_000);
        assert_eq!((a / 4).as_nanos(), 25_000);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a), SimTime::from_nanos(4));
    }

    #[test]
    fn tx_time_1500b_at_1gbps() {
        // 1 Gbit/s = 125_000_000 bytes/s; 1500 B should take 12 us.
        let t = tx_time(1500, 125_000_000);
        assert_eq!(t, SimTime::from_micros(12));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bytes/s = 333_333_333.3 ns -> rounds up.
        assert_eq!(tx_time(1, 3).as_nanos(), 333_333_334);
    }

    #[test]
    fn tx_time_equals_the_wide_formula() {
        // The `u64` path and its overflow fallback against the `u128`
        // formula, at packet sizes, around the overflow edge and far past
        // it, on links from 1 B/s to 100 Gbit/s.
        let edge = u64::MAX / 1_000_000_000;
        let sizes = [1, 40, 1500, 1 << 34, edge - 1, edge, edge + 1, u64::MAX / 4];
        let rates = [1, 3, 1_000, 125_000_000, 1_250_000_000, 12_500_000_000];
        for bytes in sizes {
            for rate in rates {
                let wide = (bytes as u128 * 1_000_000_000).div_ceil(rate as u128);
                if let Ok(ns) = u64::try_from(wide) {
                    assert_eq!(
                        tx_time(bytes, rate).as_nanos(),
                        ns,
                        "{bytes} B at {rate} B/s"
                    );
                }
            }
        }
        assert!(edge.checked_mul(1_000_000_000).is_some());
        assert!((edge + 1).checked_mul(1_000_000_000).is_none());
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_iterator() {
        let total: SimTime = (1..=4).map(SimTime::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }
}
