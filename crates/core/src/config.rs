//! TLB configuration (paper §4–§7 parameter sets).

use tlb_engine::SimTime;

/// How the long-flow switching threshold is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThresholdMode {
    /// Recompute `q_th` from the Eq. 9 model every update interval — the
    /// paper's TLB.
    Adaptive,
    /// Pin `q_th` to a constant (bytes). Used by the Fig. 7 verification
    /// harness, which searches for the smallest fixed threshold that meets
    /// all deadlines, and by ablations.
    Fixed(u64),
}

/// All tunables of the TLB scheme. Field defaults mirror the paper.
#[derive(Clone, Copy, Debug)]
pub struct TlbConfig {
    /// Granularity update interval `t` (paper: 500 µs, following CONGA),
    /// which is also the idle-flow sampling window (§5: a record without
    /// packets for one interval is dropped at the next update).
    pub update_interval: SimTime,
    /// Round-trip propagation delay `RTT` the model assumes.
    pub rtt: SimTime,
    /// Lower bound of the short-flow deadline distribution.
    pub deadline_lo: SimTime,
    /// Upper bound of the short-flow deadline distribution.
    pub deadline_hi: SimTime,
    /// Which percentile of the deadline distribution to protect (paper
    /// §6.3: the 25th percentile gives the best trade-off; Fig. 12 sweeps
    /// 5th/25th/50th/75th).
    pub deadline_percentile: f64,
    /// Prior for the mean short-flow size `X` in bytes (paper §4.2: 70 KB).
    pub mean_short_prior: f64,
    /// If true, refine `X` online with an EWMA over completed short flows.
    pub estimate_mean_short: bool,
    /// Threshold selection mode.
    pub threshold_mode: ThresholdMode,
}

impl TlbConfig {
    /// Bytes after which a flow is reclassified as long (paper §5: 100 KB).
    pub const SHORT_THRESHOLD_BYTES: u64 = 100_000;
    /// EWMA gain of the online `X` estimate.
    pub const EWMA_GAIN: f64 = 0.1;

    /// The NS2-simulation parameter set (§4.2/§6.1): 1 Gbit/s, 100 µs RTT,
    /// t = 500 µs, deadlines U[5 ms, 25 ms], D at the 25th percentile.
    pub fn paper_default() -> TlbConfig {
        TlbConfig {
            update_interval: SimTime::from_micros(500),
            rtt: SimTime::from_micros(100),
            deadline_lo: SimTime::from_millis(5),
            deadline_hi: SimTime::from_millis(25),
            deadline_percentile: 0.25,
            mean_short_prior: 70_000.0,
            estimate_mean_short: false,
            threshold_mode: ThresholdMode::Adaptive,
        }
    }

    /// The Mininet-testbed parameter set (§7): 20 Mbit/s links, ~8 ms RTT,
    /// 15 ms update interval, deadlines U[2 s, 6 s], D at the 25th
    /// percentile (3 s).
    pub fn testbed_default() -> TlbConfig {
        TlbConfig {
            update_interval: SimTime::from_millis(15),
            rtt: SimTime::from_millis(8),
            deadline_lo: SimTime::from_secs(2),
            deadline_hi: SimTime::from_secs(6),
            deadline_percentile: 0.25,
            mean_short_prior: 70_000.0,
            estimate_mean_short: false,
            threshold_mode: ThresholdMode::Adaptive,
        }
    }

    /// The protected deadline `D`: the configured percentile of the
    /// (uniform) deadline distribution.
    pub fn deadline(&self) -> SimTime {
        let lo = self.deadline_lo.as_nanos() as f64;
        let hi = self.deadline_hi.as_nanos() as f64;
        SimTime::from_nanos((lo + self.deadline_percentile * (hi - lo)).round() as u64)
    }

    /// Check configuration consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.update_interval.is_zero() {
            return Err("update_interval must be positive".into());
        }
        if self.deadline_hi < self.deadline_lo {
            return Err("deadline_hi < deadline_lo".into());
        }
        if !(0.0..=1.0).contains(&self.deadline_percentile) {
            return Err(format!(
                "deadline_percentile out of [0,1]: {}",
                self.deadline_percentile
            ));
        }
        if self.mean_short_prior <= 0.0 {
            return Err("mean_short_prior must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_deadline_is_10ms() {
        // U[5 ms, 25 ms] at the 25th percentile = 10 ms (paper §4.2).
        assert_eq!(
            TlbConfig::paper_default().deadline(),
            SimTime::from_millis(10)
        );
    }

    #[test]
    fn testbed_deadline_is_3s() {
        // U[2 s, 6 s] at the 25th percentile = 3 s (paper §7).
        assert_eq!(
            TlbConfig::testbed_default().deadline(),
            SimTime::from_secs(3)
        );
    }

    #[test]
    fn percentile_sweep_matches_fig12() {
        // The Fig. 12 variants: 5th/25th/50th/75th of U[5, 25] ms.
        let mut cfg = TlbConfig::paper_default();
        for (pct, expect_ms) in [(0.05, 6), (0.25, 10), (0.5, 15), (0.75, 20)] {
            cfg.deadline_percentile = pct;
            assert_eq!(cfg.deadline(), SimTime::from_millis(expect_ms));
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let ok = TlbConfig::paper_default();
        ok.validate().unwrap();
        let mut bad = ok;
        bad.deadline_percentile = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.deadline_hi = SimTime::ZERO;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.update_interval = SimTime::ZERO;
        assert!(bad.validate().is_err());
    }
}
