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
    /// all deadlines, and by the `ablation` regime sweep, which sets fixed
    /// 0, 15 kB and ∞ against adaptive TLB on four regimes.
    Fixed(u64),
}

/// What the TLB control law reads. Field defaults mirror the paper; the
/// mean short-flow size `X` is the model's fixed 70 KB
/// (`tlb_model::ModelParams::paper_defaults`, §4.2).
#[derive(Clone, Copy, Debug)]
pub struct TlbConfig {
    /// Granularity update interval `t` (paper: 500 µs, following CONGA),
    /// which is also the idle-flow sampling window (§5: a record without
    /// packets for one interval is dropped at the next update).
    pub update_interval: SimTime,
    /// Round-trip propagation delay `RTT` the model assumes.
    pub rtt: SimTime,
    /// The protected short-flow deadline `D` (§6.3: one percentile of the
    /// deadline distribution; Fig. 12 sweeps which).
    pub deadline: SimTime,
    /// Threshold selection mode.
    pub threshold_mode: ThresholdMode,
}

impl TlbConfig {
    /// Bytes after which a flow is reclassified as long (paper §5: 100 KB).
    pub const SHORT_THRESHOLD_BYTES: u64 = 100_000;

    /// The NS2-simulation parameter set (§4.2/§6.1): 1 Gbit/s, 100 µs RTT,
    /// t = 500 µs, deadlines U[5 ms, 25 ms].
    pub fn paper_default() -> TlbConfig {
        TlbConfig {
            update_interval: SimTime::from_micros(500),
            rtt: SimTime::from_micros(100),
            // The 25th percentile of U[5 ms, 25 ms].
            deadline: SimTime::from_millis(10),
            threshold_mode: ThresholdMode::Adaptive,
        }
    }

    /// The Mininet-testbed parameter set (§7): 20 Mbit/s links, ~8 ms RTT,
    /// 15 ms update interval, deadlines U[2 s, 6 s].
    pub fn testbed_default() -> TlbConfig {
        TlbConfig {
            update_interval: SimTime::from_millis(15),
            rtt: SimTime::from_millis(8),
            // The 25th percentile of U[2 s, 6 s].
            deadline: SimTime::from_secs(3),
            threshold_mode: ThresholdMode::Adaptive,
        }
    }

    /// Check configuration consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.update_interval.is_zero() {
            return Err("update_interval must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_bad_configs() {
        let ok = TlbConfig::paper_default();
        ok.validate().unwrap();
        TlbConfig::testbed_default().validate().unwrap();
        let mut bad = ok;
        bad.update_interval = SimTime::ZERO;
        assert!(bad.validate().is_err());
    }
}
