//! Transport parameters.

use tlb_engine::SimTime;
use tlb_net::{MSS_BYTES, RWND_BYTES};

/// TCP endpoint configuration shared by all flows of a simulation.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Maximum segment payload in bytes.
    pub mss: u32,
    /// Lower bound for the retransmission timeout, and the RTO used before
    /// any RTT sample exists.
    pub min_rto: SimTime,
    /// Upper bound for backed-off RTOs.
    pub max_rto: SimTime,
}

impl TcpConfig {
    /// TCP/IP header overhead added to each data segment on the wire.
    pub const HEADER_BYTES: u32 = 40;
    /// Initial congestion window in segments (Eq. 3 assumes 2).
    pub const INIT_CWND: f64 = 2.0;
    /// Duplicate ACKs triggering fast retransmit.
    pub const DUPACK_THRESHOLD: u32 = 3;
    /// DCTCP's EWMA gain `g` for the marked-fraction estimate `α` (1/16).
    pub const DCTCP_G: f64 = 1.0 / 16.0;

    /// DCTCP endpoints as used throughout the paper's NS2 simulations:
    /// MSS 1460 B ([`MSS_BYTES`]), IW 2, 64 KB receive window, 10 ms minimum RTO (the usual
    /// datacenter NS2 setting).
    pub fn dctcp_default() -> TcpConfig {
        TcpConfig {
            mss: MSS_BYTES,
            min_rto: SimTime::from_millis(10),
            max_rto: SimTime::from_secs(2),
        }
    }

    /// The Mininet-testbed flavour (§7): 20 Mbit/s links, millisecond RTTs,
    /// a conventional 200 ms minimum RTO.
    pub fn testbed_default() -> TcpConfig {
        TcpConfig {
            min_rto: SimTime::from_millis(200),
            max_rto: SimTime::from_secs(4),
            ..TcpConfig::dctcp_default()
        }
    }

    /// The receive window ([`RWND_BYTES`]) in whole segments (at least 1).
    pub fn rwnd_segs(&self) -> u32 {
        (RWND_BYTES / self.mss).max(1)
    }

    /// Upper bound on [`crate::SenderOutput`]s a *single* sender entry
    /// point can append to its output buffer, derived from the state
    /// machine rather than guessed at the call site:
    ///
    /// * the worst case is a partial ACK in fast recovery: 1 retransmission,
    ///   then up to `rwnd_segs` window-limited fresh sends (the effective
    ///   window is capped by `rwnd_segs` and flight is nonnegative), then
    ///   1 lazy `ArmTimer`;
    /// * every other path is smaller: RTO emits retransmit + re-arm (2),
    ///   fast retransmit emits retransmit + arm (2), flow completion emits
    ///   FIN + Finished (2) and returns before `send_available`.
    ///
    /// The simulator sizes its reusable output buffer from this and the
    /// allocation audit asserts it never regrows — so if a future sender
    /// change widens the worst case, the gate catches the stale bound.
    pub fn max_outputs_per_call(&self) -> usize {
        self.rwnd_segs() as usize + 2
    }

    /// Check configuration consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.mss == 0 {
            return Err("mss must be positive".into());
        }
        if self.min_rto.is_zero() {
            return Err("min_rto must be positive".into());
        }
        if self.max_rto < self.min_rto {
            return Err("max_rto < min_rto".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        TcpConfig::dctcp_default().validate().unwrap();
        TcpConfig::testbed_default().validate().unwrap();
    }

    #[test]
    fn rwnd_is_44_segments() {
        // 65535 / 1460 = 44 full segments — the paper's W_L cap.
        assert_eq!(TcpConfig::dctcp_default().rwnd_segs(), 44);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let ok = TcpConfig::dctcp_default();
        let mut bad = ok;
        bad.mss = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.min_rto = SimTime::ZERO;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.max_rto = SimTime::from_nanos(1);
        assert!(bad.validate().is_err());
    }
}
