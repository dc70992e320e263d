//! The sending endpoint: slow start, congestion avoidance, NewReno fast
//! recovery, RTO, the 64 KB receive-window cap, and DCTCP window control.

use crate::config::TcpConfig;
use tlb_engine::SimTime;
use tlb_net::{packet::PktFlags, FlowId, HostId, Packet, PktKind};

/// Actions the sender asks the simulation driver to perform. The sender
/// never touches the event queue itself.
#[derive(Clone, Copy, Debug)]
pub enum SenderOutput {
    /// Transmit this packet (enqueue on the host NIC).
    Send(Packet),
    /// Ensure a retransmission-timer event fires at `deadline`. The driver
    /// schedules a timer event; on firing it calls [`TcpSender::on_timer`],
    /// which re-arms if the deadline has since moved.
    ArmTimer { deadline: SimTime },
    /// All data has been cumulatively acknowledged; a FIN was just emitted.
    Finished,
}

/// Sender-side counters consumed by the evaluation figures.
#[derive(Clone, Copy, Debug, Default)]
pub struct SenderStats {
    /// First transmissions of data segments.
    pub data_sent: u64,
    /// All retransmissions (fast + timeout + recovery partial-ACK).
    pub retransmits: u64,
    /// Fast-retransmit events (3 duplicate ACKs).
    pub fast_retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Duplicate ACKs received — the Fig. 3(b) metric.
    pub dup_acks: u64,
    /// Cumulatively acknowledged segments.
    pub acked_segs: u64,
    /// ACKs carrying an ECN echo.
    pub ece_acks: u64,
    /// DCTCP window reductions applied.
    pub dctcp_cuts: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// SYN sent, waiting for SYN-ACK.
    Handshake,
    /// Transferring data.
    Established,
    /// Hybrid fidelity only: the packet-mode prefix is fully acknowledged
    /// and the rest of the flow is in flight as a fluid transfer. The
    /// sender is quiescent (no retransmissions, no FIN) until the driver
    /// reports the fluid tail done ([`TcpSender::fluid_done`]) or reroutes
    /// the flow back to packets ([`TcpSender::fluid_demote`]).
    FluidWait,
    /// All data acknowledged; FIN emitted.
    Closed,
}

/// One flow's sender. Sequence numbers count whole segments (each `MSS`
/// bytes of payload except possibly the last).
#[derive(Debug)]
pub struct TcpSender {
    cfg: TcpConfig,
    flow: FlowId,
    host: HostId,
    peer: HostId,
    total_segs: u32,
    last_payload: u32,
    /// Hybrid fidelity: bytes beyond the truncated packet prefix are being
    /// delivered by the fluid tier. While set, finishing the prefix parks
    /// the sender in [`Phase::FluidWait`] instead of emitting the FIN.
    fluid_tail: bool,

    phase: Phase,
    snd_una: u32,
    snd_nxt: u32,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    in_recovery: bool,
    recover: u32,

    // Retransmission timer (lazy re-arm: at most one pending event).
    timer_pending: bool,
    deadline: SimTime,
    /// When the pending timer event was armed; `deadline` may only move
    /// forward from here while `timer_pending` (audit invariant).
    armed_at: SimTime,
    rto: SimTime,
    srtt: Option<f64>,
    rttvar: f64,
    /// Karn's algorithm: one outstanding RTT sample `(covers_seq, sent_at)`;
    /// valid only if nothing was retransmitted since it was taken.
    rtt_sample: Option<(u32, SimTime)>,
    syn_sent_at: Option<SimTime>,

    // DCTCP observation window.
    alpha: f64,
    ce_cnt: u64,
    ack_cnt: u64,
    obs_window_end: u32,

    stats: SenderStats,
}

impl TcpSender {
    /// Create a sender for `size_bytes` of payload from `host` to `peer`.
    pub fn new(
        cfg: TcpConfig,
        flow: FlowId,
        host: HostId,
        peer: HostId,
        size_bytes: u64,
    ) -> TcpSender {
        cfg.validate().expect("invalid TCP configuration");
        assert!(size_bytes > 0, "zero-length flow");
        let mss = cfg.mss as u64;
        let total_segs = size_bytes.div_ceil(mss) as u32;
        let last_payload = (size_bytes - (total_segs as u64 - 1) * mss) as u32;
        TcpSender {
            ssthresh: cfg.rwnd_segs() as f64,
            cwnd: TcpConfig::INIT_CWND,
            rto: cfg.min_rto,
            cfg,
            flow,
            host,
            peer,
            total_segs,
            last_payload,
            fluid_tail: false,
            phase: Phase::Handshake,
            snd_una: 0,
            snd_nxt: 0,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            timer_pending: false,
            deadline: SimTime::ZERO,
            armed_at: SimTime::ZERO,
            srtt: None,
            rttvar: 0.0,
            rtt_sample: None,
            syn_sent_at: None,
            alpha: 0.0,
            ce_cnt: 0,
            ack_cnt: 0,
            obs_window_end: 0,
            stats: SenderStats::default(),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &SenderStats {
        &self.stats
    }

    /// Total segments this flow will transfer.
    pub fn total_segs(&self) -> u32 {
        self.total_segs
    }

    /// Highest cumulatively acknowledged segment.
    pub fn acked_segs(&self) -> u32 {
        self.snd_una
    }

    /// Current congestion window in segments.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Current DCTCP marked-fraction estimate `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimTime {
        self.rto
    }

    /// True once every byte has been acknowledged.
    pub fn is_finished(&self) -> bool {
        self.phase == Phase::Closed
    }

    /// True while the flow's tail is being delivered by the fluid tier
    /// (hybrid fidelity only).
    pub fn in_fluid(&self) -> bool {
        self.fluid_tail
    }

    /// True once the handshake completed and while unacked packet-path
    /// data remains (the only phase [`TcpSender::hybrid_truncate`] accepts).
    pub fn is_established(&self) -> bool {
        self.phase == Phase::Established
    }

    /// Total payload bytes the packet path is responsible for under the
    /// current segment plan (shrinks at [`TcpSender::hybrid_truncate`],
    /// grows back at [`TcpSender::fluid_demote`]).
    pub fn payload_bytes_total(&self) -> u64 {
        (self.total_segs as u64 - 1) * self.cfg.mss as u64 + self.last_payload as u64
    }

    /// True while in NewReno fast recovery.
    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// Oldest unacknowledged segment (alias of [`TcpSender::acked_segs`]
    /// under its RFC name, for invariant checks).
    pub fn snd_una(&self) -> u32 {
        self.snd_una
    }

    /// Next segment to be sent for the first time.
    pub fn snd_nxt(&self) -> u32 {
        self.snd_nxt
    }

    /// Smoothed RTT estimate in seconds, once a valid sample exists.
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    /// True while a retransmission-timer event is outstanding.
    pub fn timer_pending(&self) -> bool {
        self.timer_pending
    }

    /// The pending timer's deadline (meaningful while
    /// [`TcpSender::timer_pending`]).
    pub fn timer_deadline(&self) -> SimTime {
        self.deadline
    }

    /// Check the sender's structural invariants; returns a description of
    /// the first violated one. The simulator's conservation audit calls
    /// this for every live sender at end of run.
    pub fn invariant_violation(&self) -> Option<String> {
        if self.snd_una > self.snd_nxt {
            return Some(format!(
                "snd_una {} > snd_nxt {}",
                self.snd_una, self.snd_nxt
            ));
        }
        if self.cwnd < 1.0 {
            return Some(format!("cwnd {} < 1 segment", self.cwnd));
        }
        if self.timer_pending && self.deadline < self.armed_at {
            return Some(format!(
                "pending timer deadline {} precedes its arming time {}",
                self.deadline, self.armed_at
            ));
        }
        None
    }

    /// Begin the connection: emit the SYN and arm the handshake timer.
    pub fn start(&mut self, now: SimTime, out: &mut Vec<SenderOutput>) {
        debug_assert_eq!(self.phase, Phase::Handshake);
        let syn = Packet::control(self.flow, self.host, self.peer, PktKind::Syn, 0, now);
        self.syn_sent_at = Some(now);
        out.push(SenderOutput::Send(syn));
        self.arm(now, out);
    }

    /// Deliver an incoming packet (SYN-ACK or ACK) to the sender.
    pub fn on_packet(&mut self, pkt: &Packet, now: SimTime, out: &mut Vec<SenderOutput>) {
        debug_assert_eq!(pkt.flow, self.flow);
        match (self.phase, pkt.kind) {
            (Phase::Handshake, PktKind::SynAck) => {
                self.phase = Phase::Established;
                if let Some(t0) = self.syn_sent_at.take() {
                    self.rtt_update(now.saturating_sub(t0));
                }
                self.send_available(now, out);
                self.arm(now, out);
            }
            (Phase::Established, PktKind::Ack) => {
                self.on_ack(pkt.seq, pkt.ece(), now, out);
            }
            // Stray packets (late SYN-ACKs, ACKs after close) are ignored.
            _ => {}
        }
    }

    /// The retransmission timer fired.
    pub fn on_timer(&mut self, now: SimTime, out: &mut Vec<SenderOutput>) {
        self.timer_pending = false;
        if self.phase == Phase::Closed || self.phase == Phase::FluidWait {
            // FluidWait: the prefix is fully acknowledged, so there is
            // nothing to retransmit; the fluid tier owns the rest.
            return;
        }
        if now < self.deadline {
            // ACKs pushed the deadline forward since this event was
            // scheduled: re-arm for the remainder.
            out.push(SenderOutput::ArmTimer {
                deadline: self.deadline,
            });
            self.timer_pending = true;
            self.armed_at = now;
            return;
        }
        self.stats.timeouts += 1;
        self.rto = (self.rto * 2).min(self.cfg.max_rto);
        match self.phase {
            Phase::Handshake => {
                let syn = Packet::control(self.flow, self.host, self.peer, PktKind::Syn, 0, now);
                // Karn's rule applies to the handshake too: once the SYN is
                // retransmitted, a SYN-ACK can't be attributed to either
                // copy, so no RTT sample may be taken from it. (Re-stamping
                // `syn_sent_at = Some(now)` here would credit a SYN-ACK
                // elicited by the *original* SYN with a falsely small RTT.)
                self.syn_sent_at = None;
                out.push(SenderOutput::Send(syn));
            }
            Phase::Established => {
                // RFC 5681 timeout response: collapse to one segment and
                // retransmit the oldest outstanding data.
                let flight = (self.snd_nxt - self.snd_una).max(1) as f64;
                self.ssthresh = (flight / 2.0).max(2.0);
                self.cwnd = 1.0;
                self.dup_acks = 0;
                self.in_recovery = false;
                self.retransmit(self.snd_una, now, out);
            }
            Phase::Closed | Phase::FluidWait => unreachable!(),
        }
        self.arm(now, out);
    }

    // ---- hybrid fidelity (fluid tail) ------------------------------------

    /// Hand every not-yet-sent byte to the fluid tier: truncate the
    /// segment plan at `snd_nxt` so the in-flight packet prefix drains (and
    /// retransmits) normally, and return the tail bytes the fluid model
    /// now owns. The FIN is deferred until [`TcpSender::fluid_done`] (or
    /// the flow re-enters packet mode via [`TcpSender::fluid_demote`]), so
    /// SYN/FIN handshakes stay packet-level in both fidelities.
    ///
    /// Callable once per flow, while established with unsent data; every
    /// segment in the remaining prefix carries a full MSS payload (the
    /// original short tail segment moved to the fluid side).
    pub fn hybrid_truncate(&mut self) -> u64 {
        assert_eq!(
            self.phase,
            Phase::Established,
            "truncate needs an open flow"
        );
        assert!(!self.fluid_tail, "flow already migrated to the fluid tier");
        assert!(
            self.snd_nxt < self.total_segs,
            "truncate with nothing unsent"
        );
        let unsent = (self.total_segs - self.snd_nxt) as u64;
        let tail = (unsent - 1) * self.cfg.mss as u64 + self.last_payload as u64;
        self.total_segs = self.snd_nxt;
        self.last_payload = self.cfg.mss;
        self.fluid_tail = true;
        if self.snd_una >= self.total_segs {
            // The surviving prefix is already fully acknowledged: go
            // quiescent immediately (no ACKs are due to wake us).
            self.phase = Phase::FluidWait;
        }
        tail
    }

    /// The fluid tier delivered the flow's tail. If the packet prefix is
    /// already acknowledged this emits the FIN now; otherwise the FIN
    /// follows naturally when the last prefix ACK arrives.
    pub fn fluid_done(&mut self, now: SimTime, out: &mut Vec<SenderOutput>) {
        debug_assert!(self.fluid_tail, "fluid_done without a fluid tail");
        self.fluid_tail = false;
        if self.phase == Phase::FluidWait {
            self.finish(now, out);
        }
    }

    /// A failure broke the fluid flow's path: re-enter packet mode with
    /// `rem_bytes` still to deliver. The tail bytes re-join the segment
    /// plan after the prefix; if the prefix was already drained, sending
    /// resumes immediately (the load balancer reroutes the new packets
    /// around the failure like any others). Returns the segments added.
    pub fn fluid_demote(
        &mut self,
        rem_bytes: u64,
        now: SimTime,
        out: &mut Vec<SenderOutput>,
    ) -> u32 {
        debug_assert!(self.fluid_tail, "demote without a fluid tail");
        debug_assert!(rem_bytes > 0, "demote with nothing left to send");
        self.fluid_tail = false;
        let add = rem_bytes.div_ceil(self.cfg.mss as u64) as u32;
        self.last_payload = (rem_bytes - (add as u64 - 1) * self.cfg.mss as u64) as u32;
        self.total_segs += add;
        if self.phase == Phase::FluidWait {
            self.phase = Phase::Established;
        }
        if self.phase == Phase::Established {
            self.send_available(now, out);
            self.deadline = now + self.rto;
            self.arm(now, out);
        }
        add
    }

    // ---- internals -------------------------------------------------------

    fn on_ack(&mut self, ack: u32, ece: bool, now: SimTime, out: &mut Vec<SenderOutput>) {
        if ack > self.snd_nxt {
            // Acknowledgment for data never sent (corrupted or forged):
            // RFC 9293 says drop it.
            return;
        }
        self.ack_cnt += 1;
        if ece {
            self.ce_cnt += 1;
            self.stats.ece_acks += 1;
        }

        if ack > self.snd_una {
            let newly = (ack - self.snd_una) as u64;
            self.stats.acked_segs += newly;
            // Karn: only un-retransmitted samples survive to here.
            if let Some((covers, sent_at)) = self.rtt_sample {
                if ack > covers {
                    self.rtt_update(now.saturating_sub(sent_at));
                    self.rtt_sample = None;
                }
            }
            self.snd_una = ack;

            if self.in_recovery {
                if ack >= self.recover {
                    // Full ACK: leave recovery, deflate to ssthresh.
                    self.cwnd = self.ssthresh;
                    self.in_recovery = false;
                    self.dup_acks = 0;
                } else {
                    // NewReno partial ACK: the next hole is lost too.
                    self.retransmit(self.snd_una, now, out);
                    self.cwnd = (self.cwnd - newly as f64 + 1.0).max(1.0);
                }
            } else {
                self.dup_acks = 0;
                self.dctcp_window_check(ack);
                if self.cwnd < self.ssthresh {
                    // Slow start: one segment per ACKed segment.
                    self.cwnd += newly as f64;
                } else {
                    // Congestion avoidance: ~one segment per RTT.
                    self.cwnd += newly as f64 / self.cwnd;
                }
            }

            if self.snd_una >= self.total_segs {
                if self.fluid_tail {
                    // Prefix drained but the fluid tail is still in
                    // flight: go quiescent, FIN waits for fluid_done.
                    self.phase = Phase::FluidWait;
                    return;
                }
                self.finish(now, out);
                return;
            }
            self.send_available(now, out);
            self.deadline = now + self.rto; // RTO restarts on progress
            self.arm(now, out);
        } else if ack == self.snd_una && self.snd_nxt > self.snd_una {
            // Duplicate ACK.
            self.stats.dup_acks += 1;
            self.dup_acks += 1;
            if self.in_recovery {
                // Window inflation keeps the pipe full during recovery.
                self.cwnd += 1.0;
                self.send_available(now, out);
            } else if self.dup_acks == TcpConfig::DUPACK_THRESHOLD {
                self.stats.fast_retransmits += 1;
                let flight = (self.snd_nxt - self.snd_una) as f64;
                self.ssthresh = (flight / 2.0).max(2.0);
                self.recover = self.snd_nxt;
                self.in_recovery = true;
                self.cwnd = self.ssthresh + TcpConfig::DUPACK_THRESHOLD as f64;
                self.retransmit(self.snd_una, now, out);
                self.deadline = now + self.rto;
                self.arm(now, out);
            }
        }
        // ack < snd_una: old ACK, ignore.
    }

    /// DCTCP: once per observation window, fold the marked fraction into α
    /// and, if the window saw any marks, cut cwnd by α/2 (entering
    /// congestion avoidance at the new size).
    fn dctcp_window_check(&mut self, ack: u32) {
        if ack < self.obs_window_end {
            return;
        }
        if self.ack_cnt > 0 {
            let f = self.ce_cnt as f64 / self.ack_cnt as f64;
            let g = TcpConfig::DCTCP_G;
            self.alpha = (1.0 - g) * self.alpha + g * f;
            if self.ce_cnt > 0 {
                self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(1.0);
                self.ssthresh = self.cwnd.max(2.0);
                self.stats.dctcp_cuts += 1;
            }
        }
        self.ce_cnt = 0;
        self.ack_cnt = 0;
        self.obs_window_end = self.snd_nxt;
    }

    fn effective_window(&self) -> u32 {
        let w = self.cwnd.floor().max(1.0) as u32;
        w.min(self.cfg.rwnd_segs())
    }

    fn payload_of(&self, seq: u32) -> u32 {
        if seq + 1 == self.total_segs {
            self.last_payload
        } else {
            self.cfg.mss
        }
    }

    fn send_available(&mut self, now: SimTime, out: &mut Vec<SenderOutput>) {
        let wnd = self.effective_window();
        while self.snd_nxt < self.total_segs && self.snd_nxt - self.snd_una < wnd {
            let seq = self.snd_nxt;
            let mut pkt = Packet::data(
                self.flow,
                self.host,
                self.peer,
                seq,
                self.payload_of(seq),
                TcpConfig::HEADER_BYTES,
                now,
            );
            if seq + 1 == self.total_segs {
                pkt.flags.set(PktFlags::LAST_SEG, true);
            }
            if self.rtt_sample.is_none() {
                self.rtt_sample = Some((seq, now));
            }
            out.push(SenderOutput::Send(pkt));
            self.snd_nxt += 1;
            self.stats.data_sent += 1;
        }
    }

    fn retransmit(&mut self, seq: u32, now: SimTime, out: &mut Vec<SenderOutput>) {
        let mut pkt = Packet::data(
            self.flow,
            self.host,
            self.peer,
            seq,
            self.payload_of(seq),
            TcpConfig::HEADER_BYTES,
            now,
        );
        pkt.flags.set(PktFlags::RETX, true);
        if seq + 1 == self.total_segs {
            pkt.flags.set(PktFlags::LAST_SEG, true);
        }
        out.push(SenderOutput::Send(pkt));
        self.stats.retransmits += 1;
        // Karn's rule: outstanding samples are ambiguous now.
        self.rtt_sample = None;
    }

    fn finish(&mut self, now: SimTime, out: &mut Vec<SenderOutput>) {
        self.phase = Phase::Closed;
        let fin = Packet::control(
            self.flow,
            self.host,
            self.peer,
            PktKind::Fin,
            self.total_segs,
            now,
        );
        out.push(SenderOutput::Send(fin));
        out.push(SenderOutput::Finished);
    }

    fn rtt_update(&mut self, sample: SimTime) {
        let s = sample.as_secs_f64();
        match self.srtt {
            None => {
                self.srtt = Some(s);
                self.rttvar = s / 2.0;
            }
            Some(r) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (r - s).abs();
                self.srtt = Some(0.875 * r + 0.125 * s);
            }
        }
        let rto = SimTime::from_secs_f64(self.srtt.unwrap() + 4.0 * self.rttvar);
        self.rto = rto.max(self.cfg.min_rto).min(self.cfg.max_rto);
    }

    fn arm(&mut self, now: SimTime, out: &mut Vec<SenderOutput>) {
        let desired = now + self.rto;
        if desired > self.deadline {
            self.deadline = desired;
        }
        if !self.timer_pending {
            out.push(SenderOutput::ArmTimer {
                deadline: self.deadline,
            });
            self.timer_pending = true;
            self.armed_at = now;
        }
    }
}

#[cfg(test)]
mod tests;
