//! Packet-conservation audit: a lifecycle ledger threaded through the
//! simulation driver plus the end-of-run invariant checks it enables.
//!
//! Every figure rests on the simulator's packet accounting being exactly
//! right — a packet silently lost between [`crate::network`]'s `enqueue`
//! and `deliver_to_host` would shift FCT/goodput numbers the same way a
//! real protocol effect would, and nothing else would notice. When
//! [`crate::SimConfig::audit`] is set, the driver reports every lifecycle
//! transition to an [`AuditLedger`]:
//!
//! ```text
//! emit ──> enqueue ──> depart ──> arrive ──┬─> deliver
//!             │                            └─> (re-enqueue
//!             └─> drop (drop-tail)              at next hop)
//! ```
//!
//! A packet departs when its serialization starts and goes on the wire at
//! once, so [`AuditLedger::departed`] counts both its serialization's
//! start and its end; one still serializing when the run ends is moved
//! back from done to in service there ([`AuditLedger::residual_in_service`]).
//!
//! At end of run [`AuditLedger::finish`] proves, per packet class (the
//! transport invariants, last, are checked earlier, as each endpoint
//! closes):
//!
//! - **conservation** — `emitted == delivered + dropped + in-flight at
//!   horizon` (in flight = queued in a port, being serialized, or
//!   propagating on a link);
//! - **stage consistency** — each lifecycle stage's count equals its
//!   predecessor's minus what verifiably remains between them;
//! - **per-port accounting** — `stats.enqueued` equals `stats.pkts_tx +
//!   queued + in-service` and queued bytes match the queued packets, for
//!   every port in the fabric;
//! - **clock monotonicity** — the engine's
//!   [`tlb_engine::EventQueue::monotonicity_violations`] counter is zero;
//! - **transport invariants** — every sender satisfied `snd_una ≤
//!   snd_nxt`, `cwnd ≥ 1`, and `timer pending ⇒ deadline ≥ armed-at`
//!   ([`tlb_transport::TcpSender::invariant_violation`]), and every receiver
//!   its delivery invariants, when it closed — at its flow's end or the
//!   run's, whichever came first ([`AuditLedger::sender_closed`],
//!   [`AuditLedger::receiver_closed`]).
//!
//! Any violation panics with a labelled diff naming the class, the stage
//! equation, and both sides' values. A passing audit is surfaced as
//! [`AuditReport`] in [`crate::RunReport::audit`].
//!
//! The ledger is a handful of `u64` counters per packet class; with the
//! flag off every hook is a no-op, so release figure runs and benches pay
//! nothing.

use tlb_net::{Packet, PktKind};

/// Number of packet classes ([`PktKind`] variants).
const KINDS: usize = 5;

const KIND_NAMES: [&str; KINDS] = ["Syn", "SynAck", "Data", "Ack", "Fin"];

fn kind_idx(kind: PktKind) -> usize {
    match kind {
        PktKind::Syn => 0,
        PktKind::SynAck => 1,
        PktKind::Data => 2,
        PktKind::Ack => 3,
        PktKind::Fin => 4,
    }
}

/// Lifecycle counters for one packet class. Hop-level stages (`enqueued`,
/// `tx_started`, ...) count *events*, so one packet crossing four ports
/// contributes four; endpoint stages (`emitted`, `delivered`) count
/// packets exactly once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Packets handed to the fabric by an endpoint (sender output or a
    /// receiver's response).
    pub emitted: u64,
    /// Port admission attempts (once per hop).
    pub enqueue_attempts: u64,
    /// Port admissions (once per hop).
    pub enqueued: u64,
    /// Drop-tail rejections — the packet is gone.
    pub dropped: u64,
    /// Serializations started (once per hop).
    pub tx_started: u64,
    /// Serializations completed (once per hop).
    pub tx_done: u64,
    /// Arrivals after link propagation (once per hop).
    pub arrived: u64,
    /// Packets that reached their destination endpoint.
    pub delivered: u64,
    /// End of run: packets still sitting in some port's queue.
    pub queued_at_end: u64,
    /// End of run: packets being serialized (their serialization still pending).
    pub in_service_at_end: u64,
    /// End of run: packets propagating on a link (parked in a delivery
    /// pipe).
    pub propagating_at_end: u64,
}

impl KindCounts {
    /// Packets in flight inside the fabric when the run ended.
    pub fn in_flight_at_end(&self) -> u64 {
        self.queued_at_end + self.in_service_at_end + self.propagating_at_end
    }
}

/// The audit outcome surfaced in [`crate::RunReport`]: the full ledger
/// plus what was checked. Present only when the run had
/// [`crate::SimConfig::audit`] set — and then only if every invariant
/// held, since violations panic instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditReport {
    /// Lifecycle counters per packet class, indexed like [`PktKind`].
    pub kinds: [KindCounts; KINDS],
    /// Ports whose accounting was verified (every port in the fabric).
    pub ports_checked: usize,
    /// Senders whose transport invariants were verified: every one the run
    /// opened.
    pub senders_checked: usize,
    /// Receivers whose delivery invariants were verified: every one the
    /// run opened.
    pub receivers_checked: usize,
    /// The engine's clock-violation counter (zero, or the audit panicked).
    pub monotonicity_violations: u64,
}

impl AuditReport {
    /// Total packets emitted into the fabric across all classes.
    pub fn total_emitted(&self) -> u64 {
        self.kinds.iter().map(|k| k.emitted).sum()
    }

    /// Total packets delivered to endpoints across all classes.
    pub fn total_delivered(&self) -> u64 {
        self.kinds.iter().map(|k| k.delivered).sum()
    }

    /// Total drop-tail losses across all classes.
    pub fn total_dropped(&self) -> u64 {
        self.kinds.iter().map(|k| k.dropped).sum()
    }
}

/// The in-run side of the audit: the driver calls one hook per lifecycle
/// transition. Disabled, every hook is a branch-and-return.
#[derive(Debug)]
pub struct AuditLedger {
    enabled: bool,
    kinds: [KindCounts; KINDS],
    senders_checked: usize,
    receivers_checked: usize,
}

impl AuditLedger {
    /// A ledger; when `enabled` is false all hooks no-op and
    /// [`AuditLedger::finish`] returns `None`.
    pub fn new(enabled: bool) -> AuditLedger {
        AuditLedger {
            enabled,
            kinds: [KindCounts::default(); KINDS],
            senders_checked: 0,
            receivers_checked: 0,
        }
    }

    /// Whether hooks record anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Add another ledger's counters into this one (sharded runs keep one
    /// ledger per shard and merge before [`AuditLedger::finish`]). Counter
    /// sums commute, so the merged ledger equals a serial run's.
    pub fn absorb(&mut self, other: &AuditLedger) {
        debug_assert_eq!(self.enabled, other.enabled);
        for (mine, theirs) in self.kinds.iter_mut().zip(&other.kinds) {
            mine.emitted += theirs.emitted;
            mine.enqueue_attempts += theirs.enqueue_attempts;
            mine.enqueued += theirs.enqueued;
            mine.dropped += theirs.dropped;
            mine.tx_started += theirs.tx_started;
            mine.tx_done += theirs.tx_done;
            mine.arrived += theirs.arrived;
            mine.delivered += theirs.delivered;
            mine.queued_at_end += theirs.queued_at_end;
            mine.in_service_at_end += theirs.in_service_at_end;
            mine.propagating_at_end += theirs.propagating_at_end;
        }
        self.senders_checked += other.senders_checked;
        self.receivers_checked += other.receivers_checked;
    }

    #[inline]
    fn at(&mut self, pkt: &Packet) -> &mut KindCounts {
        &mut self.kinds[kind_idx(pkt.kind)]
    }

    /// An endpoint handed `pkt` to the fabric.
    #[inline]
    pub fn emitted(&mut self, pkt: &Packet) {
        if self.enabled {
            self.at(pkt).emitted += 1;
        }
    }

    /// `pkt` was offered to a port (admission not yet decided).
    #[inline]
    pub fn enqueue_attempt(&mut self, pkt: &Packet) {
        if self.enabled {
            self.at(pkt).enqueue_attempts += 1;
        }
    }

    /// A port admitted `pkt`.
    #[inline]
    pub fn enqueued(&mut self, pkt: &Packet) {
        if self.enabled {
            self.at(pkt).enqueued += 1;
        }
    }

    /// Drop-tail rejected `pkt`.
    #[inline]
    pub fn dropped(&mut self, pkt: &Packet) {
        if self.enabled {
            self.at(pkt).dropped += 1;
        }
    }

    /// A port began serializing `pkt` and put it on the wire: its
    /// serialization's start and end both count now.
    #[inline]
    pub fn departed(&mut self, pkt: &Packet) {
        if self.enabled {
            let c = self.at(pkt);
            c.tx_started += 1;
            c.tx_done += 1;
        }
    }

    /// `pkt` arrived at a node after propagation.
    #[inline]
    pub fn arrived(&mut self, pkt: &Packet) {
        if self.enabled {
            self.at(pkt).arrived += 1;
        }
    }

    /// `pkt` reached its destination endpoint.
    #[inline]
    pub fn delivered(&mut self, pkt: &Packet) {
        if self.enabled {
            self.at(pkt).delivered += 1;
        }
    }

    /// The sender of flow `flow` closed, its invariant check finding
    /// `violation`: count it, and panic on the violation.
    pub fn sender_closed(&mut self, flow: usize, violation: Option<String>) {
        if self.enabled {
            self.senders_checked += 1;
            if let Some(v) = violation {
                panic!("packet-conservation audit failed: [sender flow {flow}] {v}");
            }
        }
    }

    /// The receiver of flow `flow` closed, its invariant check finding
    /// `violation`: count it, and panic on the violation.
    pub fn receiver_closed(&mut self, flow: usize, violation: Option<String>) {
        if self.enabled {
            self.receivers_checked += 1;
            if let Some(v) = violation {
                panic!("packet-conservation audit failed: [receiver flow {flow}] {v}");
            }
        }
    }

    /// End of run: `pkt` was still queued in a port.
    #[inline]
    pub fn residual_queued(&mut self, pkt: &Packet) {
        if self.enabled {
            self.at(pkt).queued_at_end += 1;
        }
    }

    /// End of run: `pkt` was mid-serialization. Its serialization, counted
    /// done when it departed, had not ended.
    #[inline]
    pub fn residual_in_service(&mut self, pkt: &Packet) {
        if self.enabled {
            let c = self.at(pkt);
            c.in_service_at_end += 1;
            c.tx_done -= 1;
        }
    }

    /// End of run: `pkt` was propagating (parked in a delivery pipe).
    #[inline]
    pub fn residual_propagating(&mut self, pkt: &Packet) {
        if self.enabled {
            self.at(pkt).propagating_at_end += 1;
        }
    }

    /// Close the ledger: verify every invariant and produce the report.
    ///
    /// The caller supplies the fabric-wide facts the ledger cannot see:
    /// per-port `(enqueued, pkts_tx, queued_now, in_service, byte
    /// mismatch)` tuples via `ports` and the engine's monotonicity counter.
    /// Residual hooks must already have been fed every still-queued and
    /// still-pending packet, and every endpoint must have closed.
    ///
    /// # Panics
    ///
    /// On any violated invariant, with a labelled diff of every failure.
    pub fn finish(self, ports: &[PortAudit], monotonicity_violations: u64) -> Option<AuditReport> {
        if !self.enabled {
            return None;
        }
        let mut violations: Vec<String> = Vec::new();

        for (k, c) in self.kinds.iter().enumerate() {
            let name = KIND_NAMES[k];
            let mut check = |label: &str, lhs: u64, rhs: u64| {
                if lhs != rhs {
                    violations.push(format!(
                        "[{name}] {label}: {lhs} != {rhs} (diff {})",
                        lhs as i128 - rhs as i128
                    ));
                }
            };
            // Conservation: what went in is delivered, dropped, or still
            // verifiably inside the fabric.
            check(
                "conservation: emitted == delivered + dropped + in_flight",
                c.emitted,
                c.delivered + c.dropped + c.in_flight_at_end(),
            );
            // Stage consistency, stage by stage.
            check(
                "every emission or forwarding reaches a port: \
                 enqueue_attempts == emitted + (arrived - delivered)",
                c.enqueue_attempts,
                c.emitted + c.arrived - c.delivered,
            );
            check(
                "admission: enqueued == enqueue_attempts - dropped",
                c.enqueued,
                c.enqueue_attempts - c.dropped,
            );
            check(
                "service: tx_started == enqueued - queued_at_end",
                c.tx_started,
                c.enqueued - c.queued_at_end,
            );
            check(
                "serialization: tx_done == tx_started - in_service_at_end",
                c.tx_done,
                c.tx_started - c.in_service_at_end,
            );
            check(
                "propagation: arrived == tx_done - propagating_at_end",
                c.arrived,
                c.tx_done - c.propagating_at_end,
            );
        }

        // Per-port accounting: every admitted packet is transmitted,
        // queued, or in service — nowhere else.
        let mut port_drops = 0u64;
        for p in ports {
            port_drops += p.dropped;
            let accounted = p.pkts_tx + p.queued_now + p.in_service as u64;
            if p.enqueued != accounted {
                violations.push(format!(
                    "[port {}] stats.enqueued {} != pkts_tx {} + queued {} + in_service {}",
                    p.label, p.enqueued, p.pkts_tx, p.queued_now, p.in_service as u64
                ));
            }
            if p.queued_bytes_stat != p.queued_bytes_actual {
                violations.push(format!(
                    "[port {}] len_bytes {} != sum of queued wire_bytes {}",
                    p.label, p.queued_bytes_stat, p.queued_bytes_actual
                ));
            }
        }
        let ledger_drops: u64 = self.kinds.iter().map(|c| c.dropped).sum();
        if port_drops != ledger_drops {
            violations.push(format!(
                "[ports] total stats.dropped {port_drops} != ledger drops {ledger_drops}"
            ));
        }

        if monotonicity_violations != 0 {
            violations.push(format!(
                "[engine] event clock ran backwards {monotonicity_violations} time(s)"
            ));
        }

        assert!(
            violations.is_empty(),
            "packet-conservation audit failed ({} violation(s)):\n  {}",
            violations.len(),
            violations.join("\n  ")
        );

        Some(AuditReport {
            kinds: self.kinds,
            ports_checked: ports.len(),
            senders_checked: self.senders_checked,
            receivers_checked: self.receivers_checked,
            monotonicity_violations,
        })
    }
}

/// One port's end-of-run accounting snapshot, checked by
/// [`AuditLedger::finish`].
#[derive(Clone, Debug)]
pub struct PortAudit {
    /// Human-readable port name for violation messages.
    pub label: String,
    /// `stats().enqueued`.
    pub enqueued: u64,
    /// `stats().pkts_tx`.
    pub pkts_tx: u64,
    /// `stats().dropped`.
    pub dropped: u64,
    /// `len_pkts()` at end of run.
    pub queued_now: u64,
    /// Its last departed packet was still serializing at end of run.
    pub in_service: bool,
    /// `len_bytes()` at end of run.
    pub queued_bytes_stat: u64,
    /// Sum of queued packets' `wire_bytes` at end of run.
    pub queued_bytes_actual: u64,
}

impl PortAudit {
    /// Snapshot a port whose packets are parked in `arena`, `in_service`
    /// if its last departed packet was still serializing.
    pub fn of(
        label: String,
        port: &tlb_switch::OutPort,
        arena: &tlb_net::PacketArena,
        in_service: bool,
    ) -> PortAudit {
        PortAudit {
            label,
            enqueued: port.stats().enqueued,
            pkts_tx: port.stats().pkts_tx,
            dropped: port.stats().dropped,
            queued_now: port.len_pkts() as u64,
            in_service,
            queued_bytes_stat: port.len_bytes(),
            queued_bytes_actual: port.queued_in(arena).map(|p| p.wire_bytes as u64).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_engine::SimTime;
    use tlb_net::{FlowId, HostId};

    fn pkt(kind: PktKind) -> Packet {
        match kind {
            PktKind::Data => {
                Packet::data(FlowId(1), HostId(0), HostId(1), 0, 1460, 40, SimTime::ZERO)
            }
            k => Packet::control(FlowId(1), HostId(0), HostId(1), k, 0, SimTime::ZERO),
        }
    }

    /// Walk one packet through a clean single-hop lifecycle.
    fn clean_single_hop(ledger: &mut AuditLedger, kind: PktKind) {
        let p = pkt(kind);
        ledger.emitted(&p);
        ledger.enqueue_attempt(&p);
        ledger.enqueued(&p);
        ledger.departed(&p);
        ledger.arrived(&p);
        ledger.delivered(&p);
    }

    #[test]
    fn clean_lifecycle_passes() {
        let mut l = AuditLedger::new(true);
        clean_single_hop(&mut l, PktKind::Syn);
        clean_single_hop(&mut l, PktKind::Data);
        for flow in 0..3 {
            l.sender_closed(flow, None);
            l.receiver_closed(flow, None);
        }
        let report = l.finish(&[], 0).unwrap();
        assert_eq!(report.total_emitted(), 2);
        assert_eq!(report.total_delivered(), 2);
        assert_eq!(report.total_dropped(), 0);
        assert_eq!(report.senders_checked, 3);
        assert_eq!(report.receivers_checked, 3);
    }

    #[test]
    fn multi_hop_forwarding_balances() {
        // One Data packet crossing two ports before delivery.
        let mut l = AuditLedger::new(true);
        let p = pkt(PktKind::Data);
        l.emitted(&p);
        for _ in 0..2 {
            l.enqueue_attempt(&p);
            l.enqueued(&p);
            l.departed(&p);
            l.arrived(&p);
        }
        // First arrival forwards (re-enqueues); second delivers.
        l.delivered(&p);
        l.finish(&[], 0).unwrap();
    }

    #[test]
    fn dropped_and_residual_packets_balance() {
        let mut l = AuditLedger::new(true);
        let p = pkt(PktKind::Data);
        // One dropped at admission.
        l.emitted(&p);
        l.enqueue_attempt(&p);
        l.dropped(&p);
        // One still queued at the horizon.
        l.emitted(&p);
        l.enqueue_attempt(&p);
        l.enqueued(&p);
        l.residual_queued(&p);
        // One still propagating.
        l.emitted(&p);
        l.enqueue_attempt(&p);
        l.enqueued(&p);
        l.departed(&p);
        l.residual_propagating(&p);
        let r = l
            .finish(
                &[PortAudit {
                    label: "test".into(),
                    enqueued: 2,
                    pkts_tx: 1,
                    dropped: 1,
                    queued_now: 1,
                    in_service: false,
                    queued_bytes_stat: 1500,
                    queued_bytes_actual: 1500,
                }],
                0,
            )
            .unwrap();
        assert_eq!(r.kinds[kind_idx(PktKind::Data)].in_flight_at_end(), 2);
    }

    #[test]
    #[should_panic(expected = "conservation")]
    fn lost_packet_is_caught() {
        let mut l = AuditLedger::new(true);
        let p = pkt(PktKind::Data);
        l.emitted(&p);
        l.enqueue_attempt(&p);
        l.enqueued(&p);
        l.departed(&p);
        // The packet vanishes between departure and arrival — no residual
        // accounts for it.
        l.finish(&[], 0);
    }

    #[test]
    #[should_panic(expected = "stats.enqueued")]
    fn port_mismatch_is_caught() {
        let l = AuditLedger::new(true);
        l.finish(
            &[PortAudit {
                label: "leaf0.up3".into(),
                enqueued: 10,
                pkts_tx: 8,
                dropped: 0,
                queued_now: 1,
                in_service: false,
                queued_bytes_stat: 1500,
                queued_bytes_actual: 1500,
            }],
            0,
        );
    }

    #[test]
    #[should_panic(expected = "clock ran backwards")]
    fn monotonicity_violation_is_caught() {
        AuditLedger::new(true).finish(&[], 3);
    }

    #[test]
    #[should_panic(expected = "sender flow 7")]
    fn sender_violation_is_caught() {
        let mut l = AuditLedger::new(true);
        l.sender_closed(7, Some("cwnd 0.5 < 1 segment".into()));
        l.finish(&[], 0);
    }

    #[test]
    #[should_panic(expected = "receiver flow 4")]
    fn receiver_violation_is_caught() {
        let mut l = AuditLedger::new(true);
        l.receiver_closed(
            4,
            Some("rcv_nxt moved backwards: 2 after watermark 5".into()),
        );
        l.finish(&[], 0);
    }

    #[test]
    fn disabled_ledger_reports_nothing() {
        let mut l = AuditLedger::new(false);
        let p = pkt(PktKind::Data);
        l.emitted(&p); // would violate conservation if counted
        l.sender_closed(0, Some("ignored".into()));
        assert!(l.finish(&[], 99).is_none());
    }
}
