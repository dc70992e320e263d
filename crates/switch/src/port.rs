//! One output port: FIFO queue + drop-tail + ECN marking + counters.

use std::collections::VecDeque;
use tlb_engine::{time::tx_time, SimTime};
use tlb_net::{LinkProps, Packet};

/// Queue admission/marking configuration for a port.
#[derive(Clone, Copy, Debug)]
pub struct QueueCfg {
    /// Drop-tail capacity in packets (the paper uses 256 or 512).
    pub capacity_pkts: usize,
    /// DCTCP marking threshold `K` in packets: an ECN-capable packet is
    /// marked CE when, at enqueue, the queue already holds at least this
    /// many packets. `None` disables marking (plain drop-tail TCP).
    pub ecn_threshold_pkts: Option<usize>,
}

impl QueueCfg {
    /// The paper's NS2 setup: 256-packet buffer, DCTCP `K = 20` (the
    /// standard marking threshold for 1 Gbit/s links).
    pub fn paper_default() -> QueueCfg {
        QueueCfg {
            capacity_pkts: 256,
            ecn_threshold_pkts: Some(20),
        }
    }
}

/// Result of offering a packet to a port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Enqueued {
    /// Packet admitted. `marked` reports ECN CE marking; `was_idle` tells
    /// the caller the port had no packet in service or queued before this
    /// one, i.e. serialization of this packet should be scheduled now.
    Queued { marked: bool, was_idle: bool },
    /// Queue full; the packet was dropped.
    Dropped,
}

/// Lifetime counters for one port.
#[derive(Clone, Copy, Debug, Default)]
pub struct PortStats {
    /// Packets admitted to the queue.
    pub enqueued: u64,
    /// Packets rejected by drop-tail.
    pub dropped: u64,
    /// Packets that received a CE mark here.
    pub marked: u64,
    /// Bytes fully serialized onto the wire.
    pub bytes_tx: u64,
    /// Packets fully serialized onto the wire.
    pub pkts_tx: u64,
    /// Time the transmitter spent busy (for utilization).
    pub busy: SimTime,
}

/// An output port: a FIFO of packets plus its outgoing link.
///
/// The port does not schedule events itself — the simulation driver calls
/// [`OutPort::start_service`] / [`OutPort::finish_service`] around the
/// serialization events it schedules, so the port stays a pure data
/// structure that is easy to test.
#[derive(Debug)]
pub struct OutPort {
    link: LinkProps,
    cfg: QueueCfg,
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    /// The packet being serialized, if any: popped from `queue` but its
    /// last bit has not left yet. Owning it here (rather than carrying it
    /// in the end-of-serialization event) keeps the driver's event payload
    /// small and lets audits see the in-flight packet.
    in_service: Option<Packet>,
    /// Serialization time of the in-service packet, memoized at
    /// [`OutPort::start_service`] against the link properties *then* — so
    /// a mid-service [`OutPort::set_link`] neither reschedules the packet
    /// nor mis-accounts its busy time.
    service_tx: SimTime,
    /// Administratively down (failure injection): new packets are dropped
    /// at admission while anything already queued or in flight drains
    /// normally — the counters stay on the same `stats.dropped` path the
    /// conservation audit cross-checks per port.
    down: bool,
    stats: PortStats,
}

impl OutPort {
    /// A fresh, idle port on the given link.
    pub fn new(link: LinkProps, cfg: QueueCfg) -> OutPort {
        OutPort {
            link,
            cfg,
            // Drop-tail caps the queue at `capacity_pkts`, so this is the
            // exact worst case — materializing it up front keeps a port
            // hitting its all-time depth peak mid-run off the allocator
            // (the steady-state allocation gate counts every regrowth).
            // Only the slots a backlog actually reached are ever touched:
            // `start_service` re-bases the ring whenever it drains.
            queue: VecDeque::with_capacity(cfg.capacity_pkts),
            queued_bytes: 0,
            in_service: None,
            service_tx: SimTime::ZERO,
            down: false,
            stats: PortStats::default(),
        }
    }

    /// The outgoing link's properties.
    #[inline]
    pub fn link(&self) -> LinkProps {
        self.link
    }

    /// Replace the link's properties mid-run (failure/degradation
    /// injection). Affects packets serialized from now on; the packet
    /// currently on the wire keeps its old timing.
    pub fn set_link(&mut self, link: LinkProps) {
        self.link = link;
    }

    /// Administratively bring the port down or back up (failure
    /// injection). A down port rejects new packets at admission
    /// ([`OutPort::enqueue`] returns [`Enqueued::Dropped`]) but drains
    /// whatever is already queued or in service, so every packet's fate
    /// stays accounted.
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
    }

    /// True while the port is administratively down.
    #[inline]
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Queue length in packets (excluding the packet in service).
    #[inline]
    pub fn len_pkts(&self) -> usize {
        self.queue.len()
    }

    /// Queue length in bytes (excluding the packet in service).
    #[inline]
    pub fn len_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// True when nothing is queued or being serialized.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_service.is_none()
    }

    /// Serialization time of a packet of `bytes` on this port's link.
    #[inline]
    pub fn tx_time(&self, bytes: u64) -> SimTime {
        tx_time(bytes, self.link.bytes_per_sec)
    }

    /// Offer a packet. Applies drop-tail admission and ECN marking, stamps
    /// `enqueued_at`, and reports whether the caller must kick off
    /// serialization (`was_idle`).
    pub fn enqueue(&mut self, mut pkt: Packet, now: SimTime) -> Enqueued {
        if self.down || self.queue.len() >= self.cfg.capacity_pkts {
            self.stats.dropped += 1;
            return Enqueued::Dropped;
        }
        let mut marked = false;
        if let Some(k) = self.cfg.ecn_threshold_pkts {
            // The instantaneous queue DCTCP marks against includes the
            // packet being serialized: it has left `queue` but not the port.
            let occupancy = self.queue.len() + self.in_service.is_some() as usize;
            if pkt.ecn_capable() && occupancy >= k {
                pkt.mark_ce();
                marked = true;
                self.stats.marked += 1;
            }
        }
        pkt.enqueued_at = now;
        let was_idle = self.is_idle();
        self.queued_bytes += pkt.wire_bytes as u64;
        self.queue.push_back(pkt);
        self.stats.enqueued += 1;
        Enqueued::Queued { marked, was_idle }
    }

    /// Move the head packet into the service slot and mark the
    /// transmitter busy, returning a borrow of it. The caller schedules
    /// the end-of-serialization event `tx_time(pkt)` later and then calls
    /// [`OutPort::finish_service`] to take the packet back out.
    ///
    /// Panics if called while already serializing (a driver bug).
    pub fn start_service(&mut self) -> Option<&Packet> {
        assert!(self.in_service.is_none(), "start_service while busy");
        let pkt = self.queue.pop_front()?;
        if self.queue.is_empty() {
            // Re-base the drained ring at physical slot 0 (all `clear`
            // does to an empty deque): `pop_front` alone never rewinds the
            // head, and a port that idles between packets would march
            // through its whole capacity, one cold line per packet.
            self.queue.clear();
        }
        self.queued_bytes -= pkt.wire_bytes as u64;
        self.service_tx = self.tx_time(pkt.wire_bytes as u64);
        Some(self.in_service.insert(pkt))
    }

    /// Serialization time of the packet currently in service, as computed
    /// when its service started. The driver schedules the
    /// end-of-serialization event from this instead of recomputing against
    /// a link that may have changed since.
    ///
    /// Panics if no packet is in service (a driver bug).
    #[inline]
    pub fn service_tx_time(&self) -> SimTime {
        assert!(self.in_service.is_some(), "service_tx_time while idle");
        self.service_tx
    }

    /// Take the fully serialized packet out of the service slot and
    /// account for it. The `bool` is `true` if more packets are waiting
    /// (the caller should start the next service immediately).
    ///
    /// Panics if no packet is in service (a driver bug).
    pub fn finish_service(&mut self) -> (Packet, bool) {
        let pkt = self.in_service.take().expect("finish_service while idle");
        self.stats.bytes_tx += pkt.wire_bytes as u64;
        self.stats.pkts_tx += 1;
        // The memoized value, not a recomputation: if the link changed
        // mid-service, the packet on the wire kept its old timing, and the
        // busy clock must agree with the schedule the driver used.
        self.stats.busy += self.service_tx;
        (pkt, !self.queue.is_empty())
    }

    /// Lifetime counters.
    #[inline]
    pub fn stats(&self) -> &PortStats {
        &self.stats
    }

    /// True while a packet is being serialized (popped from the queue but
    /// not yet fully on the wire).
    #[inline]
    pub fn in_service(&self) -> bool {
        self.in_service.is_some()
    }

    /// The packet currently being serialized, if any. Exposed for
    /// end-of-run conservation audits.
    #[inline]
    pub fn in_service_pkt(&self) -> Option<&Packet> {
        self.in_service.as_ref()
    }

    /// The packets currently queued (excluding the one in service), head
    /// first. Exposed for end-of-run conservation audits.
    pub fn iter_queued(&self) -> impl Iterator<Item = &Packet> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tlb_net::{FlowId, HostId};

    fn link() -> LinkProps {
        LinkProps::gbps(1.0, SimTime::from_micros(10))
    }

    fn data(seq: u32) -> Packet {
        Packet::data(
            FlowId(1),
            HostId(0),
            HostId(1),
            seq,
            1460,
            40,
            SimTime::ZERO,
        )
    }

    fn cfg(cap: usize, k: Option<usize>) -> QueueCfg {
        QueueCfg {
            capacity_pkts: cap,
            ecn_threshold_pkts: k,
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut p = OutPort::new(link(), cfg(16, None));
        for s in 0..5 {
            p.enqueue(data(s), SimTime::ZERO);
        }
        for s in 0..5 {
            assert_eq!(p.start_service().unwrap().seq, s);
            let (pkt, _) = p.finish_service();
            assert_eq!(pkt.seq, s);
        }
        assert!(p.is_idle());
    }

    #[test]
    fn drop_tail_at_capacity() {
        let mut p = OutPort::new(link(), cfg(3, None));
        for s in 0..3 {
            assert!(matches!(
                p.enqueue(data(s), SimTime::ZERO),
                Enqueued::Queued { .. }
            ));
        }
        assert_eq!(p.enqueue(data(3), SimTime::ZERO), Enqueued::Dropped);
        assert_eq!(p.stats().dropped, 1);
        assert_eq!(p.len_pkts(), 3);
    }

    #[test]
    fn ecn_marks_above_threshold() {
        let mut p = OutPort::new(link(), cfg(16, Some(2)));
        // Queue occupancies at enqueue: 0, 1 (no mark), 2, 3 (marked).
        for s in 0..4 {
            let r = p.enqueue(data(s), SimTime::ZERO);
            let expect_mark = s >= 2;
            assert_eq!(
                r,
                Enqueued::Queued {
                    marked: expect_mark,
                    was_idle: s == 0
                }
            );
        }
        assert_eq!(p.stats().marked, 2);
        // The CE bit is actually on the queued packets.
        let mut ce = 0;
        while p.start_service().is_some() {
            let (pkt, _) = p.finish_service();
            if pkt.ce() {
                ce += 1;
            }
        }
        assert_eq!(ce, 2);
    }

    #[test]
    fn ecn_counts_in_service_packet() {
        // DCTCP's instantaneous queue is what the port still holds: queued
        // packets plus the one being serialized. With K = 2, a packet that
        // sees one queued and one in service must be marked.
        let mut p = OutPort::new(link(), cfg(16, Some(2)));
        p.enqueue(data(0), SimTime::ZERO);
        p.start_service().unwrap();
        // Occupancy 1 (in service only): below K, unmarked.
        assert_eq!(
            p.enqueue(data(1), SimTime::ZERO),
            Enqueued::Queued {
                marked: false,
                was_idle: false
            }
        );
        // Occupancy 2 (one queued + one in service): at K, marked.
        assert_eq!(
            p.enqueue(data(2), SimTime::ZERO),
            Enqueued::Queued {
                marked: true,
                was_idle: false
            }
        );
        assert_eq!(p.stats().marked, 1);
        p.finish_service();
    }

    #[test]
    fn audit_accessors_reflect_state() {
        let mut p = OutPort::new(link(), cfg(16, None));
        assert!(!p.in_service());
        p.enqueue(data(0), SimTime::ZERO);
        p.enqueue(data(1), SimTime::ZERO);
        assert!(p.in_service_pkt().is_none());
        p.start_service().unwrap();
        assert!(p.in_service());
        assert_eq!(p.in_service_pkt().unwrap().seq, 0);
        let queued: Vec<u32> = p.iter_queued().map(|q| q.seq).collect();
        assert_eq!(queued, vec![1], "in-service packet is not in the queue");
        let (head, more) = p.finish_service();
        assert_eq!(head.seq, 0);
        assert!(more);
        assert!(!p.in_service());
    }

    #[test]
    fn non_ecn_capable_never_marked() {
        let mut p = OutPort::new(link(), cfg(16, Some(0)));
        let mut ctrl = Packet::control(
            FlowId(0),
            HostId(0),
            HostId(1),
            tlb_net::PktKind::Ack,
            0,
            SimTime::ZERO,
        );
        ctrl.flags = tlb_net::packet::PktFlags::empty();
        assert_eq!(
            p.enqueue(ctrl, SimTime::ZERO),
            Enqueued::Queued {
                marked: false,
                was_idle: true
            }
        );
        assert_eq!(p.stats().marked, 0);
    }

    #[test]
    fn byte_accounting_tracks_queue() {
        let mut p = OutPort::new(link(), cfg(16, None));
        p.enqueue(data(0), SimTime::ZERO);
        p.enqueue(data(1), SimTime::ZERO);
        assert_eq!(p.len_bytes(), 3000);
        p.start_service().unwrap();
        assert_eq!(p.len_bytes(), 1500);
        p.finish_service();
        assert_eq!(p.len_bytes(), 1500);
    }

    #[test]
    fn was_idle_only_when_fully_idle() {
        let mut p = OutPort::new(link(), cfg(16, None));
        let r0 = p.enqueue(data(0), SimTime::ZERO);
        assert_eq!(
            r0,
            Enqueued::Queued {
                marked: false,
                was_idle: true
            }
        );
        p.start_service().unwrap();
        // While serializing, the queue is empty but the port is not idle.
        let r1 = p.enqueue(data(1), SimTime::ZERO);
        assert_eq!(
            r1,
            Enqueued::Queued {
                marked: false,
                was_idle: false
            }
        );
        assert!(p.finish_service().1, "one more packet waits");
    }

    #[test]
    fn busy_time_accumulates() {
        let mut p = OutPort::new(link(), cfg(16, None));
        p.enqueue(data(0), SimTime::ZERO);
        p.start_service().unwrap();
        p.finish_service();
        // 1500 B at 1 Gbit/s = 12 us.
        assert_eq!(p.stats().busy, SimTime::from_micros(12));
        assert_eq!(p.stats().bytes_tx, 1500);
        assert_eq!(p.stats().pkts_tx, 1);
    }

    #[test]
    fn busy_time_uses_link_at_service_start() {
        // A mid-service link change must not retroactively change the
        // in-flight packet's accounting: set_link documents that the
        // packet on the wire keeps its old timing.
        let mut p = OutPort::new(link(), cfg(16, None));
        p.enqueue(data(0), SimTime::ZERO);
        p.start_service().unwrap();
        let scheduled = p.service_tx_time();
        assert_eq!(scheduled, SimTime::from_micros(12));
        // Halve the bandwidth while the packet is being serialized.
        p.set_link(LinkProps::gbps(0.5, SimTime::from_micros(10)));
        p.finish_service();
        assert_eq!(p.stats().busy, scheduled, "busy clock matches schedule");
        // The next packet serializes at the new rate.
        p.enqueue(data(1), SimTime::ZERO);
        p.start_service().unwrap();
        assert_eq!(p.service_tx_time(), SimTime::from_micros(24));
        p.finish_service();
        assert_eq!(p.stats().busy, SimTime::from_micros(36));
    }

    #[test]
    fn down_port_drops_at_admission_but_drains() {
        let mut p = OutPort::new(link(), cfg(16, None));
        p.enqueue(data(0), SimTime::ZERO);
        p.enqueue(data(1), SimTime::ZERO);
        p.set_down(true);
        assert!(p.is_down());
        // New arrivals are rejected and counted like drop-tail drops.
        assert_eq!(p.enqueue(data(2), SimTime::ZERO), Enqueued::Dropped);
        assert_eq!(p.stats().dropped, 1);
        // What was admitted before the failure still drains.
        assert_eq!(p.start_service().unwrap().seq, 0);
        p.finish_service();
        assert_eq!(p.start_service().unwrap().seq, 1);
        p.finish_service();
        assert!(p.is_idle());
        // Repair restores admission.
        p.set_down(false);
        assert!(matches!(
            p.enqueue(data(3), SimTime::ZERO),
            Enqueued::Queued { was_idle: true, .. }
        ));
    }

    #[test]
    fn a_drained_queue_restarts_at_its_first_slot() {
        // Ten times the ring's capacity goes through in bursts of one or
        // two that drain in between: every burst must land where the very
        // first packet did, not one slot further along the ring each time.
        let cap = 16;
        let mut p = OutPort::new(link(), cfg(cap, None));
        let mut first_slot = None;
        let mut seq = 0;
        while (seq as usize) < 10 * cap {
            for _ in 0..1 + seq % 2 {
                p.enqueue(data(seq), SimTime::ZERO);
                seq += 1;
            }
            let at = p.queue.as_slices().0.as_ptr();
            assert_eq!(*first_slot.get_or_insert(at), at, "burst ending at {seq}");
            while p.start_service().is_some() {
                p.finish_service();
            }
            assert!(p.is_idle());
        }
    }

    #[test]
    #[should_panic(expected = "start_service while busy")]
    fn double_service_panics() {
        let mut p = OutPort::new(link(), cfg(16, None));
        p.enqueue(data(0), SimTime::ZERO);
        p.enqueue(data(1), SimTime::ZERO);
        let _ = p.start_service();
        let _ = p.start_service();
    }

    proptest! {
        /// Under any interleaving of enqueues and services, byte/packet
        /// accounting stays consistent and drop-tail is never exceeded.
        #[test]
        fn prop_accounting(ops in proptest::collection::vec(0u8..3, 1..200)) {
            let mut p = OutPort::new(link(), cfg(8, Some(4)));
            let mut seq = 0u32;
            for op in ops {
                match op {
                    0 | 1 => {
                        let before = p.len_pkts();
                        let r = p.enqueue(data(seq), SimTime::ZERO);
                        seq += 1;
                        match r {
                            Enqueued::Queued { .. } => prop_assert_eq!(p.len_pkts(), before + 1),
                            Enqueued::Dropped => {
                                prop_assert_eq!(before, 8);
                                prop_assert_eq!(p.len_pkts(), 8);
                            }
                        }
                    }
                    _ => {
                        if p.in_service() {
                            p.finish_service();
                        } else {
                            let _ = p.start_service();
                        }
                    }
                }
                let bytes: u64 = (0..p.len_pkts()).map(|_| 1500u64).sum();
                prop_assert_eq!(p.len_bytes(), bytes);
                prop_assert!(p.len_pkts() <= 8);
            }
        }
    }
}
