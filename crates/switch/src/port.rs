//! One output port: drop-tail admission, ECN marking, service timing and
//! counters over a FIFO of packets parked in a [`PacketArena`].
//!
//! A port owns no packet storage. Its queue is a [`PacketFifo`] through an
//! arena's slots and its packet in service a [`PacketSlot`] there, so a
//! packet enters a port by linking the slot it already has and leaves by
//! unlinking it — nothing is copied. The simulator keeps one arena for its
//! whole fabric, from the sending host's NIC to the receiving host, builds
//! its ports with [`OutPort::shared`] and passes that arena to the `*_in`
//! methods. [`OutPort::new`] builds the standalone form instead: a port
//! with a private arena of `capacity_pkts + 1` slots (a full queue plus the
//! packet in service), whose [`OutPort::enqueue`] /
//! [`OutPort::start_service`] / [`OutPort::finish_service`] run the same
//! `*_in` methods over it — what unit tests, benches and balancer fixtures
//! use.

use tlb_engine::{time::tx_time, SimTime};
use tlb_net::{LinkProps, Packet, PacketArena, PacketFifo, PacketSlot};

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
    /// Queue full (or the port down); the packet was dropped.
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
/// [`OutPort::start_in`] / [`OutPort::finish_in`] around the serialization
/// events it schedules, so the port stays a pure data structure that is
/// easy to test.
///
/// The first cache line holds what every admission and every balancer
/// probe ([`crate::PortView`]) reads — length, bytes, FIFO, in-service,
/// capacity, `K`, the admin flag — and the link props; the counters and the
/// standalone form's arena follow.
#[derive(Debug)]
#[repr(C, align(64))]
pub struct OutPort {
    queued_bytes: u64,
    fifo: PacketFifo,
    /// The packet being serialized, if any: unlinked from `fifo` but its
    /// last bit has not left yet. Holding it here (rather than in the
    /// end-of-serialization event) keeps the driver's event payload small
    /// and lets audits see the in-flight packet.
    in_service: Option<PacketSlot>,
    /// Packets on `fifo`.
    len: u32,
    /// `QueueCfg::capacity_pkts`.
    capacity: u32,
    /// `QueueCfg::ecn_threshold_pkts`; `u32::MAX` never marks (no queue
    /// gets that long: an arena addresses 2^24 packets).
    ecn_k: u32,
    /// Administratively down (failure injection): new packets are dropped
    /// at admission while anything already queued or in flight drains
    /// normally — the counters stay on the same `stats.dropped` path the
    /// conservation audit cross-checks per port.
    down: bool,
    /// Serialization time of the in-service packet, memoized at
    /// [`OutPort::start_in`] against the link properties *then* — so a
    /// mid-service [`OutPort::set_link`] neither reschedules the packet nor
    /// mis-accounts its busy time.
    service_tx: SimTime,
    link: LinkProps,
    stats: PortStats,
    /// The standalone form's private arena ([`OutPort::new`]); `None` on a
    /// port of a shared arena ([`OutPort::shared`]).
    own: Option<Box<PacketArena>>,
}

impl OutPort {
    /// A fresh, idle standalone port on the given link, with a private
    /// arena of `capacity_pkts + 1` slots behind [`OutPort::enqueue`],
    /// [`OutPort::start_service`] and [`OutPort::finish_service`].
    pub fn new(link: LinkProps, cfg: QueueCfg) -> OutPort {
        let slots = cfg.capacity_pkts.saturating_add(1);
        OutPort {
            own: Some(Box::new(PacketArena::with_capacity(slots))),
            ..OutPort::shared(link, cfg)
        }
    }

    /// A fresh, idle port on the given link whose packets live in an arena
    /// the caller owns and passes to every `*_in` method. It reserves
    /// nothing: the arena's owner accounts `capacity_pkts + 1` slots for it.
    pub fn shared(link: LinkProps, cfg: QueueCfg) -> OutPort {
        let k = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        OutPort {
            queued_bytes: 0,
            fifo: PacketFifo::default(),
            in_service: None,
            len: 0,
            capacity: k(cfg.capacity_pkts),
            ecn_k: cfg.ecn_threshold_pkts.map_or(u32::MAX, k),
            down: false,
            service_tx: SimTime::ZERO,
            link,
            stats: PortStats::default(),
            own: None,
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
    /// ([`OutPort::offer_in`] returns [`Enqueued::Dropped`]) but drains
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

    /// Drop-tail capacity in packets: the most this port ever queues, not
    /// counting the packet in service.
    #[inline]
    pub fn capacity_pkts(&self) -> usize {
        self.capacity as usize
    }

    /// Queue length in packets (excluding the packet in service).
    #[inline]
    pub fn len_pkts(&self) -> usize {
        self.len as usize
    }

    /// Queue length in bytes (excluding the packet in service).
    #[inline]
    pub fn len_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// True when nothing is queued or being serialized.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.len == 0 && self.in_service.is_none()
    }

    /// Serialization time of a packet of `bytes` on this port's link.
    #[inline]
    pub fn tx_time(&self, bytes: u64) -> SimTime {
        tx_time(bytes, self.link.bytes_per_sec)
    }

    /// Offer the packet `pkt` names, parked in `arena` on no list. Applies
    /// drop-tail admission and ECN marking (in place), stamps
    /// `enqueued_at`, links the slot at the back of the queue, and reports
    /// whether the caller must kick off serialization (`was_idle`). On
    /// [`Enqueued::Dropped`] the slot is left untouched: the caller reads
    /// what it needs and frees it.
    pub fn offer_in(&mut self, arena: &mut PacketArena, pkt: PacketSlot, now: SimTime) -> Enqueued {
        if !self.admits() {
            return self.refuse();
        }
        let p = arena.get_mut(pkt);
        // The instantaneous queue DCTCP marks against includes the packet
        // being serialized: it has left the FIFO but not the port.
        let occupancy = self.len + self.in_service.is_some() as u32;
        let marked = occupancy >= self.ecn_k && p.ecn_capable();
        if marked {
            p.mark_ce();
            self.stats.marked += 1;
        }
        p.enqueued_at = now;
        let was_idle = self.is_idle();
        self.queued_bytes += p.wire_bytes as u64;
        self.len += 1;
        arena.link_back(&mut self.fifo, pkt, now);
        self.stats.enqueued += 1;
        Enqueued::Queued { marked, was_idle }
    }

    /// True when the port takes a packet offered now: it is up and its
    /// queue has room.
    #[inline]
    fn admits(&self) -> bool {
        !self.down && self.len < self.capacity
    }

    /// Count a drop-tail (or down-port) drop.
    fn refuse(&mut self) -> Enqueued {
        self.stats.dropped += 1;
        Enqueued::Dropped
    }

    /// Move the head packet into the service slot and mark the transmitter
    /// busy, returning its handle (`None` on an empty queue). The caller
    /// schedules the end-of-serialization event
    /// [`OutPort::service_tx_time`] later and then calls
    /// [`OutPort::finish_in`] to take the packet's slot back out.
    ///
    /// Panics if called while already serializing (a driver bug).
    pub fn start_in(&mut self, arena: &mut PacketArena) -> Option<PacketSlot> {
        assert!(self.in_service.is_none(), "start_service while busy");
        let pkt = arena.unlink_front(&mut self.fifo)?;
        let bytes = arena.get(pkt).wire_bytes as u64;
        self.len -= 1;
        self.queued_bytes -= bytes;
        self.service_tx = self.tx_time(bytes);
        self.in_service = Some(pkt);
        Some(pkt)
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

    /// Take the fully serialized packet's slot out of the service slot,
    /// on no list, and account for it. The `bool` is `true` if more packets
    /// are waiting (the caller should start the next service immediately).
    ///
    /// Panics if no packet is in service (a driver bug).
    pub fn finish_in(&mut self, arena: &PacketArena) -> (PacketSlot, bool) {
        let pkt = self.in_service.take().expect("finish_service while idle");
        self.stats.bytes_tx += arena.get(pkt).wire_bytes as u64;
        self.stats.pkts_tx += 1;
        // The memoized value, not a recomputation: if the link changed
        // mid-service, the packet on the wire kept its old timing, and the
        // busy clock must agree with the schedule the driver used.
        self.stats.busy += self.service_tx;
        (pkt, self.len > 0)
    }

    /// Lifetime counters.
    #[inline]
    pub fn stats(&self) -> &PortStats {
        &self.stats
    }

    /// True while a packet is being serialized (unlinked from the queue
    /// but not yet fully on the wire).
    #[inline]
    pub fn in_service(&self) -> bool {
        self.in_service.is_some()
    }

    /// The packet currently being serialized, if any, read in `arena`.
    /// Exposed for end-of-run conservation audits.
    #[inline]
    pub fn in_service_in<'a>(&self, arena: &'a PacketArena) -> Option<&'a Packet> {
        self.in_service.map(|pkt| arena.get(pkt))
    }

    /// The packets currently queued (excluding the one in service), head
    /// first, read in `arena`. Exposed for end-of-run conservation audits.
    pub fn queued_in<'a>(&self, arena: &'a PacketArena) -> impl Iterator<Item = &'a Packet> + 'a {
        arena.iter(&self.fifo)
    }

    /// Free every packet the port holds — queued and in service — back to
    /// `arena`, leaving the port idle. The counters keep their history, so
    /// call it only once they have been read (end of run).
    pub fn release_in(&mut self, arena: &mut PacketArena) {
        arena.drain(&mut self.fifo).for_each(drop);
        if let Some(pkt) = self.in_service.take() {
            arena.take(pkt);
        }
        self.len = 0;
        self.queued_bytes = 0;
    }

    /// Re-park every packet the port holds, queued (in order) and in
    /// service, from `from` into `to` — the port moving to another
    /// arena's owner.
    pub fn rehome(&mut self, from: &mut PacketArena, to: &mut PacketArena) {
        let mut queued = std::mem::take(&mut self.fifo);
        for (at, pkt) in from.drain(&mut queued) {
            let slot = to.insert(pkt);
            to.link_back(&mut self.fifo, slot, at);
        }
        if let Some(pkt) = self.in_service {
            self.in_service = Some(to.insert(from.take(pkt)));
        }
    }

    /// Run `f` on this standalone port and its private arena.
    fn with_own<R>(&mut self, f: impl FnOnce(&mut OutPort, &mut PacketArena) -> R) -> R {
        let mut own =
            (self.own.take()).expect("a port built by OutPort::shared has no arena of its own");
        let r = f(self, &mut own);
        self.own = Some(own);
        r
    }

    /// [`OutPort::offer_in`] on a standalone port: a packet the port
    /// admits parks in the private arena, one it drops never does, so the
    /// arena holds at most a full queue and the packet in service.
    pub fn enqueue(&mut self, pkt: Packet, now: SimTime) -> Enqueued {
        if !self.admits() {
            return self.refuse();
        }
        self.with_own(|port, arena| {
            let slot = arena.insert(pkt);
            port.offer_in(arena, slot, now)
        })
    }

    /// [`OutPort::start_in`] on a standalone port, returning a borrow of
    /// the packet now in service.
    ///
    /// Panics if called while already serializing (a driver bug).
    pub fn start_service(&mut self) -> Option<&Packet> {
        let pkt = self.with_own(|port, arena| port.start_in(arena))?;
        Some(self.own.as_ref()?.get(pkt))
    }

    /// [`OutPort::finish_in`] on a standalone port, taking the packet out
    /// of the private arena.
    ///
    /// Panics if no packet is in service (a driver bug).
    pub fn finish_service(&mut self) -> (Packet, bool) {
        self.with_own(|port, arena| {
            let (pkt, more) = port.finish_in(arena);
            (arena.take(pkt), more)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;
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
        let mut arena = PacketArena::new();
        let mut p = OutPort::shared(link(), cfg(16, None));
        assert!(!p.in_service());
        for s in 0..2 {
            let slot = arena.insert(data(s));
            p.offer_in(&mut arena, slot, SimTime::ZERO);
        }
        assert!(p.in_service_in(&arena).is_none());
        let head = p.start_in(&mut arena).unwrap();
        assert!(p.in_service());
        assert_eq!(p.in_service_in(&arena).unwrap().seq, 0);
        let queued: Vec<u32> = p.queued_in(&arena).map(|q| q.seq).collect();
        assert_eq!(queued, vec![1], "in-service packet is not in the queue");
        assert_eq!(p.finish_in(&arena), (head, true));
        assert!(!p.in_service());
        // The finished packet is the caller's: still parked, on no list.
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.take(head).seq, 0);
        p.release_in(&mut arena);
        assert!(p.is_idle() && arena.is_empty());
        assert_eq!(p.stats().enqueued, 2);
    }

    #[test]
    fn a_shared_port_writes_each_packet_once() {
        // Admission marks and stamps the packet in its slot, and the handle
        // that comes out of service is the one that went in.
        let mut arena = PacketArena::with_capacity(2);
        let mut p = OutPort::shared(link(), cfg(16, Some(0)));
        let slot = arena.insert(data(9));
        let now = SimTime::from_micros(3);
        assert!(matches!(
            p.offer_in(&mut arena, slot, now),
            Enqueued::Queued { marked: true, .. }
        ));
        assert!(arena.get(slot).ce());
        assert_eq!(arena.get(slot).enqueued_at, now);
        assert_eq!(p.start_in(&mut arena), Some(slot));
        assert_eq!(p.finish_in(&arena), (slot, false));
        assert_eq!(arena.slots_allocated(), 1);
    }

    #[test]
    fn rehome_moves_every_packet_in_order() {
        let (mut from, mut to) = (PacketArena::new(), PacketArena::new());
        let mut p = OutPort::shared(link(), cfg(16, None));
        for s in 0..4 {
            let slot = from.insert(data(s));
            p.offer_in(&mut from, slot, SimTime::from_nanos(s as u64));
        }
        p.start_in(&mut from).unwrap();
        p.rehome(&mut from, &mut to);
        assert!(from.is_empty());
        assert_eq!(to.live(), 4);
        assert_eq!(p.in_service_in(&to).unwrap().seq, 0);
        let queued: Vec<u32> = p.queued_in(&to).map(|q| q.seq).collect();
        assert_eq!(queued, [1, 2, 3]);
        assert_eq!((p.len_pkts(), p.len_bytes()), (3, 4500));
        let (head, more) = p.finish_in(&to);
        assert!(more);
        assert_eq!(to.take(head).seq, 0);
        let next = p.start_in(&mut to).unwrap();
        assert_eq!(to.get(next).seq, 1);
    }

    #[test]
    fn admission_and_view_fields_share_one_line() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(align_of::<OutPort>(), 64);
        let hot_ends = [
            offset_of!(OutPort, queued_bytes) + size_of::<u64>(),
            offset_of!(OutPort, fifo) + size_of::<PacketFifo>(),
            offset_of!(OutPort, in_service) + size_of::<Option<PacketSlot>>(),
            offset_of!(OutPort, len) + size_of::<u32>(),
            offset_of!(OutPort, capacity) + size_of::<u32>(),
            offset_of!(OutPort, ecn_k) + size_of::<u32>(),
            offset_of!(OutPort, down) + size_of::<bool>(),
        ];
        for end in hot_ends {
            assert!(end <= 64, "a hot field ends at byte {end}");
        }
        assert!(offset_of!(OutPort, stats) >= offset_of!(OutPort, link));
        assert_eq!(size_of::<OutPort>(), 128);
    }

    #[test]
    fn a_standalone_port_stays_inside_its_private_arena() {
        // A full queue, a packet in service and drops on top: the private
        // arena never needs more than the `capacity_pkts + 1` slots `new`
        // reserved for it.
        let mut p = OutPort::new(link(), cfg(3, None));
        for s in 0..4 {
            p.enqueue(data(s), SimTime::ZERO);
        }
        p.start_service().unwrap();
        for s in 4..9 {
            p.enqueue(data(s), SimTime::ZERO);
        }
        assert_eq!(p.stats().dropped, 5);
        let arena = p.own.as_ref().unwrap();
        assert_eq!((arena.live(), arena.slots_allocated()), (4, 4));
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
    #[should_panic(expected = "start_service while busy")]
    fn double_service_panics() {
        let mut p = OutPort::new(link(), cfg(16, None));
        p.enqueue(data(0), SimTime::ZERO);
        p.enqueue(data(1), SimTime::ZERO);
        let _ = p.start_service();
        let _ = p.start_service();
    }

    /// What a port was before its queue moved into the arena: a
    /// `VecDeque` of packets, a packet in service, an admin flag and the
    /// counters — the reference the shared-arena ports are checked against.
    #[derive(Default)]
    struct ModelPort {
        queue: VecDeque<Packet>,
        in_service: Option<Packet>,
        down: bool,
        enqueued: u64,
        dropped: u64,
        marked: u64,
        pkts_tx: u64,
        bytes_tx: u64,
    }

    impl ModelPort {
        fn offer(&mut self, mut pkt: Packet, cfg: QueueCfg, now: SimTime) -> Enqueued {
            if self.down || self.queue.len() >= cfg.capacity_pkts {
                self.dropped += 1;
                return Enqueued::Dropped;
            }
            let occupancy = self.queue.len() + self.in_service.is_some() as usize;
            let marked = cfg
                .ecn_threshold_pkts
                .is_some_and(|k| pkt.ecn_capable() && occupancy >= k);
            if marked {
                pkt.mark_ce();
                self.marked += 1;
            }
            pkt.enqueued_at = now;
            let was_idle = self.queue.is_empty() && self.in_service.is_none();
            self.queue.push_back(pkt);
            self.enqueued += 1;
            Enqueued::Queued { marked, was_idle }
        }
    }

    /// The fields a packet's trip through a port may change, plus its name.
    fn seen(p: &Packet) -> (u32, bool, SimTime) {
        (p.seq, p.ce(), p.enqueued_at)
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

        /// 1–8 ports over one shared arena, driven by random interleaved
        /// offers (data of varying sizes and non-ECN control packets),
        /// service starts and finishes and admin flips, against a per-port
        /// `VecDeque` model: same admission, marks and `was_idle`; same
        /// FIFO order out of service and in the queue; same lengths, bytes
        /// and counters; and the arena holds exactly the packets the ports
        /// do — `live() == Σ (len + in_service)`.
        #[test]
        fn prop_shared_arena_ports_match_the_vecdeque_model(
            qcfgs in proptest::collection::vec((1usize..6, 0usize..6), 1..9),
            ops in proptest::collection::vec((0u8..6, 0usize..8, 0u32..1400), 1..300),
        ) {
            let mut arena = PacketArena::new();
            // `K = 5` stands for no marking.
            let qcfgs: Vec<QueueCfg> =
                qcfgs.into_iter().map(|(c, k)| cfg(c, (k < 5).then_some(k))).collect();
            let mut ports: Vec<OutPort> =
                qcfgs.iter().map(|&q| OutPort::shared(link(), q)).collect();
            let mut model: Vec<ModelPort> = qcfgs.iter().map(|_| ModelPort::default()).collect();
            for (seq, (op, i, payload)) in (0u32..).zip(ops) {
                let i = i % ports.len();
                let (port, m) = (&mut ports[i], &mut model[i]);
                let now = SimTime::from_nanos(seq as u64);
                match op {
                    0..=2 => {
                        let pkt = if payload % 5 == 0 {
                            let mut ack = Packet::control(
                                FlowId(i as u32), HostId(0), HostId(1),
                                tlb_net::PktKind::Ack, seq, SimTime::ZERO,
                            );
                            ack.flags = tlb_net::packet::PktFlags::empty();
                            ack
                        } else {
                            Packet::data(
                                FlowId(i as u32), HostId(0), HostId(1), seq,
                                payload + 1, 40, SimTime::ZERO,
                            )
                        };
                        let slot = arena.insert(pkt);
                        let got = port.offer_in(&mut arena, slot, now);
                        prop_assert_eq!(got, m.offer(pkt, qcfgs[i], now));
                        if got == Enqueued::Dropped {
                            arena.take(slot);
                        }
                    }
                    3 if port.in_service() => {
                        let (slot, more) = port.finish_in(&arena);
                        let want = m.in_service.take().unwrap();
                        prop_assert_eq!(seen(arena.get(slot)), seen(&want));
                        prop_assert_eq!(more, !m.queue.is_empty());
                        arena.take(slot);
                        m.pkts_tx += 1;
                        m.bytes_tx += want.wire_bytes as u64;
                    }
                    3 | 4 if !port.in_service() => {
                        let got = port.start_in(&mut arena).map(|s| seen(arena.get(s)));
                        m.in_service = m.queue.pop_front();
                        prop_assert_eq!(got, m.in_service.as_ref().map(seen));
                    }
                    3 | 4 => {}
                    _ => {
                        m.down = !m.down;
                        port.set_down(m.down);
                    }
                }
                for (port, m) in ports.iter().zip(&model) {
                    prop_assert_eq!(port.len_pkts(), m.queue.len());
                    let bytes: u64 = m.queue.iter().map(|p| p.wire_bytes as u64).sum();
                    prop_assert_eq!(port.len_bytes(), bytes);
                    prop_assert_eq!(port.in_service(), m.in_service.is_some());
                    prop_assert_eq!(port.is_idle(), m.queue.is_empty() && m.in_service.is_none());
                    prop_assert_eq!(port.is_down(), m.down);
                    let queued: Vec<_> = port.queued_in(&arena).map(seen).collect();
                    let want: Vec<_> = m.queue.iter().map(seen).collect();
                    prop_assert_eq!(queued, want);
                    let s = port.stats();
                    prop_assert_eq!(
                        (s.enqueued, s.dropped, s.marked, s.pkts_tx, s.bytes_tx),
                        (m.enqueued, m.dropped, m.marked, m.pkts_tx, m.bytes_tx)
                    );
                }
                let held: usize = (ports.iter())
                    .map(|p| p.len_pkts() + p.in_service() as usize)
                    .sum();
                prop_assert_eq!(arena.live(), held);
            }
        }
    }
}
