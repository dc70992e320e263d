//! One output port: drop-tail admission, ECN marking, service timing and
//! counters over a FIFO of packets parked in a [`PacketArena`].
//!
//! A port owns no packet storage. Its queue is a [`PacketFifo`] through an
//! arena's slots, so a packet enters a port by linking the slot it already
//! has and leaves by unlinking it — nothing is copied. A packet leaves when
//! its serialization starts: [`OutPort::depart_in`] unlinks the head,
//! accounts it and returns its serialization time, and the caller puts it
//! on the link at once, to arrive a serialization time plus a propagation
//! delay later. The port keeps no packet in service, only `busy_until`,
//! when the last departed packet's last bit leaves; the caller tells
//! [`OutPort::offer_in`] whether that moment has passed, and starts the
//! next departure there only when a packet waits.
//!
//! The simulator keeps one arena for its whole fabric, from the sending
//! host's NIC to the receiving host, builds its ports with
//! [`OutPort::shared`] and passes that arena to the `*_in` methods.
//! [`OutPort::new`] builds the standalone form instead: a port with a
//! private arena of `capacity_pkts + 1` slots (a full queue plus the
//! departed packet it holds until [`OutPort::finish_service`]), whose
//! [`OutPort::enqueue`] / [`OutPort::start_service`] /
//! [`OutPort::finish_service`] run the same `*_in` methods over it,
//! serving back to back from time zero — what unit tests, benches and
//! balancer fixtures use.

use tlb_engine::{time::tx_time, SimTime};
use tlb_net::{FlowId, HostId, LinkProps, Packet, PacketArena, PacketFifo, PacketSlot};

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
    /// the caller the port had no packet serializing or queued before this
    /// one, i.e. this packet should depart now.
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
    /// Bytes serialized onto the wire, counted as each packet departs
    /// ([`OutPort::cut_service`] takes back one still serializing when the
    /// run ends).
    pub bytes_tx: u64,
    /// Packets serialized onto the wire, counted like `bytes_tx`.
    pub pkts_tx: u64,
    /// Time the transmitter spent busy (for utilization), counted like
    /// `bytes_tx`.
    pub busy: SimTime,
}

/// An output port: a FIFO of packets plus its outgoing link.
///
/// The port does not schedule events itself — the simulation driver calls
/// [`OutPort::depart_in`] at each service start it schedules, so the port
/// stays a pure data structure that is easy to test.
///
/// The first cache line holds what every admission and every balancer
/// probe ([`crate::PortView`]) reads — length, bytes, FIFO, `busy_until`,
/// capacity, `K`, the admin flag — and the link props; the counters and the
/// standalone form's arena follow.
#[derive(Debug)]
#[repr(C, align(64))]
pub struct OutPort {
    queued_bytes: u64,
    fifo: PacketFifo,
    /// When the last packet to depart finishes serializing: the earliest
    /// the next one may start.
    busy_until: SimTime,
    /// Packets on `fifo`.
    len: u32,
    /// `QueueCfg::capacity_pkts`.
    capacity: u32,
    /// `QueueCfg::ecn_threshold_pkts`; `u32::MAX` never marks (no queue
    /// gets that long: an arena addresses 2^24 packets).
    ecn_k: u32,
    /// Administratively down (failure injection): new packets are dropped
    /// at admission while anything already queued or serializing drains
    /// normally — the counters stay on the same `stats.dropped` path the
    /// conservation audit cross-checks per port.
    down: bool,
    link: LinkProps,
    stats: PortStats,
    /// The standalone form's private arena and departed packet
    /// ([`OutPort::new`]); `None` on a port of a shared arena
    /// ([`OutPort::shared`]).
    own: Option<Box<Standalone>>,
}

/// What a standalone port keeps beside the port proper: its packets and
/// the one that departed and has not been taken out by
/// [`OutPort::finish_service`] yet.
#[derive(Debug)]
struct Standalone {
    arena: PacketArena,
    departed: Option<PacketSlot>,
}

impl OutPort {
    /// A fresh, idle standalone port on the given link, with a private
    /// arena of `capacity_pkts + 1` slots behind [`OutPort::enqueue`],
    /// [`OutPort::start_service`] and [`OutPort::finish_service`].
    pub fn new(link: LinkProps, cfg: QueueCfg) -> OutPort {
        let slots = cfg.capacity_pkts.saturating_add(1);
        OutPort {
            own: Some(Box::new(Standalone {
                arena: PacketArena::with_capacity(slots),
                departed: None,
            })),
            ..OutPort::shared(link, cfg)
        }
    }

    /// One standalone port per entry of `lens`, each on a 1 Gbit/s link and
    /// holding `lens[i]` queued filler packets: the fixture balancer tests
    /// and the decision-cost bench build their uplinks from. Balancers
    /// read queue lengths only, so one link, capacity and filler serve
    /// them all.
    pub fn filled(lens: &[usize]) -> Vec<OutPort> {
        let cfg = QueueCfg {
            capacity_pkts: 1024,
            ecn_threshold_pkts: None,
        };
        let filler = |seq| {
            Packet::data(
                FlowId(0),
                HostId(0),
                HostId(1),
                seq,
                1460,
                40,
                SimTime::ZERO,
            )
        };
        (lens.iter())
            .map(|&len| {
                let mut p = OutPort::new(LinkProps::gbps(1.0, SimTime::ZERO), cfg);
                for seq in 0..len as u32 {
                    let admitted = p.enqueue(filler(seq), SimTime::ZERO);
                    assert_ne!(
                        admitted,
                        Enqueued::Dropped,
                        "{len} filler packets overflow the fixture"
                    );
                }
                p
            })
            .collect()
    }

    /// A fresh, idle port on the given link whose packets live in an arena
    /// the caller owns and passes to every `*_in` method. It reserves
    /// nothing: the arena's owner accounts `capacity_pkts + 1` slots for it.
    pub fn shared(link: LinkProps, cfg: QueueCfg) -> OutPort {
        let k = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        OutPort {
            queued_bytes: 0,
            fifo: PacketFifo::default(),
            busy_until: SimTime::ZERO,
            len: 0,
            capacity: k(cfg.capacity_pkts),
            ecn_k: cfg.ecn_threshold_pkts.map_or(u32::MAX, k),
            down: false,
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
    /// injection). Affects packets departing from now on; a packet that
    /// already departed keeps the timing it left with.
    pub fn set_link(&mut self, link: LinkProps) {
        self.link = link;
    }

    /// Administratively bring the port down or back up (failure
    /// injection). A down port rejects new packets at admission
    /// ([`OutPort::offer_in`] returns [`Enqueued::Dropped`]) but drains
    /// whatever is already queued, so every packet's fate stays accounted.
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
    }

    /// True while the port is administratively down.
    #[inline]
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Drop-tail capacity in packets: the most this port ever queues, not
    /// counting the packet serializing.
    #[inline]
    pub fn capacity_pkts(&self) -> usize {
        self.capacity as usize
    }

    /// Queue length in packets (excluding the packet serializing).
    #[inline]
    pub fn len_pkts(&self) -> usize {
        self.len as usize
    }

    /// Queue length in bytes (excluding the packet serializing).
    #[inline]
    pub fn len_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// When the last packet to depart finishes serializing ([`SimTime::ZERO`]
    /// before the first departure).
    #[inline]
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Serialization time of a packet of `bytes` on this port's link.
    #[inline]
    pub fn tx_time(&self, bytes: u64) -> SimTime {
        tx_time(bytes, self.link.bytes_per_sec)
    }

    /// Offer the packet `pkt` names, parked in `arena` on no list, while
    /// the last departed packet is (`busy`) or is not still serializing.
    /// Applies drop-tail admission and ECN marking (in place), stamps
    /// `enqueued_at`, links the slot at the back of the queue, and reports
    /// whether the caller must start its departure now (`was_idle`). On
    /// [`Enqueued::Dropped`] the slot is left untouched: the caller reads
    /// what it needs and frees it.
    pub fn offer_in(
        &mut self,
        arena: &mut PacketArena,
        pkt: PacketSlot,
        now: SimTime,
        busy: bool,
    ) -> Enqueued {
        if !self.admits() {
            return self.refuse();
        }
        let p = arena.get_mut(pkt);
        // The instantaneous queue DCTCP marks against includes the packet
        // being serialized: it has left the FIFO but not the port.
        let occupancy = self.len + busy as u32;
        let marked = occupancy >= self.ecn_k && p.ecn_capable();
        if marked {
            p.mark_ce();
            self.stats.marked += 1;
        }
        p.enqueued_at = now;
        let was_idle = self.len == 0 && !busy;
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

    /// Start serializing the head packet at `now`: unlink its slot, on no
    /// list, account it as transmitted and mark the transmitter busy until
    /// it is through. Returns the slot and its serialization time, read off
    /// the link as it is now — the caller puts the packet on the wire at
    /// once, so a later [`OutPort::set_link`] changes nothing about it.
    ///
    /// Panics on an empty queue or before the last departure is through
    /// (a driver bug).
    pub fn depart_in(&mut self, arena: &mut PacketArena, now: SimTime) -> (PacketSlot, SimTime) {
        assert!(now >= self.busy_until, "depart_in while serializing");
        let pkt = (arena.unlink_front(&mut self.fifo)).expect("depart_in on an empty port");
        let bytes = arena.get(pkt).wire_bytes as u64;
        let tx = self.tx_time(bytes);
        self.len -= 1;
        self.queued_bytes -= bytes;
        self.stats.bytes_tx += bytes;
        self.stats.pkts_tx += 1;
        self.stats.busy += tx;
        self.busy_until = now + tx;
        (pkt, tx)
    }

    /// The run ended at `end` with the last departed packet, of `bytes`
    /// wire bytes, still serializing: take it back out of `pkts_tx` and
    /// `bytes_tx`, which then count packets fully serialized, and its
    /// service past `end` out of `busy`.
    pub fn cut_service(&mut self, end: SimTime, bytes: u64) {
        self.stats.pkts_tx -= 1;
        self.stats.bytes_tx -= bytes;
        self.stats.busy -= self.busy_until.saturating_sub(end);
    }

    /// Lifetime counters.
    #[inline]
    pub fn stats(&self) -> &PortStats {
        &self.stats
    }

    /// The packets currently queued (excluding the one serializing), head
    /// first, read in `arena`. Exposed for end-of-run conservation audits.
    pub fn queued_in<'a>(&self, arena: &'a PacketArena) -> impl Iterator<Item = &'a Packet> + 'a {
        arena.iter(&self.fifo)
    }

    /// Free every queued packet back to `arena`, leaving the queue empty.
    /// The counters keep their history, so call it only once they have
    /// been read (end of run).
    pub fn release_in(&mut self, arena: &mut PacketArena) {
        arena.drain(&mut self.fifo).for_each(drop);
        self.len = 0;
        self.queued_bytes = 0;
    }

    /// Re-park every queued packet, in order, from `from` into `to` — the
    /// port moving to another arena's owner.
    pub fn rehome(&mut self, from: &mut PacketArena, to: &mut PacketArena) {
        let mut queued = std::mem::take(&mut self.fifo);
        for (at, pkt) in from.drain(&mut queued) {
            let slot = to.insert(pkt);
            to.link_back(&mut self.fifo, slot, at);
        }
    }

    /// Run `f` on this standalone port and what it keeps beside it.
    fn with_own<R>(&mut self, f: impl FnOnce(&mut OutPort, &mut Standalone) -> R) -> R {
        let mut own =
            (self.own.take()).expect("a port built by OutPort::shared has no arena of its own");
        let r = f(self, &mut own);
        self.own = Some(own);
        r
    }

    /// [`OutPort::offer_in`] on a standalone port, busy from
    /// [`OutPort::start_service`] to [`OutPort::finish_service`]: a packet
    /// the port admits parks in the private arena, one it drops never
    /// does, so the arena holds at most a full queue and the departed
    /// packet.
    pub fn enqueue(&mut self, pkt: Packet, now: SimTime) -> Enqueued {
        if !self.admits() {
            return self.refuse();
        }
        self.with_own(|port, own| {
            let slot = own.arena.insert(pkt);
            port.offer_in(&mut own.arena, slot, now, own.departed.is_some())
        })
    }

    /// [`OutPort::depart_in`] on a standalone port, at the end of the last
    /// departure's serialization, returning a borrow of the packet that
    /// departed (`None` on an empty queue).
    ///
    /// Panics if the last packet to depart was not taken out by
    /// [`OutPort::finish_service`] yet (a driver bug).
    pub fn start_service(&mut self) -> Option<&Packet> {
        let pkt = self.with_own(|port, own| {
            assert!(own.departed.is_none(), "start_service while busy");
            if port.len == 0 {
                return None;
            }
            let (pkt, _) = port.depart_in(&mut own.arena, port.busy_until);
            own.departed = Some(pkt);
            Some(pkt)
        })?;
        Some(self.own.as_ref()?.arena.get(pkt))
    }

    /// Take the packet [`OutPort::start_service`] departed out of the
    /// private arena. The `bool` is `true` if more packets are waiting.
    ///
    /// Panics if no packet departed (a driver bug).
    pub fn finish_service(&mut self) -> (Packet, bool) {
        self.with_own(|port, own| {
            let pkt = (own.departed.take()).expect("finish_service while idle");
            (own.arena.take(pkt), port.len > 0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

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
        assert_eq!(p.len_pkts(), 0);
        assert!(p.start_service().is_none());
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
    fn a_departed_packet_leaves_the_port_and_its_slot_with_the_caller() {
        let mut arena = PacketArena::new();
        let mut p = OutPort::shared(link(), cfg(16, None));
        for s in 0..2 {
            let slot = arena.insert(data(s));
            p.offer_in(&mut arena, slot, SimTime::ZERO, false);
        }
        let now = SimTime::from_micros(3);
        let (head, tx) = p.depart_in(&mut arena, now);
        // 1500 B at 1 Gbit/s.
        assert_eq!(tx, SimTime::from_micros(12));
        assert_eq!(p.busy_until(), now + tx);
        let queued: Vec<u32> = p.queued_in(&arena).map(|q| q.seq).collect();
        assert_eq!(queued, vec![1], "the departed packet is not in the queue");
        assert_eq!((p.stats().pkts_tx, p.stats().bytes_tx), (1, 1500));
        // The departed packet is the caller's: still parked, on no list.
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.take(head).seq, 0);
        p.release_in(&mut arena);
        assert!(p.len_pkts() == 0 && arena.is_empty());
        assert_eq!(p.stats().enqueued, 2);
    }

    #[test]
    #[should_panic(expected = "depart_in while serializing")]
    fn departing_before_the_last_one_is_through_panics() {
        let mut arena = PacketArena::new();
        let mut p = OutPort::shared(link(), cfg(16, None));
        for s in 0..2 {
            let slot = arena.insert(data(s));
            p.offer_in(&mut arena, slot, SimTime::ZERO, false);
        }
        p.depart_in(&mut arena, SimTime::ZERO);
        p.depart_in(&mut arena, SimTime::from_micros(11));
    }

    #[test]
    fn a_shared_port_writes_each_packet_once() {
        // Admission marks and stamps the packet in its slot, and the handle
        // that departs is the one that went in.
        let mut arena = PacketArena::with_capacity(2);
        let mut p = OutPort::shared(link(), cfg(16, Some(0)));
        let slot = arena.insert(data(9));
        let now = SimTime::from_micros(3);
        assert!(matches!(
            p.offer_in(&mut arena, slot, now, false),
            Enqueued::Queued { marked: true, .. }
        ));
        assert!(arena.get(slot).ce());
        assert_eq!(arena.get(slot).enqueued_at, now);
        assert_eq!(p.depart_in(&mut arena, now).0, slot);
        assert_eq!(arena.slots_allocated(), 1);
    }

    #[test]
    fn rehome_moves_every_packet_in_order() {
        let (mut from, mut to) = (PacketArena::new(), PacketArena::new());
        let mut p = OutPort::shared(link(), cfg(16, None));
        for s in 0..4 {
            let slot = from.insert(data(s));
            p.offer_in(&mut from, slot, SimTime::from_nanos(s as u64), false);
        }
        let (head, _) = p.depart_in(&mut from, SimTime::ZERO);
        from.take(head);
        p.rehome(&mut from, &mut to);
        assert!(from.is_empty());
        assert_eq!(to.live(), 3);
        let queued: Vec<u32> = p.queued_in(&to).map(|q| q.seq).collect();
        assert_eq!(queued, [1, 2, 3]);
        assert_eq!((p.len_pkts(), p.len_bytes()), (3, 4500));
        let (next, _) = p.depart_in(&mut to, p.busy_until());
        assert_eq!(to.get(next).seq, 1);
    }

    #[test]
    fn admission_and_view_fields_share_one_line() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(align_of::<OutPort>(), 64);
        let hot_ends = [
            offset_of!(OutPort, queued_bytes) + size_of::<u64>(),
            offset_of!(OutPort, fifo) + size_of::<PacketFifo>(),
            offset_of!(OutPort, busy_until) + size_of::<SimTime>(),
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
        // A full queue, a departed packet and drops on top: the private
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
        let arena = &p.own.as_ref().unwrap().arena;
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
    fn a_standalone_port_serves_back_to_back() {
        let mut p = OutPort::new(link(), cfg(16, None));
        p.enqueue(data(0), SimTime::ZERO);
        p.enqueue(data(1), SimTime::ZERO);
        p.start_service().unwrap();
        // 1500 B at 1 Gbit/s = 12 us, counted as the packet departs.
        assert_eq!(p.stats().busy, SimTime::from_micros(12));
        assert_eq!((p.stats().bytes_tx, p.stats().pkts_tx), (1500, 1));
        p.finish_service();
        p.start_service().unwrap();
        assert_eq!(p.busy_until(), SimTime::from_micros(24));
        assert_eq!(p.stats().busy, SimTime::from_micros(24));
    }

    #[test]
    fn busy_time_uses_link_at_service_start() {
        // A mid-service link change must not retroactively change the
        // departed packet's accounting: set_link documents that the packet
        // on the wire keeps its old timing.
        let mut arena = PacketArena::new();
        let mut p = OutPort::shared(link(), cfg(16, None));
        for s in 0..2 {
            let slot = arena.insert(data(s));
            p.offer_in(&mut arena, slot, SimTime::ZERO, false);
        }
        let (_, scheduled) = p.depart_in(&mut arena, SimTime::ZERO);
        assert_eq!(scheduled, SimTime::from_micros(12));
        // Halve the bandwidth while the packet is being serialized.
        p.set_link(LinkProps::gbps(0.5, SimTime::from_micros(10)));
        assert_eq!(p.stats().busy, scheduled, "busy clock matches schedule");
        assert_eq!(p.busy_until(), scheduled);
        // The next packet serializes at the new rate.
        let (_, next) = p.depart_in(&mut arena, p.busy_until());
        assert_eq!(next, SimTime::from_micros(24));
        assert_eq!(p.stats().busy, SimTime::from_micros(36));
    }

    #[test]
    fn cutting_service_at_the_end_keeps_only_what_was_through() {
        let mut arena = PacketArena::new();
        let mut p = OutPort::shared(link(), cfg(16, None));
        let slot = arena.insert(data(0));
        p.offer_in(&mut arena, slot, SimTime::ZERO, false);
        p.depart_in(&mut arena, SimTime::from_micros(2));
        // The run ends 5 us into the packet's 12.
        p.cut_service(SimTime::from_micros(7), 1500);
        let s = p.stats();
        assert_eq!((s.pkts_tx, s.bytes_tx), (0, 0));
        assert_eq!(s.busy, SimTime::from_micros(5));
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
        assert_eq!(p.len_pkts(), 0);
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
            let mut serializing = false;
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
                        if serializing {
                            p.finish_service();
                            serializing = false;
                        } else {
                            serializing = p.start_service().is_some();
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
        /// departures, ends of serialization and admin flips, against a
        /// per-port `VecDeque` model: same admission, marks and
        /// `was_idle`; same FIFO order out of the queue and in it; same
        /// lengths, bytes and counters; and the arena holds exactly the
        /// packets the ports and their wires do — `live() == Σ (len +
        /// serializing)`.
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
            // What each port's driver holds: the departed packet still
            // serializing, if any.
            let mut wires: Vec<Option<PacketSlot>> = vec![None; ports.len()];
            let mut model: Vec<ModelPort> = qcfgs.iter().map(|_| ModelPort::default()).collect();
            for (seq, (op, i, payload)) in (0u32..).zip(ops) {
                let i = i % ports.len();
                let (port, wire, m) = (&mut ports[i], &mut wires[i], &mut model[i]);
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
                        let got = port.offer_in(&mut arena, slot, now, wire.is_some());
                        prop_assert_eq!(got, m.offer(pkt, qcfgs[i], now));
                        if got == Enqueued::Dropped {
                            arena.take(slot);
                        }
                    }
                    3 if wire.is_some() => {
                        let slot = wire.take().unwrap();
                        let want = m.in_service.take().unwrap();
                        prop_assert_eq!(seen(arena.get(slot)), seen(&want));
                        arena.take(slot);
                    }
                    3 | 4 if wire.is_none() && port.len_pkts() > 0 => {
                        let at = now.max(port.busy_until());
                        let (slot, tx) = port.depart_in(&mut arena, at);
                        prop_assert_eq!(port.busy_until(), at + tx);
                        let want = m.queue.pop_front().unwrap();
                        prop_assert_eq!(seen(arena.get(slot)), seen(&want));
                        m.pkts_tx += 1;
                        m.bytes_tx += want.wire_bytes as u64;
                        m.in_service = Some(want);
                        *wire = Some(slot);
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
                let held: usize = (ports.iter().zip(&wires))
                    .map(|(p, w)| p.len_pkts() + w.is_some() as usize)
                    .sum();
                prop_assert_eq!(arena.live(), held);
            }
        }
    }
}
