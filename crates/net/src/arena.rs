//! A recycling arena for packets: where a packet is from the moment its
//! host emits it until it is delivered or dropped.
//!
//! Packets park in one flat slab, handles are 4 bytes, and freed slots go
//! on a free list for reuse, so steady state recycles storage instead of
//! allocating — and an idle port or link costs nothing, because neither
//! owns storage of its own. A port's queue and a link's wire are each a
//! [`PacketFifo`]: a `{ head, tail }` pair of slot indices, chained through
//! a `next` field in the slots, each slot also carrying a time its list
//! attaches to the packet (a wire's: when the packet arrives). A packet
//! changes lists by relinking its slot ([`PacketArena::unlink_front`], then
//! [`PacketArena::link_back`]), never by copying: it is written once, at
//! [`PacketArena::insert`], read and marked in place ([`PacketArena::get`],
//! [`PacketArena::get_mut`]) and copied out once, at
//! [`PacketArena::take`]. One slot is one cache line, so following a FIFO
//! touches exactly the lines of the packets on it.
//!
//! Handles are **generation-checked**: every slot carries an 8-bit
//! generation that increments each time the slot is freed, and the handle
//! embeds the generation it was issued under. Every operation that takes a
//! handle panics on a mismatch, so a stale handle (use-after-free,
//! double-take) is caught at the moment of misuse rather than silently
//! yielding another packet's bytes. Relinking keeps a handle valid: only
//! freeing retires it. With 8 generation bits an ABA false-negative needs
//! the same slot to be recycled exactly 256·k times between issue and
//! misuse — good enough for a test oracle, and free: the handle still fits
//! in 4 bytes, which is what keeps the simulator's event payload one word.
//!
//! The other 24 bits index the slab, so at most 2^24 (16.7 M) packets are
//! ever live in one arena at once. [`PacketArena::with_capacity`] reserves
//! no more than that — a larger request is clamped to it — and
//! [`PacketArena::insert`] panics on the packet that would exceed it.

use crate::packet::Packet;
use tlb_engine::SimTime;

/// Index bits in a [`PacketSlot`]; the rest hold the generation.
const IDX_BITS: u32 = 24;
const IDX_MASK: u32 = (1 << IDX_BITS) - 1;
/// Slots an arena can address.
const IDX_SPACE: usize = 1 << IDX_BITS;

/// A 4-byte generation-checked handle to a packet parked in a
/// [`PacketArena`]: 24 bits of slot index, 8 bits of generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketSlot(u32);

impl PacketSlot {
    #[inline]
    fn new(idx: u32, generation: u8) -> PacketSlot {
        debug_assert!(idx <= IDX_MASK);
        PacketSlot(idx | (u32::from(generation) << IDX_BITS))
    }

    /// The slot index this handle points at.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & IDX_MASK) as usize
    }

    /// The generation this handle was issued under.
    #[inline]
    pub fn generation(self) -> u8 {
        (self.0 >> IDX_BITS) as u8
    }
}

/// "No slot": an empty [`PacketFifo`]'s head, the last slot's `next`.
const NIL: u32 = u32::MAX;

struct Slot {
    generation: u8,
    /// The slot behind this one on its [`PacketFifo`] (`NIL` at the tail);
    /// meaningless while the packet is on no list.
    next: u32,
    /// The time the packet's list attached to it at
    /// [`PacketArena::link_back`].
    at: SimTime,
    pkt: Packet,
}

/// A FIFO of packets parked in a [`PacketArena`], each with a time — a
/// port's queue or a link's wire. The handle is two slot indices; the
/// packets and the chain live in the arena, so every operation takes both.
#[derive(Clone, Copy, Debug)]
pub struct PacketFifo {
    head: u32,
    tail: u32,
}

impl PacketFifo {
    /// True when no packet is on the FIFO.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

impl Default for PacketFifo {
    /// A FIFO with nothing on it.
    fn default() -> PacketFifo {
        PacketFifo {
            head: NIL,
            tail: NIL,
        }
    }
}

/// A slab of packets with free-list recycling, generation-checked handles
/// and FIFO lists through the slots. See the module docs for the design.
#[derive(Default)]
pub struct PacketArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
}

impl std::fmt::Debug for PacketArena {
    /// Occupancy, not contents: a fabric's arena holds thousands of
    /// packets.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketArena")
            .field("live", &self.live)
            .field("peak_live", &self.peak_live)
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl PacketArena {
    /// An empty arena that has not allocated yet.
    pub fn new() -> PacketArena {
        PacketArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
        }
    }

    /// An arena pre-sized for `cap` concurrently live packets: neither the
    /// slot slab nor the free list reallocates until occupancy exceeds it.
    /// Past the 24-bit index space the reservation is clamped to 2^24
    /// slots, all an arena can address.
    pub fn with_capacity(cap: usize) -> PacketArena {
        let cap = cap.min(IDX_SPACE);
        PacketArena {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            live: 0,
            peak_live: 0,
        }
    }

    /// Park a packet on no list, returning its handle. Reuses a freed slot
    /// when one exists; grows the slab (the only allocating path)
    /// otherwise.
    #[inline]
    pub fn insert(&mut self, pkt: Packet) -> PacketSlot {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            slot.pkt = pkt;
            PacketSlot::new(idx, slot.generation)
        } else {
            let idx = self.slots.len();
            assert!(
                idx < IDX_SPACE,
                "packet arena exhausted its 24-bit index space"
            );
            self.slots.push(Slot {
                generation: 0,
                next: NIL,
                at: SimTime::ZERO,
                pkt,
            });
            PacketSlot::new(idx as u32, 0)
        }
    }

    /// The slot `handle` names, or a panic if the handle is stale — the
    /// slot was freed (and possibly reissued) since it was issued.
    #[inline]
    fn check(&self, handle: PacketSlot) -> usize {
        assert_eq!(
            self.slots[handle.index()].generation,
            handle.generation(),
            "stale PacketSlot {handle:?}: slot was freed since this handle was issued"
        );
        handle.index()
    }

    /// The packet `handle` names, read in place.
    ///
    /// Panics if the handle is stale.
    #[inline]
    pub fn get(&self, handle: PacketSlot) -> &Packet {
        &self.slots[self.check(handle)].pkt
    }

    /// The packet `handle` names, to mark in place.
    ///
    /// Panics if the handle is stale.
    #[inline]
    pub fn get_mut(&mut self, handle: PacketSlot) -> &mut Packet {
        let idx = self.check(handle);
        &mut self.slots[idx].pkt
    }

    /// Take a packet back out, freeing its slot for reuse. The packet must
    /// be on no list.
    ///
    /// Panics if the handle is stale.
    #[inline]
    pub fn take(&mut self, handle: PacketSlot) -> Packet {
        let idx = self.check(handle);
        self.release(idx as u32)
    }

    /// Free slot `idx`, retiring every handle issued for it.
    #[inline]
    fn release(&mut self, idx: u32) -> Packet {
        let slot = &mut self.slots[idx as usize];
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        slot.pkt
    }

    /// Link the packet `handle` names, which must be on no list, at the
    /// back of `list` with time `at`.
    ///
    /// Panics if the handle is stale.
    #[inline]
    pub fn link_back(&mut self, list: &mut PacketFifo, handle: PacketSlot, at: SimTime) {
        let idx = self.check(handle) as u32;
        let slot = &mut self.slots[idx as usize];
        slot.at = at;
        slot.next = NIL;
        if list.is_empty() {
            list.head = idx;
        } else {
            self.slots[list.tail as usize].next = idx;
        }
        list.tail = idx;
    }

    /// Unlink `list`'s oldest packet and return its handle, still valid:
    /// the packet stays parked, on no list, until it is linked again or
    /// taken.
    #[inline]
    pub fn unlink_front(&mut self, list: &mut PacketFifo) -> Option<PacketSlot> {
        if list.is_empty() {
            return None;
        }
        let idx = list.head;
        let slot = &self.slots[idx as usize];
        list.head = slot.next;
        Some(PacketSlot::new(idx, slot.generation))
    }

    /// The time `list` attached to its oldest packet (a wire's: when it
    /// arrives).
    #[inline]
    pub fn front_at(&self, list: &PacketFifo) -> Option<SimTime> {
        (!list.is_empty()).then(|| self.slots[list.head as usize].at)
    }

    /// The time `list` attached to its newest packet (a wire's: the latest
    /// arrival already scheduled on it).
    #[inline]
    pub fn back_at(&self, list: &PacketFifo) -> Option<SimTime> {
        (!list.is_empty()).then(|| self.slots[list.tail as usize].at)
    }

    /// Take `list`'s oldest packet and its time, freeing the slot.
    #[inline]
    pub fn pop_front(&mut self, list: &mut PacketFifo) -> Option<(SimTime, Packet)> {
        let at = self.front_at(list)?;
        let handle = self.unlink_front(list)?;
        Some((at, self.take(handle)))
    }

    /// Empty `list`, oldest packet first, freeing every slot.
    pub fn drain<'a>(
        &'a mut self,
        list: &'a mut PacketFifo,
    ) -> impl Iterator<Item = (SimTime, Packet)> + 'a {
        std::iter::from_fn(move || self.pop_front(list))
    }

    /// The packets on `list`, oldest first, read in place.
    pub fn iter<'a>(&'a self, list: &PacketFifo) -> impl Iterator<Item = &'a Packet> + 'a {
        let mut cur = list.head;
        std::iter::from_fn(move || {
            let slot = self.slots.get(cur as usize)?;
            cur = slot.next;
            Some(&slot.pkt)
        })
    }

    /// Packets currently parked, on a list or not.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// True when no packet is parked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// High-water mark of concurrently parked packets.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Slots the slab has materialized (== peak live occupancy so far,
    /// since freed slots are reused before the slab grows).
    pub fn slots_allocated(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, HostId};
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn pkt(seq: u32) -> Packet {
        Packet::data(
            FlowId(1),
            HostId(0),
            HostId(5),
            seq,
            1460,
            40,
            SimTime::ZERO,
        )
    }

    /// Park `pkt` at the back of `list` with time `at`.
    fn push(a: &mut PacketArena, list: &mut PacketFifo, at: SimTime, pkt: Packet) -> PacketSlot {
        let h = a.insert(pkt);
        a.link_back(list, h, at);
        h
    }

    #[test]
    fn roundtrip_preserves_packet() {
        let mut a = PacketArena::new();
        let h = a.insert(pkt(7));
        assert_eq!(a.live(), 1);
        let p = a.take(h);
        assert_eq!(p.seq, 7);
        assert!(a.is_empty());
    }

    #[test]
    fn freed_slots_are_reused_not_grown() {
        let mut a = PacketArena::new();
        for round in 0..100u32 {
            let h = a.insert(pkt(round));
            assert_eq!(a.take(h).seq, round);
        }
        assert_eq!(
            a.slots_allocated(),
            1,
            "sequential insert/take must recycle one slot"
        );
        assert_eq!(a.peak_live(), 1);
    }

    #[test]
    fn interleaved_handles_stay_distinct() {
        let mut a = PacketArena::with_capacity(8);
        let hs: Vec<PacketSlot> = (0..8).map(|s| a.insert(pkt(s))).collect();
        assert_eq!(a.live(), 8);
        // Take in a scrambled order; every handle must yield its own packet.
        for &i in &[3usize, 0, 7, 1, 6, 2, 5, 4] {
            assert_eq!(a.take(hs[i]).seq, i as u32);
        }
        assert_eq!(a.slots_allocated(), 8);
        assert_eq!(a.peak_live(), 8);
    }

    #[test]
    #[should_panic(expected = "stale PacketSlot")]
    fn double_take_panics() {
        let mut a = PacketArena::new();
        let h = a.insert(pkt(0));
        let _ = a.take(h);
        let _ = a.take(h);
    }

    #[test]
    #[should_panic(expected = "stale PacketSlot")]
    fn use_after_reissue_panics() {
        let mut a = PacketArena::new();
        let stale = a.insert(pkt(0));
        let _ = a.take(stale);
        // The slot is reissued under a new generation; the old handle must
        // not be able to steal the new occupant.
        let fresh = a.insert(pkt(1));
        assert_eq!(fresh.index(), stale.index());
        assert_ne!(fresh.generation(), stale.generation());
        let _ = a.get(stale);
    }

    #[test]
    fn packets_are_read_and_marked_in_place() {
        let mut a = PacketArena::new();
        let mut q = PacketFifo::default();
        let h = push(&mut a, &mut q, SimTime::ZERO, pkt(3));
        assert!(!a.get(h).ce());
        a.get_mut(h).mark_ce();
        let seen: Vec<(u32, bool)> = a.iter(&q).map(|p| (p.seq, p.ce())).collect();
        assert_eq!(seen, [(3, true)]);
        let head = a.unlink_front(&mut q).unwrap();
        assert_eq!(head, h);
        assert!(a.take(head).ce());
    }

    #[test]
    fn handle_packs_index_and_generation() {
        let h = PacketSlot::new(0x00AB_CDEF, 0x7F);
        assert_eq!(h.index(), 0x00AB_CDEF);
        assert_eq!(h.generation(), 0x7F);
        assert_eq!(std::mem::size_of::<PacketSlot>(), 4);
    }

    #[test]
    fn slot_is_one_cache_line() {
        // One line per parked packet: following a FIFO touches exactly the
        // lines of the packets on it. A field that pushes the slot past 64
        // bytes doubles that.
        assert!(
            std::mem::size_of::<Slot>() <= 64,
            "Slot grew to {} bytes",
            std::mem::size_of::<Slot>()
        );
    }

    #[test]
    fn fifo_pops_in_push_order_with_arrival_times() {
        let mut a = PacketArena::new();
        let mut wire = PacketFifo::default();
        assert!(wire.is_empty() && a.front_at(&wire).is_none());
        assert!(a.pop_front(&mut wire).is_none());
        push(&mut a, &mut wire, SimTime::from_nanos(10), pkt(1));
        push(&mut a, &mut wire, SimTime::from_nanos(10), pkt(2));
        push(&mut a, &mut wire, SimTime::from_nanos(30), pkt(3));
        assert_eq!(a.live(), 3);
        assert_eq!(a.front_at(&wire), Some(SimTime::from_nanos(10)));
        let popped: Vec<_> = a
            .drain(&mut wire)
            .map(|(at, p)| (at.as_nanos(), p.seq))
            .collect();
        assert_eq!(popped, [(10, 1), (10, 2), (30, 3)]);
        assert!(wire.is_empty() && a.is_empty());
    }

    #[test]
    fn with_capacity_does_not_grow_within_bound() {
        let mut a = PacketArena::with_capacity(16);
        let cap_slots = a.slots.capacity();
        let cap_free = a.free.capacity();
        let hs: Vec<_> = (0..16).map(|s| a.insert(pkt(s))).collect();
        for h in hs {
            a.take(h);
        }
        assert_eq!(a.slots.capacity(), cap_slots);
        assert_eq!(a.free.capacity(), cap_free);
    }

    #[test]
    fn with_capacity_reserves_the_request_up_to_the_index_space() {
        // Below the 2^24 slots a handle can name, the reservation is the
        // request — a k = 16 fat tree asks for about 3.4 M. Past it, the
        // request is clamped: slots no handle could reach would only waste
        // address space, and the packet that would need a 2^24-th slot
        // panics at `insert` instead. (The clamped reservation is address
        // space only; no page of it is written here.)
        assert_eq!(IDX_SPACE, 16_777_216);
        let small = PacketArena::with_capacity(5);
        assert_eq!((small.slots.capacity(), small.free.capacity()), (5, 5));
        let huge = PacketArena::with_capacity(usize::MAX);
        assert_eq!(huge.slots.capacity(), IDX_SPACE);
        assert_eq!(huge.free.capacity(), IDX_SPACE);
    }

    proptest! {
        /// Random `insert`+`link_back` / `pop_front` / `drain` over 1–8
        /// FIFOs sharing one arena, interleaved with plain `insert` /
        /// `take`, against a `VecDeque` per FIFO: same pop streams, same
        /// head and tail times, `live()` is the model's size, the slab
        /// never outgrows peak occupancy, and a handle kept past its
        /// `pop_front` is stale.
        #[test]
        fn prop_fifos_match_vecdeque_model(
            n_lists in 1usize..9,
            ops in proptest::collection::vec((0u8..6, 0usize..8, 0u64..50), 1..300),
        ) {
            let mut a = PacketArena::new();
            let mut lists = vec![PacketFifo::default(); n_lists];
            let mut model: Vec<VecDeque<(SimTime, u32, PacketSlot)>> =
                vec![VecDeque::new(); n_lists];
            let mut loose: Vec<(PacketSlot, u32)> = Vec::new();
            for (seq, (op, l, at)) in (0u32..).zip(ops) {
                let (l, at) = (l % n_lists, SimTime::from_nanos(at));
                match op {
                    0 | 1 => {
                        let h = push(&mut a, &mut lists[l], at, pkt(seq));
                        model[l].push_back((at, seq, h));
                    }
                    2 => {
                        let got = a.pop_front(&mut lists[l]).map(|(at, p)| (at, p.seq));
                        let want = model[l].pop_front();
                        prop_assert_eq!(got, want.map(|(at, seq, _)| (at, seq)));
                        if let Some((_, _, stale)) = want {
                            let took = catch_unwind(AssertUnwindSafe(|| a.take(stale)));
                            prop_assert!(took.is_err(), "popped handle still takes");
                        }
                    }
                    3 => {
                        let got: Vec<_> =
                            a.drain(&mut lists[l]).map(|(at, p)| (at, p.seq)).collect();
                        let want: Vec<_> =
                            model[l].drain(..).map(|(at, seq, _)| (at, seq)).collect();
                        prop_assert_eq!(got, want);
                    }
                    4 => loose.push((a.insert(pkt(seq)), seq)),
                    _ if loose.is_empty() => {}
                    _ => {
                        let (h, want) = loose.swap_remove(l % loose.len());
                        prop_assert_eq!(a.take(h).seq, want);
                    }
                }
                for (list, m) in lists.iter().zip(&model) {
                    prop_assert_eq!(list.is_empty(), m.is_empty());
                    prop_assert_eq!(a.front_at(list), m.front().map(|e| e.0));
                    prop_assert_eq!(a.back_at(list), m.back().map(|e| e.0));
                }
                let parked = model.iter().map(VecDeque::len).sum::<usize>() + loose.len();
                prop_assert_eq!(a.live(), parked);
                prop_assert_eq!(a.slots_allocated(), a.peak_live());
            }
        }

        /// Handles moving between 1–8 lists (`unlink_front` of one,
        /// `link_back` onto another — the way a packet goes from a port's
        /// queue to its wire to the next port's queue), interleaved with
        /// fresh packets joining and heads leaving for good: every list
        /// reads back as its `VecDeque` model, in order, with its times; a
        /// moved handle is the one that was linked, still valid; nothing is
        /// copied or freed by a move (`live()` counts every list); and a
        /// handle taken once is stale to `get`, `take` and `link_back`.
        #[test]
        fn prop_relinking_keeps_every_list_fifo(
            n_lists in 1usize..9,
            ops in proptest::collection::vec((0u8..4, 0usize..8, 0usize..8, 0u64..50), 1..300),
        ) {
            let mut a = PacketArena::new();
            let mut lists = vec![PacketFifo::default(); n_lists];
            let mut model: Vec<VecDeque<(SimTime, u32, PacketSlot)>> =
                vec![VecDeque::new(); n_lists];
            for (seq, (op, from, to, at)) in (0u32..).zip(ops) {
                let (from, to, at) = (from % n_lists, to % n_lists, SimTime::from_nanos(at));
                match op {
                    0 => {
                        let h = push(&mut a, &mut lists[to], at, pkt(seq));
                        model[to].push_back((at, seq, h));
                    }
                    1 | 2 => {
                        let got = a.unlink_front(&mut lists[from]);
                        let want = model[from].pop_front();
                        prop_assert_eq!(got, want.map(|e| e.2));
                        if let (Some(h), Some((_, seq, _))) = (got, want) {
                            prop_assert_eq!(a.get(h).seq, seq);
                            a.link_back(&mut lists[to], h, at);
                            model[to].push_back((at, seq, h));
                        }
                    }
                    _ => {
                        let Some(h) = a.unlink_front(&mut lists[from]) else {
                            prop_assert!(model[from].is_empty());
                            continue;
                        };
                        let (_, seq, want) = model[from].pop_front().unwrap();
                        prop_assert_eq!(h, want);
                        prop_assert_eq!(a.take(h).seq, seq);
                        let get = catch_unwind(AssertUnwindSafe(|| {
                            let _ = a.get(h);
                        }));
                        let take = catch_unwind(AssertUnwindSafe(|| {
                            let _ = a.take(h);
                        }));
                        let mut spare = PacketFifo::default();
                        let link =
                            catch_unwind(AssertUnwindSafe(|| a.link_back(&mut spare, h, at)));
                        prop_assert!(
                            get.is_err() && take.is_err() && link.is_err() && spare.is_empty(),
                            "a taken handle is still usable"
                        );
                    }
                }
                for (list, m) in lists.iter().zip(&model) {
                    let got: Vec<u32> = a.iter(list).map(|p| p.seq).collect();
                    let want: Vec<u32> = m.iter().map(|e| e.1).collect();
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(a.front_at(list), m.front().map(|e| e.0));
                    prop_assert_eq!(a.back_at(list), m.back().map(|e| e.0));
                }
                prop_assert_eq!(a.live(), model.iter().map(VecDeque::len).sum::<usize>());
            }
        }
    }
}
