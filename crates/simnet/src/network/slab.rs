//! Slabs of live connections: where a flow's sender and receiver are while
//! its connection is open.
//!
//! A [`Slab`] is a `Vec` plus a LIFO free list, both reserved once at build
//! for every flow the `Net` can host, and touched only as deep as the run's
//! peak concurrency — a released slot is reused before the slab grows, as
//! [`tlb_net::PacketArena`]'s are. A released slot keeps its last occupant
//! until the next insert, which may recycle storage from it.

use std::num::NonZeroU32;
use std::ops::{Index, IndexMut};

/// A handle to an occupied slot: its index plus one, so that
/// `Option<SlabSlot>` is 4 bytes.
pub(super) type SlabSlot = NonZeroU32;

pub(super) struct Slab<T> {
    items: Vec<T>,
    /// Released slots, most recent last.
    free: Vec<SlabSlot>,
}

impl<T> Slab<T> {
    /// A slab that holds `cap` live entries before either `Vec` regrows.
    pub fn with_capacity(cap: usize) -> Slab<T> {
        Slab {
            items: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
        }
    }

    /// Occupy a slot with what `make` builds from the slot's previous
    /// occupant — the most recently released slot's, or `None` when every
    /// slot is live and the slab grows by one.
    pub fn insert_with(&mut self, make: impl FnOnce(Option<&mut T>) -> T) -> SlabSlot {
        if let Some(slot) = self.free.pop() {
            self[slot] = make(Some(&mut self[slot]));
            return slot;
        }
        self.items.push(make(None));
        SlabSlot::new(self.items.len() as u32).expect("a slab holds fewer than 2^32 entries")
    }

    /// Release `slot`, returning its occupant as it leaves.
    pub fn release(&mut self, slot: SlabSlot) -> &T {
        self.free.push(slot);
        &self[slot]
    }

    /// High-water mark of live entries: the slots ever occupied.
    pub fn peak(&self) -> usize {
        self.items.len()
    }
}

impl<T> Index<SlabSlot> for Slab<T> {
    type Output = T;
    fn index(&self, slot: SlabSlot) -> &T {
        &self.items[slot.get() as usize - 1]
    }
}

impl<T> IndexMut<SlabSlot> for Slab<T> {
    fn index_mut(&mut self, slot: SlabSlot) -> &mut T {
        &mut self.items[slot.get() as usize - 1]
    }
}
