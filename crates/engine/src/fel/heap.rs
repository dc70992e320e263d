//! The original binary-heap FEL, kept as the differential reference for
//! [`super::CalendarFel`] ([`super::FelKind::Heap`]).

use super::{Entry, FelBackend};
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// A `BinaryHeap`-backed FEL. [`Entry`]'s reversed `Ord` turns the std
/// max-heap into a `(time, key, seq)` min-queue.
pub struct HeapFel<E> {
    heap: BinaryHeap<Entry<E>>,
}

impl<E> HeapFel<E> {
    /// An empty heap.
    pub fn new() -> HeapFel<E> {
        HeapFel {
            heap: BinaryHeap::new(),
        }
    }

    /// An empty heap with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> HeapFel<E> {
        HeapFel {
            heap: BinaryHeap::with_capacity(cap),
        }
    }
}

impl<E> Default for HeapFel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> FelBackend<E> for HeapFel<E> {
    #[inline]
    fn insert(&mut self, entry: Entry<E>, _now: SimTime) {
        self.heap.push(entry);
    }

    #[inline]
    fn remove_min(&mut self) -> Option<Entry<E>> {
        self.heap.pop()
    }

    #[inline]
    fn min_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    #[inline]
    fn min_time_key(&self) -> Option<(SimTime, u32)> {
        self.heap.peek().map(|e| (e.time, e.key))
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }
}
