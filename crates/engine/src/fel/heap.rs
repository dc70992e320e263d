//! The binary-heap FEL: the differential oracle of [`super::CalendarFel`]
//! in `prop_backends_are_indistinguishable`. Test builds only.

use super::Entry;
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// A `BinaryHeap`-backed min-queue with [`crate::EventQueue`]'s clock and
/// counters. [`Entry`]'s reversed `Ord` turns the std max-heap into a
/// `(time, key, seq)` min-queue.
pub(crate) struct HeapFel<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
    monotonicity_violations: u64,
}

impl<E> HeapFel<E> {
    pub(crate) fn new() -> HeapFel<E> {
        HeapFel {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            monotonicity_violations: 0,
        }
    }

    pub(crate) fn push(&mut self, time: SimTime, event: E) {
        if time < self.now {
            self.monotonicity_violations += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time,
            key: 0,
            seq,
            event,
        });
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        if entry.time < self.now {
            self.monotonicity_violations += 1;
        }
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn monotonicity_violations(&self) -> u64 {
        self.monotonicity_violations
    }
}
