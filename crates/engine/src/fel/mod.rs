//! The future-event list (FEL): a two-tier calendar queue.
//!
//! The simulator's hot loop is push/pop on the FEL. [`CalendarFel`] keeps
//! timing-wheel buckets over the near future and a sorted overflow tier
//! for far-future timers; [`crate::EventQueue`] wraps it with the clock,
//! the sequence counter and the monotonicity accounting. A binary heap
//! over the same [`Entry`] order is the calendar's differential oracle in
//! the engine's tests, not a shipped backend.
//!
//! Determinism argument: [`Entry`]'s ordering key is `(time, key, seq)`
//! where `key` is a caller-chosen u32 rank (0 for every plain
//! [`crate::EventQueue::push`], so key-oblivious callers keep pure FIFO tie
//! order) and `seq` is the queue's monotone insertion counter. That triple
//! is unique per entry (no two entries share a `seq`), so "pop the minimum"
//! has exactly one correct answer at every step and any correct min-queue
//! produces the same event schedule — key-ranked then FIFO within a
//! timestamp, non-decreasing across timestamps. The calendar's internal
//! layout is free; only the key is the contract.
//!
//! Every `tlb-simnet` engine keys its events — there the key encodes
//! (event class, entity) and is the whole event — and reads the FEL head
//! by `(time, key)` ([`crate::EventQueue::peek_time_key`]), merging it
//! with the run's other event sources. The key is also what lets one
//! simulation split across per-shard queues: same-timestamp events in
//! *different* shards have no shared `seq` counter to order them, and with
//! each (class, entity) pushed by exactly one shard the cross-shard merge
//! order `(time, key)` is well defined while same-shard ties stay on the
//! local FIFO `seq`, which is exactly the order the serial engine realizes
//! with the same keys. (The
//! one key `tlb-simnet` lets every shard push is an admin event's: each
//! shard's copy touches only that shard's state, so the order among the
//! copies decides nothing.)

pub mod calendar;
#[cfg(test)]
pub(crate) mod heap;

pub use calendar::CalendarFel;

use crate::time::SimTime;
use std::cmp::Ordering;

/// One scheduled entry: timestamp + ordering key + monotone sequence
/// number + payload.
#[derive(Debug)]
pub struct Entry<E> {
    pub(crate) time: SimTime,
    pub(crate) key: u32,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    /// Reversed ordering so a `BinaryHeap` (a max-heap) pops the earliest
    /// timestamp first; ties broken by key rank, then insertion sequence
    /// (FIFO).
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Which FEL an [`crate::EventQueue`] uses. Vestigial: the calendar queue
/// is the only one and nothing reads this value. It stays only because
/// the benchmark harness still names it
/// ([`crate::EventQueue::with_capacity_and_kind`], `SimConfig::fel`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FelKind {
    /// Two-tier calendar queue (timing wheel + overflow).
    Calendar,
}
