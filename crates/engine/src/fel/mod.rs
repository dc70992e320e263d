//! Future-event-list (FEL) backends.
//!
//! The simulator's hot loop is push/pop on the FEL, so the backend is
//! swappable: the default [`CalendarFel`] is a two-tier calendar queue
//! (timing-wheel buckets over the near future, a sorted overflow tier for
//! far-future timers), and [`HeapFel`] keeps the original binary heap alive
//! as a differential reference. Both implement [`FelBackend`] and both must
//! yield the exact same pop order — a total order over `(time, key, seq)` —
//! so every simulation digest is bit-identical regardless of backend. The
//! backend is selected per-queue via [`FelKind`]; see
//! [`crate::EventQueue::with_capacity_and_kind`].
//!
//! Determinism argument: [`Entry`]'s ordering key is `(time, key, seq)`
//! where `key` is a caller-chosen u32 rank (0 for every plain
//! [`crate::EventQueue::push`], so key-oblivious callers keep pure FIFO tie
//! order) and `seq` is the queue's monotone insertion counter. That triple
//! is unique per entry (no two entries share a `seq`), so "pop the minimum"
//! has exactly one correct answer at every step and any correct backend
//! produces the same event schedule — key-ranked then FIFO within a
//! timestamp, non-decreasing across timestamps. Backends therefore never
//! need to agree on internal layout, only on the key.
//!
//! The `key` dimension exists for the sharded engine: when one simulation
//! is split across per-shard queues, same-timestamp events in *different*
//! shards have no shared `seq` counter to order them. A key that encodes
//! (event class, entity) — with each (class, entity) pushed by exactly one
//! shard — makes the cross-shard merge order `(time, key)` well defined
//! while leaving same-shard ties on the local FIFO `seq`, which is exactly
//! the order the serial engine realizes when it uses the same keys. (The
//! one key `tlb-simnet` lets every shard push is an admin event's: each
//! shard's copy touches only that shard's state, so the order among the
//! copies decides nothing.)

pub mod calendar;
pub mod heap;

pub use calendar::CalendarFel;
pub use heap::HeapFel;

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

/// Which FEL backend an [`crate::EventQueue`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FelKind {
    /// Two-tier calendar queue (timing wheel + overflow) — the default.
    Calendar,
    /// The original binary heap, kept as a differential reference.
    Heap,
}

/// The operations a FEL backend provides. [`crate::EventQueue`] owns the
/// clock, the sequence counter and the monotonicity accounting; backends
/// only order entries by `(time, key, seq)`.
pub trait FelBackend<E> {
    /// Insert `entry`. `now` is the caller's clock: the calendar backend
    /// windows its wheel on it. An entry with `entry.time < now` (already
    /// counted as a violation by the caller, panicking in debug builds)
    /// must still come back in plain `(time, key, seq)` order.
    fn insert(&mut self, entry: Entry<E>, now: SimTime);

    /// Remove and return the `(time, key, seq)`-minimum entry.
    fn remove_min(&mut self) -> Option<Entry<E>>;

    /// Timestamp of the minimum entry, without removing it. Must be O(1).
    fn min_time(&self) -> Option<SimTime>;

    /// `(time, key)` of the minimum entry, without removing it. Must be
    /// O(1) — the sharded engine's merge loop peeks every shard per step.
    fn min_time_key(&self) -> Option<(SimTime, u32)>;

    /// Number of pending entries.
    fn len(&self) -> usize;

    /// True when no entries are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
