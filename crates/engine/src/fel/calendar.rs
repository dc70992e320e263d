//! Two-tier calendar-queue FEL: a timing wheel over the near future plus a
//! binary-heap overflow tier for far-future entries.
//!
//! # Layout
//!
//! Time is divided into fixed-width buckets of `2^shift` nanoseconds; an
//! entry's *slot* is `time_ns >> shift` (violating entries are clamped to
//! `now` for bucketing only — their sort key is untouched). The wheel holds
//! the next `nb` slots as `nb` physical buckets (`slot & (nb-1)`); anything
//! at or past `slot(now) + nb` waits in the overflow heap and is promoted
//! into the wheel as the clock advances. With the default geometry
//! (512 ns × 4096 ≈ 2.1 ms) the wheel window comfortably covers
//! link-serialization, propagation and LB-tick horizons, while RTO timers
//! (≥ 10 ms) ride the overflow tier — senders keep at most one pending
//! timer each, so overflow traffic is rare and its `O(log n)` cost
//! immaterial. (The simulator keeps what it knows at build, such as
//! not-yet-started flows, out of the FEL altogether.)
//!
//! The minimum bucket is held *activated*: its entries live in `active`,
//! sorted **descending** by `(time, key, seq)` so `Vec::pop` yields the minimum
//! without shifting. Every other bucket is a singly linked list of nodes
//! in one shared pool (`heads[p]` is the list head, `NIL` when empty): a
//! push links the most recently freed node, so the memory a push writes is
//! the memory a pop just read, and storage is O(peak wheel entries) however
//! far the wheel spans. Activation walks the list into `active`, frees its
//! nodes and sorts once (the key is unique, so list order is irrelevant).
//! An occupancy bitmap (one bit per physical bucket) makes
//! next-non-empty-bucket a word scan.
//!
//! # Invariants
//!
//! 1. **Window purity.** Every wheel entry's slot lies in
//!    `[slot(now), slot(now) + nb)`: pushes outside go to overflow, and
//!    promotion (which only runs while popping, i.e. right after `now`
//!    advances) admits only slots below `slot(now) + nb`. Hence no physical
//!    bucket ever mixes two wheel rotations, and a bucket can be sorted
//!    without comparing rotation counts.
//! 2. **Tier order.** After every promotion pass, each overflow entry's
//!    slot is `>= slot(now) + nb`, strictly above every wheel entry's slot
//!    (by 1). So the wheel holds a *prefix* of the schedule and
//!    [`CalendarFel::min_time`] is `active.last()` when the wheel is
//!    non-empty, else the overflow top — O(1).
//! 3. **Active minimality.** `active` is the occupied bucket with the
//!    lowest slot; a push below `active_slot` lands in a provably empty
//!    bucket (all entries at slots `< active_slot` would contradict 3, all
//!    entries at `active_slot` live in `active`) which becomes the new
//!    active bucket; the old remainder retires to its—also empty—home
//!    bucket. `wheel_len > 0` implies `active` is non-empty.
//!
//! Together with the unique `(time, key, seq)` key these give the same pop
//! sequence as any correct min-queue; see the module docs of [`super`].

use super::Entry;
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// Default bucket width: `2^9` = 512 ns.
pub const DEFAULT_SHIFT: u32 = 9;
/// Default wheel size (buckets); with [`DEFAULT_SHIFT`] the wheel spans
/// ~2.1 ms.
pub const DEFAULT_BUCKETS: usize = 4096;

/// "No node": the empty-list head, the end-of-list link, the empty free list.
const NIL: u32 = u32::MAX;

/// One pooled entry: an [`Entry`]'s fields plus the list link. `event` is
/// `None` exactly while the node sits on the free list; spelling the
/// fields out (rather than `Option<Entry<E>>` + `next`) lets the link
/// share the word `key` leaves half empty.
struct Node<E> {
    time: SimTime,
    seq: u64,
    key: u32,
    next: u32,
    event: Option<E>,
}

/// The node store every non-active bucket's list lives in, with a LIFO
/// free list threaded through the unused nodes.
struct Pool<E> {
    nodes: Vec<Node<E>>,
    free: u32,
}

impl<E> Pool<E> {
    /// Store `entry` in the most recently freed node (growing the pool
    /// only when none is free), linked in front of `next`.
    #[inline]
    fn link(&mut self, entry: Entry<E>, next: u32) -> u32 {
        let node = Node {
            time: entry.time,
            seq: entry.seq,
            key: entry.key,
            next,
            event: Some(entry.event),
        };
        if self.free == NIL {
            let i = self.nodes.len();
            assert!(i < NIL as usize, "calendar pool exhausted its u32 index");
            self.nodes.push(node);
            return i as u32;
        }
        let i = self.free;
        self.free = std::mem::replace(&mut self.nodes[i as usize], node).next;
        i
    }

    /// Move the list starting at `head` into `out`, freeing its nodes.
    fn unlink_into(&mut self, mut head: u32, out: &mut Vec<Entry<E>>) {
        while head != NIL {
            let node = &mut self.nodes[head as usize];
            out.push(Entry {
                time: node.time,
                key: node.key,
                seq: node.seq,
                event: node.event.take().expect("listed node holds no event"),
            });
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = head;
            head = next;
        }
    }
}

/// A two-tier calendar-queue FEL. See the module docs for the design.
pub struct CalendarFel<E> {
    /// log2 of the bucket width in nanoseconds.
    shift: u32,
    /// Physical bucket count (power of two).
    nb: usize,
    /// `nb - 1`, as a slot mask.
    mask: u64,
    /// Per-bucket list head into `pool`, indexed by `slot & mask`.
    heads: Vec<u32>,
    /// The nodes of every non-active bucket.
    pool: Pool<E>,
    /// Occupancy bitmap over `heads` (the active bucket's bit is clear).
    occ: Vec<u64>,
    /// The activated minimum bucket, sorted descending by `(time, key, seq)`.
    active: Vec<Entry<E>>,
    /// Absolute slot of the active bucket (meaningful iff `wheel_len > 0`).
    active_slot: u64,
    /// Entries in the wheel, including the active bucket.
    wheel_len: usize,
    /// Far-future tier (`Entry`'s reversed `Ord` makes this a min-queue).
    overflow: BinaryHeap<Entry<E>>,
}

impl<E> CalendarFel<E> {
    /// Bytes one pooled wheel entry occupies (callers pin it for their
    /// event type: the pool is the FEL's hot working set).
    pub const NODE_BYTES: usize = std::mem::size_of::<Node<E>>();

    /// An empty queue with the default geometry.
    pub fn new() -> CalendarFel<E> {
        Self::with_geometry(DEFAULT_SHIFT, DEFAULT_BUCKETS)
    }

    /// An empty queue that holds `cap` entries without reallocating,
    /// wherever they land: far-future pushes go to the overflow tier, the
    /// wheel's share to the pool, and one bucket can hold all of it when
    /// activated. Three reservations, whatever the wheel size; pages are
    /// touched only as entries arrive, so resident memory follows the peak
    /// depth, not `cap`.
    pub fn with_capacity(cap: usize) -> CalendarFel<E> {
        let mut q = Self::new();
        q.overflow.reserve(cap);
        q.pool.nodes.reserve(cap);
        q.active.reserve(cap);
        q
    }

    /// An empty queue with `2^shift`-ns buckets and an `nb`-bucket wheel
    /// (`nb` a power of two, ≥ 64). Small wheels force heavy
    /// overflow/promotion churn and exist for stress tests; prefer
    /// [`CalendarFel::new`].
    pub fn with_geometry(shift: u32, nb: usize) -> CalendarFel<E> {
        assert!(
            nb.is_power_of_two() && nb >= 64,
            "wheel size {nb}: want a power of two >= 64"
        );
        assert!(shift < 32, "bucket shift {shift} unreasonably large");
        CalendarFel {
            shift,
            nb,
            mask: (nb - 1) as u64,
            heads: vec![NIL; nb],
            pool: Pool {
                nodes: Vec::new(),
                free: NIL,
            },
            occ: vec![0u64; nb / 64],
            active: Vec::new(),
            active_slot: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// High-water mark of the node pool: the most entries that ever sat in
    /// non-active buckets at once (the pool never shrinks).
    pub fn pool_nodes_peak(&self) -> usize {
        self.pool.nodes.len()
    }

    #[inline]
    fn slot_of(&self, t: SimTime) -> u64 {
        t.as_nanos() >> self.shift
    }

    #[inline]
    fn set_bit(&mut self, p: usize) {
        self.occ[p / 64] |= 1u64 << (p % 64);
    }

    #[inline]
    fn clear_bit(&mut self, p: usize) {
        self.occ[p / 64] &= !(1u64 << (p % 64));
    }

    /// First occupied physical bucket at or (cyclically) after `start`.
    fn next_occupied_from(&self, start: usize) -> Option<usize> {
        let words = self.occ.len();
        let (w0, b0) = (start / 64, start % 64);
        let masked = self.occ[w0] & (!0u64 << b0);
        if masked != 0 {
            return Some(w0 * 64 + masked.trailing_zeros() as usize);
        }
        // On full wrap (`k == words`) the low bits of word `w0` are the
        // farthest-future slots; its high bits were proven clear above.
        for k in 1..=words {
            let w = (w0 + k) % words;
            if self.occ[w] != 0 {
                return Some(w * 64 + self.occ[w].trailing_zeros() as usize);
            }
        }
        None
    }

    /// Link `entry` into non-active bucket `p`.
    #[inline]
    fn link(&mut self, p: usize, entry: Entry<E>) {
        self.heads[p] = self.pool.link(entry, self.heads[p]);
        self.set_bit(p);
    }

    /// Move the active remainder back to its (empty) home bucket.
    fn retire_active(&mut self) {
        debug_assert!(!self.active.is_empty());
        let p = (self.active_slot & self.mask) as usize;
        debug_assert!(self.heads[p] == NIL, "active home bucket not empty");
        while let Some(entry) = self.active.pop() {
            self.link(p, entry);
        }
    }

    /// Activate the occupied bucket with the lowest slot (≥ `slot(now)`).
    fn activate_next(&mut self, now: SimTime) {
        debug_assert!(self.wheel_len > 0 && self.active.is_empty());
        let now_slot = self.slot_of(now);
        let start = (now_slot & self.mask) as usize;
        let p = self
            .next_occupied_from(start)
            .expect("wheel_len > 0 but no occupied bucket");
        self.clear_bit(p);
        // Physical → absolute slot: window purity guarantees exactly one
        // in-window rotation per physical bucket.
        let delta = (p + self.nb - start) & (self.nb - 1);
        self.active_slot = now_slot + delta as u64;
        let head = std::mem::replace(&mut self.heads[p], NIL);
        self.pool.unlink_into(head, &mut self.active);
        self.active
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.key, e.seq)));
    }

    /// Pull overflow entries whose slot fell inside the wheel window at
    /// `now` into their buckets. Runs only while popping (right after the
    /// clock advanced), which is what keeps tier order an invariant.
    fn promote(&mut self, now: SimTime) {
        let limit = self.slot_of(now) + self.nb as u64;
        while let Some(top) = self.overflow.peek() {
            let slot = self.slot_of(top.time);
            if slot >= limit {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry vanished");
            // Promoted slots exceed every pre-existing wheel slot (tier
            // order), in particular `active_slot`: always a plain bucket.
            self.link((slot & self.mask) as usize, entry);
            self.wheel_len += 1;
        }
    }
}

#[cfg(test)]
impl<E> CalendarFel<E> {
    /// `(nodes on bucket lists, nodes on the free list, pool size)`,
    /// checking on the way that list heads and occupancy bits agree, that
    /// exactly the listed nodes hold an event, and that the lists hold
    /// every wheel entry outside `active`.
    pub(crate) fn pool_census(&self) -> (usize, usize, usize) {
        let walk = |mut i: u32, listed: bool| {
            let mut n = 0;
            while i != NIL {
                let node = &self.pool.nodes[i as usize];
                assert_eq!(node.event.is_some(), listed, "node {i} on the wrong list");
                n += 1;
                i = node.next;
            }
            n
        };
        let mut listed = 0;
        for (p, &head) in self.heads.iter().enumerate() {
            let bit = self.occ[p / 64] >> (p % 64) & 1 == 1;
            assert_eq!(bit, head != NIL, "bucket {p}: occupancy bit vs list head");
            listed += walk(head, true);
        }
        assert_eq!(listed, self.wheel_len - self.active.len());
        (listed, walk(self.pool.free, false), self.pool.nodes.len())
    }
}

impl<E> Default for CalendarFel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarFel<E> {
    /// Insert `entry`. `now` is the caller's clock, which the wheel is
    /// windowed on. An entry with `entry.time < now` (already counted as a
    /// violation by the caller, panicking in debug builds) still comes back
    /// in plain `(time, key, seq)` order.
    pub fn insert(&mut self, entry: Entry<E>, now: SimTime) {
        // Clamp below-`now` times (a caller-counted monotonicity violation
        // that only release builds survive) for bucketing only; the entry
        // keeps its original `(time, key, seq)` sort key.
        let slot = self.slot_of(entry.time.max(now));
        if slot >= self.slot_of(now) + self.nb as u64 {
            self.overflow.push(entry);
            return;
        }
        if self.wheel_len > 0 {
            if slot == self.active_slot {
                // Sorted insert, descending. Same-instant pushes (the
                // common case: an event scheduling its immediate successor)
                // usually carry the largest `(time, key, seq)` of the bucket
                // so far and land at/near the tail — little shifting.
                let key = (entry.time, entry.key, entry.seq);
                let pos = self
                    .active
                    .partition_point(|e| (e.time, e.key, e.seq) > key);
                self.active.insert(pos, entry);
                self.wheel_len += 1;
                return;
            }
            if slot > self.active_slot {
                self.link((slot & self.mask) as usize, entry);
                self.wheel_len += 1;
                return;
            }
            // New wheel minimum below the active bucket: its bucket is
            // provably empty (invariant 3), so it becomes the new active
            // bucket and the old one retires whole.
            self.retire_active();
        }
        self.active_slot = slot;
        self.active.push(entry);
        self.wheel_len += 1;
    }

    /// Remove and return the `(time, key, seq)`-minimum entry.
    pub fn remove_min(&mut self) -> Option<Entry<E>> {
        if self.wheel_len == 0 {
            // Tier order: with an empty wheel the overflow top is the
            // global minimum. Promote its same-window successors so the
            // wheel resumes service.
            let entry = self.overflow.pop()?;
            self.promote(entry.time);
            if self.wheel_len > 0 {
                self.activate_next(entry.time);
            }
            return Some(entry);
        }
        let entry = self
            .active
            .pop()
            .expect("wheel_len > 0 implies a non-empty active bucket");
        self.wheel_len -= 1;
        self.promote(entry.time);
        if self.active.is_empty() && self.wheel_len > 0 {
            self.activate_next(entry.time);
        }
        Some(entry)
    }

    /// Timestamp of the minimum entry, without removing it. O(1).
    #[inline]
    pub fn min_time(&self) -> Option<SimTime> {
        self.min_time_key().map(|(time, _)| time)
    }

    /// `(time, key)` of the minimum entry, without removing it. O(1) — the
    /// sharded engine's merge loop peeks every shard per step.
    #[inline]
    pub fn min_time_key(&self) -> Option<(SimTime, u32)> {
        if self.wheel_len > 0 {
            self.active.last().map(|e| (e.time, e.key))
        } else {
            self.overflow.peek().map(|e| (e.time, e.key))
        }
    }

    /// Number of pending entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True when no entries are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
