//! An indexed binary min-heap: a priority queue over small integer ids
//! whose entries can be re-prioritized or removed in place.
//!
//! The FEL ([`crate::EventQueue`]) has no removal, which is right for
//! events that almost always fire. A projection that is *revised* far more
//! often than it comes true — a fluid flow's completion time moves at every
//! join and leave of every sharer — wants the opposite: one live entry per
//! id, updated where it sits. The owner reads [`IndexedMinHeap::peek`] as
//! a second event source beside the FEL instead of pushing one superseded
//! event per revision.
//!
//! Entries order by `(prio, id)`, so the minimum is unique and the pop
//! order is a pure function of the contents, never of the update history.

/// `pos` value of an id that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// Min-heap of `(prio, id)` with a per-id position table.
#[derive(Debug)]
pub struct IndexedMinHeap {
    /// The binary heap, ordered by `(prio, id)`.
    heap: Vec<(u64, u32)>,
    /// Per id: its index in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl IndexedMinHeap {
    /// An empty heap over ids `0..n_ids` (4 bytes per id).
    pub fn new(n_ids: usize) -> IndexedMinHeap {
        assert!(n_ids < ABSENT as usize, "id space overflows the table");
        IndexedMinHeap {
            heap: Vec::new(),
            pos: vec![ABSENT; n_ids],
        }
    }

    /// Entries in the heap.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when the heap holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The `(prio, id)`-minimum entry.
    #[inline]
    pub fn peek(&self) -> Option<(u64, u32)> {
        self.heap.first().copied()
    }

    /// The ids in the heap, in storage (not priority) order.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.heap.iter().map(|&(_, id)| id)
    }

    /// Insert `id` at `prio`, or move it there if already present.
    pub fn upsert(&mut self, id: u32, prio: u64) {
        let i = match self.pos[id as usize] {
            ABSENT => {
                self.heap.push((prio, id));
                self.heap.len() - 1
            }
            i => {
                self.heap[i as usize].0 = prio;
                i as usize
            }
        };
        self.restore(i);
    }

    /// Remove `id`, returning its priority (`None` if it was not present).
    pub fn remove(&mut self, id: u32) -> Option<u64> {
        let i = match self.pos[id as usize] {
            ABSENT => return None,
            i => i as usize,
        };
        let (prio, _) = self.heap.swap_remove(i);
        self.pos[id as usize] = ABSENT;
        if i < self.heap.len() {
            // The former last entry now sits at `i`; it may belong either
            // side of there.
            self.restore(i);
        }
        Some(prio)
    }

    /// Re-establish heap order around the (possibly misplaced) entry at
    /// `i` and record where it — and everything it displaced — ends up.
    fn restore(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] <= entry {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            if entry <= self.heap[child] {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, entry);
    }

    #[inline]
    fn place(&mut self, i: usize, entry: (u64, u32)) {
        self.heap[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Heap order holds at every node and the position table is the exact
    /// inverse of the storage order.
    fn check(h: &IndexedMinHeap) {
        for (i, &(_, id)) in h.heap.iter().enumerate() {
            assert_eq!(h.pos[id as usize], i as u32, "pos[{id}] is stale");
            if i > 0 {
                assert!(h.heap[(i - 1) / 2] <= h.heap[i], "heap order at {i}");
            }
        }
        let present = h.pos.iter().filter(|&&p| p != ABSENT).count();
        assert_eq!(present, h.heap.len(), "table holds a removed id");
    }

    #[test]
    fn upsert_moves_an_entry_both_ways() {
        let mut h = IndexedMinHeap::new(8);
        for (id, prio) in [(3, 30), (1, 10), (5, 50), (0, 40)] {
            h.upsert(id, prio);
        }
        assert_eq!(h.peek(), Some((10, 1)));
        h.upsert(1, 60); // later
        assert_eq!(h.peek(), Some((30, 3)));
        h.upsert(5, 5); // earlier
        assert_eq!(h.peek(), Some((5, 5)));
        assert_eq!(h.len(), 4);
        check(&h);
    }

    #[test]
    fn equal_priorities_pop_in_ascending_id_order() {
        let mut h = IndexedMinHeap::new(8);
        for id in [6, 2, 7, 0] {
            h.upsert(id, 99);
        }
        let mut order = Vec::new();
        while let Some((_, id)) = h.peek() {
            order.push(id);
            assert_eq!(h.remove(id), Some(99));
        }
        assert_eq!(order, vec![0, 2, 6, 7]);
        assert!(h.is_empty());
    }

    #[test]
    fn removing_an_absent_id_is_a_noop() {
        let mut h = IndexedMinHeap::new(4);
        h.upsert(2, 7);
        assert_eq!(h.remove(1), None);
        assert_eq!(h.remove(2), Some(7));
        assert_eq!(h.remove(2), None);
        check(&h);
    }

    proptest! {
        /// Random `upsert`/`remove`/`peek` sequences against a
        /// `BTreeSet<(prio, id)>` model, the position table checked after
        /// every operation. Few ids and few priorities, so re-prioritizing
        /// in place and `(prio, id)` ties are the common case.
        #[test]
        fn prop_matches_btreeset_model(
            ops in proptest::collection::vec((0u8..3, 0u32..24, 0u64..12), 1..400)
        ) {
            let mut h = IndexedMinHeap::new(24);
            let mut model: BTreeSet<(u64, u32)> = BTreeSet::new();
            let mut prio_of = [None::<u64>; 24];
            for (op, id, prio) in ops {
                match op {
                    0 | 1 => {
                        h.upsert(id, prio);
                        if let Some(old) = prio_of[id as usize].replace(prio) {
                            model.remove(&(old, id));
                        }
                        model.insert((prio, id));
                    }
                    _ => {
                        let want = prio_of[id as usize].take();
                        if let Some(old) = want {
                            model.remove(&(old, id));
                        }
                        prop_assert_eq!(h.remove(id), want);
                    }
                }
                check(&h);
                prop_assert_eq!(h.peek(), model.first().copied());
                prop_assert_eq!(h.len(), model.len());
                let ids: BTreeSet<u32> = h.ids().collect();
                let model_ids: BTreeSet<u32> = model.iter().map(|&(_, id)| id).collect();
                prop_assert_eq!(ids, model_ids);
            }
            // Draining by the minimum yields the model's sorted order.
            for &(prio, id) in &model {
                prop_assert_eq!(h.peek(), Some((prio, id)));
                prop_assert_eq!(h.remove(id), Some(prio));
                check(&h);
            }
            prop_assert!(h.is_empty());
        }
    }
}
