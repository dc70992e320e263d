//! Deterministic future-event list.

use crate::fel::{CalendarFel, Entry, FelKind};
use crate::time::SimTime;

/// A future-event list with deterministic tie-breaking.
///
/// Events scheduled for the same timestamp are executed in the order they
/// were pushed (plain [`EventQueue::push`] uses ordering key 0 for every
/// entry, so ties are pure FIFO), making simulation traces reproducible
/// whatever the calendar's internal layout: the pop order is the total
/// order over `(time, key, insertion seq)`. Callers that need a
/// cross-queue merge order (the sharded engine) rank ties explicitly via
/// [`EventQueue::push_keyed`].
///
/// ```
/// use tlb_engine::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(20), "second");
/// q.push(SimTime::from_micros(10), "first");
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), "first")));
/// assert_eq!(q.now(), SimTime::from_micros(10));
/// ```
///
/// The queue tracks the simulation clock: [`EventQueue::pop`] advances
/// `now()` to the popped event's timestamp. Scheduling strictly in the past
/// is a logic error and panics in debug builds.
pub struct EventQueue<E> {
    fel: CalendarFel<E>,
    seq: u64,
    now: SimTime,
    monotonicity_violations: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue that holds `cap` pending events without
    /// reallocating, wherever they sit (see [`CalendarFel::with_capacity`]).
    pub fn with_capacity(cap: usize) -> Self {
        Self::on(CalendarFel::with_capacity(cap))
    }

    /// [`EventQueue::with_capacity`]: [`FelKind`] has one variant. Kept
    /// only for the benchmark harness, which still names it.
    pub fn with_capacity_and_kind(cap: usize, _kind: FelKind) -> Self {
        Self::with_capacity(cap)
    }

    fn on(fel: CalendarFel<E>) -> Self {
        EventQueue {
            fel,
            seq: 0,
            now: SimTime::ZERO,
            monotonicity_violations: 0,
        }
    }

    /// The current simulation time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `time`, under ordering key 0.
    ///
    /// `time` may equal `now()` (the event runs later in the same instant)
    /// but must not precede it.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_keyed(time, 0, event);
    }

    /// Schedule `event` at `time` with an explicit ordering key: pop order
    /// is the total order over `(time, key, seq)`. Plain pushes use key 0,
    /// so a caller mixing both gets keyed entries after the key-0 ties of
    /// the same instant. The sharded engine keys every event by
    /// (event class, entity) to make the cross-shard merge order
    /// independent of per-shard `seq` counters.
    #[inline]
    pub fn push_keyed(&mut self, time: SimTime, key: u32, event: E) {
        if time < self.now {
            // Counted before the debug assert so release-mode audits (see
            // `monotonicity_violations`) still observe the violation.
            self.monotonicity_violations += 1;
        }
        debug_assert!(
            time >= self.now,
            "scheduling into the past: {time} < now {now}",
            now = self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.fel.insert(
            Entry {
                time,
                key,
                seq,
                event,
            },
            self.now,
        );
    }

    /// Remove and return the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is exhausted.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.fel.remove_min()?;
        if entry.time < self.now {
            self.monotonicity_violations += 1;
        }
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.fel.min_time()
    }

    /// `(time, key)` of the earliest pending event, if any. Every
    /// `tlb-simnet` engine reads the FEL head through this pair, merging it
    /// with the run's other event sources (`Net::peek`), and the sharded
    /// engine's serialized merge compares shard heads by it (per-shard
    /// `seq` counters are not comparable across queues).
    #[inline]
    pub fn peek_time_key(&self) -> Option<(SimTime, u32)> {
        self.fel.min_time_key()
    }

    /// Fold another queue's monotonicity-violation count into this one
    /// (report merging across shard replicas).
    #[inline]
    pub fn absorb_monotonicity_violations(&mut self, n: u64) {
        self.monotonicity_violations += n;
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.fel.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fel.is_empty()
    }

    /// High-water mark of the calendar's node pool — the most events that
    /// ever waited in non-active wheel buckets at once, which is the FEL's
    /// resident working set (diagnostics).
    pub fn pool_nodes_peak(&self) -> usize {
        self.fel.pool_nodes_peak()
    }

    /// How many times the clock invariant was broken: an event scheduled
    /// or popped at a timestamp earlier than `now()`. Debug builds also
    /// assert on the spot; this counter is what release-mode audits check
    /// (`tlb-simnet`'s conservation audit requires it to be zero).
    #[inline]
    pub fn monotonicity_violations(&self) -> u64 {
        self.monotonicity_violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fel::heap::HeapFel;
    use proptest::prelude::*;

    /// Every queue shape a test should pass on: the default wheel plus a
    /// deliberately tiny one (16 ns × 64 buckets ≈ 1 µs window) that forces
    /// overflow, promotion and wrap-around on the same nanosecond-scale
    /// schedules the other tests use.
    fn all_queues<E>() -> Vec<(&'static str, EventQueue<E>)> {
        vec![
            ("calendar", EventQueue::new()),
            ("calendar-tiny", with_calendar_geometry(4, 64)),
        ]
    }

    /// A queue with explicit wheel geometry (`2^shift`-ns buckets, `nb` of
    /// them). Tiny wheels force heavy overflow/promotion churn, exercising
    /// paths the default ~2 ms window rarely hits.
    fn with_calendar_geometry<E>(shift: u32, nb: usize) -> EventQueue<E> {
        EventQueue::on(CalendarFel::with_geometry(shift, nb))
    }

    /// The calendar geometries the differential proptests sweep.
    fn calendar_queues<E>() -> [(&'static str, EventQueue<E>); 3] {
        [
            ("calendar", EventQueue::new()),
            ("calendar-tiny", with_calendar_geometry(4, 64)),
            ("calendar-wide", with_calendar_geometry(14, 64)),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for (name, mut q) in all_queues() {
            q.push(SimTime::from_nanos(30), "c");
            q.push(SimTime::from_nanos(10), "a");
            q.push(SimTime::from_nanos(20), "b");
            assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")), "{name}");
            assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")), "{name}");
            assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")), "{name}");
            assert_eq!(q.pop(), None, "{name}");
        }
    }

    #[test]
    fn ties_break_fifo() {
        for (name, mut q) in all_queues() {
            let t = SimTime::from_nanos(5);
            for i in 0..100 {
                q.push(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i, "{name}");
            }
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        for (name, mut q) in all_queues() {
            q.push(SimTime::from_micros(7), ());
            assert_eq!(q.now(), SimTime::ZERO, "{name}");
            q.pop();
            assert_eq!(q.now(), SimTime::from_micros(7), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), ());
        q.pop();
        q.push(SimTime::from_nanos(99), ());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        for (name, mut q) in all_queues() {
            q.push(SimTime::from_nanos(10), 1);
            q.push(SimTime::from_nanos(40), 4);
            assert_eq!(q.pop().unwrap().1, 1, "{name}");
            q.push(SimTime::from_nanos(20), 2);
            q.push(SimTime::from_nanos(30), 3);
            assert_eq!(q.pop().unwrap().1, 2, "{name}");
            assert_eq!(q.pop().unwrap().1, 3, "{name}");
            assert_eq!(q.pop().unwrap().1, 4, "{name}");
        }
    }

    #[test]
    fn counts_are_consistent() {
        let mut q = EventQueue::with_capacity(8);
        assert!(q.is_empty());
        q.push(SimTime::from_nanos(1), ());
        q.push(SimTime::from_nanos(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn keyed_ties_rank_by_key_then_fifo() {
        // Same-instant entries order by key rank first; within a key, by
        // insertion order — and plain pushes (key 0) precede keyed ties.
        for (name, mut q) in all_queues() {
            let t = SimTime::from_nanos(9);
            q.push_keyed(t, 2, "c1");
            q.push(t, "a1");
            q.push_keyed(t, 1, "b1");
            q.push_keyed(t, 2, "c2");
            q.push_keyed(t, 1, "b2");
            q.push(t, "a2");
            q.push_keyed(t, 1, "b3");
            q.push_keyed(t, 1, "b4");
            assert_eq!(q.peek_time_key(), Some((t, 0)), "{name}");
            for want in ["a1", "a2", "b1", "b2", "b3", "b4", "c1", "c2"] {
                assert_eq!(q.pop(), Some((t, want)), "{name}");
            }
            assert_eq!(q.pop(), None, "{name}");
            assert_eq!(q.monotonicity_violations(), 0, "{name}");
        }
    }

    #[test]
    fn keyed_order_is_time_major() {
        // A later timestamp with a smaller key must still pop after every
        // earlier timestamp, across wheel and overflow tiers.
        for (name, mut q) in all_queues() {
            q.push_keyed(SimTime::from_nanos(20), 0, 2);
            q.push_keyed(SimTime::from_nanos(10), 9, 1);
            q.push_keyed(SimTime::from_millis(5), 0, 3); // overflow tier
            assert_eq!(
                q.peek_time_key(),
                Some((SimTime::from_nanos(10), 9)),
                "{name}"
            );
            assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 1)), "{name}");
            assert_eq!(q.pop(), Some((SimTime::from_nanos(20), 2)), "{name}");
            assert_eq!(q.pop(), Some((SimTime::from_millis(5), 3)), "{name}");
        }
    }

    #[test]
    fn clean_run_has_no_monotonicity_violations() {
        for (name, mut q) in all_queues() {
            q.push(SimTime::from_nanos(10), 1);
            q.push(SimTime::from_nanos(20), 2);
            q.pop();
            q.push(SimTime::from_nanos(15), 3);
            while q.pop().is_some() {}
            assert_eq!(q.monotonicity_violations(), 0, "{name}");
        }
    }

    #[test]
    fn past_scheduling_is_counted() {
        for (name, mut q) in all_queues() {
            q.push(SimTime::from_nanos(100), ());
            q.pop();
            let counted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                q.push(SimTime::from_nanos(99), ());
            }));
            if cfg!(debug_assertions) {
                assert!(
                    counted.is_err(),
                    "{name}: debug builds must assert on the spot"
                );
            }
            assert_eq!(q.monotonicity_violations(), 1, "{name}");
        }
    }

    #[test]
    fn far_future_rides_the_overflow_tier_in_order() {
        // Mix wheel-window and far-future times; pops must interleave them
        // in plain (time, seq) order across promotions.
        for (name, mut q) in all_queues::<u64>() {
            let times: [u64; 8] = [
                50,             // wheel
                3_000_000,      // past the default 2.1 ms window
                1_000,          // wheel
                3_000_000,      // tie with the earlier overflow push
                10_000_000_000, // 10 s out
                2_097_152,      // exactly at the default window boundary
                2_097_151,      // just inside
                60,
            ];
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i as u64);
            }
            let mut sorted: Vec<(u64, u64)> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, i as u64))
                .collect();
            sorted.sort_unstable();
            for &(t, i) in &sorted {
                assert_eq!(q.pop(), Some((SimTime::from_nanos(t), i)), "{name}");
            }
            assert_eq!(q.pop(), None, "{name}");
        }
    }

    #[test]
    fn wheel_wraps_across_many_rotations() {
        // March the clock through hundreds of wheel rotations of the tiny
        // geometry, alternating short and bucket-crossing gaps.
        let mut q = with_calendar_geometry(4, 64);
        let mut expect = SimTime::ZERO;
        q.push(SimTime::ZERO, 0u32);
        for step in 0..5_000u32 {
            let (t, _) = q.pop().expect("still marching");
            assert_eq!(t, expect);
            assert_eq!(q.now(), expect);
            let gap = match step % 4 {
                0 => 3,     // same bucket
                1 => 16,    // next bucket
                2 => 1_024, // one full rotation of the 16 ns × 64 wheel
                _ => 7_777, // several rotations, lands mid-wheel
            };
            expect += SimTime::from_nanos(gap as u64);
            q.push(expect, step);
        }
        assert_eq!(q.monotonicity_violations(), 0);
    }

    /// Per-op observation of a differential script: what popped, the peek,
    /// and the queue length.
    type StepLog = Vec<(Option<(SimTime, u32)>, Option<SimTime>, usize)>;

    /// What a differential script drives: the calendar-backed queue and
    /// its heap oracle.
    trait Script {
        fn now(&self) -> SimTime;
        fn push(&mut self, time: SimTime, event: u32);
        fn pop(&mut self) -> Option<(SimTime, u32)>;
        fn peek_time(&self) -> Option<SimTime>;
        fn len(&self) -> usize;
    }

    macro_rules! script_for {
        ($($q:ty),*) => {$(
            impl Script for $q {
                fn now(&self) -> SimTime {
                    <$q>::now(self)
                }
                fn push(&mut self, time: SimTime, event: u32) {
                    <$q>::push(self, time, event)
                }
                fn pop(&mut self) -> Option<(SimTime, u32)> {
                    <$q>::pop(self)
                }
                fn peek_time(&self) -> Option<SimTime> {
                    <$q>::peek_time(self)
                }
                fn len(&self) -> usize {
                    <$q>::len(self)
                }
            }
        )*};
    }
    script_for!(EventQueue<u32>, HeapFel<u32>);

    /// One differential step script: interleaved pushes (with heavy
    /// timestamp ties) and pops, replayed on every calendar geometry; all
    /// observable outputs must match the heap oracle exactly.
    fn run_script(q: &mut impl Script, ops: &[(u8, u16)]) -> StepLog {
        run_script_with(q, ops, |_| {})
    }

    /// [`run_script`], calling `after_op` on the queue after every step.
    fn run_script_with<Q: Script>(
        q: &mut Q,
        ops: &[(u8, u16)],
        mut after_op: impl FnMut(&Q),
    ) -> StepLog {
        let mut log = Vec::with_capacity(ops.len());
        for (i, &(sel, raw)) in ops.iter().enumerate() {
            let popped = match sel % 4 {
                // Push with a tie-heavy near-future offset: scale ∈
                // {0 (same instant), 1 bucket-ish, window-crossing}.
                0 | 1 => {
                    let scale = match raw % 8 {
                        0..=4 => 0,     // same-timestamp ties dominate
                        5 => 1,         // sub-bucket
                        6 => 600,       // next-bucket at default shift
                        _ => 3_000_000, // overflow tier
                    };
                    let t = q.now() + SimTime::from_nanos(scale * (1 + raw as u64 % 3));
                    q.push(t, i as u32);
                    None
                }
                2 => q.pop(),
                // Far-future push at an absolute slot shared by many
                // entries (promotion-order stress).
                _ => {
                    let t = q.now() + SimTime::from_nanos(2_500_000 + (raw as u64 % 4) * 512);
                    q.push(t, i as u32);
                    None
                }
            };
            log.push((popped, q.peek_time(), q.len()));
            after_op(q);
        }
        // Drain the remainder: full pop order is part of the observable
        // contract.
        while let Some(p) = q.pop() {
            log.push((Some(p), q.peek_time(), q.len()));
            after_op(q);
        }
        log
    }

    proptest! {
        /// Popping must yield non-decreasing timestamps and, within a
        /// timestamp, ascending insertion order — on every geometry.
        #[test]
        fn prop_pop_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
            for (name, mut q) in all_queues() {
                for (i, &t) in times.iter().enumerate() {
                    q.push(SimTime::from_nanos(t), i);
                }
                let mut last: Option<(SimTime, usize)> = None;
                while let Some((t, i)) = q.pop() {
                    if let Some((lt, li)) = last {
                        prop_assert!(t >= lt, "{name}");
                        if t == lt {
                            prop_assert!(i > li, "{name}");
                        }
                    }
                    last = Some((t, i));
                }
            }
        }

        /// All pushed events come back out exactly once — on every geometry.
        #[test]
        fn prop_conservation(times in proptest::collection::vec(0u64..100, 0..100)) {
            for (name, mut q) in all_queues() {
                for (i, &t) in times.iter().enumerate() {
                    q.push(SimTime::from_nanos(t), i);
                }
                let mut seen = vec![false; times.len()];
                while let Some((_, i)) = q.pop() {
                    prop_assert!(!seen[i], "{name}");
                    seen[i] = true;
                }
                prop_assert!(seen.iter().all(|&s| s), "{name}");
            }
        }

        /// The calendar's node pool follows the live entries: after every
        /// step of the differential scripts each node is on exactly one
        /// list (a bucket's or the free list), and the pool has never held
        /// more nodes than the queue held entries — on all three geometries.
        #[test]
        fn prop_pool_nodes_are_conserved_and_bounded_by_depth(
            ops in proptest::collection::vec((0u8..4, 0u16..u16::MAX), 1..300)
        ) {
            for (name, mut q) in calendar_queues() {
                let mut deepest = 0;
                run_script_with(&mut q, &ops, |q| {
                    deepest = deepest.max(q.len());
                    let (listed, free, pool) = q.fel.pool_census();
                    assert_eq!(listed + free, pool, "{name}: a node is on no list");
                    assert!(pool <= deepest, "{name}: {pool} nodes for depth {deepest}");
                    assert_eq!(pool, q.pool_nodes_peak(), "{name}");
                });
            }
        }

        /// Differential: random interleaved push/pop scripts with heavy
        /// timestamp ties must produce identical pop results, peeks,
        /// lengths and counters on every calendar geometry as on the heap
        /// oracle.
        #[test]
        fn prop_backends_are_indistinguishable(
            ops in proptest::collection::vec((0u8..4, 0u16..u16::MAX), 1..300)
        ) {
            let mut reference = HeapFel::new();
            let ref_log = run_script(&mut reference, &ops);
            for (name, mut q) in calendar_queues() {
                let log = run_script(&mut q, &ops);
                prop_assert_eq!(&log, &ref_log, "{} diverged from heap", name);
                prop_assert_eq!(q.now(), reference.now(), "{}: clock", name);
                prop_assert_eq!(
                    q.monotonicity_violations(),
                    reference.monotonicity_violations(),
                    "{}: violations", name
                );
            }
        }
    }
}
