//! Per-flow switch state with idle purging.
//!
//! The paper's TLB keeps a flow table at the leaf switch and "samples the
//! flows periodically ... if no packet is received during the sampling
//! interval, the corresponding flow record is removed" (§5). [`FlowMap`] is
//! that table, reused by the flowlet-based baselines too. Keys are dense
//! [`FlowId`]s, so a cheap multiplicative hasher is both safe and fast.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tlb_engine::SimTime;
use tlb_net::FlowId;

/// Fibonacci-multiplication hasher for small integer keys (FxHash-style).
/// Not DoS-resistant — keys are simulator-internal dense ids, never
/// attacker-controlled.
#[derive(Default)]
pub struct U64MulHasher(u64);

impl Hasher for U64MulHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (rarely taken for our u32 keys).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
}

type FastBuild = BuildHasherDefault<U64MulHasher>;

/// One record in the table: user state + last activity stamp.
#[derive(Clone, Copy, Debug)]
struct Slot<T> {
    state: T,
    last_seen: SimTime,
}

/// A flow table mapping [`FlowId`] to scheme-specific state `T`, with the
/// paper's periodic idle purge.
#[derive(Debug)]
pub struct FlowMap<T> {
    map: HashMap<u32, Slot<T>, FastBuild>,
    /// High-water mark of `map.capacity()`: the bucket array never shrinks,
    /// but `capacity()` itself dips when removals leave tombstones, so the
    /// resident-memory accounting tracks the peak explicitly.
    cap_peak: std::cell::Cell<usize>,
}

impl<T> Default for FlowMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlowMap<T> {
    /// An empty table.
    pub fn new() -> FlowMap<T> {
        FlowMap {
            map: HashMap::default(),
            cap_peak: std::cell::Cell::new(0),
        }
    }

    /// Number of tracked flows.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no flows are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up a flow without touching its activity stamp.
    #[inline]
    pub fn get(&self, flow: FlowId) -> Option<&T> {
        self.map.get(&flow.0).map(|s| &s.state)
    }

    /// Mutable lookup that refreshes the activity stamp, handing back the
    /// stamp it replaced: when the flow was last seen before `now`.
    #[inline]
    pub fn touch(&mut self, flow: FlowId, now: SimTime) -> Option<(&mut T, SimTime)> {
        self.map.get_mut(&flow.0).map(|s| {
            let last_seen = std::mem::replace(&mut s.last_seen, now);
            (&mut s.state, last_seen)
        })
    }

    /// Get-or-insert, refreshing the activity stamp either way.
    #[inline]
    pub fn touch_or_insert_with(
        &mut self,
        flow: FlowId,
        now: SimTime,
        default: impl FnOnce() -> T,
    ) -> &mut T {
        let slot = self.map.entry(flow.0).or_insert_with(|| Slot {
            state: default(),
            last_seen: now,
        });
        slot.last_seen = now;
        &mut slot.state
    }

    /// Remove a flow (e.g. on FIN). Returns its state if present.
    pub fn remove(&mut self, flow: FlowId) -> Option<T> {
        self.map.remove(&flow.0).map(|s| s.state)
    }

    /// The paper's sampling rule: drop every record idle since before
    /// `now - idle_timeout`. Returns how many were removed.
    pub fn purge_idle(&mut self, now: SimTime, idle_timeout: SimTime) -> usize {
        // Snapshot the allocation high-water mark before removals leave
        // tombstones that make `capacity()` under-report it.
        self.cap_peak
            .set(self.cap_peak.get().max(self.map.capacity()));
        let cutoff = now.saturating_sub(idle_timeout);
        let before = self.map.len();
        self.map.retain(|_, slot| slot.last_seen >= cutoff);
        before - self.map.len()
    }

    /// Iterate over (flow, state).
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> {
        self.map.iter().map(|(&k, s)| (FlowId(k), &s.state))
    }

    /// Approximate resident size of the table in bytes (Fig. 15 memory
    /// accounting).
    ///
    /// Charged on **capacity**, not `len()`: the std `HashMap` (hashbrown)
    /// allocates a bucket array sized for ~8/7 of the usable capacity, each
    /// bucket holding one `(key, slot)` payload plus one control byte, and
    /// purging entries does not return that memory. Accounting on `len()`
    /// (the previous behaviour) understated resident bytes by the whole
    /// empty-bucket overhead right after a purge.
    pub fn state_bytes(&self) -> usize {
        self.cap_peak
            .set(self.cap_peak.get().max(self.map.capacity()));
        let per_bucket = std::mem::size_of::<(u32, Slot<T>)>() + 1;
        let buckets = self.cap_peak.get() * 8 / 7;
        buckets * per_bucket
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn insert_get_remove() {
        let mut m: FlowMap<u32> = FlowMap::new();
        assert!(m.is_empty());
        *m.touch_or_insert_with(FlowId(5), t(0), || 7) += 1;
        assert_eq!(m.get(FlowId(5)), Some(&8));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(FlowId(5)), Some(8));
        assert_eq!(m.get(FlowId(5)), None);
        assert_eq!(m.remove(FlowId(5)), None);
    }

    #[test]
    fn touch_refreshes_activity() {
        let mut m: FlowMap<()> = FlowMap::new();
        m.touch_or_insert_with(FlowId(1), t(0), || ());
        m.touch_or_insert_with(FlowId(2), t(0), || ());
        // Flow 1 stays active, flow 2 goes idle.
        m.touch(FlowId(1), t(600));
        let removed = m.purge_idle(t(1000), SimTime::from_micros(500));
        assert_eq!(removed, 1);
        assert!(m.get(FlowId(1)).is_some());
        assert!(m.get(FlowId(2)).is_none());
    }

    #[test]
    fn touch_hands_back_the_previous_stamp() {
        let mut m: FlowMap<u8> = FlowMap::new();
        assert!(m.touch(FlowId(1), t(5)).is_none(), "no record, no stamp");
        m.touch_or_insert_with(FlowId(1), t(10), || 0);
        for (now, was) in [(t(25), t(10)), (t(40), t(25)), (t(40), t(40))] {
            let (_, last) = m.touch(FlowId(1), now).expect("the flow is tracked");
            assert_eq!(last, was, "touch at {now:?}");
        }
    }

    #[test]
    fn purge_keeps_recent() {
        let mut m: FlowMap<u8> = FlowMap::new();
        for i in 0..10 {
            m.touch_or_insert_with(FlowId(i), t(i as u64 * 100), || 0);
        }
        // At t=950 with a 500 us window, flows last seen before 450 us go.
        let removed = m.purge_idle(t(950), SimTime::from_micros(500));
        assert_eq!(removed, 5);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn purge_everything_when_stale() {
        let mut m: FlowMap<u8> = FlowMap::new();
        for i in 0..4 {
            m.touch_or_insert_with(FlowId(i), t(0), || 0);
        }
        assert_eq!(m.purge_idle(t(10_000), SimTime::from_micros(500)), 4);
        assert!(m.is_empty());
    }

    #[test]
    fn state_bytes_scales_with_entries() {
        let mut m: FlowMap<u64> = FlowMap::new();
        assert_eq!(m.state_bytes(), 0);
        for i in 0..100 {
            m.touch_or_insert_with(FlowId(i), t(0), || 0);
        }
        assert!(m.state_bytes() >= 100 * std::mem::size_of::<u64>());
    }

    #[test]
    fn state_bytes_pins_the_capacity_bound() {
        let mut m: FlowMap<u64> = FlowMap::new();
        for i in 0..100 {
            m.touch_or_insert_with(FlowId(i), t(0), || 0);
        }
        // Lower bound: at least one (key, slot) payload + control byte per
        // usable capacity slot — strictly more than the old len-based
        // charge whenever the table has headroom.
        let per_entry = std::mem::size_of::<(u32, Slot<u64>)>() + 1;
        assert!(m.map.capacity() >= 100);
        assert!(
            m.state_bytes() >= m.map.capacity() * per_entry,
            "{} < {}",
            m.state_bytes(),
            m.map.capacity() * per_entry
        );

        // Resident memory does not shrink when entries are purged: the
        // bucket array is retained, so the charge must be too.
        let full = m.state_bytes();
        let removed = m.purge_idle(t(1_000_000), SimTime::from_micros(1));
        assert_eq!(removed, 100);
        assert!(m.is_empty());
        assert_eq!(
            m.state_bytes(),
            full,
            "purge must not change capacity-based accounting"
        );
    }

    #[test]
    fn midlife_boundary_crossing_state_survives_purge() {
        // The classification state TLB keeps in this table flips mid-life
        // when a flow's byte count crosses the 100 KB boundary. The table
        // must carry that mutated state across touches and across purges
        // that remove *other* flows.
        const THRESHOLD: u64 = 100_000;
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct Cls {
            bytes: u64,
            long: bool,
        }
        let mut m: FlowMap<Cls> = FlowMap::new();
        let f = FlowId(1);
        m.touch_or_insert_with(f, t(0), || Cls {
            bytes: 99_000,
            long: false,
        });
        // 99 KB + 1 KB = exactly 100 KB: strictly-greater rule says short.
        // One more MSS crosses it.
        for (add, expect_long) in [(1_000u64, false), (1_460, true)] {
            let (st, _) = m.touch(f, t(1)).unwrap();
            st.bytes += add;
            st.long = st.bytes > THRESHOLD;
            assert_eq!(st.long, expect_long, "at {} bytes", st.bytes);
        }
        // An idle purge reclaiming another flow leaves the record intact.
        m.touch_or_insert_with(FlowId(2), t(0), || Cls {
            bytes: 0,
            long: false,
        });
        m.touch(f, t(2_000));
        m.purge_idle(t(2_000), SimTime::from_micros(500));
        assert_eq!(
            m.get(f),
            Some(&Cls {
                bytes: 101_460,
                long: true
            })
        );
        assert!(m.get(FlowId(2)).is_none());
    }

    #[test]
    fn iter_covers_all() {
        let mut m: FlowMap<u32> = FlowMap::new();
        for i in 0..5 {
            m.touch_or_insert_with(FlowId(i), t(0), || i * 10);
        }
        let mut seen: Vec<_> = m.iter().map(|(f, &v)| (f.0, v)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]);
    }

    #[test]
    fn hasher_distributes_dense_keys() {
        // Dense ids must not collapse to the same bucket chain: check the
        // hashes of 0..64 are all distinct.
        use std::hash::Hash;
        let build = FastBuild::default();
        let mut hashes: Vec<u64> = (0u32..64)
            .map(|k| {
                let mut h = <FastBuild as std::hash::BuildHasher>::build_hasher(&build);
                k.hash(&mut h);
                h.finish()
            })
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 64);
    }
}
