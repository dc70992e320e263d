//! A frozen reference workload that tells how fast the host is right now.
//!
//! On the recording host — two cores of a guest on a shared machine whose
//! 260 MiB last-level cache serves many other tenants — the same
//! deterministic simulation takes 15–30 % longer for minutes at a time and
//! up to twice as long for tens of seconds, with nothing else running in
//! the guest. A compute-only loop beside it moves by 3 %: it is the memory
//! system, outside the guest. Medians over reps cannot remove a slowdown
//! that outlasts the whole run, so the parent times this reference
//! workload before and after every rep and reports the rep's host times
//! as they would read on a host where the reference takes
//! [`NOMINAL_SECONDS`]:
//!
//! ```text
//! normalised = raw × NOMINAL_SECONDS ÷ mean(reference before, reference after)
//! ```
//!
//! The three phases stress what slows the simulator when the host is
//! slow: dependent loads over 64 MiB (TLB reach and memory latency),
//! dependent loads over 4 MiB (the shared cache), and a miniature event
//! loop — a binary heap of timestamps plus scattered read-modify-writes
//! over 16 MiB. No single phase follows the simulator through every kind
//! of slow spell (the loads under-react to some, the event loop over-reacts
//! to others by up to 40 %); their sum does to within 10 % in the spells
//! measured (`README.md`, Noise).
//!
//! **Nothing here may change**, and nothing here calls into the
//! simulator: a change to either would move every normalised number in the
//! recorded trajectory.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// What [`Reference::seconds`] reads on the recording host when it is
/// quiet. A scale constant only: it makes normalised seconds read like
/// raw seconds there.
pub const NOMINAL_SECONDS: f64 = 0.6;

const BIG_ENTRIES: usize = 1 << 24; // 64 MiB of u32
const BIG_STEPS: u64 = 1_700_000;
const MID_ENTRIES: usize = 1 << 20; // 4 MiB of u32
const MID_STEPS: u64 = 8_000_000;
const HEAP_KEYS: u64 = 1 << 16;
const TABLE_ENTRIES: usize = 1 << 21; // 16 MiB of u64
const LOOP_STEPS: u64 = 2_000_000;

/// The reference workload's memory, built once per parent process.
pub struct Reference {
    big: Vec<u32>,
    mid: Vec<u32>,
    heap: BinaryHeap<Reverse<u64>>,
    table: Vec<u64>,
}

/// `buf[i]` = successor of `i` under a full-period LCG over `0..n` (`n` a
/// power of two): following it visits every entry once per cycle in an
/// order no stride prefetcher predicts.
fn successor_table(n: usize) -> Vec<u32> {
    debug_assert!(n.is_power_of_two() && n <= 1 << 32);
    // Full period modulo 2^k needs a multiplier ≡ 1 (mod 4) and an odd
    // increment (Hull–Dobell).
    (0..n as u64)
        .map(|i| ((i * 0x9E37_79B1 + 12_345) & (n as u64 - 1)) as u32)
        .collect()
}

/// Follow `steps` dependent loads through `buf`.
fn chase(buf: &[u32], steps: u64) -> u32 {
    let mut i = 0u32;
    for _ in 0..steps {
        i = buf[i as usize];
    }
    i
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Allocate and fill the reference workload's 85 MiB.
    pub fn new() -> Reference {
        Reference {
            big: successor_table(BIG_ENTRIES),
            mid: successor_table(MID_ENTRIES),
            heap: (0..HEAP_KEYS)
                .map(|i| Reverse(i * 7919 % HEAP_KEYS))
                .collect(),
            table: vec![0; TABLE_ENTRIES],
        }
    }

    /// Run the three phases once; host seconds taken.
    pub fn seconds(&mut self) -> f64 {
        let t = Instant::now();
        black_box(chase(&self.big, BIG_STEPS));
        black_box(chase(&self.mid, MID_STEPS));
        // A miniature event loop: pop the earliest key, touch two
        // scattered table slots, push a later key.
        let mask = self.table.len() as u64 - 1;
        let mut x = 12_345u64;
        for _ in 0..LOOP_STEPS {
            let Reverse(key) = self.heap.pop().expect("the heap keeps its size");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = (x & mask) as usize;
            self.table[a] = self.table[a].wrapping_add(key);
            let b = ((x >> 24) & mask) as usize;
            self.table[b] ^= x;
            self.heap.push(Reverse(key + 1 + (x & 0xffff)));
        }
        black_box(self.table[0]);
        t.elapsed().as_secs_f64()
    }
}

/// The factor that turns a rep's raw host seconds into normalised ones,
/// from the reference readings taken before and after it.
pub fn host_speed(before: f64, after: f64) -> f64 {
    NOMINAL_SECONDS / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successor_table_is_one_cycle() {
        let n = 1 << 12;
        let buf = successor_table(n);
        let mut seen = vec![false; n];
        let mut i = 0u32;
        for _ in 0..n {
            assert!(!seen[i as usize], "revisited {i} before the cycle closed");
            seen[i as usize] = true;
            i = buf[i as usize];
        }
        assert_eq!(i, 0, "the cycle closes after n steps");
    }

    #[test]
    fn a_host_at_nominal_speed_scales_by_one() {
        assert_eq!(host_speed(NOMINAL_SECONDS, NOMINAL_SECONDS), 1.0);
        assert_eq!(
            host_speed(2.0 * NOMINAL_SECONDS, 2.0 * NOMINAL_SECONDS),
            0.5
        );
    }
}
