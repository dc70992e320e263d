//! Engine-level support for sharded (multi-core) execution of one
//! simulation: the engine selector and the spin barrier the conservative
//! window protocol synchronizes on — one crossing per window, whose last
//! arriver acts for every party while the others are parked, and which a
//! party that panics poisons instead of leaving the others spinning.
//!
//! The actual fabric partitioning, window protocol and report merge live in
//! `tlb-simnet` (they need the network state); this module owns the pieces
//! that are simulator-agnostic.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Which execution engine drives a run: the serial reference event loop, or
/// the conservatively synchronized multi-core sharded engine. Both engines
/// ship, and both must produce bit-identical event/FCT/audit digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The single-threaded reference event loop.
    Serial,
    /// Per-shard event loops over OS threads, synchronized conservatively
    /// with link propagation delay as lookahead. `workers` pins the OS
    /// thread count; `None` uses the available parallelism. The shard
    /// count follows it: one shard replica per worker, two at one worker,
    /// at most one per pod of the fabric. The *digests* and every FCT are
    /// worker-count independent by construction (the merged `(time, key)`
    /// order is the serial one under any partition), so `workers` is a
    /// performance knob; only per-replica telemetry (FEL depth samples,
    /// pool, wire and connection peaks) follows the shard count.
    Sharded {
        /// OS worker threads (`None`: available parallelism).
        workers: Option<u32>,
    },
}

/// What a party of a poisoned [`SpinBarrier`] panics with.
pub const POISONED: &str = "a shard worker panicked";

/// A reusable generation-counted spin barrier whose last arriver acts
/// for everyone.
///
/// The sharded engine's windows are short (one propagation delay of
/// simulated time, often only a handful of events per shard), so the
/// per-window synchronization cost must stay well under a microsecond —
/// a mutex/condvar barrier's wake-up latency would dominate the window
/// body. Parties spin with [`std::hint::spin_loop`], degrading to
/// [`std::thread::yield_now`] once a wait runs long (oversubscribed host).
///
/// A party that unwinds while it holds its [`SpinBarrier::party`] guard
/// poisons the barrier: it will never arrive, so every party waiting now
/// or later panics with [`POISONED`] instead of spinning for good.
pub struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    /// A barrier for `n` parties.
    pub fn new(n: usize) -> SpinBarrier {
        assert!(n > 0, "barrier needs at least one party");
        SpinBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Block (spinning) until all `n` parties have arrived for the current
    /// generation. The last to arrive runs `f` and only then releases the
    /// others: `f` runs once per generation, while every other party is
    /// parked here, and every party returns having seen what it wrote.
    pub fn wait_then(&self, f: impl FnOnce()) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            f();
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            assert!(!self.poisoned.load(Ordering::Acquire), "{POISONED}");
            spins += 1;
            if spins < 1 << 14 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// The guard a party holds for as long as it takes part: dropped
    /// while its thread unwinds, it poisons the barrier.
    #[must_use = "the guard poisons the barrier only while it is held"]
    pub fn party(&self) -> Party<'_> {
        Party(self)
    }
}

/// See [`SpinBarrier::party`].
pub struct Party<'b>(&'b SpinBarrier);

impl Drop for Party<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_barrier_synchronizes_phases() {
        const PARTIES: usize = 4;
        const ROUNDS: usize = 200;
        let barrier = SpinBarrier::new(PARTIES);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..PARTIES {
                s.spawn(|| {
                    for round in 0..ROUNDS {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait_then(|| {});
                        // Everyone must observe the full round's increments
                        // before anyone proceeds.
                        let seen = counter.load(Ordering::Relaxed);
                        assert!(seen >= (round + 1) * PARTIES);
                        barrier.wait_then(|| {});
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), PARTIES * ROUNDS);
    }

    #[test]
    fn spin_barrier_runs_the_leader_action_once_before_release() {
        const PARTIES: usize = 3;
        const ROUNDS: usize = 100;
        let barrier = SpinBarrier::new(PARTIES);
        let actions = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..PARTIES {
                s.spawn(|| {
                    for round in 0..ROUNDS {
                        barrier.wait_then(|| {
                            actions.fetch_add(1, Ordering::Relaxed);
                        });
                        // Released only after this generation's action ran,
                        // and before the next one can.
                        assert_eq!(actions.load(Ordering::Relaxed), round + 1);
                        barrier.wait_then(|| {});
                    }
                });
            }
        });
        assert_eq!(actions.load(Ordering::Relaxed), ROUNDS);
    }

    #[test]
    fn a_party_that_unwinds_before_arriving_releases_the_others_with_a_panic() {
        let barrier = SpinBarrier::new(3);
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let _party = barrier.party();
                        assert!(i != 0, "party 0 fails before it arrives");
                        barrier.wait_then(|| {});
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        for out in &outcomes[1..] {
            let msg = out.as_ref().expect_err("a waiter got through");
            assert_eq!(
                msg.downcast_ref::<String>().map(String::as_str),
                Some(POISONED)
            );
        }
        assert!(outcomes[0].is_err());
    }
}
