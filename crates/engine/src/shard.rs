//! Engine-level support for sharded (multi-core) execution of one
//! simulation: the engine selector and the spin barrier the conservative
//! window protocol synchronizes on.
//!
//! The actual fabric partitioning, window protocol and report merge live in
//! `tlb-simnet` (they need the network state); this module owns the pieces
//! that are simulator-agnostic.

/// Which execution engine drives a run: the serial reference event loop, or
/// the conservatively synchronized multi-core sharded engine. Mirrors the
/// [`crate::FelKind`] / `LbDispatch` / `DeliveryKind` pattern: the serial
/// engine stays alive as the differential reference, and both engines must
/// produce bit-identical event/FCT/audit digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The single-threaded reference event loop.
    Serial,
    /// Per-shard event loops over OS threads, synchronized conservatively
    /// with link propagation delay as lookahead. `workers` pins the OS
    /// thread count; `None` uses the available parallelism. The *digests*
    /// are worker-count independent by construction (shard count and shard
    /// execution depend only on the topology), so `workers` is purely a
    /// performance knob.
    Sharded {
        /// OS worker threads (`None`: available parallelism).
        workers: Option<u32>,
    },
}

/// A reusable generation-counted spin barrier.
///
/// The sharded engine's windows are short (one propagation delay of
/// simulated time, often only a handful of events per shard), so the
/// per-window synchronization cost must stay well under a microsecond —
/// a mutex/condvar barrier's wake-up latency would dominate the window
/// body. Parties spin with [`std::hint::spin_loop`], degrading to
/// [`std::thread::yield_now`] once a wait runs long (oversubscribed host).
pub struct SpinBarrier {
    n: usize,
    arrived: std::sync::atomic::AtomicUsize,
    generation: std::sync::atomic::AtomicUsize,
}

impl SpinBarrier {
    /// A barrier for `n` parties.
    pub fn new(n: usize) -> SpinBarrier {
        assert!(n > 0, "barrier needs at least one party");
        SpinBarrier {
            n,
            arrived: std::sync::atomic::AtomicUsize::new(0),
            generation: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Block (spinning) until all `n` parties have called `wait` for the
    /// current generation. Returns `true` on exactly one party per
    /// generation (the last arriver), mirroring
    /// `std::sync::Barrier::wait().is_leader()`.
    pub fn wait(&self) -> bool {
        use std::sync::atomic::Ordering;
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            return true;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            spins += 1;
            if spins < 1 << 14 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
                        barrier.wait();
                        // Everyone must observe the full round's increments
                        // before anyone proceeds.
                        let seen = counter.load(Ordering::Relaxed);
                        assert!(seen >= (round + 1) * PARTIES);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), PARTIES * ROUNDS);
    }

    #[test]
    fn spin_barrier_elects_one_leader_per_generation() {
        const PARTIES: usize = 3;
        let barrier = SpinBarrier::new(PARTIES);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..PARTIES {
                s.spawn(|| {
                    for _ in 0..100 {
                        if barrier.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), 100);
    }
}
