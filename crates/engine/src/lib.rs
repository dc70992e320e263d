//! # tlb-engine — discrete-event simulation core
//!
//! The foundation of the TLB reproduction: a deterministic, single-threaded
//! discrete-event engine. Everything above it (links, switches, TCP endpoints,
//! load balancers) is expressed as events on this engine.
//!
//! Design points, per the reproduction's determinism requirements:
//!
//! * Time is an integer number of **nanoseconds** ([`SimTime`]). There is no
//!   floating-point clock, so runs are bit-reproducible across platforms.
//! * The [`EventQueue`] breaks timestamp ties by insertion order (FIFO), so
//!   event execution order is a pure function of the schedule, never of
//!   storage internals. It stores events in a two-tier calendar queue
//!   ([`fel`]), held to a binary-heap oracle by the engine's proptests.
//! * Randomness comes from [`SimRng`], a self-contained xoshiro256++ generator
//!   seeded via SplitMix64. No external RNG crate is used at runtime, which
//!   pins the random stream independent of dependency versions.

pub mod alloc_audit;
pub mod env_knob;
pub mod fel;
pub mod indexed_heap;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod time;

pub use alloc_audit::{AllocCounters, CountingAlloc};
pub use fel::FelKind;
pub use indexed_heap::IndexedMinHeap;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use shard::{EngineKind, SpinBarrier};
pub use time::SimTime;
