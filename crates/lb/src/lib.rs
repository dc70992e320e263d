//! # tlb-lb — baseline data-center load balancers
//!
//! The comparison schemes the paper evaluates TLB against (§6, §7), plus the
//! two related designs discussed in §8:
//!
//! * [`Ecmp`] — flow granularity: static hash onto one uplink.
//! * [`Rps`] — packet granularity: uniform-random uplink per packet.
//! * [`Presto`] — 64 KB flowcell granularity, round-robin across uplinks.
//! * [`LetFlow`] — flowlet granularity: re-pick a random uplink after an
//!   inactivity gap. [`LetFlow::conga`] is CONGA-lite, the same flowlets
//!   re-picking the least-loaded (not a random) uplink: a switch-local
//!   stand-in for CONGA's leaf-to-leaf feedback (extension; paper §8,
//!   simplification documented in DESIGN.md).
//! * [`Drill`] — packet granularity with power-of-two-choices queue sampling
//!   plus memory (extension; paper §8).
//! * [`FlowBender`] — flow granularity with congestion-triggered rehashing
//!   (extension; paper §8).
//! * [`HermesLite`] — cautious size-gated rerouting (extension; paper §8
//!   contrasts TLB with Hermes directly).
//! * [`Wcmp`] — capacity-weighted flow hashing: the static (topology-aware,
//!   traffic-blind) answer to asymmetry (extension).
//! * [`DiffFlow`] — static short/long split: spray the short flows, pin the
//!   long ones once they cross a fixed size threshold (extension).
//!
//! All of them implement [`tlb_switch::LoadBalancer`]; the TLB scheme itself
//! lives in the `tlb-core` crate.

pub mod diffflow;
pub mod drill;
pub mod ecmp;
pub mod flowbender;
pub mod hermes;
pub mod letflow;
pub mod presto;
pub mod rps;
pub mod wcmp;

pub use diffflow::DiffFlow;
pub use drill::Drill;
pub use ecmp::Ecmp;
pub use flowbender::FlowBender;
pub use hermes::HermesLite;
pub use letflow::LetFlow;
pub use presto::Presto;
pub use rps::Rps;
pub use wcmp::Wcmp;
