//! # tlb-benchmark — the repo benchmark
//!
//! Six named workloads, the host cost a user pays per simulated job end
//! to end, and a replay-attributed view of where each layer's share goes.
//! `benchmark/README.md` has the one command, the tables and the reasons.
//!
//! Two binaries share this library: `tlb-benchmark` measures, and
//! `tlb-benchmark-traced` is the same program with
//! [`tlb_engine::CountingAlloc`] installed, which only the traced pass
//! runs in.

pub mod calib;
pub mod cli;
pub mod json;
pub mod metrics;
pub mod procstat;
pub mod rep;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
