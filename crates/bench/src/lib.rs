//! # tlb-bench — the paper-reproduction harness
//!
//! One binary per figure of the paper's evaluation (`fig03` … `fig17`), a
//! `repro_all` driver, and criterion micro-benchmarks (the Fig. 15 CPU
//! analogue). Each binary prints the rows/series its figure plots and
//! writes the same text to `results/<id>.txt`.
//!
//! Scale control: set `TLB_SCALE=full` for paper-scale parameters (slower);
//! the default `quick` preserves every experiment's *shape* at a fraction
//! of the runtime. `TLB_SEED` overrides the base seed.

pub mod harness;
pub mod out;
pub mod scale;

pub use harness::*;
pub use out::Out;
pub use scale::Scale;
