//! # tlb-bench — the paper-reproduction harness
//!
//! One binary per figure of the paper's evaluation (`fig03` … `fig17`),
//! plus `ablation`, `extensions` and a `repro_all` driver. Each binary
//! prints the rows/series its figure plots and writes the same text to
//! `results/<id>.txt`. [`harness`] holds what they share: the scenario
//! builders, the one (x × scheme) panel writer and the one decision-cost
//! fixture (the Fig. 15(a) CPU analogue). Wall-clock comparisons of the
//! simulator itself live in the separate `benchmark/` workspace.
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
