//! # tlb-metrics — measurement collectors for the evaluation
//!
//! Everything the paper's figures read off a run: flow completion times
//! (average, tail, CDF, deadline misses — Fig. 3(c), 10, 11, 12, 13, 14),
//! sample sets with percentiles (queue lengths/delays — Fig. 3(a), 8(b)),
//! and bucketed time series (instantaneous reordering/throughput —
//! Fig. 8(a), 9).

pub mod ascii;
pub mod fct;
pub mod samples;
pub mod series;
pub mod stats;

pub use ascii::chart;
pub use fct::{FctRecorder, FctSummary, FlowClass};
pub use samples::SampleSet;
pub use series::TimeSeries;
pub use stats::{max, mean, min, percentile, Cdf};
