//! Flow-completion-time accounting: AFCT, tail FCT, deadline misses.

use crate::stats::{mean, percentile};
use tlb_engine::SimTime;
use tlb_net::FlowId;

/// Short/long classification used for reporting (by *actual* flow size, the
/// ground truth the workload generator knows — distinct from the switch's
/// online byte-count classification).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlowClass {
    /// Below the threshold (paper: < 100 KB) — latency-sensitive.
    Short,
    /// At/above the threshold — throughput-sensitive.
    Long,
}

#[derive(Clone, Copy, Debug)]
struct Record {
    size: u64,
    start: SimTime,
    end: Option<SimTime>,
    /// Deadline as a duration from `start` (short flows only in the paper).
    deadline: Option<SimTime>,
}

/// Summary statistics for one flow class.
#[derive(Clone, Debug)]
pub struct FctSummary {
    /// Completed flows in this class.
    pub completed: usize,
    /// Started but not completed flows.
    pub unfinished: usize,
    /// Mean FCT over completed flows (seconds).
    pub afct: f64,
    /// 99th-percentile FCT (seconds).
    pub p99: f64,
    /// Median FCT (seconds).
    pub p50: f64,
    /// Fraction of deadline-carrying flows that missed (completed late or
    /// never completed).
    pub deadline_miss: f64,
    /// Mean goodput of completed flows in bytes/second.
    pub mean_goodput: f64,
}

/// Records every flow's lifetime and summarizes per class.
#[derive(Clone, Debug, Default)]
pub struct FctRecorder {
    records: Vec<Option<Record>>,
    short_threshold: u64,
}

impl FctRecorder {
    /// A recorder classifying flows below `short_threshold` bytes as short
    /// (the paper uses 100 KB).
    pub fn new(short_threshold: u64) -> FctRecorder {
        FctRecorder {
            records: Vec::new(),
            short_threshold,
        }
    }

    /// Pre-size the record table for `n_flows` flows, so registering them
    /// never reallocates (sparse ids beyond the hint still resize on
    /// demand).
    pub fn reserve(&mut self, n_flows: usize) {
        if n_flows > self.records.len() {
            self.records.reserve(n_flows - self.records.len());
        }
    }

    /// Register a flow at its start time.
    pub fn flow_started(
        &mut self,
        flow: FlowId,
        size: u64,
        start: SimTime,
        deadline: Option<SimTime>,
    ) {
        let idx = flow.index();
        if idx >= self.records.len() {
            self.records.resize(idx + 1, None);
        }
        debug_assert!(self.records[idx].is_none(), "flow {flow} started twice");
        self.records[idx] = Some(Record {
            size,
            start,
            end: None,
            deadline,
        });
    }

    /// Mark a flow complete (all bytes delivered to the receiver).
    ///
    /// # Panics
    ///
    /// If the flow was never started: a completion without a start has no
    /// size, class or FCT to record.
    pub fn flow_completed(&mut self, flow: FlowId, end: SimTime) {
        let rec = (self.records.get_mut(flow.index()))
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("flow {flow} completed without a start"));
        debug_assert!(rec.end.is_none(), "flow {flow} completed twice");
        debug_assert!(end >= rec.start);
        rec.end = Some(end);
    }

    /// The class of a flow by its registered size.
    pub fn class_of(&self, flow: FlowId) -> Option<FlowClass> {
        self.records[flow.index()].map(|r| {
            if r.size < self.short_threshold {
                FlowClass::Short
            } else {
                FlowClass::Long
            }
        })
    }

    /// FCT of a completed flow in seconds.
    pub fn fct_of(&self, flow: FlowId) -> Option<f64> {
        let r = self.records.get(flow.index())?.as_ref()?;
        let end = r.end?;
        Some((end - r.start).as_secs_f64())
    }

    /// Number of flows registered.
    pub fn n_flows(&self) -> usize {
        self.records.iter().flatten().count()
    }

    fn class_records(&self, class: FlowClass) -> impl Iterator<Item = &Record> {
        self.records.iter().flatten().filter(move |r| {
            let c = if r.size < self.short_threshold {
                FlowClass::Short
            } else {
                FlowClass::Long
            };
            c == class
        })
    }

    /// Summarize one class.
    pub fn summary(&self, class: FlowClass) -> FctSummary {
        let mut fcts = Vec::new();
        let mut goodputs = Vec::new();
        let mut unfinished = 0;
        let mut with_deadline = 0usize;
        let mut missed = 0usize;
        for r in self.class_records(class) {
            match r.end {
                Some(end) => {
                    let fct = (end - r.start).as_secs_f64();
                    fcts.push(fct);
                    if fct > 0.0 {
                        goodputs.push(r.size as f64 / fct);
                    }
                    if let Some(d) = r.deadline {
                        with_deadline += 1;
                        if end - r.start > d {
                            missed += 1;
                        }
                    }
                }
                None => {
                    unfinished += 1;
                    if r.deadline.is_some() {
                        with_deadline += 1;
                        missed += 1; // never finishing certainly misses
                    }
                }
            }
        }
        fcts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        FctSummary {
            completed: fcts.len(),
            unfinished,
            afct: mean(&fcts),
            p99: if fcts.is_empty() {
                0.0
            } else {
                percentile(&fcts, 0.99)
            },
            p50: if fcts.is_empty() {
                0.0
            } else {
                percentile(&fcts, 0.50)
            },
            deadline_miss: if with_deadline == 0 {
                0.0
            } else {
                missed as f64 / with_deadline as f64
            },
            mean_goodput: mean(&goodputs),
        }
    }

    /// Completed FCTs of a class, in seconds (unsorted). Lets callers that
    /// merge several runs pool the raw samples and build one CDF at the
    /// end, instead of sorting per run and resampling.
    pub fn fct_samples(&self, class: FlowClass) -> Vec<f64> {
        self.class_records(class)
            .filter_map(|r| r.end.map(|e| (e - r.start).as_secs_f64()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Cdf;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn classifies_by_size() {
        let mut r = FctRecorder::new(100_000);
        r.flow_started(FlowId(0), 50_000, ms(0), None);
        r.flow_started(FlowId(1), 10_000_000, ms(0), None);
        assert_eq!(r.class_of(FlowId(0)), Some(FlowClass::Short));
        assert_eq!(r.class_of(FlowId(1)), Some(FlowClass::Long));
    }

    #[test]
    fn afct_and_percentiles() {
        let mut r = FctRecorder::new(100_000);
        for (i, fct_ms) in [10u64, 20, 30, 40].iter().enumerate() {
            r.flow_started(FlowId(i as u32), 1_000, ms(0), None);
            r.flow_completed(FlowId(i as u32), ms(*fct_ms));
        }
        let s = r.summary(FlowClass::Short);
        assert_eq!(s.completed, 4);
        assert!((s.afct - 0.025).abs() < 1e-9);
        assert!((s.p50 - 0.025).abs() < 1e-9);
        assert!(s.p99 > 0.039 && s.p99 <= 0.040);
    }

    #[test]
    fn deadline_misses() {
        let mut r = FctRecorder::new(100_000);
        // Meets its 15 ms deadline.
        r.flow_started(FlowId(0), 1_000, ms(0), Some(ms(15)));
        r.flow_completed(FlowId(0), ms(10));
        // Misses its 5 ms deadline.
        r.flow_started(FlowId(1), 1_000, ms(0), Some(ms(5)));
        r.flow_completed(FlowId(1), ms(10));
        // Never completes: counted as missed.
        r.flow_started(FlowId(2), 1_000, ms(0), Some(ms(5)));
        let s = r.summary(FlowClass::Short);
        assert!((s.deadline_miss - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.unfinished, 1);
    }

    #[test]
    fn goodput_accounts_size_over_fct() {
        let mut r = FctRecorder::new(100);
        r.flow_started(FlowId(0), 1_000_000, ms(0), None);
        r.flow_completed(FlowId(0), ms(100)); // 10 MB/s
        let s = r.summary(FlowClass::Long);
        assert!((s.mean_goodput - 10_000_000.0).abs() < 1.0);
    }

    #[test]
    fn classes_do_not_mix() {
        let mut r = FctRecorder::new(100_000);
        r.flow_started(FlowId(0), 1_000, ms(0), None);
        r.flow_completed(FlowId(0), ms(1));
        r.flow_started(FlowId(1), 1_000_000, ms(0), None);
        r.flow_completed(FlowId(1), ms(1000));
        let s = r.summary(FlowClass::Short);
        let l = r.summary(FlowClass::Long);
        assert_eq!(s.completed, 1);
        assert_eq!(l.completed, 1);
        assert!((s.afct - 0.001).abs() < 1e-12);
        assert!((l.afct - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_of_fcts() {
        let mut r = FctRecorder::new(100_000);
        for i in 0..10u32 {
            r.flow_started(FlowId(i), 1_000, ms(0), None);
            r.flow_completed(FlowId(i), ms((i + 1) as u64));
        }
        let cdf = Cdf::from_samples(r.fct_samples(FlowClass::Short));
        assert_eq!(cdf.len(), 10);
        assert!((cdf.fraction_below(0.005) - 0.5).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "completed without a start")]
    fn a_completion_without_a_start_is_refused() {
        // Kept, flow 0 would enter the summaries with no size and no
        // start: a long flow of unknown bytes, started at 0.
        let mut r = FctRecorder::new(100_000);
        r.flow_started(FlowId(1), 1_000, ms(0), None);
        r.flow_completed(FlowId(0), ms(10));
    }

    #[test]
    fn sparse_flow_ids_are_fine() {
        let mut r = FctRecorder::new(100_000);
        r.flow_started(FlowId(100), 1_000, ms(0), None);
        r.flow_completed(FlowId(100), ms(1));
        assert_eq!(r.n_flows(), 1);
        assert_eq!(r.fct_of(FlowId(100)), Some(0.001));
        assert_eq!(r.fct_of(FlowId(5)), None);
    }
}
