//! The regime sweep: TLB's threshold policy and update interval `t`
//! against adaptive TLB, LetFlow and DRILL, on the four regimes where the
//! paper's claim that an adaptive `q_th` beats any fixed granularity can
//! fail — Fig. 10's symmetric web-search job at loads 0.5 and 0.8, Fig. 17
//! with 2 of 15 uplinks at 25 % bandwidth, Fig. 16 with +200 µs on them.
//!
//! Every cell runs a fixed number of seeds and prints the median and the
//! [min, max] over them. A TLB cell whose range is disjoint from adaptive
//! TLB's in the same regime and column is starred: that knob setting
//! moves the result beyond the seed spread there. A TLB row is kept only
//! if it earns a star in at least one regime. The last column, TLB's
//! voluntary long-flow reroutes, counts as a result: they are the
//! stickiness violations of Liang & Borst's delay/stickiness trade-off.

use rayon::prelude::*;
use std::fmt::Write as _;
use tlb_bench::{asymmetric_scenario, large_scale_job, Out, Scale};
use tlb_core::{ThresholdMode, TlbConfig};
use tlb_engine::SimTime;
use tlb_simnet::{RunReport, Scheme, Simulation};

const REGIMES: [&str; 4] = [
    "Fig. 10, web search at load 0.5",
    "Fig. 10, web search at load 0.8",
    "Fig. 17, 2 of 15 uplinks at 25% bandwidth",
    "Fig. 16, 2 of 15 uplinks with +200us",
];

/// One run of `scheme` at `seed` in regime `regime` of [`REGIMES`].
fn run(regime: usize, scheme: Scheme, seed: u64) -> RunReport {
    let web_search = |load| {
        let dist = tlb_workload::web_search();
        let (cfg, flows) = large_scale_job(scheme.clone(), &dist, load, seed);
        Simulation::new(cfg, flows).run()
    };
    match regime {
        0 => web_search(0.5),
        1 => web_search(0.8),
        2 => asymmetric_scenario(scheme, 0.25, SimTime::ZERO, seed),
        _ => asymmetric_scenario(scheme, 1.0, SimTime::from_micros(200), seed),
    }
}

/// The columns, each with its decimals: short-flow AFCT (ms), 99th-pct
/// FCT (ms), long-flow throughput (Mbit/s), then TLB's long-flow reroutes.
type Column = (&'static str, usize, fn(&RunReport) -> Option<f64>);

const COLUMNS: [Column; 4] = [
    ("AFCT(ms)", 2, |r| Some(r.fct_short.afct * 1e3)),
    ("p99(ms)", 2, |r| Some(r.fct_short.p99 * 1e3)),
    ("long(Mbps)", 1, |r| Some(r.long_throughput() * 8.0 / 1e6)),
    ("reroutes", 0, |r| r.tlb_long_reroutes.map(|n| n as f64)),
];

fn main() {
    // An odd count, so the median is one seed's value.
    let n = Scale::from_env().pick(3, 5);
    let seeds: Vec<u64> = (0..n as u64)
        .map(|i| tlb_bench::scale::base_seed().wrapping_add(i))
        .collect();
    let tlb = |threshold_mode, t_us| {
        Scheme::Tlb(TlbConfig {
            threshold_mode,
            update_interval: SimTime::from_micros(t_us),
            ..TlbConfig::paper_default()
        })
    };
    let rows = [
        ("TLB (adaptive)", tlb(ThresholdMode::Adaptive, 500)),
        ("fixed q=0", tlb(ThresholdMode::Fixed(0), 500)),
        ("fixed q=15kB", tlb(ThresholdMode::Fixed(15_000), 500)),
        ("fixed q=inf", tlb(ThresholdMode::Fixed(u64::MAX), 500)),
        ("t=100us", tlb(ThresholdMode::Adaptive, 100)),
        ("t=10000us", tlb(ThresholdMode::Adaptive, 10_000)),
        ("LetFlow", Scheme::LetFlow),
        ("DRILL", Scheme::Drill),
    ];

    let mut jobs = Vec::new();
    for regime in 0..REGIMES.len() {
        for (_, scheme) in &rows {
            jobs.extend(seeds.iter().map(|&seed| (regime, scheme, seed)));
        }
    }
    let reports: Vec<RunReport> = jobs
        .par_iter()
        .map(|&(regime, scheme, seed)| run(regime, scheme.clone(), seed))
        .collect();
    // Column `col` of every seed's run of `row` in `regime`, sorted.
    let cell = |regime: usize, row: usize, col: usize| {
        let runs = &reports[(regime * rows.len() + row) * n..][..n];
        let mut v: Vec<f64> = runs.iter().map(COLUMNS[col].2).collect::<Option<_>>()?;
        v.sort_by(f64::total_cmp);
        Some(v)
    };

    let mut out = Out::new("ablation");
    out.line("Regime sweep — TLB's knobs against adaptive TLB, LetFlow and DRILL");
    out.line(&format!(
        "  {n} seeds per cell: median [min, max]; * = range disjoint from adaptive TLB's"
    ));
    out.blank();
    for (regime, label) in REGIMES.iter().enumerate() {
        out.line(label);
        let mut header = format!("{:<15}", "");
        for (name, _, _) in COLUMNS {
            let _ = write!(header, " {name:>24}");
        }
        out.line(&header);
        for (row, (name, scheme)) in rows.iter().enumerate() {
            let mut line = format!("{name:<15}");
            for (col, &(_, p, _)) in COLUMNS.iter().enumerate() {
                let text = match (cell(regime, row, col), cell(regime, 0, col)) {
                    (Some(v), adaptive) => {
                        let (lo, hi) = (v[0], v[n - 1]);
                        let star = match (adaptive, scheme) {
                            (Some(a), Scheme::Tlb(_)) if hi < a[0] || lo > a[n - 1] => "*",
                            _ => " ",
                        };
                        format!("{:.p$} [{lo:.p$}, {hi:.p$}]{star}", v[n / 2])
                    }
                    (None, _) => "-".into(),
                };
                let _ = write!(line, " {text:>24}");
            }
            out.line(&line);
        }
        out.blank();
    }
    out.line("reading guide: q=0 and t=100us collapse long-flow throughput on the");
    out.line("+200us fabric, as DRILL does, and q=0 also at 25% bandwidth; adaptive");
    out.line("TLB avoids both. On the symmetric web-search job q=0 beats adaptive TLB");
    out.line("on AFCT (EXPERIMENTS.md, divergence 5). q=15kB keeps more long-flow");
    out.line("throughput than adaptive TLB on both asymmetric fabrics; q=inf never");
    out.line("reroutes and otherwise stays inside adaptive TLB's spread.");
    out.save();
}
