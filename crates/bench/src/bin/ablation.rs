//! Ablation study of TLB's design choices (beyond the paper's figures):
//!
//! * threshold policy: adaptive (Eq. 9) vs fixed (0 = per-packet,
//!   mid-range, ∞ = pin after classification);
//! * granularity update interval `t` (the paper fixes 500 µs);
//! * online mean-short-size estimation (EWMA) vs the 70 KB prior;
//! * deadline percentile (cross-checks Fig. 12 at the basic scale).
//!
//! Each variant runs the sustained §6.1 workload.

use rayon::prelude::*;
use tlb_bench::{sustained_scenario, Out, Scale};
use tlb_core::{ThresholdMode, TlbConfig};
use tlb_engine::SimTime;
use tlb_simnet::{RunReport, Scheme};

fn main() {
    let scale = Scale::from_env();
    let rounds = scale.pick(12, 30);
    let seed = tlb_bench::scale::base_seed();
    let mut out = Out::new("ablation");
    out.line("TLB ablations — sustained basic workload (100 short + 3 long)");
    out.blank();

    let base = TlbConfig::paper_default();
    let mut variants: Vec<(String, TlbConfig)> = vec![("TLB (paper)".into(), base)];

    for (name, q) in [
        ("fixed q=0 (pkt)", 0u64),
        ("fixed q=15kB", 15_000),
        ("fixed q=45kB", 45_000),
        ("fixed q=inf (pin)", u64::MAX),
    ] {
        let mut c = base;
        c.threshold_mode = ThresholdMode::Fixed(q);
        variants.push((name.into(), c));
    }
    for us in [100u64, 2_000, 10_000] {
        let mut c = base;
        c.update_interval = SimTime::from_micros(us);
        variants.push((format!("t={us}us"), c));
    }
    {
        let mut c = base;
        c.estimate_mean_short = true;
        variants.push(("EWMA X estimate".into(), c));
        let mut c = base;
        c.mean_short_prior = 10_000.0; // badly wrong prior, no estimation
        variants.push(("X prior 10kB (wrong)".into(), c));
    }
    for pct in [0.05, 0.75] {
        let mut c = base;
        c.deadline_percentile = pct;
        variants.push((format!("D at {:.0}th pct", pct * 100.0), c));
    }

    let reports: Vec<RunReport> = variants
        .par_iter()
        .map(|(_, c)| sustained_scenario(Scheme::Tlb(*c), 100, 3, rounds, seed))
        .collect();

    out.line(&format!(
        "{:<22} {:>10} {:>10} {:>8} {:>12} {:>9}",
        "variant", "AFCT(ms)", "p99(ms)", "miss(%)", "long(Mbps)", "reord(%)"
    ));
    for ((name, _), r) in variants.iter().zip(&reports) {
        out.line(&format!(
            "{:<22} {:>10.3} {:>10.3} {:>8.1} {:>12.1} {:>9.3}",
            name,
            r.fct_short.afct * 1e3,
            r.fct_short.p99 * 1e3,
            r.fct_short.deadline_miss * 100.0,
            r.long_throughput() * 8.0 / 1e6,
            r.short.reorder_ratio() * 100.0,
        ));
    }
    out.blank();
    out.line("reading guide: 'fixed 0' trades reordering for throughput,");
    out.line("'pin' trades throughput for isolation; adaptive should sit at");
    out.line("or near the best corner of both. A wrong size prior or a lazy");
    out.line("update interval degrades gracefully, not catastrophically.");
    out.save();
}
