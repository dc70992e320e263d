//! Beyond the paper: the six §8-related schemes (DRILL, CONGA-lite,
//! FlowBender, Hermes-lite, WCMP, DiffFlow) head-to-head with the paper's
//! five, on the sustained basic workload and under bandwidth asymmetry.
//! The `ns/dec*` column is each scheme's median decision cost from the
//! Fig. 15(a) fixture ([`tlb_bench::measure_decision_ns`]), measured once
//! per run before any simulation starts; `fig15` prints its range.

use rayon::prelude::*;
use tlb_bench::{asymmetric_scenario, measure_decision_ns, sustained_scenario, Out, Scale};
use tlb_engine::SimTime;
use tlb_simnet::{RunReport, Scheme};

fn print_table(out: &mut Out, reports: &[RunReport], decision_ns: &[f64]) {
    out.line(&format!(
        "{:<12} {:>10} {:>10} {:>8} {:>12} {:>9} {:>9}",
        "scheme", "AFCT(ms)", "p99(ms)", "miss(%)", "long(Mbps)", "reord(%)", "ns/dec*"
    ));
    for (r, ns) in reports.iter().zip(decision_ns) {
        out.line(&format!(
            "{:<12} {:>10.3} {:>10.3} {:>8.1} {:>12.1} {:>9.3} {:>9.1}",
            r.scheme,
            r.fct_short.afct * 1e3,
            r.fct_short.p99 * 1e3,
            r.fct_short.deadline_miss * 100.0,
            r.long_throughput() * 8.0 / 1e6,
            r.short.reorder_ratio() * 100.0,
            ns,
        ));
    }
    out.blank();
}

fn main() {
    let scale = Scale::from_env();
    let rounds = scale.pick(12, 30);
    let seed = tlb_bench::scale::base_seed();
    let mut out = Out::new("extensions");
    out.line("Extensions — DRILL / CONGA-lite / FlowBender / Hermes-lite / WCMP / DiffFlow vs the paper set");
    out.blank();

    out.line("A. sustained basic workload (100 short + 3 long, 15 paths)");
    let schemes = Scheme::extended_set();
    let decision_ns: Vec<f64> = (schemes.iter())
        .map(|s| measure_decision_ns(s).quantile(0.5))
        .collect();
    let reports: Vec<RunReport> = schemes
        .par_iter()
        .map(|s| sustained_scenario(s.clone(), 100, 3, rounds, seed))
        .collect();
    print_table(&mut out, &reports, &decision_ns);

    out.line("B. bandwidth asymmetry (2 of 15 uplinks at 25%)");
    let reports: Vec<RunReport> = schemes
        .par_iter()
        .map(|s| asymmetric_scenario(s.clone(), 0.25, SimTime::ZERO, seed))
        .collect();
    print_table(&mut out, &reports, &decision_ns);

    out.line("(*) ns per forwarding decision against a loaded 15-uplink view (the");
    out.line("Fig. 15(a) fixture; wall-clock, so it wobbles run to run).");
    out.line("reading guide: DRILL ~ RPS with queue awareness (strong when");
    out.line("symmetric); CONGA-lite ~ LetFlow with queue awareness;");
    out.line("FlowBender ~ ECMP that escapes congestion. TLB remains the only");
    out.line("scheme with class-dependent granularity.");
    out.save();
}
