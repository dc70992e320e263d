//! Fig. 17 — asymmetric scenario, varying the **bandwidth** of 2 degraded
//! leaf-to-spine links: normalized AFCT and long-flow throughput.

use tlb_bench::{asymmetric_scenario, normalized_panels, Out, Scale};
use tlb_engine::SimTime;

fn main() {
    let scale = Scale::from_env();
    let mut out = Out::new("fig17");
    out.line("Fig. 17 — asymmetry: 2 of 15 uplinks at reduced bandwidth");
    out.blank();

    // Bandwidth factors of the degraded links (1.0 = symmetric).
    let factors = scale.pick(vec![1.0f64, 0.5, 0.25], vec![1.0, 0.75, 0.5, 0.25, 0.1]);
    let xs: Vec<(String, f64)> = factors
        .iter()
        .map(|&f| (format!("{:.0}%bw", f * 100.0), f))
        .collect();
    let seed = tlb_bench::scale::base_seed();
    normalized_panels(&mut out, "degraded bw", 16, &xs, |s, &f| {
        vec![asymmetric_scenario(s.clone(), f, SimTime::ZERO, seed)]
    });
    out.line("expected shape (paper): the bigger the bandwidth gap, the worse");
    out.line("the oblivious schemes (ECMP/RPS/Presto) get relative to TLB;");
    out.line("LetFlow stays competitive.");
    out.save();
}
