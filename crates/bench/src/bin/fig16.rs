//! Fig. 16 — asymmetric scenario, varying the **extra propagation delay**
//! of 2 degraded leaf-to-spine links: normalized AFCT and long-flow
//! throughput.

use tlb_bench::{asymmetric_scenario, normalized_panels, Out, Scale};
use tlb_engine::SimTime;

fn main() {
    let scale = Scale::from_env();
    let mut out = Out::new("fig16");
    out.line("Fig. 16 — asymmetry: extra delay on 2 of 15 uplinks");
    out.blank();

    let delays_us = scale.pick(vec![0u64, 100, 200, 400], vec![0, 50, 100, 200, 400, 800]);
    let xs: Vec<(String, u64)> = delays_us.iter().map(|&d| (format!("{d}us"), d)).collect();
    let seed = tlb_bench::scale::base_seed();
    normalized_panels(&mut out, "extra delay", 16, &xs, |s, &d| {
        vec![asymmetric_scenario(
            s.clone(),
            1.0,
            SimTime::from_micros(d),
            seed,
        )]
    });
    out.line("expected shape (paper): ECMP's tail blows up once hashed onto");
    out.line("bad paths; RPS/Presto degrade with reordering; LetFlow and TLB");
    out.line("stay resilient.");
    out.save();
}
