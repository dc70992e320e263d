//! Deadline-agnostic TLB (paper §6.3 / Fig. 12): when real per-flow
//! deadlines are unknown, TLB protects a fixed percentile of the deadline
//! distribution. This example sweeps the 5th/25th/50th/75th percentiles and
//! shows the paper's conclusion: the 25th percentile gives the best
//! latency/throughput trade-off.
//!
//! ```sh
//! cargo run --release --example deadline_study
//! ```

use tlb::prelude::*;

fn main() {
    println!("deadline-agnostic TLB: protecting different percentiles of U[5ms, 25ms]\n");
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>10} {:>14}",
        "variant", "D(ms)", "AFCT(ms)", "p99(ms)", "miss(%)", "long(Mbit/s)"
    );

    // Heavy short-flow pressure: the percentile choice only matters when
    // q_th actually binds, i.e. when m_S is large enough that Eq. 9 pins or
    // frees the long flows depending on D.
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 500;
    mix.n_long = 6;
    mix.short_window = SimTime::from_millis(15);

    // D at the 5th/25th/50th/75th percentile of U[5 ms, 25 ms].
    for (label, d_ms) in [
        ("TLB-5th", 6),
        ("TLB-25th", 10),
        ("TLB-50th", 15),
        ("TLB-75th", 20),
    ] {
        let mut tlb_cfg = TlbConfig::paper_default();
        tlb_cfg.deadline = SimTime::from_millis(d_ms);
        let cfg = SimConfig::basic_paper(Scheme::Tlb(tlb_cfg));
        let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(31));
        let r = Simulation::new(cfg, flows).run();
        println!(
            "{:<12} {:>8} {:>12.3} {:>12.3} {:>10.1} {:>14.1}",
            label,
            d_ms,
            r.fct_short.afct * 1e3,
            r.fct_short.p99 * 1e3,
            r.fct_short.deadline_miss * 100.0,
            r.long_throughput() * 8.0 / 1e6,
        );
    }

    println!("\nA tight percentile (5th) protects short flows hardest but pins");
    println!("long flows (q_th -> infinity) and costs throughput; a lax one");
    println!("(75th) lets long flows roam but misses more deadlines. The 25th");
    println!("is the paper's sweet spot.");
}
