//! Fig. 5 (the paper's queueing-process schematic), demonstrated with real
//! data: sample the sender rack's uplink queues over time under TLB and
//! show the separation — the long flows hold a few queues while the short
//! flows flit across the empty ones — versus ECMP, where short flows get
//! stuck behind whichever queue their hash picked.

use tlb_bench::{Out, Scale};
use tlb_engine::{SimRng, SimTime};
use tlb_simnet::{RunReport, Scheme, SimConfig, Simulation};
use tlb_workload::{sustained_mix, BasicMixConfig};

fn run_sampled(scheme: Scheme, rounds: usize, seed: u64) -> RunReport {
    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.sample_queues = true;
    cfg.series_bucket = SimTime::from_micros(250);
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 100;
    mix.n_long = 3;
    let (flows, next) = sustained_mix(&cfg.topo, &mix, rounds, &mut SimRng::new(seed));
    Simulation::new_chained(cfg, flows, next).run()
}

/// Summarize one occupancy snapshot as sorted queue lengths.
fn profile(lens: &[u32]) -> String {
    let mut v: Vec<u32> = lens.to_vec();
    v.sort_unstable_by(|a, b| b.cmp(a));
    let busy = v.iter().filter(|&&l| l > 0).count();
    format!("busy {busy:>2}/15  top queues {:?}", &v[..5.min(v.len())])
}

fn main() {
    let scale = Scale::from_env();
    let rounds = scale.pick(12, 30);
    let seed = tlb_bench::scale::base_seed();
    let mut out = Out::new("fig05");
    out.line("Fig. 5 — the queueing process, measured (leaf-0 uplink occupancy)");
    out.line("  sustained 100 short + 3 long flows; snapshots every 250 us");
    out.blank();

    for scheme in [Scheme::Ecmp, Scheme::LetFlow, Scheme::tlb_default()] {
        let r = run_sampled(scheme, rounds, seed);
        out.line(&format!("{}:", r.scheme));
        // Restrict to the active phase (some queue non-empty): the chained
        // workload drains near the end and idle snapshots say nothing.
        let active: Vec<&(f64, Vec<u32>)> = r
            .queue_series
            .iter()
            .filter(|(_, lens)| lens.iter().any(|&l| l > 0))
            .collect();
        let n = active.len();
        for &i in &[n / 4, n / 2, 3 * n / 4] {
            let (t, lens) = active[i.min(n.saturating_sub(1))];
            out.line(&format!("  t={:>6.2}ms  {}", t * 1e3, profile(lens)));
        }
        // Occupancy statistics over the active phase.
        let mut spreads = Vec::new();
        let mut peaks = Vec::new();
        for (_, lens) in &active {
            let max = *lens.iter().max().unwrap_or(&0) as f64;
            let mean = lens.iter().sum::<u32>() as f64 / lens.len() as f64;
            peaks.push(max);
            spreads.push(max - mean);
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        out.line(&format!(
            "  avg peak queue {:.1} pkts, avg (peak - mean) spread {:.1} pkts",
            avg(&peaks),
            avg(&spreads)
        ));
        out.blank();
    }
    out.line("expected shape: ECMP concentrates (high peaks, big spread while");
    out.line("other queues idle); TLB keeps the long flows' queues bounded and");
    out.line("the rest shallow for the shorts.");
    out.save();
}
