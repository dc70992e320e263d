//! Shared experiment builders used by the per-figure binaries.

use crate::scale::{base_seed, Scale};
use tlb_engine::{SimRng, SimTime};
use tlb_simnet::{RunReport, Scheme, SimConfig, Simulation};
use tlb_workload::{basic_mix, BasicMixConfig, FlowSpec, PoissonWorkload, SizeDist, UniformBytes};

/// The §6.1 basic scenario: the paper's mixed workload on the 15-path
/// fabric. `n_short`/`n_long` as in the figure being reproduced.
pub fn basic_scenario(scheme: Scheme, n_short: usize, n_long: usize, seed: u64) -> RunReport {
    let cfg = SimConfig::basic_paper(scheme);
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = n_short;
    mix.n_long = n_long;
    let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(seed));
    Simulation::new(cfg, flows).run()
}

/// The §6.1 scenario with *sustained* short-flow load: `n_short` clients
/// each run `rounds` short flows back-to-back, so m_S stays ≈ n_short for
/// the whole run — the paper's premise for Fig. 3/4/7/8/9.
pub fn sustained_scenario(
    scheme: Scheme,
    n_short: usize,
    n_long: usize,
    rounds: usize,
    seed: u64,
) -> RunReport {
    let cfg = SimConfig::basic_paper(scheme);
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = n_short;
    mix.n_long = n_long;
    let (flows, next) =
        tlb_workload::sustained_mix(&cfg.topo, &mix, rounds, &mut SimRng::new(seed));
    Simulation::new_chained(cfg, flows, next).run()
}

/// The granularity-study variants of Fig. 3/4: flow-, flowlet- and
/// packet-level forwarding are embodied by ECMP, LetFlow and RPS, exactly
/// as §2.2 describes.
pub fn granularity_schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("flow", Scheme::Ecmp),
        ("flowlet", Scheme::letflow_default()),
        ("packet", Scheme::Rps),
    ]
}

/// Large-scale (§6.2) jobs: one `(cfg, flows)` pair per scheme at one load.
/// Shared flow set per load so schemes are compared on identical traffic.
pub fn large_scale_jobs(
    schemes: &[Scheme],
    dist: &impl SizeDist,
    load: f64,
    scale: Scale,
) -> Vec<(SimConfig, Vec<FlowSpec>)> {
    // Keep the paper's 4:1 oversubscription at both scales (it is what makes
    // the uplinks contend); quick mode shortens the trace instead.
    let hosts_per_leaf = 32;
    let duration = scale.pick(SimTime::from_millis(25), SimTime::from_millis(150));
    schemes
        .iter()
        .map(|scheme| {
            let cfg = SimConfig::large_scale(scheme.clone(), hosts_per_leaf);
            let wl = PoissonWorkload {
                load,
                dist,
                duration,
                deadline_lo: SimTime::from_millis(5),
                deadline_hi: SimTime::from_millis(25),
                short_threshold: 100_000,
                inter_leaf_only: true,
            };
            let flows = wl.generate(&cfg.topo, &mut SimRng::new(base_seed() ^ load.to_bits()));
            (cfg, flows)
        })
        .collect()
}

/// The load axis of Fig. 10–12.
pub fn load_sweep(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![0.2, 0.4, 0.6, 0.8],
        Scale::Full => vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
    }
}

/// The §7 testbed scenario: 10 paths at 20 Mbit/s, long flows > 5 MB,
/// deadlines U[2 s, 6 s], shorts bursting over a couple of seconds.
pub fn testbed_scenario(scheme: Scheme, n_short: usize, n_long: usize, seed: u64) -> RunReport {
    let cfg = SimConfig::testbed(scheme);
    let mut rng = SimRng::new(seed);
    let short_dist = UniformBytes {
        lo: 40_000,
        hi: 100_000,
    };
    let long_dist = UniformBytes {
        lo: 5_000_000,
        hi: 10_000_000,
    };
    let senders: Vec<_> = cfg.topo.hosts_of(tlb_net::LeafId(0)).collect();
    let receivers: Vec<_> = cfg.topo.hosts_of(tlb_net::LeafId(1)).collect();
    let mut flows = Vec::new();
    for i in 0..n_long {
        flows.push(FlowSpec {
            id: tlb_net::FlowId(0),
            src: senders[i % senders.len()],
            dst: receivers[i % receivers.len()],
            size_bytes: long_dist.sample(&mut rng),
            start: SimTime::ZERO,
            deadline: None,
        });
    }
    // Short flows arrive Poisson over a 4 s window (the testbed's
    // second-scale RTTs stretch everything by ~100x vs the NS2 setup).
    let window = 4.0;
    let mut t = 0.0;
    for i in 0..n_short {
        t += rng.exp(window / n_short as f64);
        let deadline = SimTime::from_secs(2) + SimTime::from_nanos(rng.gen_range(4_000_000_001));
        flows.push(FlowSpec {
            id: tlb_net::FlowId(0),
            src: senders[(n_long + i) % senders.len()],
            dst: receivers[rng.index(receivers.len())],
            size_bytes: short_dist.sample(&mut rng),
            start: SimTime::from_secs_f64(t),
            deadline: Some(deadline),
        });
    }
    flows.sort_by_key(|f| f.start);
    for (i, f) in flows.iter_mut().enumerate() {
        f.id = tlb_net::FlowId(i as u32);
    }
    Simulation::new(cfg, flows).run()
}

/// Shared by Fig. 13/14: run all five schemes at each x-value of the
/// testbed scenario and print short-flow AFCT and long-flow throughput
/// normalized to TLB (the paper's presentation).
pub fn testbed_normalized_panels(
    out: &mut crate::Out,
    xs: &[usize],
    params: impl Fn(usize) -> (usize, usize),
    seed: u64,
) {
    use rayon::prelude::*;
    // Testbed runs are cheap; average 3 seeds to keep the normalized panels
    // from jumping with one unlucky hash placement.
    let seeds: Vec<u64> = (0..3).map(|i| seed + i).collect();
    let schemes = Scheme::paper_set();
    let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
    let mut afct: Vec<Vec<f64>> = Vec::new();
    let mut gput: Vec<Vec<f64>> = Vec::new();
    for &x in xs {
        let (n_short, n_long) = params(x);
        let cells: Vec<(f64, f64)> = schemes
            .par_iter()
            .map(|s| {
                let runs: Vec<_> = seeds
                    .iter()
                    .map(|&sd| testbed_scenario(s.clone(), n_short, n_long, sd))
                    .collect();
                let n = runs.len() as f64;
                (
                    runs.iter().map(|r| r.fct_short.afct).sum::<f64>() / n,
                    runs.iter().map(|r| r.long_throughput()).sum::<f64>() / n,
                )
            })
            .collect();
        afct.push(cells.iter().map(|c| c.0).collect());
        gput.push(cells.iter().map(|c| c.1).collect());
    }
    let tlb = names.iter().position(|n| *n == "TLB").unwrap();

    let header = {
        let mut h = format!("{:<6}", "x");
        for n in &names {
            h.push_str(&format!(" {n:>10}"));
        }
        h
    };
    out.line("(a) AFCT of short flows, normalized to TLB (>1 = slower than TLB)");
    out.line(&header);
    for (i, &x) in xs.iter().enumerate() {
        let mut row = format!("{x:<6}");
        for si in 0..names.len() {
            row.push_str(&format!(" {:>10.2}", afct[i][si] / afct[i][tlb]));
        }
        out.line(&row);
    }
    out.blank();
    out.line("(b) long-flow throughput, normalized to TLB (<1 = less than TLB)");
    out.line(&header);
    for (i, &x) in xs.iter().enumerate() {
        let mut row = format!("{x:<6}");
        for si in 0..names.len() {
            row.push_str(&format!(" {:>10.2}", gput[i][si] / gput[i][tlb]));
        }
        out.line(&row);
    }
    out.blank();
}

/// Asymmetric §7 scenario: degrade 2 leaf-0 uplinks by `bw_factor` and
/// `extra_delay`, then run the basic mixed workload.
pub fn asymmetric_scenario(
    scheme: Scheme,
    bw_factor: f64,
    extra_delay: SimTime,
    seed: u64,
) -> RunReport {
    let mut cfg = SimConfig::basic_paper(scheme);
    // "2 randomly selected leaf-to-spine links" — fixed choice keeps the
    // comparison identical across schemes.
    cfg.topo.degrade_link(
        tlb_net::LeafId(0),
        tlb_net::SpineId(3),
        bw_factor,
        extra_delay,
    );
    cfg.topo.degrade_link(
        tlb_net::LeafId(0),
        tlb_net::SpineId(11),
        bw_factor,
        extra_delay,
    );
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 100;
    mix.n_long = 4;
    let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(seed));
    Simulation::new(cfg, flows).run()
}

/// One labelled panel extractor for the four-panel figures.
type Panel = (&'static str, Box<dyn Fn(&RunReport) -> f64>);

/// The shared driver of Fig. 10/11: sweep the paper's five schemes over the
/// load axis on one flow-size distribution and print the four panels
/// (AFCT, p99 FCT, deadline miss %, long-flow throughput).
pub fn large_scale_figure(id: &str, title: &str, dist: &impl SizeDist) {
    let scale = Scale::from_env();
    let schemes = Scheme::paper_set();
    let loads = load_sweep(scale);
    // One big parallel batch: every (load, scheme) cell.
    let mut jobs = Vec::new();
    for &load in &loads {
        jobs.extend(large_scale_jobs(&schemes, dist, load, scale));
    }

    let mut out = crate::Out::new(id);
    out.line(title);
    out.line(&format!(
        "  topology: 8 ToR x 8 core, {} hosts, 1 Gbit/s, DCTCP",
        jobs[0].0.topo.n_hosts()
    ));
    out.blank();

    let reports = tlb_simnet::run_all(jobs);
    let cell = |li: usize, si: usize| &reports[li * schemes.len() + si];

    let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
    let header = {
        let mut h = format!("{:<6}", "load");
        for n in &names {
            h.push_str(&format!(" {n:>10}"));
        }
        h
    };

    let panels: Vec<Panel> = vec![
        (
            "(a) short-flow AFCT (ms)",
            Box::new(|r: &RunReport| r.fct_short.afct * 1e3),
        ),
        (
            "(b) short-flow 99th-pct FCT (ms)",
            Box::new(|r: &RunReport| r.fct_short.p99 * 1e3),
        ),
        (
            "(c) short-flow deadline miss (%)",
            Box::new(|r: &RunReport| r.fct_short.deadline_miss * 100.0),
        ),
        (
            "(d) long-flow throughput (Mbit/s)",
            Box::new(|r: &RunReport| r.long_throughput() * 8.0 / 1e6),
        ),
    ];
    for (panel, f) in &panels {
        out.line(panel);
        out.line(&header);
        for (li, load) in loads.iter().enumerate() {
            let mut row = format!("{load:<6.1}");
            for si in 0..schemes.len() {
                row.push_str(&format!(" {:>10.2}", f(cell(li, si))));
            }
            out.line(&row);
        }
        out.blank();
    }

    // Panel (a) as an ASCII chart: AFCT vs load per scheme.
    out.line("short-flow AFCT vs load (ms):");
    let charted: Vec<(&str, Vec<(f64, f64)>)> = names
        .iter()
        .enumerate()
        .map(|(si, n)| {
            let pts: Vec<(f64, f64)> = loads
                .iter()
                .enumerate()
                .map(|(li, &l)| (l, cell(li, si).fct_short.afct * 1e3))
                .collect();
            (*n, pts)
        })
        .collect();
    let series_refs: Vec<(&str, &[(f64, f64)])> =
        charted.iter().map(|(n, v)| (*n, v.as_slice())).collect();
    for line in tlb_metrics::chart(&series_refs, 64, 14).lines() {
        out.line(line);
    }
    out.blank();

    // Headline comparison at the top load: the paper quotes AFCT reductions
    // of TLB vs each baseline at load 0.8.
    let li = loads.len() - 1;
    let tlb_idx = names.iter().position(|n| *n == "TLB").expect("TLB in set");
    let tlb_afct = cell(li, tlb_idx).fct_short.afct;
    let mut line = format!("TLB AFCT change at load {:.1}: ", loads[li]);
    for (si, n) in names.iter().enumerate() {
        if si != tlb_idx {
            line.push_str(&format!(
                "{}: {:+.0}%  ",
                n,
                pct_change(tlb_afct, cell(li, si).fct_short.afct)
            ));
        }
    }
    out.line(&line);
    out.line("expected shape (paper): TLB lowest AFCT/p99/miss at high load;");
    out.line("TLB highest long-flow throughput; ECMP worst overall.");
    out.save();
}

/// Print the two TLB-normalized panels shared by Fig. 16/17: AFCT (panel a)
/// and long-flow throughput (panel b) per x-value per scheme.
pub fn normalized_panels(
    out: &mut crate::Out,
    xlabel: &str,
    xs: &[String],
    names: &[&str],
    afct: &[Vec<f64>],
    gput: &[Vec<f64>],
) {
    let tlb = names.iter().position(|n| *n == "TLB").expect("TLB column");
    let header = {
        let mut h = format!("{xlabel:<16}");
        for n in names {
            h.push_str(&format!(" {n:>10}"));
        }
        h
    };
    out.line("(a) AFCT of short flows, normalized to TLB (>1 = slower than TLB)");
    out.line(&header);
    for (i, x) in xs.iter().enumerate() {
        let mut row = format!("{x:<16}");
        for si in 0..names.len() {
            row.push_str(&format!(" {:>10.2}", afct[i][si] / afct[i][tlb]));
        }
        out.line(&row);
    }
    out.blank();
    out.line("(b) long-flow throughput, normalized to TLB (<1 = less than TLB)");
    out.line(&header);
    for (i, x) in xs.iter().enumerate() {
        let mut row = format!("{x:<16}");
        for si in 0..names.len() {
            row.push_str(&format!(" {:>10.2}", gput[i][si] / gput[i][tlb]));
        }
        out.line(&row);
    }
    out.blank();
}

/// Render a `(time, value)` series as a compact text sparkline table:
/// at most `n` evenly spaced points.
pub fn sample_series(series: &[(f64, f64)], n: usize) -> Vec<(f64, f64)> {
    if series.len() <= n {
        return series.to_vec();
    }
    (0..n)
        .map(|i| series[i * (series.len() - 1) / (n - 1)])
        .collect()
}

/// Geometric-ish summary of how scheme `x` compares to baseline `b`
/// (negative = x is lower/better for latency metrics).
pub fn pct_change(x: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        (x - b) / b * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_series_downsamples() {
        let s: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64)).collect();
        let d = sample_series(&s, 5);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0].0, 0.0);
        assert_eq!(d[4].0, 99.0);
        let short = sample_series(&s[..3], 5);
        assert_eq!(short.len(), 3);
    }

    #[test]
    fn pct_change_signs() {
        assert!((pct_change(80.0, 100.0) + 20.0).abs() < 1e-9);
        assert!((pct_change(120.0, 100.0) - 20.0).abs() < 1e-9);
        assert_eq!(pct_change(1.0, 0.0), 0.0);
    }

    #[test]
    fn granularity_set_matches_fig3() {
        let g = granularity_schemes();
        assert_eq!(g.len(), 3);
        assert_eq!(g[0].0, "flow");
        assert_eq!(g[2].1.name(), "RPS");
    }
}
