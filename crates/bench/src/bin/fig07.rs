//! Fig. 7 — model verification: the Eq. 9 numeric `q_th` against the
//! simulated minimum switching threshold, varying (a) the number of short
//! flows, (b) the number of long flows, (c) the number of paths, and
//! (d) the deadline.
//!
//! Simulation side: the paper reports the minimum fixed threshold with no
//! deadline misses. In our substrate the long flows are congestion
//! controlled end to end (the model's Eq. 1 instead assumes open-loop
//! senders at W_L/RTT ≈ 5 Gbit/s each, ~5x their access-link rate), which
//! makes *any* threshold deadline-safe until the fabric saturates — so we
//! verify the model's operating point instead: running with
//! `q_th = model(m_S, m_L, n, D)` must (i) miss no deadlines and (ii) keep
//! the short AFCT within the budget D, across all four axes. The run uses
//! drop-tail queues with the §4.2 buffer of 512 packets, preserving the
//! model's deep-queue premise.

use rayon::prelude::*;
use tlb_bench::{Out, Scale};
use tlb_core::{ThresholdMode, TlbConfig};
use tlb_engine::{SimRng, SimTime};
use tlb_model::{q_th_min, ModelParams, QTh};
use tlb_net::LeafSpineBuilder;
use tlb_simnet::{Scheme, SimConfig, Simulation};
use tlb_workload::{sustained_mix, BasicMixConfig};

/// One verification point.
#[derive(Clone, Copy)]
struct Point {
    n_short: usize,
    n_long: usize,
    n_paths: usize,
    deadline: SimTime,
}

impl Point {
    fn paper_default() -> Point {
        Point {
            n_short: 100,
            n_long: 3,
            n_paths: 15,
            deadline: SimTime::from_millis(10),
        }
    }

    fn model_params(&self) -> ModelParams {
        ModelParams {
            n_paths: self.n_paths as f64,
            m_short: self.n_short as f64,
            m_long: self.n_long as f64,
            deadline: self.deadline.as_secs_f64(),
            ..ModelParams::paper_defaults()
        }
    }
}

/// Run the §4.2 scenario with a fixed threshold; returns (miss fraction,
/// short AFCT seconds).
fn run_at(p: Point, q_th_bytes: u64, seed: u64) -> (f64, f64) {
    let mut tlb = TlbConfig::paper_default();
    tlb.threshold_mode = ThresholdMode::Fixed(q_th_bytes);
    let mut cfg = SimConfig::basic_paper(Scheme::Tlb(tlb));
    cfg.topo = LeafSpineBuilder::new(3, p.n_paths, 16)
        .link_gbps(1.0)
        .target_rtt(SimTime::from_micros(100))
        .build();
    cfg.queue.capacity_pkts = 512; // §4.2 buffer
    cfg.queue.ecn_threshold_pkts = None;
    cfg.host_queue.ecn_threshold_pkts = None;
    cfg.seed = seed;

    // Sustained closed-loop shorts: m_S stays at p.n_short throughout,
    // matching the model's "m_S active short flows" premise. Every short
    // flow carries the same deadline D.
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = p.n_short;
    mix.n_long = p.n_long;
    mix.deadline_lo = p.deadline;
    mix.deadline_hi = p.deadline;
    let rounds = 8;
    let (flows, next) = sustained_mix(&cfg.topo, &mix, rounds, &mut SimRng::new(seed));
    let r = Simulation::new_chained(cfg, flows, next).run();
    (r.fct_short.deadline_miss, r.fct_short.afct)
}

fn model_qth_bytes(p: Point) -> u64 {
    match q_th_min(&p.model_params()) {
        QTh::Finite(b) => b as u64,
        QTh::Infinite => u64::MAX,
    }
}

fn run_panel(out: &mut Out, title: &str, xs: &[(String, Point)], seeds: &[u64]) {
    out.line(title);
    out.line(&format!(
        "{:<12} {:>13} {:>10} {:>12} {:>8}",
        "x", "model(pkts)", "miss(%)", "AFCT(ms)", "D(ms)"
    ));
    // All (point, seed) cells in parallel.
    let cells: Vec<(f64, f64)> = xs
        .par_iter()
        .map(|(_, p)| {
            let q = model_qth_bytes(*p);
            let runs: Vec<(f64, f64)> = seeds.iter().map(|&s| run_at(*p, q, s)).collect();
            let misses: Vec<f64> = runs.iter().map(|r| r.0).collect();
            let miss = tlb_metrics::max(&misses);
            let afct = runs.iter().map(|r| r.1).sum::<f64>() / runs.len() as f64;
            (miss, afct)
        })
        .collect();
    for ((label, p), (miss, afct)) in xs.iter().zip(cells) {
        let model = match q_th_min(&p.model_params()) {
            QTh::Finite(b) => format!("{:.1}", b / 1500.0),
            QTh::Infinite => "inf".into(),
        };
        out.line(&format!(
            "{:<12} {:>13} {:>10.1} {:>12.2} {:>8.0}",
            label,
            model,
            miss * 100.0,
            afct * 1e3,
            p.deadline.as_millis_f64()
        ));
    }
    out.blank();
}

fn main() {
    let scale = Scale::from_env();
    let seeds: Vec<u64> = (0..scale.pick(1, 2))
        .map(|i| tlb_bench::scale::base_seed() + i)
        .collect();
    let mut out = Out::new("fig07");
    out.line("Fig. 7 — Eq. 9 threshold trends + operating-point verification");
    out.line("  base point: 100 short + 3 long flows, 15 paths, D = 10 ms");
    out.blank();

    let base = Point::paper_default();

    let panel_a: Vec<_> = scale
        .pick(
            vec![40usize, 80, 120, 160],
            vec![40, 60, 80, 100, 120, 160, 200],
        )
        .into_iter()
        .map(|m| (format!("m_S={m}"), Point { n_short: m, ..base }))
        .collect();
    run_panel(
        &mut out,
        "(a) varying the number of short flows",
        &panel_a,
        &seeds,
    );

    let panel_b: Vec<_> = scale
        .pick(vec![1usize, 3, 5, 7], vec![1, 2, 3, 4, 5, 6, 7, 8])
        .into_iter()
        .map(|m| (format!("m_L={m}"), Point { n_long: m, ..base }))
        .collect();
    run_panel(
        &mut out,
        "(b) varying the number of long flows",
        &panel_b,
        &seeds,
    );

    let panel_c: Vec<_> = scale
        .pick(vec![9usize, 12, 15, 18], vec![9, 11, 13, 15, 17, 19, 21])
        .into_iter()
        .map(|n| (format!("n={n}"), Point { n_paths: n, ..base }))
        .collect();
    run_panel(
        &mut out,
        "(c) varying the number of paths",
        &panel_c,
        &seeds,
    );

    let panel_d: Vec<_> = scale
        .pick(vec![5u64, 10, 15, 25], vec![5, 8, 10, 13, 15, 20, 25])
        .into_iter()
        .map(|ms| {
            (
                format!("D={ms}ms"),
                Point {
                    deadline: SimTime::from_millis(ms),
                    ..base
                },
            )
        })
        .collect();
    run_panel(&mut out, "(d) varying the deadline", &panel_d, &seeds);

    out.line("expected shape: the model threshold q_th grows with m_S and");
    out.line("m_L and shrinks with n and D (the paper's Fig. 7 trends), and");
    out.line("running the switch AT the model threshold meets the deadline");
    out.line("budget (miss ~0, AFCT < D) except where aggregate load exceeds");
    out.line("capacity (largest m_S / tightest D).");
    out.save();
}
