//! Shared experiment builders used by the per-figure binaries.

use crate::scale::{base_seed, Scale};
use crate::Out;
use std::fmt::Write as _;
use tlb_core::TlbConfig;
use tlb_engine::{SimRng, SimTime};
use tlb_metrics::SampleSet;
use tlb_net::{FlowId, HostId, Packet, PktKind};
use tlb_simnet::{RunReport, Scheme, SimConfig, Simulation};
use tlb_switch::{LoadBalancer, OutPort, PortView};
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
        ("flowlet", Scheme::LetFlow),
        ("packet", Scheme::Rps),
    ]
}

/// Hosts per leaf of the §6.2 fabric. The paper's 4:1 oversubscription at
/// both scales (it is what makes the uplinks contend); quick mode shortens
/// the trace instead.
const LARGE_SCALE_HOSTS_PER_LEAF: usize = 32;

/// One large-scale (§6.2) job: `scheme` on the 8×8 fabric under Poisson
/// arrivals from `dist` at `load`, drawn from `seed ^ load`, so every
/// scheme at one (load, seed) sees identical traffic.
pub fn large_scale_job(
    scheme: Scheme,
    dist: &impl SizeDist,
    load: f64,
    seed: u64,
) -> (SimConfig, Vec<FlowSpec>) {
    let cfg = SimConfig::large_scale(scheme, LARGE_SCALE_HOSTS_PER_LEAF);
    let wl = PoissonWorkload {
        load,
        dist,
        duration: Scale::from_env().pick(SimTime::from_millis(25), SimTime::from_millis(150)),
        deadline_lo: SimTime::from_millis(5),
        deadline_hi: SimTime::from_millis(25),
        short_threshold: 100_000,
        inter_leaf_only: true,
    };
    let flows = wl.generate(&cfg.topo, &mut SimRng::new(seed ^ load.to_bits()));
    (cfg, flows)
}

/// The load axis of Fig. 10–12.
fn load_sweep(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![0.2, 0.4, 0.6, 0.8],
        Scale::Full => vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
    }
}

/// The §7 testbed scenario: 10 paths at 20 Mbit/s, long flows > 5 MB,
/// deadlines U[2 s, 6 s], shorts bursting over a couple of seconds. TLB
/// runs with §7's settings ([`TlbConfig::testbed_default`]: the testbed's
/// ≈ 8 ms RTT and these deadlines) whatever settings `scheme` carries —
/// the NS2 set of [`Scheme::tlb_default`] assumes a 100 µs RTT and a
/// 10 ms deadline.
pub fn testbed_scenario(scheme: Scheme, n_short: usize, n_long: usize, seed: u64) -> RunReport {
    let scheme = match scheme {
        Scheme::Tlb(_) => Scheme::Tlb(TlbConfig::testbed_default()),
        other => other,
    };
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

/// Shared by Fig. 13/14: the testbed scenario at each x-value, with
/// `params(x)` = `(n_short, n_long)`, in [`normalized_panels`].
pub fn testbed_normalized_panels(
    out: &mut Out,
    xs: &[usize],
    params: impl Fn(usize) -> (usize, usize) + Sync,
    seed: u64,
) {
    let xs: Vec<(String, usize)> = xs.iter().map(|&x| (x.to_string(), x)).collect();
    normalized_panels(out, "x", 6, &xs, |s, &x| {
        let (n_short, n_long) = params(x);
        // Testbed runs are cheap; average 3 seeds to keep the normalized
        // panels from jumping with one unlucky hash placement.
        (0..3)
            .map(|i| testbed_scenario(s.clone(), n_short, n_long, seed + i))
            .collect()
    });
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

/// The four per-load metrics of Fig. 10–12, in panel order: short-flow
/// AFCT (ms), 99th-pct FCT (ms), deadline miss (%) and long-flow
/// throughput (Mbit/s). Each figure titles them its own way.
const LOAD_METRICS: [fn(&RunReport) -> f64; 4] = [
    |r| r.fct_short.afct * 1e3,
    |r| r.fct_short.p99 * 1e3,
    |r| r.fct_short.deadline_miss * 100.0,
    |r| r.long_throughput() * 8.0 / 1e6,
];

/// The load sweep of Fig. 10–12: run every (load, scheme) cell on `dist`
/// as one parallel batch and print the four `LOAD_METRICS` panels under
/// `titles`, one column per entry of `names`. Returns the loads and the
/// reports, row-major by load.
pub fn load_sweep_panels(
    out: &mut Out,
    titles: [&str; 4],
    schemes: &[Scheme],
    names: &[&str],
    dist: &impl SizeDist,
) -> (Vec<f64>, Vec<RunReport>) {
    let loads = load_sweep(Scale::from_env());
    let mut jobs = Vec::new();
    for &load in &loads {
        jobs.extend(
            schemes
                .iter()
                .map(|s| large_scale_job(s.clone(), dist, load, base_seed())),
        );
    }
    let reports = tlb_simnet::run_all(jobs);
    let labels: Vec<String> = loads.iter().map(|l| format!("{l:.1}")).collect();
    for (title, metric) in titles.iter().zip(LOAD_METRICS) {
        panel(out, title, "load", 6, &labels, names, |li, si| {
            metric(&reports[li * schemes.len() + si])
        });
    }
    (loads, reports)
}

/// The shared driver of Fig. 10/11: sweep the paper's five schemes over the
/// load axis on one flow-size distribution and print the four panels
/// (AFCT, p99 FCT, deadline miss %, long-flow throughput).
pub fn large_scale_figure(id: &str, title: &str, dist: &impl SizeDist) {
    let schemes = Scheme::paper_set();
    let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
    let mut out = Out::new(id);
    out.line(title);
    let fabric = SimConfig::large_scale(Scheme::Ecmp, LARGE_SCALE_HOSTS_PER_LEAF);
    out.line(&format!(
        "  topology: 8 ToR x 8 core, {} hosts, 1 Gbit/s, DCTCP",
        fabric.topo.n_hosts()
    ));
    out.blank();

    let titles = [
        "(a) short-flow AFCT (ms)",
        "(b) short-flow 99th-pct FCT (ms)",
        "(c) short-flow deadline miss (%)",
        "(d) long-flow throughput (Mbit/s)",
    ];
    let (loads, reports) = load_sweep_panels(&mut out, titles, &schemes, &names, dist);
    let cell = |li: usize, si: usize| &reports[li * schemes.len() + si];

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

/// The two TLB-normalized panels shared by Fig. 13/14 and 16/17: at each
/// labelled x-value, `run` the paper's five schemes in parallel and print
/// short-flow AFCT (panel a) and long-flow throughput (panel b), each the
/// mean over the reports `run` returns, under an `xlabel` column `width`
/// wide.
pub fn normalized_panels<X: Sync>(
    out: &mut Out,
    xlabel: &str,
    width: usize,
    xs: &[(String, X)],
    run: impl Fn(&Scheme, &X) -> Vec<RunReport> + Sync,
) {
    use rayon::prelude::*;
    let schemes = Scheme::paper_set();
    let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
    let labels: Vec<String> = xs.iter().map(|(l, _)| l.clone()).collect();
    let cells: Vec<Vec<(f64, f64)>> = xs
        .iter()
        .map(|(_, x)| {
            schemes
                .par_iter()
                .map(|s| {
                    let runs = run(s, x);
                    let n = runs.len() as f64;
                    (
                        runs.iter().map(|r| r.fct_short.afct).sum::<f64>() / n,
                        runs.iter().map(|r| r.long_throughput()).sum::<f64>() / n,
                    )
                })
                .collect()
        })
        .collect();
    let tlb = names.iter().position(|n| *n == "TLB").expect("TLB column");
    panel(
        out,
        "(a) AFCT of short flows, normalized to TLB (>1 = slower than TLB)",
        xlabel,
        width,
        &labels,
        &names,
        |i, si| cells[i][si].0 / cells[i][tlb].0,
    );
    panel(
        out,
        "(b) long-flow throughput, normalized to TLB (<1 = less than TLB)",
        xlabel,
        width,
        &labels,
        &names,
        |i, si| cells[i][si].1 / cells[i][tlb].1,
    );
}

/// Print one (x × scheme) panel: `title`, a header of `xlabel` and the
/// scheme `names`, one row per label holding `cell(row, scheme)` in
/// 10-wide two-decimal columns, then a blank line. The label column is
/// `width` wide.
fn panel(
    out: &mut Out,
    title: &str,
    xlabel: &str,
    width: usize,
    labels: &[String],
    names: &[&str],
    cell: impl Fn(usize, usize) -> f64,
) {
    out.line(title);
    let mut header = format!("{xlabel:<width$}");
    for n in names {
        let _ = write!(header, " {n:>10}");
    }
    out.line(&header);
    for (i, label) in labels.iter().enumerate() {
        let mut row = format!("{label:<width$}");
        for si in 0..names.len() {
            let _ = write!(row, " {:>10.2}", cell(i, si));
        }
        out.line(&row);
    }
    out.blank();
}

/// Timed passes per scheme in [`measure_decision_ns`]: enough for a
/// median and a range that shows how far the host moves one reading.
pub const DECISION_PASSES: usize = 7;

/// The Fig. 15(a) decision-cost fixture: nanoseconds per
/// `choose_uplink` call of `scheme`, driven by a packet stream resembling
/// the basic workload against a loaded 15-uplink view: one sample per
/// timed pass of the stream, [`DECISION_PASSES`] of them. Wall-clock, so
/// a reading moves run to run on a shared host; their range says how far.
pub fn measure_decision_ns(scheme: &Scheme) -> SampleSet {
    const WARMUP: usize = 10_000;
    // A 15-uplink view with mixed queue lengths.
    let lens: Vec<usize> = (0..15).map(|i| i * 3 % 17).collect();
    let ports = OutPort::filled(&lens);
    let mut rng = SimRng::new(7);
    let stream = make_stream(200_000, &mut rng);
    let mut lb = scheme.build_static(1);
    let mut now = SimTime::ZERO;
    // Warm up the flow tables.
    for pkt in &stream[..WARMUP] {
        now += SimTime::from_nanos(500);
        std::hint::black_box(lb.choose_uplink(pkt, PortView::new(&ports), now, &mut rng));
    }
    let mut passes = SampleSet::with_capacity(DECISION_PASSES);
    for _ in 0..DECISION_PASSES {
        let t0 = std::time::Instant::now();
        for pkt in &stream[WARMUP..] {
            now += SimTime::from_nanos(500);
            std::hint::black_box(lb.choose_uplink(pkt, PortView::new(&ports), now, &mut rng));
        }
        passes.push(t0.elapsed().as_nanos() as f64 / (stream.len() - WARMUP) as f64);
    }
    passes
}

/// A packet stream resembling the basic workload: 100 flows, mostly data,
/// occasional SYN/FIN.
fn make_stream(n: usize, rng: &mut SimRng) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let flow = FlowId(rng.gen_range(100) as u32);
            match i % 97 {
                0 => Packet::control(flow, HostId(0), HostId(20), PktKind::Syn, 0, SimTime::ZERO),
                1 => Packet::control(flow, HostId(0), HostId(20), PktKind::Fin, 0, SimTime::ZERO),
                _ => Packet::data(
                    flow,
                    HostId(0),
                    HostId(20),
                    i as u32,
                    1460,
                    40,
                    SimTime::ZERO,
                ),
            }
        })
        .collect()
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

    /// The lines `panel` prints after the title, for two rows of two schemes.
    fn panel_lines(xlabel: &str, width: usize, labels: [&str; 2], cells: [[f64; 2]; 2]) -> String {
        let mut out = Out::new("panel-selftest");
        let labels = labels.map(String::from);
        panel(
            &mut out,
            "title",
            xlabel,
            width,
            &labels,
            &["ECMP", "RPS"],
            |i, si| cells[i][si],
        );
        out.buf
            .split_once("title\n")
            .expect("title line")
            .1
            .to_string()
    }

    #[test]
    fn panel_writer_reproduces_the_load_and_normalized_tables() {
        // results/fig10.txt panel (a), first two schemes and loads.
        assert_eq!(
            panel_lines("load", 6, ["0.2", "0.4"], [[0.87, 0.79], [1.64, 0.95]]),
            "load         ECMP        RPS\n\
             0.2          0.87       0.79\n\
             0.4          1.64       0.95\n\n"
        );
        // results/fig16.txt panel (a), first two schemes and delays.
        assert_eq!(
            panel_lines(
                "extra delay",
                16,
                ["0us", "100us"],
                [[1.23, 1.04], [1.24, 1.07]]
            ),
            "extra delay            ECMP        RPS\n\
             0us                    1.23       1.04\n\
             100us                  1.24       1.07\n\n"
        );
    }

    #[test]
    fn decision_fixture_times_every_extended_scheme() {
        for scheme in Scheme::extended_set() {
            let ns = measure_decision_ns(&scheme);
            assert_eq!(ns.len(), DECISION_PASSES, "{}", scheme.name());
            assert!(
                ns.min() > 0.0 && ns.max().is_finite(),
                "{}: {ns:?} ns",
                scheme.name()
            );
        }
    }

    #[test]
    fn testbed_tlb_runs_the_testbed_settings() {
        // Fig. 13/14 hand the testbed the registry's TLB, whose NS2 set
        // (100 µs RTT, 10 ms deadline) would misjudge a fabric whose RTT is
        // ≈ 8 ms; the scenario runs §7's set instead. The two sets give
        // this job different digests.
        let run = |tlb| testbed_scenario(Scheme::Tlb(tlb), 20, 2, 1).digest();
        assert_eq!(
            run(TlbConfig::paper_default()),
            run(TlbConfig::testbed_default())
        );
    }

    #[test]
    fn granularity_set_matches_fig3() {
        let g = granularity_schemes();
        assert_eq!(g.len(), 3);
        assert_eq!(g[0].0, "flow");
        assert_eq!(g[2].1.name(), "RPS");
    }
}
