//! Cross-crate integration tests: the full stack (workload → simulator →
//! transport → metrics) exercised through the public `tlb` facade.

use tlb::prelude::*;

fn small_mix(n_short: usize, n_long: usize) -> BasicMixConfig {
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = n_short;
    mix.n_long = n_long;
    mix.long_lo = 2_000_000;
    mix.long_hi = 4_000_000;
    mix
}

fn run(scheme: Scheme, mix: &BasicMixConfig, seed: u64) -> RunReport {
    let cfg = SimConfig::basic_paper(scheme);
    let flows = basic_mix(&cfg.topo, mix, &mut SimRng::new(seed));
    Simulation::new(cfg, flows).run()
}

#[test]
fn every_scheme_delivers_every_byte() {
    let mix = small_mix(40, 2);
    for scheme in Scheme::paper_set() {
        let name = scheme.name();
        let r = run(scheme, &mix, 11);
        assert_eq!(r.completed, r.total_flows, "{name}: unfinished flows");
        // Conservation: nothing is silently lost — receptions plus drops
        // account for every transmission (first + retransmissions).
        let sent = r.short.data_sent + r.long.data_sent + r.short.retransmits + r.long.retransmits;
        let received = r.short.data_received + r.long.data_received;
        assert!(
            received <= sent,
            "{name}: received {received} exceeds sent {sent}"
        );
        assert!(
            sent - received <= r.drops + 64,
            "{name}: {} segments vanished (sent {sent}, recv {received}, drops {})",
            sent - received - r.drops,
            r.drops
        );
    }
}

#[test]
fn tlb_beats_ecmp_on_the_paper_workload() {
    // The headline claim (§1): under a heavy mixed workload TLB cuts the
    // short-flow AFCT versus ECMP while not hurting long flows.
    let cfg = SimConfig::basic_paper(Scheme::tlb_default());
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 100;
    mix.n_long = 3;
    let (flows, next) = sustained_mix(&cfg.topo, &mix, 10, &mut SimRng::new(7));
    let tlb = Simulation::new_chained(cfg, flows, next).run();

    let cfg = SimConfig::basic_paper(Scheme::Ecmp);
    let (flows, next) = sustained_mix(&cfg.topo, &mix, 10, &mut SimRng::new(7));
    let ecmp = Simulation::new_chained(cfg, flows, next).run();

    assert!(
        tlb.fct_short.afct < ecmp.fct_short.afct,
        "TLB afct {} !< ECMP afct {}",
        tlb.fct_short.afct,
        ecmp.fct_short.afct
    );
    assert!(
        tlb.fct_short.p99 < ecmp.fct_short.p99 * 1.05,
        "TLB p99 {} must not exceed ECMP {}",
        tlb.fct_short.p99,
        ecmp.fct_short.p99
    );
    assert!(
        tlb.long_throughput() > 0.9 * ecmp.long_throughput(),
        "TLB long throughput collapsed: {} vs {}",
        tlb.long_throughput(),
        ecmp.long_throughput()
    );
}

#[test]
fn rps_reorders_more_than_letflow() {
    // Fig. 3(b)/8(a): packet granularity reorders far more than flowlets.
    let mix = small_mix(60, 3);
    let rps = run(Scheme::Rps, &mix, 3);
    let letflow = run(Scheme::LetFlow, &mix, 3);
    assert!(
        rps.short.reorder_ratio() > 3.0 * letflow.short.reorder_ratio(),
        "RPS {} !>> LetFlow {}",
        rps.short.reorder_ratio(),
        letflow.short.reorder_ratio()
    );
    assert!(rps.short.dup_acks > letflow.short.dup_acks);
}

#[test]
fn ecmp_never_reorders() {
    let mix = small_mix(60, 3);
    let r = run(Scheme::Ecmp, &mix, 5);
    assert_eq!(r.short.out_of_order, 0);
    assert_eq!(r.long.out_of_order, 0);
    assert_eq!(r.drops, 0, "symmetric light load should not drop");
    assert_eq!(
        r.short.dup_acks + r.long.dup_acks,
        0,
        "no drops, no dupacks"
    );
}

#[test]
fn asymmetry_hurts_oblivious_schemes_more() {
    // Fig. 16/17: under bandwidth asymmetry, spraying into the slow links
    // (RPS) costs long-flow throughput; TLB/LetFlow route around them.
    let degrade = |scheme| {
        let mut cfg = SimConfig::basic_paper(scheme);
        cfg.topo
            .degrade_link(LeafId(0), SpineId(0), 0.2, SimTime::ZERO);
        cfg.topo
            .degrade_link(LeafId(0), SpineId(1), 0.2, SimTime::ZERO);
        let mix = small_mix(60, 3);
        let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(13));
        Simulation::new(cfg, flows).run()
    };
    let rps = degrade(Scheme::Rps);
    let tlb = degrade(Scheme::tlb_default());
    let letflow = degrade(Scheme::LetFlow);
    assert!(
        tlb.long_throughput() > rps.long_throughput(),
        "TLB {} !> RPS {} under asymmetry",
        tlb.long_throughput(),
        rps.long_throughput()
    );
    assert!(letflow.long_throughput() > rps.long_throughput());
}

#[test]
fn deadline_misses_grow_with_tighter_deadlines() {
    let cfg = || SimConfig::basic_paper(Scheme::tlb_default());
    let mut tight = small_mix(80, 3);
    tight.deadline_lo = SimTime::from_micros(100);
    tight.deadline_hi = SimTime::from_micros(200);
    let mut loose = tight;
    loose.deadline_lo = SimTime::from_secs(1);
    loose.deadline_hi = SimTime::from_secs(2);

    let c = cfg();
    let flows = basic_mix(&c.topo, &tight, &mut SimRng::new(17));
    let r_tight = Simulation::new(c, flows).run();
    let c = cfg();
    let flows = basic_mix(&c.topo, &loose, &mut SimRng::new(17));
    let r_loose = Simulation::new(c, flows).run();

    assert!(
        r_tight.fct_short.deadline_miss > 0.9,
        "sub-ms deadlines must mostly miss"
    );
    assert_eq!(
        r_loose.fct_short.deadline_miss, 0.0,
        "2s deadlines must all be met"
    );
}

#[test]
fn chained_flows_run_sequentially() {
    // Three flows chained on one client: each starts only after the
    // previous completes, so FCT windows must not overlap.
    let cfg = SimConfig::basic_paper(Scheme::Ecmp);
    let mk = |id: u32| FlowSpec {
        id: FlowId(id),
        src: HostId(0),
        dst: HostId(16),
        size_bytes: 100_000,
        start: SimTime::ZERO,
        deadline: None,
    };
    let flows = vec![mk(0), mk(1), mk(2)];
    let next = vec![Some(1), Some(2), None];
    let r = Simulation::new_chained(cfg, flows, next).run();
    assert_eq!(r.completed, 3);
    let f0 = r.fct.fct_of(FlowId(0)).unwrap();
    let f1 = r.fct.fct_of(FlowId(1)).unwrap();
    let f2 = r.fct.fct_of(FlowId(2)).unwrap();
    // Sequential 100 kB transfers have similar FCTs — none is inflated by
    // waiting (its clock starts at launch, not at t=0).
    for (i, f) in [f0, f1, f2].iter().enumerate() {
        assert!(
            *f < 0.01,
            "flow {i} fct {f} implausible for sequential runs"
        );
    }
}

#[test]
fn model_predicts_simulated_ballpark() {
    // Eq. 8 at the simulated operating point must land within an order of
    // magnitude of the simulator's short-flow AFCT (the model ignores
    // slow-start round trips' serialization, so exact match is not
    // expected).
    let cfg = SimConfig::basic_paper(Scheme::tlb_default());
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 100;
    mix.n_long = 3;
    let (flows, nxt) = sustained_mix(&cfg.topo, &mix, 8, &mut SimRng::new(23));
    let r = Simulation::new_chained(cfg, flows, nxt).run();

    let params = ModelParams::paper_defaults();
    let n_s = params.n_paths - 2.0; // longs occupy a couple of paths
    let model_fct = tlb::model::mean_fct_short(&params, n_s).unwrap();
    let sim_fct = r.fct_short.afct;
    let ratio = sim_fct / model_fct;
    assert!(
        (0.1..10.0).contains(&ratio),
        "model {model_fct}s vs sim {sim_fct}s: ratio {ratio}"
    );
}

#[test]
fn facade_prelude_compiles_and_runs() {
    // The README quickstart, as a test.
    let cfg = SimConfig::basic_paper(Scheme::tlb_default());
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 10;
    mix.n_long = 1;
    mix.long_lo = 500_000;
    mix.long_hi = 500_000;
    let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(7));
    let report = Simulation::new(cfg, flows).run();
    assert_eq!(report.completed, report.total_flows);
    assert!(!report.one_line().is_empty());
}
