//! k=16 fat-tree smoke coverage (PR 8).
//!
//! The k=8 fabric is exercised by the failure-injection matrix; this
//! suite scales the same machinery to the 1024-host, 320-switch k=16
//! pod fabric and checks the things that tend to break first at scale:
//! every flow completes, the conservation audit closes its books, and
//! reruns are bit-identical (digest stability). A hybrid-fidelity leg
//! rides along so the fluid tier's multi-hop fat-tree routing (edge →
//! agg → core → agg → edge) gets coverage on the deepest path shape.

use tlb::engine::FelKind;
use tlb::prelude::*;

fn k16_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.topo = FatTreeBuilder::new(16)
        .link_gbps(1.0)
        .target_rtt(SimTime::from_micros(100))
        .build();
    cfg.audit = true;
    cfg
}

fn k16_run(scheme: Scheme, fidelity: FidelityKind, seed: u64) -> RunReport {
    let mut cfg = k16_cfg(scheme);
    cfg.fidelity = fidelity;
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 80;
    mix.n_long = 4;
    mix.long_lo = 1_000_000;
    mix.long_hi = 2_000_000;
    let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(seed));
    Simulation::new(cfg, flows).run()
}

#[test]
fn k16_smoke_completes_with_clean_audit() {
    let r = k16_run(Scheme::tlb_default(), FidelityKind::Packet, 16);
    assert_eq!(r.completed, r.total_flows, "k=16 run stranded flows");
    let audit = r.audit.as_ref().expect("conservation audit did not run");
    let in_flight: u64 = audit.kinds.iter().map(|k| k.in_flight_at_end()).sum();
    assert_eq!(
        audit.total_emitted(),
        audit.total_delivered() + audit.total_dropped() + in_flight,
        "k=16: conservation must close the books"
    );
    assert_eq!(audit.monotonicity_violations, 0);
}

#[test]
fn k16_digests_are_stable_across_reruns_and_backends() {
    let base = k16_run(Scheme::tlb_default(), FidelityKind::Packet, 16);
    let rerun = k16_run(Scheme::tlb_default(), FidelityKind::Packet, 16);
    assert_eq!(base.digest(), rerun.digest(), "k=16 rerun diverged");

    // The differential backends must agree at this scale too.
    for fel in [FelKind::Calendar, FelKind::Heap] {
        let mut cfg = k16_cfg(Scheme::tlb_default());
        cfg.fel = fel;
        let mut mix = BasicMixConfig::paper_default();
        mix.n_short = 80;
        mix.n_long = 4;
        mix.long_lo = 1_000_000;
        mix.long_hi = 2_000_000;
        let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(16));
        let r = Simulation::new(cfg, flows).run();
        assert_eq!(r.digest(), base.digest(), "{fel:?} diverged on k=16");
    }
}

#[test]
fn k16_hybrid_smoke_migrates_and_completes() {
    let r = k16_run(Scheme::tlb_default(), FidelityKind::Hybrid, 16);
    assert_eq!(r.completed, r.total_flows, "k=16 hybrid run stranded flows");
    assert!(
        r.fluid_migrations > 0,
        "no flow migrated to the fluid tier on the k=16 fabric"
    );
    assert!(r.audit.is_some(), "conservation audit did not run");
    // Determinism holds for the hybrid tier on the deep path shape too.
    let rerun = k16_run(Scheme::tlb_default(), FidelityKind::Hybrid, 16);
    assert_eq!(r.digest(), rerun.digest(), "k=16 hybrid rerun diverged");
    assert_eq!(r.fluid_bytes, rerun.fluid_bytes);
}
