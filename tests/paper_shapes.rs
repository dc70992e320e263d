//! The paper's shapes as multi-seed claims. Each test states one result
//! of the `ablation` regime sweep (`results/ablation.txt`) that must hold
//! at every seed of the sweep, not only in its median.

use tlb::prelude::*;
use tlb_bench::asymmetric_scenario;

/// The sweep's quick-scale seeds: the default base seed and the next two.
const SEEDS: [u64; 3] = [20190805, 20190806, 20190807];

/// Fig. 16's fabric at +200 µs on 2 of 15 uplinks: a fixed `q_th = 0`
/// sprays long flows over the slow paths and collapses their throughput;
/// adaptive TLB keeps them sticky enough to avoid it.
#[test]
fn fixed_zero_threshold_collapses_on_the_delayed_fabric() {
    let adaptive = TlbConfig::paper_default();
    let fixed_zero = TlbConfig {
        threshold_mode: ThresholdMode::Fixed(0),
        ..adaptive
    };
    for seed in SEEDS {
        let long = |tlb| {
            asymmetric_scenario(Scheme::Tlb(tlb), 1.0, SimTime::from_micros(200), seed)
                .long_throughput()
        };
        let (zero, adaptive) = (long(fixed_zero), long(adaptive));
        assert!(
            zero < 0.5 * adaptive,
            "seed {seed}: fixed q_th = 0 carries {:.1} Mbit/s, adaptive TLB {:.1}",
            zero * 8e-6,
            adaptive * 8e-6
        );
    }
}

/// §6.3: the NS2 preset protects the 25th percentile of the deadlines the
/// basic workload draws, U[5 ms, 25 ms].
#[test]
fn paper_preset_protects_the_25th_percentile() {
    let mix = BasicMixConfig::paper_default();
    let quarter = (mix.deadline_hi.as_nanos() - mix.deadline_lo.as_nanos()) / 4;
    assert_eq!(
        TlbConfig::paper_default().deadline,
        mix.deadline_lo + SimTime::from_nanos(quarter)
    );
}
