//! The §6.1 basic mix: a handful of long flows plus a wave of short ones
//! between two racks.

use crate::sizes::{SizeDist, UniformBytes};
use crate::spec::FlowSpec;
use tlb_engine::{SimRng, SimTime};
use tlb_net::{Fabric, FlowId, HostId};

/// Configuration of the basic §6.1/§4.2 mix.
#[derive(Clone, Copy, Debug)]
pub struct BasicMixConfig {
    /// Number of short flows (paper: 100).
    pub n_short: usize,
    /// Number of long flows (paper: 3 in §4.2, 5 in §2.2, 4 in §7).
    pub n_long: usize,
    /// Short-flow sizes, uniform in `[short_lo, short_hi]` (paper: "random
    /// size of less than 100 KB", mean 70 KB -> [40 KB, 100 KB]).
    pub short_lo: u64,
    /// Upper bound of short sizes (exclusive of the long threshold).
    pub short_hi: u64,
    /// Long-flow sizes, uniform in `[long_lo, long_hi]` (paper: > 10 MB).
    pub long_lo: u64,
    /// Upper bound of long sizes.
    pub long_hi: u64,
    /// Short flows arrive Poisson over `[0, short_window]`.
    pub short_window: SimTime,
    /// Deadline range for short flows (paper: [5 ms, 25 ms]).
    pub deadline_lo: SimTime,
    /// Upper deadline bound.
    pub deadline_hi: SimTime,
}

impl BasicMixConfig {
    /// The §4.2/§6.1 defaults.
    pub fn paper_default() -> BasicMixConfig {
        BasicMixConfig {
            n_short: 100,
            n_long: 3,
            short_lo: 40_000,
            short_hi: 100_000,
            long_lo: 10_000_000,
            long_hi: 20_000_000,
            // The paper's model verification assumes ~100 *concurrently
            // active* short flows (m_S = 100), so the arrivals are bursty:
            // all short flows arrive within a few milliseconds and overlap.
            short_window: SimTime::from_millis(2),
            deadline_lo: SimTime::from_millis(5),
            deadline_hi: SimTime::from_millis(25),
        }
    }
}

/// Generate the basic mix on a leaf-spine fabric: all senders sit on leaf 0
/// (so its uplinks are the shared bottleneck the paper's Fig. 1 describes),
/// receivers are spread over the other leaves. Long flows start at t = 0,
/// short flows arrive Poisson across the window.
pub fn basic_mix(topo: &Fabric, cfg: &BasicMixConfig, rng: &mut SimRng) -> Vec<FlowSpec> {
    assert!(topo.n_leaves() >= 2, "basic mix needs at least 2 leaves");
    let senders: Vec<HostId> = topo.hosts_of(tlb_net::LeafId(0)).collect();
    let receivers: Vec<HostId> = (1..topo.n_leaves())
        .flat_map(|l| topo.hosts_of(tlb_net::LeafId(l as u32)))
        .collect();

    let short_dist = UniformBytes {
        lo: cfg.short_lo,
        hi: cfg.short_hi,
    };
    let long_dist = UniformBytes {
        lo: cfg.long_lo,
        hi: cfg.long_hi,
    };

    let mut specs = Vec::with_capacity(cfg.n_short + cfg.n_long);
    // Long flows first, all starting at t=0 (they are "continuously sending"
    // in the paper's setup).
    for i in 0..cfg.n_long {
        specs.push(FlowSpec {
            id: FlowId(0), // assigned after sorting
            src: senders[i % senders.len()],
            dst: receivers[i % receivers.len()],
            size_bytes: long_dist.sample(rng),
            start: SimTime::ZERO,
            deadline: None,
        });
    }
    // Short flows: Poisson arrivals across the window.
    let mean_gap = cfg.short_window.as_secs_f64() / cfg.n_short.max(1) as f64;
    let mut t = 0.0;
    for i in 0..cfg.n_short {
        t += rng.exp(mean_gap);
        let deadline_ns = rng
            .gen_range(cfg.deadline_hi.as_nanos() - cfg.deadline_lo.as_nanos() + 1)
            + cfg.deadline_lo.as_nanos();
        specs.push(FlowSpec {
            id: FlowId(0),
            src: senders[(cfg.n_long + i) % senders.len()],
            dst: receivers[rng.index(receivers.len())],
            size_bytes: short_dist.sample(rng),
            start: SimTime::from_secs_f64(t),
            deadline: Some(SimTime::from_nanos(deadline_ns)),
        });
    }
    finalize(specs)
}

/// The sustained (closed-loop) variant of the basic mix: each of
/// `cfg.n_short` clients runs `rounds` short flows back-to-back (the next
/// request starts when the previous one completes), holding the number of
/// *active* short flows at ≈ `n_short` for the whole run — the paper's
/// "m_S active short flows" premise behind the Fig. 7 model verification
/// and the Fig. 8/9 time series.
///
/// Returns `(flows, next)` for [`Simulation::new_chained`]: `next[i]` is
/// the flow launched when `i` completes.
///
/// [`Simulation::new_chained`]: https://docs.rs/tlb-simnet
pub fn sustained_mix(
    topo: &Fabric,
    cfg: &BasicMixConfig,
    rounds: usize,
    rng: &mut SimRng,
) -> (Vec<FlowSpec>, Vec<Option<u32>>) {
    assert!(rounds >= 1);
    assert!(topo.n_leaves() >= 2, "mix needs at least 2 leaves");
    let senders: Vec<HostId> = topo.hosts_of(tlb_net::LeafId(0)).collect();
    let receivers: Vec<HostId> = (1..topo.n_leaves())
        .flat_map(|l| topo.hosts_of(tlb_net::LeafId(l as u32)))
        .collect();
    let short_dist = UniformBytes {
        lo: cfg.short_lo,
        hi: cfg.short_hi,
    };
    let long_dist = UniformBytes {
        lo: cfg.long_lo,
        hi: cfg.long_hi,
    };

    let mut flows = Vec::with_capacity(cfg.n_long + cfg.n_short * rounds);
    let mut next: Vec<Option<u32>> = Vec::with_capacity(cfg.n_long + cfg.n_short * rounds);
    for i in 0..cfg.n_long {
        flows.push(FlowSpec {
            id: FlowId(flows.len() as u32),
            src: senders[i % senders.len()],
            dst: receivers[i % receivers.len()],
            size_bytes: long_dist.sample(rng),
            start: SimTime::ZERO,
            deadline: None,
        });
        next.push(None);
    }
    for c in 0..cfg.n_short {
        let src = senders[(cfg.n_long + c) % senders.len()];
        // Clients ramp up over the arrival window, then stay busy.
        let head_start = SimTime::from_nanos(rng.gen_range(cfg.short_window.as_nanos().max(1)));
        for k in 0..rounds {
            let id = flows.len() as u32;
            let deadline_ns = rng
                .gen_range(cfg.deadline_hi.as_nanos() - cfg.deadline_lo.as_nanos() + 1)
                + cfg.deadline_lo.as_nanos();
            flows.push(FlowSpec {
                id: FlowId(id),
                src,
                dst: receivers[rng.index(receivers.len())],
                size_bytes: short_dist.sample(rng),
                // Only the chain head's start is honoured by the simulator.
                start: head_start,
                deadline: Some(SimTime::from_nanos(deadline_ns)),
            });
            next.push(None);
            if k > 0 {
                next[(id - 1) as usize] = Some(id);
            }
        }
    }
    (flows, next)
}

/// Sort by start time and assign dense ids.
pub(crate) fn finalize(mut specs: Vec<FlowSpec>) -> Vec<FlowSpec> {
    specs.sort_by_key(|s| s.start);
    for (i, s) in specs.iter_mut().enumerate() {
        s.id = FlowId(i as u32);
    }
    debug_assert!(crate::spec::validate_specs(&specs).is_ok());
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::validate_specs;
    use tlb_net::LeafSpineBuilder;

    fn topo() -> Fabric {
        LeafSpineBuilder::new(3, 15, 16).build()
    }

    #[test]
    fn generates_requested_counts() {
        let mut rng = SimRng::new(1);
        let specs = basic_mix(&topo(), &BasicMixConfig::paper_default(), &mut rng);
        assert_eq!(specs.len(), 103);
        validate_specs(&specs).unwrap();
        let short = specs.iter().filter(|s| s.is_short(100_001)).count();
        assert_eq!(short, 100);
    }

    #[test]
    fn senders_on_leaf0_receivers_elsewhere() {
        let mut rng = SimRng::new(2);
        let t = topo();
        let specs = basic_mix(&t, &BasicMixConfig::paper_default(), &mut rng);
        for s in &specs {
            assert_eq!(t.leaf_of(s.src).index(), 0, "sender off leaf 0");
            assert_ne!(t.leaf_of(s.dst).index(), 0, "receiver on leaf 0");
        }
    }

    #[test]
    fn long_flows_start_at_zero_with_no_deadline() {
        let mut rng = SimRng::new(3);
        let specs = basic_mix(&topo(), &BasicMixConfig::paper_default(), &mut rng);
        let longs: Vec<_> = specs.iter().filter(|s| !s.is_short(100_001)).collect();
        assert_eq!(longs.len(), 3);
        for l in longs {
            assert_eq!(l.start, SimTime::ZERO);
            assert!(l.deadline.is_none());
            assert!(l.size_bytes >= 10_000_000);
        }
    }

    #[test]
    fn short_deadlines_in_range() {
        let mut rng = SimRng::new(4);
        let cfg = BasicMixConfig::paper_default();
        let specs = basic_mix(&topo(), &cfg, &mut rng);
        for s in specs.iter().filter(|s| s.is_short(100_001)) {
            let d = s.deadline.expect("short flows carry deadlines");
            assert!(d >= cfg.deadline_lo && d <= cfg.deadline_hi);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let t = topo();
        let cfg = BasicMixConfig::paper_default();
        let a = basic_mix(&t, &cfg, &mut SimRng::new(9));
        let b = basic_mix(&t, &cfg, &mut SimRng::new(9));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.size_bytes, y.size_bytes);
            assert_eq!(x.start, y.start);
            assert_eq!(x.src, y.src);
            assert_eq!(x.dst, y.dst);
        }
    }
}
