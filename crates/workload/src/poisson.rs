//! Large-scale Poisson traffic (§6.2): random host pairs, heavy-tailed
//! sizes, load expressed as a fraction of aggregate host access capacity.

use crate::sizes::SizeDist;
use crate::spec::FlowSpec;
use tlb_engine::{SimRng, SimTime};
use tlb_net::{Fabric, FlowId, HostId};

/// Poisson flow generator over a leaf-spine fabric.
///
/// The flow arrival rate is set so the *offered load* equals
/// `load × n_hosts × host_capacity` bytes/s:
/// `λ = load · C_host · n_hosts / E[size]` flows per second — the standard
/// convention of the CONGA/LetFlow evaluations the paper follows.
pub struct PoissonWorkload<'a, D: SizeDist> {
    /// Target fractional load (the paper sweeps 0.1–0.8).
    pub load: f64,
    /// Flow-size distribution (web-search / data-mining).
    pub dist: &'a D,
    /// Traffic is generated over `[0, duration]`.
    pub duration: SimTime,
    /// Deadline range for short flows.
    pub deadline_lo: SimTime,
    /// Upper deadline bound.
    pub deadline_hi: SimTime,
    /// Flows below this size receive deadlines (paper: 100 KB).
    pub short_threshold: u64,
    /// Restrict to inter-rack pairs (the multipath-relevant traffic).
    pub inter_leaf_only: bool,
}

impl<'a, D: SizeDist> PoissonWorkload<'a, D> {
    /// Flow arrival rate (flows/second) for this load on `topo`:
    /// `λ = load · C_host · n_hosts / E[size]`. Single source of truth for
    /// both [`Self::expected_flows`] and [`Self::generate`].
    fn arrival_rate(&self, topo: &Fabric) -> f64 {
        let c_host = topo.host_link().bytes_per_sec as f64;
        self.load * c_host * topo.n_hosts() as f64 / self.dist.mean()
    }

    /// The expected number of flows this configuration generates.
    pub fn expected_flows(&self, topo: &Fabric) -> f64 {
        self.arrival_rate(topo) * self.duration.as_secs_f64()
    }

    /// Generate the flow set.
    pub fn generate(&self, topo: &Fabric, rng: &mut SimRng) -> Vec<FlowSpec> {
        assert!(self.load > 0.0 && self.load <= 1.5, "unreasonable load");
        assert!(
            !self.inter_leaf_only || topo.n_leaves() >= 2,
            "inter-leaf traffic needs at least 2 leaves"
        );
        // Guard the deadline window up front: sampled as
        // `lo + U[0, hi-lo]` in nanoseconds, so an inverted window would
        // otherwise surface as a baffling u64 subtraction overflow below.
        assert!(
            self.deadline_hi >= self.deadline_lo,
            "PoissonWorkload: deadline_hi ({:?}) must be >= deadline_lo ({:?})",
            self.deadline_hi,
            self.deadline_lo
        );
        let rate = self.arrival_rate(topo);
        let mean_gap = 1.0 / rate;
        let horizon = self.duration.as_secs_f64();
        let n_hosts = topo.n_hosts();

        let mut specs = Vec::with_capacity((rate * horizon * 1.2) as usize + 16);
        let mut t = rng.exp(mean_gap);
        while t < horizon {
            let src = HostId(rng.index(n_hosts) as u32);
            let dst = loop {
                let d = HostId(rng.index(n_hosts) as u32);
                if d == src {
                    continue;
                }
                if self.inter_leaf_only && topo.leaf_of(d) == topo.leaf_of(src) {
                    continue;
                }
                break d;
            };
            let size = self.dist.sample(rng);
            let deadline = if size < self.short_threshold {
                let span = self.deadline_hi.as_nanos() - self.deadline_lo.as_nanos();
                Some(SimTime::from_nanos(
                    self.deadline_lo.as_nanos() + rng.gen_range(span + 1),
                ))
            } else {
                None
            };
            specs.push(FlowSpec {
                id: FlowId(0),
                src,
                dst,
                size_bytes: size,
                start: SimTime::from_secs_f64(t),
                deadline,
            });
            t += rng.exp(mean_gap);
        }
        crate::mix::finalize(specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::{web_search, FixedBytes};
    use crate::spec::validate_specs;
    use tlb_net::LeafSpineBuilder;

    fn topo() -> Fabric {
        LeafSpineBuilder::new(4, 4, 4).build()
    }

    fn workload(dist: &impl SizeDist, load: f64) -> PoissonWorkload<'_, impl SizeDist + '_> {
        PoissonWorkload {
            load,
            dist,
            duration: SimTime::from_millis(100),
            deadline_lo: SimTime::from_millis(5),
            deadline_hi: SimTime::from_millis(25),
            short_threshold: 100_000,
            inter_leaf_only: true,
        }
    }

    #[test]
    fn flow_count_tracks_load() {
        let d = FixedBytes(1_000_000);
        let mut rng = SimRng::new(1);
        let w = workload(&d, 0.4);
        let specs = w.generate(&topo(), &mut rng);
        validate_specs(&specs).unwrap();
        let expected = w.expected_flows(&topo());
        let got = specs.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.25,
            "got {got}, expected ~{expected}"
        );
        // Double the load -> roughly double the flows.
        let specs2 = workload(&d, 0.8).generate(&topo(), &mut SimRng::new(1));
        assert!(specs2.len() as f64 > got * 1.5);
    }

    #[test]
    fn offered_bytes_match_load() {
        let d = web_search();
        let mut rng = SimRng::new(2);
        let t = topo();
        let w = workload(&d, 0.5);
        let specs = w.generate(&t, &mut rng);
        let bytes: u64 = specs.iter().map(|s| s.size_bytes).sum();
        let capacity =
            t.host_link().bytes_per_sec as f64 * t.n_hosts() as f64 * w.duration.as_secs_f64();
        let achieved = bytes as f64 / capacity;
        // Heavy-tailed sizes make this noisy; just require the right scale.
        assert!(
            (0.2..=0.9).contains(&achieved),
            "offered load {achieved} far from 0.5"
        );
    }

    #[test]
    fn inter_leaf_constraint_holds() {
        let d = web_search();
        let mut rng = SimRng::new(3);
        let t = topo();
        let specs = workload(&d, 0.3).generate(&t, &mut rng);
        for s in &specs {
            assert_ne!(t.leaf_of(s.src), t.leaf_of(s.dst));
        }
    }

    #[test]
    fn intra_leaf_allowed_when_disabled() {
        let d = FixedBytes(10_000);
        let mut rng = SimRng::new(4);
        let t = topo();
        let mut w = workload(&d, 0.5);
        w.inter_leaf_only = false;
        let specs = w.generate(&t, &mut rng);
        let intra = specs
            .iter()
            .filter(|s| t.leaf_of(s.src) == t.leaf_of(s.dst))
            .count();
        assert!(intra > 0, "expected some intra-leaf flows");
    }

    #[test]
    fn deadlines_only_for_short_flows() {
        let d = web_search();
        let mut rng = SimRng::new(5);
        let specs = workload(&d, 0.5).generate(&topo(), &mut rng);
        for s in &specs {
            assert_eq!(s.deadline.is_some(), s.size_bytes < 100_000);
        }
    }

    #[test]
    #[should_panic(expected = "deadline_hi")]
    fn inverted_deadline_window_panics_clearly() {
        let d = web_search();
        let mut w = workload(&d, 0.5);
        w.deadline_lo = SimTime::from_millis(25);
        w.deadline_hi = SimTime::from_millis(5);
        w.generate(&topo(), &mut SimRng::new(7));
    }

    #[test]
    fn expected_flows_uses_the_same_rate_as_generate() {
        // Degenerate window (hi == lo) is valid and must not panic; and the
        // generated count must track expected_flows (shared rate formula).
        let d = FixedBytes(50_000); // below short_threshold: all get deadlines
        let mut w = workload(&d, 0.6);
        w.deadline_lo = SimTime::from_millis(10);
        w.deadline_hi = SimTime::from_millis(10);
        let t = topo();
        let specs = w.generate(&t, &mut SimRng::new(8));
        let expected = w.expected_flows(&t);
        assert!(expected > 0.0);
        assert!(
            (specs.len() as f64 - expected).abs() / expected < 0.3,
            "count {} vs expected {expected}",
            specs.len()
        );
        for s in specs.iter().filter(|s| s.deadline.is_some()) {
            assert_eq!(s.deadline, Some(SimTime::from_millis(10)));
        }
    }

    #[test]
    fn poisson_gaps_have_exponential_spread() {
        let d = FixedBytes(100_000);
        let mut rng = SimRng::new(6);
        let specs = workload(&d, 0.8).generate(&topo(), &mut rng);
        assert!(specs.len() > 100);
        let gaps: Vec<f64> = specs
            .windows(2)
            .map(|w| (w[1].start - w[0].start).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // Exponential: CV = std/mean = 1. Accept [0.7, 1.3].
        let cv = var.sqrt() / mean;
        assert!((0.7..1.3).contains(&cv), "gap CV {cv} not exponential-like");
    }
}
