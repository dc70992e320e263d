//! Randomized-but-valid simulation scenarios.
//!
//! A scenario is a pure function of its [`RawScenario`] tuple: topology
//! shape (leaf-spine or k=4 fat tree), link speed, scheme choice,
//! workload mix, (optionally mid-run) asymmetric degradation or
//! improvement, and (optionally) a binary link failure/repair pair. The
//! tuple encoding keeps the whole scenario shrinkable by the vendored
//! proptest — a failing run minimizes toward the smallest fabric, the
//! fewest flows, and no degradation/failure.

use tlb_engine::{SimRng, SimTime};
use tlb_net::{
    Fabric, FatTreeBuilder, FlowId, HostId, LeafId, LeafSpineBuilder, LinkProps, SpineId,
};
use tlb_simnet::{FailureAction, FailureEvent, FailureTarget, LinkEvent, Scheme, SimConfig};
use tlb_workload::FlowSpec;

use proptest::Strategy;

/// Topology knobs: `(leaves, spines, hosts_per_leaf, gbps_tenths)`.
pub type RawTopo = (u64, u64, u64, u64);
/// Traffic knobs: `(scheme_idx, n_short, n_long, incast_fanin)`.
pub type RawTraffic = (u8, u32, u32, u32);
/// Randomness + degradation knobs:
/// `(wl_seed, degrade, bw_pct, extra_us, mid_run)`.
pub type RawFault = (u64, bool, u64, u64, bool);
/// Fabric-kind + binary-failure knobs:
/// `(topo_kind, fail, down_us, up_us, improve)`. Odd `topo_kind` swaps
/// the leaf-spine fabric for a k=4 fat tree (the `RawTopo` switch counts
/// are ignored; the link speed still applies). `fail` schedules a link
/// Down at `100 + down_us` µs on a seed-chosen LB uplink, and — when
/// `up_us > 0` — the matching repair `up_us` µs later. `improve` adds a
/// mid-run link *upgrade* ([`LinkEvent`] with a shorter propagation
/// delay), the case that makes a pristine-fabric FCT bound unsound.
pub type RawFailure = (u8, bool, u16, u16, bool);

/// The flat, shrinkable encoding of a scenario.
pub type RawScenario = (RawTopo, RawTraffic, RawFault, RawFailure);

/// The proptest strategy over the whole scenario space. Bounds are chosen
/// so every sample is valid by construction (≥2 leaves/spines, ≥4 hosts,
/// 0.5–2 Gbit/s links, `bw_factor` in [0.10, 0.99]).
pub fn scenario_strategy() -> impl Strategy<Value = RawScenario> {
    (
        (2u64..5, 2u64..7, 2u64..5, 5u64..21),
        (0u8..7, 1u32..25, 0u32..4, 0u32..7),
        (
            0u64..1_000_000,
            proptest::any::<bool>(),
            10u64..100,
            0u64..51,
            proptest::any::<bool>(),
        ),
        (
            0u8..2,
            proptest::any::<bool>(),
            0u16..2000,
            0u16..2000,
            proptest::any::<bool>(),
        ),
    )
}

/// The strategy restricted to scenarios with an active failure schedule
/// (the dedicated failure-reconvergence property samples from this, so
/// its whole case budget exercises Down/Up reconvergence instead of
/// hitting it on ~half the draws). The vendored proptest has no map
/// combinator, so this is a thin wrapper that pins the `fail` knob after
/// sampling (and after every shrink candidate, keeping shrunk cases in
/// the restricted space).
pub fn failure_scenario_strategy() -> impl Strategy<Value = RawScenario> {
    struct ForceFailure<S>(S);
    fn pin(raw: RawScenario) -> RawScenario {
        let (t, tr, f, (tk, _, down_us, up_us, imp)) = raw;
        (t, tr, f, (tk, true, down_us, up_us, imp))
    }
    impl<S: Strategy<Value = RawScenario>> Strategy for ForceFailure<S> {
        type Value = RawScenario;
        fn sample(&self, rng: &mut proptest::TestRng) -> RawScenario {
            pin(self.0.sample(rng))
        }
        fn shrink(&self, value: &RawScenario) -> Vec<RawScenario> {
            self.0.shrink(value).into_iter().map(pin).collect()
        }
    }
    ForceFailure(scenario_strategy())
}

/// Short-flow sizes, deliberately straddling the 100 KB classification
/// boundary (99 KB stays short; 100 KB is the strictly-greater edge;
/// 100 KB + 1 MSS crosses it mid-life).
const SHORT_SIZES: [u64; 7] = [1_000, 9_300, 30_000, 70_000, 99_000, 100_000, 101_460];
/// Long-flow sizes (well past the boundary).
const LONG_SIZES: [u64; 3] = [150_000, 300_000, 500_000];
/// Bytes each incast sender contributes.
const INCAST_BYTES: u64 = 30_000;

/// A decoded scenario: every knob named, ready to [`build`](Scenario::build).
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Leaf switches (racks).
    pub leaves: usize,
    /// Spine switches (equal-cost paths).
    pub spines: usize,
    /// Hosts per leaf.
    pub hosts_per_leaf: usize,
    /// Link speed in tenths of Gbit/s (shared by all links).
    pub gbps_tenths: u64,
    /// Which scheme (see [`Scenario::scheme`]).
    pub scheme_idx: u8,
    /// Poisson-spaced short flows.
    pub n_short: u32,
    /// Poisson-spaced long flows.
    pub n_long: u32,
    /// Incast fan-in (0 disables the burst).
    pub incast_fanin: u32,
    /// Seed for workload + degradation placement randomness.
    pub wl_seed: u64,
    /// Whether one leaf↔spine link is degraded.
    pub degrade: bool,
    /// Degraded-link bandwidth, percent of nominal.
    pub bw_pct: u64,
    /// Degraded-link extra one-way delay, µs.
    pub extra_us: u64,
    /// Degradation arrives mid-run (via [`LinkEvent`]) instead of at t=0.
    pub mid_run: bool,
    /// Swap the leaf-spine fabric for a k=4 fat tree.
    pub fat_tree: bool,
    /// Schedule a binary link failure (and, with `up_us > 0`, its repair).
    pub fail: bool,
    /// Down-event offset past 100 µs, in µs.
    pub down_us: u16,
    /// Repair delay after the Down event, in µs (0 = never repaired).
    pub up_us: u16,
    /// Add a mid-run link upgrade (shorter propagation delay).
    pub improve: bool,
}

/// A scenario materialized into simulator inputs, plus the fabrics the
/// FCT lower-bound oracle measures against.
#[derive(Clone, Debug)]
pub struct BuiltScenario {
    /// The decoded knobs (for oracle decisions and failure messages).
    pub scenario: Scenario,
    /// Full simulator config with the conservation audit forced on.
    pub cfg: SimConfig,
    /// The workload, dense-id'd and start-sorted.
    pub flows: Vec<FlowSpec>,
    /// The topology *before* any degradation or scheduled change.
    pub pristine: Fabric,
    /// The *best* per-link state the fabric reaches at any point of the
    /// run's schedule (pristine plus every mid-run improvement). Lower
    /// bounds must be computed against this fabric, not `pristine`: a
    /// mid-run repair can legitimately let a flow beat the pristine
    /// fabric's propagation delay.
    pub bound: Fabric,
}

/// Fold a link-event schedule into the best (highest-bandwidth,
/// lowest-propagation-delay) state each link ever reaches, starting from
/// `pristine`. The result upper-bounds every fabric state the run can
/// visit, so FCT lower bounds computed from it stay sound even when the
/// schedule contains mid-run improvements. (Binary failures only remove
/// capacity, so they never enter the bound.)
pub fn bound_fabric(pristine: &Fabric, events: &[LinkEvent]) -> Fabric {
    let mut best = pristine.clone();
    let mut by_link: std::collections::BTreeMap<(usize, usize), Vec<&LinkEvent>> =
        std::collections::BTreeMap::new();
    for ev in events {
        by_link
            .entry((ev.leaf.index(), ev.spine.index()))
            .or_default()
            .push(ev);
    }
    for ((sw, up), mut evs) in by_link {
        evs.sort_by_key(|e| e.at);
        let mut cur = pristine.uplink_props(sw, up);
        let (mut best_bw, mut best_prop) = (cur.bytes_per_sec, cur.prop_delay);
        for ev in evs {
            cur.prop_delay = ev.new_prop_delay.unwrap_or(cur.prop_delay);
            cur = cur.degraded(ev.bw_factor, ev.extra_delay);
            best_bw = best_bw.max(cur.bytes_per_sec);
            best_prop = best_prop.min(cur.prop_delay);
        }
        best.set_uplink(
            sw,
            up,
            LinkProps {
                bytes_per_sec: best_bw,
                prop_delay: best_prop,
            },
        );
    }
    best
}

impl Scenario {
    /// Decode the flat tuple. Infallible for any tuple within the
    /// [`scenario_strategy`] bounds.
    pub fn from_raw(raw: RawScenario) -> Scenario {
        let ((leaves, spines, hosts_per_leaf, gbps_tenths), traffic, fault, failure) = raw;
        let (scheme_idx, n_short, n_long, incast_fanin) = traffic;
        let (wl_seed, degrade, bw_pct, extra_us, mid_run) = fault;
        let (topo_kind, fail, down_us, up_us, improve) = failure;
        Scenario {
            leaves: leaves as usize,
            spines: spines as usize,
            hosts_per_leaf: hosts_per_leaf as usize,
            gbps_tenths,
            scheme_idx,
            n_short,
            n_long,
            incast_fanin,
            wl_seed,
            degrade,
            bw_pct,
            extra_us,
            mid_run,
            fat_tree: topo_kind % 2 == 1,
            fail,
            down_us,
            up_us,
            improve,
        }
    }

    /// The scheme under test. Index 5 is TLB pinned at `q_th = ∞` — a
    /// degenerate config whose observable consequence (zero long-flow
    /// reroutes) the reroute oracle asserts. Index 6 is DiffFlow, the
    /// static short/long split.
    pub fn scheme(&self) -> Scheme {
        match self.scheme_idx {
            0 => Scheme::Ecmp,
            1 => Scheme::Rps,
            2 => Scheme::presto_default(),
            3 => Scheme::letflow_default(),
            4 => Scheme::tlb_default(),
            5 => {
                let mut cfg = tlb_core::TlbConfig::paper_default();
                cfg.threshold_mode = tlb_core::ThresholdMode::Fixed(u64::MAX);
                Scheme::Tlb(cfg)
            }
            _ => Scheme::diffflow_default(),
        }
    }

    /// True for the pinned-TLB variant the reroute oracle keys on.
    pub fn is_pinned_tlb(&self) -> bool {
        self.scheme_idx == 5
    }

    /// Hosts in this scenario's fabric.
    pub fn n_hosts(&self) -> usize {
        if self.fat_tree {
            16 // k=4 fat tree: k³/4.
        } else {
            self.leaves * self.hosts_per_leaf
        }
    }

    /// Materialize config + flows. Deterministic: same `self`, same output.
    pub fn build(&self) -> BuiltScenario {
        let pristine: Fabric = if self.fat_tree {
            FatTreeBuilder::new(4)
                .link_gbps(self.gbps_tenths as f64 / 10.0)
                .target_rtt(SimTime::from_micros(100))
                .build()
        } else {
            LeafSpineBuilder::new(self.leaves, self.spines, self.hosts_per_leaf)
                .link_gbps(self.gbps_tenths as f64 / 10.0)
                .target_rtt(SimTime::from_micros(100))
                .build()
        };

        let mut cfg = SimConfig::basic_paper(self.scheme());
        cfg.topo = pristine.clone();
        cfg.seed = self.wl_seed ^ 0xD1B5_4A32_D192_ED03;
        cfg.horizon = SimTime::from_secs(5);
        // Non-negotiable for fuzzing: every run is audited, even in
        // release builds (CI's fuzz-smoke job runs optimized).
        cfg.audit = true;

        let flows = self.flows();
        cfg.trace_flows = flows.iter().take(3).map(|f| f.id).collect();

        if self.degrade {
            let mut drng = SimRng::new(self.wl_seed ^ 0x9E37_79B9_7F4A_7C15);
            let leaf = LeafId(drng.index(pristine.n_lb_switches()) as u32);
            let spine = SpineId(drng.index(pristine.n_spines()) as u32);
            let bw_factor = self.bw_pct as f64 / 100.0;
            let extra = SimTime::from_micros(self.extra_us);
            if self.mid_run {
                cfg.link_events.push(LinkEvent {
                    at: SimTime::from_millis(1),
                    leaf,
                    spine,
                    bw_factor,
                    new_prop_delay: None,
                    extra_delay: extra,
                });
            } else {
                cfg.topo.degrade_link(leaf, spine, bw_factor, extra);
            }
        }

        if self.improve {
            // Mid-run repair/upgrade: a seed-chosen uplink gets its
            // propagation delay halved (and a modest bandwidth bump) at
            // 1.5 ms. This is exactly the case where the pristine fabric
            // stops being an upper bound — `bound` picks it up.
            let mut irng = SimRng::new(self.wl_seed ^ 0x2545_F491_4F6C_DD1D);
            let leaf = LeafId(irng.index(pristine.n_lb_switches()) as u32);
            let spine = SpineId(irng.index(pristine.n_spines()) as u32);
            let prop = pristine
                .uplink_props(leaf.index(), spine.index())
                .prop_delay;
            cfg.link_events.push(LinkEvent {
                at: SimTime::from_micros(1500),
                leaf,
                spine,
                bw_factor: 1.25,
                new_prop_delay: Some(SimTime::from_nanos(prop.as_nanos() / 2)),
                extra_delay: SimTime::ZERO,
            });
        }

        if self.fail {
            // Binary failure on a seed-chosen LB uplink, plus (optionally)
            // the matching repair. Both LB tiers are eligible targets in a
            // fat tree (edges and aggs share the uplink-count accessor).
            let mut frng = SimRng::new(self.wl_seed ^ 0xA076_1D64_78BD_642F);
            let sw = LeafId(frng.index(pristine.n_lb_switches()) as u32);
            let up = SpineId(frng.index(pristine.n_spines()) as u32);
            let down_at = SimTime::from_micros(100 + self.down_us as u64);
            cfg.failure_events.push(FailureEvent {
                at: down_at,
                target: FailureTarget::Link { sw, up },
                action: FailureAction::Down,
            });
            if self.up_us > 0 {
                cfg.failure_events.push(FailureEvent {
                    at: down_at + SimTime::from_micros(self.up_us as u64),
                    target: FailureTarget::Link { sw, up },
                    action: FailureAction::Up,
                });
            }
        }

        let bound = bound_fabric(&pristine, &cfg.link_events);

        BuiltScenario {
            scenario: *self,
            cfg,
            flows,
            pristine,
            bound,
        }
    }

    /// The workload: `n_short` + `n_long` flows with exponential
    /// inter-arrival gaps (mean 100 µs), plus an optional incast burst of
    /// `incast_fanin` synchronized senders at t = 500 µs. Short flows
    /// under the 100 KB boundary get paper-style uniform deadlines.
    fn flows(&self) -> Vec<FlowSpec> {
        let n_hosts = self.n_hosts();
        let mut rng = SimRng::new(self.wl_seed);
        // (start, src, dst, size, deadline); ids assigned after sorting.
        let mut raw: Vec<(SimTime, HostId, HostId, u64, Option<SimTime>)> = Vec::new();

        let mut at_ns = 0.0f64;
        for i in 0..(self.n_short + self.n_long) {
            at_ns += rng.exp(100_000.0);
            let size = if i < self.n_short {
                SHORT_SIZES[rng.index(SHORT_SIZES.len())]
            } else {
                LONG_SIZES[rng.index(LONG_SIZES.len())]
            };
            let src = rng.index(n_hosts);
            let mut dst = rng.index(n_hosts);
            if dst == src {
                dst = (dst + 1) % n_hosts;
            }
            let deadline =
                (size < 100_000).then(|| SimTime::from_nanos(rng.f64_range(5e6, 25e6) as u64));
            raw.push((
                SimTime::from_nanos(at_ns as u64),
                HostId(src as u32),
                HostId(dst as u32),
                size,
                deadline,
            ));
        }

        if self.incast_fanin > 0 {
            let at = SimTime::from_micros(500);
            let dst = rng.index(n_hosts);
            let fanin = (self.incast_fanin as usize).min(n_hosts - 1);
            for k in 0..fanin {
                // Distinct senders: walk the host ring starting after dst.
                let src = (dst + 1 + k) % n_hosts;
                raw.push((
                    at,
                    HostId(src as u32),
                    HostId(dst as u32),
                    INCAST_BYTES,
                    Some(SimTime::from_millis(25)),
                ));
            }
        }

        // Stable sort keeps equal-start flows in generation order, so the
        // dense-id assignment is deterministic.
        raw.sort_by_key(|r| r.0);
        raw.iter()
            .enumerate()
            .map(|(i, &(start, src, dst, size_bytes, deadline))| FlowSpec {
                id: FlowId(i as u32),
                src,
                dst,
                size_bytes,
                start,
                deadline,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_straddle_the_classification_boundary() {
        // Over enough seeds, the generator must emit sizes on both sides
        // of (and exactly at) 100 KB.
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..40 {
            let raw = (
                (2, 2, 4, 10),
                (0, 24, 3, 0),
                (seed, false, 50, 0, false),
                (0, false, 0, 0, false),
            );
            for f in Scenario::from_raw(raw).build().flows {
                seen.insert(f.size_bytes);
            }
        }
        assert!(seen.contains(&99_000));
        assert!(seen.contains(&100_000));
        assert!(seen.contains(&101_460));
        assert!(seen.iter().any(|&s| s >= 150_000));
    }

    #[test]
    fn incast_senders_are_distinct_and_synchronized() {
        let raw = (
            (2, 2, 2, 10),
            (1, 1, 0, 6),
            (3, false, 50, 0, false),
            (0, false, 0, 0, false),
        );
        let b = Scenario::from_raw(raw).build();
        let incast: Vec<_> = b
            .flows
            .iter()
            .filter(|f| f.start == SimTime::from_micros(500) && f.size_bytes == INCAST_BYTES)
            .collect();
        // fanin 6 capped at n_hosts - 1 = 3.
        assert_eq!(incast.len(), 3);
        let dst = incast[0].dst;
        let mut srcs: Vec<_> = incast.iter().map(|f| f.src.0).collect();
        srcs.sort_unstable();
        srcs.dedup();
        assert_eq!(srcs.len(), 3, "senders must be distinct");
        assert!(incast.iter().all(|f| f.dst == dst && f.src != dst));
    }

    #[test]
    fn static_degradation_keeps_pristine_untouched() {
        let raw = (
            (3, 4, 2, 10),
            (0, 4, 1, 0),
            (11, true, 25, 30, false),
            (0, false, 0, 0, false),
        );
        let b = Scenario::from_raw(raw).build();
        assert!(b.cfg.topo.is_asymmetric(), "static degradation applied");
        assert!(!b.pristine.is_asymmetric(), "pristine stays undegraded");
        assert!(b.cfg.link_events.is_empty());
    }

    #[test]
    fn mid_run_degradation_becomes_a_link_event() {
        let raw = (
            (3, 4, 2, 10),
            (0, 4, 1, 0),
            (11, true, 25, 30, true),
            (0, false, 0, 0, false),
        );
        let b = Scenario::from_raw(raw).build();
        assert!(!b.cfg.topo.is_asymmetric(), "fabric starts symmetric");
        assert_eq!(b.cfg.link_events.len(), 1);
        let ev = b.cfg.link_events[0];
        assert_eq!(ev.at, SimTime::from_millis(1));
        assert!((ev.bw_factor - 0.25).abs() < 1e-12);
        assert_eq!(ev.extra_delay, SimTime::from_micros(30));
    }
}
