//! A fabric the simulator can run on: a [`Shape`] plus the links that give
//! every wire its physics.
//!
//! Links are undirected — degradation and failure always hit both
//! directions — so each is stored once, on the side that climbs: one entry
//! per `(LB switch, uplink)`. A downlink's properties are those of the
//! uplink it terminates ([`Shape::up_peer`]). Every host has the same NIC
//! link, as in every fabric the paper runs (§4.2, §6, §7): degradation and
//! failure hit only the switch tiers, so the host link is stored once.

use crate::ids::{HostId, LeafId, SpineId};
use crate::topology::{LinkProps, Route, Shape};
use tlb_engine::SimTime;

/// A leaf-spine or fat-tree fabric with per-uplink properties.
///
/// Every [`Shape`] query (`n_hosts`, `leaf_of`, `n_spines`, …) answers for
/// the fabric through `Deref`: a fabric *is* its shape, wired.
#[derive(Clone, Debug)]
pub struct Fabric {
    shape: Shape,
    /// Every host NIC <-> leaf link.
    host: LinkProps,
    /// `up[sw * n_spines + u]`: LB switch `sw`'s uplink `u`.
    up: Vec<LinkProps>,
}

impl std::ops::Deref for Fabric {
    type Target = Shape;

    #[inline]
    fn deref(&self) -> &Shape {
        &self.shape
    }
}

impl Fabric {
    /// The shape, by value — what a port layout keeps a copy of.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Every host's NIC link.
    #[inline]
    pub fn host_link(&self) -> LinkProps {
        self.host
    }

    /// LB switch `sw`'s `up`-th uplink: leaf -> spine, or in a fat tree
    /// edge -> aggregation below `n_leaves` and aggregation -> core above.
    #[inline]
    pub fn uplink_props(&self, sw: usize, up: usize) -> LinkProps {
        self.up[self.slot(sw, up)]
    }

    /// An uplink's index in the table. The uplink bound is checked by hand:
    /// past it the flat index would name a neighbour's link.
    fn slot(&self, sw: usize, up: usize) -> usize {
        assert!(
            sw < self.n_lb_switches() && up < self.n_spines(),
            "no uplink {up} on LB switch {sw}"
        );
        sw * self.n_spines() + up
    }

    /// Set an uplink's properties outright. Unlike
    /// [`degrade_link`](Fabric::degrade_link) this can *improve* a link —
    /// how repair schedules and the fuzzer's best-state bound are expressed.
    pub fn set_uplink(&mut self, sw: usize, up: usize, props: LinkProps) {
        let i = self.slot(sw, up);
        self.up[i] = props;
    }

    /// Degrade an uplink: multiply bandwidth by `bw_factor` ∈ (0, 1] and
    /// add `extra_delay` — how Fig. 16/17's asymmetric scenarios are built.
    /// `(l, s)` is (LB switch, uplink), the historical leaf-spine naming.
    pub fn degrade_link(&mut self, l: LeafId, s: SpineId, bw_factor: f64, extra_delay: SimTime) {
        assert!(
            bw_factor > 0.0 && bw_factor <= 1.0,
            "bandwidth factor must be in (0, 1]"
        );
        let worse = self
            .uplink_props(l.index(), s.index())
            .degraded(bw_factor, extra_delay);
        self.set_uplink(l.index(), s.index(), worse);
    }

    /// Minimum one-way base propagation delay from `src` to `dst` over all
    /// equal-cost paths (excludes serialization and queueing): lower-bounds
    /// any packet's traversal time, which makes it the propagation term of
    /// the fuzzer's FCT lower-bound oracle.
    pub fn min_one_way_delay(&self, src: HostId, dst: HostId) -> SimTime {
        let (a, b) = (self.leaf_of(src).0, self.leaf_of(dst).0);
        self.host.prop_delay * 2 + self.min_climb(a, b, dst.0)
    }

    /// The cheapest way to join switch `a` to its mirror image `b` on the
    /// destination's side. A Clos path is its sequence of uplink choices:
    /// the descent into `dst` retraces, link for link, the climb out of
    /// `dst`'s leaf under the same choices. So walk both climbs in lockstep
    /// while [`Shape::next_hop`] says up; they meet where it says down.
    fn min_climb(&self, a: u32, b: u32, dst: u32) -> SimTime {
        if let Route::Down(_) = self.next_hop(a, dst) {
            debug_assert_eq!(a, b, "the two climbs meet where the descent starts");
            return SimTime::ZERO;
        }
        (0..self.n_spines() as u32)
            .map(|u| {
                self.uplink_props(a as usize, u as usize).prop_delay
                    + self.uplink_props(b as usize, u as usize).prop_delay
                    + self.min_climb(self.up_peer(a, u).0, self.up_peer(b, u).0, dst)
            })
            .min()
            .expect("an LB switch has uplinks")
    }

    /// Minimum base RTT over all equal-cost paths (what a transport's RTT
    /// estimate converges to on idle paths). Links are undirected, so the
    /// best round trip takes the best one-way path both ways.
    pub fn min_rtt(&self, src: HostId, dst: HostId) -> SimTime {
        self.min_one_way_delay(src, dst) * 2
    }

    /// True if any uplink differs from another of its tier: leaf uplinks,
    /// or (fat tree) aggregation uplinks.
    pub fn is_asymmetric(&self) -> bool {
        self.up
            .chunks(self.n_leaves() * self.n_spines())
            .any(|tier| tier.windows(2).any(|w| w[0] != w[1]))
    }
}

/// Builder for [`Fabric`]s. It starts at [`LeafSpineBuilder::new`] or
/// [`FatTreeBuilder::new`] — two names for its two ways in, never values —
/// and all links start identical.
#[derive(Clone, Debug)]
pub struct FabricBuilder {
    shape: Shape,
    link: LinkProps,
}

/// Starts a leaf-spine fabric. The default matches the paper's basic NS2
/// setup: all links 1 Gbit/s, 100 µs round-trip propagation.
///
/// ```
/// use tlb_net::{HostId, LeafSpineBuilder};
/// use tlb_engine::SimTime;
///
/// // The paper's §4.2 fabric: 15 equal-cost paths at 1 Gbit/s.
/// let topo = LeafSpineBuilder::new(3, 15, 16)
///     .link_gbps(1.0)
///     .target_rtt(SimTime::from_micros(100))
///     .build();
/// assert_eq!(topo.n_spines(), 15);
/// assert_eq!(topo.min_rtt(HostId(0), HostId(20)), SimTime::from_micros(100));
/// ```
pub enum LeafSpineBuilder {}

impl LeafSpineBuilder {
    /// Start a fabric with the given switch/host counts.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n_leaves: usize, n_spines: usize, hosts_per_leaf: usize) -> FabricBuilder {
        assert!(n_leaves > 0 && n_spines > 0 && hosts_per_leaf > 0);
        let dim = |n: usize| u32::try_from(n).expect("fabric dimension fits u32");
        let shape = Shape::LeafSpine {
            leaves: dim(n_leaves),
            spines: dim(n_spines),
            hosts_per_leaf: dim(hosts_per_leaf),
        };
        FabricBuilder::of(shape).target_rtt(SimTime::from_micros(100))
    }
}

/// Starts a k-ary fat tree: 1 Gbit/s links, 120 µs inter-pod round trip.
///
/// ```
/// use tlb_net::{FatTreeBuilder, HostId};
/// use tlb_engine::SimTime;
///
/// let t = FatTreeBuilder::new(4).target_rtt(SimTime::from_micros(120)).build();
/// assert_eq!(t.n_hosts(), 16);
/// // Hosts 0 and 15 sit in different pods: the full 6-hop path both ways.
/// assert_eq!(t.min_rtt(HostId(0), HostId(15)), SimTime::from_micros(120));
/// ```
pub enum FatTreeBuilder {}

impl FatTreeBuilder {
    /// Start a k-ary fat tree. `k` must be even and ≥ 2.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(k: usize) -> FabricBuilder {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity must be even and >= 2"
        );
        let k = u32::try_from(k).expect("fat-tree arity fits u32");
        FabricBuilder::of(Shape::FatTree { k }).target_rtt(SimTime::from_micros(120))
    }
}

impl FabricBuilder {
    fn of(shape: Shape) -> FabricBuilder {
        let link = LinkProps::gbps(1.0, SimTime::ZERO);
        FabricBuilder { shape, link }
    }

    /// Set every link's capacity in Gbit/s.
    pub fn link_gbps(mut self, gbps: f64) -> Self {
        self.link = LinkProps::gbps(gbps, self.link.prop_delay);
        self
    }

    /// Set every link's capacity in Mbit/s (testbed scenarios).
    pub fn link_mbps(mut self, mbps: f64) -> Self {
        self.link = LinkProps::mbps(mbps, self.link.prop_delay);
        self
    }

    /// Set the per-link one-way propagation delay directly.
    pub fn prop_per_link(mut self, d: SimTime) -> Self {
        self.link.prop_delay = d;
        self
    }

    /// Choose per-link propagation so the longest host-to-host round trip
    /// propagates in `rtt`: 8 link traversals on a leaf-spine, 12 between
    /// fat-tree pods.
    pub fn target_rtt(self, rtt: SimTime) -> Self {
        let links = 4 * self.shape.tiers();
        self.prop_per_link(rtt / links)
    }

    /// Finish building.
    pub fn build(self) -> Fabric {
        let s = self.shape;
        Fabric {
            shape: s,
            host: self.link,
            up: vec![self.link; s.n_lb_switches() * s.n_spines()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Paper §4.2: 15 equal-cost paths, 1 Gbit/s, 100 us RTT.
    fn basic() -> Fabric {
        LeafSpineBuilder::new(3, 15, 16)
            .link_gbps(1.0)
            .target_rtt(SimTime::from_micros(100))
            .build()
    }

    fn k4() -> Fabric {
        FatTreeBuilder::new(4)
            .link_gbps(1.0)
            .target_rtt(SimTime::from_micros(120))
            .build()
    }

    fn slow(f: &mut Fabric, sw: usize, up: usize, extra: SimTime) {
        let mut p = f.uplink_props(sw, up);
        p.prop_delay += extra;
        f.set_uplink(sw, up, p);
    }

    /// Every equal-cost path walked the way a packet walks it — climb over
    /// each uplink, descend where [`Shape::next_hop`] says — over an
    /// explicit reverse map of [`Shape::up_peer`], so nothing here leans on
    /// the mirror symmetry `min_climb` exploits.
    fn brute_force_one_way(f: &Fabric, src: HostId, dst: HostId) -> SimTime {
        let mut below: HashMap<(u32, u32), (u32, u32)> = HashMap::new();
        for sw in 0..f.n_lb_switches() as u32 {
            for u in 0..f.n_spines() as u32 {
                assert!(below.insert(f.up_peer(sw, u), (sw, u)).is_none());
            }
        }
        fn walk(
            f: &Fabric,
            below: &HashMap<(u32, u32), (u32, u32)>,
            sw: u32,
            dst: HostId,
            so_far: SimTime,
            best: &mut Option<SimTime>,
        ) {
            match f.next_hop(sw, dst.0) {
                Route::Up => {
                    for u in 0..f.n_spines() as u32 {
                        let d = f.uplink_props(sw as usize, u as usize).prop_delay;
                        walk(f, below, f.up_peer(sw, u).0, dst, so_far + d, best);
                    }
                }
                Route::Down(_) if sw == f.leaf_of(dst).0 => {
                    *best = Some(best.map_or(so_far, |b| b.min(so_far)));
                }
                Route::Down(d) => {
                    let (lower, u) = below[&(sw, d)];
                    let d = f.uplink_props(lower as usize, u as usize).prop_delay;
                    walk(f, below, lower, dst, so_far + d, best);
                }
            }
        }
        let mut best = None;
        walk(f, &below, f.leaf_of(src).0, dst, SimTime::ZERO, &mut best);
        f.host_link().prop_delay * 2 + best.unwrap()
    }

    #[test]
    fn symmetric_rtt_matches_target() {
        let t = basic();
        assert_eq!(t.host_link().bytes_per_sec, 125_000_000);
        assert_eq!(t.min_rtt(HostId(0), HostId(20)), SimTime::from_micros(100));
        assert!(!t.is_asymmetric());
        // Defaults are the same targets: 100 us, and 120 us between pods.
        let d = LeafSpineBuilder::new(2, 2, 2).build();
        assert_eq!(d.min_rtt(HostId(0), HostId(2)), SimTime::from_micros(100));
        let d = FatTreeBuilder::new(4).build();
        assert_eq!(d.min_rtt(HostId(0), HostId(15)), SimTime::from_micros(120));
    }

    #[test]
    fn path_delays_by_locality() {
        let t = k4();
        let hop = SimTime::from_micros(10); // 120 us / 12
        assert_eq!(t.min_one_way_delay(HostId(0), HostId(1)), hop * 2);
        // Same pod, different edge: NIC + edge->agg + agg->edge + NIC.
        assert_eq!(t.min_one_way_delay(HostId(0), HostId(2)), hop * 4);
        // Different pod: 6 links.
        assert_eq!(t.min_one_way_delay(HostId(0), HostId(15)), hop * 6);
        assert_eq!(t.min_rtt(HostId(0), HostId(15)), SimTime::from_micros(120));
        let t = basic();
        let nic = t.host_link().prop_delay;
        assert_eq!(t.min_one_way_delay(HostId(0), HostId(1)), nic * 2);
    }

    #[test]
    fn degrade_adds_delay_and_cuts_bandwidth() {
        let mut t = basic();
        t.degrade_link(LeafId(1), SpineId(3), 0.5, SimTime::from_micros(40));
        assert!(t.is_asymmetric());
        let up = t.uplink_props(1, 3);
        assert_eq!(up.bytes_per_sec, 62_500_000);
        assert_eq!(
            up.prop_delay,
            SimTime::from_nanos(12_500) + SimTime::from_micros(40)
        );
        // Other links unchanged.
        assert_eq!(t.uplink_props(0, 3).bytes_per_sec, 125_000_000);
        assert_eq!(t.uplink_props(1, 2).bytes_per_sec, 125_000_000);
    }

    #[test]
    fn degrade_targets_the_right_tier() {
        let mut f = k4();
        // LB switch 9 = aggregation 1 (pod 0, j=1); uplink 1 -> core (1,1).
        f.degrade_link(LeafId(9), SpineId(1), 0.5, SimTime::ZERO);
        assert_eq!(f.uplink_props(9, 1).bytes_per_sec, 62_500_000);
        assert_eq!(f.uplink_props(9, 0).bytes_per_sec, 125_000_000);
        assert_eq!(f.uplink_props(1, 1).bytes_per_sec, 125_000_000);
        assert!(f.is_asymmetric());
    }

    #[test]
    fn degradation_reroutes_the_minimum() {
        let extra = SimTime::from_micros(100);
        let mut t = k4();
        let before = t.min_one_way_delay(HostId(0), HostId(15));
        // Slow down edge 0's uplink j=0; the j=1 plane keeps the old bound.
        slow(&mut t, 0, 0, extra);
        assert!(t.is_asymmetric());
        assert_eq!(t.min_one_way_delay(HostId(0), HostId(15)), before);
        // Slowing the other plane too finally moves the bound.
        slow(&mut t, 0, 1, extra);
        assert_eq!(t.min_one_way_delay(HostId(0), HostId(15)), before + extra);

        // Leaf-spine: one slow spine out of 15 moves nothing until the
        // other 14 are slow as well; the degraded hop is crossed once each
        // way, so the RTT then grows by twice the extra delay.
        let mut t = basic();
        let before = t.min_rtt(HostId(0), HostId(20));
        slow(&mut t, 0, 0, extra);
        assert_eq!(t.min_rtt(HostId(0), HostId(20)), before);
        for s in 1..15 {
            slow(&mut t, 0, s, extra);
        }
        assert_eq!(t.min_rtt(HostId(0), HostId(20)), before + extra * 2);
        assert_eq!(t.min_rtt(HostId(16), HostId(40)), before);
    }

    #[test]
    fn set_uplink_can_improve_and_restores_symmetry() {
        let mut t = basic();
        let pristine = t.uplink_props(0, 0);
        t.degrade_link(LeafId(0), SpineId(0), 0.5, SimTime::from_micros(40));
        assert!(t.is_asymmetric());
        let fast = LinkProps {
            bytes_per_sec: pristine.bytes_per_sec * 2,
            prop_delay: pristine.prop_delay / 2,
        };
        t.set_uplink(0, 0, fast);
        assert_eq!(t.uplink_props(0, 0), fast);
        t.set_uplink(0, 0, pristine);
        assert!(!t.is_asymmetric(), "restoring the link restores symmetry");
    }

    #[test]
    #[should_panic(expected = "bandwidth factor")]
    fn degrade_rejects_zero_factor() {
        basic().degrade_link(LeafId(0), SpineId(0), 0.0, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "no uplink 15 on LB switch 0")]
    fn an_uplink_past_the_last_is_not_the_next_switchs_first() {
        basic().degrade_link(LeafId(0), SpineId(15), 0.5, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_arity_rejected() {
        FatTreeBuilder::new(5);
    }

    proptest! {
        /// The lockstep climb finds what walking every path finds, on
        /// randomly degraded leaf-spines and k = 4 / 6 fat trees.
        #[test]
        fn prop_min_one_way_delay_is_the_brute_force_minimum(
            kind in 0usize..3,
            dims in (2usize..5, 1usize..5, 1usize..3),
            hits in proptest::collection::vec((0usize..1000, 0usize..1000, 1u64..400), 0..40),
        ) {
            let mut f = match kind {
                0 => LeafSpineBuilder::new(dims.0, dims.1, dims.2).build(),
                1 => FatTreeBuilder::new(4).build(),
                _ => FatTreeBuilder::new(6).build(),
            };
            for (sw, up, us) in hits {
                let (sw, up) = (sw % f.n_lb_switches(), up % f.n_spines());
                f.degrade_link(LeafId(sw as u32), SpineId(up as u32), 1.0, SimTime::from_micros(us));
            }
            for src in (0..f.n_hosts()).map(HostId::from) {
                for dst in (0..f.n_hosts()).map(HostId::from) {
                    let want = brute_force_one_way(&f, src, dst);
                    prop_assert_eq!(f.min_one_way_delay(src, dst), want, "{:?} -> {:?}", src, dst);
                    prop_assert_eq!(f.min_rtt(src, dst), want * 2);
                }
            }
        }
    }
}
