//! The shape of a Clos fabric and its one wiring rule.
//!
//! The paper evaluates on leaf-spine fabrics (§4.2: 15 equal-cost paths at
//! 1 Gbit/s; §6.2: 8 ToR × 8 core; §7: 10 paths at 20 Mbit/s); the k-ary
//! fat tree of "Randomized Load-balanced Routing for Fat-tree Networks" is
//! the same folded Clos with one more tier. [`Shape`] says which, and
//! answers every question about who is wired to whom:
//!
//! * **Switch order.** LB switches — the ones that own equal-cost uplinks
//!   and run a load balancer — come first: leaves, or fat-tree edges then
//!   aggregations. Top switches (spines, or cores) follow; they only
//!   descend. A *leaf* is any host-facing switch, so a fat-tree edge is a
//!   leaf, and every LB switch has [`Shape::n_spines`] uplinks.
//! * **Hosts** are numbered leaf-major: host `h` sits on leaf
//!   `h / hosts_per_leaf`, slot `h % hosts_per_leaf`.
//! * **Fat tree** (even `k`, `half = k/2`): `k` pods of `half` edges and
//!   `half` aggregations, `half²` cores, `half` hosts per edge (`k³/4`
//!   hosts). Edge `e` is in pod `e / half`; aggregation `a = p·half + j`
//!   is pod `p`'s position `j`; core `c = j·half + m` hangs off uplink `m`
//!   of every pod's position-`j` aggregation and has one downlink per pod.
//!   Inter-pod pairs have `half²` equal-cost paths (`j`, then `m`),
//!   intra-pod pairs `half`.

use crate::ids::{HostId, LeafId};
use tlb_engine::SimTime;

/// Physical properties of one link (both directions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkProps {
    /// Capacity in bytes per second.
    pub bytes_per_sec: u64,
    /// One-way propagation delay.
    pub prop_delay: SimTime,
}

impl LinkProps {
    /// A link specified in Gbit/s and nanoseconds of propagation delay.
    pub fn gbps(gbps: f64, prop_delay: SimTime) -> LinkProps {
        LinkProps {
            bytes_per_sec: (gbps * 1e9 / 8.0).round() as u64,
            prop_delay,
        }
    }

    /// A link specified in Mbit/s.
    pub fn mbps(mbps: f64, prop_delay: SimTime) -> LinkProps {
        LinkProps {
            bytes_per_sec: (mbps * 1e6 / 8.0).round() as u64,
            prop_delay,
        }
    }

    /// The one degrade rule: bandwidth times `bw_factor` (never below one
    /// byte per second), propagation plus `extra_delay`. A factor above 1
    /// is a repair or an upgrade.
    pub fn degraded(self, bw_factor: f64, extra_delay: SimTime) -> LinkProps {
        LinkProps {
            bytes_per_sec: ((self.bytes_per_sec as f64) * bw_factor).max(1.0) as u64,
            prop_delay: self.prop_delay + extra_delay,
        }
    }
}

/// Which Clos fabric: the only type that is matched on to tell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Two tiers: every leaf connects to every spine.
    LeafSpine {
        /// Leaf switches.
        leaves: u32,
        /// Spine switches (= equal-cost inter-rack paths).
        spines: u32,
        /// Hosts attached to each leaf.
        hosts_per_leaf: u32,
    },
    /// Three tiers: a k-ary fat tree.
    FatTree {
        /// Arity (even, ≥ 2).
        k: u32,
    },
}

/// A switch's role; [`Shape::tier`] pairs it with the index within the role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Leaf-spine, host-facing.
    Leaf,
    /// Leaf-spine, top.
    Spine,
    /// Fat tree, host-facing.
    Edge,
    /// Fat tree, middle.
    Agg,
    /// Fat tree, top.
    Core,
}

impl Tier {
    /// The lower-case name port labels are spelled with.
    pub fn name(self) -> &'static str {
        ["leaf", "spine", "edge", "agg", "core"][self as usize]
    }
}

/// [`Shape::next_hop`]'s verdict for one destination host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// The destination is below this switch: its one downlink toward it.
    Down(u32),
    /// Keep climbing; any uplink will do.
    Up,
}

impl Shape {
    /// Host-facing switches: leaves, or fat-tree edges (`k²/2`).
    #[inline]
    pub fn n_leaves(&self) -> usize {
        match *self {
            Shape::LeafSpine { leaves, .. } => leaves as usize,
            Shape::FatTree { k } => (k * (k / 2)) as usize,
        }
    }

    /// Hosts per host-facing switch — also the downlinks of every LB switch.
    #[inline]
    pub fn hosts_per_leaf(&self) -> usize {
        match *self {
            Shape::LeafSpine { hosts_per_leaf, .. } => hosts_per_leaf as usize,
            Shape::FatTree { k } => (k / 2) as usize,
        }
    }

    /// Equal-cost uplinks per LB switch (spines, or `k/2`).
    #[inline]
    pub fn n_spines(&self) -> usize {
        match *self {
            Shape::LeafSpine { spines, .. } => spines as usize,
            Shape::FatTree { k } => (k / 2) as usize,
        }
    }

    /// Switches running a load balancer: leaves, or edges then aggregations.
    #[inline]
    pub fn n_lb_switches(&self) -> usize {
        match *self {
            Shape::LeafSpine { leaves, .. } => leaves as usize,
            Shape::FatTree { k } => (k * k) as usize,
        }
    }

    /// Pods — what a top switch has one downlink to each of: single leaves,
    /// or the fat tree's `k` pods.
    #[inline]
    pub fn n_pods(&self) -> usize {
        match *self {
            Shape::LeafSpine { leaves, .. } => leaves as usize,
            Shape::FatTree { k } => k as usize,
        }
    }

    /// All switches: LB switches, then spines or the `(k/2)²` cores.
    pub fn n_switches(&self) -> usize {
        self.n_lb_switches()
            + match *self {
                Shape::LeafSpine { spines, .. } => spines as usize,
                Shape::FatTree { k } => ((k / 2) * (k / 2)) as usize,
            }
    }

    /// Switch tiers between two hosts at the fabric's far ends.
    pub(crate) fn tiers(&self) -> u64 {
        match *self {
            Shape::LeafSpine { .. } => 2,
            Shape::FatTree { .. } => 3,
        }
    }

    /// Total host count.
    #[inline]
    pub fn n_hosts(&self) -> usize {
        self.n_leaves() * self.hosts_per_leaf()
    }

    /// The host-facing switch a host hangs off.
    #[inline]
    pub fn leaf_of(&self, h: HostId) -> LeafId {
        debug_assert!(h.index() < self.n_hosts());
        LeafId((h.index() / self.hosts_per_leaf()) as u32)
    }

    /// A host's port index on its switch (0-based within the rack).
    #[inline]
    pub fn host_slot(&self, h: HostId) -> usize {
        h.index() % self.hosts_per_leaf()
    }

    /// All hosts under a host-facing switch.
    pub fn hosts_of(&self, l: LeafId) -> impl Iterator<Item = HostId> {
        let start = l.index() * self.hosts_per_leaf();
        (start..start + self.hosts_per_leaf()).map(HostId::from)
    }

    /// Where LB switch `sw`'s uplink `u` lands: `(peer switch, the peer's
    /// downlink that comes back)`.
    pub fn up_peer(&self, sw: u32, u: u32) -> (u32, u32) {
        match *self {
            // Leaf `sw` <-> spine `u`, whose downlinks are numbered by leaf.
            Shape::LeafSpine { leaves, .. } => (leaves + u, sw),
            Shape::FatTree { k } => {
                let (half, n_edges) = (k / 2, k * (k / 2));
                if sw < n_edges {
                    // Edge in pod p <-> aggregation (p, u).
                    (n_edges + sw / half * half + u, sw % half)
                } else {
                    // Aggregation (p, j) <-> core (j, u).
                    let a = sw - n_edges;
                    (2 * n_edges + a % half * half + u, a / half)
                }
            }
        }
    }

    /// The routing rule at switch `sw` for a packet to host `dst`: descend
    /// when the destination sits below this switch, otherwise climb.
    #[inline]
    pub fn next_hop(&self, sw: u32, dst: u32) -> Route {
        match *self {
            Shape::LeafSpine {
                leaves,
                hosts_per_leaf,
                ..
            } => {
                let dl = dst / hosts_per_leaf;
                if sw >= leaves {
                    Route::Down(dl)
                } else if dl == sw {
                    Route::Down(dst % hosts_per_leaf)
                } else {
                    Route::Up
                }
            }
            Shape::FatTree { k } => {
                let (half, n_edges) = (k / 2, k * (k / 2));
                let de = dst / half;
                if sw >= 2 * n_edges {
                    // Core: one downlink per pod.
                    Route::Down(de / half)
                } else if sw >= n_edges {
                    if de / half == (sw - n_edges) / half {
                        Route::Down(de % half)
                    } else {
                        Route::Up
                    }
                } else if de == sw {
                    Route::Down(dst % half)
                } else {
                    Route::Up
                }
            }
        }
    }

    /// Switch `sw`'s role and its index within that role.
    pub fn tier(&self, sw: u32) -> (Tier, u32) {
        let (lower, top) = match *self {
            Shape::LeafSpine { .. } => ([Tier::Leaf; 2], Tier::Spine),
            Shape::FatTree { .. } => ([Tier::Edge, Tier::Agg], Tier::Core),
        };
        let (n_lb, n_leaves) = (self.n_lb_switches() as u32, self.n_leaves() as u32);
        if sw >= n_lb {
            (top, sw - n_lb)
        } else {
            (lower[(sw / n_leaves) as usize], sw % n_leaves)
        }
    }

    /// The pod LB switch `sw` belongs to; `None` for a top switch, which
    /// serves them all.
    pub fn pod_of(&self, sw: u32) -> Option<u32> {
        let (_, i) = self.tier(sw);
        let per_pod = (self.n_leaves() / self.n_pods()) as u32;
        ((sw as usize) < self.n_lb_switches()).then_some(i / per_pod)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn link_conversions_and_the_degrade_rule() {
        assert_eq!(
            LinkProps::gbps(1.0, SimTime::ZERO).bytes_per_sec,
            125_000_000
        );
        let l = LinkProps::mbps(20.0, SimTime::from_millis(1));
        assert_eq!(l.bytes_per_sec, 2_500_000);
        let d = l.degraded(0.5, SimTime::from_micros(40));
        assert_eq!(d.bytes_per_sec, 1_250_000);
        assert_eq!(
            d.prop_delay,
            SimTime::from_millis(1) + SimTime::from_micros(40)
        );
        // Never below one byte per second; above 1 is a repair.
        assert_eq!(l.degraded(1e-12, SimTime::ZERO).bytes_per_sec, 1);
        assert_eq!(l.degraded(2.0, SimTime::ZERO).bytes_per_sec, 5_000_000);
    }

    #[test]
    fn fat_tree_dimensions() {
        let k4 = Shape::FatTree { k: 4 };
        assert_eq!(k4.n_pods(), 4);
        assert_eq!(k4.n_leaves(), 8);
        assert_eq!(k4.n_lb_switches(), 16);
        assert_eq!(k4.n_switches(), 20);
        assert_eq!(k4.n_hosts(), 16);
        assert_eq!(Shape::FatTree { k: 8 }.n_hosts(), 128);
        let k16 = Shape::FatTree { k: 16 };
        assert_eq!(k16.n_hosts(), 1024);
        assert_eq!(k16.n_switches() - k16.n_lb_switches(), 64);
    }

    #[test]
    fn host_edge_pod_arithmetic() {
        let t = Shape::FatTree { k: 4 };
        assert_eq!(t.leaf_of(HostId(0)), LeafId(0));
        assert_eq!(t.leaf_of(HostId(3)), LeafId(1));
        assert_eq!(t.leaf_of(HostId(15)), LeafId(7));
        assert_eq!(t.host_slot(HostId(5)), 1);
        let under: Vec<_> = t.hosts_of(LeafId(2)).collect();
        assert_eq!(under, vec![HostId(4), HostId(5)]);
        // Edges 0, 3, 7; aggregations 8 + (0, 3, 7); a core.
        for (sw, pod) in [(0, 0), (3, 1), (7, 3), (8, 0), (11, 1), (15, 3)] {
            assert_eq!(t.pod_of(sw), Some(pod), "switch {sw}");
        }
        assert_eq!(t.pod_of(16), None);
        assert_eq!(t.tier(11), (Tier::Agg, 3));
        assert_eq!(t.tier(19), (Tier::Core, 3));
        // Aggregation 1 = (pod 0, j = 1): uplink 1 -> core (1, 1) = switch
        // 16 + 3, whose downlink 0 returns to pod 0.
        assert_eq!(t.up_peer(9, 1), (19, 0));
        // Edge 5 (pod 2, position 1), uplink 0 -> aggregation (2, 0).
        assert_eq!(t.up_peer(5, 0), (8 + 4, 1));
    }

    #[test]
    fn leaf_major_numbering() {
        let t = Shape::LeafSpine {
            leaves: 3,
            spines: 15,
            hosts_per_leaf: 16,
        };
        assert_eq!((t.n_leaves(), t.n_spines(), t.n_hosts()), (3, 15, 48));
        assert_eq!(t.hosts_per_leaf(), 16);
        assert_eq!(t.leaf_of(HostId(15)), LeafId(0));
        assert_eq!(t.leaf_of(HostId(16)), LeafId(1));
        assert_eq!(t.host_slot(HostId(17)), 1);
        let under_leaf2: Vec<_> = t.hosts_of(LeafId(2)).collect();
        assert_eq!(under_leaf2.len(), 16);
        assert_eq!(under_leaf2[0], HostId(32));
        assert_eq!(under_leaf2[15], HostId(47));
        assert_eq!(t.up_peer(1, 4), (3 + 4, 1));
        assert_eq!(t.tier(2), (Tier::Leaf, 2));
        assert_eq!(t.tier(3), (Tier::Spine, 0));
        assert_eq!((t.pod_of(2), t.pod_of(3)), (Some(2), None));
    }

    #[test]
    fn both_shapes_share_the_rack_vocabulary() {
        let ls = Shape::LeafSpine {
            leaves: 8,
            spines: 2,
            hosts_per_leaf: 2,
        };
        let ft = Shape::FatTree { k: 4 };
        for f in [ls, ft] {
            assert_eq!(f.n_hosts(), 16);
            assert_eq!(f.n_leaves(), 8);
            assert_eq!(f.hosts_per_leaf(), 2);
            assert_eq!(f.n_spines(), 2);
            assert_eq!(f.leaf_of(HostId(5)).index(), 2);
            assert_eq!(f.host_slot(HostId(5)), 1);
            let under: Vec<_> = f.hosts_of(LeafId(1)).collect();
            assert_eq!(under, vec![HostId(2), HostId(3)]);
        }
        assert_eq!(ls.n_lb_switches(), 8);
        assert_eq!(ft.n_lb_switches(), 16);
    }

    proptest! {
        /// Every host maps to a valid leaf and back.
        #[test]
        fn prop_host_leaf_roundtrip(
            leaves in 1u32..10,
            spines in 1u32..20,
            hosts_per_leaf in 1u32..40,
        ) {
            let t = Shape::LeafSpine { leaves, spines, hosts_per_leaf };
            for h in 0..t.n_hosts() {
                let host = HostId::from(h);
                let leaf = t.leaf_of(host);
                prop_assert!(leaf.index() < leaves as usize);
                let slot = t.host_slot(host);
                prop_assert!(slot < hosts_per_leaf as usize);
                prop_assert_eq!(leaf.index() * hosts_per_leaf as usize + slot, h);
            }
        }
    }
}
