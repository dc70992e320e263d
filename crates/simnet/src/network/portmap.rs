//! The fabric plan: the flat port-table layout and the one routing rule —
//! climb until the destination is below you, then descend. This is the
//! only module that knows which fabric it is laid out for ([`PlanKind`]);
//! everything else asks [`PortMap::next_hop`], [`PortMap::next_node`],
//! [`PortMap::label`]/[`PortMap::hop`], [`PortMap::recompute_reach`] and
//! [`PortMap::shard_of`].

use crate::report::Hop;
use tlb_net::Fabric;
use tlb_switch::{OutPort, PortView};

/// Index into the flat port table (see [`PortMap`]).
pub(super) type PortId = u32;

/// A specific output queue in the fabric — the decoded form of a
/// [`PortId`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum PortRef {
    /// Host `h`'s NIC queue (towards its leaf/edge).
    HostNic(u32),
    /// Switch `sw`'s uplink `up`. Only LB switches have uplinks, so `sw`
    /// always indexes `PortMap::sw[0..n_lb]`.
    Up { sw: u16, up: u16 },
    /// Switch `sw`'s downlink `down` (towards a host, or a lower tier).
    Down { sw: u16, down: u16 },
}

/// Where a packet lands after crossing a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum NodeRef {
    Host(u32),
    Switch(u16),
}

/// A switch's routing verdict for one destination host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum NextHop {
    /// The destination is below this switch: the single downward port.
    Down(PortId),
    /// Keep climbing: the switch's balancer picks an uplink toward
    /// destination group (leaf/edge) `group`.
    Up { group: u32 },
}

/// One switch's port spans in the flat table: uplinks first, then
/// downlinks.
#[derive(Clone, Copy, Debug)]
pub(super) struct SwPorts {
    pub up_base: u32,
    pub n_up: u32,
    pub down_base: u32,
    pub n_down: u32,
}

impl SwPorts {
    /// Every port of the switch (the two spans are adjacent).
    pub fn all(&self) -> std::ops::Range<PortId> {
        self.up_base..self.down_base + self.n_down
    }
}

/// Fabric-specific routing constants, resolved once at build.
#[derive(Clone, Copy, Debug)]
enum PlanKind {
    /// Two tiers: leaves (LB) under spines.
    LeafSpine { n_leaves: u32 },
    /// Three tiers: edges and aggs (both LB) under cores; `k = 2 * half`.
    FatTree {
        half: u32,
        n_edges: u32,
        n_aggs: u32,
    },
}

/// A switch's role in the fabric (with [`PortMap::tier`]'s index within
/// that role): the one decoder behind trace hops, audit labels and the
/// shard partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    Leaf,
    Spine,
    Edge,
    Agg,
    Core,
}

impl Tier {
    fn name(self) -> &'static str {
        ["leaf", "spine", "edge", "agg", "core"][self as usize]
    }
}

/// The flat port-table layout: hosts' NICs first, then per switch its
/// uplinks followed by its downlinks. Switch order is leaves-then-spines
/// (leaf-spine) or edges-then-aggs-then-cores (fat tree), so the LB
/// switches are exactly `sw[0..n_lb]` and their uplinks are contiguous —
/// the load balancer's [`PortView`] is a plain slice of the table.
pub(super) struct PortMap {
    /// Hosts' NIC ports occupy `[0, n_hosts)`.
    pub n_hosts: u32,
    /// Hosts attached per LB switch at the bottom tier.
    pub hosts_per_lb: u32,
    /// Per-switch port spans (LB switches first).
    pub sw: Vec<SwPorts>,
    /// Switches that run a load balancer: `sw[0..n_lb]`.
    pub n_lb: u32,
    plan: PlanKind,
    /// Decoded form of every port.
    port_ref: Vec<PortRef>,
    /// The reverse-direction port of each port's (undirected) link.
    pub rev: Vec<PortId>,
    /// The node a packet reaches after crossing each port's link: the
    /// reverse port's switch, or the host behind a NIC pair.
    next_node: Vec<NodeRef>,
    /// Destination groups a balancer routes toward (the `group` of
    /// [`NextHop::Up`]): destination leaves, or destination edges.
    n_groups: usize,
}

impl PortMap {
    pub fn new(topo: &Fabric) -> PortMap {
        let n_hosts = topo.n_hosts() as u32;
        let hosts_per_lb = topo.hosts_per_leaf() as u32;
        let n_lb = topo.n_lb_switches() as u32;
        // What sits above the LB switches: each spine reaches every leaf,
        // each core every pod.
        let (plan, top_down) = match topo {
            Fabric::LeafSpine(t) => {
                let n_leaves = t.n_leaves() as u32;
                (PlanKind::LeafSpine { n_leaves }, n_leaves)
            }
            Fabric::FatTree(t) => (
                PlanKind::FatTree {
                    half: t.half() as u32,
                    n_edges: t.n_edges() as u32,
                    n_aggs: t.n_aggs() as u32,
                },
                t.k() as u32,
            ),
        };
        let mut sw = Vec::with_capacity(topo.n_switches());
        let mut port_ref: Vec<PortRef> = (0..n_hosts).map(PortRef::HostNic).collect();
        for s in 0..topo.n_switches() as u16 {
            // Every LB switch has the same fan-out: one uplink per
            // equal-cost path, one downlink per host (or lower switch).
            let (n_up, n_down) = if (s as u32) < n_lb {
                (topo.n_spines() as u32, hosts_per_lb)
            } else {
                (0, top_down)
            };
            let up_base = port_ref.len() as u32;
            port_ref.extend((0..n_up as u16).map(|up| PortRef::Up { sw: s, up }));
            port_ref.extend((0..n_down as u16).map(|down| PortRef::Down { sw: s, down }));
            sw.push(SwPorts {
                up_base,
                n_up,
                down_base: up_base + n_up,
                n_down,
            });
        }
        let mut pm = PortMap {
            n_hosts,
            hosts_per_lb,
            sw,
            n_lb,
            plan,
            port_ref,
            rev: Vec::new(),
            next_node: Vec::new(),
            n_groups: (n_hosts / hosts_per_lb) as usize,
        };
        // Every downlink is the reverse of exactly one host NIC or uplink;
        // fill both directions of each pair from the NIC/uplink side.
        let mut rev = vec![u32::MAX; pm.n_ports()];
        for p in 0..pm.n_ports() as u32 {
            let d = match pm.decode(p) {
                PortRef::HostNic(h) => pm.sw_down(h / hosts_per_lb, h % hosts_per_lb),
                PortRef::Up { sw, up } => pm.up_peer_down(sw as u32, up as u32),
                PortRef::Down { .. } => continue,
            };
            rev[p as usize] = d;
            rev[d as usize] = p;
        }
        debug_assert!(rev.iter().all(|&r| r != u32::MAX), "unpaired port");
        pm.next_node = rev
            .iter()
            .map(|&r| match pm.decode(r) {
                PortRef::HostNic(h) => NodeRef::Host(h),
                PortRef::Up { sw, .. } | PortRef::Down { sw, .. } => NodeRef::Switch(sw),
            })
            .collect();
        pm.rev = rev;
        pm
    }

    /// The downlink on the far switch that terminates LB switch `s`'s
    /// uplink `u`.
    fn up_peer_down(&self, s: u32, u: u32) -> PortId {
        match self.plan {
            // leaf s, uplink u <-> spine u's downlink s.
            PlanKind::LeafSpine { n_leaves } => self.sw_down(n_leaves + u, s),
            PlanKind::FatTree {
                half,
                n_edges,
                n_aggs,
            } => {
                if s < n_edges {
                    // edge (pod p) uplink j <-> agg (p, j)'s downlink to it.
                    let p = s / half;
                    self.sw_down(n_edges + p * half + u, s % half)
                } else {
                    // agg (p, j) uplink m <-> core (j, m)'s downlink to pod p.
                    let a = s - n_edges;
                    let (p, j) = (a / half, a % half);
                    self.sw_down(n_edges + n_aggs + j * half + u, p)
                }
            }
        }
    }

    #[inline]
    pub fn n_ports(&self) -> usize {
        self.port_ref.len()
    }

    #[inline]
    pub fn host_nic(&self, h: u32) -> PortId {
        h
    }

    #[inline]
    pub fn sw_up(&self, s: u32, up: u32) -> PortId {
        self.sw[s as usize].up_base + up
    }

    #[inline]
    pub fn sw_down(&self, s: u32, down: u32) -> PortId {
        self.sw[s as usize].down_base + down
    }

    /// The contiguous slice of LB switch `s`'s uplinks in the port table.
    #[inline]
    pub fn up_range(&self, s: usize) -> std::ops::Range<usize> {
        let sp = &self.sw[s];
        sp.up_base as usize..(sp.up_base + sp.n_up) as usize
    }

    /// Whether `p` is an LB switch's uplink (the queues the balancers
    /// control — the short-flow qdelay metric samples exactly these).
    #[inline]
    pub fn is_lb_up(&self, p: PortId) -> bool {
        matches!(self.port_ref[p as usize], PortRef::Up { .. })
    }

    #[inline]
    pub fn decode(&self, p: PortId) -> PortRef {
        self.port_ref[p as usize]
    }

    /// The node a packet reaches after crossing port `p`'s link.
    #[inline]
    pub fn next_node(&self, p: PortId) -> NodeRef {
        self.next_node[p as usize]
    }

    /// The routing rule at switch `sw` for a packet to host `dst`: descend
    /// when the destination sits below this switch, otherwise climb.
    #[inline]
    pub fn next_hop(&self, sw: u32, dst: u32) -> NextHop {
        match self.plan {
            PlanKind::LeafSpine { n_leaves } => {
                let hpl = self.hosts_per_lb;
                let dl = dst / hpl;
                if sw >= n_leaves {
                    // Spine: one downlink per leaf.
                    NextHop::Down(self.sw_down(sw, dl))
                } else if dl == sw {
                    // Downstream (or intra-rack): single path to the host.
                    NextHop::Down(self.sw_down(sw, dst % hpl))
                } else {
                    NextHop::Up { group: dl }
                }
            }
            PlanKind::FatTree {
                half,
                n_edges,
                n_aggs,
            } => {
                let de = dst / half;
                if sw < n_edges {
                    if de == sw {
                        NextHop::Down(self.sw_down(sw, dst % half))
                    } else {
                        NextHop::Up { group: de }
                    }
                } else if sw < n_edges + n_aggs {
                    if de / half == (sw - n_edges) / half {
                        // Same pod: straight down to the destination edge.
                        NextHop::Down(self.sw_down(sw, de % half))
                    } else {
                        NextHop::Up { group: de }
                    }
                } else {
                    // Core: one downlink per pod.
                    NextHop::Down(self.sw_down(sw, de / half))
                }
            }
        }
    }

    #[inline]
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Switch `sw`'s role and its index within that role.
    fn tier(&self, sw: u16) -> (Tier, u16) {
        let s = sw as u32;
        let (tier, first) = match self.plan {
            PlanKind::LeafSpine { n_leaves } if s < n_leaves => (Tier::Leaf, 0),
            PlanKind::LeafSpine { n_leaves } => (Tier::Spine, n_leaves),
            PlanKind::FatTree { n_edges, .. } if s < n_edges => (Tier::Edge, 0),
            PlanKind::FatTree {
                n_edges, n_aggs, ..
            } if s < n_edges + n_aggs => (Tier::Agg, n_edges),
            PlanKind::FatTree {
                n_edges, n_aggs, ..
            } => (Tier::Core, n_edges + n_aggs),
        };
        (tier, (s - first) as u16)
    }

    /// The audit label of port `p`: `host3.nic`, `leaf0.up2`,
    /// `spine1.down0`, `edge4.up1`, `agg2.down0`, `core3.down1`, ….
    pub fn label(&self, p: PortId) -> String {
        let of = |sw: u16, dir: &str, n: u16| {
            let (tier, i) = self.tier(sw);
            format!("{}{i}.{dir}{n}", tier.name())
        };
        match self.decode(p) {
            PortRef::HostNic(h) => format!("host{h}.nic"),
            PortRef::Up { sw, up } => of(sw, "up", up),
            PortRef::Down { sw, down } => of(sw, "down", down),
        }
    }

    /// The trace hop of a packet entering port `p`. Leaf-spine keeps its
    /// historical hop names; fat trees use the generic fabric hops.
    pub fn hop(&self, p: PortId) -> Hop {
        match self.decode(p) {
            PortRef::HostNic(host) => Hop::HostNic { host },
            PortRef::Up { sw, up } => match self.tier(sw).0 {
                Tier::Leaf => Hop::LeafUplink {
                    leaf: sw,
                    spine: up,
                },
                _ => Hop::FabricUp { sw, up },
            },
            PortRef::Down { sw, down } => match self.tier(sw) {
                (Tier::Leaf, leaf) => Hop::LeafDownlink { leaf, slot: down },
                (Tier::Spine, spine) => Hop::SpineDownlink { spine, leaf: down },
                _ => Hop::FabricDown { sw, down },
            },
        }
    }

    /// The sharded engine's partition: leaf-spine → one shard per leaf
    /// (spine `s` rides with leaf `s % n_leaves`), fat tree → one shard
    /// per pod (core `c` rides with pod `c % n_pods`).
    pub fn n_shards(&self) -> u16 {
        match self.plan {
            PlanKind::LeafSpine { n_leaves } => n_leaves as u16,
            PlanKind::FatTree { half, n_edges, .. } => (n_edges / half) as u16,
        }
    }

    /// The shard that owns switch `sw` (see [`PortMap::n_shards`]).
    pub fn shard_of(&self, sw: u16) -> u16 {
        match self.tier(sw) {
            (Tier::Leaf, l) => l,
            // A pod holds k/2 edges and k/2 aggs — as many as an edge has
            // hosts.
            (Tier::Edge | Tier::Agg, i) => i / self.hosts_per_lb as u16,
            (Tier::Spine | Tier::Core, i) => i % self.n_shards(),
        }
    }

    /// Brute-force recompute of the per-(LB switch, destination group)
    /// usable-uplink masks from port admin state, into the preallocated
    /// `reach` table (indexed `sw * n_groups + group`; no allocation, so a
    /// failure inside an allocation-audit window stays clean).
    ///
    /// Uplink `u` of LB switch `s` is usable toward group `g` iff it is
    /// live and its far end `t` can complete the path: `t` descends over a
    /// live port, or — `t` climbs too (an agg toward another pod) — `t`
    /// has some usable uplink of its own and the final descent into `g`
    /// (from the switch paired with `g`'s uplink `u`, by the fabric's
    /// symmetry) is live. Upper tiers have higher indices, so walking the
    /// LB switches downward finds `t`'s row already computed. A group
    /// below `s` never consults its row; it stays full.
    pub fn recompute_reach(&self, ports: &[OutPort], reach: &mut [u64]) {
        let ng = self.n_groups();
        let live = |p: PortId| !ports[p as usize].is_down();
        for s in (0..self.n_lb).rev() {
            for g in 0..ng as u32 {
                let dst = g * self.hosts_per_lb;
                let mut m = 0u64;
                if matches!(self.next_hop(s, dst), NextHop::Down(_)) {
                    m = PortView::full_mask(self.sw[s as usize].n_up as usize);
                } else {
                    for u in 0..self.sw[s as usize].n_up {
                        let up = self.sw_up(s, u);
                        let NodeRef::Switch(t) = self.next_node(up) else {
                            unreachable!("an uplink ends at a switch")
                        };
                        let below = match self.next_hop(t as u32, dst) {
                            NextHop::Down(p) => live(p),
                            NextHop::Up { .. } => {
                                reach[t as usize * ng + g as usize] != 0
                                    && live(self.rev[self.sw_up(g, u) as usize])
                            }
                        };
                        if live(up) && below {
                            m |= 1 << u;
                        }
                    }
                }
                reach[s as usize * ng + g as usize] = m;
            }
        }
    }
}

#[cfg(test)]
mod tests;
