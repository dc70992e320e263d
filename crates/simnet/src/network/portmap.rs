//! The port layout: every output queue of the fabric in one flat table,
//! laid out from the fabric's [`Shape`] — which alone knows who is wired
//! to whom and where a packet goes next. This module turns the shape's
//! answers into port ids; everything else asks [`PortMap::next_hop`],
//! [`PortMap::next_node`], [`PortMap::label`]/[`PortMap::hop`],
//! [`PortMap::recompute_reach`] and [`PortMap::shard_of`].

use crate::report::Hop;
use tlb_net::{Fabric, Route, Shape, Tier};
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

/// The flat port-table layout: hosts' NICs first, then per switch (in the
/// shape's order, LB switches first) its uplinks followed by its
/// downlinks. The LB switches are exactly `sw[0..n_lb]` and their uplinks
/// are contiguous — the load balancer's [`PortView`] is a plain slice of
/// the table.
pub(super) struct PortMap {
    /// Hosts' NIC ports occupy `[0, n_hosts)`.
    pub n_hosts: u32,
    /// Hosts attached per LB switch at the bottom tier.
    pub hosts_per_lb: u32,
    /// Per-switch port spans (LB switches first).
    pub sw: Vec<SwPorts>,
    /// Switches that run a load balancer: `sw[0..n_lb]`.
    pub n_lb: u32,
    /// A copy, so the per-packet routing rule matches on a local value.
    shape: Shape,
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
        let shape = topo.shape();
        let n_hosts = shape.n_hosts() as u32;
        let hosts_per_lb = shape.hosts_per_leaf() as u32;
        let n_lb = shape.n_lb_switches() as u32;
        let mut sw = Vec::with_capacity(shape.n_switches());
        let mut port_ref: Vec<PortRef> = (0..n_hosts).map(PortRef::HostNic).collect();
        for s in 0..shape.n_switches() as u16 {
            // Every LB switch has the same fan-out: one uplink per
            // equal-cost path, one downlink per host (or lower switch). A
            // top switch reaches every pod.
            let (n_up, n_down) = if (s as u32) < n_lb {
                (shape.n_spines() as u32, hosts_per_lb)
            } else {
                (0, shape.n_pods() as u32)
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
            shape,
            port_ref,
            rev: Vec::new(),
            next_node: Vec::new(),
            n_groups: shape.n_leaves(),
        };
        // Every downlink is the reverse of exactly one host NIC or uplink;
        // fill both directions of each pair from the NIC/uplink side.
        let mut rev = vec![u32::MAX; pm.n_ports()];
        for p in 0..pm.n_ports() as u32 {
            let (peer, down) = match pm.decode(p) {
                PortRef::HostNic(h) => (h / hosts_per_lb, h % hosts_per_lb),
                PortRef::Up { sw, up } => shape.up_peer(sw as u32, up as u32),
                PortRef::Down { .. } => continue,
            };
            let d = pm.sw_down(peer, down);
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

    /// The shape's routing rule at switch `sw` for a packet to host `dst`,
    /// in port ids.
    #[inline]
    pub fn next_hop(&self, sw: u32, dst: u32) -> NextHop {
        match self.shape.next_hop(sw, dst) {
            Route::Down(d) => NextHop::Down(self.sw_down(sw, d)),
            Route::Up => NextHop::Up {
                group: dst / self.hosts_per_lb,
            },
        }
    }

    #[inline]
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    fn tier(&self, sw: u16) -> (Tier, u16) {
        let (tier, i) = self.shape.tier(sw as u32);
        (tier, i as u16)
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

    /// The fabric's pods (a leaf-spine's pods are its leaves): the most
    /// shards the sharded engine can deal it into.
    pub fn n_pods(&self) -> u16 {
        self.shape.n_pods() as u16
    }

    /// The shard that owns switch `sw` when the fabric is dealt into `n`
    /// shards (`1 ≤ n ≤ n_pods`): its pod's contiguous group
    /// (`pod · n / n_pods`); top switches, which belong to no pod, are
    /// dealt round-robin.
    pub fn shard_of(&self, sw: u16, n: u16) -> u16 {
        match self.shape.pod_of(sw as u32) {
            Some(pod) => (pod as usize * n as usize / self.shape.n_pods()) as u16,
            None => self.tier(sw).1 % n,
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
