//! Link physics, stated once: which [`LinkProps`] a port starts with, what
//! a [`LinkEvent`] does to them, every state a link reaches over the
//! configured schedule, and the quantities derived from a link's state
//! (its in-flight packet bound, the fabric-wide sum, the arena's
//! reservation, its payload goodput).

use super::portmap::{PortId, PortMap, PortRef};
use crate::config::{LinkEvent, SimConfig};
use tlb_net::{Fabric, LinkProps};
use tlb_switch::OutPort;
use tlb_transport::TcpConfig;

/// The build-time physics of port `p`'s link. Every directed port takes
/// them from the undirected link it serializes onto: the host link for NIC
/// pairs, the fabric's uplink table for switch-to-switch pairs (downlinks
/// read through the reverse-port table).
pub(super) fn base_props(topo: &Fabric, pmap: &PortMap, p: PortId) -> LinkProps {
    let uplink_side = match pmap.decode(p) {
        PortRef::Down { .. } => pmap.decode(pmap.rev[p as usize]),
        r => r,
    };
    match uplink_side {
        PortRef::HostNic(_) => topo.host_link(),
        PortRef::Up { sw, up } => topo.uplink_props(sw as usize, up as usize),
        PortRef::Down { .. } => unreachable!("downlink paired with a downlink"),
    }
}

/// The two directed ports of the uplink pair `ev` targets: `[up, down]`.
pub(super) fn event_ports(pmap: &PortMap, ev: &LinkEvent) -> [PortId; 2] {
    let up = pmap.sw_up(ev.leaf.index() as u32, ev.spine.index() as u32);
    [up, pmap.rev[up as usize]]
}

/// What `ev` turns a link in state `l` into.
pub(super) fn apply_event(ev: &LinkEvent, l: LinkProps) -> LinkProps {
    LinkProps {
        prop_delay: ev.new_prop_delay.unwrap_or(l.prop_delay),
        ..l
    }
    .degraded(ev.bw_factor, ev.extra_delay)
}

/// Show `see` every state each port's link ever reaches: its build-time
/// props, then the props after each [`LinkEvent`] targeting it, replayed
/// in FEL order (by time; same-time events keep config order). Whatever
/// must hold for the whole run — the arena's reservation, the sharded
/// lookahead — folds over this.
pub(super) fn for_each_link_state(
    cfg: &SimConfig,
    pmap: &PortMap,
    mut see: impl FnMut(PortId, &LinkProps),
) {
    let mut cur: Vec<LinkProps> = (0..pmap.n_ports() as u32)
        .map(|p| base_props(&cfg.topo, pmap, p))
        .collect();
    for (p, l) in cur.iter().enumerate() {
        see(p as u32, l);
    }
    let mut evs: Vec<&LinkEvent> = cfg.link_events.iter().collect();
    evs.sort_by_key(|ev| ev.at);
    for ev in evs {
        for p in event_ports(pmap, ev) {
            let l = &mut cur[p as usize];
            *l = apply_event(ev, *l);
            see(p, l);
        }
    }
}

/// Most packets ever in flight on a link in state `l`: each lives exactly
/// one propagation delay on the wire, and one serializer puts through at
/// most `prop_delay / tx(header)` of them in that time — every packet is
/// at least a bare header, of `tcp.header_bytes` — plus the two straddling
/// its ends.
pub(super) fn in_flight_bound(tcp: &TcpConfig, l: &LinkProps) -> usize {
    let min_wire = tcp.header_bytes.max(1) as u64;
    let tx = tlb_engine::time::tx_time(min_wire, l.bytes_per_sec)
        .as_nanos()
        .max(1);
    (l.prop_delay.as_nanos() / tx + 2).min(4096) as usize
}

/// Most packets ever crossing links at once, fabric-wide: the in-flight
/// bound of every state every link reaches over the schedule (a stretched
/// prop_delay or a bw_factor > 1 *raises* a link's ceiling, and while the
/// change takes hold the link carries packets of both states).
pub(super) fn wire_bound(cfg: &SimConfig, pmap: &PortMap) -> usize {
    let mut total = 0;
    for_each_link_state(cfg, pmap, |_, l| total += in_flight_bound(&cfg.tcp, l));
    total
}

/// Most packets a `Net` ever parks at once, its arena's one reservation:
/// the [`wire_bound`] plus, for every port in its table, a full queue and
/// the packet in service (`capacity_pkts + 1`), plus one — the packet a
/// host has just emitted, parked before its NIC admits or drops it. (A
/// packet between two lists otherwise holds a place it just left: the
/// service slot on its way to the wire, the wire on its way to a queue.)
/// A shard replica's stub of a port it does not own has capacity 0 and
/// adds its 1.
pub(super) fn packet_bound(cfg: &SimConfig, pmap: &PortMap, ports: &[OutPort]) -> usize {
    let queues: usize = ports.iter().map(|p| p.capacity_pkts() + 1).sum();
    wire_bound(cfg, pmap) + queues + 1
}

/// The fluid tier's capacity of a link in state `l`: its payload goodput,
/// wire rate scaled by MSS/(MSS+header) — what a saturating packet flow
/// can actually deliver end to end.
pub(super) fn payload_capacity(tcp: &TcpConfig, l: &LinkProps) -> f64 {
    l.bytes_per_sec as f64 * (tcp.mss as f64 / (tcp.mss as f64 + tcp.header_bytes as f64))
}
