//! Link physics, stated once: which [`LinkProps`] a port starts with, the
//! two ports an uplink names, every state a link reaches over the admin
//! schedule (each step by [`Change::apply`], the one rate rule), and the
//! quantities derived from a link's state
//! (its in-flight packet bound, the fabric-wide sum, the arena's
//! reservation, its payload goodput).

use super::portmap::{PortId, PortMap, PortRef};
use crate::config::{Change, SimConfig, Target};
use tlb_net::{Fabric, LeafId, LinkProps, SpineId};
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

/// The two directed ports of LB switch `sw`'s uplink `up`: `[up, down]`.
pub(super) fn uplink_pair(pmap: &PortMap, sw: LeafId, up: SpineId) -> [PortId; 2] {
    let p = pmap.sw_up(sw.index() as u32, up.index() as u32);
    [p, pmap.rev[p as usize]]
}

/// Show `see` every state each port's link ever reaches: its build-time
/// props, then the props after each rate change targeting it, replayed
/// in schedule order (by time; same-time events keep list order). The one
/// replay of the admin schedule: whatever must hold for the whole run —
/// the arena's reservation, the sharded lookahead — folds over this.
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
    let mut rates: Vec<_> = (cfg.admin_events.iter())
        .filter_map(|ev| match (ev.target, ev.change) {
            (Target::Link { sw, up }, Change::Rate { .. }) => Some((ev.at, sw, up, ev.change)),
            _ => None,
        })
        .collect();
    rates.sort_by_key(|r| r.0);
    for (_, sw, up, change) in rates {
        for p in uplink_pair(pmap, sw, up) {
            let l = &mut cur[p as usize];
            *l = change.apply(*l);
            see(p, l);
        }
    }
}

/// Most packets ever in flight on a link in state `l`: a packet is on the
/// link from its serialization's start to its arrival, one propagation
/// delay after its serialization ends; one serializer finishes at most
/// `prop_delay / tx(header)` of them in a propagation delay — every packet
/// is at least a bare header, of [`TcpConfig::HEADER_BYTES`] — plus the
/// one straddling the far end and the one serializing.
pub(super) fn in_flight_bound(l: &LinkProps) -> usize {
    let min_wire = TcpConfig::HEADER_BYTES as u64;
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
    for_each_link_state(cfg, pmap, |_, l| total += in_flight_bound(l));
    total
}

/// Most packets a `Net` ever parks at once, its arena's one reservation:
/// the [`wire_bound`], a full queue for every port in its table, and one
/// more — the packet a host has just emitted, parked before its NIC admits
/// or drops it. (A packet between two lists otherwise holds a place it
/// just left: the wire on its way to a queue.) A packet leaves its port as
/// its serialization starts, so the one serializing onto a link rides the
/// link's pipe, which the wire bound counts. A shard replica's stub of a
/// port it does not own has capacity 0 and adds nothing.
pub(super) fn packet_bound(cfg: &SimConfig, pmap: &PortMap, ports: &[OutPort]) -> usize {
    let queues: usize = ports.iter().map(OutPort::capacity_pkts).sum();
    wire_bound(cfg, pmap) + queues + 1
}

/// The fluid tier's capacity of a link in state `l`: its payload goodput,
/// wire rate scaled by MSS/(MSS+header) — what a saturating packet flow
/// can actually deliver end to end.
pub(super) fn payload_capacity(tcp: &TcpConfig, l: &LinkProps) -> f64 {
    let mss = tcp.mss as f64;
    l.bytes_per_sec as f64 * (mss / (mss + TcpConfig::HEADER_BYTES as f64))
}
