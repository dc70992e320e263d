//! The routing plan, exhaustively on small fabrics: every walk the packet
//! path or the fluid router can take ends at its destination.

use super::*;
use tlb_net::{FatTreeBuilder, LeafSpineBuilder, MAX_FLUID_PATH};

fn fabrics() -> Vec<(&'static str, PortMap)> {
    let leaf_spine: Fabric = LeafSpineBuilder::new(3, 4, 2).build();
    let k4: Fabric = FatTreeBuilder::new(4).build();
    let k8: Fabric = FatTreeBuilder::new(8).build();
    let k16: Fabric = FatTreeBuilder::new(16).build();
    vec![
        ("leaf-spine 3x4x2", PortMap::new(&leaf_spine)),
        ("fat tree k=4", PortMap::new(&k4)),
        ("fat tree k=8", PortMap::new(&k8)),
        ("fat tree k=16", PortMap::new(&k16)),
    ]
}

/// Follow `port` toward `dst`, branching over every uplink at every `Up`
/// hop; `links` counts the links crossed so far, `port` included.
fn walk(pm: &PortMap, port: PortId, dst: u32, links: usize, name: &str) {
    assert!(
        links <= MAX_FLUID_PATH,
        "{name}: still walking to host {dst} after {links} links"
    );
    let sw = match pm.next_node(port) {
        NodeRef::Host(h) => return assert_eq!(h, dst, "{name}: delivered to the wrong host"),
        NodeRef::Switch(sw) => sw as u32,
    };
    match pm.next_hop(sw, dst) {
        NextHop::Down(p) => walk(pm, p, dst, links + 1, name),
        NextHop::Up { group } => {
            assert!((group as usize) < pm.n_groups(), "{name}: group {group}");
            assert!(
                sw < pm.n_lb,
                "{name}: switch {sw} climbs without a balancer"
            );
            let ups = pm.up_range(sw as usize);
            assert!(!ups.is_empty());
            for p in ups {
                walk(pm, p as PortId, dst, links + 1, name);
            }
        }
    }
}

#[test]
fn every_walk_ends_at_its_destination() {
    for (name, pm) in fabrics() {
        for src in 0..pm.n_hosts {
            for dst in 0..pm.n_hosts {
                walk(&pm, pm.host_nic(src), dst, 1, name);
            }
        }
    }
}

#[test]
fn ports_pair_up() {
    for (name, pm) in fabrics() {
        assert_eq!(pm.rev.len(), pm.n_ports());
        for p in 0..pm.n_ports() as PortId {
            let r = pm.rev[p as usize];
            assert_ne!(r, p, "{name}: port {p} is its own reverse");
            assert_eq!(pm.rev[r as usize], p, "{name}: rev is not an involution");
        }
    }
}

#[test]
fn labels_keep_their_historical_spelling() {
    let all =
        |pm: &PortMap| -> Vec<String> { (0..pm.n_ports() as u32).map(|p| pm.label(p)).collect() };
    let (_, ls) = &fabrics()[0];
    let labels = all(ls);
    // 6 hosts, then leaf l = 4 uplinks + 2 downlinks, then spine s = 3
    // downlinks.
    assert_eq!(labels[0], "host0.nic");
    assert_eq!(labels[ls.sw_up(1, 3) as usize], "leaf1.up3");
    assert_eq!(labels[ls.sw_down(2, 1) as usize], "leaf2.down1");
    assert_eq!(labels[ls.sw_down(3 + 2, 0) as usize], "spine2.down0");
    assert_eq!(labels.last().unwrap(), "spine3.down2");

    let (_, ft) = &fabrics()[1];
    let labels = all(ft);
    // k=4: 8 edges, 8 aggs, 4 cores.
    assert_eq!(labels[15], "host15.nic");
    assert_eq!(labels[ft.sw_up(5, 1) as usize], "edge5.up1");
    assert_eq!(labels[ft.sw_down(5, 0) as usize], "edge5.down0");
    assert_eq!(labels[ft.sw_up(8 + 2, 0) as usize], "agg2.up0");
    assert_eq!(labels[ft.sw_down(8 + 7, 1) as usize], "agg7.down1");
    assert_eq!(labels[ft.sw_down(16 + 3, 2) as usize], "core3.down2");
    // No two ports share a label.
    let mut sorted = labels.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), labels.len());
}

#[test]
fn hops_name_the_tier_the_packet_enters() {
    let (_, ls) = &fabrics()[0];
    assert_eq!(ls.hop(4), Hop::HostNic { host: 4 });
    assert_eq!(
        ls.hop(ls.sw_up(2, 1)),
        Hop::LeafUplink { leaf: 2, spine: 1 }
    );
    assert_eq!(
        ls.hop(ls.sw_down(0, 1)),
        Hop::LeafDownlink { leaf: 0, slot: 1 }
    );
    assert_eq!(
        ls.hop(ls.sw_down(3 + 1, 2)),
        Hop::SpineDownlink { spine: 1, leaf: 2 }
    );
    let (_, ft) = &fabrics()[1];
    assert_eq!(ft.hop(ft.sw_up(9, 1)), Hop::FabricUp { sw: 9, up: 1 });
    assert_eq!(
        ft.hop(ft.sw_down(17, 3)),
        Hop::FabricDown { sw: 17, down: 3 }
    );
}

/// Is there a walk from `port` to switch `g` over live ports only?
fn live_path(pm: &PortMap, ports: &[OutPort], port: PortId, g: u32) -> bool {
    let NodeRef::Switch(t) = pm.next_node(port) else {
        unreachable!("walked past the destination switch")
    };
    !ports[port as usize].is_down()
        && (t as u32 == g
            || match pm.next_hop(t as u32, g * pm.hosts_per_lb) {
                NextHop::Down(p) => live_path(pm, ports, p, g),
                NextHop::Up { .. } => pm
                    .up_range(t as usize)
                    .any(|p| live_path(pm, ports, p as PortId, g)),
            })
}

#[test]
fn reach_masks_admit_exactly_the_uplinks_with_a_live_path() {
    let link = tlb_net::LinkProps::gbps(1.0, tlb_engine::SimTime::ZERO);
    let mut rng = tlb_engine::SimRng::new(7);
    for (name, pm) in fabrics() {
        let ng = pm.n_groups();
        for round in 0..200 {
            let mut ports: Vec<OutPort> = (0..pm.n_ports())
                .map(|_| OutPort::new(link, tlb_switch::QueueCfg::paper_default()))
                .collect();
            // Round 0 is the healthy fabric; later rounds kill up to 12
            // random links (both directions).
            for _ in 0..round % 13 {
                let p = (rng.next_u64() % pm.n_ports() as u64) as usize;
                ports[p].set_down(true);
                ports[pm.rev[p] as usize].set_down(true);
            }
            let mut reach = vec![0u64; pm.n_lb as usize * ng];
            pm.recompute_reach(&ports, &mut reach);
            // Host-facing LB switches are `0..ng`; their rows are the ones
            // a packet's first (and decisive) climb consults.
            for s in 0..ng as u32 {
                for g in (0..ng as u32).filter(|&g| g != s) {
                    for u in 0..pm.sw[s as usize].n_up {
                        assert_eq!(
                            reach[s as usize * ng + g as usize] >> u & 1 == 1,
                            live_path(&pm, &ports, pm.sw_up(s, u), g),
                            "{name} round {round}: switch {s} uplink {u} toward group {g}"
                        );
                    }
                }
            }
        }
    }
}
