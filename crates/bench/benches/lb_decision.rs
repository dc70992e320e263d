//! Per-packet forwarding-decision cost of each scheme — the precise
//! counterpart of Fig. 15(a)'s switch CPU comparison (see DESIGN.md for the
//! substitution rationale). Lower is cheaper for a real switch's data plane.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use tlb_engine::{SimRng, SimTime};
use tlb_net::{FlowId, HostId, LinkProps, Packet, PktKind};
use tlb_simnet::Scheme;
use tlb_switch::{LoadBalancer, OutPort, PortView, QueueCfg};

fn make_ports(n: usize) -> Vec<OutPort> {
    let link = LinkProps::gbps(1.0, SimTime::ZERO);
    let cfg = QueueCfg {
        capacity_pkts: 256,
        ecn_threshold_pkts: Some(20),
    };
    (0..n)
        .map(|i| {
            let mut p = OutPort::new(link, cfg);
            for s in 0..(i * 5 % 23) {
                p.enqueue(
                    Packet::data(
                        FlowId(9999),
                        HostId(0),
                        HostId(1),
                        s as u32,
                        1460,
                        40,
                        SimTime::ZERO,
                    ),
                    SimTime::ZERO,
                );
            }
            p
        })
        .collect()
}

fn stream(n: usize) -> Vec<Packet> {
    let mut rng = SimRng::new(5);
    (0..n)
        .map(|i| {
            let flow = FlowId(rng.gen_range(128) as u32);
            match i % 101 {
                0 => Packet::control(flow, HostId(0), HostId(20), PktKind::Syn, 0, SimTime::ZERO),
                1 => Packet::control(flow, HostId(0), HostId(20), PktKind::Fin, 0, SimTime::ZERO),
                _ => Packet::data(
                    flow,
                    HostId(0),
                    HostId(20),
                    i as u32,
                    1460,
                    40,
                    SimTime::ZERO,
                ),
            }
        })
        .collect()
}

fn bench_decisions(c: &mut Criterion) {
    let ports = make_ports(15);
    let pkts = stream(4096);
    let mut group = c.benchmark_group("lb_decision");
    let schemes = Scheme::extended_set();
    for scheme in schemes {
        // The balancer as the simulator calls it: enum match-dispatch.
        group.bench_function(format!("enum/{}", scheme.name()), |b| {
            b.iter_batched_ref(
                || (scheme.build_static(1), SimRng::new(3), SimTime::ZERO),
                |(lb, rng, now)| {
                    let mut acc = 0usize;
                    for pkt in &pkts {
                        *now += SimTime::from_nanos(500);
                        acc += lb.choose_uplink(pkt, PortView::new(&ports), *now, rng);
                    }
                    acc
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decisions);
criterion_main!(benches);
