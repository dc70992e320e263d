//! Fig. 15 — leaf-switch overhead per scheme. The paper measures BMv2 CPU
//! and memory utilization; the simulator-level analogues (substitution
//! documented in DESIGN.md) are:
//!
//! (a) **CPU** — nanoseconds per forwarding decision, measured by driving
//!     each balancer with a realistic packet stream against a loaded
//!     15-port view (the criterion bench `lb_decision` cross-checks this);
//! (b) **memory** — peak bytes of balancer state during the basic mixed
//!     workload (flow/flowlet tables, counters).

use tlb_bench::{basic_scenario, Out, Scale};
use tlb_engine::{SimRng, SimTime};
use tlb_net::{FlowId, HostId, LinkProps, Packet, PktKind};
use tlb_simnet::Scheme;
use tlb_switch::{LoadBalancer, OutPort, PortView, QueueCfg};

/// Build a 15-uplink view with mixed queue lengths.
fn make_ports() -> Vec<OutPort> {
    let link = LinkProps::gbps(1.0, SimTime::ZERO);
    let cfg = QueueCfg {
        capacity_pkts: 256,
        ecn_threshold_pkts: Some(20),
    };
    (0..15)
        .map(|i| {
            let mut p = OutPort::new(link, cfg);
            for s in 0..(i * 3 % 17) {
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

/// A packet stream resembling the basic workload: 100 flows, mostly data,
/// occasional SYN/FIN.
fn make_stream(n: usize, rng: &mut SimRng) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let flow = FlowId(rng.gen_range(100) as u32);
            match i % 97 {
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

fn measure_decision_ns(scheme: &Scheme) -> f64 {
    let ports = make_ports();
    let mut rng = SimRng::new(7);
    let stream = make_stream(200_000, &mut rng);
    let mut lb = scheme.build_static(1);
    let mut now = SimTime::ZERO;
    // Warm up the flow tables.
    for pkt in &stream[..10_000] {
        now += SimTime::from_nanos(500);
        std::hint::black_box(lb.choose_uplink(pkt, PortView::new(&ports), now, &mut rng));
    }
    let t0 = std::time::Instant::now();
    for pkt in &stream[10_000..] {
        now += SimTime::from_nanos(500);
        std::hint::black_box(lb.choose_uplink(pkt, PortView::new(&ports), now, &mut rng));
    }
    t0.elapsed().as_nanos() as f64 / (stream.len() - 10_000) as f64
}

fn main() {
    let _ = Scale::from_env();
    let mut out = Out::new("fig15");
    out.line("Fig. 15 — leaf-switch overhead (simulator analogue)");
    out.blank();

    let schemes = Scheme::paper_set();

    out.line("(a) CPU: per-packet forwarding-decision cost (ns)");
    for s in &schemes {
        out.line(&format!(
            "{:<10} {:>8.1} ns/decision",
            s.name(),
            measure_decision_ns(s)
        ));
    }
    out.blank();

    out.line("(b) memory: peak balancer state during the basic workload (bytes)");
    let seed = tlb_bench::scale::base_seed();
    for s in &schemes {
        let r = basic_scenario(s.clone(), 100, 3, seed);
        out.line(&format!(
            "{:<10} {:>8} bytes",
            r.scheme, r.lb_state_bytes_peak
        ));
    }
    out.blank();
    out.line("expected shape (paper): ECMP/RPS/Presto near-zero overhead;");
    out.line("TLB adds a small flow table and periodic computation — visible");
    out.line("but not excessive.");
    out.save();
}
