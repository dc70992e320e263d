//! The paper's Fig. 2 motivating story, on the real simulator: one long
//! flow and a burst of short flows behind 3 equal-cost paths, forwarded at
//! flow, packet, flowlet, and adaptive (TLB) granularity.
//!
//! ```sh
//! cargo run --release --example granularity_story
//! ```

use tlb::prelude::*;

fn main() {
    // Fig. 1's miniature fabric: one sending rack, 3 equal-cost paths.
    let build_cfg = |scheme: Scheme| {
        let mut cfg = SimConfig::basic_paper(scheme);
        cfg.topo = LeafSpineBuilder::new(2, 3, 8)
            .link_gbps(1.0)
            .target_rtt(SimTime::from_micros(100))
            .build();
        cfg
    };

    // S1 sends a long flow; S2/S3 send short flows shortly after (T1<T2<T3).
    let mk_flows = || {
        vec![
            FlowSpec {
                id: FlowId(0),
                src: HostId(0),
                dst: HostId(8),
                size_bytes: 8_000_000,
                start: SimTime::ZERO,
                deadline: None,
            },
            FlowSpec {
                id: FlowId(1),
                src: HostId(1),
                dst: HostId(9),
                size_bytes: 60_000,
                start: SimTime::from_micros(200),
                deadline: Some(SimTime::from_millis(10)),
            },
            FlowSpec {
                id: FlowId(2),
                src: HostId(2),
                dst: HostId(10),
                size_bytes: 60_000,
                start: SimTime::from_micros(400),
                deadline: Some(SimTime::from_millis(10)),
            },
        ]
    };

    println!("Fig. 2 on the simulator: 1 long + 2 short flows, 3 paths\n");
    println!(
        "{:<22} {:>16} {:>16} {:>14}",
        "granularity", "short AFCT(us)", "short p99(us)", "long(Mbit/s)"
    );

    let cases: Vec<(&str, Scheme)> = vec![
        ("flow (ECMP)", Scheme::Ecmp),
        ("packet (RPS)", Scheme::Rps),
        ("flowlet (LetFlow)", Scheme::LetFlow),
        ("adaptive (TLB)", Scheme::tlb_default()),
    ];

    for (label, scheme) in cases {
        let r = Simulation::new(build_cfg(scheme), mk_flows()).run();
        println!(
            "{:<22} {:>16.1} {:>16.1} {:>14.1}",
            label,
            r.fct_short.afct * 1e6,
            r.fct_short.p99 * 1e6,
            r.long_throughput() * 8.0 / 1e6,
        );
    }

    println!("\nFlow-level hashing can trap a short flow behind the long one;");
    println!("packet spraying mixes everyone everywhere; TLB parks the long");
    println!("flow and gives short flows the empty queues (Fig. 2(d)).");
}
