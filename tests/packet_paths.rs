//! Path-level assertions via the packet tracer: packets must traverse the
//! fabric exactly as the leaf-spine forwarding rules dictate.

use tlb::prelude::*;
use tlb::simnet::{Hop, TraceEvent};

fn run_traced(scheme: Scheme, flows: Vec<FlowSpec>, trace: &[u32]) -> RunReport {
    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.trace_flows = trace.iter().map(|&f| FlowId(f)).collect();
    Simulation::new(cfg, flows).run()
}

fn one_flow(src: u32, dst: u32, size: u64) -> Vec<FlowSpec> {
    vec![FlowSpec {
        id: FlowId(0),
        src: HostId(src),
        dst: HostId(dst),
        size_bytes: size,
        start: SimTime::ZERO,
        deadline: None,
    }]
}

/// The hops of flow 0's *data* packets, grouped per segment. (Concurrent
/// segments interleave in the time-ordered trace, so group by sequence
/// number; the tests use loss-free runs where each segment travels once.)
fn data_hops(traces: &[TraceEvent]) -> Vec<Vec<Hop>> {
    let mut by_seq: std::collections::BTreeMap<u32, Vec<Hop>> = Default::default();
    for t in traces.iter().filter(|t| t.kind == tlb::net::PktKind::Data) {
        by_seq.entry(t.seq).or_default().push(t.hop);
    }
    by_seq.into_values().collect()
}

#[test]
fn inter_rack_data_takes_the_canonical_path() {
    // Host 0 (leaf 0) -> host 20 (leaf 1): NIC -> leaf-up -> spine-down ->
    // leaf-down -> delivered. Every data packet, every time.
    let r = run_traced(Scheme::Ecmp, one_flow(0, 20, 50_000), &[0]);
    assert_eq!(r.completed, 1);
    let journeys = data_hops(&r.traces);
    assert!(!journeys.is_empty());
    for j in &journeys {
        assert_eq!(j.len(), 5, "hop count: {j:?}");
        assert!(matches!(j[0], Hop::HostNic { host: 0 }));
        let Hop::LeafUplink { leaf: 0, spine } = j[1] else {
            panic!("second hop not a leaf-0 uplink: {j:?}");
        };
        assert!(
            matches!(j[2], Hop::SpineDownlink { spine: s2, leaf: 1 } if s2 == spine),
            "spine mismatch: {j:?}"
        );
        assert!(matches!(j[3], Hop::LeafDownlink { leaf: 1, slot: 4 }));
        assert!(matches!(j[4], Hop::Delivered { host: 20 }));
    }
}

#[test]
fn intra_rack_data_never_touches_a_spine() {
    let r = run_traced(Scheme::Rps, one_flow(0, 5, 50_000), &[0]);
    assert_eq!(r.completed, 1);
    for t in &r.traces {
        assert!(
            !matches!(t.hop, Hop::LeafUplink { .. } | Hop::SpineDownlink { .. }),
            "intra-rack packet escaped the rack: {t:?}"
        );
    }
}

#[test]
fn ecmp_uses_one_spine_rps_uses_many() {
    let spine_set = |r: &RunReport| {
        let mut s: Vec<u16> = r
            .traces
            .iter()
            .filter(|t| t.kind == tlb::net::PktKind::Data)
            .filter_map(|t| match t.hop {
                Hop::LeafUplink { spine, .. } => Some(spine),
                _ => None,
            })
            .collect();
        s.sort_unstable();
        s.dedup();
        s.len()
    };
    let ecmp = run_traced(Scheme::Ecmp, one_flow(0, 20, 500_000), &[0]);
    assert_eq!(spine_set(&ecmp), 1, "ECMP must pin the flow to one spine");
    let rps = run_traced(Scheme::Rps, one_flow(0, 20, 500_000), &[0]);
    assert!(
        spine_set(&rps) >= 10,
        "RPS must spray across most of the 15 spines, used {}",
        spine_set(&rps)
    );
}

#[test]
fn acks_flow_backwards_through_the_fabric() {
    let r = run_traced(Scheme::Ecmp, one_flow(0, 20, 20_000), &[0]);
    let ack_hops: Vec<&TraceEvent> = r
        .traces
        .iter()
        .filter(|t| t.kind == tlb::net::PktKind::Ack)
        .collect();
    assert!(!ack_hops.is_empty(), "acks must be traced too");
    // ACKs originate at host 20's NIC and climb leaf 1's uplinks.
    assert!(ack_hops
        .iter()
        .any(|t| matches!(t.hop, Hop::HostNic { host: 20 })));
    assert!(ack_hops
        .iter()
        .any(|t| matches!(t.hop, Hop::LeafUplink { leaf: 1, .. })));
    assert!(ack_hops
        .iter()
        .any(|t| matches!(t.hop, Hop::Delivered { host: 0 })));
}

#[test]
fn untraced_flows_leave_no_records() {
    let flows = vec![
        FlowSpec {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(20),
            size_bytes: 30_000,
            start: SimTime::ZERO,
            deadline: None,
        },
        FlowSpec {
            id: FlowId(1),
            src: HostId(1),
            dst: HostId(21),
            size_bytes: 30_000,
            start: SimTime::ZERO,
            deadline: None,
        },
    ];
    let r = run_traced(Scheme::Ecmp, flows, &[1]);
    assert!(r.traces.iter().all(|t| t.flow == FlowId(1)));
    assert!(!r.traces.is_empty());
}

#[test]
fn syn_handshake_is_visible_in_the_trace() {
    let r = run_traced(Scheme::Ecmp, one_flow(0, 20, 10_000), &[0]);
    let kinds: Vec<tlb::net::PktKind> = r
        .traces
        .iter()
        .filter(|t| matches!(t.hop, Hop::Delivered { .. }))
        .map(|t| t.kind)
        .collect();
    use tlb::net::PktKind::*;
    assert_eq!(kinds[0], Syn, "first delivery must be the SYN");
    assert_eq!(kinds[1], SynAck, "then the SYN-ACK back");
    assert!(kinds.contains(&Data));
    // The run ends the instant the last byte lands, so the final delivery
    // is the completing data segment (the FIN never gets to travel).
    assert_eq!(*kinds.last().unwrap(), Data);
}

#[test]
fn trace_times_are_monotone() {
    let r = run_traced(Scheme::LetFlow, one_flow(0, 20, 100_000), &[0]);
    for w in r.traces.windows(2) {
        assert!(w[0].at <= w[1].at, "trace out of order: {w:?}");
    }
}
