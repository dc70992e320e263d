//! Cross-scheme fuzzing: every registered balancer must stay within its
//! port range and never panic, for any packet stream and queue state.

use super::Scheme;
use proptest::prelude::*;
use tlb_engine::{SimRng, SimTime};
use tlb_net::{FlowId, HostId, Packet, PktKind};
use tlb_switch::{LoadBalancer, OutPort, PortView};

fn packet(flow: u32, kind_sel: u8, seq: u32, now: SimTime) -> Packet {
    let kind = match kind_sel % 5 {
        0 => PktKind::Syn,
        1 => PktKind::SynAck,
        2 => PktKind::Data,
        3 => PktKind::Ack,
        _ => PktKind::Fin,
    };
    if kind == PktKind::Data {
        Packet::data(FlowId(flow), HostId(0), HostId(20), seq, 1460, 40, now)
    } else {
        Packet::control(FlowId(flow), HostId(0), HostId(20), kind, seq, now)
    }
}

proptest! {
    /// Every scheme of the registry, arbitrary queue states and packet streams
    /// (including SYN/FIN storms and reused flow ids): decisions stay in
    /// range; ticks may fire at any time.
    #[test]
    fn prop_schemes_never_escape_port_range(
        lens in proptest::collection::vec(0usize..80, 1..24),
        stream in proptest::collection::vec((0u32..32, 0u8..5, 0u32..100, 0u64..5_000), 1..300),
        seed in 0u64..1000,
    ) {
        let ps = OutPort::filled(&lens);
        let n = ps.len();
        for scheme in Scheme::extended_set() {
            let mut lb = scheme.build_static(seed);
            let mut rng = SimRng::new(seed);
            let mut now = SimTime::ZERO;
            let mut since_tick = SimTime::ZERO;
            for &(flow, kind, seq, dt_us) in &stream {
                let dt = SimTime::from_micros(dt_us);
                now += dt;
                since_tick += dt;
                if let Some(iv) = lb.tick_interval() {
                    if since_tick >= iv {
                        lb.on_tick(PortView::new(&ps), now);
                        since_tick = SimTime::ZERO;
                    }
                }
                let pkt = packet(flow, kind, seq, now);
                let port = lb.choose_uplink(&pkt, PortView::new(&ps), now, &mut rng);
                prop_assert!(
                    port < n,
                    "{} returned port {port} of {n}",
                    scheme.name()
                );
            }
            // State accounting must never go negative-ish or explode.
            prop_assert!(lb.state_bytes() < 10_000_000);
        }
    }
}
