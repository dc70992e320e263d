//! ECMP: flow-level hashing (RFC 2992), the paper's weakest baseline.

use tlb_engine::{SimRng, SimTime};
use tlb_net::Packet;
use tlb_switch::{LoadBalancer, PortView};

/// Equal-Cost Multi-Path: every packet of a flow takes the uplink selected
/// by a static hash of the flow id. No state, no adaptivity — flows that
/// collide on a port stay collided (§1: "hash collisions and the inability
/// to reroute flow adaptively").
#[derive(Clone, Debug, Default)]
pub struct Ecmp {
    /// Per-switch hash salt so different leaves hash differently, like
    /// per-switch ECMP seeds in real fabrics.
    salt: u64,
}

impl Ecmp {
    /// An ECMP instance with the given per-switch salt.
    pub fn new(salt: u64) -> Ecmp {
        Ecmp { salt }
    }

    #[inline]
    fn hash(&self, flow: u32) -> u64 {
        // SplitMix64-style avalanche over (flow, salt).
        let mut z = (flow as u64) ^ self.salt.rotate_left(17);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl LoadBalancer for Ecmp {
    fn name(&self) -> &'static str {
        "ECMP"
    }

    fn choose_uplink(
        &mut self,
        pkt: &Packet,
        view: PortView<'_>,
        _now: SimTime,
        _rng: &mut SimRng,
    ) -> usize {
        // Hash over the *live* uplinks: with every port up this is the
        // historical `hash % n_ports`; after a failure the same hash space
        // redistributes over the survivors (next-hop group shrink).
        view.nth_live((self.hash(pkt.flow.0) % view.n_live() as u64) as usize)
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_net::{FlowId, HostId, PktKind};
    use tlb_switch::OutPort;

    fn pkt(flow: u32, seq: u32) -> Packet {
        Packet::data(
            FlowId(flow),
            HostId(0),
            HostId(9),
            seq,
            1460,
            40,
            SimTime::ZERO,
        )
    }

    #[test]
    fn same_flow_same_port() {
        let ps = OutPort::filled(&[0; 8]);
        let mut lb = Ecmp::new(1);
        let mut rng = SimRng::new(0);
        let first = lb.choose_uplink(&pkt(7, 0), PortView::new(&ps), SimTime::ZERO, &mut rng);
        for seq in 1..100 {
            let p = lb.choose_uplink(&pkt(7, seq), PortView::new(&ps), SimTime::ZERO, &mut rng);
            assert_eq!(p, first, "ECMP must never reroute a flow");
        }
    }

    #[test]
    fn spreads_many_flows() {
        let ps = OutPort::filled(&[0; 8]);
        let mut lb = Ecmp::new(42);
        let mut rng = SimRng::new(0);
        let mut counts = [0usize; 8];
        for f in 0..4000 {
            counts[lb.choose_uplink(&pkt(f, 0), PortView::new(&ps), SimTime::ZERO, &mut rng)] += 1;
        }
        // Roughly uniform: each port within 40% of the mean.
        for &c in &counts {
            assert!((300..=700).contains(&c), "skewed hash: {counts:?}");
        }
    }

    #[test]
    fn control_packets_follow_the_flow() {
        let ps = OutPort::filled(&[0; 4]);
        let mut lb = Ecmp::new(3);
        let mut rng = SimRng::new(0);
        let d = lb.choose_uplink(&pkt(11, 0), PortView::new(&ps), SimTime::ZERO, &mut rng);
        let syn = Packet::control(
            FlowId(11),
            HostId(0),
            HostId(9),
            PktKind::Syn,
            0,
            SimTime::ZERO,
        );
        assert_eq!(
            lb.choose_uplink(&syn, PortView::new(&ps), SimTime::ZERO, &mut rng),
            d
        );
    }

    #[test]
    fn salts_decorrelate_switches() {
        let ps = OutPort::filled(&[0; 16]);
        let mut rng = SimRng::new(0);
        let mut a = Ecmp::new(1);
        let mut b = Ecmp::new(2);
        let same = (0..256u32)
            .filter(|&f| {
                a.choose_uplink(&pkt(f, 0), PortView::new(&ps), SimTime::ZERO, &mut rng)
                    == b.choose_uplink(&pkt(f, 0), PortView::new(&ps), SimTime::ZERO, &mut rng)
            })
            .count();
        // Expect ~1/16 collisions, certainly not all.
        assert!(same < 64, "salts do not decorrelate: {same}/256");
    }
}
