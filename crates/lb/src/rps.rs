//! RPS: random packet spraying (Dixit et al., INFOCOM 2013).

use tlb_engine::{SimRng, SimTime};
use tlb_net::Packet;
use tlb_switch::{LoadBalancer, PortView};

/// Random Packet Spraying: every packet independently takes a uniformly
/// random uplink. Maximizes instantaneous balance and link utilization but
/// reorders heavily whenever path delays diverge (§2.2, Fig. 3(b)).
#[derive(Clone, Debug, Default)]
pub struct Rps;

impl Rps {
    /// A new sprayer (stateless).
    pub fn new() -> Rps {
        Rps
    }
}

impl LoadBalancer for Rps {
    fn choose_uplink(
        &mut self,
        _pkt: &Packet,
        view: PortView<'_>,
        _now: SimTime,
        rng: &mut SimRng,
    ) -> usize {
        // Spray over the live uplinks only. With a full mask this draws the
        // identical random index the unmasked code drew.
        view.nth_live(rng.index(view.n_live()))
    }

    fn state_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_net::{FlowId, HostId};
    use tlb_switch::OutPort;

    #[test]
    fn covers_all_ports_uniformly() {
        let ps = OutPort::filled(&[0; 5]);
        let mut lb = Rps::new();
        let mut rng = SimRng::new(7);
        let pkt = Packet::data(FlowId(1), HostId(0), HostId(9), 0, 1460, 40, SimTime::ZERO);
        let mut counts = [0usize; 5];
        for _ in 0..5000 {
            counts[lb.choose_uplink(&pkt, PortView::new(&ps), SimTime::ZERO, &mut rng)] += 1;
        }
        for &c in &counts {
            assert!((800..=1200).contains(&c), "not uniform: {counts:?}");
        }
    }

    #[test]
    fn single_flow_uses_many_ports() {
        // Unlike ECMP, one flow's packets must spread.
        let ps = OutPort::filled(&[0; 8]);
        let mut lb = Rps::new();
        let mut rng = SimRng::new(3);
        let mut used = [false; 8];
        for seq in 0..64 {
            let pkt = Packet::data(
                FlowId(1),
                HostId(0),
                HostId(9),
                seq,
                1460,
                40,
                SimTime::ZERO,
            );
            used[lb.choose_uplink(&pkt, PortView::new(&ps), SimTime::ZERO, &mut rng)] = true;
        }
        assert!(used.iter().filter(|&&u| u).count() >= 6);
    }
}
