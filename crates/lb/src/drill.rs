//! DRILL: micro load balancing via power-of-two-choices (Ghorbani et al.,
//! SIGCOMM 2017). Extension baseline discussed in the paper's §8.

use tlb_engine::{SimRng, SimTime};
use tlb_net::Packet;
use tlb_switch::{LoadBalancer, PortView};

/// DRILL(2, 1): for each packet, sample [`Drill::D`] = 2 random uplinks,
/// compare them with the one best port remembered from the previous
/// decision, and send the packet to the least-loaded of the
/// candidates — "two choices plus memory" (Mitzenmacher's power of two
/// choices applied per packet), DRILL's published configuration.
#[derive(Debug, Default)]
pub struct Drill {
    /// The previous decision's winner.
    memory: Option<usize>,
}

impl Drill {
    /// The published random samples per decision: 2.
    pub const D: usize = 2;

    /// A DRILL(2, 1) instance.
    pub fn new() -> Drill {
        Drill::default()
    }
}

impl LoadBalancer for Drill {
    fn choose_uplink(
        &mut self,
        _pkt: &Packet,
        view: PortView<'_>,
        _now: SimTime,
        rng: &mut SimRng,
    ) -> usize {
        let n = view.n_ports();
        // Sample uniformly over the live uplinks only; a remembered port is
        // considered only while it stays live.
        let mut best = view.random_live(rng);
        let mut best_len = view.qlen_bytes(best);
        let consider = |cand: usize, best: &mut usize, best_len: &mut u64| {
            let l = view.qlen_bytes(cand);
            if l < *best_len {
                *best = cand;
                *best_len = l;
            }
        };
        for _ in 1..Self::D {
            consider(view.random_live(rng), &mut best, &mut best_len);
        }
        if let Some(cand) = self.memory {
            if cand < n && view.is_live(cand) {
                consider(cand, &mut best, &mut best_len);
            }
        }
        // Remember the winner for the next decision.
        self.memory = Some(best);
        best
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_net::{FlowId, HostId};
    use tlb_switch::OutPort;

    fn pkt() -> Packet {
        Packet::data(FlowId(1), HostId(0), HostId(9), 0, 1460, 40, SimTime::ZERO)
    }

    #[test]
    fn prefers_empty_queue_strongly() {
        // One empty port among 4 loaded ones: DRILL(2,1) converges onto it
        // and keeps choosing it thanks to memory.
        let ps = OutPort::filled(&[50, 50, 0, 50]);
        let mut lb = Drill::new();
        let mut rng = SimRng::new(1);
        let mut hits = 0;
        for _ in 0..200 {
            if lb.choose_uplink(&pkt(), PortView::new(&ps), SimTime::ZERO, &mut rng) == 2 {
                hits += 1;
            }
        }
        // Once found (p >= 1-(3/4)^2 per trial), memory locks on.
        assert!(
            hits > 150,
            "DRILL failed to lock onto the empty port: {hits}/200"
        );
    }

    #[test]
    fn never_picks_worse_than_sampled() {
        // The loaded port 0 wins only while both samples and the memory
        // hold it; once the empty port 1 is sampled, memory keeps it.
        let ps = OutPort::filled(&[10, 0]);
        let mut lb = Drill::new();
        let mut rng = SimRng::new(2);
        let picks: Vec<usize> = (0..500)
            .map(|_| lb.choose_uplink(&pkt(), PortView::new(&ps), SimTime::ZERO, &mut rng))
            .collect();
        let found = picks.iter().position(|&p| p == 1).expect("port 1 sampled");
        assert!(found < 10, "port 1 first picked at decision {found}");
        assert!(picks[found..].iter().all(|&p| p == 1), "{picks:?}");
    }

    #[test]
    fn memory_holds_the_last_winner() {
        let ps = OutPort::filled(&[1, 1, 1]);
        let mut lb = Drill::new();
        let mut rng = SimRng::new(3);
        assert_eq!(lb.memory, None);
        for _ in 0..10 {
            let p = lb.choose_uplink(&pkt(), PortView::new(&ps), SimTime::ZERO, &mut rng);
            assert_eq!(lb.memory, Some(p));
        }
    }
}
