//! DRILL: micro load balancing via power-of-two-choices (Ghorbani et al.,
//! SIGCOMM 2017). Extension baseline discussed in the paper's §8.

use tlb_engine::{SimRng, SimTime};
use tlb_net::Packet;
use tlb_switch::{LoadBalancer, PortView};

/// DRILL(d, m): for each packet, sample `d` random uplinks, compare them with
/// the `m` remembered best ports from the previous decision, and send the
/// packet to the least-loaded of the candidates. The classic configuration is
/// DRILL(2, 1) — "two choices plus memory" (Mitzenmacher's power of two
/// choices applied per packet).
#[derive(Debug)]
pub struct Drill {
    d: usize,
    memory: Vec<usize>,
    m: usize,
}

impl Drill {
    /// The published random samples per decision: 2.
    pub const DEFAULT_D: usize = 2;
    /// The published remembered best ports: 1.
    pub const DEFAULT_M: usize = 1;

    /// A DRILL instance sampling `d` random ports with `m` remembered ports.
    pub fn new(d: usize, m: usize) -> Drill {
        assert!(d >= 1, "DRILL needs at least one random sample");
        Drill {
            d,
            memory: Vec::with_capacity(m),
            m,
        }
    }

    /// The published default: DRILL(2, 1).
    pub fn default_config() -> Drill {
        Drill::new(Self::DEFAULT_D, Self::DEFAULT_M)
    }
}

impl LoadBalancer for Drill {
    fn name(&self) -> &'static str {
        "DRILL"
    }

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
        let mut best = view.nth_live(rng.index(view.n_live()));
        let mut best_len = view.qlen_bytes(best);
        let consider = |cand: usize, best: &mut usize, best_len: &mut u64| {
            let l = view.qlen_bytes(cand);
            if l < *best_len {
                *best = cand;
                *best_len = l;
            }
        };
        for _ in 1..self.d {
            consider(
                view.nth_live(rng.index(view.n_live())),
                &mut best,
                &mut best_len,
            );
        }
        for &cand in &self.memory {
            if cand < n && view.is_live(cand) {
                consider(cand, &mut best, &mut best_len);
            }
        }
        // Remember the winner for the next decision.
        self.memory.clear();
        if self.m > 0 {
            self.memory.push(best);
        }
        best
    }

    fn state_bytes(&self) -> usize {
        (self.m + 1) * std::mem::size_of::<usize>()
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
        let mut lb = Drill::default_config();
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
        let ps = OutPort::filled(&[10, 0]);
        let mut lb = Drill::new(2, 0); // d=2 over 2 ports: sees both often
        let mut rng = SimRng::new(2);
        let mut worst_picks = 0;
        for _ in 0..500 {
            if lb.choose_uplink(&pkt(), PortView::new(&ps), SimTime::ZERO, &mut rng) == 0 {
                worst_picks += 1;
            }
        }
        // Picking port 0 requires both samples to be port 0: p = 1/4.
        assert!(
            (50..=200).contains(&worst_picks),
            "unexpected loaded-port rate: {worst_picks}/500"
        );
    }

    #[test]
    fn memory_capacity_respected() {
        let ps = OutPort::filled(&[1, 1, 1]);
        let mut lb = Drill::new(2, 1);
        let mut rng = SimRng::new(3);
        for _ in 0..10 {
            lb.choose_uplink(&pkt(), PortView::new(&ps), SimTime::ZERO, &mut rng);
            assert!(lb.memory.len() <= 1);
        }
        let mut no_mem = Drill::new(1, 0);
        for _ in 0..10 {
            no_mem.choose_uplink(&pkt(), PortView::new(&ps), SimTime::ZERO, &mut rng);
            assert!(no_mem.memory.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least one random sample")]
    fn rejects_zero_samples() {
        let _ = Drill::new(0, 1);
    }
}
