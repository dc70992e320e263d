//! WCMP: weighted ECMP (extension). The static answer to asymmetry —
//! hash flows onto uplinks with probability proportional to each link's
//! capacity, so a half-bandwidth link gets half the flows. No reordering,
//! no adaptivity: the baseline that separates "knowing the topology" from
//! "sensing the traffic" in the Fig. 16/17 comparisons.

use tlb_engine::{SimRng, SimTime};
use tlb_net::Packet;
use tlb_switch::{FlowMap, LoadBalancer, PortView};

/// Capacity-weighted flow-level hashing. The flow→port map is drawn once
/// per flow (weighted by `link_bytes_per_sec`) and pinned, ECMP-style.
#[derive(Debug)]
pub struct Wcmp {
    flows: FlowMap<usize>,
    /// Flows re-drawn because their pinned uplink died.
    forced: u64,
}

impl Wcmp {
    /// A new WCMP balancer.
    pub fn new() -> Wcmp {
        Wcmp {
            flows: FlowMap::new(),
            forced: 0,
        }
    }

    fn weighted_pick(view: &PortView<'_>, rng: &mut SimRng) -> usize {
        let n = view.n_ports();
        let total: u64 = (0..n)
            .filter(|&i| view.is_live(i))
            .map(|i| view.link_bytes_per_sec(i))
            .sum();
        if total == 0 {
            return view.random_live(rng);
        }
        let mut x = rng.gen_range(total);
        let mut last = 0;
        for i in 0..n {
            if !view.is_live(i) {
                continue;
            }
            let w = view.link_bytes_per_sec(i);
            if x < w {
                return i;
            }
            x -= w;
            last = i;
        }
        last
    }
}

impl Default for Wcmp {
    fn default() -> Self {
        Wcmp::new()
    }
}

impl LoadBalancer for Wcmp {
    fn choose_uplink(
        &mut self,
        pkt: &Packet,
        view: PortView<'_>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> usize {
        if let Some((entry, _)) = self.flows.touch(pkt.flow, now) {
            let pinned = *entry;
            if view.is_live(pinned) {
                return pinned;
            }
            // The pinned uplink died: re-draw from the live capacity
            // distribution and re-pin.
            let port = Self::weighted_pick(&view, rng);
            *entry = port;
            self.forced += 1;
            return port;
        }
        let port = Self::weighted_pick(&view, rng);
        self.flows.touch_or_insert_with(pkt.flow, now, || port);
        port
    }

    fn on_tick(&mut self, _view: PortView<'_>, now: SimTime) {
        self.flows.purge_idle(now, SimTime::from_millis(50));
    }

    fn tick_interval(&self) -> Option<SimTime> {
        Some(SimTime::from_millis(10))
    }

    fn state_bytes(&self) -> usize {
        self.flows.state_bytes()
    }

    fn forced_reroutes(&self) -> Option<u64> {
        Some(self.forced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_net::{FlowId, HostId, LinkProps};
    use tlb_switch::{OutPort, QueueCfg};

    fn ports_with_bw(gbps: &[f64]) -> Vec<OutPort> {
        let cfg = QueueCfg {
            capacity_pkts: 64,
            ecn_threshold_pkts: None,
        };
        gbps.iter()
            .map(|&g| OutPort::new(LinkProps::gbps(g, SimTime::ZERO), cfg))
            .collect()
    }

    fn data(flow: u32) -> Packet {
        Packet::data(
            FlowId(flow),
            HostId(0),
            HostId(9),
            0,
            1460,
            40,
            SimTime::ZERO,
        )
    }

    #[test]
    fn flows_are_pinned() {
        let ps = ports_with_bw(&[1.0, 1.0, 1.0]);
        let mut lb = Wcmp::new();
        let mut rng = SimRng::new(1);
        let p0 = lb.choose_uplink(&data(1), PortView::new(&ps), SimTime::ZERO, &mut rng);
        for _ in 0..50 {
            assert_eq!(
                lb.choose_uplink(&data(1), PortView::new(&ps), SimTime::ZERO, &mut rng),
                p0
            );
        }
    }

    #[test]
    fn weights_follow_capacity() {
        // Port 0 at 1 Gbit/s, port 1 at 0.25 Gbit/s: expect an 80/20 split.
        let ps = ports_with_bw(&[1.0, 0.25]);
        let mut lb = Wcmp::new();
        let mut rng = SimRng::new(2);
        let mut on_fast = 0;
        let n = 5000;
        for f in 0..n {
            if lb.choose_uplink(&data(f), PortView::new(&ps), SimTime::ZERO, &mut rng) == 0 {
                on_fast += 1;
            }
        }
        let frac = on_fast as f64 / n as f64;
        assert!(
            (0.76..0.84).contains(&frac),
            "fast-link share {frac}, expected ~0.8"
        );
    }

    #[test]
    fn symmetric_weights_spread_evenly() {
        let ps = ports_with_bw(&[1.0; 8]);
        let mut lb = Wcmp::new();
        let mut rng = SimRng::new(3);
        let mut counts = [0usize; 8];
        for f in 0..8000 {
            counts[lb.choose_uplink(&data(f), PortView::new(&ps), SimTime::ZERO, &mut rng)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed: {counts:?}");
        }
    }
}
