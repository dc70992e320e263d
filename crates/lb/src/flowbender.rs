//! FlowBender-lite: flow-level congestion-triggered rerouting (Kabbani et
//! al., CoNEXT 2014). Extension baseline discussed in the paper's §8.
//!
//! Real FlowBender runs at the end host: the sender watches the fraction of
//! ECN-echoed ACKs per window and, when it exceeds a threshold, perturbs a
//! header field so ECMP rehashes the flow. This leaf-local variant keeps
//! the same control law but senses congestion directly at the decision
//! point — the flow's current uplink queue — which is the very state that
//! would have produced those ECN marks one hop later.

use tlb_engine::{SimRng, SimTime};
use tlb_net::Packet;
use tlb_switch::{FlowMap, LoadBalancer, PortView};

#[derive(Clone, Copy, Debug)]
struct BenderState {
    port: usize,
    /// Congested observations in the current window.
    marked: u32,
    /// Packets observed in the current window.
    total: u32,
}

/// Flow-level rerouting driven by a per-window congestion fraction: a flow
/// stays on its path until more than `frac_threshold` of its last
/// `window_pkts` packets found the path congested, then rehashes onto a
/// random other uplink.
#[derive(Debug)]
pub struct FlowBender {
    /// Queue length (packets) above which a path counts as congested —
    /// FlowBender inherits DCTCP's marking threshold.
    mark_threshold_pkts: usize,
    /// Fraction of congested observations that triggers a reroute
    /// (published default: 5%).
    frac_threshold: f64,
    /// Observation window in packets (≈ one congestion window).
    window_pkts: u32,
    flows: FlowMap<BenderState>,
    /// Flows rehashed off a dead uplink without a congestion trigger.
    forced: u64,
}

impl FlowBender {
    /// The published sensing threshold: DCTCP's K = 20 packets.
    pub const DEFAULT_MARK_THRESHOLD_PKTS: usize = 20;
    /// The published reroute trigger: 5% congested observations.
    pub const DEFAULT_FRAC_THRESHOLD: f64 = 0.05;
    /// One-window epochs: 32 packets.
    pub const DEFAULT_WINDOW_PKTS: u32 = 32;

    /// A FlowBender instance with explicit parameters.
    pub fn new(mark_threshold_pkts: usize, frac_threshold: f64, window_pkts: u32) -> FlowBender {
        assert!(window_pkts > 0);
        assert!((0.0..=1.0).contains(&frac_threshold));
        FlowBender {
            mark_threshold_pkts,
            frac_threshold,
            window_pkts,
            flows: FlowMap::new(),
            forced: 0,
        }
    }

    /// The published configuration: the three `DEFAULT_*` values.
    pub fn paper_default() -> FlowBender {
        FlowBender::new(
            Self::DEFAULT_MARK_THRESHOLD_PKTS,
            Self::DEFAULT_FRAC_THRESHOLD,
            Self::DEFAULT_WINDOW_PKTS,
        )
    }
}

impl LoadBalancer for FlowBender {
    fn choose_uplink(
        &mut self,
        pkt: &Packet,
        view: PortView<'_>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> usize {
        let initial = view.nth_live(rng.index(view.n_live()));
        let st = self
            .flows
            .touch_or_insert_with(pkt.flow, now, || BenderState {
                port: initial,
                marked: 0,
                total: 0,
            });
        let mut port = st.port;
        if !view.is_live(port) {
            // The cached uplink died: rehash immediately onto a live one and
            // restart the observation window.
            port = view.nth_live(rng.index(view.n_live()));
            st.port = port;
            st.marked = 0;
            st.total = 0;
            self.forced += 1;
        }
        st.total += 1;
        if view.qlen_pkts(port) >= self.mark_threshold_pkts {
            st.marked += 1;
        }
        if st.total >= self.window_pkts {
            let live = view.n_live();
            if st.marked as f64 / st.total as f64 > self.frac_threshold && live > 1 {
                // Rehash: any live uplink but the current one, expressed in
                // live-rank space so dead ports are never candidates.
                let jump = 1 + rng.index(live - 1);
                st.port = view.nth_live((view.live_rank(port) + jump) % live);
            }
            st.marked = 0;
            st.total = 0;
        }
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
    use tlb_net::{FlowId, HostId};
    use tlb_switch::OutPort;

    fn data(flow: u32, seq: u32) -> Packet {
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

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn stays_put_when_uncongested() {
        let ps = OutPort::filled(&[0, 0, 0, 0]);
        let mut lb = FlowBender::paper_default();
        let mut rng = SimRng::new(1);
        let p0 = lb.choose_uplink(&data(1, 0), PortView::new(&ps), us(0), &mut rng);
        for i in 1..200 {
            assert_eq!(
                lb.choose_uplink(&data(1, i), PortView::new(&ps), us(i as u64), &mut rng),
                p0,
                "no congestion -> no reroute"
            );
        }
    }

    #[test]
    fn reroutes_when_congested() {
        // Find the initial port, then congest it.
        let ps = OutPort::filled(&[0, 0, 0, 0]);
        let mut lb = FlowBender::paper_default();
        let mut rng = SimRng::new(2);
        let p0 = lb.choose_uplink(&data(1, 0), PortView::new(&ps), us(0), &mut rng);
        let mut lens = [0usize; 4];
        lens[p0] = 50; // far above the K=20 sensing threshold
        let congested = OutPort::filled(&lens);
        let mut moved = false;
        for i in 1..100 {
            let p = lb.choose_uplink(
                &data(1, i),
                PortView::new(&congested),
                us(i as u64),
                &mut rng,
            );
            if p != p0 {
                moved = true;
                break;
            }
        }
        assert!(moved, "persistent congestion must trigger a reroute");
    }

    #[test]
    fn below_fraction_threshold_does_not_trigger() {
        // One congested observation out of 32 (3%) stays under the 5% bar.
        let ps = OutPort::filled(&[0, 0]);
        let mut lb = FlowBender::paper_default();
        let mut rng = SimRng::new(3);
        let p0 = lb.choose_uplink(&data(1, 0), PortView::new(&ps), us(0), &mut rng);
        let mut lens = [0usize; 2];
        lens[p0] = 50;
        let congested = OutPort::filled(&lens);
        // 1 congested observation...
        lb.choose_uplink(&data(1, 1), PortView::new(&congested), us(1), &mut rng);
        // ...then 31 clean ones to finish the window.
        for i in 2..=32 {
            let p = lb.choose_uplink(&data(1, i), PortView::new(&ps), us(i as u64), &mut rng);
            assert_eq!(p, p0);
        }
        // Next window still on the same port.
        assert_eq!(
            lb.choose_uplink(&data(1, 40), PortView::new(&ps), us(40), &mut rng),
            p0
        );
    }

    #[test]
    fn reroute_picks_a_different_port() {
        let mut lb = FlowBender::new(1, 0.0, 1); // hair-trigger
        let mut rng = SimRng::new(4);
        let ps = OutPort::filled(&[30, 30, 30, 30]);
        let mut prev = lb.choose_uplink(&data(1, 0), PortView::new(&ps), us(0), &mut rng);
        for i in 1..50 {
            let p = lb.choose_uplink(&data(1, i), PortView::new(&ps), us(i as u64), &mut rng);
            assert_ne!(p, prev, "hair-trigger config must hop every packet");
            prev = p;
        }
    }
}
