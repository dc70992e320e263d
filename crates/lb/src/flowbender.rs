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
/// stays on its path until more than [`FlowBender::FRAC_THRESHOLD`] of its
/// last [`FlowBender::WINDOW_PKTS`] packets found the path congested, then
/// rehashes onto a random other uplink.
#[derive(Debug, Default)]
pub struct FlowBender {
    flows: FlowMap<BenderState>,
    /// Flows rehashed off a dead uplink without a congestion trigger.
    forced: u64,
}

impl FlowBender {
    /// Queue length (packets) at which a path counts as congested —
    /// FlowBender's published sensing threshold, DCTCP's K = 20 packets.
    pub const MARK_THRESHOLD_PKTS: usize = 20;
    /// The published reroute trigger: 5% congested observations.
    pub const FRAC_THRESHOLD: f64 = 0.05;
    /// Observation window (≈ one congestion window): 32 packets.
    pub const WINDOW_PKTS: u32 = 32;

    /// A FlowBender instance with the published parameters.
    pub fn new() -> FlowBender {
        FlowBender::default()
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
        let st = self
            .flows
            .touch_or_insert_with(pkt.flow, now, || BenderState {
                port: view.random_live(rng),
                marked: 0,
                total: 0,
            });
        let mut port = st.port;
        if !view.is_live(port) {
            // The cached uplink died: rehash immediately onto a live one and
            // restart the observation window.
            port = view.random_live(rng);
            st.port = port;
            st.marked = 0;
            st.total = 0;
            self.forced += 1;
        }
        st.total += 1;
        if view.qlen_pkts(port) >= Self::MARK_THRESHOLD_PKTS {
            st.marked += 1;
        }
        if st.total >= Self::WINDOW_PKTS {
            let live = view.n_live();
            if st.marked as f64 / st.total as f64 > Self::FRAC_THRESHOLD && live > 1 {
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
    fn an_established_uncongested_flow_draws_nothing() {
        let ps = OutPort::filled(&[0, 0, 0, 0]);
        let mut lb = FlowBender::new();
        let mut rng = SimRng::new(5);
        lb.choose_uplink(&data(1, 0), PortView::new(&ps), us(0), &mut rng);
        let mut twin = rng.clone();
        lb.choose_uplink(&data(1, 1), PortView::new(&ps), us(1), &mut rng);
        assert_eq!(
            rng.next_u64(),
            twin.next_u64(),
            "only a new flow draws its initial uplink"
        );
    }

    #[test]
    fn stays_put_when_uncongested() {
        let ps = OutPort::filled(&[0, 0, 0, 0]);
        let mut lb = FlowBender::new();
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
        let mut lb = FlowBender::new();
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
        let mut lb = FlowBender::new();
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
        // Every uplink above K: each 32-packet window ends in a rehash.
        let mut lb = FlowBender::new();
        let mut rng = SimRng::new(4);
        let ps = OutPort::filled(&[30, 30, 30, 30]);
        let window = FlowBender::WINDOW_PKTS as usize;
        let seen: Vec<usize> = (0..8 * window as u32)
            .map(|i| lb.choose_uplink(&data(1, i), PortView::new(&ps), us(i as u64), &mut rng))
            .collect();
        let windows: Vec<&[usize]> = seen.chunks(window).collect();
        for w in &windows {
            assert!(
                w.iter().all(|&p| p == w[0]),
                "one port per window: {seen:?}"
            );
        }
        for pair in windows.windows(2) {
            assert_ne!(pair[0][0], pair[1][0], "every window must rehash: {seen:?}");
        }
    }
}
