//! DiffFlow: differentiated short/long flow splitting (extension).
//!
//! DiffFlow (Liu et al.) routes the many small flows with packet spraying —
//! they finish inside an RTT or two, so reordering is harmless — while the
//! few large flows that would suffer from reordering are pinned to a single
//! path once they cross a size threshold (the "few large rules" the SDN
//! formulation installs). It is the static-granularity cousin of TLB's
//! adaptive split: the short/long boundary is fixed up front instead of
//! being recomputed from the measured traffic.

use tlb_engine::{SimRng, SimTime};
use tlb_net::{Packet, PktKind};
use tlb_switch::{FlowMap, LoadBalancer, PortView};

#[derive(Clone, Copy, Debug)]
struct DiffState {
    /// Payload bytes seen from this flow so far.
    sent_bytes: u64,
    /// The pinned uplink; meaningful only once `pinned` is set.
    port: usize,
    /// Whether the flow crossed the threshold and got a dedicated rule.
    pinned: bool,
}

/// Short flows are sprayed per packet over the live uplinks; once a flow's
/// byte count exceeds [`DiffFlow::THRESHOLD_BYTES`] it is pinned to the then-shortest
/// queue and stays there (barring link failure) until its FIN removes the
/// rule.
#[derive(Debug, Default)]
pub struct DiffFlow {
    flows: FlowMap<DiffState>,
    /// Pinned flows moved because their uplink went down.
    forced: u64,
}

impl DiffFlow {
    /// The conventional short/long boundary: 100 KB.
    pub const THRESHOLD_BYTES: u64 = 100 * 1000;

    /// A DiffFlow balancer pinning flows past 100 KB.
    pub fn new() -> DiffFlow {
        DiffFlow::default()
    }
}

impl LoadBalancer for DiffFlow {
    fn choose_uplink(
        &mut self,
        pkt: &Packet,
        view: PortView<'_>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> usize {
        match pkt.kind {
            PktKind::Fin => {
                // Rule uninstall: the flow is over.
                self.flows.remove(pkt.flow);
                view.random_live(rng)
            }
            PktKind::Data => {
                let st = self
                    .flows
                    .touch_or_insert_with(pkt.flow, now, || DiffState {
                        sent_bytes: 0,
                        port: 0,
                        pinned: false,
                    });
                st.sent_bytes += pkt.payload_bytes as u64;
                if !st.pinned {
                    if st.sent_bytes <= Self::THRESHOLD_BYTES {
                        // Still short: spray.
                        return view.random_live(rng);
                    }
                    // Crossed the boundary: install the rule on the
                    // currently-shortest queue.
                    st.pinned = true;
                    st.port = view.shortest_bytes_rand(rng);
                    return st.port;
                }
                if view.is_live(st.port) {
                    st.port
                } else {
                    // Rule points at a dead uplink: re-install on a live one.
                    st.port = view.shortest_bytes_rand(rng);
                    self.forced += 1;
                    st.port
                }
            }
            // Control traffic never accumulates bytes and is sprayed.
            PktKind::Syn | PktKind::SynAck | PktKind::Ack => view.random_live(rng),
        }
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

    #[test]
    fn short_flows_spray_across_ports() {
        let ps = OutPort::filled(&[0; 8]);
        let mut lb = DiffFlow::new();
        let mut rng = SimRng::new(1);
        let mut used = [false; 8];
        for seq in 0..60 {
            // 60 * 1460 B < 100 kB: stays short the whole way.
            used[lb.choose_uplink(&data(1, seq), PortView::new(&ps), SimTime::ZERO, &mut rng)] =
                true;
        }
        assert!(used.iter().filter(|&&u| u).count() >= 6, "no spraying");
    }

    #[test]
    fn long_flows_pin_after_threshold() {
        let ps = OutPort::filled(&[0; 8]);
        let mut lb = DiffFlow::new();
        let mut rng = SimRng::new(2);
        // 70 packets push the flow over 100 kB.
        let mut last = 0;
        for seq in 0..70 {
            last = lb.choose_uplink(&data(1, seq), PortView::new(&ps), SimTime::ZERO, &mut rng);
        }
        for seq in 70..140 {
            assert_eq!(
                lb.choose_uplink(&data(1, seq), PortView::new(&ps), SimTime::ZERO, &mut rng),
                last,
                "pinned flow must not move"
            );
        }
        assert_eq!(lb.forced_reroutes(), Some(0));
    }

    #[test]
    fn fin_uninstalls_the_rule() {
        let ps = OutPort::filled(&[0; 4]);
        let mut lb = DiffFlow::new();
        let mut rng = SimRng::new(3);
        for seq in 0..80 {
            lb.choose_uplink(&data(1, seq), PortView::new(&ps), SimTime::ZERO, &mut rng);
        }
        assert_eq!(lb.flows.len(), 1);
        let fin = Packet::control(
            FlowId(1),
            HostId(0),
            HostId(9),
            PktKind::Fin,
            0,
            SimTime::ZERO,
        );
        lb.choose_uplink(&fin, PortView::new(&ps), SimTime::ZERO, &mut rng);
        assert_eq!(lb.flows.len(), 0);
    }

    #[test]
    fn dead_uplink_forces_a_reinstall() {
        let ps = OutPort::filled(&[0; 4]);
        let mut lb = DiffFlow::new();
        let mut rng = SimRng::new(4);
        let mut pinned = 0;
        for seq in 0..80 {
            pinned = lb.choose_uplink(&data(1, seq), PortView::new(&ps), SimTime::ZERO, &mut rng);
        }
        // Mask out the pinned port: next packet must move and count it.
        let mask = PortView::full_mask(4) & !(1u64 << pinned);
        let p = lb.choose_uplink(
            &data(1, 80),
            PortView::with_mask(&ps, mask),
            SimTime::ZERO,
            &mut rng,
        );
        assert_ne!(p, pinned);
        assert_eq!(lb.forced_reroutes(), Some(1));
        // Back on a full view the flow stays on its new rule.
        assert_eq!(
            lb.choose_uplink(&data(1, 81), PortView::new(&ps), SimTime::ZERO, &mut rng),
            p
        );
    }
}
