//! Hermes-lite: cautious, comprehensively-sensed rerouting (Zhang et al.,
//! SIGCOMM 2017). Extension baseline — the paper's §8 contrasts TLB against
//! Hermes directly ("Hermes reroutes flows only when the size sent exceeds
//! a given threshold and cautiously makes rerouting decisions only when it
//! will be benefit").
//!
//! Real Hermes is end-host based and senses ECN/RTT/retransmissions; this
//! leaf-local variant keeps its two signature rules:
//!
//! 1. **Size gating** — a flow may only be rerouted after it has sent more
//!    than [`HermesLite::REROUTE_SIZE_BYTES`] (avoids reordering short
//!    flows);
//! 2. **Cautious benefit check** — reroute only when the current path is
//!    congested *and* the best alternative is at least
//!    [`HermesLite::BENEFIT_FACTOR`]× shorter, so marginal moves (which cost
//!    reordering but gain little) are skipped.

use tlb_engine::{SimRng, SimTime};
use tlb_net::{Packet, PktKind};
use tlb_switch::{FlowMap, LoadBalancer, PortView};

#[derive(Clone, Copy, Debug)]
struct HermesState {
    port: usize,
    sent_bytes: u64,
}

/// Cautious flow-level rerouting with size gating and a benefit test.
#[derive(Debug, Default)]
pub struct HermesLite {
    flows: FlowMap<HermesState>,
    /// Flows moved off a dead uplink, bypassing the size gate and benefit
    /// check (the old path no longer exists, caution does not apply).
    forced: u64,
}

impl HermesLite {
    /// The Hermes paper's size gate: 100 KB sent before a reroute.
    pub const REROUTE_SIZE_BYTES: u64 = 100_000;
    /// Queue length (packets) at which the current path counts as
    /// congested: DCTCP's marking threshold, 20 packets.
    pub const CONGESTED_PKTS: usize = 20;
    /// Required improvement: a move must at least halve the queue the flow
    /// sees (`best_qlen * BENEFIT_FACTOR <= cur_qlen`).
    pub const BENEFIT_FACTOR: f64 = 2.0;

    /// A Hermes-lite instance with the three constants above.
    pub fn new() -> HermesLite {
        HermesLite::default()
    }
}

impl LoadBalancer for HermesLite {
    fn choose_uplink(
        &mut self,
        pkt: &Packet,
        view: PortView<'_>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> usize {
        // New flows start ECMP-like: uniform over the live uplinks.
        let st = self
            .flows
            .touch_or_insert_with(pkt.flow, now, || HermesState {
                port: view.random_live(rng),
                sent_bytes: 0,
            });
        let mut cur = st.port;
        if pkt.kind == PktKind::Data {
            st.sent_bytes += pkt.payload_bytes as u64;
        }
        if !view.is_live(cur) {
            // Dead uplink: move to the (live) shortest queue regardless of
            // size gate or benefit — there is nothing to stay cautious about.
            cur = view.shortest_bytes_rand(rng);
            st.port = cur;
            self.forced += 1;
            return cur;
        }
        // Size gate: young flows never move.
        if st.sent_bytes <= Self::REROUTE_SIZE_BYTES {
            return cur;
        }
        // Cautious reroute: current path congested AND clear benefit.
        let cur_len = view.qlen_pkts(cur);
        if cur_len < Self::CONGESTED_PKTS {
            return cur;
        }
        let best = view.shortest_bytes_rand(rng);
        let best_len = view.qlen_pkts(best);
        if (best_len as f64) * Self::BENEFIT_FACTOR <= cur_len as f64 {
            st.port = best;
            best
        } else {
            cur
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

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    /// Pump enough data through flow 1 to pass the 100 kB size gate.
    fn warm_up(lb: &mut HermesLite, ps: &[OutPort], rng: &mut SimRng) -> usize {
        let mut port = 0;
        for seq in 0..70 {
            port = lb.choose_uplink(&data(1, seq), PortView::new(ps), us(seq as u64), rng);
        }
        port
    }

    #[test]
    fn an_established_uncongested_flow_draws_nothing() {
        let mut lb = HermesLite::new();
        let mut rng = SimRng::new(5);
        let ps = OutPort::filled(&[0, 0, 0]);
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
    fn young_flows_never_move() {
        // Flow under 100 kB stays put even on a congested path.
        let mut lb = HermesLite::new();
        let mut rng = SimRng::new(1);
        let ps = OutPort::filled(&[0, 0, 0]);
        let p0 = lb.choose_uplink(&data(1, 0), PortView::new(&ps), us(0), &mut rng);
        let mut lens = [0usize; 3];
        lens[p0] = 100; // heavily congested
        let congested = OutPort::filled(&lens);
        for seq in 1..30 {
            // 30 * 1460 B < 100 kB: still gated.
            assert_eq!(
                lb.choose_uplink(
                    &data(1, seq),
                    PortView::new(&congested),
                    us(seq as u64),
                    &mut rng
                ),
                p0
            );
        }
    }

    #[test]
    fn mature_flow_moves_only_with_clear_benefit() {
        let mut lb = HermesLite::new();
        let mut rng = SimRng::new(2);
        let ps = OutPort::filled(&[0, 0, 0]);
        let p0 = warm_up(&mut lb, &ps, &mut rng);

        // Congested, but the alternative is barely better: stay (cautious).
        let mut lens = [0usize; 3];
        lens.iter_mut().for_each(|l| *l = 22);
        lens[p0] = 25;
        let marginal = OutPort::filled(&lens);
        assert_eq!(
            lb.choose_uplink(&data(1, 100), PortView::new(&marginal), us(1000), &mut rng),
            p0,
            "marginal improvement must not trigger a move"
        );

        // Congested with a clearly better path: move.
        let mut lens = [0usize; 3];
        lens[p0] = 30;
        let clear = OutPort::filled(&lens);
        let new_port = lb.choose_uplink(&data(1, 101), PortView::new(&clear), us(2000), &mut rng);
        assert_ne!(new_port, p0, "2x-better path must attract the flow");
    }

    #[test]
    fn uncongested_mature_flow_stays() {
        let mut lb = HermesLite::new();
        let mut rng = SimRng::new(3);
        let ps = OutPort::filled(&[0, 0, 0]);
        let p0 = warm_up(&mut lb, &ps, &mut rng);
        // Below the congestion threshold: no reroute even though others are
        // empty.
        let mut lens = [0usize; 3];
        lens[p0] = 10;
        let mild = OutPort::filled(&lens);
        assert_eq!(
            lb.choose_uplink(&data(1, 100), PortView::new(&mild), us(1000), &mut rng),
            p0
        );
    }

    #[test]
    fn control_packets_do_not_advance_the_gate() {
        let mut lb = HermesLite::new();
        let mut rng = SimRng::new(4);
        let ps = OutPort::filled(&[0, 0]);
        let ack = Packet::control(
            FlowId(2),
            HostId(9),
            HostId(0),
            PktKind::Ack,
            0,
            SimTime::ZERO,
        );
        let p0 = lb.choose_uplink(&ack, PortView::new(&ps), us(0), &mut rng);
        for i in 1..200 {
            assert_eq!(
                lb.choose_uplink(&ack, PortView::new(&ps), us(i), &mut rng),
                p0,
                "pure-ACK flows never accumulate bytes, never move"
            );
        }
    }
}
