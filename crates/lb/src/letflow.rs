//! Flowlet switching: LetFlow (Vanini et al., NSDI 2017), which re-picks a
//! random path at each flowlet boundary, and CONGA-lite, which re-picks the
//! least-loaded one.
//!
//! CONGA (Alizadeh et al., SIGCOMM 2014) routes flowlets onto the globally
//! least-congested path using leaf-to-leaf feedback carried in packet
//! headers. Reproducing the feedback plane is out of scope for a leaf-local
//! simulator interface, so the "lite" rule substitutes the switch-local
//! uplink queue lengths for the path-wise congestion metric. On a two-tier
//! leaf-spine fabric where the leaf uplink is the dominant bottleneck, the
//! local queue is a good proxy for path congestion; the substitution is
//! recorded in DESIGN.md.

use tlb_engine::{SimRng, SimTime};
use tlb_net::Packet;
use tlb_switch::{FlowMap, LoadBalancer, PortView};

/// A flowlet balancer reroutes a flow only when a *flowlet gap* appears: if
/// the time since the flow's previous packet exceeds the flowlet timeout,
/// the flow (all flows — short and long alike, per the paper's critique)
/// re-picks its uplink; otherwise it sticks to its current one. LetFlow
/// re-picks a uniformly random live uplink ([`LetFlow::new`]), CONGA-lite
/// the shortest live queue ([`LetFlow::conga`]).
///
/// The elegance of LetFlow is that flowlet sizes adapt to congestion
/// automatically; its weakness (§6.2) is that under low load there are few
/// gaps, so rerouting opportunities are rare.
#[derive(Debug)]
pub struct LetFlow {
    /// The flowlet timeout: [`LetFlow::TIMEOUT`] or, for CONGA-lite,
    /// [`LetFlow::CONGA_TIMEOUT`].
    timeout: SimTime,
    /// The repick rule: the shortest queue (CONGA-lite) instead of a
    /// random uplink (LetFlow).
    to_shortest: bool,
    /// Each flow's current uplink; the table's own stamp is the time of
    /// the flow's last packet.
    flows: FlowMap<usize>,
    /// Flowlets moved off a dead uplink before any flowlet gap appeared.
    forced: u64,
}

impl LetFlow {
    /// The paper's NS2 flowlet timeout: 150 µs (§2.2, citing Hermes).
    pub const TIMEOUT: SimTime = SimTime::from_micros(150);

    /// CONGA's published flowlet timeout: 500 µs.
    pub const CONGA_TIMEOUT: SimTime = SimTime::from_micros(500);

    /// A LetFlow balancer: random repicks, 150 µs flowlet timeout.
    pub fn new() -> LetFlow {
        LetFlow {
            timeout: Self::TIMEOUT,
            to_shortest: false,
            flows: FlowMap::new(),
            forced: 0,
        }
    }

    /// A CONGA-lite balancer: flowlet switching onto the shortest local
    /// uplink queue, 500 µs flowlet timeout.
    pub fn conga() -> LetFlow {
        LetFlow {
            timeout: Self::CONGA_TIMEOUT,
            to_shortest: true,
            ..LetFlow::new()
        }
    }
}

impl Default for LetFlow {
    fn default() -> Self {
        LetFlow::new()
    }
}

impl LoadBalancer for LetFlow {
    fn choose_uplink(
        &mut self,
        pkt: &Packet,
        view: PortView<'_>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> usize {
        let timeout = self.timeout;
        // CONGA-lite ranks the queues before every lookup; LetFlow draws
        // only when it re-picks. Either way the pick is a live uplink.
        let shortest = self.to_shortest.then(|| view.shortest_bytes_rand(rng));
        let mut repick = || shortest.unwrap_or_else(|| view.random_live(rng));
        match self.flows.touch(pkt.flow, now) {
            Some((port, last_pkt)) => {
                let gap = now.saturating_sub(last_pkt);
                let dead = !view.is_live(*port);
                if gap > timeout || dead {
                    // A flowlet boundary — natural gap or a dead uplink
                    // forcing an early one.
                    if dead && gap <= timeout {
                        self.forced += 1;
                    }
                    *port = repick();
                }
                *port
            }
            None => {
                let port = repick();
                self.flows.touch_or_insert_with(pkt.flow, now, || port);
                port
            }
        }
    }

    fn on_tick(&mut self, _view: PortView<'_>, now: SimTime) {
        // Flow records older than a large multiple of the timeout are dead.
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
    fn back_to_back_packets_stick() {
        let ps = OutPort::filled(&[0; 8]);
        let mut lb = LetFlow::new();
        let mut rng = SimRng::new(1);
        let p0 = lb.choose_uplink(&data(1, 0), PortView::new(&ps), us(0), &mut rng);
        for i in 1..100 {
            // 10 us spacing: well inside the 150 us timeout.
            let p = lb.choose_uplink(&data(1, i), PortView::new(&ps), us(10 * i as u64), &mut rng);
            assert_eq!(p, p0, "no flowlet gap -> no reroute");
        }
    }

    #[test]
    fn gap_allows_reroute() {
        let ps = OutPort::filled(&[0; 16]);
        let mut lb = LetFlow::new();
        let mut rng = SimRng::new(2);
        let mut t = SimTime::ZERO;
        let mut changed = 0;
        let mut prev = lb.choose_uplink(&data(1, 0), PortView::new(&ps), t, &mut rng);
        for i in 1..200 {
            t += us(1000); // every gap exceeds the timeout
            let p = lb.choose_uplink(&data(1, i), PortView::new(&ps), t, &mut rng);
            if p != prev {
                changed += 1;
            }
            prev = p;
        }
        // Each boundary picks uniformly among 16 ports: expect ~15/16 changes.
        assert!(changed > 150, "only {changed} reroutes across 199 gaps");
    }

    #[test]
    fn gap_exactly_at_timeout_does_not_reroute() {
        let ps = OutPort::filled(&[0; 4]);
        let mut lb = LetFlow::new();
        let mut rng = SimRng::new(3);
        let p0 = lb.choose_uplink(&data(1, 0), PortView::new(&ps), us(0), &mut rng);
        // Gap == timeout: strictly-greater semantics keep the flowlet alive.
        let p1 = lb.choose_uplink(&data(1, 1), PortView::new(&ps), us(150), &mut rng);
        assert_eq!(p0, p1);
    }

    #[test]
    fn flows_are_independent() {
        let ps = OutPort::filled(&[0; 8]);
        let mut lb = LetFlow::new();
        let mut rng = SimRng::new(4);
        let mut used = std::collections::HashSet::new();
        for f in 0..64 {
            used.insert(lb.choose_uplink(&data(f, 0), PortView::new(&ps), us(0), &mut rng));
        }
        assert!(used.len() >= 6, "initial picks should spread: {used:?}");
    }

    #[test]
    fn purge_drops_dead_flows() {
        let ps = OutPort::filled(&[0; 2]);
        let mut lb = LetFlow::new();
        let mut rng = SimRng::new(5);
        lb.choose_uplink(&data(1, 0), PortView::new(&ps), us(0), &mut rng);
        let resident = lb.state_bytes();
        assert!(resident > 0);
        lb.on_tick(PortView::new(&ps), SimTime::from_secs(1));
        // state_bytes is capacity-accounted, so the purge frees the records
        // without shrinking resident memory — it must not grow, and new
        // flows must reuse the retained buckets rather than allocate more.
        assert_eq!(lb.state_bytes(), resident);
        lb.choose_uplink(
            &data(2, 0),
            PortView::new(&ps),
            SimTime::from_secs(1),
            &mut rng,
        );
        assert_eq!(lb.state_bytes(), resident);
    }

    #[test]
    fn new_flow_takes_shortest() {
        let ps = OutPort::filled(&[5, 2, 9]);
        let mut lb = LetFlow::conga();
        let mut rng = SimRng::new(1);
        assert_eq!(
            lb.choose_uplink(&data(1, 0), PortView::new(&ps), us(0), &mut rng),
            1
        );
    }

    #[test]
    fn sticks_within_flowlet() {
        let ps = OutPort::filled(&[5, 2, 9]);
        let mut lb = LetFlow::conga();
        let mut rng = SimRng::new(1);
        let p0 = lb.choose_uplink(&data(1, 0), PortView::new(&ps), us(0), &mut rng);
        // Even though port 0 may become shorter, within the gap we stick.
        let ps2 = OutPort::filled(&[0, 2, 9]);
        let p1 = lb.choose_uplink(&data(1, 1), PortView::new(&ps2), us(100), &mut rng);
        assert_eq!(p0, p1);
    }

    #[test]
    fn reroutes_to_shortest_after_gap() {
        let ps = OutPort::filled(&[5, 2, 9]);
        let mut lb = LetFlow::conga();
        let mut rng = SimRng::new(1);
        lb.choose_uplink(&data(1, 0), PortView::new(&ps), us(0), &mut rng);
        let ps2 = OutPort::filled(&[0, 2, 9]);
        let p = lb.choose_uplink(&data(1, 1), PortView::new(&ps2), us(10_000), &mut rng);
        assert_eq!(
            p, 0,
            "after a flowlet gap CONGA-lite picks the new shortest"
        );
    }
}
