//! CONGA-lite: congestion-aware flowlet switching (extension).
//!
//! CONGA (Alizadeh et al., SIGCOMM 2014) routes flowlets onto the globally
//! least-congested path using leaf-to-leaf feedback carried in packet
//! headers. Reproducing the feedback plane is out of scope for a leaf-local
//! simulator interface, so this "lite" variant substitutes the switch-local
//! uplink queue lengths for the path-wise congestion metric. On a two-tier
//! leaf-spine fabric where the leaf uplink is the dominant bottleneck, the
//! local queue is a good proxy for path congestion; the substitution is
//! recorded in DESIGN.md.

use tlb_engine::{SimRng, SimTime};
use tlb_net::Packet;
use tlb_switch::{FlowMap, LoadBalancer, PortView};

#[derive(Clone, Copy, Debug)]
struct Flowlet {
    port: usize,
    last_pkt: SimTime,
}

/// Flowlet switching onto the shortest local uplink queue. Where LetFlow
/// picks a *random* port at each flowlet boundary, CONGA-lite picks the
/// *least loaded* one.
#[derive(Debug)]
pub struct CongaLite {
    timeout: SimTime,
    flows: FlowMap<Flowlet>,
    /// Flowlets moved off a dead uplink before any flowlet gap appeared.
    forced: u64,
}

impl CongaLite {
    /// CONGA's published flowlet timeout: 500 µs.
    pub const DEFAULT_TIMEOUT: SimTime = SimTime::from_micros(500);

    /// A CONGA-lite balancer with the given flowlet timeout.
    pub fn new(timeout: SimTime) -> CongaLite {
        CongaLite {
            timeout,
            flows: FlowMap::new(),
            forced: 0,
        }
    }

    /// Default 500 µs-timeout instance.
    pub fn paper_default() -> CongaLite {
        CongaLite::new(Self::DEFAULT_TIMEOUT)
    }
}

impl LoadBalancer for CongaLite {
    fn name(&self) -> &'static str {
        "CONGA-lite"
    }

    fn choose_uplink(
        &mut self,
        pkt: &Packet,
        view: PortView<'_>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> usize {
        let n = view.n_ports();
        let timeout = self.timeout;
        // Compute the candidate first to keep the borrow local.
        let shortest = view.shortest_bytes_rand(rng);
        match self.flows.touch(pkt.flow, now) {
            Some(entry) => {
                let gap = now.saturating_sub(entry.last_pkt);
                let dead = !view.is_live(entry.port % n);
                if gap > timeout || dead {
                    // `shortest` is already restricted to live uplinks.
                    if dead && gap <= timeout {
                        self.forced += 1;
                    }
                    entry.port = shortest;
                }
                entry.last_pkt = now;
                entry.port % n
            }
            None => {
                self.flows.touch_or_insert_with(pkt.flow, now, || Flowlet {
                    port: shortest,
                    last_pkt: now,
                });
                shortest
            }
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

    #[test]
    fn new_flow_takes_shortest() {
        let ps = OutPort::filled(&[5, 2, 9]);
        let mut lb = CongaLite::paper_default();
        let mut rng = SimRng::new(1);
        assert_eq!(
            lb.choose_uplink(&data(1, 0), PortView::new(&ps), us(0), &mut rng),
            1
        );
    }

    #[test]
    fn sticks_within_flowlet() {
        let ps = OutPort::filled(&[5, 2, 9]);
        let mut lb = CongaLite::paper_default();
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
        let mut lb = CongaLite::paper_default();
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
