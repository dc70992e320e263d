//! Presto: fixed-size flowcell switching (He et al., SIGCOMM 2015).

use tlb_engine::{SimRng, SimTime};
use tlb_net::Packet;
use tlb_switch::{FlowMap, LoadBalancer, PortView};

/// Per-flow Presto state: current uplink and payload bytes sent into the
/// current flowcell.
#[derive(Clone, Copy, Debug)]
struct Cell {
    port: usize,
    cell_bytes: u64,
}

/// Presto switches every flow — short or long alike — in fixed 64 KB
/// "flowcells", advancing round-robin over the uplinks at each cell
/// boundary. Congestion-oblivious (§8): the next port does not depend on
/// queue state.
///
/// The original Presto runs at the vSwitch; hosting it at the leaf switch is
/// equivalent for a leaf-spine fabric where the leaf makes the only
/// multipath choice.
#[derive(Debug)]
pub struct Presto {
    cell_limit: u64,
    flows: FlowMap<Cell>,
    /// Round-robin cursor shared across flows, so simultaneous cells from
    /// different flows land on different uplinks.
    rr_next: usize,
    idle_timeout: SimTime,
    /// Cells moved off a dead uplink before their cell boundary.
    forced: u64,
}

impl Presto {
    /// Presto's published default: 64 KB flowcells.
    pub const DEFAULT_CELL_BYTES: u64 = 64 * 1024;

    /// A Presto balancer with the given cell size.
    pub fn new(cell_bytes: u64) -> Presto {
        assert!(cell_bytes > 0);
        Presto {
            cell_limit: cell_bytes,
            flows: FlowMap::new(),
            rr_next: 0,
            idle_timeout: SimTime::from_millis(10),
            forced: 0,
        }
    }

    /// Advance `i` (mod the port count) to the next live uplink. With a full
    /// mask this returns `i` immediately — the historical behaviour.
    #[inline]
    fn next_live(view: &PortView<'_>, mut i: usize) -> usize {
        let n = view.n_ports();
        loop {
            if view.is_live(i) {
                return i;
            }
            i = (i + 1) % n;
        }
    }

    /// Default 64 KB-cell instance.
    pub fn default_cells() -> Presto {
        Presto::new(Self::DEFAULT_CELL_BYTES)
    }
}

impl LoadBalancer for Presto {
    fn choose_uplink(
        &mut self,
        pkt: &Packet,
        view: PortView<'_>,
        now: SimTime,
        _rng: &mut SimRng,
    ) -> usize {
        let n = view.n_ports();
        let rr0 = Self::next_live(&view, self.rr_next % n);
        let mut inserted = false;
        let entry = self.flows.touch_or_insert_with(pkt.flow, now, || {
            inserted = true;
            Cell {
                port: rr0,
                cell_bytes: 0,
            }
        });
        if inserted {
            // New flow: it consumed the RR cursor for its first cell.
            self.rr_next = (rr0 + 1) % n;
        } else if entry.cell_bytes >= self.cell_limit || !view.is_live(entry.port) {
            // Cell boundary — or the cached uplink died mid-cell, which
            // forces an early boundary. Either way move to the next live
            // uplink in round-robin order.
            if entry.cell_bytes < self.cell_limit {
                self.forced += 1;
            }
            entry.cell_bytes = 0;
            entry.port = Self::next_live(&view, self.rr_next % n);
            self.rr_next = (entry.port + 1) % n;
        }
        entry.cell_bytes += pkt.payload_bytes as u64;
        entry.port
    }

    fn on_tick(&mut self, _view: PortView<'_>, now: SimTime) {
        self.flows.purge_idle(now, self.idle_timeout);
    }

    fn tick_interval(&self) -> Option<SimTime> {
        Some(SimTime::from_millis(10))
    }

    fn state_bytes(&self) -> usize {
        self.flows.state_bytes() + 2 * std::mem::size_of::<usize>()
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
    fn stays_within_cell_then_moves() {
        let ps = OutPort::filled(&[0; 4]);
        let mut lb = Presto::new(10 * 1460); // 10-packet cells for the test
        let mut rng = SimRng::new(0);
        let mut seen = Vec::new();
        for seq in 0..30 {
            seen.push(lb.choose_uplink(&data(1, seq), PortView::new(&ps), SimTime::ZERO, &mut rng));
        }
        // First 10 packets on one port, next 10 on another, etc.
        let first = seen[0];
        assert!(seen[..10].iter().all(|&p| p == first));
        let second = seen[10];
        assert_ne!(second, first);
        assert!(seen[10..20].iter().all(|&p| p == second));
        let third = seen[20];
        assert_ne!(third, second);
    }

    #[test]
    fn cells_advance_round_robin() {
        let ps = OutPort::filled(&[0; 4]);
        let mut lb = Presto::new(1460);
        let mut rng = SimRng::new(0);
        // One flow, 1-packet cells: ports must cycle 0,1,2,3,0...
        let seq_ports: Vec<usize> = (0..8)
            .map(|s| lb.choose_uplink(&data(1, s), PortView::new(&ps), SimTime::ZERO, &mut rng))
            .collect();
        for w in seq_ports.windows(2) {
            assert_ne!(w[0], w[1], "adjacent cells must differ: {seq_ports:?}");
        }
    }

    #[test]
    fn flows_start_on_distinct_ports() {
        let ps = OutPort::filled(&[0; 4]);
        let mut lb = Presto::default_cells();
        let mut rng = SimRng::new(0);
        let mut firsts = Vec::new();
        for f in 0..4 {
            firsts.push(lb.choose_uplink(&data(f, 0), PortView::new(&ps), SimTime::ZERO, &mut rng));
        }
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "RR start ports collided: {firsts:?}");
    }

    #[test]
    fn acks_do_not_advance_cells() {
        let ps = OutPort::filled(&[0; 4]);
        let mut lb = Presto::new(1460);
        let mut rng = SimRng::new(0);
        let ack = Packet::control(
            FlowId(2),
            HostId(9),
            HostId(0),
            tlb_net::PktKind::Ack,
            0,
            SimTime::ZERO,
        );
        let p0 = lb.choose_uplink(&ack, PortView::new(&ps), SimTime::ZERO, &mut rng);
        for _ in 0..20 {
            assert_eq!(
                lb.choose_uplink(&ack, PortView::new(&ps), SimTime::ZERO, &mut rng),
                p0,
                "zero-payload packets must stay in the first cell"
            );
        }
    }

    #[test]
    fn idle_flows_get_purged() {
        let ps = OutPort::filled(&[0; 2]);
        let mut lb = Presto::default_cells();
        let mut rng = SimRng::new(0);
        lb.choose_uplink(&data(1, 0), PortView::new(&ps), SimTime::ZERO, &mut rng);
        assert!(lb.state_bytes() > 0);
        lb.on_tick(PortView::new(&ps), SimTime::from_secs(1));
        assert_eq!(lb.flows.len(), 0);
    }
}
