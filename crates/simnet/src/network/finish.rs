//! Closing the run's books: where it ended — every port first departs
//! what started by then, since a packet that waited departs only when
//! something reads its port — the service its ports had not finished
//! there, and the packet-conservation audit.

use super::Net;
use crate::audit::{AuditLedger, AuditReport, PortAudit};
use tlb_engine::SimTime;
use tlb_switch::OutPort;

impl Net<'_> {
    /// Where the run ended: the clock it reports and the `(time, key)` of
    /// its last event, to which it first departs every packet that started
    /// before it ([`Net::advance`] on every port). A run that completed
    /// every flow ended at the event that completed the last one. Any
    /// other ran every event up to the horizon, so its end lies past all
    /// of them, and its clock reads the latest of them, the start of the
    /// latest departure (a packet that waited starts at no event) or the
    /// end of a serialization within the horizon.
    pub(super) fn end_of_run(&mut self) -> (SimTime, (SimTime, u32)) {
        let horizon = self.cfg.horizon;
        let completed = self.n_completed == self.flows.len();
        let end = if completed {
            (self.now, self.cur_key)
        } else {
            (horizon, u32::MAX)
        };
        for p in 0..self.ports.len() as u32 {
            self.advance(p, end);
        }
        // The clock can only pass the horizon through a bug (the run loop
        // stops *before* popping any later event); clamp as a backstop so
        // a regression can't inflate every duration-derived rate.
        if completed {
            return (self.now.min(horizon), end);
        }
        let through = (self.ports.iter().map(OutPort::busy_until)).filter(|&t| t <= horizon);
        let clock = through.fold(self.now.max(self.last_start), SimTime::max);
        (clock.min(horizon), end)
    }

    /// Settle every port whose last departed packet was still serializing
    /// at `end`, the run's last `(time, key)`: it takes that packet back
    /// out of its counters, and its service past `sim_end`
    /// ([`OutPort::cut_service`]). The packet is the one its link's pipe
    /// took last, if the pipe still holds it: on a link with no
    /// propagation delay it may already have arrived, at its `ARRIVAL`
    /// rank below its port's departure rank, and a packet that arrived is
    /// through. Returns, per port, whether it had one. Runs before
    /// anything reads the port counters, audit or no audit.
    pub(super) fn cut_service_at_end(
        &mut self,
        sim_end: SimTime,
        end: (SimTime, u32),
    ) -> Vec<bool> {
        (0..self.ports.len() as u32)
            .map(|p| {
                let pipe = &self.pipes[p as usize];
                let last = (self.serializing(p, end))
                    .then(|| self.arena.iter(pipe).last())
                    .flatten();
                let Some(bytes) = last.map(|pkt| pkt.wire_bytes as u64) else {
                    return false;
                };
                self.ports[p as usize].cut_service(sim_end, bytes);
                true
            })
            .collect()
    }

    /// Close the packet-conservation ledger: feed it the end-of-run
    /// residuals (queued packets, pending serializations — the last packet
    /// on each link whose port was `serializing` at the end — and
    /// propagations, each read in the arena), per-port accounting
    /// snapshots and the engine's clock counter, then let it verify
    /// everything, the endpoint checks made as each endpoint closed
    /// included (see [`crate::audit`]). Empties the ports, the link pipes
    /// and the arena; call only from [`Net::into_report`], after every
    /// endpoint closed.
    pub(super) fn finish_audit(&mut self, serializing: &[bool]) -> Option<AuditReport> {
        let mut ledger = std::mem::replace(&mut self.audit, AuditLedger::new(false));
        if !ledger.enabled() {
            return None;
        }
        for p in &self.ports {
            for pkt in p.queued_in(&self.arena) {
                ledger.residual_queued(pkt);
            }
        }
        let port_audits: Vec<PortAudit> = (0..)
            .zip(self.ports.iter().zip(serializing))
            .map(|(p, (port, &busy))| PortAudit::of(self.pmap.label(p), port, &self.arena, busy))
            .collect();
        for p in &mut self.ports {
            p.release_in(&mut self.arena);
        }
        for (pipe, &busy) in self.pipes.iter_mut().zip(serializing) {
            let mut wire = self.arena.drain(pipe).peekable();
            while let Some((_, pkt)) = wire.next() {
                if busy && wire.peek().is_none() {
                    ledger.residual_in_service(&pkt);
                } else {
                    ledger.residual_propagating(&pkt);
                }
            }
        }
        self.wire_pkts = 0;
        debug_assert!(
            self.arena.is_empty(),
            "{} arena slots are on no port and no link's pipe",
            self.arena.live()
        );
        ledger.finish(&port_audits, self.q.monotonicity_violations())
    }
}
