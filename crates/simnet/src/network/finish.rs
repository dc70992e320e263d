//! Closing the packet-conservation audit at end of run.

use super::Net;
use crate::audit::{AuditLedger, AuditReport, PortAudit};

impl Net<'_> {
    /// Hand `ledger` every packet still crossing a link — in flight on a
    /// wire is live in the arena — and leave the pipes and the arena
    /// empty.
    pub(super) fn drain_pipes(&mut self, ledger: &mut AuditLedger) {
        for pipe in &mut self.pipes {
            for (_, pkt) in self.arena.drain(pipe) {
                ledger.residual_propagating(&pkt);
            }
        }
        debug_assert!(
            self.arena.is_empty(),
            "{} arena slots are on no link's pipe",
            self.arena.live()
        );
    }

    /// Close the packet-conservation ledger: feed it the end-of-run
    /// residuals (queued packets, pending serializations and propagations
    /// — the latter are what is still parked in the arena), per-port
    /// accounting snapshots and the engine's clock counter, then let it
    /// verify everything, the endpoint checks made as each endpoint closed
    /// included (see [`crate::audit`]). Empties the link pipes; call only
    /// from [`Net::into_report`], after every endpoint closed.
    pub(super) fn finish_audit(&mut self) -> Option<AuditReport> {
        let mut ledger = std::mem::replace(&mut self.audit, AuditLedger::new(false));
        if !ledger.enabled() {
            return None;
        }
        for p in &self.ports {
            for pkt in p.iter_queued() {
                ledger.residual_queued(pkt);
            }
            // The serializing packet is still parked in the port.
            if let Some(pkt) = p.in_service_pkt() {
                ledger.residual_in_service(pkt);
            }
        }
        let port_audits: Vec<PortAudit> = (0..)
            .zip(&self.ports)
            .map(|(p, port)| PortAudit::of(self.pmap.label(p), port))
            .collect();

        let monotonicity = self.q.monotonicity_violations();
        self.drain_pipes(&mut ledger);
        ledger.finish(&port_audits, monotonicity)
    }
}
