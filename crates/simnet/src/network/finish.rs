//! Closing the packet-conservation audit at end of run.

use super::Net;
use crate::audit::{AuditLedger, AuditReport, PortAudit};

/// Count the live endpoints in `slots` and collect the invariant
/// violations `check` finds among them.
fn check_endpoints<T>(
    slots: &[Option<T>],
    check: impl Fn(&T) -> Option<String>,
) -> (usize, Vec<(usize, String)>) {
    let mut live = 0;
    let mut violations = Vec::new();
    for (i, s) in slots.iter().enumerate() {
        if let Some(s) = s {
            live += 1;
            violations.extend(check(s).map(|v| (i, v)));
        }
    }
    (live, violations)
}

impl Net<'_> {
    /// Hand `ledger` every packet still crossing a link — in flight on a
    /// wire is live in the arena, in both delivery modes — and leave the
    /// pipes and the arena empty.
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
    /// accounting snapshots, the engine's clock counter, and each live
    /// endpoint's invariant check, then let it verify everything (see
    /// [`crate::audit`]). Empties the link pipes; call only from
    /// [`Net::into_report`].
    pub(super) fn finish_audit(&mut self) -> Option<AuditReport> {
        let mut ledger = std::mem::replace(&mut self.audit, AuditLedger::new(false));
        if !ledger.enabled() {
            return None;
        }
        for p in &self.ports {
            for pkt in p.iter_queued() {
                ledger.residual_queued(pkt);
            }
            // Both delivery modes park the serializing packet in the port.
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

        let (senders_checked, sender_violations) =
            check_endpoints(&self.senders, |s| s.invariant_violation());
        let (receivers_checked, receiver_violations) =
            check_endpoints(&self.receivers, |r| r.invariant_violation());
        ledger.finish(
            &port_audits,
            monotonicity,
            &sender_violations,
            senders_checked,
            &receiver_violations,
            receivers_checked,
        )
    }
}
