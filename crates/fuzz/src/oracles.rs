//! Invariant oracles over a completed run.
//!
//! The heaviest oracle — packet conservation, per-port accounting, clock
//! monotonicity, and sender/receiver transport invariants — runs *inside*
//! the simulation ([`tlb_simnet::audit`], forced on by the scenario
//! builder) and panics mid-run on violation. The checks here are the
//! report-level complement: properties that need the scenario's ground
//! truth (the undegraded fabric, the flow specs, which scheme ran) and
//! the finished [`RunReport`].

use crate::scenario::BuiltScenario;
use tlb_model::fct_lower_bound;
use tlb_net::PktKind;
use tlb_simnet::{Hop, RunReport};

/// Relative slack on the FCT lower bound, absorbing f64 rounding in the
/// bound itself (the simulator's own timestamps are integer nanoseconds).
const FCT_REL_TOL: f64 = 1e-9;

/// Which oracles to run. The default (`for_packet`) enables everything;
/// hybrid-fidelity runs must skip the FCT lower bound — a migrated flow's
/// packet prefix and fluid tail overlap in time, so its FCT can
/// legitimately undercut the sequential serialization bound.
#[derive(Clone, Copy, Debug)]
pub struct OracleSet {
    /// Check completed FCTs against the serialization+propagation bound.
    pub fct_lower_bound: bool,
}

impl OracleSet {
    /// Every oracle, the packet-fidelity catalog.
    pub fn for_packet() -> Self {
        OracleSet {
            fct_lower_bound: true,
        }
    }

    /// The hybrid-fidelity catalog: everything except the FCT bound.
    pub fn for_hybrid() -> Self {
        OracleSet {
            fct_lower_bound: false,
        }
    }
}

/// Check every report-level oracle; `Err` lists all violations at once so
/// a shrunk failure prints the full picture.
pub fn check_report(built: &BuiltScenario, r: &RunReport) -> Result<(), String> {
    check_report_with(built, r, OracleSet::for_packet())
}

/// [`check_report`] with an explicit oracle selection.
pub fn check_report_with(
    built: &BuiltScenario,
    r: &RunReport,
    oracles: OracleSet,
) -> Result<(), String> {
    let mut violations: Vec<String> = Vec::new();

    // Oracle 1: the audit must have actually run (the in-run checks are
    // only as good as their wiring).
    if r.audit.is_none() {
        violations.push("audit was configured on but produced no report".into());
    }

    // Oracle 2: completion. The horizon (5 s) dwarfs the worst-case
    // serialized transfer time of the workload, so an incomplete flow
    // means a stall or routing black hole, not a tight deadline.
    if r.completed != r.total_flows {
        violations.push(format!(
            "only {}/{} flows completed by the horizon",
            r.completed, r.total_flows
        ));
    }
    if r.total_flows != built.flows.len() {
        violations.push(format!(
            "report covers {} flows but the scenario launched {}",
            r.total_flows,
            built.flows.len()
        ));
    }

    // Oracle 3: no completed flow beats ideal serialization + propagation
    // on the *best* fabric state the run's schedule ever reaches
    // (`BuiltScenario::bound`). The pristine fabric is NOT sound here: a
    // mid-run improvement (link repair with a shorter propagation delay)
    // legitimately lets late flows beat the pristine bound.
    let capacity = built.bound.host_link().bytes_per_sec as f64;
    for f in built.flows.iter().filter(|_| oracles.fct_lower_bound) {
        if let Some(fct) = r.fct.fct_of(f.id) {
            let prop = built.bound.min_one_way_delay(f.src, f.dst).as_secs_f64();
            let bound = fct_lower_bound(f.size_bytes as f64, capacity, prop);
            if fct < bound * (1.0 - FCT_REL_TOL) {
                violations.push(format!(
                    "flow {} ({} B, {} -> {}) finished in {:.9}s, below the \
                     serialization+propagation bound {:.9}s",
                    f.id, f.size_bytes, f.src, f.dst, fct, bound
                ));
            }
        }
    }

    // Oracle 4: teardown ordering on traced flows. The sender emits its
    // FIN only once every segment is acked, and an ack implies the segment
    // was already delivered — so by the time the FIN reaches the
    // destination, every sequence number has been delivered there at
    // least once. Stragglers (multipath reordering, spurious retransmits)
    // may still trickle in after the FIN, but they must be duplicates: a
    // *first-time* delivery after FIN teardown is a real protocol bug.
    for &flow in &built.cfg.trace_flows {
        let dst = built.flows[flow.index()].dst.0;
        let fin_at = r.traces.iter().find_map(|e| match e.hop {
            Hop::Delivered { host } if e.flow == flow && host == dst && e.kind == PktKind::Fin => {
                Some(e.at)
            }
            _ => None,
        });
        if let Some(fin_at) = fin_at {
            let mut delivered_before = std::collections::BTreeSet::new();
            for e in &r.traces {
                if e.flow == flow
                    && e.kind == PktKind::Data
                    && matches!(e.hop, Hop::Delivered { host } if host == dst)
                {
                    if e.at <= fin_at {
                        delivered_before.insert(e.seq);
                    } else if !delivered_before.contains(&e.seq) {
                        violations.push(format!(
                            "flow {flow}: first delivery of data seq {} at {} is after \
                             FIN delivery at {fin_at} — teardown preceded the data",
                            e.seq, e.at
                        ));
                    }
                }
            }
        }
    }

    // Oracle 5: reroute discipline. TLB pinned at q_th = u64::MAX can
    // never observe a queue >= threshold, so it must report zero
    // long-flow reroutes; adaptive TLB must at least report the counter;
    // non-TLB schemes must not report one at all.
    match (built.scenario.is_pinned_tlb(), &r.tlb_long_reroutes) {
        (true, Some(0)) => {}
        (true, other) => violations.push(format!(
            "pinned TLB (q_th = MAX) must report Some(0) long reroutes, got {other:?}"
        )),
        (false, Some(_)) if built.scenario.scheme_idx == 4 => {}
        (false, None) if built.scenario.scheme_idx != 4 => {}
        (false, other) => violations.push(format!(
            "scheme {} reported unexpected long-reroute counter {other:?}",
            r.scheme
        )),
    }

    // Oracle 6: forced-reroute discipline. Forced moves exist only when a
    // link actually went down; a run with no failure schedule must report
    // zero (schemes that track the counter) or nothing at all.
    if built.cfg.failure_events.is_empty() {
        match r.forced_reroutes {
            None | Some(0) => {}
            Some(n) => violations.push(format!(
                "scheme {} reported {n} failure-forced reroutes in a run                  with no failure schedule",
                r.scheme
            )),
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "scenario {:?} violated {} oracle(s):\n  - {}",
            built.scenario,
            violations.len(),
            violations.join("\n  - ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn run(raw: crate::RawScenario) -> (BuiltScenario, RunReport) {
        let b = Scenario::from_raw(raw).build();
        let r = tlb_simnet::run_one(b.cfg.clone(), b.flows.clone());
        (b, r)
    }

    #[test]
    fn clean_run_passes_all_oracles() {
        let (b, r) = run((
            (2, 3, 2, 10),
            (4, 6, 1, 2),
            (42, true, 50, 10, false),
            (0, false, 0, 0, false),
        ));
        check_report(&b, &r).unwrap();
    }

    #[test]
    fn fct_oracle_catches_a_faster_than_light_flow() {
        let (b, r) = run((
            (2, 2, 2, 10),
            (0, 3, 0, 0),
            (5, false, 50, 0, false),
            (0, false, 0, 0, false),
        ));
        check_report(&b, &r).unwrap();
        // Forge an impossible bound by claiming the fabric is ~10000x
        // slower than the one that actually ran: the serialization term
        // balloons past every real FCT, so the oracle must fire.
        let mut forged = b.clone();
        forged.bound = tlb_net::LeafSpineBuilder::new(2, 2, 2)
            .link_gbps(0.0001)
            .target_rtt(tlb_engine::SimTime::from_micros(100))
            .build();
        let err = check_report(&forged, &r).unwrap_err();
        assert!(
            err.contains("below the serialization+propagation bound"),
            "{err}"
        );
    }

    #[test]
    fn fct_oracle_stays_sound_under_mid_run_improvement() {
        use tlb_engine::SimTime;
        use tlb_net::{FlowId, HostId, LeafId, SpineId};
        use tlb_simnet::LinkEvent;
        use tlb_workload::FlowSpec;

        // Hand-built scenario with slow uplinks (5 ms one-way) that all
        // get repaired to 10 µs at t = 1 ms; the single flow starts after
        // the repair and finishes far sooner than the pristine fabric
        // could ever deliver it.
        let raw = (
            (2, 2, 2, 10),
            (0, 1, 0, 0),
            (7, false, 50, 0, false),
            (0, false, 0, 0, false),
        );
        let mut b = crate::Scenario::from_raw(raw).build();
        let slow = SimTime::from_millis(5);
        for l in 0..2 {
            for s in 0..2 {
                let mut p = b.pristine.uplink_props(l, s);
                p.prop_delay = slow;
                b.pristine.set_uplink(l, s, p);
                b.cfg.link_events.push(LinkEvent {
                    at: SimTime::from_millis(1),
                    leaf: LeafId(l as u32),
                    spine: SpineId(s as u32),
                    bw_factor: 1.0,
                    new_prop_delay: Some(SimTime::from_micros(10)),
                    extra_delay: SimTime::ZERO,
                });
            }
        }
        b.cfg.topo = b.pristine.clone();
        b.flows = vec![FlowSpec {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(2), // other leaf: crosses the repaired uplinks
            size_bytes: 30_000,
            start: SimTime::from_millis(3),
            deadline: None,
        }];
        b.cfg.trace_flows = vec![FlowId(0)];
        b.bound = crate::scenario::bound_fabric(&b.pristine, &b.cfg.link_events);

        let r = tlb_simnet::run_one(b.cfg.clone(), b.flows.clone());
        // With the schedule-aware bound the run is clean...
        check_report(&b, &r).unwrap();
        // ...but the old pristine-fabric bound (the pre-fix behavior)
        // flags the flow as faster-than-light: the repair shaved ~10 ms
        // off the path, which the pristine fabric says is impossible.
        let mut old_behavior = b.clone();
        old_behavior.bound = old_behavior.pristine.clone();
        let err = check_report(&old_behavior, &r).unwrap_err();
        assert!(
            err.contains("below the serialization+propagation bound"),
            "{err}"
        );
    }

    #[test]
    fn forced_reroute_oracle_rejects_forced_moves_without_failures() {
        let (b, mut r) = run((
            (2, 2, 2, 10),
            (6, 4, 2, 0),
            (9, false, 50, 0, false),
            (0, false, 0, 0, false),
        ));
        assert!(b.cfg.failure_events.is_empty(), "precondition");
        r.forced_reroutes = Some(2);
        let err = check_report(&b, &r).unwrap_err();
        assert!(err.contains("no failure schedule"), "{err}");
    }

    #[test]
    fn completion_oracle_catches_missing_flows() {
        let (b, mut r) = run((
            (2, 2, 2, 10),
            (1, 4, 0, 0),
            (8, false, 50, 0, false),
            (0, false, 0, 0, false),
        ));
        r.completed -= 1;
        let err = check_report(&b, &r).unwrap_err();
        assert!(err.contains("flows completed by the horizon"), "{err}");
    }

    #[test]
    fn reroute_oracle_catches_a_pinned_tlb_that_reroutes() {
        let (b, mut r) = run((
            (2, 2, 2, 10),
            (5, 4, 2, 0),
            (9, false, 50, 0, false),
            (0, false, 0, 0, false),
        ));
        assert_eq!(r.tlb_long_reroutes, Some(0), "precondition");
        r.tlb_long_reroutes = Some(3);
        let err = check_report(&b, &r).unwrap_err();
        assert!(err.contains("pinned TLB"), "{err}");
    }

    #[test]
    fn reroute_oracle_catches_a_non_tlb_scheme_reporting_reroutes() {
        let (b, mut r) = run((
            (2, 2, 2, 10),
            (0, 4, 0, 0),
            (9, false, 50, 0, false),
            (0, false, 0, 0, false),
        ));
        assert_eq!(r.tlb_long_reroutes, None, "precondition");
        r.tlb_long_reroutes = Some(1);
        let err = check_report(&b, &r).unwrap_err();
        assert!(err.contains("unexpected long-reroute counter"), "{err}");
    }

    #[test]
    fn audit_oracle_catches_a_silently_skipped_audit() {
        let (b, mut r) = run((
            (2, 2, 2, 10),
            (2, 3, 0, 0),
            (4, false, 50, 0, false),
            (0, false, 0, 0, false),
        ));
        r.audit = None;
        let err = check_report(&b, &r).unwrap_err();
        assert!(err.contains("no report"), "{err}");
    }
}
