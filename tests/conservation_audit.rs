//! The packet-conservation audit exercised end to end: clean runs must
//! produce a passing [`tlb::simnet::AuditReport`], a deliberately injected
//! driver bug must be caught, and the horizon must bound `sim_end` even
//! when the only pending work is a late retransmission timer.

use tlb::prelude::*;

fn small_mix(n_short: usize, n_long: usize) -> BasicMixConfig {
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = n_short;
    mix.n_long = n_long;
    mix.long_lo = 1_000_000;
    mix.long_hi = 2_000_000;
    mix
}

/// One flow, started at time zero, no deadline.
fn one_flow(size: u64) -> FlowSpec {
    FlowSpec {
        id: FlowId(0),
        src: HostId(0),
        dst: HostId(16),
        size_bytes: size,
        start: SimTime::ZERO,
        deadline: None,
    }
}

#[test]
fn clean_runs_pass_the_audit_for_every_scheme() {
    let mix = small_mix(30, 2);
    for scheme in Scheme::paper_set() {
        let name = scheme.name();
        let mut cfg = SimConfig::basic_paper(scheme);
        cfg.audit = true; // explicit: on even if this test binary is release
        let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(11));
        let r = Simulation::new(cfg, flows).run();
        let audit = r
            .audit
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: audit enabled but report missing"));
        assert!(audit.total_emitted() > 0, "{name}: nothing emitted");
        // The loop exits the instant the last data byte is delivered, so
        // trailing ACKs/FINs may legitimately still be in flight — but they
        // must be *accounted* in flight, not lost.
        let in_flight: u64 = audit.kinds.iter().map(|k| k.in_flight_at_end()).sum();
        assert_eq!(
            audit.total_emitted(),
            audit.total_delivered() + audit.total_dropped() + in_flight,
            "{name}: conservation must close the books"
        );
        assert!(
            audit.total_delivered() > audit.total_emitted() / 2,
            "{name}: most packets should be delivered on a clean run"
        );
        assert!(audit.ports_checked > 0, "{name}: no ports checked");
        assert_eq!(
            audit.senders_checked, r.total_flows,
            "{name}: every launched flow has a sender to check"
        );
        assert_eq!(audit.monotonicity_violations, 0);
    }
}

#[test]
fn audit_is_absent_when_disabled() {
    let mut cfg = SimConfig::basic_paper(Scheme::Ecmp);
    cfg.audit = false;
    let flows = basic_mix(&cfg.topo, &small_mix(5, 0), &mut SimRng::new(3));
    let r = Simulation::new(cfg, flows).run();
    assert!(r.audit.is_none());
    assert_eq!(r.completed, r.total_flows);
}

#[test]
#[should_panic(expected = "audit")]
fn audit_catches_a_packet_dropped_outside_port_accounting() {
    // fault_drop_nth silently discards the 5th arrival event — a packet
    // vanishes between a port's TxDone and the next node, exactly the class
    // of driver bug no per-port counter can see. The audit must panic.
    let mut cfg = SimConfig::basic_paper(Scheme::Ecmp);
    cfg.audit = true;
    cfg.fault_drop_nth = Some(5);
    // A short horizon keeps the doomed run cheap: the lost packet is
    // recovered by the transport, so the flow still finishes, and the audit
    // fires at report time.
    cfg.horizon = SimTime::from_millis(500);
    let r = Simulation::new(cfg, vec![one_flow(50_000)]).run();
    // Unreachable: into_report must have panicked.
    let _ = r;
}

#[test]
fn sim_end_never_passes_the_horizon() {
    // Regression: the run loop used to pop the first post-horizon event
    // before breaking, advancing the clock past the horizon and inflating
    // every rate derived from `sim_end`. Arrange the worst case — the only
    // pending event is an RTO timer far beyond the horizon: drop the SYN's
    // arrival (fault injection, audit off so nothing panics); the handshake
    // timer is armed at `initial_rto` = 10 ms while the horizon is 1 ms.
    let mut cfg = SimConfig::basic_paper(Scheme::Ecmp);
    cfg.audit = false;
    cfg.fault_drop_nth = Some(1);
    cfg.horizon = SimTime::from_millis(1);
    let horizon = cfg.horizon;
    assert!(
        cfg.tcp.initial_rto > horizon,
        "test premise: the timer must be armed past the horizon"
    );
    let r = Simulation::new(cfg, vec![one_flow(10_000)]).run();
    assert_eq!(
        r.completed, 0,
        "the lone flow lost its SYN and cannot finish"
    );
    assert!(
        r.sim_end <= horizon,
        "sim_end {} ran past the horizon {}",
        r.sim_end,
        horizon
    );
}

#[test]
fn unfinished_flows_leave_in_flight_packets_the_audit_accounts_for() {
    // Cut a bulk transfer off mid-run: conservation must still close the
    // books, with the remainder attributed to queued/in-service/propagating
    // residuals rather than silently lost.
    let mut cfg = SimConfig::basic_paper(Scheme::Ecmp);
    cfg.audit = true;
    cfg.horizon = SimTime::from_millis(2);
    let r = Simulation::new(cfg, vec![one_flow(20_000_000)]).run();
    assert_eq!(r.completed, 0, "20 MB cannot finish in 2 ms at 1 Gbit/s");
    let audit = r.audit.expect("audit enabled");
    let in_flight: u64 = audit.kinds.iter().map(|k| k.in_flight_at_end()).sum();
    assert!(
        in_flight > 0,
        "a truncated bulk transfer must leave packets in flight"
    );
    assert_eq!(
        audit.total_emitted(),
        audit.total_delivered() + audit.total_dropped() + in_flight
    );
}

// ---------------------------------------------------------------------------
// The 100 KB reclassification seam under hybrid fidelity (PR 8, re-entry
// in PR 9). A long flow crosses the short/long boundary mid-life and
// hands its tail to the fluid tier; a failure may demote it back to
// packets, and a later ACK over a healthy path may migrate it *again*.
// Byte conservation must hold through link flaps, rate changes and any
// migrate/demote/re-migrate history — the audit's per-flow byte ledger
// (sender packet bytes + accumulated fluid credit == flow size) is
// asserted inside the driver whenever `cfg.audit` is on.
// ---------------------------------------------------------------------------

/// Exactly-one-path fabric so the flap below is guaranteed to hit the
/// migrated flow's route.
fn one_path_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.topo = LeafSpineBuilder::new(2, 1, 2)
        .link_gbps(1.0)
        .target_rtt(SimTime::from_micros(100))
        .build();
    cfg.audit = true;
    cfg.fidelity = FidelityKind::Hybrid;
    cfg
}

fn cross_leaf_flow(size: u64) -> FlowSpec {
    FlowSpec {
        id: FlowId(0),
        src: HostId(0),
        dst: HostId(2),
        size_bytes: size,
        start: SimTime::ZERO,
        deadline: None,
    }
}

#[test]
fn hybrid_seam_migrates_exactly_once_and_conserves_bytes() {
    let cfg = one_path_cfg(Scheme::Ecmp);
    let r = Simulation::new(cfg, vec![cross_leaf_flow(2_000_000)]).run();
    assert_eq!(r.completed, 1, "the migrated flow must finish");
    assert_eq!(
        r.fluid_migrations, 1,
        "one boundary crossing, one migration"
    );
    assert_eq!(r.fluid_demotions, 0, "no failure, no demotion");
    assert!(
        r.fluid_bytes > 0 && r.fluid_bytes < 2_000_000,
        "the fluid tier carries the tail, not the whole flow (got {})",
        r.fluid_bytes
    );
    let audit = r.audit.expect("audit enabled");
    let in_flight: u64 = audit.kinds.iter().map(|k| k.in_flight_at_end()).sum();
    assert_eq!(
        audit.total_emitted(),
        audit.total_delivered() + audit.total_dropped() + in_flight,
        "conservation must close the books across the seam"
    );
}

#[test]
fn hybrid_seam_survives_a_brownout_without_demotion() {
    // The path browns out to half rate while the tail is fluid: the rate
    // model recomputes, nothing demotes, and the flow takes visibly longer
    // than the clean run while conserving every byte.
    let clean = Simulation::new(one_path_cfg(Scheme::Ecmp), vec![cross_leaf_flow(2_000_000)]).run();
    let mut cfg = one_path_cfg(Scheme::Ecmp);
    cfg.link_events.push(LinkEvent {
        at: SimTime::from_millis(4),
        leaf: LeafId(0),
        spine: SpineId(0),
        bw_factor: 0.5,
        new_prop_delay: None,
        extra_delay: SimTime::ZERO,
    });
    let r = Simulation::new(cfg, vec![cross_leaf_flow(2_000_000)]).run();
    assert_eq!(r.completed, 1);
    assert_eq!(r.fluid_migrations, 1);
    assert_eq!(
        r.fluid_demotions, 0,
        "a brownout is a rate change, not a failure"
    );
    let clean_fct = clean.fct.fct_of(FlowId(0)).unwrap();
    let slow_fct = r.fct.fct_of(FlowId(0)).unwrap();
    assert!(
        slow_fct > clean_fct,
        "halving the only path's rate must slow the fluid tail: {slow_fct} vs {clean_fct}"
    );
    assert!(r.audit.is_some());
}

#[test]
fn hybrid_seam_demotes_then_remigrates_and_conserves() {
    // Hard flap on the fluid tail's path: the flow is demoted back to the
    // packet tier (its remaining bytes regrown into segments), reroutes
    // onto the surviving spine, and — once an ACK confirms the new path
    // is healthy and unsent bytes remain — hands its tail to the fluid
    // tier a *second* time (PR 9; demotion previously pinned the flow to
    // packets for good). A timer armed for the first residency must fire
    // early and do nothing, and the byte ledger must balance across the
    // whole migrate → demote → re-migrate history. Two spines
    // so a live path remains after the flap; the ECMP hash
    // deterministically lands flow 0 on spine 0 (if that tie-break ever
    // changes, the `fluid_demotions` assert below will say so — retarget
    // the failure at the other spine).
    let mut cfg = one_path_cfg(Scheme::Ecmp);
    cfg.topo = LeafSpineBuilder::new(2, 2, 2)
        .link_gbps(1.0)
        .target_rtt(SimTime::from_micros(100))
        .build();
    for (at_ms, action) in [(4, FailureAction::Down), (8, FailureAction::Up)] {
        cfg.failure_events.push(FailureEvent {
            at: SimTime::from_millis(at_ms),
            target: FailureTarget::Link {
                sw: LeafId(0),
                up: SpineId(0),
            },
            action,
        });
    }
    let r = Simulation::new(cfg, vec![cross_leaf_flow(2_000_000)]).run();
    assert_eq!(r.completed, 1, "demoted flow must finish");
    assert_eq!(
        r.fluid_demotions, 1,
        "the path failure must demote the tail"
    );
    assert_eq!(
        r.fluid_migrations, 2,
        "the demoted flow must re-qualify and migrate a second time"
    );
    let audit = r.audit.expect("audit enabled");
    let in_flight: u64 = audit.kinds.iter().map(|k| k.in_flight_at_end()).sum();
    assert_eq!(
        audit.total_emitted(),
        audit.total_delivered() + audit.total_dropped() + in_flight,
        "conservation must close the books across migrate + demote + re-migrate"
    );
}
