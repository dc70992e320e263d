//! Mid-run link degradation (failure injection): the fabric loses most of
//! two uplinks' capacity while traffic is in flight; adaptive schemes must
//! keep delivering.

use tlb::engine::{EngineKind, FelKind};
use tlb::prelude::*;
use tlb::simnet::config::LinkEvent;
use tlb::simnet::Hop;

fn mix() -> BasicMixConfig {
    let mut m = BasicMixConfig::paper_default();
    m.n_short = 50;
    m.n_long = 3;
    m.long_lo = 4_000_000;
    m.long_hi = 6_000_000;
    m.short_window = SimTime::from_millis(20);
    m
}

fn run_with_failure(scheme: Scheme, seed: u64) -> RunReport {
    let mut cfg = SimConfig::basic_paper(scheme);
    // 10 ms in: two uplinks brown out to 5% bandwidth with +1 ms delay.
    for spine in [2u32, 9] {
        cfg.link_events.push(LinkEvent {
            at: SimTime::from_millis(10),
            leaf: LeafId(0),
            spine: SpineId(spine),
            bw_factor: 0.05,
            new_prop_delay: None,
            extra_delay: SimTime::from_millis(1),
        });
    }
    let flows = basic_mix(&cfg.topo, &mix(), &mut SimRng::new(seed));
    Simulation::new(cfg, flows).run()
}

#[test]
fn every_scheme_survives_a_brownout() {
    for scheme in Scheme::paper_set() {
        let name = scheme.name();
        let r = run_with_failure(scheme, 3);
        assert_eq!(
            r.completed, r.total_flows,
            "{name}: flows stranded by the brownout"
        );
    }
}

#[test]
fn brownout_slows_oblivious_schemes_more() {
    // ECMP keeps hashing flows onto the dead-slow links; TLB's shortest-
    // queue choice migrates away once their queues build.
    let tlb = run_with_failure(Scheme::tlb_default(), 7);
    let ecmp = run_with_failure(Scheme::Ecmp, 7);
    assert!(
        tlb.fct_short.p99 < ecmp.fct_short.p99,
        "TLB p99 {} !< ECMP p99 {} after brownout",
        tlb.fct_short.p99,
        ecmp.fct_short.p99
    );
}

#[test]
fn link_event_validation() {
    let mut cfg = SimConfig::basic_paper(Scheme::Ecmp);
    cfg.link_events.push(LinkEvent {
        at: SimTime::ZERO,
        leaf: LeafId(0),
        spine: SpineId(99), // out of range
        bw_factor: 0.5,
        new_prop_delay: None,
        extra_delay: SimTime::ZERO,
    });
    assert!(cfg.validate().is_err());
    cfg.link_events[0].spine = SpineId(0);
    cfg.link_events[0].bw_factor = 0.0; // invalid
    assert!(cfg.validate().is_err());
    cfg.link_events[0].bw_factor = 0.5;
    cfg.validate().unwrap();
}

/// Delivery-mode-safe run fingerprint (excludes `fel_depth`, whose values
/// legitimately differ between pipelined and per-packet delivery).
fn pinned_tlb() -> Scheme {
    let mut t = TlbConfig::paper_default();
    t.threshold_mode = ThresholdMode::Fixed(u64::MAX);
    Scheme::Tlb(t)
}

/// Hard flap: a leaf uplink goes fully dark mid-run and is repaired while
/// traffic is still flowing. Reconvergence must be clean — every flow
/// completes, the packet-conservation ledger balances (drops at the dead
/// port are accounted, not leaked), a TLB pinned at `q_th = ∞` performs
/// zero *voluntary* long-flow reroutes (forced evacuations off the dead
/// uplink are tallied separately), and the whole run is bit-identical
/// across both FEL backends and both delivery modes.
#[test]
fn flap_and_repair_reconverge_cleanly() {
    let run = |fel: FelKind, delivery: DeliveryKind| {
        let mut cfg = SimConfig::basic_paper(pinned_tlb());
        cfg.audit = true;
        cfg.fel = fel;
        cfg.delivery = delivery;
        for (at_ms, action) in [(5, FailureAction::Down), (12, FailureAction::Up)] {
            cfg.failure_events.push(FailureEvent {
                at: SimTime::from_millis(at_ms),
                target: FailureTarget::Link {
                    sw: LeafId(0),
                    up: SpineId(3),
                },
                action,
            });
        }
        let flows = basic_mix(&cfg.topo, &mix(), &mut SimRng::new(11));
        Simulation::new(cfg, flows).run()
    };

    let base = run(FelKind::Calendar, DeliveryKind::Pipelined);
    assert_eq!(
        base.completed, base.total_flows,
        "flows stranded by the flap/repair cycle"
    );
    assert!(base.audit.is_some(), "conservation audit did not run");
    assert_eq!(
        base.tlb_long_reroutes,
        Some(0),
        "pinned TLB made voluntary long-flow reroutes around the flap"
    );
    assert!(
        base.forced_reroutes.is_some(),
        "failure schedule present but forced-reroute accounting missing"
    );

    for fel in [FelKind::Calendar, FelKind::Heap] {
        for delivery in [DeliveryKind::Pipelined, DeliveryKind::PerPacket] {
            let r = run(fel, delivery);
            assert_eq!(
                r.digest(),
                base.digest(),
                "{fel:?}/{delivery:?} diverged from Calendar/Pipelined"
            );
        }
    }
}

/// Acceptance matrix: a k=8 fat tree (128 hosts, 80 switches) with a
/// mid-run edge-uplink flap completes with the conservation audit on and
/// produces bit-identical digests across FelKind x LbDispatch x
/// DeliveryKind.
#[test]
fn fat_tree_k8_flap_matrix_is_bit_identical() {
    let run = |fel: FelKind, dispatch: LbDispatch, delivery: DeliveryKind| {
        let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
        cfg.topo = FatTreeBuilder::new(8)
            .link_gbps(1.0)
            .target_rtt(SimTime::from_micros(100))
            .build();
        cfg.audit = true;
        cfg.fel = fel;
        cfg.lb_dispatch = dispatch;
        cfg.delivery = delivery;
        for (at_ms, action) in [(2, FailureAction::Down), (6, FailureAction::Up)] {
            cfg.failure_events.push(FailureEvent {
                at: SimTime::from_millis(at_ms),
                target: FailureTarget::Link {
                    sw: LeafId(0), // edge 0
                    up: SpineId(1),
                },
                action,
            });
        }
        let mut m = mix();
        m.n_short = 40;
        m.n_long = 2;
        m.long_lo = 1_500_000;
        m.long_hi = 2_500_000;
        let flows = basic_mix(&cfg.topo, &m, &mut SimRng::new(23));
        Simulation::new(cfg, flows).run()
    };

    let base = run(FelKind::Calendar, LbDispatch::Enum, DeliveryKind::Pipelined);
    assert_eq!(
        base.completed, base.total_flows,
        "fat-tree flap stranded flows"
    );
    assert!(base.audit.is_some(), "conservation audit did not run");

    for fel in [FelKind::Calendar, FelKind::Heap] {
        for dispatch in [LbDispatch::Enum, LbDispatch::Dyn] {
            for delivery in [DeliveryKind::Pipelined, DeliveryKind::PerPacket] {
                let r = run(fel, dispatch, delivery);
                assert_eq!(
                    r.digest(),
                    base.digest(),
                    "{fel:?}/{dispatch:?}/{delivery:?} diverged"
                );
            }
        }
    }
}

/// The tie the arrival key has to settle by itself: a mid-run `LinkEvent`
/// shortens both of leaf 0's busy uplinks from 50 µs to 5 µs, so every
/// packet sent in the next ~45 µs clamps to the wire's FIFO floor and
/// several cross one link at the *same* instant. Pipelined delivery has one
/// chained `Deliver` per port and the per-packet reference one `Arrive` per
/// packet; both must pop those packets in the order they entered the
/// link, on the serial engine and across shards — same digest, same audit
/// ledger, same per-hop trace.
#[test]
fn same_instant_arrivals_on_one_link_keep_fifo_order_in_every_mode() {
    let run = |delivery: DeliveryKind, engine: EngineKind| {
        let mut cfg = SimConfig::basic_paper(Scheme::Rps);
        cfg.topo = LeafSpineBuilder::new(2, 2, 4)
            .link_gbps(1.0)
            .prop_per_link(SimTime::from_micros(50))
            .build();
        cfg.audit = true;
        cfg.delivery = delivery;
        cfg.engine = engine;
        for spine in 0..2 {
            cfg.link_events.push(LinkEvent {
                at: SimTime::from_millis(2),
                leaf: LeafId(0),
                spine: SpineId(spine),
                bw_factor: 1.0,
                new_prop_delay: Some(SimTime::from_micros(5)),
                extra_delay: SimTime::ZERO,
            });
        }
        cfg.trace_flows = vec![FlowId(0), FlowId(1)];
        let flows: Vec<FlowSpec> = (0..4u32)
            .map(|i| FlowSpec {
                id: FlowId(i),
                src: HostId(i),
                dst: HostId(4 + i),
                size_bytes: 2_000_000,
                start: SimTime::ZERO,
                deadline: None,
            })
            .collect();
        Simulation::new(cfg, flows).run()
    };
    let rows = |r: &RunReport| -> Vec<_> {
        (r.traces.iter())
            .map(|t| (t.at, t.hop, t.flow, t.seq))
            .collect()
    };

    let base = run(DeliveryKind::Pipelined, EngineKind::Serial);
    assert_eq!(base.completed, base.total_flows);
    assert!(base.audit.is_some(), "conservation audit did not run");
    // The scenario must actually produce the tie, or the comparison below
    // proves nothing about it.
    let base_rows = rows(&base);
    let tied = (base_rows.windows(2))
        .filter(|w| matches!(w[0].1, Hop::SpineDownlink { .. }))
        .filter(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        .count();
    assert!(
        tied > 0,
        "no two traced packets entered one spine downlink at the same instant"
    );

    let sharded = EngineKind::Sharded { workers: Some(2) };
    for delivery in [DeliveryKind::Pipelined, DeliveryKind::PerPacket] {
        for engine in [EngineKind::Serial, sharded] {
            let r = run(delivery, engine);
            let label = format!("{delivery:?}/{engine:?}");
            if engine == sharded {
                assert_eq!(r.engine_workers, Some(2), "{label}: engine refused");
            }
            assert_eq!(r.digest(), base.digest(), "{label}: digest diverged");
            assert_eq!(r.audit, base.audit, "{label}: audit diverged");
            assert_eq!(rows(&r), base_rows, "{label}: trace diverged");
        }
    }
}

#[test]
fn degradation_actually_bites() {
    // A single long flow pinned (ECMP) through a link that browns out must
    // take much longer than without the failure.
    let one_flow = |with_failure: bool| {
        let mut cfg = SimConfig::basic_paper(Scheme::Ecmp);
        cfg.topo = LeafSpineBuilder::new(2, 1, 2) // exactly one path
            .link_gbps(1.0)
            .target_rtt(SimTime::from_micros(100))
            .build();
        if with_failure {
            cfg.link_events.push(LinkEvent {
                at: SimTime::from_millis(5),
                leaf: LeafId(0),
                spine: SpineId(0),
                bw_factor: 0.1,
                new_prop_delay: None,
                extra_delay: SimTime::ZERO,
            });
        }
        let flows = vec![FlowSpec {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(2),
            size_bytes: 10_000_000,
            start: SimTime::ZERO,
            deadline: None,
        }];
        Simulation::new(cfg, flows).run()
    };
    let healthy = one_flow(false);
    let failed = one_flow(true);
    let h = healthy.fct.fct_of(FlowId(0)).unwrap();
    let f = failed.fct.fct_of(FlowId(0)).unwrap();
    assert!(
        f > 3.0 * h,
        "10x brownout on the only path must slow the flow: {f} vs {h}"
    );
    assert_eq!(failed.completed, 1);
}

/// PR 8 regression: a `FailureEvent` aimed at an already-dead target is a
/// deterministic no-op. Downing a dead link again, or downing a port of a
/// switch that already went dark, must change nothing except the one extra
/// FEL pop the event itself costs — identical FCTs, drops, marks, traces,
/// audit ledger and forced-reroute tally, in both delivery modes.
#[test]
fn refailing_dead_targets_is_a_deterministic_noop() {
    let link = |at_ms: u64, action: FailureAction| FailureEvent {
        at: SimTime::from_millis(at_ms),
        target: FailureTarget::Link {
            sw: LeafId(0),
            up: SpineId(3),
        },
        action,
    };
    let run = |extra: &[FailureEvent], base: &[FailureEvent], delivery: DeliveryKind| {
        let mut cfg = SimConfig::basic_paper(pinned_tlb());
        cfg.audit = true;
        cfg.delivery = delivery;
        cfg.failure_events.extend_from_slice(base);
        cfg.failure_events.extend_from_slice(extra);
        let flows = basic_mix(&cfg.topo, &mix(), &mut SimRng::new(11));
        Simulation::new(cfg, flows).run()
    };
    // Everything but the raw event count must match (the duplicate is
    // itself one FEL pop, so `events` grows by exactly the extras).
    let noev = |r: &RunReport| {
        let digest = r.digest();
        let (_events, rest) = digest.split_once('|').expect("digest has fields");
        rest.to_string()
    };

    // Case 1: the same link goes down twice before its repair.
    // Case 2: a whole spine goes dark, then a link event re-downs one of
    // its (already dead) ports.
    let spine3 = FailureTarget::Switch { sw: 3 + 3 }; // 3 leaves first, then spines
    let sw = |at_ms: u64, action: FailureAction| FailureEvent {
        at: SimTime::from_millis(at_ms),
        target: spine3,
        action,
    };
    let cases: [(&[FailureEvent], &[FailureEvent]); 2] = [
        (
            &[link(5, FailureAction::Down), link(12, FailureAction::Up)],
            &[link(7, FailureAction::Down), link(9, FailureAction::Down)],
        ),
        (
            &[sw(5, FailureAction::Down), sw(12, FailureAction::Up)],
            &[link(7, FailureAction::Down)],
        ),
    ];
    for (case, (base_ev, extra)) in cases.iter().enumerate() {
        for delivery in [DeliveryKind::Pipelined, DeliveryKind::PerPacket] {
            let base = run(&[], base_ev, delivery);
            let dup = run(extra, base_ev, delivery);
            assert_eq!(
                base.completed, base.total_flows,
                "case {case}/{delivery:?}: baseline stranded flows"
            );
            assert_eq!(
                noev(&dup),
                noev(&base),
                "case {case}/{delivery:?}: re-failing a dead target changed the run"
            );
            assert_eq!(
                dup.events,
                base.events + extra.len() as u64,
                "case {case}/{delivery:?}: no-op events must cost exactly one pop each"
            );
            assert_eq!(
                dup.audit, base.audit,
                "case {case}/{delivery:?}: audit ledger diverged"
            );
            assert_eq!(
                dup.forced_reroutes, base.forced_reroutes,
                "case {case}/{delivery:?}: forced-reroute tally diverged"
            );
        }
    }
}
