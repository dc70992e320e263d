//! Mid-run link degradation (failure injection): the fabric loses most of
//! two uplinks' capacity while traffic is in flight; adaptive schemes must
//! keep delivering.

use tlb::engine::EngineKind;
use tlb::prelude::*;
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
        cfg.admin_events.push(AdminEvent {
            at: SimTime::from_millis(10),
            target: Target::Link {
                sw: LeafId(0),
                up: SpineId(spine),
            },
            change: Change::Rate {
                bw_factor: 0.05,
                new_prop_delay: None,
                extra_delay: SimTime::from_millis(1),
            },
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
    let rate = |up, bw_factor| AdminEvent {
        at: SimTime::ZERO,
        target: Target::Link {
            sw: LeafId(0),
            up: SpineId(up),
        },
        change: Change::Rate {
            bw_factor,
            new_prop_delay: None,
            extra_delay: SimTime::ZERO,
        },
    };
    cfg.admin_events.push(rate(99, 0.5)); // out of range
    assert!(cfg.validate().is_err());
    cfg.admin_events[0] = rate(0, 0.0); // invalid
    assert!(cfg.validate().is_err());
    cfg.admin_events[0] = rate(0, 0.5);
    cfg.validate().unwrap();
}

/// TLB held at `q_th = ∞`: it never reroutes a long flow voluntarily.
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
/// uplink are tallied separately) — and the run reproduces its pinned
/// digest, on a rerun too.
#[test]
fn flap_and_repair_reconverge_cleanly() {
    const PINNED: &str = "115063|0.001427352100|115883260.809832736850|0|3361|53";
    const PINNED_FCTS: u64 = 0xdf18a9fc8b3bcf01;
    let run = || {
        let mut cfg = SimConfig::basic_paper(pinned_tlb());
        cfg.audit = true;
        for (at_ms, change) in [(5, Change::Down), (12, Change::Up)] {
            cfg.admin_events.push(AdminEvent {
                at: SimTime::from_millis(at_ms),
                target: Target::Link {
                    sw: LeafId(0),
                    up: SpineId(3),
                },
                change,
            });
        }
        let flows = basic_mix(&cfg.topo, &mix(), &mut SimRng::new(11));
        Simulation::new(cfg, flows).run()
    };

    let base = run();
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
    let pin = |r: &RunReport| (r.digest(), format!("{:#018x}", r.fct_hash()));
    let pinned = (PINNED.to_string(), format!("{PINNED_FCTS:#018x}"));
    assert_eq!(pin(&base), pinned, "the flap run moved off its pin");
    assert_eq!(pin(&run()), pinned, "the rerun diverged");
}

/// Acceptance run: a k=8 fat tree (128 hosts, 80 switches) with a mid-run
/// edge-uplink flap completes with the conservation audit on and
/// reproduces its pinned digest, on a rerun too.
#[test]
fn fat_tree_k8_flap_matrix_is_pinned() {
    const PINNED: &str = "49851|0.002202837325|89494925.066918015480|2|1720|42";
    const PINNED_FCTS: u64 = 0x4bc3820164191e06;
    let run = || {
        let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
        cfg.topo = FatTreeBuilder::new(8)
            .link_gbps(1.0)
            .target_rtt(SimTime::from_micros(100))
            .build();
        cfg.audit = true;
        for (at_ms, change) in [(2, Change::Down), (6, Change::Up)] {
            cfg.admin_events.push(AdminEvent {
                at: SimTime::from_millis(at_ms),
                target: Target::Link {
                    sw: LeafId(0), // edge 0
                    up: SpineId(1),
                },
                change,
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

    let base = run();
    assert_eq!(
        base.completed, base.total_flows,
        "fat-tree flap stranded flows"
    );
    assert!(base.audit.is_some(), "conservation audit did not run");
    let pin = |r: &RunReport| (r.digest(), format!("{:#018x}", r.fct_hash()));
    let pinned = (PINNED.to_string(), format!("{PINNED_FCTS:#018x}"));
    assert_eq!(pin(&base), pinned, "the k=8 flap moved off its pin");
    assert_eq!(pin(&run()), pinned, "the rerun diverged");
}

/// The tie the arrival key has to settle by itself: a mid-run rate change
/// shortens both of leaf 0's busy uplinks from 50 µs to 5 µs, so every
/// packet sent in the next ~45 µs clamps to the wire's FIFO floor and
/// several cross one link at the *same* instant. The link's one chained
/// `Deliver` must hand those packets on in the order they entered the
/// link — read off the trace: each same-instant pair entering a spine
/// downlink entered leaf 0's uplink in that order — and the sharded engine
/// must reproduce the serial run: same digest, same audit ledger, same
/// per-hop trace.
#[test]
fn same_instant_arrivals_on_one_link_keep_fifo_order_in_every_engine() {
    let run = |engine: EngineKind| {
        let mut cfg = SimConfig::basic_paper(Scheme::Rps);
        cfg.topo = LeafSpineBuilder::new(2, 2, 4)
            .link_gbps(1.0)
            .prop_per_link(SimTime::from_micros(50))
            .build();
        cfg.audit = true;
        cfg.engine = engine;
        for spine in 0..2 {
            cfg.admin_events.push(AdminEvent {
                at: SimTime::from_millis(2),
                target: Target::Link {
                    sw: LeafId(0),
                    up: SpineId(spine),
                },
                change: Change::Rate {
                    bw_factor: 1.0,
                    new_prop_delay: Some(SimTime::from_micros(5)),
                    extra_delay: SimTime::ZERO,
                },
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
            .map(|t| (t.at, t.hop, t.flow, t.kind, t.seq))
            .collect()
    };

    let base = run(EngineKind::Serial);
    assert_eq!(base.completed, base.total_flows);
    assert!(base.audit.is_some(), "conservation audit did not run");
    let base_rows = rows(&base);
    // Row index at which the packet of row `i` last entered leaf 0's
    // uplink toward spine `spine` before row `i` (a retransmission enters
    // again; the copy on the wire is the latest).
    let entered_uplink = |i: usize, spine: u16| {
        let (_, _, flow, kind, seq) = base_rows[i];
        (0..i)
            .rev()
            .find(|&j| {
                let (_, hop, f, k, s) = base_rows[j];
                (hop, f, k, s) == (Hop::LeafUplink { leaf: 0, spine }, flow, kind, seq)
            })
            .expect("a spine downlink row without its uplink row")
    };
    let mut tied = 0;
    for i in 1..base_rows.len() {
        let (at, hop, ..) = base_rows[i];
        let Hop::SpineDownlink { spine, leaf: 1 } = hop else {
            continue;
        };
        if (base_rows[i - 1].0, base_rows[i - 1].1) != (at, hop) {
            continue;
        }
        tied += 1;
        assert!(
            entered_uplink(i - 1, spine) < entered_uplink(i, spine),
            "rows {} and {i}: same-instant arrivals at spine {spine} left its \
             wire out of the order they entered it",
            i - 1
        );
    }
    // The scenario must actually produce the tie, or the check above
    // proves nothing about it.
    assert!(
        tied > 0,
        "no two traced packets entered one spine downlink at the same instant"
    );

    let r = run(EngineKind::Sharded { workers: Some(2) });
    assert!(
        r.engine_fallback.is_none() && r.sharded_shards == 2,
        "engine refused"
    );
    assert_eq!(r.digest(), base.digest(), "sharded digest diverged");
    assert_eq!(r.audit, base.audit, "sharded audit diverged");
    assert_eq!(rows(&r), base_rows, "sharded trace diverged");
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
            cfg.admin_events.push(AdminEvent {
                at: SimTime::from_millis(5),
                target: Target::Link {
                    sw: LeafId(0),
                    up: SpineId(0),
                },
                change: Change::Rate {
                    bw_factor: 0.1,
                    new_prop_delay: None,
                    extra_delay: SimTime::ZERO,
                },
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

/// PR 8 regression: a `Change::Down` aimed at an already-dead target is a
/// deterministic no-op. Downing a dead link again, or downing a port of a
/// switch that already went dark, must change nothing except the event
/// count, one higher per duplicate — identical FCTs, drops, marks, traces,
/// audit ledger and forced-reroute tally.
#[test]
fn refailing_dead_targets_is_a_deterministic_noop() {
    let link = |at_ms: u64, change: Change| AdminEvent {
        at: SimTime::from_millis(at_ms),
        target: Target::Link {
            sw: LeafId(0),
            up: SpineId(3),
        },
        change,
    };
    let run = |extra: &[AdminEvent], base: &[AdminEvent]| {
        let mut cfg = SimConfig::basic_paper(pinned_tlb());
        cfg.audit = true;
        cfg.admin_events.extend_from_slice(base);
        cfg.admin_events.extend_from_slice(extra);
        let flows = basic_mix(&cfg.topo, &mix(), &mut SimRng::new(11));
        Simulation::new(cfg, flows).run()
    };
    // Everything but the raw event count must match (the duplicate is
    // itself one event, so `events` grows by exactly the extras).
    let noev = |r: &RunReport| {
        let digest = r.digest();
        let (_events, rest) = digest.split_once('|').expect("digest has fields");
        rest.to_string()
    };

    // Case 1: the same link goes down twice before its repair.
    // Case 2: a whole spine goes dark, then a link event re-downs one of
    // its (already dead) ports.
    let spine3 = Target::Switch { sw: 3 + 3 }; // 3 leaves first, then spines
    let sw = |at_ms: u64, change: Change| AdminEvent {
        at: SimTime::from_millis(at_ms),
        target: spine3,
        change,
    };
    let cases: [(&[AdminEvent], &[AdminEvent]); 2] = [
        (
            &[link(5, Change::Down), link(12, Change::Up)],
            &[link(7, Change::Down), link(9, Change::Down)],
        ),
        (
            &[sw(5, Change::Down), sw(12, Change::Up)],
            &[link(7, Change::Down)],
        ),
    ];
    for (case, (base_ev, extra)) in cases.iter().enumerate() {
        let base = run(&[], base_ev);
        let dup = run(extra, base_ev);
        assert_eq!(
            base.completed, base.total_flows,
            "case {case}: baseline stranded flows"
        );
        assert_eq!(
            noev(&dup),
            noev(&base),
            "case {case}: re-failing a dead target changed the run"
        );
        assert_eq!(
            dup.events,
            base.events + extra.len() as u64,
            "case {case}: no-op events must cost exactly one pop each"
        );
        assert_eq!(dup.audit, base.audit, "case {case}: audit ledger diverged");
        assert_eq!(
            dup.forced_reroutes, base.forced_reroutes,
            "case {case}: forced-reroute tally diverged"
        );
    }
}
