//! End-to-end simulator tests: physics sanity (line rate, RTT), protocol
//! sanity (completion, conservation), and determinism.

use super::*;
use crate::scheme::Scheme;
use tlb_engine::SimTime;
use tlb_net::{FlowId, HostId, LeafId, SpineId};
use tlb_workload::FlowSpec;

pub(super) fn one_flow(size: u64) -> Vec<FlowSpec> {
    vec![FlowSpec {
        id: FlowId(0),
        src: HostId(0),
        dst: HostId(16), // different leaf in the basic 3x15x16 topology
        size_bytes: size,
        start: SimTime::ZERO,
        deadline: None,
    }]
}

fn run_basic(scheme: Scheme, flows: Vec<FlowSpec>) -> RunReport {
    let cfg = crate::SimConfig::basic_paper(scheme);
    Simulation::new(cfg, flows).run()
}

#[test]
fn single_small_flow_fct_is_physical() {
    // 2 segments, IW=2: handshake (1 RTT) + one window. Lower bound is
    // 1.5 RTT + serialization of 2 packets over 4 hops; upper bound a few
    // RTTs. At 1 Gbit/s + 100 us RTT this is well under 1 ms.
    let r = run_basic(Scheme::Ecmp, one_flow(2 * 1460));
    assert_eq!(r.completed, 1);
    let fct = r.fct.fct_of(FlowId(0)).unwrap();
    assert!(fct > 150e-6, "fct {fct} below propagation floor");
    assert!(fct < 1e-3, "fct {fct} implausibly slow");
    assert_eq!(r.drops, 0);
    assert_eq!(r.short.retransmits, 0);
}

#[test]
fn long_flow_reaches_near_line_rate() {
    // A window-limited DCTCP flow: W=64KB over RTT=100us allows ~5 Gbit/s,
    // so the 1 Gbit/s link is the binding constraint; expect >= 80% of line
    // rate goodput.
    let r = run_basic(Scheme::Ecmp, one_flow(20_000_000));
    assert_eq!(r.completed, 1);
    let goodput = r.fct_long.mean_goodput; // bytes/s
    assert!(
        goodput > 0.8 * 125_000_000.0,
        "goodput {:.1} Mbit/s too low",
        goodput * 8.0 / 1e6
    );
    assert!(
        goodput <= 125_000_000.0,
        "goodput exceeds line rate: {goodput}"
    );
}

#[test]
fn conservation_sent_equals_received_plus_losses() {
    // With no drops, every first-transmission data segment is received
    // exactly once (no retransmissions on a clean single flow).
    let r = run_basic(Scheme::Ecmp, one_flow(5_000_000));
    assert_eq!(r.drops, 0);
    let c = &r.long;
    assert_eq!(c.data_sent, c.data_received);
    assert_eq!(c.retransmits, 0);
    assert_eq!(c.out_of_order, 0, "single path cannot reorder");
}

#[test]
#[should_panic(expected = "audit")]
fn audit_catches_a_packet_dropped_outside_port_accounting() {
    // The 5th arrival vanishes between a port's departure and the next node,
    // exactly the class of simulator bug no per-port counter can see. The
    // transport recovers the loss, so the flow still finishes, and the
    // audit must panic at report time. A short horizon keeps the doomed
    // run cheap.
    let mut cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
    cfg.audit = true;
    cfg.horizon = SimTime::from_millis(500);
    let flows = one_flow(50_000);
    let mut net = Net::build(&cfg, &flows, &[None], None);
    net.lose_arrival = Some(5);
    net.run_loop();
    // Unreachable: into_report must have panicked.
    let _ = net.into_report(std::time::Duration::ZERO);
}

/// The measurement layer's rule: what a run records is bounded by flows,
/// fabric and horizon ÷ bucket, never by bytes carried — a long flow
/// leaves no per-packet sample behind.
#[test]
fn a_long_flow_leaves_no_per_packet_sample() {
    let r = run_basic(Scheme::Rps, one_flow(500 * 1460));
    assert_eq!(r.completed, 1);
    assert_eq!(r.long.data_received, 500);
    assert!(r.short_qlen.is_empty() && r.short_qdelay.is_empty() && r.long_qlen.is_empty());
    assert_eq!(
        r.fel_depth.len() as u64,
        r.events / Net::FEL_DEPTH_SAMPLE_EVERY
    );
    // What the figures read of a long flow is still there.
    assert!(!r.long_goodput_series.is_empty());
    assert!((0.0..=1.0).contains(&r.long.reorder_ratio()));

    // Short-flow data is sampled once per LB hop — one, the leaf uplink,
    // on this fabric: at enqueue (`short_qlen`) and again when served
    // (`short_qdelay`; a packet dropped at the uplink never is).
    let mut mix = tlb_workload::BasicMixConfig::paper_default();
    mix.n_short = 20;
    mix.n_long = 2;
    let cfg = crate::SimConfig::basic_paper(Scheme::tlb_default());
    let flows = tlb_workload::basic_mix(&cfg.topo, &mix, &mut tlb_engine::SimRng::new(3));
    let r = Simulation::new(cfg, flows).run();
    assert!(r.long.data_sent > r.short.data_sent);
    assert!(!r.short_qdelay.is_empty() && r.long_qlen.is_empty());
    assert!(r.short_qdelay.len() <= r.short_qlen.len());
    assert!(r.short_qlen.len() as u64 <= r.short.data_sent + r.short.retransmits);
}

/// Per-packet spraying over degraded uplinks reorders, reordering triggers
/// spurious retransmissions, and some of those duplicates reach their flow
/// after it completed — after its receiver closed (29 of them here). Every
/// class counter reads the values pinned from when endpoints lived to the
/// end of the run, and every endpoint the run opened was audited.
#[test]
fn late_duplicates_count_after_their_receiver_closes() {
    let mut cfg = crate::SimConfig::basic_paper(Scheme::Rps);
    cfg.audit = true;
    (cfg.topo).degrade_link(LeafId(0), SpineId(0), 0.25, SimTime::from_micros(200));
    (cfg.topo).degrade_link(LeafId(0), SpineId(1), 0.5, SimTime::from_micros(100));
    let mut mix = tlb_workload::BasicMixConfig::paper_default();
    mix.n_short = 40;
    mix.n_long = 3;
    mix.long_lo = 1_000_000;
    mix.long_hi = 2_000_000;
    let flows = tlb_workload::basic_mix(&cfg.topo, &mix, &mut tlb_engine::SimRng::new(7));
    let r = Simulation::new(cfg, flows).run();
    assert_eq!(r.completed, r.total_flows);
    let audit = r.audit.as_ref().expect("the audit is on");
    assert_eq!(
        (audit.senders_checked, audit.receivers_checked),
        (r.total_flows, r.total_flows)
    );
    // data_sent, retransmits, timeouts, fast_retransmits, dup_acks,
    // data_received, out_of_order.
    let counts = |c: &crate::report::ClassCounters| {
        [
            c.data_sent,
            c.retransmits,
            c.timeouts,
            c.fast_retransmits,
            c.dup_acks,
            c.data_received,
            c.out_of_order,
        ]
    };
    assert_eq!(counts(&r.short), [1890, 163, 0, 95, 831, 2053, 764]);
    assert_eq!(counts(&r.long), [2703, 199, 0, 123, 904, 2902, 807]);
}

/// The high-BDP shape of `tests/fel_occupancy.rs` — 2 leaves × 4 spines ×
/// 8 hosts, 10 Gbit/s × 500 µs links, 16 cross-rack 4 MB flows sprayed
/// over every uplink — cut off at 60 ms with every window still in flight.
fn high_bdp_job(admin_events: Vec<crate::config::AdminEvent>) -> (crate::SimConfig, Vec<FlowSpec>) {
    let mut cfg = crate::SimConfig::basic_paper(Scheme::Rps);
    cfg.audit = true;
    cfg.topo = tlb_net::LeafSpineBuilder::new(2, 4, 8)
        .link_gbps(10.0)
        .prop_per_link(SimTime::from_micros(500))
        .build();
    cfg.horizon = SimTime::from_millis(60);
    cfg.admin_events = admin_events;
    let flows = (0..16u32)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: HostId(i % 8),
            dst: HostId(8 + (i * 3) % 8),
            size_bytes: 4_000_000,
            start: SimTime::from_micros(10 * i as u64),
            deadline: None,
        })
        .collect();
    (cfg, flows)
}

#[test]
fn the_wire_follows_what_is_live() {
    // A packet is in the arena from emission to delivery — queued,
    // serializing or crossing a link — and on a link's pipe exactly while
    // it crosses: the slab never outgrows the one reservation made at
    // build, `wire_pkts_peak` counts the pipes only, and closing the audit
    // counts every parked packet once and leaves the ports, every pipe and
    // the arena empty. The second schedule stretches a busy uplink's delay
    // fivefold mid-run — its in-flight ceiling rises under packets already
    // on the wire.
    let stretch = crate::config::AdminEvent {
        at: SimTime::from_millis(30),
        target: crate::config::Target::Link {
            sw: LeafId(0),
            up: SpineId(0),
        },
        change: crate::config::Change::Rate {
            bw_factor: 1.0,
            new_prop_delay: Some(SimTime::from_micros(2_500)),
            extra_delay: SimTime::ZERO,
        },
    };
    for admin_events in [vec![], vec![stretch]] {
        let (cfg, flows) = high_bdp_job(admin_events);
        let next = vec![None; flows.len()];
        let mut net = Net::build(&cfg, &flows, &next, None);
        let reserved = link::packet_bound(&cfg, &net.pmap, &net.ports);
        net.run_loop();
        // The run's end departs what started by the horizon.
        let (sim_end, end) = net.end_of_run();
        let on_wire = net.wire_pkts;
        assert!(on_wire > 0, "the horizon cut nothing off");
        let queued: usize = net.ports.iter().map(|p| p.len_pkts()).sum();
        assert_eq!(net.arena.live(), on_wire + queued);
        assert!(
            net.arena.slots_allocated() <= reserved,
            "{} arena slots against {reserved} reserved",
            net.arena.slots_allocated()
        );
        // The wire's high-water mark is the pipes', within the wire's own
        // bound; the arena's also counts what waited at the ports.
        assert!(net.wire_pkts_peak >= on_wire);
        assert!(net.wire_pkts_peak <= link::wire_bound(&cfg, &net.pmap));
        assert!(net.arena.peak_live() > net.wire_pkts_peak);
        // A departed packet rides its link's pipe from its service start;
        // the ones still serializing when the horizon cut the run in are
        // counted in service, not propagating.
        let serializing = net.cut_service_at_end(sim_end, end);
        let in_service = serializing.iter().filter(|&&s| s).count() as u64;
        let audit = net.finish_audit(&serializing).expect("the audit is on");
        let sum = |f: fn(&crate::audit::KindCounts) -> u64| audit.kinds.iter().map(f).sum::<u64>();
        assert_eq!(sum(|k| k.propagating_at_end), on_wire as u64 - in_service);
        assert_eq!(sum(|k| k.in_service_at_end), in_service);
        assert_eq!(sum(|k| k.queued_at_end), queued as u64);
        assert!(net.pipes.iter().all(|pipe| pipe.is_empty()));
        assert!(net.ports.iter().all(|p| p.len_pkts() == 0));
        assert!(net.arena.is_empty());
    }
}

#[test]
fn a_horizon_mid_serialization_leaves_the_packet_in_service() {
    // A horizon 1 ns before the end of a serialization at the sending
    // host's NIC cuts that packet's service. It is already on its link's
    // pipe, yet the audit counts it in service, not propagating, and the
    // NIC gives back its serialization past the end — the counters hold
    // only what was through by then.
    let mut cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
    cfg.audit = true;
    cfg.horizon = SimTime::from_millis(3);
    let flows = one_flow(5_000_000);
    let nic = |net: &Net| net.pmap.host_nic(0) as usize;
    let mut net = Net::build(&cfg, &flows, &[None], None);
    net.run_loop();
    net.end_of_run();
    cfg.horizon = net.ports[nic(&net)].busy_until() - SimTime::from_nanos(1);
    let mut net = Net::build(&cfg, &flows, &[None], None);
    let nic = nic(&net);
    net.run_loop();
    let (sim_end, end) = net.end_of_run();
    assert_eq!(end, (cfg.horizon, u32::MAX), "the horizon cut the run");
    assert!(net.serializing(nic as u32, end));
    let (busy, sent) = (net.ports[nic].stats().busy, net.ports[nic].stats().pkts_tx);
    let serializing = net.cut_service_at_end(sim_end, end);
    assert!(serializing[nic]);
    let nic_stats = *net.ports[nic].stats();
    assert_eq!(nic_stats.pkts_tx, sent - 1);
    let past_end = net.ports[nic].busy_until() - sim_end;
    assert_eq!(nic_stats.busy, busy - past_end);
    let audit = net.finish_audit(&serializing).expect("the audit is on");
    let data = &audit.kinds[2];
    assert!(data.in_service_at_end >= 1);
    assert_eq!(data.tx_done, data.tx_started - data.in_service_at_end);
}

#[test]
fn a_run_with_no_flows_ends_at_zero_with_nothing_in_service() {
    // No flow, no event: every port is as built, none has departed a
    // packet, so none is serializing at the run's end, (0, 0).
    let mut cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
    cfg.audit = true;
    let net = Net::build(&cfg, &[], &[], None);
    assert!((0..net.ports.len() as u32).all(|p| !net.serializing(p, (SimTime::ZERO, 0))));
    let r = Simulation::new(cfg, vec![]).run();
    assert_eq!((r.completed, r.events, r.sim_end), (0, 0, SimTime::ZERO));
    let audit = r.audit.expect("the audit is on");
    assert_eq!(audit.total_emitted(), 0);
}

#[test]
fn a_port_that_never_sent_is_idle_at_time_zero() {
    // A lone one-segment flow starting at time 0: every packet finds its
    // port idle and departs at once — a port read as serializing before
    // its first departure would hold the SYN back with nothing to start
    // it, and the flow would never complete.
    let r = run_basic(Scheme::Ecmp, one_flow(1000));
    assert_eq!(r.completed, 1);
}

#[test]
fn a_zero_delay_fabric_completes_with_the_audit_clean() {
    // With no propagation delay a packet arrives at the instant its
    // serialization ends, at its `ARRIVAL` rank, ahead of its port's
    // departure rank: the arrival that completes the last flow leaves its
    // port's pipe empty, and that port's service is over, not cut.
    for scheme in [Scheme::Ecmp, Scheme::Rps] {
        let mut cfg = crate::SimConfig::basic_paper(scheme);
        cfg.audit = true;
        cfg.topo = tlb_net::LeafSpineBuilder::new(3, 4, 4)
            .prop_per_link(SimTime::ZERO)
            .build();
        let flows: Vec<FlowSpec> = (0..6u32)
            .map(|i| FlowSpec {
                start: SimTime::from_micros(7 * i as u64),
                size_bytes: 20_000 + 30_000 * i as u64,
                ..flow(i, i, (i + 5) % 12)
            })
            .collect();
        let mut net = Net::build(&cfg, &flows, &[None; 6], None);
        net.run_loop();
        let (sim_end, end) = net.end_of_run();
        let last = events::entity_of(end.1);
        assert_eq!(events::class_of(end.1), events::class::ARRIVAL);
        assert!(net.serializing(last, end) && net.pipes[last as usize].is_empty());
        let serializing = net.cut_service_at_end(sim_end, end);
        assert!(!serializing[last as usize]);
        let r = Simulation::new(cfg, flows).run();
        assert_eq!(r.completed, 6);
        assert!(r.audit.is_some());
    }
}

/// FNV-1a over `words`: one literal pins a table of counters or floats.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    (words.into_iter()).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// What a cut or drained run leaves to pin: its clock, every uplink's
/// utilization and the audit ledger's counters, each folded to a word.
fn end_state(r: &RunReport) -> (u64, u64, u64) {
    let util = r.uplink_utilization.iter().flatten().map(|u| u.to_bits());
    let audit = r.audit.as_ref().expect("the audit is on");
    let ledger = audit.kinds.iter().flat_map(|k| {
        [
            k.emitted,
            k.enqueue_attempts,
            k.enqueued,
            k.dropped,
            k.tx_started,
            k.tx_done,
            k.arrived,
            k.delivered,
            k.queued_at_end,
            k.in_service_at_end,
            k.propagating_at_end,
        ]
    });
    (r.sim_end.as_nanos(), fnv(util), fnv(ledger))
}

#[test]
fn a_standing_queue_on_a_zero_delay_fabric_keeps_its_fcts() {
    // Eight senders on two racks into one host of the third, with no
    // propagation delay anywhere: the spine downlinks and the last
    // leaf's host port hold standing queues, so a packet that waited
    // starts at the instant the one ahead of it arrives, one rank later.
    // Its link's `ARRIVAL` is armed while the pipe is empty — when that
    // arrival empties the pipe or a packet queues behind it at that
    // instant. Every FCT, mark and drop, and the clean audit, are the
    // ones a port with an event per departure gave.
    for (scheme, pin) in [
        (Scheme::Ecmp, (0x52a4_3150_b754_3a04, 1218, 0)),
        (Scheme::Rps, (0x9d79_fe47_b644_02ab, 1157, 0)),
    ] {
        let mut cfg = crate::SimConfig::basic_paper(scheme);
        cfg.audit = true;
        cfg.topo = tlb_net::LeafSpineBuilder::new(3, 4, 4)
            .prop_per_link(SimTime::ZERO)
            .build();
        let flows: Vec<FlowSpec> = (0..8u32)
            .map(|i| FlowSpec {
                start: SimTime::from_micros(3 * i as u64),
                size_bytes: 300_000,
                ..flow(i, i, 10)
            })
            .collect();
        let r = Simulation::new(cfg, flows).run();
        assert_eq!(r.completed, 8);
        assert!(r.audit.is_some());
        assert_eq!((r.fct_hash(), r.marks, r.drops), pin, "{}", r.scheme);
    }
}

#[test]
fn a_horizon_just_past_a_queued_start_reads_that_start() {
    // A lone long flow's sending NIC serves each window's burst back to
    // back. Cut the run 1 ns after the start of the last departure a run
    // to 2, 3 and 4 ms began there: a packet that waited, whose start no
    // event marks and whose serialization the horizon cuts. The clock
    // must read that start, and the ports' busy time and the ledger
    // (that packet in service, not propagating) what a port with an event
    // per departure left.
    for (horizon, pin) in [
        (2, (1_994_240, 0x985a_2415_abc1_7d35, 0x6c3e_ec6c_5737_b219)),
        (3, (2_990_240, 0x9a56_62c1_1a8d_34ac, 0x50c2_03f7_7ab8_8a6f)),
        (4, (3_998_240, 0x60c5_2504_6c62_29f5, 0xe272_850b_6aa6_8ec7)),
    ] {
        let mut cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
        cfg.audit = true;
        cfg.horizon = SimTime::from_millis(horizon);
        let flows = one_flow(5_000_000);
        let mut net = Net::build(&cfg, &flows, &[None], None);
        net.run_loop();
        net.end_of_run();
        let nic = &net.ports[net.pmap.host_nic(0) as usize];
        let data = cfg.tcp.mss as u64 + tlb_transport::TcpConfig::HEADER_BYTES as u64;
        let start = nic.busy_until() - nic.tx_time(data);
        cfg.horizon = start + SimTime::from_nanos(1);
        let r = Simulation::new(cfg, flows).run();
        assert_eq!(r.sim_end, start, "cut at {horizon} ms");
        assert_eq!(end_state(&r), pin, "cut at {horizon} ms");
    }
}

#[test]
fn rps_single_flow_may_reorder_but_completes() {
    let r = run_basic(Scheme::Rps, one_flow(5_000_000));
    assert_eq!(r.completed, 1);
    // All paths symmetric: spraying reorders rarely but the flow must
    // still finish with full delivery.
    assert!(r.fct_long.mean_goodput > 0.5 * 125_000_000.0);
}

#[test]
fn two_flows_share_a_bottleneck_fairly() {
    // Two long flows from different hosts to the same destination host:
    // the receiver's access link is the bottleneck; each should get ~half.
    let flows = vec![
        FlowSpec {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(16),
            size_bytes: 10_000_000,
            start: SimTime::ZERO,
            deadline: None,
        },
        FlowSpec {
            id: FlowId(1),
            src: HostId(1),
            dst: HostId(16),
            size_bytes: 10_000_000,
            start: SimTime::ZERO,
            deadline: None,
        },
    ];
    let r = run_basic(Scheme::Ecmp, flows);
    assert_eq!(r.completed, 2);
    let f0 = r.fct.fct_of(FlowId(0)).unwrap();
    let f1 = r.fct.fct_of(FlowId(1)).unwrap();
    // Perfect sharing: each 10 MB at ~62.5 MB/s ~ 0.16 s... allow wide
    // bands, but both must take clearly longer than a solo run (~0.08 s)
    // and be within 2x of each other.
    assert!(f0 > 0.12 && f1 > 0.12, "flows did not share: {f0} {f1}");
    let ratio = f0.max(f1) / f0.min(f1);
    assert!(ratio < 2.0, "unfair split: {f0} vs {f1}");
}

#[test]
fn ecn_marks_appear_under_congestion() {
    // Many senders into one receiver: the shared downlink queue must build
    // past K=20 and mark.
    let flows: Vec<FlowSpec> = (0..8)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: HostId(i),
            dst: HostId(16),
            size_bytes: 2_000_000,
            start: SimTime::ZERO,
            deadline: None,
        })
        .collect();
    let r = run_basic(Scheme::Ecmp, flows);
    assert_eq!(r.completed, 8);
    assert!(r.marks > 0, "DCTCP congestion must produce CE marks");
}

#[test]
fn dctcp_keeps_queues_shallow() {
    // The same incast with DCTCP: drops should be rare or absent because
    // marking throttles senders before the 256-packet buffer fills.
    let flows: Vec<FlowSpec> = (0..8)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: HostId(i),
            dst: HostId(16),
            size_bytes: 2_000_000,
            start: SimTime::ZERO,
            deadline: None,
        })
        .collect();
    let r = run_basic(Scheme::Ecmp, flows);
    let sent = r.short.data_sent + r.long.data_sent;
    assert!(
        (r.drops as f64) < 0.01 * sent as f64,
        "{} drops out of {} packets under DCTCP",
        r.drops,
        sent
    );
}

#[test]
fn determinism_same_seed_same_everything() {
    let mk = || {
        let mut cfg = crate::SimConfig::basic_paper(Scheme::LetFlow);
        cfg.seed = 42;
        let mut mix = tlb_workload::BasicMixConfig::paper_default();
        mix.n_short = 30;
        mix.n_long = 2;
        mix.long_lo = 2_000_000;
        mix.long_hi = 4_000_000;
        let flows = tlb_workload::basic_mix(&cfg.topo, &mix, &mut tlb_engine::SimRng::new(5));
        Simulation::new(cfg, flows).run()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.events, b.events);
    assert_eq!(a.fct_short.afct, b.fct_short.afct);
    assert_eq!(a.fct_long.mean_goodput, b.fct_long.mean_goodput);
    assert_eq!(a.drops, b.drops);
    assert_eq!(a.marks, b.marks);
}

#[test]
fn different_seeds_differ() {
    let mk = |seed| {
        let mut cfg = crate::SimConfig::basic_paper(Scheme::Rps);
        cfg.seed = seed;
        let mut mix = tlb_workload::BasicMixConfig::paper_default();
        mix.n_short = 30;
        mix.n_long = 2;
        mix.long_lo = 2_000_000;
        mix.long_hi = 4_000_000;
        let flows = tlb_workload::basic_mix(&cfg.topo, &mix, &mut tlb_engine::SimRng::new(5));
        Simulation::new(cfg, flows).run()
    };
    let a = mk(1);
    let b = mk(2);
    // Same workload, different spraying randomness: queue dynamics differ.
    // (Event counts can coincide when nothing is lost, so compare the
    // congestion-sensitive statistics instead.)
    assert!(
        a.fct_short.afct != b.fct_short.afct || a.marks != b.marks,
        "different seeds produced identical dynamics"
    );
}

#[test]
fn intra_leaf_flow_bypasses_uplinks() {
    let flows = vec![FlowSpec {
        id: FlowId(0),
        src: HostId(0),
        dst: HostId(1), // same leaf
        size_bytes: 1_000_000,
        start: SimTime::ZERO,
        deadline: None,
    }];
    let r = run_basic(Scheme::Ecmp, flows);
    assert_eq!(r.completed, 1);
    assert_eq!(
        r.lb_decisions, 0,
        "intra-rack traffic never consults the LB"
    );
    assert_eq!(r.mean_uplink_utilization(), 0.0);
}

#[test]
fn horizon_cuts_off_unfinished_flows() {
    let mut cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
    cfg.horizon = SimTime::from_millis(1); // far too short for 100 MB
    let r = Simulation::new(cfg, one_flow(100_000_000)).run();
    assert_eq!(r.completed, 0);
    assert_eq!(r.fct_long.unfinished, 1);
    assert!(r.sim_end <= SimTime::from_millis(2));
}

#[test]
fn deadline_miss_accounting_end_to_end() {
    // One short flow with an absurdly tight deadline (1 ns: must miss) and
    // one with a loose deadline (1 s: must meet).
    let flows = vec![
        FlowSpec {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(16),
            size_bytes: 50_000,
            start: SimTime::ZERO,
            deadline: Some(SimTime::from_nanos(1)),
        },
        FlowSpec {
            id: FlowId(1),
            src: HostId(1),
            dst: HostId(17),
            size_bytes: 50_000,
            start: SimTime::ZERO,
            deadline: Some(SimTime::from_secs(1)),
        },
    ];
    let r = run_basic(Scheme::tlb_default(), flows);
    assert_eq!(r.completed, 2);
    assert!((r.fct_short.deadline_miss - 0.5).abs() < 1e-9);
}

#[test]
fn tlb_records_qth_series() {
    let mut mix = tlb_workload::BasicMixConfig::paper_default();
    mix.n_short = 40;
    mix.n_long = 3;
    mix.long_lo = 3_000_000;
    mix.long_hi = 5_000_000;
    let cfg = crate::SimConfig::basic_paper(Scheme::tlb_default());
    let flows = tlb_workload::basic_mix(&cfg.topo, &mix, &mut tlb_engine::SimRng::new(8));
    let r = Simulation::new(cfg, flows).run();
    assert_eq!(r.completed, r.total_flows);
    assert!(
        !r.qth_series.is_empty(),
        "TLB must report its threshold trajectory"
    );
    assert!(r.lb_state_bytes_peak > 0, "TLB keeps per-flow switch state");
}

#[test]
fn all_schemes_complete_the_basic_mix() {
    let mut mix = tlb_workload::BasicMixConfig::paper_default();
    mix.n_short = 20;
    mix.n_long = 2;
    mix.long_lo = 1_000_000;
    mix.long_hi = 2_000_000;
    for scheme in crate::Scheme::paper_set() {
        let name = scheme.name();
        let cfg = crate::SimConfig::basic_paper(scheme);
        let flows = tlb_workload::basic_mix(&cfg.topo, &mix, &mut tlb_engine::SimRng::new(3));
        let r = Simulation::new(cfg, flows).run();
        assert_eq!(r.completed, r.total_flows, "{name} left flows unfinished");
        // Every byte of every flow must have been delivered in order.
        let delivered: u64 = r.short.data_received + r.long.data_received;
        assert!(delivered > 0);
    }
}

#[test]
fn asymmetric_topology_still_completes() {
    let mut cfg = crate::SimConfig::basic_paper(Scheme::LetFlow);
    cfg.topo
        .degrade_link(LeafId(0), SpineId(0), 0.25, SimTime::from_micros(200));
    cfg.topo
        .degrade_link(LeafId(0), SpineId(1), 0.25, SimTime::from_micros(200));
    let mut mix = tlb_workload::BasicMixConfig::paper_default();
    mix.n_short = 20;
    mix.n_long = 2;
    mix.long_lo = 1_000_000;
    mix.long_hi = 2_000_000;
    let flows = tlb_workload::basic_mix(&cfg.topo, &mix, &mut tlb_engine::SimRng::new(4));
    let r = Simulation::new(cfg, flows).run();
    assert_eq!(r.completed, r.total_flows);
}

#[test]
fn utilization_bounded_by_one() {
    let r = run_basic(Scheme::Rps, one_flow(10_000_000));
    for leaf in &r.uplink_utilization {
        for &u in leaf {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        }
    }
}

#[test]
fn report_one_line_formats() {
    let r = run_basic(Scheme::Ecmp, one_flow(100_000));
    let line = r.one_line();
    assert!(line.contains("ECMP"));
    assert!(line.contains("afct"));
}

#[test]
fn json_row_carries_the_report() {
    let r = run_basic(Scheme::Ecmp, one_flow(1_000_000));
    let json = r.to_json();
    assert!(json.starts_with("{\n") && json.ends_with("\n}"), "{json}");
    for row in [
        "  \"scheme\": \"ECMP\",".to_string(),
        format!("  \"completed\": {},", r.completed),
        format!("  \"events\": {},", r.events),
    ] {
        assert!(json.lines().any(|l| l == row), "{row} not in {json}");
    }
    let by_class = (EVENT_CLASSES.iter().zip(r.events_by_class))
        .filter(|&(_, n)| n > 0)
        .count();
    assert!(by_class >= 2, "starts and arrivals: {json}");
    assert_eq!(r.events_by_class.iter().sum::<u64>(), r.events);
    let row = (json.lines())
        .find(|l| l.starts_with("  \"events_by_class\": {\"admin\": "))
        .unwrap_or_else(|| panic!("no events_by_class row in {json}"));
    assert!(row.ends_with(&format!("\"timer\": {}}},", r.events_by_class[1])));
    assert_eq!(json.lines().count(), 18, "16 keys, one a line: {json}");
    // JSON has no NaN: a non-finite float prints as null.
    let mut r = r;
    r.fct_short.afct = f64::NAN;
    assert!(r
        .to_json()
        .lines()
        .any(|l| l == "  \"short_afct_s\": null,"));
}

#[test]
fn tracing_disabled_by_default() {
    let r = run_basic(Scheme::Rps, one_flow(500_000));
    assert!(r.traces.is_empty(), "no trace_flows -> no trace records");
}

#[test]
fn tlb_tick_cadence_is_the_update_interval() {
    let mut mix = tlb_workload::BasicMixConfig::paper_default();
    mix.n_short = 10;
    mix.n_long = 1;
    mix.long_lo = 2_000_000;
    mix.long_hi = 2_000_000;
    let cfg = crate::SimConfig::basic_paper(Scheme::tlb_default());
    let flows = tlb_workload::basic_mix(&cfg.topo, &mix, &mut tlb_engine::SimRng::new(2));
    let r = Simulation::new(cfg, flows).run();
    // q_th samples arrive every 500 us (the paper's t).
    assert!(r.qth_series.len() >= 4);
    for w in r.qth_series.windows(2) {
        let dt = w[1].0 - w[0].0;
        assert!((dt - 500e-6).abs() < 1e-9, "tick spacing {dt}");
    }
}

#[test]
fn chained_head_start_time_is_honoured() {
    let cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
    let mk = |id: u32, start_us: u64| FlowSpec {
        id: FlowId(id),
        src: HostId(0),
        dst: HostId(16),
        size_bytes: 14_600,
        start: SimTime::from_micros(start_us),
        deadline: None,
    };
    // Head starts at 5 ms; successor starts at completion (its own start
    // field, 0, is ignored).
    let flows = vec![mk(0, 5_000), mk(1, 0)];
    let r = Simulation::new_chained(cfg, flows, vec![Some(1), None]).run();
    assert_eq!(r.completed, 2);
    // Both finish quickly once launched: flow 1's FCT is small, proving its
    // clock started at launch, not at t=0 (which would add 5+ ms).
    assert!(r.fct.fct_of(FlowId(1)).unwrap() < 0.004);
}

// ---- the job check (`check_job`/`check_flow`) --------------------------

fn flow(id: u32, src: u32, dst: u32) -> FlowSpec {
    FlowSpec {
        id: FlowId(id),
        src: HostId(src),
        dst: HostId(dst),
        size_bytes: 50_000,
        start: SimTime::ZERO,
        deadline: None,
    }
}

/// Run `entry` and return the panic message it dies with.
fn rejection(entry: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let err = std::panic::catch_unwind(entry).expect_err("the job must be rejected");
    err.downcast_ref::<String>()
        .expect("a formatted panic")
        .clone()
}

/// All three entry points reject `flows` with a message containing every
/// string in `needles`.
fn all_entry_points_reject(flows: Vec<FlowSpec>, needles: &[&str]) {
    let cfg = || crate::SimConfig::basic_paper(Scheme::Ecmp);
    let next = vec![None; flows.len()];
    let (a, b, c) = (flows.clone(), flows.clone(), flows);
    for msg in [
        rejection(move || drop(Simulation::new(cfg(), a))),
        rejection(move || drop(Simulation::new_chained(cfg(), b, next))),
        rejection(move || drop(crate::run_one_ref(&cfg(), &c))),
    ] {
        assert!(
            msg.starts_with("invalid simulation configuration: "),
            "{msg}"
        );
        for n in needles {
            assert!(msg.contains(n), "{msg:?} does not name {n:?}");
        }
    }
}

/// The typed refusal of a job over the basic fabric.
fn refusal(flows: Vec<FlowSpec>, next: Vec<Option<u32>>) -> Option<ConfigError> {
    let cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
    Simulation::try_new_chained(cfg, flows, next).err()
}

#[test]
fn out_of_range_hosts_are_rejected() {
    // basic_paper has 48 hosts; `host_nic` is the identity, so host 48
    // would alias leaf 0's first uplink and run 14M events to nowhere.
    let n_hosts = crate::SimConfig::basic_paper(Scheme::Ecmp).topo.n_hosts();
    let n = n_hosts as u32;
    all_entry_points_reject(vec![flow(0, n, 16)], &["flow 0", "src"]);
    let flows = vec![flow(0, 0, 16), flow(1, 1, n + 3)];
    all_entry_points_reject(flows.clone(), &["flow 1", "dst"]);
    assert_eq!(
        refusal(flows, vec![None; 2]),
        Some(ConfigError::FlowHostOutOfRange {
            index: 1,
            field: "dst",
            host: n_hosts + 3,
            n_hosts
        })
    );
}

#[test]
fn non_dense_flow_ids_are_rejected() {
    let flows = vec![flow(0, 0, 16), flow(2, 1, 17)];
    all_entry_points_reject(flows.clone(), &["flow 1", "id"]);
    assert_eq!(
        refusal(flows, vec![None; 2]),
        Some(ConfigError::FlowIdNotDense { index: 1, id: 2 })
    );
}

#[test]
fn flow_count_is_bounded_by_the_ordering_key() {
    // Through the per-flow check with a synthetic index — not a
    // 134M-element vector.
    let n = 1usize << KEY_ENTITY_BITS;
    assert!(check_flow(n - 1, &flow(n as u32 - 1, 0, 16), 48, 1460).is_ok());
    assert_eq!(
        check_flow(n, &flow(n as u32, 0, 16), 48, 1460),
        Err(ConfigError::FlowIndexOverflowsKey {
            index: n,
            key_bits: KEY_ENTITY_BITS
        })
    );
}

#[test]
fn flow_sizes_the_transport_cannot_count_are_rejected() {
    // A 0-byte flow used to pass the check and panic in `TcpSender::new`
    // on whichever thread started it; one of more than `u32::MAX` segments
    // used to truncate its segment count silently.
    let sized = |size_bytes| {
        vec![FlowSpec {
            size_bytes,
            ..flow(0, 0, 16)
        }]
    };
    all_entry_points_reject(sized(0), &["flow 0", "0 bytes"]);
    assert_eq!(
        refusal(sized(0), vec![None]),
        Some(ConfigError::ZeroSizeFlow { index: 0 })
    );
    let mss = crate::SimConfig::basic_paper(Scheme::Ecmp).tcp.mss as u64;
    let most = u64::from(u32::MAX) * mss;
    assert_eq!(refusal(sized(most), vec![None]), None);
    assert_eq!(
        refusal(sized(most + 1), vec![None]),
        Some(ConfigError::FlowTooLarge {
            index: 0,
            size_bytes: most + 1,
            mss
        })
    );
}

#[test]
fn chain_pointers_must_cover_all_flows() {
    assert_eq!(
        refusal(one_flow(1000), vec![None; 2]),
        Some(ConfigError::ChainLength { flows: 1, next: 2 })
    );
}

#[test]
fn dangling_chain_pointer_rejected() {
    assert_eq!(
        refusal(one_flow(1000), vec![Some(7)]),
        Some(ConfigError::ChainOutOfRange { flow: 0, next: 7 })
    );
}

#[test]
fn double_chaining_rejected() {
    // Flows 0 and 1 both claim flow 2 as successor.
    let flows = vec![flow(0, 0, 16), flow(1, 0, 16), flow(2, 0, 16)];
    assert_eq!(
        refusal(flows, vec![Some(2), Some(2), None]),
        Some(ConfigError::ChainedTwice { flow: 2 })
    );
}

#[test]
fn a_run_that_ends_on_a_tail_completion_ends_at_its_instant() {
    // One long cross-rack flow under hybrid fidelity: its packet prefix is
    // delivered long before its fluid tail drains, so the run's last event
    // is the tail completion — taken off the seam's heap, which leaves the
    // FEL's clock at its own last pop. `sim_end` is the run's clock.
    let mut cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
    cfg.fidelity = FidelityKind::Hybrid;
    let flows = one_flow(4_000_000);
    let mut net = Net::build(&cfg, &flows, &[None], None);
    net.run_loop();
    let hy = net.hybrid.as_ref().expect("hybrid run");
    assert_eq!((hy.migrations, hy.demotions), (1, 0));
    assert_eq!(
        events::class_of(net.cur_key),
        events::class::FLUID_DONE,
        "the last event was not the tail completion"
    );
    let done_at = net.now;
    assert!(net.q.now() < done_at, "the FEL's clock moved on a heap pop");
    let r = net.into_report(std::time::Duration::ZERO);
    assert_eq!(r.completed, 1);
    assert_eq!(r.sim_end, done_at);
    assert_eq!(r.fct.fct_of(FlowId(0)), Some(done_at.as_secs_f64()));
}
