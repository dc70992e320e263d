//! Unit tests for the TLB forwarding manager and granularity calculator.

use super::*;
use tlb_net::{FlowId, HostId};
use tlb_switch::OutPort;

fn syn(flow: u32) -> Packet {
    Packet::control(
        FlowId(flow),
        HostId(0),
        HostId(9),
        PktKind::Syn,
        0,
        SimTime::ZERO,
    )
}

fn fin(flow: u32) -> Packet {
    Packet::control(
        FlowId(flow),
        HostId(0),
        HostId(9),
        PktKind::Fin,
        0,
        SimTime::ZERO,
    )
}

fn data(flow: u32, seq: u32, payload: u32) -> Packet {
    Packet::data(
        FlowId(flow),
        HostId(0),
        HostId(9),
        seq,
        payload,
        40,
        SimTime::ZERO,
    )
}

fn us(n: u64) -> SimTime {
    SimTime::from_micros(n)
}

#[test]
fn syn_fin_counting() {
    let ps = OutPort::filled(&[0, 0, 0]);
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    assert_eq!(tlb.counts(), (0, 0));
    tlb.choose_uplink(&syn(1), PortView::new(&ps), us(0), &mut rng);
    tlb.choose_uplink(&syn(2), PortView::new(&ps), us(0), &mut rng);
    assert_eq!(tlb.counts(), (2, 0));
    tlb.choose_uplink(&fin(1), PortView::new(&ps), us(1), &mut rng);
    assert_eq!(tlb.counts(), (1, 0));
    // FIN retransmission: no double decrement.
    tlb.choose_uplink(&fin(1), PortView::new(&ps), us(2), &mut rng);
    assert_eq!(tlb.counts(), (1, 0));
    // SYN retransmission: no double increment.
    tlb.choose_uplink(&syn(2), PortView::new(&ps), us(3), &mut rng);
    assert_eq!(tlb.counts(), (1, 0));
}

#[test]
fn classification_flips_at_100kb() {
    let ps = OutPort::filled(&[0, 0]);
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    tlb.choose_uplink(&syn(1), PortView::new(&ps), us(0), &mut rng);
    assert_eq!(tlb.counts(), (1, 0));
    // Send just under the threshold.
    let mut sent = 0u64;
    let mut seq = 0;
    while sent + 1460 <= 100_000 {
        tlb.choose_uplink(&data(1, seq, 1460), PortView::new(&ps), us(1), &mut rng);
        sent += 1460;
        seq += 1;
    }
    assert_eq!(tlb.counts(), (1, 0), "still short at {sent} bytes");
    // Cross the threshold.
    tlb.choose_uplink(&data(1, seq, 1460), PortView::new(&ps), us(2), &mut rng);
    assert_eq!(tlb.counts(), (0, 1), "reclassified long");
    // FIN of a long flow decrements m_L.
    tlb.choose_uplink(&fin(1), PortView::new(&ps), us(3), &mut rng);
    assert_eq!(tlb.counts(), (0, 0));
}

#[test]
fn boundary_99kb_stays_short() {
    let ps = OutPort::filled(&[0, 0]);
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    tlb.choose_uplink(&syn(1), PortView::new(&ps), us(0), &mut rng);
    tlb.choose_uplink(&data(1, 0, 99_000), PortView::new(&ps), us(1), &mut rng);
    assert_eq!(tlb.counts(), (1, 0), "99 KB sent: still a short flow");
}

#[test]
fn boundary_exactly_100kb_stays_short() {
    // The rule is strictly-greater: `bytes_seen > threshold`. A flow that
    // has sent exactly 100 KB has not *exceeded* 100 KB yet.
    let ps = OutPort::filled(&[0, 0]);
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    tlb.choose_uplink(&syn(1), PortView::new(&ps), us(0), &mut rng);
    tlb.choose_uplink(&data(1, 0, 100_000), PortView::new(&ps), us(1), &mut rng);
    assert_eq!(tlb.counts(), (1, 0), "exactly 100 KB: not yet long");
}

#[test]
fn boundary_one_mss_past_100kb_is_long() {
    let ps = OutPort::filled(&[0, 0]);
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    tlb.choose_uplink(&syn(1), PortView::new(&ps), us(0), &mut rng);
    tlb.choose_uplink(&data(1, 0, 100_000), PortView::new(&ps), us(1), &mut rng);
    tlb.choose_uplink(&data(1, 1, 1460), PortView::new(&ps), us(2), &mut rng);
    assert_eq!(tlb.counts(), (0, 1), "100 KB + 1 MSS: reclassified long");
}

#[test]
fn boundary_midlife_crossing_switches_forwarding_rule() {
    // A flow that crosses 100 KB mid-life must change forwarding rule on
    // the crossing packet: per-packet spraying before, sticky after.
    let mut cfg = TlbConfig::paper_default();
    cfg.threshold_mode = ThresholdMode::Fixed(u64::MAX); // pin long flows
    let mut tlb = Tlb::new(cfg);
    let mut rng = SimRng::new(0);
    let ps = OutPort::filled(&[4, 0, 2]);
    tlb.choose_uplink(&syn(1), PortView::new(&ps), us(0), &mut rng);
    // Still short (exactly 100 KB): the packet takes the shortest queue.
    assert_eq!(
        tlb.choose_uplink(&data(1, 0, 100_000), PortView::new(&ps), us(1), &mut rng),
        1,
        "short rule: shortest queue"
    );
    // The next packet crosses the boundary, so it is routed as long:
    // stick to port 1 even though port 0 is now strictly shorter.
    let ps2 = OutPort::filled(&[0, 4, 2]);
    assert_eq!(
        tlb.choose_uplink(&data(1, 1, 1460), PortView::new(&ps2), us(2), &mut rng),
        1,
        "long rule from the crossing packet onwards: sticky"
    );
    assert_eq!(tlb.counts(), (0, 1));
    assert_eq!(tlb.long_reroutes(), 0, "pinned long flow never reroutes");
}

#[test]
fn short_flows_take_shortest_queue_per_packet() {
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    let ps = OutPort::filled(&[4, 0, 2]);
    tlb.choose_uplink(&syn(1), PortView::new(&ps), us(0), &mut rng);
    assert_eq!(
        tlb.choose_uplink(&data(1, 0, 1460), PortView::new(&ps), us(1), &mut rng),
        1
    );
    // Queue state changes -> next packet follows the new shortest.
    let ps2 = OutPort::filled(&[0, 4, 2]);
    assert_eq!(
        tlb.choose_uplink(&data(1, 1, 1460), PortView::new(&ps2), us(2), &mut rng),
        0
    );
}

/// Make flow 1 long by pumping bytes through it.
fn make_long(tlb: &mut Tlb, ps: &[OutPort], rng: &mut SimRng) {
    tlb.choose_uplink(&syn(1), PortView::new(ps), us(0), rng);
    for seq in 0..70 {
        tlb.choose_uplink(&data(1, seq, 1460), PortView::new(ps), us(1), rng);
    }
    assert_eq!(tlb.counts(), (0, 1));
}

#[test]
fn long_flow_sticks_below_threshold() {
    let mut cfg = TlbConfig::paper_default();
    cfg.threshold_mode = ThresholdMode::Fixed(10_000);
    let mut tlb = Tlb::new(cfg);
    let mut rng = SimRng::new(0);
    let ps = OutPort::filled(&[0, 0, 0]);
    make_long(&mut tlb, &ps, &mut rng);
    // All queues empty: the long flow must stay on its current port even
    // though every port ties as "shortest".
    let cur = tlb.choose_uplink(&data(1, 100, 1460), PortView::new(&ps), us(2), &mut rng);
    // Its port now has 2 packets (in a real switch); emulate a queue shorter
    // than q_th on cur and an empty other port.
    let mut lens = [0usize; 3];
    lens[cur] = 5; // 7500 B < 10 kB threshold
    let ps2 = OutPort::filled(&lens);
    assert_eq!(
        tlb.choose_uplink(&data(1, 101, 1460), PortView::new(&ps2), us(3), &mut rng),
        cur,
        "below q_th the long flow must not switch"
    );
}

#[test]
fn long_flow_switches_at_threshold() {
    let mut cfg = TlbConfig::paper_default();
    cfg.threshold_mode = ThresholdMode::Fixed(10_000);
    let mut tlb = Tlb::new(cfg);
    let mut rng = SimRng::new(0);
    let ps = OutPort::filled(&[0, 0, 0]);
    make_long(&mut tlb, &ps, &mut rng);
    let cur = tlb.choose_uplink(&data(1, 100, 1460), PortView::new(&ps), us(2), &mut rng);
    // Pile the current queue past q_th: 8 pkts * 1500 B = 12 kB >= 10 kB.
    let mut lens = [0usize; 3];
    lens[cur] = 8;
    let ps2 = OutPort::filled(&lens);
    let newp = tlb.choose_uplink(&data(1, 101, 1460), PortView::new(&ps2), us(3), &mut rng);
    assert_ne!(newp, cur, "at q_th the long flow reroutes to the shortest");
    assert_eq!(tlb.long_reroutes(), 1);
}

#[test]
fn adaptive_threshold_reacts_to_load() {
    let ps = OutPort::filled(&[0; 15]);
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    // The paper's basic setup: 3 long flows, initially no short flows.
    for f in 1..=3 {
        tlb.choose_uplink(&syn(f), PortView::new(&ps), us(0), &mut rng);
        for seq in 0..70 {
            tlb.choose_uplink(&data(f, seq, 1460), PortView::new(&ps), us(1), &mut rng);
        }
    }
    tlb.on_tick(PortView::new(&ps), us(500));
    assert_eq!(tlb.counts(), (0, 3));
    let q_low = tlb.q_th_bytes();
    // With m_S = 0 Eq. 9 still yields a small residual threshold
    // (m_L*W_L*t/RTT/n - t*C ~ 3 kB, about two packets): effectively free
    // switching.
    assert!(
        q_low < 5_000,
        "no short flows -> tiny threshold, got {q_low}"
    );

    // Add 100 short flows -> q_th must grow.
    for f in 100..200 {
        tlb.choose_uplink(&syn(f), PortView::new(&ps), us(501), &mut rng);
    }
    // Keep the long flows active so the purge doesn't drop them.
    for f in 1..=3 {
        tlb.choose_uplink(&data(f, 200, 1460), PortView::new(&ps), us(900), &mut rng);
    }
    tlb.on_tick(PortView::new(&ps), us(1000));
    assert_eq!(tlb.counts(), (100, 3));
    let q_high = tlb.q_th_bytes();
    assert!(
        q_high > q_low,
        "heavy short load must raise q_th: {q_high} vs {q_low}"
    );
    // Fig. 7(a) ballpark at m_S=100, m_L=3: tens of kilobytes.
    assert!(
        (10_000..1_000_000).contains(&q_high),
        "q_th out of plausible range: {q_high}"
    );
}

#[test]
fn idle_flows_are_sampled_out() {
    let ps = OutPort::filled(&[0, 0]);
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    tlb.choose_uplink(&syn(1), PortView::new(&ps), us(0), &mut rng);
    tlb.choose_uplink(&syn(2), PortView::new(&ps), us(0), &mut rng);
    assert_eq!(tlb.counts(), (2, 0));
    // Flow 2 keeps talking; flow 1 goes silent (lost FIN).
    tlb.choose_uplink(&data(2, 0, 1460), PortView::new(&ps), us(900), &mut rng);
    tlb.on_tick(PortView::new(&ps), us(1000));
    assert_eq!(tlb.counts(), (1, 0), "idle flow record removed by sampling");
}

#[test]
fn relearned_data_flow_is_counted_again() {
    let ps = OutPort::filled(&[0, 0]);
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    tlb.choose_uplink(&syn(1), PortView::new(&ps), us(0), &mut rng);
    tlb.on_tick(PortView::new(&ps), us(1000)); // purges the idle flow
    assert_eq!(tlb.counts(), (0, 0));
    tlb.choose_uplink(&data(1, 5, 1460), PortView::new(&ps), us(1001), &mut rng);
    assert_eq!(tlb.counts(), (1, 0), "resumed flow re-counted");
}

#[test]
fn data_after_fin_is_relearned_then_sampled_out() {
    // A straggler data packet arriving after the flow's FIN (retransmission
    // raced the teardown) hits the removed-record path: the switch has no
    // state for it and re-learns the flow as counted. That transient
    // over-count of m_S must be temporary — the flow never speaks again, so
    // the idle purge has to reclaim the record and count back to zero.
    let ps = OutPort::filled(&[0, 0]);
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    tlb.choose_uplink(&syn(1), PortView::new(&ps), us(0), &mut rng);
    tlb.choose_uplink(&data(1, 0, 1460), PortView::new(&ps), us(1), &mut rng);
    tlb.choose_uplink(&fin(1), PortView::new(&ps), us(2), &mut rng);
    assert_eq!(tlb.counts(), (0, 0), "FIN closes the flow");

    tlb.choose_uplink(&data(1, 0, 1460), PortView::new(&ps), us(3), &mut rng);
    assert_eq!(
        tlb.counts(),
        (1, 0),
        "data after FIN re-learns the flow as counted"
    );

    tlb.on_tick(PortView::new(&ps), us(1500));
    assert_eq!(
        tlb.counts(),
        (0, 0),
        "idle purge must recover m_S from the post-FIN re-learn"
    );
}

#[test]
fn ack_streams_are_not_counted() {
    let ps = OutPort::filled(&[0, 0]);
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    let ack = Packet::control(
        FlowId(7),
        HostId(9),
        HostId(0),
        PktKind::Ack,
        3,
        SimTime::ZERO,
    );
    let synack = Packet::control(
        FlowId(7),
        HostId(9),
        HostId(0),
        PktKind::SynAck,
        0,
        SimTime::ZERO,
    );
    tlb.choose_uplink(&synack, PortView::new(&ps), us(0), &mut rng);
    for i in 0..50 {
        tlb.choose_uplink(&ack, PortView::new(&ps), us(i), &mut rng);
    }
    assert_eq!(tlb.counts(), (0, 0));
}

#[test]
fn acks_take_shortest_queue() {
    let ps = OutPort::filled(&[3, 0, 5]);
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    let ack = Packet::control(
        FlowId(7),
        HostId(9),
        HostId(0),
        PktKind::Ack,
        3,
        SimTime::ZERO,
    );
    assert_eq!(
        tlb.choose_uplink(&ack, PortView::new(&ps), us(0), &mut rng),
        1
    );
}

#[test]
fn fixed_mode_never_updates_threshold() {
    let ps = OutPort::filled(&[0; 8]);
    let mut cfg = TlbConfig::paper_default();
    cfg.threshold_mode = ThresholdMode::Fixed(12_345);
    let mut tlb = Tlb::new(cfg);
    let mut rng = SimRng::new(0);
    for f in 0..50 {
        tlb.choose_uplink(&syn(f), PortView::new(&ps), us(0), &mut rng);
    }
    tlb.on_tick(PortView::new(&ps), us(500));
    assert_eq!(tlb.q_th_bytes(), 12_345);
}

#[test]
fn no_long_flows_means_free_switching() {
    let ps = OutPort::filled(&[0; 15]);
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    for f in 0..200 {
        tlb.choose_uplink(&syn(f), PortView::new(&ps), us(0), &mut rng);
    }
    tlb.on_tick(PortView::new(&ps), us(500));
    // m_L = 0: threshold is irrelevant, kept at 0.
    assert_eq!(tlb.q_th_bytes(), 0);
}

#[test]
fn saturated_short_load_pins_long_flows() {
    // So many short flows that n_S_required >= n: q_th must be "infinite".
    let ps = OutPort::filled(&[0, 0]); // only 2 paths
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    // One long flow.
    make_long(&mut tlb, &ps, &mut rng);
    // Plus an avalanche of short flows.
    for f in 100..1100 {
        tlb.choose_uplink(&syn(f), PortView::new(&ps), us(400), &mut rng);
    }
    tlb.choose_uplink(&data(1, 500, 1460), PortView::new(&ps), us(450), &mut rng);
    tlb.on_tick(PortView::new(&ps), us(500));
    assert_eq!(tlb.q_th_bytes(), u64::MAX, "pinned long flows");
    // And the long flow indeed refuses to move off a hugely built-up queue.
    let cur_before = {
        let mut lens = [40usize, 0];
        // ensure the long flow's current port is 0 for the check below
        let ps2 = OutPort::filled(&[0, 0]);
        let cur = tlb.choose_uplink(&data(1, 501, 1460), PortView::new(&ps2), us(501), &mut rng);
        lens.swap(0, cur); // put the big queue on the long flow's port
        let ps3 = OutPort::filled(&lens);
        (
            cur,
            tlb.choose_uplink(&data(1, 502, 1460), PortView::new(&ps3), us(502), &mut rng),
        )
    };
    assert_eq!(cur_before.0, cur_before.1, "pinned flow must not switch");
}

#[test]
fn state_bytes_grow_with_flows() {
    let ps = OutPort::filled(&[0, 0]);
    let mut tlb = Tlb::paper_default();
    let mut rng = SimRng::new(0);
    let empty = tlb.state_bytes();
    for f in 0..100 {
        tlb.choose_uplink(&syn(f), PortView::new(&ps), us(0), &mut rng);
    }
    assert!(tlb.state_bytes() > empty);
}

#[test]
fn tick_interval_matches_config() {
    let tlb = Tlb::paper_default();
    assert_eq!(tlb.tick_interval(), Some(SimTime::from_micros(500)));
}

#[test]
fn updates_counter_increments() {
    let ps = OutPort::filled(&[0, 0]);
    let mut tlb = Tlb::paper_default();
    assert_eq!(tlb.updates(), 0);
    tlb.on_tick(PortView::new(&ps), us(500));
    tlb.on_tick(PortView::new(&ps), us(1000));
    assert_eq!(tlb.updates(), 2);
}

#[test]
fn q_th_accessor_reports_infinite() {
    let mut cfg = TlbConfig::paper_default();
    cfg.threshold_mode = ThresholdMode::Fixed(u64::MAX);
    let tlb = Tlb::new(cfg);
    assert_eq!(tlb.q_th(), tlb_model::QTh::Infinite);
    let mut cfg2 = TlbConfig::paper_default();
    cfg2.threshold_mode = ThresholdMode::Fixed(500);
    let tlb2 = Tlb::new(cfg2);
    assert_eq!(tlb2.q_th(), tlb_model::QTh::Finite(500.0));
}

#[test]
#[should_panic(expected = "invalid TLB configuration")]
fn invalid_config_panics() {
    let mut cfg = TlbConfig::paper_default();
    cfg.update_interval = SimTime::ZERO;
    let _ = Tlb::new(cfg);
}
