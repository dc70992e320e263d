//! Sender state-machine tests: each drives the sender with synthetic
//! packets, no simulator needed. A closing section runs a loss-injecting
//! loopback "network" end to end against the real receiver.

use super::*;
use crate::receiver::TcpReceiver;
use tlb_engine::SimRng;

fn cfg() -> TcpConfig {
    TcpConfig::dctcp_default()
}

fn sender(size: u64) -> TcpSender {
    TcpSender::new(cfg(), FlowId(1), HostId(0), HostId(9), size)
}

fn synack(now: SimTime) -> Packet {
    Packet::control(FlowId(1), HostId(9), HostId(0), PktKind::SynAck, 0, now)
}

fn ack(seq: u32, ece: bool, now: SimTime) -> Packet {
    let mut a = Packet::control(FlowId(1), HostId(9), HostId(0), PktKind::Ack, seq, now);
    a.flags.set(PktFlags::ECE, ece);
    a
}

fn us(n: u64) -> SimTime {
    SimTime::from_micros(n)
}

fn sent_data(out: &[SenderOutput]) -> Vec<Packet> {
    out.iter()
        .filter_map(|o| match o {
            SenderOutput::Send(p) if p.kind == PktKind::Data => Some(*p),
            _ => None,
        })
        .collect()
}

fn has_fin(out: &[SenderOutput]) -> bool {
    out.iter()
        .any(|o| matches!(o, SenderOutput::Send(p) if p.kind == PktKind::Fin))
}

#[test]
fn handshake_then_initial_window() {
    let mut s = sender(100 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    assert!(
        matches!(out[0], SenderOutput::Send(p) if p.kind == PktKind::Syn),
        "first output must be the SYN"
    );
    assert!(out
        .iter()
        .any(|o| matches!(o, SenderOutput::ArmTimer { .. })));
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    let data = sent_data(&out);
    assert_eq!(data.len(), 2, "IW = 2 (paper Eq. 3)");
    assert_eq!(data[0].seq, 0);
    assert_eq!(data[1].seq, 1);
    assert_eq!(data[0].payload_bytes, 1460);
    assert_eq!(data[0].wire_bytes, 1500);
}

#[test]
fn slow_start_doubles_per_rtt() {
    let mut s = sender(1000 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    let mut next_expected_ack = 1u32;
    let mut window_sizes = vec![sent_data(&out).len()];
    // Ack everything outstanding, one "round" at a time, three rounds.
    let mut outstanding: u32 = window_sizes[0] as u32;
    let mut t = 200;
    for _ in 0..3 {
        let mut new_sends = 0;
        for _ in 0..outstanding {
            out.clear();
            s.on_packet(&ack(next_expected_ack, false, us(t)), us(t), &mut out);
            next_expected_ack += 1;
            new_sends += sent_data(&out).len();
            t += 1;
        }
        window_sizes.push(new_sends);
        outstanding = new_sends as u32;
        t += 100;
    }
    // 2 -> 4 -> 8 -> 16.
    assert_eq!(window_sizes, vec![2, 4, 8, 16]);
}

#[test]
fn receive_window_caps_flight() {
    let mut s = sender(10_000 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    // Ack a huge range in single-segment steps, never letting flight drop:
    // total in-flight must never exceed rwnd (44 segments).
    let mut total_sent = sent_data(&out).len() as u32;
    for a in 1..=400u32 {
        out.clear();
        s.on_packet(
            &ack(a, false, us(100 + a as u64)),
            us(100 + a as u64),
            &mut out,
        );
        total_sent += sent_data(&out).len() as u32;
        let flight = total_sent - a;
        assert!(flight <= 44, "flight {flight} exceeds rwnd at ack {a}");
    }
    assert!(s.cwnd() >= 44.0, "cwnd should have grown past the cap");
}

#[test]
fn three_dup_acks_trigger_fast_retransmit() {
    let mut s = sender(1000 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    // Grow the window a bit: ack 1..=8.
    for a in 1..=8 {
        out.clear();
        s.on_packet(
            &ack(a, false, us(200 + a as u64)),
            us(200 + a as u64),
            &mut out,
        );
    }
    assert!(!s.in_recovery());
    // Segment 8 lost: three dup ACKs for 8.
    for i in 0..3 {
        out.clear();
        s.on_packet(&ack(8, false, us(300 + i)), us(300 + i), &mut out);
        if i < 2 {
            assert!(!s.in_recovery());
            assert!(sent_data(&out).is_empty());
        }
    }
    assert!(s.in_recovery(), "third dup ACK enters recovery");
    let rtx = sent_data(&out);
    assert_eq!(rtx.len(), 1);
    assert_eq!(rtx[0].seq, 8, "retransmit the hole");
    assert!(rtx[0].flags.contains(PktFlags::RETX));
    assert_eq!(s.stats().fast_retransmits, 1);
    assert_eq!(s.stats().dup_acks, 3);
}

#[test]
fn full_ack_exits_recovery_at_ssthresh() {
    let mut s = sender(1000 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    for a in 1..=8 {
        out.clear();
        s.on_packet(
            &ack(a, false, us(200 + a as u64)),
            us(200 + a as u64),
            &mut out,
        );
    }
    let cwnd_before = s.cwnd();
    for i in 0..3 {
        out.clear();
        s.on_packet(&ack(8, false, us(300 + i)), us(300 + i), &mut out);
    }
    assert!(s.in_recovery());
    // Full ACK: everything sent so far is covered.
    out.clear();
    let recover_point = 8 + (s.stats().data_sent as u32 - 8); // == snd_nxt
    s.on_packet(&ack(recover_point, false, us(400)), us(400), &mut out);
    assert!(!s.in_recovery());
    assert!(
        s.cwnd() < cwnd_before,
        "post-recovery cwnd {} must be below pre-loss {}",
        s.cwnd(),
        cwnd_before
    );
}

#[test]
fn partial_ack_retransmits_next_hole() {
    let mut s = sender(1000 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    for a in 1..=8 {
        out.clear();
        s.on_packet(
            &ack(a, false, us(200 + a as u64)),
            us(200 + a as u64),
            &mut out,
        );
    }
    for i in 0..3 {
        out.clear();
        s.on_packet(&ack(8, false, us(300 + i)), us(300 + i), &mut out);
    }
    assert!(s.in_recovery());
    // Partial ACK to 10 (recover point is further out): hole at 10.
    out.clear();
    s.on_packet(&ack(10, false, us(400)), us(400), &mut out);
    assert!(s.in_recovery(), "partial ACK stays in recovery");
    let rtx = sent_data(&out);
    assert!(
        rtx.iter().any(|p| p.seq == 10),
        "retransmit next hole: {rtx:?}"
    );
    assert!(s.stats().retransmits >= 2);
}

#[test]
fn rto_collapses_window_and_doubles() {
    let mut s = sender(1000 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    let rto0 = s.rto();
    // No ACKs ever arrive; fire the timer at its deadline.
    out.clear();
    let deadline = us(100) + rto0;
    s.on_timer(deadline, &mut out);
    assert_eq!(s.stats().timeouts, 1);
    let rtx = sent_data(&out);
    assert_eq!(rtx.len(), 1);
    assert_eq!(rtx[0].seq, 0, "retransmit snd_una");
    assert!(s.rto() > rto0, "RTO backs off");
    assert!(s.cwnd() <= 1.0 + f64::EPSILON);
    // Second timeout doubles again, capped at max_rto.
    out.clear();
    s.on_timer(deadline + s.rto(), &mut out);
    assert_eq!(s.stats().timeouts, 2);
    assert!(s.rto() <= cfg().max_rto);
}

#[test]
fn early_timer_fire_rearms_without_timeout() {
    let mut s = sender(10 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    // Progress: an ACK pushes the deadline forward.
    out.clear();
    s.on_packet(&ack(1, false, us(200)), us(200), &mut out);
    // The original timer (armed at handshake) fires "early".
    out.clear();
    s.on_timer(us(150), &mut out);
    assert_eq!(s.stats().timeouts, 0, "early fire is not a timeout");
    assert!(
        matches!(out[0], SenderOutput::ArmTimer { deadline } if deadline > us(150)),
        "must re-arm for the remaining time"
    );
}

#[test]
fn handshake_timeout_resends_syn() {
    let mut s = sender(1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_timer(us(0) + cfg().min_rto, &mut out);
    let syns: Vec<_> = out
        .iter()
        .filter(|o| matches!(o, SenderOutput::Send(p) if p.kind == PktKind::Syn))
        .collect();
    assert_eq!(syns.len(), 1, "SYN retransmitted on timeout");
    assert_eq!(s.stats().timeouts, 1);
}

#[test]
fn dctcp_alpha_rises_and_cuts_window() {
    let mut s = sender(10_000 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    assert_eq!(s.alpha(), 0.0);
    // Every ACK carries ECE across many windows: alpha must approach 1 and
    // cwnd must be repeatedly cut.
    let mut t = 200u64;
    for a in 1..=200u32 {
        out.clear();
        s.on_packet(&ack(a, true, us(t)), us(t), &mut out);
        t += 10;
    }
    assert!(s.alpha() > 0.5, "alpha {} should approach 1", s.alpha());
    assert!(s.stats().dctcp_cuts > 3);
    assert!(
        s.cwnd() < 10.0,
        "persistent marking must keep cwnd small, got {}",
        s.cwnd()
    );
}

#[test]
fn dctcp_no_marks_no_cuts() {
    let mut s = sender(10_000 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    for a in 1..=100u32 {
        out.clear();
        s.on_packet(
            &ack(a, false, us(200 + a as u64)),
            us(200 + a as u64),
            &mut out,
        );
    }
    assert_eq!(s.alpha(), 0.0);
    assert_eq!(s.stats().dctcp_cuts, 0);
}

#[test]
fn completion_emits_fin_and_finished() {
    let mut s = sender(3 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    assert_eq!(sent_data(&out).len(), 2);
    out.clear();
    s.on_packet(&ack(2, false, us(200)), us(200), &mut out);
    assert_eq!(sent_data(&out).len(), 1); // third (last) segment
    assert!(sent_data(&out)[0].is_last_seg());
    out.clear();
    s.on_packet(&ack(3, false, us(300)), us(300), &mut out);
    assert!(s.is_finished());
    assert!(has_fin(&out));
    assert!(out.iter().any(|o| matches!(o, SenderOutput::Finished)));
    // Post-close packets are ignored.
    out.clear();
    s.on_packet(&ack(3, false, us(400)), us(400), &mut out);
    assert!(out.is_empty());
}

#[test]
fn short_final_segment_size() {
    // 3000 B = 2 x 1460 + 80.
    let mut s = sender(3000);
    assert_eq!(s.total_segs(), 3);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    out.clear();
    s.on_packet(&ack(2, false, us(200)), us(200), &mut out);
    let last = sent_data(&out)[0];
    assert_eq!(last.payload_bytes, 80);
    assert_eq!(last.wire_bytes, 80 + 40);
    assert!(last.is_last_seg());
}

#[test]
fn rtt_estimator_tracks_handshake_sample() {
    let mut s = sender(100 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    // Handshake RTT = 100 us; RTO clamps to min_rto (10 ms).
    s.on_packet(&synack(us(100)), us(100), &mut out);
    assert_eq!(s.rto(), cfg().min_rto);
}

#[test]
fn retransmitted_syn_takes_no_rtt_sample() {
    // Karn's rule on the handshake: after a SYN retransmission, a SYN-ACK
    // may have been elicited by the original SYN, so its RTT is ambiguous
    // and must not feed the estimator. Here the initial RTO is 10 ms, the
    // SYN is retransmitted at 11 ms, and a SYN-ACK (responding to the
    // first SYN) lands 1 ms later: the "sample" it would yield, 1 ms,
    // is an order of magnitude below the true 12 ms path RTT.
    let cfg = cfg();
    let mut s = sender(100 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_timer(cfg.min_rto + us(1_000), &mut out);
    assert_eq!(s.stats().timeouts, 1);
    let backed_off = s.rto();
    assert_eq!(backed_off, cfg.min_rto * 2, "timeout doubles the RTO");
    out.clear();
    let at = cfg.min_rto + us(2_000);
    s.on_packet(&synack(at), at, &mut out);
    assert!(!sent_data(&out).is_empty(), "connection is established");
    assert_eq!(s.srtt(), None, "ambiguous handshake sample must be dropped");
    assert_eq!(
        s.rto(),
        backed_off,
        "RTO keeps its backoff, not a bogus 1 ms sample"
    );
}

#[test]
fn clean_handshake_still_seeds_rtt() {
    // The Karn fix must not suppress the legitimate first sample.
    let mut s = sender(100 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    assert_eq!(s.srtt(), Some(100e-6));
}

#[test]
fn invariants_hold_through_transfer_and_timeout() {
    let cfg = cfg();
    let mut s = sender(10 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    assert_eq!(s.invariant_violation(), None);
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    assert!(s.timer_pending());
    assert!(s.timer_deadline() >= us(100));
    out.clear();
    s.on_packet(&ack(2, false, us(200)), us(200), &mut out);
    assert_eq!(s.snd_una(), 2);
    assert!(s.snd_nxt() >= s.snd_una());
    assert_eq!(s.invariant_violation(), None);
    out.clear();
    s.on_timer(us(200) + cfg.max_rto, &mut out);
    assert_eq!(s.invariant_violation(), None);
}

#[test]
fn old_acks_are_ignored() {
    let mut s = sender(100 * 1460);
    let mut out = Vec::new();
    s.start(us(0), &mut out);
    out.clear();
    s.on_packet(&synack(us(100)), us(100), &mut out);
    out.clear();
    s.on_packet(&ack(2, false, us(200)), us(200), &mut out);
    out.clear();
    // A stale ACK for 1 (< snd_una = 2) must do nothing.
    s.on_packet(&ack(1, false, us(300)), us(300), &mut out);
    assert!(sent_data(&out).is_empty());
    assert_eq!(s.stats().dup_acks, 0);
}

#[test]
#[should_panic(expected = "zero-length flow")]
fn zero_size_flow_rejected() {
    let _ = sender(0);
}

// ---------------------------------------------------------------------
// Loopback end-to-end: the real sender against the real receiver over a
// lossy instant channel, driven until completion.
// ---------------------------------------------------------------------

/// Run a complete transfer through a channel dropping `loss_pct` percent of
/// data packets. Returns (sender, receiver) after completion.
fn run_lossy_transfer(size: u64, loss_pct: u32, seed: u64) -> (TcpSender, TcpReceiver) {
    let mut s = TcpSender::new(cfg(), FlowId(1), HostId(0), HostId(9), size);
    let mut r = TcpReceiver::new(FlowId(1), HostId(9), HostId(0));
    let mut rng = SimRng::new(seed);
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    let mut pending: Vec<SenderOutput> = Vec::new();
    let mut deadline: Option<SimTime> = None;

    s.start(now, &mut out);
    pending.append(&mut out);

    let mut steps = 0u64;
    while !s.is_finished() {
        steps += 1;
        assert!(steps < 2_000_000, "transfer did not converge");
        if pending.is_empty() {
            // Nothing in flight produces progress only via the timer.
            let d = deadline.expect("stalled with no timer armed");
            now = now.max(d);
            s.on_timer(now, &mut out);
            pending.append(&mut out);
            continue;
        }
        let item = pending.remove(0);
        match item {
            SenderOutput::ArmTimer { deadline: d } => {
                deadline = Some(d);
            }
            SenderOutput::Finished => {}
            SenderOutput::Send(pkt) => {
                now += SimTime::from_micros(10);
                match pkt.kind {
                    PktKind::Syn => {
                        let sa = r.on_syn(now);
                        s.on_packet(&sa, now, &mut out);
                        pending.append(&mut out);
                    }
                    PktKind::Data => {
                        if rng.gen_range(100) < loss_pct as u64 {
                            continue; // dropped
                        }
                        let a = r.on_data(&pkt, now);
                        s.on_packet(&a, now, &mut out);
                        pending.append(&mut out);
                    }
                    PktKind::Fin => {}
                    _ => unreachable!("sender only emits SYN/DATA/FIN"),
                }
            }
        }
    }
    (s, r)
}

#[test]
fn loopback_lossless_transfer_completes() {
    let segs = 500u64;
    let (s, r) = run_lossy_transfer(segs * 1460, 0, 1);
    assert_eq!(r.delivered_segs() as u64, segs);
    assert_eq!(s.stats().retransmits, 0);
    assert_eq!(s.stats().timeouts, 0);
    assert_eq!(s.stats().data_sent, segs);
}

#[test]
fn loopback_survives_5pct_loss() {
    let segs = 400u64;
    let (s, r) = run_lossy_transfer(segs * 1460, 5, 7);
    assert_eq!(
        r.delivered_segs() as u64,
        segs,
        "all data delivered despite loss"
    );
    assert!(
        s.stats().retransmits > 0,
        "losses must have caused retransmits"
    );
}

#[test]
fn loopback_survives_heavy_loss() {
    let segs = 120u64;
    let (s, r) = run_lossy_transfer(segs * 1460, 25, 11);
    assert_eq!(r.delivered_segs() as u64, segs);
    assert!(s.stats().timeouts + s.stats().fast_retransmits > 0);
}
