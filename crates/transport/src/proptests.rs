//! Property tests for the transport state machines: no input sequence —
//! however adversarial — may violate the TCP invariants.

use crate::config::TcpConfig;
use crate::receiver::TcpReceiver;
use crate::sender::{SenderOutput, TcpSender};
use proptest::prelude::*;
use tlb_engine::{SimRng, SimTime};
use tlb_net::{packet::PktFlags, FlowId, HostId, Packet, PktKind};

fn ack(seq: u32, ece: bool, now: SimTime) -> Packet {
    let mut a = Packet::control(FlowId(1), HostId(9), HostId(0), PktKind::Ack, seq, now);
    a.flags.set(PktFlags::ECE, ece);
    a
}

fn synack(now: SimTime) -> Packet {
    Packet::control(FlowId(1), HostId(9), HostId(0), PktKind::SynAck, 0, now)
}

proptest! {
    /// Feeding the sender an arbitrary stream of ACK numbers (valid,
    /// stale, duplicated, or beyond what was sent — a byzantine receiver)
    /// must never panic, never shrink snd_una, and never push the
    /// congestion window below 1 segment.
    #[test]
    fn prop_sender_survives_byzantine_acks(
        acks in proptest::collection::vec((0u32..200, any::<bool>()), 1..300),
        size_segs in 1u64..150,
    ) {
        let mut s = TcpSender::new(
            TcpConfig::dctcp_default(),
            FlowId(1),
            HostId(0),
            HostId(9),
            size_segs * 1460,
        );
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        s.start(now, &mut out);
        now += SimTime::from_micros(100);
        out.clear();
        s.on_packet(&synack(now), now, &mut out);
        let mut last_una = 0;
        for (a, ece) in acks {
            now += SimTime::from_micros(10);
            out.clear();
            s.on_packet(&ack(a, ece, now), now, &mut out);
            prop_assert!(s.acked_segs() >= last_una, "snd_una went backwards");
            last_una = s.acked_segs();
            prop_assert!(s.cwnd() >= 1.0, "cwnd {} < 1", s.cwnd());
            prop_assert!((0.0..=1.0).contains(&s.alpha()), "alpha {}", s.alpha());
            // Everything it sends stays within the sequence space.
            for o in &out {
                if let SenderOutput::Send(p) = o {
                    if p.kind == PktKind::Data {
                        prop_assert!(p.seq < size_segs as u32);
                    }
                }
            }
        }
    }

    /// Random timer fires interleaved with valid cumulative ACKs: the
    /// transfer state stays consistent and the RTO never exceeds its cap.
    #[test]
    fn prop_sender_timers_and_acks(
        script in proptest::collection::vec(any::<bool>(), 1..200),
        size_segs in 1u64..100,
    ) {
        let cfg = TcpConfig::dctcp_default();
        let mut s = TcpSender::new(cfg, FlowId(1), HostId(0), HostId(9), size_segs * 1460);
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        s.start(now, &mut out);
        now += SimTime::from_micros(100);
        out.clear();
        s.on_packet(&synack(now), now, &mut out);
        let mut next_ack = 1u32;
        for fire_timer in script {
            if s.is_finished() {
                break;
            }
            if fire_timer {
                now += s.rto() + SimTime::from_micros(1);
                out.clear();
                s.on_timer(now, &mut out);
            } else {
                now += SimTime::from_micros(50);
                out.clear();
                s.on_packet(&ack(next_ack, false, now), now, &mut out);
                next_ack = (next_ack + 1).min(size_segs as u32);
            }
            prop_assert!(s.rto() <= cfg.max_rto);
            prop_assert!(s.rto() >= cfg.min_rto);
            prop_assert!(s.cwnd() >= 1.0);
        }
    }

    /// Every sender entry point respects `TcpConfig::max_outputs_per_call`
    /// — the bound the simulator sizes its reusable output buffer from.
    /// Drives the adversarial mix the bound's derivation worries about:
    /// RTO fires, duplicate-ACK bursts (fast retransmit), partial ACKs in
    /// recovery followed by window-opening ACKs, and the FIN path — and
    /// asserts the pre-sized buffer never regrows.
    #[test]
    fn prop_out_buf_bound_holds_per_call(
        script in proptest::collection::vec((0u32..3, 0u32..150), 1..300),
        size_segs in 1u64..150,
    ) {
        let cfg = TcpConfig::dctcp_default();
        let bound = cfg.max_outputs_per_call();
        let mut s = TcpSender::new(cfg, FlowId(1), HostId(0), HostId(9), size_segs * 1460);
        let mut out = Vec::with_capacity(bound);
        let cap = out.capacity();
        let mut now = SimTime::ZERO;
        s.start(now, &mut out);
        prop_assert!(out.len() <= bound);
        now += SimTime::from_micros(100);
        out.clear();
        s.on_packet(&synack(now), now, &mut out);
        prop_assert!(out.len() <= bound);
        let mut cum = 0u32;
        for (kind, a) in script {
            out.clear();
            match kind {
                0 => {
                    // RTO fire.
                    now += s.rto() + SimTime::from_micros(1);
                    s.on_timer(now, &mut out);
                }
                1 => {
                    // Arbitrary (possibly stale/duplicate/partial) ACK.
                    now += SimTime::from_micros(10);
                    s.on_packet(&ack(a, a % 3 == 0, now), now, &mut out);
                }
                _ => {
                    // Valid cumulative ACK advancing toward completion
                    // (exercises window-limited bursts and the FIN path).
                    cum = (cum + 1 + a % 4).min(size_segs as u32);
                    now += SimTime::from_micros(10);
                    s.on_packet(&ack(cum, false, now), now, &mut out);
                }
            }
            prop_assert!(
                out.len() <= bound,
                "one call emitted {} outputs, bound {bound}",
                out.len()
            );
            prop_assert_eq!(out.capacity(), cap, "output buffer regrew");
            if s.is_finished() {
                break;
            }
        }
    }

    /// The receiver's cumulative pointer never exceeds the highest
    /// contiguous prefix, whatever arrives (including far-future seqs).
    #[test]
    fn prop_receiver_cumulative_invariant(
        seqs in proptest::collection::vec(0u32..1000, 1..300),
    ) {
        let mut r = TcpReceiver::new(FlowId(1), HostId(9), HostId(0));
        let mut delivered = std::collections::HashSet::new();
        for s in seqs {
            let pkt = Packet::data(FlowId(1), HostId(0), HostId(9), s, 1460, 40, SimTime::ZERO);
            let a = r.on_data(&pkt, SimTime::ZERO);
            delivered.insert(s);
            // ACK always equals rcv_nxt and rcv_nxt == contiguous prefix.
            let mut prefix = 0;
            while delivered.contains(&prefix) {
                prefix += 1;
            }
            prop_assert_eq!(a.seq, prefix);
            prop_assert_eq!(r.delivered_segs(), prefix);
        }
    }

    /// A completed receiver answers every later data segment — necessarily
    /// a duplicate, whatever its sequence number and CE bit — with exactly
    /// the reply [`TcpReceiver::closed_reply`] computes without it, and the
    /// only counter the segment moves is `total_data`: what the simulator
    /// emits and counts once it has dropped that receiver. A late SYN gets
    /// the same SYN-ACK either way; a FIN gets nothing.
    #[test]
    fn prop_completed_receiver_matches_its_closed_reply(
        total in 1u32..60,
        seed in 0u64..1000,
        late in proptest::collection::vec((0u32..60, any::<bool>()), 1..20),
    ) {
        let seg = |seq: u32, ce: bool| {
            let mut p = Packet::data(FlowId(1), HostId(0), HostId(9), seq, 1460, 40, SimTime::ZERO);
            if ce {
                p.mark_ce();
            }
            p
        };
        let mut order: Vec<u32> = (0..total).collect();
        SimRng::new(seed).shuffle(&mut order);
        let mut r = TcpReceiver::new(FlowId(1), HostId(9), HostId(0));
        for &s in &order {
            r.on_data(&seg(s, false), SimTime::ZERO);
        }
        prop_assert_eq!(r.delivered_segs(), total);
        let now = SimTime::from_micros(7);
        for (s, ce) in late {
            let pkt = seg(s % total, ce);
            let want = TcpReceiver::closed_reply(&pkt, total, now).expect("data is answered");
            let before = *r.stats();
            let got = r.on_data(&pkt, now);
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            prop_assert_eq!(r.stats().total_data, before.total_data + 1);
            prop_assert_eq!(r.stats().out_of_order, before.out_of_order);
        }
        let ctl = |kind| Packet::control(FlowId(1), HostId(0), HostId(9), kind, total, now);
        let synack = TcpReceiver::closed_reply(&ctl(PktKind::Syn), total, now);
        prop_assert_eq!(format!("{:?}", r.on_syn(now)), format!("{:?}", synack.unwrap()));
        prop_assert!(TcpReceiver::closed_reply(&ctl(PktKind::Fin), total, now).is_none());
    }

    /// Loopback with an arbitrary loss pattern always completes, and the
    /// receiver never delivers a byte twice (delivered == total exactly).
    #[test]
    fn prop_lossy_loopback_completes(
        seed in 0u64..5000,
        loss_pct in 0u32..30,
        segs in 1u64..80,
    ) {
        let mut s = TcpSender::new(
            TcpConfig::dctcp_default(),
            FlowId(1),
            HostId(0),
            HostId(9),
            segs * 1460,
        );
        let mut r = TcpReceiver::new(FlowId(1), HostId(9), HostId(0));
        let mut rng = SimRng::new(seed);
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        let mut pending: Vec<SenderOutput> = Vec::new();
        let mut deadline = None;
        s.start(now, &mut out);
        pending.append(&mut out);
        let mut steps = 0u64;
        while !s.is_finished() {
            steps += 1;
            prop_assert!(steps < 500_000, "no convergence");
            if pending.is_empty() {
                let d: SimTime = deadline.expect("stall without timer");
                now = now.max(d);
                s.on_timer(now, &mut out);
                pending.append(&mut out);
                continue;
            }
            match pending.remove(0) {
                SenderOutput::ArmTimer { deadline: d } => deadline = Some(d),
                SenderOutput::Finished => {}
                SenderOutput::Send(pkt) => {
                    now += SimTime::from_micros(5);
                    match pkt.kind {
                        PktKind::Syn => {
                            let sa = r.on_syn(now);
                            s.on_packet(&sa, now, &mut out);
                            pending.append(&mut out);
                        }
                        PktKind::Data if rng.gen_range(100) >= loss_pct as u64 => {
                            let a = r.on_data(&pkt, now);
                            s.on_packet(&a, now, &mut out);
                            pending.append(&mut out);
                        }
                        PktKind::Fin => {}
                        _ => {}
                    }
                }
            }
        }
        prop_assert_eq!(r.delivered_segs() as u64, segs);
    }
}
