//! Replay attribution: each layer's public API timed alone, on an
//! operation stream shaped by the counts of the run being attributed.
//!
//! The simulator has no spans inside it yet, so a layer's share of
//! `run()` cannot be measured where it is spent. Instead every layer is
//! driven from outside in the regime the run put it in (FEL at the
//! measured depth, ports at the measured queue length, the workload's own
//! scheme and uplink count, …) and `ns_per_op × count` is reported as the
//! layer's `*.est_s`. It is an estimate: a replay runs with the layer's
//! state hot in cache and nothing else contending, which the real event
//! loop never offers. What the estimates do not explain is
//! `simnet.unattributed_s`.

use std::hint::black_box;
use std::time::Instant;
use tlb_engine::{EventQueue, FelKind, SimRng, SimTime};
use tlb_metrics::{FctRecorder, FlowClass, SampleSet};
use tlb_net::{FlowId, FluidNet, HostId, Packet, PacketArena, PktKind};
use tlb_simnet::{RunReport, SimConfig};
use tlb_switch::{Enqueued, FlowMap, LoadBalancer, OutPort, PortView};
use tlb_transport::{SenderOutput, TcpReceiver, TcpSender};

/// Nanoseconds per operation of `f`, which performs `ops` operations.
fn ns_per_op(ops: u64, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64
}

/// The first host of the second rack: cross-rack from host 0 on any fabric.
fn remote_host(cfg: &SimConfig) -> HostId {
    HostId(cfg.topo.hosts_per_leaf() as u32)
}

/// Host 0's data segment `seq` of `flow`, bound for `dst`.
fn data_pkt(flow: u32, dst: HostId, seq: u32, now: SimTime) -> Packet {
    Packet::data(FlowId(flow), HostId(0), dst, seq, 1460, 40, now)
}

/// Mean number of flows in progress during the run, by Little's law on the
/// run's own records: Σ flow completion times ÷ simulated span.
pub fn mean_active_flows(r: &RunReport) -> u32 {
    let flow_seconds: f64 = [FlowClass::Short, FlowClass::Long]
        .into_iter()
        .flat_map(|class| r.fct.fct_samples(class))
        .sum();
    (flow_seconds / r.sim_end.as_secs_f64()).round().max(1.0) as u32
}

/// Mean number of flows resident in the fluid tier during the run: the
/// bytes it carried ÷ the mean long-flow rate is the flow-seconds spent
/// there, ÷ simulated span. 0 for a run that migrated nothing.
pub fn mean_fluid_residents(r: &RunReport) -> usize {
    if r.fluid_migrations == 0 {
        return 0;
    }
    let flow_seconds = r.fluid_bytes as f64 / r.long_throughput();
    (flow_seconds / r.sim_end.as_secs_f64()).round().max(1.0) as usize
}

/// `EventQueue` pop-one/push-one at a held depth, with the `perf4` offset
/// mix: mostly sub-60 µs packet events, one in twenty a 10 ms timer.
pub fn fel_hold_ns(depth: usize, pairs: u64) -> f64 {
    let offset = |rng: &mut SimRng| {
        if rng.gen_range(20) == 0 {
            SimTime::from_nanos(10_000_000 + rng.gen_range(1_000_000))
        } else {
            SimTime::from_nanos(1 + rng.gen_range(60_000))
        }
    };
    let depth = depth.max(1);
    let mut rng = SimRng::new(depth as u64);
    let mut q: EventQueue<u64> = EventQueue::with_capacity_and_kind(depth, FelKind::Calendar);
    for i in 0..depth {
        let d = offset(&mut rng);
        q.push(q.now() + d, i as u64);
    }
    ns_per_op(pairs, || {
        for _ in 0..pairs {
            let (t, ev) = q.pop().expect("hold pattern never empties");
            let d = offset(&mut rng);
            q.push(t + d, black_box(ev));
        }
    })
}

/// `SimRng::next_u64`.
pub fn rng_next_ns(draws: u64) -> f64 {
    let mut rng = SimRng::new(1);
    ns_per_op(draws, || {
        let mut acc = 0u64;
        for _ in 0..draws {
            acc ^= rng.next_u64();
        }
        black_box(acc);
    })
}

/// One packet through one `OutPort` — `enqueue`, `finish_service` of the
/// packet ahead of it, `start_service` of the next — with `qlen` packets
/// standing in the queue.
pub fn port_cycle_ns(cfg: &SimConfig, qlen: usize, cycles: u64) -> f64 {
    let mut port = OutPort::new(cfg.topo.uplink_props(0, 0), cfg.queue);
    let dst = remote_host(cfg);
    let qlen = qlen.clamp(1, cfg.queue.capacity_pkts - 1);
    for s in 0..qlen {
        port.enqueue(data_pkt(0, dst, s as u32, SimTime::ZERO), SimTime::ZERO);
    }
    port.start_service();
    ns_per_op(cycles, || {
        let mut now = SimTime::ZERO;
        for s in 0..cycles {
            now += SimTime::from_nanos(12_000);
            let admitted = port.enqueue(data_pkt(0, dst, s as u32, now), now);
            debug_assert!(matches!(admitted, Enqueued::Queued { .. }));
            black_box(port.finish_service());
            black_box(port.start_service());
        }
    })
}

/// `PacketArena::insert` + `take` with `live` packets parked.
pub fn arena_cycle_ns(cfg: &SimConfig, live: usize, cycles: u64) -> f64 {
    let dst = remote_host(cfg);
    let live = live.max(1);
    let mut arena = PacketArena::with_capacity(live + 1);
    let mut ring: Vec<_> = (0..live)
        .map(|i| arena.insert(data_pkt(0, dst, i as u32, SimTime::ZERO)))
        .collect();
    ns_per_op(cycles, || {
        for s in 0..cycles {
            let i = s as usize % live;
            black_box(arena.take(ring[i]));
            ring[i] = arena.insert(data_pkt(0, dst, s as u32, SimTime::ZERO));
        }
    })
}

/// Per-decision and per-tick cost of the config's scheme, built the way
/// the simulator builds it (`Scheme::build_static`), over the fabric's
/// uplink count, with `flows` flows interleaving their packets.
pub fn lb_ns(cfg: &SimConfig, flows: u32, decisions: u64, ticks: u64) -> (f64, f64) {
    let n_up = cfg.topo.n_spines();
    let dst = remote_host(cfg);
    let ports: Vec<OutPort> = (0..n_up)
        .map(|u| {
            let mut p = OutPort::new(cfg.topo.uplink_props(0, u), cfg.queue);
            // Unequal standing queues, so queue-aware schemes have a choice.
            for s in 0..(u * 3 % 7) {
                p.enqueue(
                    data_pkt(u32::MAX, dst, s as u32, SimTime::ZERO),
                    SimTime::ZERO,
                );
            }
            p
        })
        .collect();
    let mut lb = cfg.scheme.build_static(cfg.seed);
    let mut rng = SimRng::new(cfg.seed);
    let flows = flows.max(1);
    let mut now = SimTime::ZERO;
    for f in 0..flows {
        let syn = Packet::control(FlowId(f), HostId(0), dst, PktKind::Syn, 0, now);
        lb.choose_uplink(&syn, PortView::new(&ports), now, &mut rng);
    }
    let choose = ns_per_op(decisions, || {
        for i in 0..decisions {
            now += SimTime::from_nanos(1_500);
            let pkt = data_pkt(
                (i % flows as u64) as u32,
                dst,
                (i / flows as u64) as u32,
                now,
            );
            black_box(lb.choose_uplink(&pkt, PortView::new(&ports), now, &mut rng));
        }
    });
    let tick = match lb.tick_interval() {
        None => 0.0,
        Some(every) => ns_per_op(ticks, || {
            for _ in 0..ticks {
                now += every;
                lb.on_tick(PortView::new(&ports), now);
            }
        }),
    };
    (choose, tick)
}

/// `FlowMap::touch_or_insert_with` over `flows` resident flows.
pub fn flowmap_touch_ns(flows: u32, touches: u64) -> f64 {
    let flows = flows.max(1);
    let mut map: FlowMap<u64> = FlowMap::new();
    ns_per_op(touches, || {
        for i in 0..touches {
            let f = FlowId((i % flows as u64) as u32);
            *map.touch_or_insert_with(f, SimTime::from_nanos(i), || 0) += 1;
        }
        black_box(map.len());
    })
}

/// `tlb_model::q_th_min` on the paper's parameters.
pub fn qth_min_ns(calls: u64) -> f64 {
    let mut p = tlb_model::ModelParams::paper_defaults();
    ns_per_op(calls, || {
        for i in 0..calls {
            p.m_short = 50.0 + (i % 100) as f64;
            black_box(tlb_model::q_th_min(black_box(&p)));
        }
    })
}

/// One long flow between a `TcpSender` and a `TcpReceiver` joined back to
/// back, a window at a time: every data segment the sender emits goes to
/// `on_data`, every ACK that returns goes to `on_packet`. Returns
/// `(sender ns per ACK, receiver ns per segment)`.
pub fn transport_ns(cfg: &SimConfig, segments: u64) -> (f64, f64) {
    let (src, dst) = (HostId(0), remote_host(cfg));
    let size = segments * u64::from(cfg.tcp.mss);
    let mut sender = TcpSender::new(cfg.tcp, FlowId(0), src, dst, size);
    let mut receiver = TcpReceiver::new(FlowId(0), dst, src);
    let mut out = Vec::with_capacity(cfg.tcp.max_outputs_per_call());
    let mut now = SimTime::ZERO;
    sender.start(now, &mut out);
    out.clear();
    now += SimTime::from_micros(100);
    sender.on_packet(&receiver.on_syn(now), now, &mut out);

    let (mut acks, mut data) = (Vec::new(), Vec::new());
    let (mut sender_s, mut receiver_s) = (0.0, 0.0);
    let (mut n_acks, mut n_data) = (0u64, 0u64);
    loop {
        data.clear();
        data.extend(out.drain(..).filter_map(|o| match o {
            SenderOutput::Send(p) if p.kind == PktKind::Data => Some(p),
            _ => None,
        }));
        if data.is_empty() {
            break;
        }
        now += SimTime::from_micros(50);
        let t = Instant::now();
        acks.clear();
        acks.extend(data.iter().map(|p| receiver.on_data(p, now)));
        receiver_s += t.elapsed().as_secs_f64();
        n_data += data.len() as u64;

        now += SimTime::from_micros(50);
        let t = Instant::now();
        for ack in &acks {
            sender.on_packet(ack, now, &mut out);
        }
        sender_s += t.elapsed().as_secs_f64();
        n_acks += acks.len() as u64;
    }
    assert!(sender.is_finished(), "replayed flow did not finish");
    (
        sender_s * 1e9 / n_acks.max(1) as f64,
        receiver_s * 1e9 / n_data.max(1) as f64,
    )
}

/// `FluidNet::join` + `take_changes` + `leave` + `take_changes` with
/// `resident` fluid flows spread over the fabric's uplinks and downlinks.
pub fn fluid_join_leave_ns(cfg: &SimConfig, resident: usize, pairs: u64) -> f64 {
    let n_leaves = cfg.topo.n_leaves() as u32;
    let n_up = cfg.topo.n_spines() as u32;
    // Directed links: per leaf, `n_up` uplinks then `n_up` downlinks.
    let n_links = (2 * n_leaves * n_up) as usize;
    let resident = resident.max(1);
    let mut net = FluidNet::new(n_links, resident + 1);
    let cap = cfg.topo.uplink_props(0, 0).bytes_per_sec as f64;
    for l in 0..n_links as u32 {
        net.set_capacity(l, cap);
    }
    let mut rng = SimRng::new(cfg.seed);
    let mut path = move || {
        let (a, b) = (
            rng.gen_range(n_leaves as u64) as u32,
            rng.gen_range(n_leaves as u64) as u32,
        );
        let up = rng.gen_range(n_up as u64) as u32;
        [a * 2 * n_up + up, b * 2 * n_up + n_up + up]
    };
    let mut changes = Vec::new();
    for f in 0..resident as u32 {
        // Large enough that no resident finishes while the replay runs.
        net.join(f, &path(), 1e12, 0.0);
        net.take_changes(&mut changes);
        changes.clear();
    }
    let spare = resident as u32;
    ns_per_op(pairs, || {
        for i in 0..pairs {
            let now = i as f64 * 1e-6;
            net.join(spare, &path(), 1e6, now);
            net.take_changes(&mut changes);
            black_box(net.leave(spare, now));
            net.take_changes(&mut changes);
            changes.clear();
        }
    })
}

/// `FctRecorder::flow_started` + `flow_completed` per flow, and
/// `SampleSet::push` per sample.
pub fn metrics_ns(cfg: &SimConfig, flows: u32, pushes: u64) -> (f64, f64) {
    let flows = flows.max(1);
    let mut fct = FctRecorder::new(cfg.short_threshold);
    fct.reserve(flows as usize);
    let record = ns_per_op(u64::from(flows), || {
        for f in 0..flows {
            let start = SimTime::from_micros(u64::from(f));
            fct.flow_started(FlowId(f), 50_000 + u64::from(f), start, None);
            fct.flow_completed(FlowId(f), start + SimTime::from_millis(1));
        }
        black_box(fct.n_flows());
    });
    let mut set = SampleSet::with_capacity(pushes as usize);
    let push = ns_per_op(pushes, || {
        for i in 0..pushes {
            set.push(i as f64);
        }
        black_box(set.len());
    });
    (record, push)
}

/// Samples the run pushed into its `SampleSet`s (queue lengths, queueing
/// delays, FEL depth).
pub fn samples_pushed(r: &RunReport) -> u64 {
    (r.short_qlen.len() + r.long_qlen.len() + r.short_qdelay.len() + r.fel_depth.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn every_replay_returns_a_positive_time() {
        for w in [Workload::WebsearchLeafspine, Workload::FattreeK16Websearch] {
            let cfg = &w.configs(1)[0];
            assert!(port_cycle_ns(cfg, 3, 1_000) > 0.0);
            let (choose, tick) = lb_ns(cfg, 32, 2_000, 10);
            assert!(choose > 0.0 && tick > 0.0);
            let (ack, seg) = transport_ns(cfg, 500);
            assert!(ack > 0.0 && seg > 0.0);
            assert!(fluid_join_leave_ns(cfg, 8, 200) > 0.0);
            let (record, push) = metrics_ns(cfg, 100, 1_000);
            assert!(record > 0.0 && push > 0.0);
        }
        let ecmp = &Workload::HighbdpBulk.configs(1)[0];
        assert_eq!(lb_ns(ecmp, 16, 1_000, 10).1, 0.0, "ECMP has no tick");
        assert!(fel_hold_ns(100, 1_000) > 0.0);
        assert!(rng_next_ns(1_000) > 0.0);
        assert!(arena_cycle_ns(ecmp, 10, 1_000) > 0.0);
        assert!(flowmap_touch_ns(10, 1_000) > 0.0);
        assert!(qth_min_ns(1_000) > 0.0);
    }
}
