//! Scheduled fabric administration: the admin schedule's one handler —
//! link-quality changes, failures and repairs — and the routing
//! reconvergence a failure or repair forces. A handler mutates only state
//! every shard replica holds a full copy of (port props, admin flags,
//! reach masks), so under sharding each replica runs it whole on itself at
//! the event's own `(time, key)`; the hybrid tier's reaction at the end of
//! each is a no-op there (sharding refuses hybrid). A rate change rewrites
//! the port's props and nothing else: packets already on the wire keep
//! their arrival times, and the arena behind the link pipes was reserved
//! at build for every state the schedule reaches. A packet is on the wire
//! from its service start, so one still serializing when the change lands
//! keeps the serialization time and the propagation delay it read then;
//! the next packet to start takes the new ones. Packets that wait depart
//! lazily, so the change first departs every one whose start came before
//! it ([`Net::advance`]): each reads the link as it was at its own start.

use super::link;
use super::portmap::PortId;
use super::Net;
use crate::config::{Change, Target};
use tlb_engine::SimTime;

impl Net<'_> {
    /// Apply the `i`-th configured admin event. A rate change advances
    /// both directions of its uplink to now, then rewrites their links by
    /// [`Change::apply`]. A failure or
    /// repair flips the admin state of the target port(s) and their
    /// reverse directions, reconverges routing (each replica's reach
    /// recompute reads the admin state of the *whole* fabric), then
    /// demotes the fluid tails that lost a link.
    pub(super) fn on_admin(&mut self, i: usize, now: SimTime) {
        let ev = self.cfg.admin_events[i];
        let down = match ev.change {
            Change::Down => true,
            Change::Up => false,
            Change::Rate { .. } => {
                let Target::Link { sw, up } = ev.target else {
                    unreachable!("validate refuses a rate change on a switch")
                };
                let changed = link::uplink_pair(&self.pmap, sw, up);
                for p in changed {
                    // What started before the change read the old link.
                    self.advance(p, (now, self.cur_key));
                    let port = &mut self.ports[p as usize];
                    port.set_link(ev.change.apply(port.link()));
                }
                return self.fluid_link_update(changed, now);
            }
        };
        match ev.target {
            Target::Link { sw, up } => {
                let p = self.pmap.sw_up(sw.index() as u32, up.index() as u32);
                self.set_link_state(p, down);
            }
            Target::Switch { sw } => {
                for p in self.pmap.sw[sw].all() {
                    self.set_link_state(p, down);
                }
            }
        }
        self.recompute_reach();
        self.demote_failed(now);
    }

    /// Take one directed port and its reverse down (or back up). Queued
    /// and in-service packets drain normally; while down, new admissions
    /// drop at the port with ordinary accounting. Idempotent: a failure
    /// targeting an already-dead port (duplicate schedule entries, or a
    /// switch failure overlapping a dead link) changes nothing.
    fn set_link_state(&mut self, p: PortId, down: bool) {
        for q in [p, self.pmap.rev[p as usize]] {
            self.ports[q as usize].set_down(down);
        }
    }

    /// Reconverge routing from port admin state. Runs only at failure
    /// events (and once at build) — never on the per-packet path.
    pub(super) fn recompute_reach(&mut self) {
        self.pmap.recompute_reach(&self.ports, &mut self.reach);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{AdminEvent, Change, Target};
    use crate::{Hop, Scheme, Simulation};
    use tlb_engine::{time::tx_time, SimTime};
    use tlb_net::{FlowId, HostId, LeafId, Packet, PktKind, SpineId};
    use tlb_transport::TcpConfig;
    use tlb_workload::FlowSpec;

    #[test]
    fn mid_run_link_change_applies() {
        // One path only; brown out at t=1ms; a long flow must slow down after.
        let mut cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
        cfg.topo = tlb_net::LeafSpineBuilder::new(2, 1, 2)
            .link_gbps(1.0)
            .target_rtt(SimTime::from_micros(100))
            .build();
        cfg.admin_events.push(AdminEvent {
            at: SimTime::from_millis(1),
            target: Target::Link {
                sw: LeafId(0),
                up: SpineId(0),
            },
            change: Change::Rate {
                new_prop_delay: None,
                bw_factor: 0.5,
                extra_delay: SimTime::ZERO,
            },
        });
        let r = Simulation::new(
            cfg,
            vec![FlowSpec {
                id: FlowId(0),
                src: HostId(0),
                dst: HostId(2),
                size_bytes: 5_000_000,
                start: SimTime::ZERO,
                deadline: None,
            }],
        )
        .run();
        assert_eq!(r.completed, 1);
        let fct = r.fct.fct_of(FlowId(0)).unwrap();
        // 5 MB at 1 Gbit/s ~ 40 ms; at 0.5 Gbit/s after the first ms ~ 79 ms.
        assert!(fct > 0.06, "brownout had no effect: fct {fct}");
    }

    #[test]
    fn a_packet_serializing_across_a_rate_change_keeps_its_delay() {
        // A lone flow's SYN enters an idle leaf uplink and starts
        // serializing at once; 1 ns later a rate change adds 50 µs to the
        // link's delay. The SYN arrives at the spine its serialization
        // time plus the old delay after it started — the delay it read
        // when its service began — and the first data segment, which
        // starts after the change, takes the new one.
        let mut cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
        cfg.trace_flows = vec![FlowId(0)];
        let flows = vec![FlowSpec {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(cfg.topo.hosts_per_leaf() as u32),
            size_bytes: 10 * cfg.tcp.mss as u64,
            start: SimTime::ZERO,
            deadline: None,
        }];
        let run = |cfg: &crate::SimConfig| Simulation::new(cfg.clone(), flows.clone()).run();
        let first = |r: &crate::RunReport, kind: PktKind, up: bool| {
            let t = (r.traces.iter())
                .find(|t| {
                    t.kind == kind
                        && match t.hop {
                            Hop::LeafUplink { .. } => up,
                            Hop::SpineDownlink { .. } => !up,
                            _ => false,
                        }
                })
                .expect("traced hop");
            (t.at, t.hop)
        };
        let (syn_up, hop) = first(&run(&cfg), PktKind::Syn, true);
        let Hop::LeafUplink { leaf, spine } = hop else {
            unreachable!()
        };
        let props = cfg.topo.uplink_props(leaf.into(), spine.into());
        let extra = SimTime::from_micros(50);
        cfg.admin_events.push(AdminEvent {
            at: syn_up + SimTime::from_nanos(1),
            target: Target::Link {
                sw: LeafId(leaf.into()),
                up: SpineId(spine.into()),
            },
            change: Change::Rate {
                new_prop_delay: None,
                bw_factor: 1.0,
                extra_delay: extra,
            },
        });
        let r = run(&cfg);
        let tx = |bytes: u32| tx_time(bytes as u64, props.bytes_per_sec);
        let crossing = |kind| first(&r, kind, false).0 - first(&r, kind, true).0;
        assert_eq!(first(&r, PktKind::Syn, true).0, syn_up);
        assert_eq!(
            crossing(PktKind::Syn),
            tx(Packet::CTRL_WIRE_BYTES) + props.prop_delay,
            "the SYN took the delay of its service start"
        );
        let data = cfg.tcp.mss + TcpConfig::HEADER_BYTES;
        assert_eq!(
            crossing(PktKind::Data),
            tx(data) + props.prop_delay + extra,
            "the first data segment took the new delay"
        );
    }

    #[test]
    fn a_rate_change_reaches_waiting_packets_at_their_own_starts() {
        // Four hosts of one rack send to the other over the one spine, so
        // the leaf's uplink holds a standing queue. A rate change halves
        // the uplink and adds 20 µs to its delay 1 ns after a packet that
        // waited started there. Every packet through the uplink, in FIFO
        // order, starts where the one ahead of it ends (or as it enters an
        // idle port) and reaches the spine a serialization time plus a
        // delay after its own start, both read off the link as it was at
        // that start: the one that started 1 ns before the change keeps
        // the old ones, every later one takes the new.
        let mut cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
        cfg.topo = tlb_net::LeafSpineBuilder::new(2, 1, 4)
            .link_gbps(1.0)
            .target_rtt(SimTime::from_micros(100))
            .build();
        let flows: Vec<FlowSpec> = (0..4u32)
            .map(|i| FlowSpec {
                id: FlowId(i),
                src: HostId(i),
                dst: HostId(4 + i),
                size_bytes: 400 * cfg.tcp.mss as u64,
                start: SimTime::ZERO,
                deadline: None,
            })
            .collect();
        cfg.trace_flows = flows.iter().map(|f| f.id).collect();
        let old = cfg.topo.uplink_props(0, 0);
        let change = Change::Rate {
            new_prop_delay: None,
            bw_factor: 0.5,
            extra_delay: SimTime::from_micros(20),
        };
        let data = (cfg.tcp.mss + TcpConfig::HEADER_BYTES) as u64;
        let wire_bytes = |kind| match kind {
            PktKind::Data => data,
            _ => Packet::CTRL_WIRE_BYTES as u64,
        };
        // The uplink's packets in FIFO order: when each entered, its wire
        // bytes, and when it reached the spine.
        let crossings = |r: &crate::RunReport| {
            let entered = (r.traces.iter())
                .filter(|t| matches!(t.hop, Hop::LeafUplink { leaf: 0, .. }))
                .map(|t| (t.at, wire_bytes(t.kind)));
            let reached = (r.traces.iter())
                .filter(|t| matches!(t.hop, Hop::SpineDownlink { leaf: 1, .. }))
                .map(|t| t.at);
            entered.zip(reached).collect::<Vec<_>>()
        };
        // The FIFO model: each packet's start, when it entered and when it
        // reaches the spine, on the link as it was at its start (the
        // change lands at `change_at`).
        let model = |seen: &[((SimTime, u64), SimTime)], change_at: SimTime| {
            let (mut free, mut back) = (SimTime::ZERO, SimTime::ZERO);
            (seen.iter())
                .map(|&((entered, bytes), _)| {
                    let start = entered.max(free);
                    // A start at the change's instant ranks before it.
                    let l = if start <= change_at {
                        old
                    } else {
                        change.apply(old)
                    };
                    free = start + tx_time(bytes, l.bytes_per_sec);
                    back = back.max(free + l.prop_delay);
                    (start, entered, back)
                })
                .collect::<Vec<_>>()
        };
        let before = Simulation::new(cfg.clone(), flows.clone()).run();
        assert_eq!(before.drops, 0);
        let seen = crossings(&before);
        let never = SimTime::from_nanos(u64::MAX);
        let waited: Vec<SimTime> = (model(&seen, never).into_iter())
            .filter(|&(start, entered, _)| start > entered)
            .map(|(start, ..)| start)
            .collect();
        assert!(waited.len() > 100, "the uplink must hold a queue");
        let change_at = waited[waited.len() / 2] + SimTime::from_nanos(1);
        cfg.admin_events.push(AdminEvent {
            at: change_at,
            target: Target::Link {
                sw: LeafId(0),
                up: SpineId(0),
            },
            change,
        });
        let r = Simulation::new(cfg, flows).run();
        assert_eq!((r.completed, r.drops), (4, 0));
        let seen = crossings(&r);
        let arrivals: Vec<SimTime> = seen.iter().map(|&(_, at)| at).collect();
        let expected: Vec<SimTime> = model(&seen, change_at).into_iter().map(|m| m.2).collect();
        assert!(arrivals.iter().any(|&at| at > change_at));
        assert_eq!(arrivals, expected);
    }
}
