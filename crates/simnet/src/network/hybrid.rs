//! The hybrid-fidelity seam: long-flow tails that leave the packet path
//! for the fluid tier ([`tlb_net::FluidNet`]) and how they come back.
//! [`Net::hybrid`] is `Some` iff the run uses
//! [`crate::FidelityKind::Hybrid`]; packet-fidelity runs never enter this
//! module and execute the historical per-packet paths bit-for-bit.

use super::events::{push_ev, Event};
use super::link;
use super::portmap::{NextHop, NodeRef, PortId};
use super::Net;
use tlb_engine::SimTime;
use tlb_net::{FluidNet, Packet, RateChange, MAX_FLUID_PATH};
use tlb_switch::OutPort;
use tlb_transport::TcpConfig;

/// Everything the fluid tier adds to a run.
pub(super) struct Hybrid {
    fluid: FluidNet,
    /// Per-flow: has ever migrated packet→fluid (audit bookkeeping). A
    /// flow demoted by a failure reroutes at packet fidelity, then may
    /// migrate *again* once it re-qualifies over a healthy path; stale
    /// `FluidDone`s from earlier residencies die on the generation
    /// counter.
    pub migrated: Vec<bool>,
    /// Per-flow: fluid tail still in flight (completion waits for it).
    pub pend: Vec<bool>,
    /// Per-flow payload bytes handed to the fluid tier at the *latest*
    /// migration.
    tail_bytes: Vec<u64>,
    /// Per-flow payload bytes the fluid tier actually delivered, summed
    /// over every residency — equal to the tail sizes handed over unless
    /// a demotion returned a remainder mid-tail.
    pub credit: Vec<u64>,
    /// `FluidDone` events pending in the FEL, stale ones included (part of
    /// the FEL occupancy bound).
    pub events_pending: u64,
    pub migrations: u64,
    pub demotions: u64,
    pub bytes: u64,
    /// Scratch for draining [`FluidNet::take_changes`].
    rate_changes: Vec<RateChange>,
    /// Scratch for collecting failure-demoted fluid flows.
    demote_scratch: Vec<u32>,
}

impl Hybrid {
    pub fn new(tcp: &TcpConfig, ports: &[OutPort], n_flows: usize) -> Hybrid {
        let mut fluid = FluidNet::new(ports.len(), n_flows);
        for (i, p) in ports.iter().enumerate() {
            fluid.set_capacity(i as u32, link::payload_capacity(tcp, &p.link()));
        }
        Hybrid {
            fluid,
            migrated: vec![false; n_flows],
            pend: vec![false; n_flows],
            tail_bytes: vec![0; n_flows],
            credit: vec![0; n_flows],
            events_pending: 0,
            migrations: 0,
            demotions: 0,
            bytes: 0,
            rate_changes: Vec::with_capacity(64),
            demote_scratch: Vec::with_capacity(64),
        }
    }
}

impl Net<'_> {
    /// Consider moving flow `fi`'s unsent tail onto the fluid tier.
    /// Called after every processed ACK under hybrid fidelity; fires at
    /// the first ACK where the cumulatively acknowledged bytes cross the
    /// short/long threshold (the same 100 KB reclassification boundary
    /// TLB itself uses) while unsent data remains. Handshakes, short
    /// flows, retransmissions of the already emitted prefix, and all
    /// queue/ECN dynamics stay packet-level. A flow demoted by a failure
    /// re-qualifies here and migrates again once an ACK finds unsent data
    /// and a fully-up path — the `in_fluid`/`snd_nxt` gates keep a flow
    /// from double-joining or rejoining after its tail completed.
    pub(super) fn maybe_migrate(&mut self, fi: usize, now: SimTime) {
        if self.is_short[fi] || self.completed[fi] {
            return;
        }
        let mss = self.cfg.tcp.mss as u64;
        let Some(sender) = self.senders[fi].as_ref() else {
            return;
        };
        if !sender.is_established()
            || sender.in_fluid()
            || (sender.acked_segs() as u64) * mss < self.cfg.short_threshold
            || sender.snd_nxt() >= sender.total_segs()
        {
            return;
        }
        // Route the tail once, through the same balancer hooks the packet
        // path uses. If any chosen hop is administratively down, stay
        // packet-level for now and let a later ACK retry — drops at the
        // dead port would only round-trip through retransmission anyway.
        let mut path = [0u32; MAX_FLUID_PATH];
        let len = self.fluid_route(fi, now, &mut path);
        if path[..len]
            .iter()
            .any(|&l| self.ports[l as usize].is_down())
        {
            return;
        }
        let (Some(hy), Some(sender)) = (self.hybrid.as_mut(), self.senders[fi].as_mut()) else {
            return;
        };
        let tail = sender.hybrid_truncate();
        self.total_segs[fi] = sender.total_segs();
        hy.migrated[fi] = true;
        hy.pend[fi] = true;
        hy.tail_bytes[fi] = tail;
        hy.migrations += 1;
        hy.bytes += tail;
        hy.fluid
            .join(fi as u32, &path[..len], tail as f64, now.as_secs_f64());
        self.flush_fluid_changes(now);
    }

    /// The directed links flow `fi`'s fluid tail would occupy: the packet
    /// path's own walk ([`super::portmap::PortMap::next_hop`] at every
    /// switch), with [`Net::choose_up`] at each LB switch on the way — so
    /// the balancers count and track the migrated flow exactly like a
    /// packet-level one. Writes into `path` and returns the path length
    /// (1–[`MAX_FLUID_PATH`] links: NIC, up to two upward hops, and the
    /// downward hops to the host).
    fn fluid_route(&mut self, fi: usize, now: SimTime, path: &mut [u32; MAX_FLUID_PATH]) -> usize {
        let spec = self.flows[fi];
        // A representative data segment for the balancer hooks (flow and
        // flowlet tables key on the flow id).
        let probe = Packet::data(
            spec.id,
            spec.src,
            spec.dst,
            self.senders[fi].as_ref().map_or(0, |s| s.snd_nxt()),
            self.cfg.tcp.mss,
            self.cfg.tcp.header_bytes,
            now,
        );
        let mut port = self.pmap.host_nic(spec.src.0);
        let mut len = 0;
        loop {
            path[len] = port;
            len += 1;
            let NodeRef::Switch(sw) = self.pmap.next_node(port) else {
                return len;
            };
            port = match self.pmap.next_hop(sw as u32, spec.dst.0) {
                NextHop::Down(p) => p,
                NextHop::Up { group } => {
                    let up = self.choose_up(sw, group, &probe, now);
                    self.pmap.sw_up(sw as u32, up)
                }
            };
        }
    }

    /// Propagate a mid-run link-quality change into the fluid tier:
    /// refresh both directions' capacities and rerate every fluid flow
    /// crossing either of them.
    pub(super) fn fluid_link_update(&mut self, changed: [PortId; 2], now: SimTime) {
        let Some(hy) = self.hybrid.as_mut() else {
            return;
        };
        for p in changed {
            let cap = link::payload_capacity(&self.cfg.tcp, &self.ports[p as usize].link());
            hy.fluid.set_capacity(p, cap);
            hy.fluid.touch_link(p, now.as_secs_f64());
        }
        self.flush_fluid_changes(now);
    }

    /// Drain the fluid model's rate changes into `FluidDone` events. Each
    /// rerate projects a new completion time; older projections for the
    /// same flow go stale via the generation counter. The ceil keeps the
    /// integer event time at-or-after the real completion instant, so the
    /// pop-side residual is ≤ one rate·nanosecond of bytes.
    fn flush_fluid_changes(&mut self, now: SimTime) {
        let Some(hy) = self.hybrid.as_mut() else {
            return;
        };
        hy.fluid.take_changes(&mut hy.rate_changes);
        for ch in hy.rate_changes.drain(..) {
            let at = SimTime::from_nanos((ch.done_at_s * 1e9).ceil() as u64).max(now);
            push_ev(
                &mut self.q,
                at,
                Event::FluidDone {
                    flow: ch.flow,
                    gen: ch.gen,
                },
            );
            hy.events_pending += 1;
        }
    }

    /// A fluid tail's projected completion time arrived. Stale unless the
    /// flow is still in the fluid tier at the same generation (reroutes,
    /// demotions and rerates all bump it).
    pub(super) fn on_fluid_done(&mut self, flow: u32, gen: u32, now: SimTime) {
        let Some(hy) = self.hybrid.as_mut() else {
            return;
        };
        hy.events_pending -= 1;
        if !hy.fluid.is_active(flow) || hy.fluid.gen(flow) != gen {
            return;
        }
        let fi = flow as usize;
        let rem = hy.fluid.leave(flow, now.as_secs_f64());
        // The event time was ceiled past the projected instant, so at most
        // one rate·nanosecond of bytes can remain; with caps ≤ 100 Gb/s
        // that is well under a byte.
        debug_assert!(rem < 16.0, "FluidDone fired with {rem} bytes left");
        hy.pend[fi] = false;
        hy.credit[fi] += hy.tail_bytes[fi];
        self.flush_fluid_changes(now);
        let mut out = std::mem::take(&mut self.out_buf);
        if let Some(sender) = self.senders[fi].as_mut() {
            sender.fluid_done(now, &mut out);
        }
        self.process_outputs(flow, &mut out, now);
        self.out_buf = out;
        // If the receiver already delivered the whole packet prefix, the
        // tail was the last outstanding byte range — complete here (no
        // further data arrivals would re-run the receiver-side check).
        let prefix_done = self.receivers[fi]
            .as_ref()
            .is_some_and(|r| r.delivered_segs() >= self.total_segs[fi]);
        if prefix_done && !self.completed[fi] {
            self.complete(fi, now);
        }
    }

    /// After a failure reconverged routing: demote every fluid tail whose
    /// path lost a link back to the packet path. The sender's segment plan
    /// regrows by the undelivered remainder and resumes ordinary
    /// (re)transmission — the reroute happens at packet fidelity, exactly
    /// like a never-migrated flow. Once a later ACK re-qualifies the flow
    /// over a healthy path, [`Net::maybe_migrate`] moves the tail back to
    /// the fluid tier; `FluidDone`s left over from this residency are
    /// inert because [`tlb_net::FluidNet::leave`] bumped the generation.
    pub(super) fn demote_failed(&mut self, now: SimTime) {
        // Lift the tier out while the demoted senders emit:
        // `process_outputs` needs the whole `Net`.
        let Some(mut hy) = self.hybrid.take() else {
            return;
        };
        hy.demote_scratch.clear();
        let ports = &self.ports;
        let victims = &mut hy.demote_scratch;
        hy.fluid.for_each_active(|f, path| {
            if path.iter().any(|&l| ports[l as usize].is_down()) {
                victims.push(f);
            }
        });
        for &f in &hy.demote_scratch {
            let fi = f as usize;
            let rem = hy.fluid.leave(f, now.as_secs_f64());
            // Round the fluid remainder up to whole bytes for the packet
            // path; the clamp guards the f64 bookkeeping's edges (a tail
            // is ≥ 1 byte by construction).
            let rem_bytes = (rem.ceil() as u64).clamp(1, hy.tail_bytes[fi]);
            hy.pend[fi] = false;
            hy.credit[fi] += hy.tail_bytes[fi] - rem_bytes;
            hy.demotions += 1;
            let mut out = std::mem::take(&mut self.out_buf);
            let add = self.senders[fi]
                .as_mut()
                .expect("demoted flow without a sender")
                .fluid_demote(rem_bytes, now, &mut out);
            self.total_segs[fi] += add;
            self.process_outputs(f, &mut out, now);
            self.out_buf = out;
        }
        self.hybrid = Some(hy);
        self.flush_fluid_changes(now);
    }
}
