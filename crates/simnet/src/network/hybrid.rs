//! The hybrid-fidelity seam: long-flow tails that leave the packet path
//! for the fluid tier ([`tlb_net::FluidNet`]) and how they come back.
//! [`Net::hybrid`] is `Some` iff the run uses
//! [`crate::FidelityKind::Hybrid`]; packet-fidelity runs never enter this
//! module and execute the historical per-packet paths bit-for-bit.
//!
//! The seam, not the FEL, is the fluid tier's priority queue. Every join,
//! leave and capacity change re-rates each sharer (≈87 of them per change
//! on the web-search workload), and each re-rate moves that flow's
//! projected completion time; fewer than 1 % of the projections ever come
//! true. So the projections live in an [`IndexedMinHeap`] keyed by flow —
//! one entry per resident, updated in place — and that heap is one of the
//! run's event sources: [`Net::peek`] merges its minimum, at key
//! `(FLUID_DONE, flow)`, with the FEL head and the build-time schedule's
//! next entry, and [`Net::on_fluid_done`]
//! completes the tail it names. Each completion runs at the `(time,
//! FLUID_DONE, flow)` position a per-projection FEL event would have had,
//! so the schedule every other event sees is unchanged.

use super::events::{class, key_of};
use super::forward::Probe;
use super::link;
use super::portmap::{NextHop, NodeRef, PortId};
use super::Net;
use tlb_engine::{IndexedMinHeap, SimTime};
use tlb_net::{FluidNet, Packet, RateChange, MAX_FLUID_PATH};
use tlb_switch::OutPort;
use tlb_transport::TcpConfig;

/// Everything the fluid tier adds to a run.
pub(super) struct Hybrid {
    fluid: FluidNet,
    /// Every resident's projected completion `(at_ns, flow)`: upserted at
    /// each rate change, removed when the flow leaves the tier.
    done: IndexedMinHeap,
    /// Per-flow payload bytes handed to the fluid tier at the *latest*
    /// migration.
    tail_bytes: Vec<u64>,
    /// Per-flow payload bytes the fluid tier actually delivered, summed
    /// over every residency — equal to the tail sizes handed over unless
    /// a demotion returned a remainder mid-tail.
    pub credit: Vec<u64>,
    pub migrations: u64,
    pub demotions: u64,
    pub bytes: u64,
    /// Rate changes drained from the fluid model.
    pub rate_changes_seen: u64,
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
            done: IndexedMinHeap::new(n_flows),
            tail_bytes: vec![0; n_flows],
            credit: vec![0; n_flows],
            migrations: 0,
            demotions: 0,
            bytes: 0,
            rate_changes_seen: 0,
            rate_changes: Vec::with_capacity(64),
            demote_scratch: Vec::with_capacity(64),
        }
    }

    /// Move the fluid model's pending rate changes into the completion
    /// heap: each re-rate replaces the flow's projected completion time in
    /// place. Called after every mutation of the model, so the heap always
    /// holds exactly the residents, each at its latest projection. The ceil
    /// keeps the integer event time at-or-after the real completion
    /// instant, so the pop-side residual is ≤ one rate·nanosecond of bytes.
    fn absorb_changes(&mut self, now: SimTime) {
        self.fluid.take_changes(&mut self.rate_changes);
        self.rate_changes_seen += self.rate_changes.len() as u64;
        for ch in self.rate_changes.drain(..) {
            let at = SimTime::from_nanos((ch.done_at_s * 1e9).ceil() as u64).max(now);
            self.done.upsert(ch.flow, at.as_nanos());
        }
    }

    /// `(time, key)` of the earliest projected completion: what
    /// [`Net::peek`] merges with the other sources. Heap order `(at_ns, flow)`
    /// is key order, so same-nanosecond tails complete in ascending flow id.
    #[inline]
    pub fn next_done(&self) -> Option<(SimTime, u32)> {
        self.done
            .peek()
            .map(|(at, flow)| (SimTime::from_nanos(at), key_of(class::FLUID_DONE, flow)))
    }

    /// The audit's view of the completion heap, checked between events:
    /// it holds exactly the fluid model's residents.
    pub fn check_residents(&self) {
        assert_eq!(
            self.done.len(),
            self.fluid.active_flows(),
            "completion heap and fluid residents disagree"
        );
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
        let row = self.rows[fi];
        let Some(slot) = row.sender.filter(|_| !row.short && !row.completed) else {
            return;
        };
        let mss = self.cfg.tcp.mss as u64;
        let sender = &self.senders[slot];
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
        let Some(hy) = self.hybrid.as_mut() else {
            return;
        };
        let sender = &mut self.senders[slot];
        let tail = sender.hybrid_truncate();
        self.rows[fi].total_segs = sender.total_segs();
        hy.tail_bytes[fi] = tail;
        hy.migrations += 1;
        hy.bytes += tail;
        hy.fluid
            .join(fi as u32, &path[..len], tail as f64, now.as_secs_f64());
        hy.absorb_changes(now);
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
            self.rows[fi]
                .sender
                .map_or(0, |s| self.senders[s].snd_nxt()),
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
                    let up = self.choose_up(sw, group, Probe::Held(&probe), now);
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
        hy.absorb_changes(now);
    }

    /// The earliest projected completion came due ([`Net::step`] found it
    /// at the heap's top): take it off and complete that tail. Exactly one
    /// tail completes per step, so same-nanosecond completions run in
    /// ascending flow id with every other event of that instant — a
    /// chained successor's `FLOW_START`, pushed at `now` on the end of
    /// the schedule, included — dispatched in between.
    ///
    /// Out of line and cold: one completion per residency against
    /// thousands of packet events, and inlined into [`Net::step`] it slowed
    /// the packet path of every run by ≈ 5 % (the benchmark's
    /// `highbdp_bulk`).
    #[cold]
    #[inline(never)]
    pub(super) fn on_fluid_done(&mut self, now: SimTime) {
        let hy = self
            .hybrid
            .as_mut()
            .expect("a tail completion without a fluid tier");
        let (at, flow) = hy.done.peek().expect("a tail completion with no resident");
        debug_assert_eq!(at, now.as_nanos());
        hy.done.remove(flow);
        let fi = flow as usize;
        let rem = hy.fluid.leave(flow, now.as_secs_f64());
        // The completion time was ceiled past the projected instant, so at
        // most one rate·nanosecond of bytes can remain; with caps ≤ 100 Gb/s
        // that is well under a byte.
        debug_assert!(rem < 16.0, "tail completed with {rem} bytes left");
        hy.credit[fi] += hy.tail_bytes[fi];
        hy.absorb_changes(now);
        self.drive_sender(fi, now, |s, out| s.fluid_done(now, out));
        // If the receiver already delivered the whole packet prefix, the
        // tail was the last outstanding byte range — complete here (no
        // further data arrivals would re-run the receiver-side check). An
        // open receiver means the flow has not completed.
        let row = self.rows[fi];
        let prefix_done = row
            .receiver
            .is_some_and(|r| self.receivers[r].delivered_segs() >= row.total_segs);
        if prefix_done {
            self.complete(fi, now);
        }
    }

    /// After a failure reconverged routing: demote every fluid tail whose
    /// path lost a link back to the packet path. The sender's segment plan
    /// regrows by the undelivered remainder and resumes ordinary
    /// (re)transmission — the reroute happens at packet fidelity, exactly
    /// like a never-migrated flow. Once a later ACK re-qualifies the flow
    /// over a healthy path, [`Net::maybe_migrate`] moves the tail back to
    /// the fluid tier.
    pub(super) fn demote_failed(&mut self, now: SimTime) {
        // Lift the tier out while the demoted senders emit:
        // `process_outputs` needs the whole `Net`.
        let Some(mut hy) = self.hybrid.take() else {
            return;
        };
        // The completion heap is the resident set; ascending flow id is
        // the demotion order.
        let mut victims = std::mem::take(&mut hy.demote_scratch);
        victims.clear();
        let crosses_dead_port =
            |f: &u32| (hy.fluid.path(*f).iter()).any(|&l| self.ports[l as usize].is_down());
        victims.extend(hy.done.ids().filter(crosses_dead_port));
        victims.sort_unstable();
        for &f in &victims {
            let fi = f as usize;
            hy.done.remove(f);
            let rem = hy.fluid.leave(f, now.as_secs_f64());
            // Before the next victim leaves: this leave re-rated it, and a
            // projection absorbed after its own removal would resurrect it.
            hy.absorb_changes(now);
            // Round the fluid remainder up to whole bytes for the packet
            // path; the clamp guards the f64 bookkeeping's edges (a tail
            // is ≥ 1 byte by construction).
            let rem_bytes = (rem.ceil() as u64).clamp(1, hy.tail_bytes[fi]);
            hy.credit[fi] += hy.tail_bytes[fi] - rem_bytes;
            hy.demotions += 1;
            // A fluid tail defers its sender's FIN, so the sender is open.
            let mut add = 0;
            self.drive_sender(fi, now, |s, out| add = s.fluid_demote(rem_bytes, now, out));
            self.rows[fi].total_segs += add;
        }
        hy.demote_scratch = victims;
        self.hybrid = Some(hy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FidelityKind, Scheme, SimConfig};
    use tlb_net::{FlowId, HostId};
    use tlb_workload::FlowSpec;

    #[test]
    fn same_nanosecond_tails_complete_in_flow_order_around_a_chained_start() {
        // Flows 0 and 1 are mirror images on disjoint leaf pairs (8 leaves
        // × 4 hosts), so their packet prefixes run in lockstep, both tails
        // migrate at the same instant and both are projected to finish in
        // the same nanosecond. Flow 2 is chained behind flow 0. At that
        // nanosecond the order is: tail 0 completes and pushes flow 2's
        // `FLOW_START` at `now` on the end of the schedule; the start (a
        // lower class than every pending event of `now`) runs; only then
        // does tail 1 complete.
        let mut cfg = SimConfig::large_scale(Scheme::Ecmp, 4);
        cfg.fidelity = FidelityKind::Hybrid;
        cfg.audit = true;
        let flow = |id: u32, src: u32, dst: u32, size_bytes: u64| FlowSpec {
            id: FlowId(id),
            src: HostId(src),
            dst: HostId(dst),
            size_bytes,
            start: SimTime::ZERO,
            deadline: None,
        };
        let flows = [
            flow(0, 0, 4, 1_000_000),
            flow(1, 8, 12, 1_000_000),
            flow(2, 16, 20, 20_000),
        ];
        let mut net = Net::build(&cfg, &flows, vec![Some(2), None, None], None);

        let mut log = Vec::new();
        let mut seen = [false; 3]; // tail 0 done, flow 2 started, tail 1 done
        while net.n_completed < flows.len() {
            net.step(net.peek().expect("an event pending"));
            let rows = &net.rows;
            let state = [
                rows[0].completed,
                rows[2].sender.is_some(),
                rows[1].completed,
            ];
            for (i, what) in ["tail 0 done", "flow 2 started", "tail 1 done"]
                .into_iter()
                .enumerate()
            {
                if state[i] && !seen[i] {
                    seen[i] = true;
                    log.push((net.now, what));
                }
            }
        }
        let hy = net.hybrid.as_ref().expect("hybrid run");
        assert_eq!((hy.migrations, hy.demotions), (2, 0));
        // One `now` for all three, or the scenario lost its symmetry.
        let at = log[0].0;
        assert_eq!(
            log,
            [
                (at, "tail 0 done"),
                (at, "flow 2 started"),
                (at, "tail 1 done")
            ]
        );
    }
}
