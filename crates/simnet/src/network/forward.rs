//! The per-packet switch path: admission, serialization, link crossing
//! (per-link delivery pipes through the packet arena), the routing walk and
//! the balancer decision, plus the balancers' periodic tick and the
//! leaf-0 queue sampler. A packet travels this path as its arena slot,
//! read and marked in place. Everything here runs per packet-hop and
//! performs no steady-state allocation.

use super::events::{push_ev, Event};
use super::portmap::{NextHop, NodeRef, PortId};
use super::sharded::XMsg;
use super::Net;
use crate::report::{Hop, TraceEvent};
use tlb_engine::SimTime;
use tlb_net::{Packet, PacketSlot, PktKind};
use tlb_switch::{Enqueued, LoadBalancer, OutPort, PortView};

/// The balancer's view of an uplink slice under a liveness `mask`. With no
/// live uplink it falls back to the full view, so the packet drops at a
/// dead port with ordinary accounting instead of vanishing untracked.
fn live_view(uplinks: &[OutPort], mask: u64) -> PortView<'_> {
    if mask & PortView::full_mask(uplinks.len()) == 0 {
        PortView::new(uplinks)
    } else {
        PortView::with_mask(uplinks, mask)
    }
}

/// The packet a balancer decision reads: one crossing the fabric, in its
/// arena slot, or a stand-in the caller holds (a fluid tail's route).
pub(super) enum Probe<'p> {
    Parked(PacketSlot),
    Held(&'p Packet),
}

impl Net<'_> {
    /// Offer the packet in slot `pkt` — parked in the arena on no list —
    /// to port `p`: it joins the queue (and starts serializing if the port
    /// was idle) or is dropped, which frees its slot.
    pub(super) fn enqueue(&mut self, p: PortId, pkt: PacketSlot, now: SimTime) {
        if self.rows[self.arena.get(pkt).flow.index()].traced {
            let traced = *self.arena.get(pkt);
            self.trace(self.pmap.hop(p), &traced, now);
        }
        self.audit.enqueue_attempt(self.arena.get(pkt));
        match self.ports[p as usize].offer_in(&mut self.arena, pkt, now) {
            Enqueued::Queued { was_idle, .. } => {
                self.audit.enqueued(self.arena.get(pkt));
                if was_idle {
                    self.start_tx(p, now);
                }
            }
            Enqueued::Dropped => {
                // Loss is recovered by the transport; counters live in the
                // port stats.
                let pkt = self.arena.take(pkt);
                self.audit.dropped(&pkt);
            }
        }
    }

    fn start_tx(&mut self, p: PortId, now: SimTime) {
        let pi = p as usize;
        let slot = self.ports[pi]
            .start_in(&mut self.arena)
            .expect("start_tx on an empty port");
        // The port memoized this packet's serialization time when service
        // started — one division per packet-hop instead of three.
        let tx_time = self.ports[pi].service_tx_time();
        let pkt = self.arena.get(slot);
        // Leaf-uplink queueing delay of short-flow data (Fig. 8(b)) — the
        // queues the load balancer controls; NIC and downlink waits are the
        // same for every scheme and would only dilute the comparison.
        if self.pmap.is_lb_up(p) && pkt.kind == PktKind::Data && self.rows[pkt.flow.index()].short {
            let w = now.saturating_sub(pkt.enqueued_at).as_secs_f64();
            self.m.short_qdelay.push(w);
        }
        self.audit.tx_started(pkt);
        push_ev(&mut self.q, now + tx_time, Event::TxDone(p));
    }

    pub(super) fn on_tx_done(&mut self, p: PortId, now: SimTime) {
        let pi = p as usize;
        let (pkt, more) = self.ports[pi].finish_in(&self.arena);
        self.audit.tx_done(self.arena.get(pkt));
        let prop = self.ports[pi].link().prop_delay;
        if more {
            self.start_tx(p, now);
        }
        // FIFO wire: never arrive before a packet that entered the link
        // earlier (matters only after a prop-delay-shrinking LinkEvent).
        let at = (now + prop).max(self.link_fifo[pi]);
        self.link_fifo[pi] = at;
        match self.shard.as_mut() {
            // The next hop lives in another shard: hand the packet off,
            // out of this replica's arena; the owner parks it in its own
            // and runs the same `schedule_arrival` when it ingests the
            // message.
            Some(ctx) if ctx.map.arrive_owner[pi] != ctx.id => {
                let pkt = self.arena.take(pkt);
                ctx.outbox.push(XMsg { port: p, at, pkt });
            }
            _ => self.schedule_arrival(p, at, pkt),
        }
    }

    /// The one place an arrival meets the FEL: the packet in slot `pkt`
    /// finishes crossing port `p`'s link at `at`. Runs on the engine that
    /// owns the link's far end — the transmitting port's own in a serial
    /// run, the receiving shard's for a cross-shard handoff — with `at`
    /// non-decreasing per port (`link_fifo`).
    ///
    /// The slot is linked at the back of `pipes[p]`. Only an empty pipe
    /// arms `Deliver(p)`; successors chain when it pops. At most one
    /// `Deliver(p)` is ever live and nothing else carries port `p`'s
    /// arrival key, so `(time, key)` alone places each arrival, and
    /// same-instant arrivals leave in the pipe's FIFO order.
    #[inline]
    pub(super) fn schedule_arrival(&mut self, p: PortId, at: SimTime, pkt: PacketSlot) {
        let pipe = &mut self.pipes[p as usize];
        let was_empty = pipe.is_empty();
        self.arena.link_back(pipe, pkt, at);
        self.wire_pkts += 1;
        self.wire_pkts_peak = self.wire_pkts_peak.max(self.wire_pkts);
        if was_empty {
            push_ev(&mut self.q, at, Event::Deliver(p));
        }
    }

    /// The head of `p`'s pipe arrives now: take it off the wire.
    #[inline]
    pub(super) fn pop_pipe(&mut self, p: PortId, now: SimTime) -> PacketSlot {
        let pipe = &mut self.pipes[p as usize];
        debug_assert_eq!(
            self.arena.front_at(pipe),
            Some(now),
            "pipe head out of FIFO order"
        );
        let pkt = (self.arena.unlink_front(pipe)).expect("arrival on an empty pipe");
        self.wire_pkts -= 1;
        pkt
    }

    /// The head of `p`'s pipe arrives now. Re-arm the chain for the next
    /// in-flight packet, then hand the packet to the arrival logic.
    pub(super) fn on_deliver(&mut self, p: PortId, now: SimTime) {
        let pkt = self.pop_pipe(p, now);
        if let Some(at) = self.arena.front_at(&self.pipes[p as usize]) {
            push_ev(&mut self.q, at, Event::Deliver(p));
        }
        self.on_arrive(p, pkt, now);
    }

    /// The packet in slot `pkt` finished crossing port `p`'s link.
    pub(super) fn on_arrive(&mut self, p: PortId, pkt: PacketSlot, now: SimTime) {
        self.arrive_seen += 1;
        if self.cfg.fault_drop_nth == Some(self.arrive_seen) {
            // Injected driver bug (audit tests only): the packet vanishes
            // without any accounting layer hearing of it.
            self.arena.take(pkt);
            return;
        }
        self.audit.arrived(self.arena.get(pkt));
        match self.pmap.next_node(p) {
            NodeRef::Host(h) => {
                let pkt = self.arena.take(pkt);
                self.deliver_to_host(h, pkt, now);
            }
            NodeRef::Switch(sw) => self.forward_at_switch(sw, pkt, now),
        }
    }

    /// Route the packet in slot `pkt` at switch `sw`: descend when the
    /// destination sits below this switch, otherwise hand the choice to
    /// the switch's balancer.
    fn forward_at_switch(&mut self, sw: u16, pkt: PacketSlot, now: SimTime) {
        match self.pmap.next_hop(sw as u32, self.arena.get(pkt).dst.0) {
            NextHop::Down(p) => self.enqueue(p, pkt, now),
            NextHop::Up { group } => self.lb_forward(sw, group, pkt, now),
        }
    }

    /// One balancer decision at LB switch `sw` toward destination group
    /// (leaf/edge) `group`: build the (failure-aware) port view and ask the
    /// switch's balancer, which reads `pkt` where it lies. Factored out of
    /// [`Net::lb_forward`] so hybrid migration routes fluid tails through
    /// the exact same hooks — TLB/DiffFlow see a migrated flow like any
    /// other.
    pub(super) fn choose_up(&mut self, sw: u16, group: u32, pkt: Probe<'_>, now: SimTime) -> u32 {
        self.m.lb_decisions += 1;
        let pkt = match pkt {
            Probe::Parked(slot) => self.arena.get(slot),
            Probe::Held(pkt) => pkt,
        };
        let uplinks = &self.ports[self.pmap.up_range(sw as usize)];
        let view = if self.has_failures {
            let row = sw as usize * self.pmap.n_groups();
            live_view(uplinks, self.reach[row + group as usize])
        } else {
            PortView::new(uplinks)
        };
        let l = &mut self.lb_sws[sw as usize];
        l.lb.choose_uplink(pkt, view, now, &mut l.rng) as u32
    }

    /// LB switch `sw`'s balancer picks among its uplinks toward
    /// destination group (leaf/edge) `group`.
    fn lb_forward(&mut self, sw: u16, group: u32, pkt: PacketSlot, now: SimTime) {
        let up = self.choose_up(sw, group, Probe::Parked(pkt), now);
        let p = self.pmap.sw_up(sw as u32, up);
        debug_assert!(self.pmap.up_range(sw as usize).contains(&(p as usize)));
        // Fig. 3(a): queue length a short flow's data packet meets at
        // enqueue. Long-flow packets are not sampled — the paper plots no
        // such curve and a per-packet log would grow with bytes carried.
        let head = self.arena.get(pkt);
        if head.kind == PktKind::Data && self.rows[head.flow.index()].short {
            let qlen = self.ports[p as usize].len_pkts() as f64;
            self.m.short_qlen.push(qlen);
        }
        self.enqueue(p, pkt, now);
    }

    pub(super) fn on_lb_tick(&mut self, sw: u16, now: SimTime) {
        let uplinks = &self.ports[self.pmap.up_range(sw as usize)];
        let view = if self.has_failures {
            // Ticks have no destination, so they see the switch's local
            // uplink liveness rather than a reach row (an all-dead switch
            // routes nothing anyway).
            let live = uplinks
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.is_down())
                .fold(0u64, |m, (i, _)| m | 1 << i);
            live_view(uplinks, live)
        } else {
            PortView::new(uplinks)
        };
        let l = &mut self.lb_sws[sw as usize];
        l.lb.on_tick(view, now);
        self.m.lb_state_peak = self.m.lb_state_peak.max(l.lb.state_bytes());
        if sw == 0 {
            if let Some(qth) = l.lb.q_threshold() {
                // Saturate "infinite" to a plottable sentinel.
                let v = if qth == u64::MAX {
                    f64::INFINITY
                } else {
                    qth as f64
                };
                self.m.qth_series.push((now.as_secs_f64(), v));
            }
        }
        if let Some(iv) = l.lb.tick_interval() {
            let next = now + iv;
            if next <= self.cfg.horizon {
                push_ev(&mut self.q, next, Event::LbTick { sw });
                self.misc_pending += 1;
            }
        }
    }

    /// Record leaf-0's uplink occupancy and re-arm the sampler.
    pub(super) fn on_queue_sample(&mut self, now: SimTime) {
        let lens: Vec<u32> = self.ports[self.pmap.up_range(0)]
            .iter()
            .map(|p| p.len_pkts() as u32)
            .collect();
        self.m.queue_series.push((now.as_secs_f64(), lens));
        let next = now + self.cfg.series_bucket;
        if next <= self.cfg.horizon {
            push_ev(&mut self.q, next, Event::QueueSample);
            self.misc_pending += 1;
        }
    }

    /// Record a traced packet entering `hop`.
    pub(super) fn trace(&mut self, hop: Hop, pkt: &Packet, now: SimTime) {
        if self.shard.is_some() {
            self.m.trace_keys.push(self.cur_key);
        }
        self.m.traces.push(TraceEvent {
            flow: pkt.flow,
            kind: pkt.kind,
            seq: pkt.seq,
            at: now,
            hop,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::tests::one_flow;
    use crate::Scheme;

    #[test]
    fn arena_drains_and_recycles() {
        // Every packet parks in the arena from emission to delivery, and
        // the slab must stabilize at the peak population rather than
        // growing with the total packet count. `finish_audit` releases the
        // ports, drains the pipes and debug-asserts the arena empties
        // (exercised via `into_report`
        // below, since the basic preset audits in debug builds).
        let cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
        let flows = one_flow(500 * 1460);
        let mut net = Net::build(&cfg, &flows, vec![None; 1], None);
        net.run_loop();
        assert_eq!(net.n_completed, 1);
        let slots = net.arena.slots_allocated();
        assert!(slots > 0, "the wire must actually use the arena");
        assert!(
            slots < 500,
            "slab grew to {slots} slots for a 500-segment flow — recycling broke"
        );
        assert_eq!(net.arena.peak_live(), slots);
        let r = net.into_report(std::time::Duration::ZERO);
        assert_eq!(r.completed, 1);
    }
}
