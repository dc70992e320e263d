//! The per-packet switch path: admission, serialization, link crossing
//! (per-link delivery pipes through the packet arena), the routing walk and
//! the balancer decision, plus the balancers' periodic tick and the
//! leaf-0 queue sampler. A packet travels this path as its arena slot,
//! read and marked in place. Everything here runs per packet-hop and
//! performs no steady-state allocation.
//!
//! A port has no event of its own. A packet that finds it idle departs at
//! once; one that waits departs lazily, at the start its FIFO place fixed
//! (`(busy_until, DEPART rank)`), when [`Net::advance`] runs before the
//! next read of the port ordered after it — an admission, a balancer's
//! view, a tick or sample, a rate change, an `ARRIVAL` on its own link, or
//! the end of the run. Both go through one [`Net::start_tx`].

use super::events::{class, key_of, push_ev};
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
    /// to port `p`: it joins the queue or is dropped, which frees its
    /// slot. The port first departs what was due before this instant
    /// ([`Net::advance`]); a packet that then finds it idle departs at
    /// once, and one that queues departs lazily at its turn.
    pub(super) fn enqueue(&mut self, p: PortId, pkt: PacketSlot, now: SimTime) {
        if self.rows[self.arena.get(pkt).flow.index()].traced {
            let traced = *self.arena.get(pkt);
            self.trace(self.pmap.hop(p), &traced, now);
        }
        self.audit.enqueue_attempt(self.arena.get(pkt));
        let at = (now, self.cur_key);
        self.advance(p, at);
        let busy = self.serializing(p, at);
        match self.ports[p as usize].offer_in(&mut self.arena, pkt, now, busy) {
            Enqueued::Queued { was_idle, .. } => {
                self.audit.enqueued(self.arena.get(pkt));
                let port = &self.ports[p as usize];
                if was_idle {
                    self.start_tx(p, now, true);
                } else if port.len_pkts() == 1 {
                    self.head_start[p as usize] = port.busy_until();
                    if self.pipes[p as usize].is_empty() && self.receives(p) {
                        // The packet serializing ahead of it already
                        // arrived: a zero-delay link, between that
                        // arrival and this packet's start.
                        self.arm_head(p);
                    }
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

    /// Whether the last packet to depart port `p` is still serializing at
    /// the instant `at` = `(time, key)`: its serialization ends at the
    /// port's `busy_until`, and an event ranked there below the port's
    /// departure rank ([`class::DEPART`]) still sees it in service. A port
    /// that never sent a packet serializes nothing.
    pub(super) fn serializing(&self, p: PortId, at: (SimTime, u32)) -> bool {
        let port = &self.ports[p as usize];
        at < (port.busy_until(), key_of(class::DEPART, p)) && port.stats().pkts_tx > 0
    }

    /// Depart every packet queued at port `p` whose start comes before
    /// `at` = `(time, key)`. The queue is FIFO and serves back to back, so
    /// its head starts at `(busy_until, key_of(DEPART, p))` — where the
    /// port's serialization ends — and the next one where the head's ends.
    /// Runs before anything reads the port's queue or its link: so every
    /// reader sees what an event at each start would have left, and no
    /// start needs an event of its own. It reads `Net::head_start`, not
    /// the port, so a port with nothing due stays untouched.
    #[inline]
    pub(super) fn advance(&mut self, p: PortId, at: (SimTime, u32)) {
        if self.due(p, at) {
            self.depart_due(p, at);
        }
    }

    /// Whether port `p`'s head starts before `at`.
    #[inline]
    fn due(&self, p: PortId, at: (SimTime, u32)) -> bool {
        (self.head_start[p as usize], key_of(class::DEPART, p)) < at
    }

    /// [`Net::advance`]'s departures, out of its callers' way.
    #[inline(never)]
    fn depart_due(&mut self, p: PortId, at: (SimTime, u32)) {
        loop {
            self.start_tx(p, self.head_start[p as usize], false);
            if !self.due(p, at) {
                return;
            }
        }
    }

    /// Whether this `Net` receives port `p`'s link: holds its pipe and runs
    /// its `ARRIVAL`s (every link on the serial engine).
    fn receives(&self, p: PortId) -> bool {
        (self.shard.as_ref()).is_none_or(|c| c.map.arrive_owner[p as usize] == c.id)
    }

    /// Arm port `p`'s `ARRIVAL` where the head of its queue will arrive,
    /// `busy_until + tx + prop`, read off the link now. Only while the
    /// pipe is empty and the head waits: on a zero-delay link, between the
    /// arrival of the packet ahead of it and its own start, when no admin
    /// event can land (admin ranks after a departure).
    fn arm_head(&mut self, p: PortId) {
        let port = &self.ports[p as usize];
        let head = port
            .queued_in(&self.arena)
            .next()
            .expect("arming an empty port");
        let at = port.busy_until() + port.tx_time(head.wire_bytes as u64) + port.link().prop_delay;
        push_ev(&mut self.q, at, class::ARRIVAL, p);
    }

    /// [`Net::advance`] over LB switch `sw`'s uplinks: what its balancer
    /// reads. Nothing to do while `at` comes before the switch's
    /// `up_due`, a lower bound on its uplinks' `head_start`s, which a
    /// pass over them makes exact again.
    fn advance_uplinks(&mut self, sw: usize, at: (SimTime, u32)) {
        if at.0 < self.lb_sws[sw].up_due {
            return;
        }
        let mut due = SimTime::MAX;
        for p in self.pmap.up_range(sw) {
            self.advance(p as PortId, at);
            due = due.min(self.head_start[p]);
        }
        self.lb_sws[sw].up_due = due;
    }

    /// Port `p`'s head packet starts serializing at `start`, and goes on
    /// the link at once: it arrives a serialization time plus the link's
    /// propagation delay after `start` — both read off the link as it is
    /// then. `idle` tells a packet that found the port idle, which arms
    /// its link's `ARRIVAL` if the pipe is empty, from one that waited: a
    /// link whose pipe or queue holds a packet has its `ARRIVAL` armed
    /// already ([`Net::arm_head`]).
    fn start_tx(&mut self, p: PortId, start: SimTime, idle: bool) {
        let pi = p as usize;
        let (slot, tx) = self.ports[pi].depart_in(&mut self.arena, start);
        self.head_start[pi] = match self.ports[pi].len_pkts() {
            0 => SimTime::MAX,
            _ => self.ports[pi].busy_until(),
        };
        self.last_start = self.last_start.max(start);
        let pkt = self.arena.get(slot);
        // Leaf-uplink queueing delay of short-flow data (Fig. 8(b)) — the
        // queues the load balancer controls; NIC and downlink waits are the
        // same for every scheme and would only dilute the comparison.
        if self.pmap.is_lb_up(p) && pkt.kind == PktKind::Data && self.rows[pkt.flow.index()].short {
            let w = start.saturating_sub(pkt.enqueued_at).as_secs_f64();
            self.m.short_qdelay.push(w);
        }
        self.audit.departed(pkt);
        let at = start + tx + self.ports[pi].link().prop_delay;
        match self.shard.as_mut() {
            // The next hop lives in another shard: hand the packet off,
            // out of this replica's arena; the owner parks it in its own
            // and runs the same `schedule_arrival` when it ingests the
            // message, in time: `at` lies at least a lookahead past
            // `start`, which is no earlier than the window's start.
            Some(ctx) if ctx.map.arrive_owner[pi] != ctx.id => {
                let pkt = self.arena.take(slot);
                let dst = ctx.map.arrive_owner[pi] as usize;
                ctx.outbox[dst].push(XMsg { port: p, at, pkt });
            }
            _ => self.schedule_arrival(p, at, slot, idle),
        }
    }

    /// The one place an arrival meets the FEL: the packet in slot `pkt`
    /// finishes crossing port `p`'s link at `at`. Runs on the engine that
    /// owns the link's far end — the transmitting port's own in a serial
    /// run, the receiving shard's for a cross-shard handoff or a tail
    /// merge.
    ///
    /// The wire is FIFO: `at` clamps to the arrival at the back of
    /// `pipes[p]`, so a packet never arrives before one that entered the
    /// link earlier (that matters only after a rate change shrank the
    /// link's delay). An empty pipe's last arrival already happened, at or
    /// before now, so there is nothing to clamp to.
    ///
    /// The slot is linked at the back of `pipes[p]`. An empty pipe arms
    /// `p`'s `ARRIVAL` event when `arm` is set; successors chain when it
    /// pops. At most one is ever live and nothing else carries port `p`'s
    /// arrival key, so `(time, key)` alone places each arrival, and
    /// same-instant arrivals leave in the pipe's FIFO order.
    #[inline]
    pub(super) fn schedule_arrival(&mut self, p: PortId, at: SimTime, pkt: PacketSlot, arm: bool) {
        let pipe = &mut self.pipes[p as usize];
        let was_empty = pipe.is_empty();
        let at = self.arena.back_at(pipe).map_or(at, |back| at.max(back));
        self.arena.link_back(pipe, pkt, at);
        self.wire_pkts += 1;
        self.wire_pkts_peak = self.wire_pkts_peak.max(self.wire_pkts);
        if was_empty && arm {
            push_ev(&mut self.q, at, class::ARRIVAL, p);
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

    /// The head of `p`'s pipe arrives now. Depart first what `p` started
    /// before this instant — since `tx + prop > 0`, the packet that
    /// serialized behind this one is always among it on a link with a
    /// delay — then re-arm the chain for the next in-flight packet and
    /// hand this one to the arrival logic.
    ///
    /// On a zero-delay link the next packet starts at this arrival's own
    /// instant, at its departure rank after this one: a pipe that empties
    /// with a packet still queued arms its `ARRIVAL` where that packet
    /// will arrive ([`Net::arm_head`]). The packet joins the pipe at its
    /// departure, under the armed event, or here at the latest. So a link
    /// has one `ARRIVAL` armed exactly while its pipe or its queue holds a
    /// packet.
    pub(super) fn on_deliver(&mut self, p: PortId, now: SimTime) {
        self.advance(p, (now, self.cur_key));
        let pkt = self.pop_pipe(p, now);
        let pi = p as usize;
        if let Some(at) = self.arena.front_at(&self.pipes[pi]) {
            push_ev(&mut self.q, at, class::ARRIVAL, p);
        } else if self.head_start[pi] < SimTime::MAX {
            self.arm_head(p);
        }
        self.on_arrive(p, pkt, now);
    }

    /// The packet in slot `pkt` finished crossing port `p`'s link.
    pub(super) fn on_arrive(&mut self, p: PortId, pkt: PacketSlot, now: SimTime) {
        #[cfg(test)]
        if let Some(n) = &mut self.lose_arrival {
            *n -= 1;
            if *n == 0 {
                self.lose_arrival = None;
                self.arena.take(pkt);
                return;
            }
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
        self.advance_uplinks(sw as usize, (now, self.cur_key));
        let pkt = match pkt {
            Probe::Parked(slot) => self.arena.get(slot),
            Probe::Held(pkt) => pkt,
        };
        let uplinks = &self.ports[self.pmap.up_range(sw as usize)];
        let view = if !self.reach.is_empty() {
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
        let l = &mut self.lb_sws[sw as usize];
        l.up_due = l.up_due.min(self.head_start[p as usize]);
    }

    pub(super) fn on_lb_tick(&mut self, sw: u16, now: SimTime) {
        self.advance_uplinks(sw as usize, (now, self.cur_key));
        let uplinks = &self.ports[self.pmap.up_range(sw as usize)];
        let view = if !self.reach.is_empty() {
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
                push_ev(&mut self.q, next, class::LB_TICK, sw as u32);
                self.other_pending += 1;
            }
        }
    }

    /// Record leaf-0's uplink occupancy and re-arm the sampler.
    pub(super) fn on_queue_sample(&mut self, now: SimTime) {
        self.advance_uplinks(0, (now, self.cur_key));
        let uplinks = &self.ports[self.pmap.up_range(0)];
        (self.m.queue_lens).extend(uplinks.iter().map(|p| p.len_pkts() as u32));
        let next = now + self.cfg.series_bucket;
        if next <= self.cfg.horizon {
            push_ev(&mut self.q, next, class::QUEUE_SAMPLE, 0);
            self.other_pending += 1;
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
        let mut net = Net::build(&cfg, &flows, &[None], None);
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
