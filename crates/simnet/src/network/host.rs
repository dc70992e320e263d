//! The endpoints: flow start, retransmission timers, sender outputs onto
//! the host NIC, receiver-side delivery, flow completion, and the closing
//! of each endpoint — where its counters leave the connection slabs.

use super::events::{class, key_of, push_ev};
use super::portmap::PortId;
use super::Net;
use crate::report::Hop;
use tlb_engine::SimTime;
use tlb_net::{Packet, PktKind};
use tlb_transport::{SenderOutput, TcpReceiver, TcpSender};

impl Net<'_> {
    pub(super) fn on_flow_start(&mut self, i: u32, now: SimTime) {
        let spec = self.flows[i as usize];
        let sender = TcpSender::new(self.cfg.tcp, spec.id, spec.src, spec.dst, spec.size_bytes);
        let row = &mut self.rows[i as usize];
        row.started = true;
        row.sender = Some(self.senders.insert_with(|_| sender));
        self.drive_sender(i as usize, now, |s, out| s.start(now, out));
    }

    pub(super) fn on_timer(&mut self, flow: u32, now: SimTime) {
        self.drive_sender(flow as usize, now, |s, out| s.on_timer(now, out));
    }

    /// Call `f` on flow `fi`'s sender, if it is open, and apply what it
    /// emits: transmit packets from its host NIC, arm timers, close it once
    /// it has finished.
    pub(super) fn drive_sender(
        &mut self,
        fi: usize,
        now: SimTime,
        f: impl FnOnce(&mut TcpSender, &mut Vec<SenderOutput>),
    ) {
        let mut out = std::mem::take(&mut self.out_buf);
        if let Some(slot) = self.rows[fi].sender {
            f(&mut self.senders[slot], &mut out);
        }
        let (flow, nic) = (fi as u32, self.pmap.host_nic(self.flows[fi].src.0));
        for o in out.drain(..) {
            match o {
                SenderOutput::Send(pkt) => self.emit(nic, pkt, now),
                SenderOutput::ArmTimer { deadline } => {
                    push_ev(&mut self.q, deadline.max(now), class::TIMER, flow);
                    self.other_pending += 1;
                }
                // The FIN is out. A closed sender ignores every later ACK
                // and timer, so dropping it changes nothing; the FCT is
                // recorded at the receiver when the last byte arrives.
                SenderOutput::Finished => self.close_sender(fi),
            }
        }
        self.out_buf = out;
    }

    /// A host hands `pkt` to the fabric through its NIC port `nic`: the
    /// packet takes the arena slot it keeps until it is delivered or
    /// dropped.
    fn emit(&mut self, nic: PortId, pkt: Packet, now: SimTime) {
        self.audit.emitted(&pkt);
        let slot = self.arena.insert(pkt);
        self.enqueue(nic, slot, now);
    }

    /// `pkt` reached host `h`, out of the arena: its slot was freed on
    /// arrival.
    pub(super) fn deliver_to_host(&mut self, h: u32, pkt: Packet, now: SimTime) {
        debug_assert_eq!(pkt.dst.0, h, "packet delivered to the wrong host");
        self.audit.delivered(&pkt);
        let fi = pkt.flow.index();
        let row = self.rows[fi];
        if row.traced {
            self.trace(Hop::Delivered { host: h }, &pkt, now);
        }
        match pkt.kind {
            PktKind::Syn => {
                let synack = if row.completed {
                    // A SYN the whole flow outran: answer it as the closed
                    // receiver would, without reopening it.
                    TcpReceiver::closed_reply(&pkt, row.total_segs, now).expect("SYN")
                } else {
                    let slot = row.receiver.unwrap_or_else(|| self.open_receiver(fi, &pkt));
                    self.receivers[slot].on_syn(now)
                };
                self.emit(self.pmap.host_nic(h), synack, now);
            }
            PktKind::Data => {
                let (ack, was_ooo, before, after) = if let Some(slot) = row.receiver {
                    let receiver = &mut self.receivers[slot];
                    let before = receiver.delivered_segs();
                    let ooo_before = receiver.stats().out_of_order;
                    let ack = receiver.on_data(&pkt, now);
                    let was_ooo = receiver.stats().out_of_order > ooo_before;
                    (ack, was_ooo, before, receiver.delivered_segs())
                } else {
                    // The SYN opened the receiver before the sender could
                    // send, so the flow completed and its receiver closed;
                    // only a duplicate reaches it. Count it in the class as
                    // the receiver's own `total_data` would have.
                    debug_assert!(row.completed, "data for flow {fi} before its SYN");
                    self.m.classes[usize::from(row.short)].data_received += 1;
                    let ack = TcpReceiver::closed_reply(&pkt, row.total_segs, now).expect("data");
                    (ack, false, row.total_segs, row.total_segs)
                };

                // Short flows: the reorder-ratio series of Fig. 8(a). Long
                // flows: the goodput series of Fig. 9(b), one bucket add
                // per in-order advance — their reorder *ratio* comes from
                // the receivers' own counters.
                if row.short {
                    self.m
                        .short_reorder
                        .add(now, if was_ooo { 1.0 } else { 0.0 });
                } else if after > before {
                    let bytes = (after - before) as f64 * self.cfg.tcp.mss as f64;
                    self.m.long_goodput.add(now, bytes);
                }

                // Completion: every packet-path segment delivered in
                // order and — under hybrid fidelity — no fluid tail still
                // in flight. A fluid tail defers its sender's FIN, so the
                // sender is open for the whole residency.
                let in_fluid = || row.sender.is_some_and(|s| self.senders[s].in_fluid());
                if after >= row.total_segs && !row.completed && !in_fluid() {
                    self.complete(fi, now);
                }
                self.emit(self.pmap.host_nic(h), ack, now);
            }
            PktKind::SynAck | PktKind::Ack => {
                self.drive_sender(fi, now, |s, out| s.on_packet(&pkt, now, out));
                if self.hybrid.is_some() {
                    self.maybe_migrate(fi, now);
                }
            }
            // Connection teardown carries no data; flow counting happened
            // at the leaf switch, and the receiver closed at completion.
            PktKind::Fin => {}
        }
    }

    /// Open a receiver for flow `fi`'s connection, in the most recently
    /// released receiver slot when there is one: that receiver's flow
    /// completed, so its out-of-order buffer is empty and the new one
    /// adopts it — once the slab has reached peak concurrency, opening a
    /// connection allocates nothing.
    fn open_receiver(&mut self, fi: usize, syn: &Packet) -> super::SlabSlot {
        let rwnd = self.cfg.tcp.rwnd_segs() as usize;
        let slot = self.receivers.insert_with(|closed| {
            let buf = closed.map_or_else(|| Vec::with_capacity(rwnd), TcpReceiver::take_ooo_buf);
            TcpReceiver::with_ooo_buf(syn.flow, syn.dst, syn.src, buf)
        });
        self.rows[fi].receiver = Some(slot);
        slot
    }

    /// A flow delivered its last byte — the packet-path prefix at the
    /// receiver and, under hybrid fidelity, the fluid tail: note when in
    /// its row, close the receiver and launch any chained successor.
    ///
    /// The successor's start goes on the end of [`Net::sched`], not into
    /// the FEL: it is the run's next event. A completion dispatches under a
    /// class above `FLOW_START`, so every start at `now` has already run,
    /// and every event still pending at `now` has a larger key.
    pub(super) fn complete(&mut self, fi: usize, now: SimTime) {
        let row = &mut self.rows[fi];
        debug_assert!(!row.completed);
        row.completed = true;
        row.end = now;
        self.n_completed += 1;
        self.close_receiver(fi);
        // Closed-loop chain: launch the successor back-to-back.
        if let Some(nf) = self.next_flow[fi] {
            let start = (now, key_of(class::FLOW_START, nf));
            debug_assert!(self.peek().is_none_or(|next| start < next));
            self.sched.push(start);
        }
    }

    /// Close flow `fi`'s sender, if it is open: release its slot, fold its
    /// counters into the flow's class (integer sums, so the order senders
    /// close in is immaterial) and, with the audit on, check its
    /// invariants — and, once its byte counts are final, hybrid byte
    /// conservation across the migration seam: the packet path's segment
    /// plan (shrunk at migration, possibly regrown at demotion) plus what
    /// the fluid tier delivered must reconstruct the flow exactly.
    pub(super) fn close_sender(&mut self, fi: usize) {
        let Some(slot) = self.rows[fi].sender.take() else {
            return;
        };
        let sender = self.senders.release(slot);
        let st = sender.stats();
        let c = &mut self.m.classes[usize::from(self.rows[fi].short)];
        c.data_sent += st.data_sent;
        c.retransmits += st.retransmits;
        c.timeouts += st.timeouts;
        c.fast_retransmits += st.fast_retransmits;
        c.dup_acks += st.dup_acks;
        self.audit.sender_closed(fi, sender.invariant_violation());
        // Both counts are final once the FIN is out or the flow completed:
        // neither a migration nor a demotion can follow. A flow that never
        // migrated checks with a credit of 0.
        let settled = sender.is_finished() || self.rows[fi].completed;
        if let Some(hy) = self.hybrid.as_ref().filter(|_| self.cfg.audit && settled) {
            assert_eq!(
                sender.payload_bytes_total() + hy.credit[fi],
                self.flows[fi].size_bytes,
                "flow {fi}: packet-path bytes + fluid credit disagree with the flow size"
            );
        }
    }

    /// Close flow `fi`'s receiver, if it is open: release its slot, fold
    /// its counters into the flow's class and, with the audit on, check its
    /// invariants.
    pub(super) fn close_receiver(&mut self, fi: usize) {
        let Some(slot) = self.rows[fi].receiver.take() else {
            return;
        };
        let r = self.receivers.release(slot);
        let st = r.stats();
        let c = &mut self.m.classes[usize::from(self.rows[fi].short)];
        c.data_received += st.total_data;
        c.out_of_order += st.out_of_order;
        self.audit.receiver_closed(fi, r.invariant_violation());
    }

    /// Close every endpoint still open when the run stops, as if its flow
    /// had ended there.
    pub(super) fn close_open_endpoints(&mut self) {
        for fi in 0..self.rows.len() {
            self.close_sender(fi);
            self.close_receiver(fi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use tlb_net::{FlowId, HostId};
    use tlb_workload::FlowSpec;

    #[test]
    fn connections_reuse_the_slots_of_closed_ones() {
        // Two non-overlapping generations of 4 flows: the slabs never hold
        // more than one generation, and the second one's receivers adopt
        // the first one's out-of-order buffers, slot by slot — opening them
        // allocates nothing.
        let cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
        let mk = |id: u32, start_us: u64| FlowSpec {
            id: FlowId(id),
            src: HostId(id % 8),
            dst: HostId(16 + id % 8),
            size_bytes: 29_200,
            start: SimTime::from_micros(start_us),
            deadline: None,
        };
        let flows: Vec<FlowSpec> = (0..4)
            .map(|i| mk(i, 0))
            .chain((4..8).map(|i| mk(i, 20_000)))
            .collect();
        let next = vec![None; flows.len()];
        let mut net = Net::build(&cfg, &flows, &next, None);
        // The out-of-order buffers' addresses in receiver slots 1 to 4 — a
        // slot handle is its index plus one. Reading one takes it out of its
        // closed receiver, so put it back the same way.
        let buffers = |net: &mut Net| -> Vec<*const u32> {
            (1..=4)
                .map(|i| {
                    let r = &mut net.receivers[super::super::SlabSlot::new(i).unwrap()];
                    let buf = r.take_ooo_buf();
                    let at = buf.as_ptr();
                    *r = TcpReceiver::with_ooo_buf(FlowId(0), HostId(0), HostId(0), buf);
                    at
                })
                .collect()
        };
        while net.n_completed < 4 {
            net.step(net.peek().expect("an event pending"));
        }
        assert_eq!((net.senders.peak(), net.receivers.peak()), (4, 4));
        let first = buffers(&mut net);
        net.run_loop();
        assert_eq!(net.n_completed, flows.len());
        assert_eq!((net.senders.peak(), net.receivers.peak()), (4, 4));
        assert!(net.rows.iter().all(|r| r.completed && r.receiver.is_none()));
        assert_eq!(
            buffers(&mut net),
            first,
            "the second generation adopts the first's buffers"
        );
    }
}
