//! The endpoints: flow start, retransmission timers, sender outputs onto
//! the host NIC, receiver-side delivery, and flow completion.

use super::events::{push_ev, Event};
use super::Net;
use crate::report::Hop;
use tlb_engine::SimTime;
use tlb_net::{Packet, PktKind};
use tlb_transport::{SenderOutput, TcpReceiver, TcpSender};

impl Net<'_> {
    pub(super) fn on_flow_start(&mut self, i: u32, now: SimTime) {
        let spec = self.flows[i as usize];
        self.m
            .fct
            .flow_started(spec.id, spec.size_bytes, now, spec.deadline);
        let mut sender = TcpSender::new(self.cfg.tcp, spec.id, spec.src, spec.dst, spec.size_bytes);
        let mut out = std::mem::take(&mut self.out_buf);
        sender.start(now, &mut out);
        self.senders[i as usize] = Some(sender);
        self.process_outputs(i, &mut out, now);
        self.out_buf = out;
    }

    pub(super) fn on_timer(&mut self, flow: u32, now: SimTime) {
        let mut out = std::mem::take(&mut self.out_buf);
        if let Some(sender) = self.senders[flow as usize].as_mut() {
            sender.on_timer(now, &mut out);
        }
        self.process_outputs(flow, &mut out, now);
        self.out_buf = out;
    }

    /// Apply a sender's outputs: transmit packets from its host NIC, arm
    /// timers.
    pub(super) fn process_outputs(&mut self, flow: u32, out: &mut Vec<SenderOutput>, now: SimTime) {
        let src = self.flows[flow as usize].src;
        for o in out.drain(..) {
            match o {
                SenderOutput::Send(pkt) => {
                    self.audit.emitted(&pkt);
                    self.enqueue(self.pmap.host_nic(src.0), pkt, now);
                }
                SenderOutput::ArmTimer { deadline } => {
                    push_ev(&mut self.q, deadline.max(now), Event::Timer { flow });
                    self.timers_live += 1;
                }
                SenderOutput::Finished => {
                    // Sender-side completion; FCT is recorded at the
                    // receiver when the last byte arrives.
                }
            }
        }
    }

    pub(super) fn deliver_to_host(&mut self, h: u32, pkt: Packet, now: SimTime) {
        debug_assert_eq!(pkt.dst.0, h, "packet delivered to the wrong host");
        self.audit.delivered(&pkt);
        if self.m.traced[pkt.flow.index()] {
            self.trace(Hop::Delivered { host: h }, &pkt, now);
        }
        let fi = pkt.flow.index();
        match pkt.kind {
            PktKind::Syn => {
                if self.receivers[fi].is_none() {
                    // New connection: draw the out-of-order buffer from the
                    // pool (recycled from a torn-down flow in steady state).
                    let buf = self.ooo_pool.get(self.cfg.tcp.rwnd_segs() as usize);
                    self.receivers[fi] =
                        Some(TcpReceiver::with_ooo_buf(pkt.flow, pkt.dst, pkt.src, buf));
                }
                let receiver = self.receivers[fi].as_mut().expect("just inserted");
                let synack = receiver.on_syn(now);
                self.audit.emitted(&synack);
                self.enqueue(self.pmap.host_nic(h), synack, now);
            }
            PktKind::Data => {
                let is_short = self.is_short[fi];
                let Some(receiver) = self.receivers[fi].as_mut() else {
                    // Data before SYN can't happen; drop defensively.
                    debug_assert!(false, "data for unknown receiver");
                    return;
                };
                let before = receiver.delivered_segs();
                let ooo_before = receiver.stats().out_of_order;
                let ack = receiver.on_data(&pkt, now);
                let after = receiver.delivered_segs();
                let was_ooo = receiver.stats().out_of_order > ooo_before;

                // Short flows: the reorder-ratio series of Fig. 8(a). Long
                // flows: the goodput series of Fig. 9(b), one bucket add
                // per in-order advance — their reorder *ratio* comes from
                // the receivers' own counters at report time.
                if is_short {
                    self.m
                        .short_reorder
                        .add(now, if was_ooo { 1.0 } else { 0.0 });
                } else if after > before {
                    let bytes = (after - before) as f64 * self.cfg.tcp.mss as f64;
                    self.m.long_goodput.add(now, bytes);
                }

                // Completion: every packet-path segment delivered in
                // order and — under hybrid fidelity — no fluid tail still
                // in flight.
                if after >= self.total_segs[fi]
                    && !self.completed[fi]
                    && !self.hybrid.as_ref().is_some_and(|h| h.pend[fi])
                {
                    self.complete(fi, now);
                }
                self.audit.emitted(&ack);
                self.enqueue(self.pmap.host_nic(h), ack, now);
            }
            PktKind::SynAck | PktKind::Ack => {
                let mut out = std::mem::take(&mut self.out_buf);
                if let Some(sender) = self.senders[fi].as_mut() {
                    sender.on_packet(&pkt, now, &mut out);
                }
                self.process_outputs(pkt.flow.0, &mut out, now);
                self.out_buf = out;
                if self.hybrid.is_some() {
                    self.maybe_migrate(fi, now);
                }
            }
            PktKind::Fin => {
                // Connection teardown carries no data; flow counting
                // happened at the leaf switch. Recycle the receiver's
                // out-of-order buffer: the sender only emits a FIN once
                // every data segment was cumulatively ACKed, so the buffer
                // is empty here. Idempotent on retransmitted/duplicate FINs
                // (a reclaimed receiver hands back a capacity-0 Vec, which
                // the pool ignores).
                if let Some(r) = self.receivers[fi].as_mut() {
                    self.ooo_pool.put(r.take_ooo_buf());
                }
            }
        }
    }

    /// A flow delivered its last byte — the packet-path prefix at the
    /// receiver and, under hybrid fidelity, the fluid tail: record the
    /// FCT and launch any chained successor.
    pub(super) fn complete(&mut self, fi: usize, now: SimTime) {
        debug_assert!(!self.completed[fi]);
        if self.cfg.audit {
            if let Some(hy) = self.hybrid.as_ref().filter(|h| h.migrated[fi]) {
                // Byte conservation across the migration seam: the packet
                // path's segment plan (shrunk at migration, possibly regrown
                // at demotion) plus what the fluid tier delivered must
                // reconstruct the flow exactly.
                let sender_bytes = self.senders[fi]
                    .as_ref()
                    .map_or(0, |s| s.payload_bytes_total());
                assert_eq!(
                    sender_bytes + hy.credit[fi],
                    self.flows[fi].size_bytes,
                    "flow {fi}: packet-path bytes + fluid credit disagree with the flow size"
                );
            }
        }
        self.completed[fi] = true;
        self.n_completed += 1;
        self.m.fct.flow_completed(self.flows[fi].id, now);
        // Closed-loop chain: launch the successor back-to-back.
        if let Some(nf) = self.next_flow[fi] {
            push_ev(&mut self.q, now, Event::FlowStart(nf));
            self.starts_pending += 1;
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
    fn ooo_buffers_return_to_the_pool() {
        // Every receiver's out-of-order buffer must come back to the pool at
        // FIN delivery, and a later generation of flows must be served
        // entirely from recycled buffers: misses only for the first
        // generation. (The final generation's FINs are still in flight when
        // the run loop exits on all-complete, so its buffers are legitimately
        // parked in live receivers, not the pool.)
        let cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
        let mk = |id: u32, start_us: u64| FlowSpec {
            id: FlowId(id),
            src: HostId(id % 8),
            dst: HostId(16 + id % 8),
            size_bytes: 29_200,
            start: SimTime::from_micros(start_us),
            deadline: None,
        };
        // Two non-overlapping generations of 4 flows each.
        let flows: Vec<FlowSpec> = (0..4)
            .map(|i| mk(i, 0))
            .chain((4..8).map(|i| mk(i, 20_000)))
            .collect();
        let mut net = Net::build(&cfg, &flows, vec![None; flows.len()], None);
        net.run_loop();
        assert_eq!(net.n_completed, flows.len());
        let (hits, misses) = net.ooo_pool.stats();
        assert_eq!(misses, 4, "only the first generation allocates");
        assert_eq!(hits, 4, "the second generation reuses the parked buffers");
    }
}
