//! The event vocabulary and its ordering key. Both engines order
//! same-timestamp events by [`event_key`] before per-queue FIFO; the
//! class ranks below are that order, named once. One class has no
//! [`Event`]: a fluid tail's completion is an entry of the hybrid seam's
//! heap, which the run loop merges with the FEL head under the same key
//! (see [`super::hybrid`]), so no fluid event ever enters the FEL.

use super::portmap::PortId;
use tlb_engine::{EventQueue, SimTime};

#[derive(Debug)]
pub(super) enum Event {
    /// A flow's start time arrived.
    FlowStart(u32),
    /// The packet in service on `port` finished serializing.
    TxDone(PortId),
    /// The head of `port`'s delivery pipe arrives now. The packet itself
    /// parks in the [`tlb_net::PacketArena`]; at most one `Deliver` per
    /// port is live.
    Deliver(PortId),
    /// A sender's retransmission timer fires.
    Timer { flow: u32 },
    /// An LB switch balancer's periodic tick.
    LbTick { sw: u16 },
    /// Apply the `i`-th configured [`crate::config::LinkEvent`].
    LinkChange(u32),
    /// Apply the `i`-th configured [`crate::config::FailureEvent`].
    Failure(u32),
    /// Sample leaf-0's uplink queues (Fig. 5 visualization).
    QueueSample,
}

/// Bits of an event-ordering key reserved for the entity index; the top
/// five bits hold the class rank.
pub(super) const KEY_ENTITY_BITS: u32 = 27;

/// Class ranks of the ordering key, in same-timestamp dispatch order.
pub(super) mod class {
    pub const FLOW_START: u32 = 0;
    pub const TIMER: u32 = 1;
    /// `Deliver`, on the transmitting port. At most one is live per port,
    /// so the key alone places each link's next arrival.
    pub const ARRIVAL: u32 = 2;
    pub const TX_DONE: u32 = 3;
    pub const LB_TICK: u32 = 4;
    pub const QUEUE_SAMPLE: u32 = 5;
    pub const LINK_CHANGE: u32 = 6;
    pub const FAILURE: u32 = 7;
    /// A fluid tail's completion, on its flow: the seam's heap, never the
    /// FEL, holds these. The highest class, so a completion runs after
    /// every FEL event of its instant.
    pub const FLUID_DONE: u32 = 8;
}

#[inline]
pub(super) fn key_of(class: u32, entity: u32) -> u32 {
    debug_assert!(class < 32);
    debug_assert!(entity < (1 << KEY_ENTITY_BITS), "entity overflows its key");
    (class << KEY_ENTITY_BITS) | entity
}

/// The class rank of an ordering key.
#[inline]
pub(super) fn class_of(key: u32) -> u32 {
    key >> KEY_ENTITY_BITS
}

/// The FEL ordering key of an event: `(class rank << 27) | entity`. Both
/// engines order same-timestamp events by this key before falling back to
/// per-queue FIFO, which is what makes the sharded engine's cross-shard
/// merge reconstruct the serial schedule: each `(class, entity)` pair is
/// pushed by exactly one shard, so same-`(time, key)` ties are always
/// same-shard (ordered by that shard's local FIFO `seq`, exactly the
/// relative order a serial run assigns) and cross-shard order is settled
/// by `(time, key)` alone. The one exception is the admin classes
/// (`LinkChange`, `Failure`): every shard pushes its own copy of each, and
/// a copy touches only its own replica, so the order among the
/// same-`(time, key)` copies is immaterial.
#[inline]
pub(super) fn event_key(ev: &Event) -> u32 {
    match *ev {
        Event::FlowStart(f) => key_of(class::FLOW_START, f),
        Event::Timer { flow } => key_of(class::TIMER, flow),
        Event::Deliver(p) => key_of(class::ARRIVAL, p),
        Event::TxDone(p) => key_of(class::TX_DONE, p),
        Event::LbTick { sw } => key_of(class::LB_TICK, sw as u32),
        Event::QueueSample => key_of(class::QUEUE_SAMPLE, 0),
        Event::LinkChange(i) => key_of(class::LINK_CHANGE, i),
        Event::Failure(i) => key_of(class::FAILURE, i),
    }
}

/// Push `ev` with its ordering key (every FEL insertion in this module
/// tree goes through here, so both engines realize the same
/// `(time, key, seq)` order).
#[inline]
pub(super) fn push_ev(q: &mut EventQueue<Event>, at: SimTime, ev: Event) {
    let key = event_key(&ev);
    q.push_keyed(at, key, ev);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_payload_stays_compact() {
        // The hot enum is copied in and out of the FEL millions of times per
        // run; packets stay in the arena, not in the event. If a new variant
        // grows the enum past two words, that is a perf regression worth a
        // deliberate decision.
        assert!(
            std::mem::size_of::<Event>() <= 16,
            "Event grew to {} bytes",
            std::mem::size_of::<Event>()
        );
    }

    #[test]
    fn fel_node_stays_compact() {
        // What the calendar FEL keeps per waiting event: time, seq, key,
        // the list link and the payload. 40 bytes is one and a half nodes
        // per cache line; a layout that wraps the entry instead of
        // flattening it pads to 48.
        let node = tlb_engine::fel::CalendarFel::<Event>::NODE_BYTES;
        assert!(node <= 40, "FEL node grew to {node} bytes");
    }
}
