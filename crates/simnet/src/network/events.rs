//! The event vocabulary: an event *is* its ordering key, `(class rank <<
//! 27) | entity`, and nothing else. Both engines order same-timestamp
//! events by this key before per-queue FIFO; the class ranks below are
//! that order, named once. Three sources hold keys, and
//! [`super::Net::peek`] merges their heads: the FEL, the schedule
//! (`Net::sched` — every flow start, first ticks and samples, the admin
//! events) and, under hybrid fidelity, the seam's completion heap
//! (see [`super::hybrid`]). [`super::Net::step`] dispatches all of them
//! through one `match` on [`class_of`].
//!
//! Each `(class, entity)` pair is pushed by exactly one shard, so
//! same-`(time, key)` ties are always same-shard (ordered by that shard's
//! local FIFO `seq`, exactly the relative order a serial run assigns) and
//! cross-shard order is settled by `(time, key)` alone. That is what makes
//! the sharded engine's cross-shard merge reconstruct the serial schedule.
//! The one exception is the admin classes (`LINK_CHANGE`, `FAILURE`):
//! every shard schedules its own copy of each, and a copy touches only its
//! own replica, so the order among the same-`(time, key)` copies is
//! immaterial.

use tlb_engine::{EventQueue, SimTime};

/// Bits of an event-ordering key reserved for the entity index; the top
/// five bits hold the class rank.
pub(super) const KEY_ENTITY_BITS: u32 = 27;

/// Class ranks of the ordering key, in same-timestamp dispatch order, each
/// with the entity its key carries.
pub(super) mod class {
    /// A flow's start time arrived, on the flow. Every start comes from
    /// the schedule, never the FEL: chain heads' from build, a chained
    /// successor's pushed on its end when its predecessor completes.
    pub const FLOW_START: u32 = 0;
    /// A sender's retransmission timer fires, on its flow.
    pub const TIMER: u32 = 1;
    /// The head of a port's delivery pipe arrives now, on the transmitting
    /// port. The packet itself parks in the [`tlb_net::PacketArena`]; at
    /// most one is live per port, so the key alone places each link's
    /// next arrival.
    pub const ARRIVAL: u32 = 2;
    /// The packet in service on a port finished serializing, on the port.
    pub const TX_DONE: u32 = 3;
    /// An LB switch balancer's periodic tick, on the LB switch.
    pub const LB_TICK: u32 = 4;
    /// Sample leaf-0's uplink queues (Fig. 5 visualization); entity 0.
    pub const QUEUE_SAMPLE: u32 = 5;
    /// Apply the `i`-th configured [`crate::config::LinkEvent`].
    pub const LINK_CHANGE: u32 = 6;
    /// Apply the `i`-th configured [`crate::config::FailureEvent`].
    pub const FAILURE: u32 = 7;
    /// A fluid tail's completion, on its flow: the seam's heap, never the
    /// FEL, holds these. The highest class, so a completion runs after
    /// every other event of its instant.
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

/// The entity index of an ordering key.
#[inline]
pub(super) fn entity_of(key: u32) -> u32 {
    key & ((1 << KEY_ENTITY_BITS) - 1)
}

/// Push the event `(class, entity)` at `at` (every FEL insertion in this
/// module tree goes through here, so both engines realize the same
/// `(time, key, seq)` order). Flow starts never enter the FEL.
#[inline]
pub(super) fn push_ev(q: &mut EventQueue<()>, at: SimTime, class: u32, entity: u32) {
    debug_assert_ne!(class, class::FLOW_START, "a flow start in the FEL");
    q.push_keyed(at, key_of(class, entity), ());
}

#[cfg(test)]
mod tests {
    #[test]
    fn fel_node_stays_compact() {
        // What the calendar FEL keeps per waiting event: time, seq, key
        // and the list link — the key is the whole event. 32 bytes is two
        // nodes per cache line; a payload beside the key pads it to 40.
        let node = tlb_engine::fel::CalendarFel::<()>::NODE_BYTES;
        assert!(node <= 32, "FEL node grew to {node} bytes");
    }
}
