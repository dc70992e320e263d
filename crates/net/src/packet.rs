//! The unit of simulation: one packet on the wire.

use crate::ids::{FlowId, HostId};
use tlb_engine::SimTime;

/// TCP segment/control type carried by a [`Packet`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PktKind {
    /// Connection-open request (sender -> receiver). The leaf switch counts
    /// +1 active flow when it sees a SYN from a local host (paper §5).
    Syn,
    /// Connection-open reply (receiver -> sender).
    SynAck,
    /// A data segment; `seq` is the segment index (0-based, MSS units).
    Data,
    /// A cumulative acknowledgment; `seq` is the next expected segment.
    Ack,
    /// Connection close (sender -> receiver), emitted once all data is
    /// acknowledged. The leaf switch counts -1 active flow (paper §5).
    Fin,
}

impl PktKind {
    /// True for the control packets that carry no payload.
    #[inline]
    pub fn is_control(self) -> bool {
        !matches!(self, PktKind::Data)
    }
}

/// A tiny local `bitflags` substitute (avoids an extra dependency for five
/// flags). Generates a transparent wrapper with set/get/toggle helpers.
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident : $ty:ty {
            $($(#[$fmeta:meta])* const $flag:ident = $val:expr;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
        pub struct $name(pub $ty);

        impl $name {
            $($(#[$fmeta])* pub const $flag: $name = $name($val);)*

            /// No flags set.
            #[inline]
            pub const fn empty() -> Self {
                $name(0)
            }

            /// True if every flag in `other` is set in `self`.
            #[inline]
            pub const fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }

            /// Set or clear the flags in `other`.
            #[inline]
            pub fn set(&mut self, other: $name, on: bool) {
                if on {
                    self.0 |= other.0;
                } else {
                    self.0 &= !other.0;
                }
            }

            /// Union of two flag sets.
            #[inline]
            pub const fn union(self, other: $name) -> $name {
                $name(self.0 | other.0)
            }
        }
    };
}

bitflags_lite! {
    /// Per-packet flags, packed into one byte to keep [`Packet`] small.
    pub struct PktFlags: u8 {
        /// Sender negotiated ECN; switches may mark instead of relying on loss.
        const ECN_CAPABLE = 1 << 0;
        /// Congestion Experienced: set by a switch when the queue exceeded
        /// the marking threshold at enqueue time (DCTCP-style instantaneous
        /// marking).
        const CE = 1 << 1;
        /// ECN Echo on an ACK: the receiver saw CE on the data packet this
        /// ACK acknowledges (per-packet echo; see DESIGN.md §6).
        const ECE = 1 << 2;
        /// This data segment is the last one of the flow.
        const LAST_SEG = 1 << 3;
        /// This data segment is a retransmission.
        const RETX = 1 << 4;
    }
}

/// One packet in flight. `Copy` and small (fits in a cache line) because the
/// simulator parks millions of these, one [`crate::PacketArena`] slot each.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Flow this packet belongs to (same id for both directions).
    pub flow: FlowId,
    /// Originating host.
    pub src: HostId,
    /// Destination host — forwarding looks only at this.
    pub dst: HostId,
    /// Segment/control type.
    pub kind: PktKind,
    /// Data: segment index. Ack: next expected segment (cumulative).
    pub seq: u32,
    /// Bytes occupied on the wire (payload + headers); drives serialization
    /// time and byte-based queue accounting.
    pub wire_bytes: u32,
    /// Payload bytes (0 for control packets).
    pub payload_bytes: u32,
    /// Flag bits (ECN state, retransmission, last segment).
    pub flags: PktFlags,
    /// When the packet left its source host (for end-to-end delay metrics).
    pub sent_at: SimTime,
    /// When the packet entered its current queue (set by the switch; used for
    /// per-hop queueing-delay metrics).
    pub enqueued_at: SimTime,
}

/// The receive window in bytes: the 64 KB Linux default, which caps every
/// sender's window and is TLB's long-flow window `W_L` (§4.1).
pub const RWND_BYTES: u32 = 65_535;

/// The TCP segment payload in bytes (the paper's NS2 MSS), which every
/// transport preset sends and TLB's model (§4) reads as `MSS`.
pub const MSS_BYTES: u32 = 1460;

impl Packet {
    /// Wire size of a control packet (SYN/ACK/FIN): TCP/IP headers only.
    pub const CTRL_WIRE_BYTES: u32 = 64;

    /// Build a control packet (no payload).
    pub fn control(
        flow: FlowId,
        src: HostId,
        dst: HostId,
        kind: PktKind,
        seq: u32,
        now: SimTime,
    ) -> Packet {
        debug_assert!(kind.is_control());
        Packet {
            flow,
            src,
            dst,
            kind,
            seq,
            wire_bytes: Self::CTRL_WIRE_BYTES,
            payload_bytes: 0,
            flags: PktFlags::empty(),
            sent_at: now,
            enqueued_at: now,
        }
    }

    /// Build a data segment carrying `payload` bytes plus `header` overhead.
    pub fn data(
        flow: FlowId,
        src: HostId,
        dst: HostId,
        seq: u32,
        payload: u32,
        header: u32,
        now: SimTime,
    ) -> Packet {
        Packet {
            flow,
            src,
            dst,
            kind: PktKind::Data,
            seq,
            wire_bytes: payload + header,
            payload_bytes: payload,
            flags: PktFlags::ECN_CAPABLE,
            sent_at: now,
            enqueued_at: now,
        }
    }

    /// Whether the CE (congestion experienced) bit is set.
    #[inline]
    pub fn ce(&self) -> bool {
        self.flags.contains(PktFlags::CE)
    }

    /// Whether the ACK carries an ECN echo.
    #[inline]
    pub fn ece(&self) -> bool {
        self.flags.contains(PktFlags::ECE)
    }

    /// Whether this switch may ECN-mark the packet.
    #[inline]
    pub fn ecn_capable(&self) -> bool {
        self.flags.contains(PktFlags::ECN_CAPABLE)
    }

    /// Mark CE (called by a congested switch queue).
    #[inline]
    pub fn mark_ce(&mut self) {
        self.flags.set(PktFlags::CE, true);
    }

    /// Whether this is the final data segment of its flow.
    #[inline]
    pub fn is_last_seg(&self) -> bool {
        self.flags.contains(PktFlags::LAST_SEG)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Packet {
        Packet::data(FlowId(1), HostId(0), HostId(5), 3, 1460, 40, SimTime::ZERO)
    }

    #[test]
    fn data_packet_sizes() {
        let pkt = p();
        assert_eq!(pkt.wire_bytes, 1500);
        assert_eq!(pkt.payload_bytes, 1460);
        assert!(pkt.ecn_capable());
        assert!(!pkt.ce());
    }

    #[test]
    fn control_packet_has_no_payload() {
        let pkt = Packet::control(
            FlowId(2),
            HostId(1),
            HostId(2),
            PktKind::Ack,
            10,
            SimTime::from_nanos(5),
        );
        assert_eq!(pkt.payload_bytes, 0);
        assert_eq!(pkt.wire_bytes, Packet::CTRL_WIRE_BYTES);
        assert_eq!(pkt.seq, 10);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn control_rejects_data_kind() {
        let _ = Packet::control(
            FlowId(0),
            HostId(0),
            HostId(1),
            PktKind::Data,
            0,
            SimTime::ZERO,
        );
    }

    #[test]
    fn ce_marking() {
        let mut pkt = p();
        assert!(!pkt.ce());
        pkt.mark_ce();
        assert!(pkt.ce());
        // Marking must not disturb other flags.
        assert!(pkt.ecn_capable());
    }

    #[test]
    fn flag_set_and_clear() {
        let mut f = PktFlags::empty();
        f.set(PktFlags::LAST_SEG, true);
        assert!(f.contains(PktFlags::LAST_SEG));
        f.set(PktFlags::LAST_SEG, false);
        assert!(!f.contains(PktFlags::LAST_SEG));
    }

    #[test]
    fn flags_union() {
        let f = PktFlags::CE.union(PktFlags::ECE);
        assert!(f.contains(PktFlags::CE));
        assert!(f.contains(PktFlags::ECE));
        assert!(!f.contains(PktFlags::LAST_SEG));
    }

    #[test]
    fn kind_control_classification() {
        assert!(PktKind::Syn.is_control());
        assert!(PktKind::SynAck.is_control());
        assert!(PktKind::Ack.is_control());
        assert!(PktKind::Fin.is_control());
        assert!(!PktKind::Data.is_control());
    }

    #[test]
    fn packet_is_small() {
        // Keep the hot-path type compact: a packet should stay within one
        // cache line (64 bytes).
        assert!(std::mem::size_of::<Packet>() <= 64);
    }
}
