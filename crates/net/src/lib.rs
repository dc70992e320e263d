//! # tlb-net — network primitives for the TLB simulator
//!
//! Identifiers, packet representation, link properties and the Clos
//! fabrics — the leaf-spine the paper evaluates on (§2.2, §4.2, §6.2, §7)
//! and the k-ary fat tree — including the asymmetric variants of Fig. 16/17
//! built by degrading individual uplinks.

pub mod arena;
pub mod fabric;
pub mod fluid;
pub mod ids;
pub mod packet;
pub mod topology;

pub use arena::{PacketArena, PacketFifo, PacketSlot};
pub use fabric::{Fabric, FabricBuilder, FatTreeBuilder, LeafSpineBuilder};
pub use fluid::{FluidNet, RateChange, MAX_FLUID_PATH};
pub use ids::{FlowId, HostId, LeafId, SpineId};
pub use packet::{Packet, PktKind, MSS_BYTES, RWND_BYTES};
pub use topology::{LinkProps, Route, Shape, Tier};
