//! # tlb-transport — TCP NewReno and DCTCP endpoints
//!
//! The transport substrate the paper's evaluation runs on: NS2's DCTCP
//! agents, rebuilt as explicit state machines. Senders and receivers are
//! *pure*: they never touch the event queue directly. Instead every
//! entry point appends [`SenderOutput`]s (packets to transmit, timers to
//! arm) to a caller-provided buffer, which keeps the state machines
//! unit-testable without a simulator and allocation-free on the hot path.
//!
//! Modelled behaviour (see DESIGN.md §6 for the documented simplifications):
//!
//! * connection setup: SYN → SYN-ACK → data (one RTT, retransmitted on RTO);
//! * slow start with IW = 2 (the paper's Eq. 3 assumes 2, 4, 8, …);
//! * congestion avoidance, fast retransmit / NewReno fast recovery with
//!   partial-ACK retransmission, RTO with exponential backoff and Karn's
//!   rule for RTT sampling (RFC 6298 estimator);
//! * a 64 KB receive-window cap — the paper's `W_L` for long flows;
//! * DCTCP: per-packet ECN echo, `α` EWMA per window, one `α/2`-proportional
//!   window cut per marked window; with switch ECN marking off no window
//!   is marked, and the sender is plain NewReno;
//! * per-packet cumulative ACKs (no delayed ACKs) so duplicate-ACK counting
//!   matches the reordering analysis of Fig. 3(b)/Fig. 9(a).

pub mod config;
#[cfg(test)]
mod proptests;
pub mod receiver;
pub mod sender;

pub use config::TcpConfig;
pub use receiver::{ReceiverStats, TcpReceiver};
pub use sender::{SenderOutput, SenderStats, TcpSender};
