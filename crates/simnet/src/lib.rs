//! # tlb-simnet — the packet-level data-center network simulator
//!
//! This crate wires everything together into the NS2-equivalent substrate
//! the paper evaluates on: a Clos fabric ([`tlb_net::Fabric`], leaf-spine
//! or fat tree) of output-queued switches ([`tlb_switch`]), DCTCP endpoints
//! ([`tlb_transport`]), a pluggable load balancer ([`tlb_switch::LoadBalancer`] — TLB from [`tlb_core`],
//! baselines from [`tlb_lb`]), traffic from [`tlb_workload`], and
//! measurement from [`tlb_metrics`].
//!
//! ## Quick start
//!
//! ```
//! use tlb_simnet::{Scheme, SimConfig, Simulation};
//! use tlb_workload::{basic_mix, BasicMixConfig};
//! use tlb_engine::SimRng;
//!
//! let cfg = SimConfig::basic_paper(Scheme::Tlb(tlb_core::TlbConfig::paper_default()));
//! let mut rng = SimRng::new(1);
//! let mut mix = BasicMixConfig::paper_default();
//! mix.n_short = 20; // keep the doctest fast
//! mix.n_long = 1;
//! let flows = basic_mix(&cfg.topo, &mix, &mut rng);
//! let report = Simulation::new(cfg, flows).run();
//! assert!(report.completed > 0);
//! ```

pub mod audit;
pub mod config;
pub mod dispatch;
pub mod network;
pub mod report;
pub mod runner;
pub mod scheme;

pub use audit::{AuditReport, KindCounts};
pub use config::{
    ConfigError, DeliveryKind, FailureAction, FailureEvent, FailureTarget, FidelityKind, LinkEvent,
    SimConfig,
};
pub use dispatch::{AnyLb, LbDispatch};
pub use network::Simulation;
pub use report::{FallbackReason, Hop, RunReport, Summary, TraceEvent};
pub use runner::{run_all, run_all_ref, run_one, run_one_ref};
pub use scheme::Scheme;
