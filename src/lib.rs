//! # tlb — Traffic-aware Load Balancing with Adaptive Granularity
//!
//! A from-scratch Rust reproduction of *"TLB: Traffic-aware Load Balancing
//! with Adaptive Granularity in Data Center Networks"* (ICPP 2019): the TLB
//! scheme itself, the ECMP/RPS/Presto/LetFlow/DRILL baselines, and the
//! packet-level Clos-fabric network simulator (leaf-spine or fat tree, DCTCP
//! transport, output-queued ECN-marking switches) the evaluation runs on.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`engine`] | `tlb-engine` | discrete-event core: [`engine::SimTime`], event queue, RNG |
//! | [`net`] | `tlb-net` | packets, ids, the Clos fabric (leaf-spine / fat tree), asymmetry |
//! | [`switch`] | `tlb-switch` | output-queued ports, ECN, `LoadBalancer` trait |
//! | [`lb`] | `tlb-lb` | ECMP, RPS, Presto, LetFlow, DRILL, CONGA-lite |
//! | [`core`] | `tlb-core` | **the paper's contribution**: the TLB balancer |
//! | [`model`] | `tlb-model` | Eq. 1–9 queueing analysis of `q_th` |
//! | [`transport`] | `tlb-transport` | TCP NewReno + DCTCP endpoints |
//! | [`workload`] | `tlb-workload` | web-search/data-mining traffic, Poisson arrivals |
//! | [`metrics`] | `tlb-metrics` | FCT/percentile/CDF/time-series collectors |
//! | [`simnet`] | `tlb-simnet` | the simulator: `SimConfig` → `Simulation` → `RunReport` |
//!
//! ## Quickstart
//!
//! ```
//! use tlb::prelude::*;
//!
//! // The paper's basic setup: 15 equal-cost paths, DCTCP, 1 Gbit/s.
//! let cfg = SimConfig::basic_paper(Scheme::tlb_default());
//! let mut mix = BasicMixConfig::paper_default();
//! mix.n_short = 20; // trimmed for the doctest
//! mix.n_long = 1;
//! let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(7));
//! let report = Simulation::new(cfg, flows).run();
//! println!("{}", report.one_line());
//! assert_eq!(report.completed, report.total_flows);
//! ```

pub use tlb_core as core;
pub use tlb_engine as engine;
pub use tlb_lb as lb;
pub use tlb_metrics as metrics;
pub use tlb_model as model;
pub use tlb_net as net;
pub use tlb_simnet as simnet;
pub use tlb_switch as switch;
pub use tlb_transport as transport;
pub use tlb_workload as workload;

/// The names most programs need, in one import.
pub mod prelude {
    pub use tlb_core::{ThresholdMode, Tlb, TlbConfig};
    pub use tlb_engine::{SimRng, SimTime};
    pub use tlb_metrics::{FlowClass, SampleSet};
    pub use tlb_model::{q_th_min, ModelParams, QTh};
    pub use tlb_net::{Fabric, FatTreeBuilder, FlowId, HostId, LeafId, LeafSpineBuilder, SpineId};
    pub use tlb_simnet::{
        run_all, run_all_ref, run_one, run_one_ref, AuditReport, DeliveryKind, FailureAction,
        FailureEvent, FailureTarget, FidelityKind, LbDispatch, LinkEvent, RunReport, Scheme,
        SimConfig, Simulation,
    };
    pub use tlb_switch::{LoadBalancer, PortView, QueueCfg};
    pub use tlb_transport::TcpConfig;
    pub use tlb_workload::{
        basic_mix, data_mining, sustained_mix, web_search, BasicMixConfig, FlowSpec,
        PoissonWorkload,
    };
}
