//! The six named workloads.
//!
//! Each workload is a fabric, a flow generator and an explicit setting of
//! every `SimConfig` mode field: the presets read `TLB_*` environment
//! variables, so a job that relied on them could measure a different
//! program from one shell to the next. The seed reaches the simulator
//! only through the generated flows and `cfg.seed`.

use tlb_engine::{EngineKind, FelKind, SimRng, SimTime};
use tlb_net::{FatTreeBuilder, FlowId, HostId, LeafSpineBuilder};
use tlb_simnet::{DeliveryKind, FidelityKind, LbDispatch, RunReport, Scheme, SimConfig};
use tlb_workload::{web_search, FlowSpec, PoissonWorkload};

/// The seed every recorded baseline uses (the paper's conference date, as
/// in `crates/bench`).
pub const DEFAULT_SEED: u64 = 20190805;

/// One `(config, flows)` simulation job.
pub type Job = (SimConfig, Vec<FlowSpec>);

/// A named workload. Reasons for each are in [`Workload::why`] and, at
/// length, in `benchmark/README.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §6.2 experiment: 8×8 leaf-spine, web-search, TLB.
    WebsearchLeafspine,
    /// Sixteen bulk flows over 10 Gbit/s × 500 µs links under ECMP.
    HighbdpBulk,
    /// k=16 fat tree (1,024 hosts), web-search, TLB.
    FattreeK16Websearch,
    /// Six schemes on the leaf-spine fabric through `run_all`.
    SchemeSweep,
    /// The leaf-spine job under hybrid fluid/packet fidelity.
    WebsearchHybrid,
    /// The leaf-spine job on the sharded engine with two workers.
    WebsearchSharded2,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::WebsearchLeafspine,
        Workload::HighbdpBulk,
        Workload::FattreeK16Websearch,
        Workload::SchemeSweep,
        Workload::WebsearchHybrid,
        Workload::WebsearchSharded2,
    ];

    /// The name used on the command line, in `BENCHMARK.json` and in every
    /// result file.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WebsearchLeafspine => "websearch_leafspine",
            Workload::HighbdpBulk => "highbdp_bulk",
            Workload::FattreeK16Websearch => "fattree_k16_websearch",
            Workload::SchemeSweep => "scheme_sweep",
            Workload::WebsearchHybrid => "websearch_hybrid",
            Workload::WebsearchSharded2 => "websearch_sharded2",
        }
    }

    /// Look a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the suite, in one line (the `why` of
    /// `BENCHMARK.json`; a test keeps the two equal).
    pub fn why(self) -> &'static str {
        match self {
            Workload::WebsearchLeafspine => {
                "Paper headline job (8x8 leaf-spine, web-search, TLB, load 0.7): every packet-path layer busy, deep FEL; the BENCH_PR9 serial job, so the events/s drift stays comparable"
            }
            Workload::HighbdpBulk => {
                "16 bulk flows on 10G x 500us links under ECMP: port, delivery pipe and transport do all the work, FEL shallow, LB a hash; FEL-depth and LB optimisations must show no change here"
            }
            Workload::FattreeK16Websearch => {
                "k=16 fat tree, 1024 hosts: same layers in a three-tier regime with a working set far beyond cache; memory and locality work shows here and barely on leaf-spine"
            }
            Workload::SchemeSweep => {
                "Six schemes (paper set + DiffFlow) via run_all on 2 threads: the regenerate-a-figure path; uses the LB layer six ways, so a TLB gain that costs RPS or LetFlow shows, as does co-run interference"
            }
            Workload::WebsearchHybrid => {
                "Leaf-spine job under hybrid fidelity, 1000 ms of arrivals: the only workload where net::fluid and the fluid seam carry the long flows; FEL depth ~200k instead of ~1k"
            }
            Workload::WebsearchSharded2 => {
                "websearch_leafspine on the sharded engine, 2 workers: the only workload entering engine::shard and network::sharded; its digest must equal the serial job's"
            }
        }
    }

    /// Build the fabric(s) and pin every mode field: one config per job
    /// (six for the sweep, one otherwise).
    pub fn configs(self, seed: u64) -> Vec<SimConfig> {
        let leafspine = |scheme: Scheme, fidelity, engine| {
            let mut cfg = SimConfig::large_scale(scheme, 32);
            pin_modes(&mut cfg, seed, fidelity, engine);
            cfg
        };
        match self {
            Workload::WebsearchLeafspine => vec![leafspine(
                Scheme::tlb_default(),
                FidelityKind::Packet,
                EngineKind::Serial,
            )],
            Workload::WebsearchHybrid => vec![leafspine(
                Scheme::tlb_default(),
                FidelityKind::Hybrid,
                EngineKind::Serial,
            )],
            Workload::WebsearchSharded2 => vec![leafspine(
                Scheme::tlb_default(),
                FidelityKind::Packet,
                EngineKind::Sharded { workers: Some(2) },
            )],
            Workload::SchemeSweep => {
                let mut schemes = Scheme::paper_set();
                schemes.push(Scheme::diffflow_default());
                schemes
                    .into_iter()
                    .map(|s| leafspine(s, FidelityKind::Packet, EngineKind::Serial))
                    .collect()
            }
            Workload::FattreeK16Websearch => {
                let mut cfg = SimConfig::large_scale(Scheme::tlb_default(), 32);
                cfg.topo = FatTreeBuilder::new(16)
                    .link_gbps(1.0)
                    .target_rtt(SimTime::from_micros(100))
                    .build()
                    .into();
                pin_modes(&mut cfg, seed, FidelityKind::Packet, EngineKind::Serial);
                vec![cfg]
            }
            Workload::HighbdpBulk => {
                let mut cfg = SimConfig::basic_paper(Scheme::Ecmp);
                cfg.topo = LeafSpineBuilder::new(2, 4, 8)
                    .link_gbps(10.0)
                    .prop_per_link(SimTime::from_micros(500))
                    .build()
                    .into();
                cfg.horizon = SimTime::from_secs(20);
                pin_modes(&mut cfg, seed, FidelityKind::Packet, EngineKind::Serial);
                vec![cfg]
            }
        }
    }

    /// Generate the flow set for `cfg` from `seed`. `scale` divides the
    /// arrival span (or, for the bulk workload, the flow size): 1 is the
    /// measured job, 10 the warm-up, 50 the unit-test size.
    pub fn flows(self, cfg: &SimConfig, seed: u64, scale: u32) -> Vec<FlowSpec> {
        let scale = u64::from(scale.max(1));
        match self {
            Workload::WebsearchLeafspine | Workload::WebsearchSharded2 => {
                web_search_flows(cfg, 0.7, SimTime::from_millis(150) / scale, seed)
            }
            Workload::WebsearchHybrid => {
                web_search_flows(cfg, 0.7, SimTime::from_millis(1000) / scale, seed)
            }
            Workload::SchemeSweep => {
                web_search_flows(cfg, 0.7, SimTime::from_millis(40) / scale, seed)
            }
            Workload::FattreeK16Websearch => {
                web_search_flows(cfg, 0.5, SimTime::from_millis(20) / scale, seed)
            }
            Workload::HighbdpBulk => bulk_flows(cfg, 250_000_000 / scale, seed),
        }
    }

    /// All jobs of the workload, ready for `Simulation::new`.
    pub fn jobs(self, seed: u64, scale: u32) -> Vec<Job> {
        self.configs(seed)
            .into_iter()
            .map(|cfg| {
                let flows = self.flows(&cfg, seed, scale);
                (cfg, flows)
            })
            .collect()
    }
}

/// Set every mode field a preset would otherwise take from the
/// environment, and derive `cfg.seed` from the benchmark seed.
///
/// The balancers' seed follows `--seed`, offset so that the default seed
/// lands on the presets' `seed = 1`: that keeps default-seed
/// `websearch_leafspine` the `BENCH_PR9` serial job bit for bit.
pub fn pin_modes(cfg: &mut SimConfig, seed: u64, fidelity: FidelityKind, engine: EngineKind) {
    cfg.seed = seed.wrapping_sub(DEFAULT_SEED).wrapping_add(1);
    cfg.fel = FelKind::Calendar;
    cfg.lb_dispatch = LbDispatch::Enum;
    cfg.delivery = DeliveryKind::Pipelined;
    cfg.audit = false;
    cfg.alloc_warmup_events = None;
    cfg.fidelity = fidelity;
    cfg.engine = engine;
}

/// Open-loop Poisson arrivals of web-search flow sizes between racks, the
/// §6.2 traffic (`crates/bench`'s `fig10_job` parameters).
fn web_search_flows(cfg: &SimConfig, load: f64, duration: SimTime, seed: u64) -> Vec<FlowSpec> {
    let dist = web_search();
    PoissonWorkload {
        load,
        dist: &dist,
        duration,
        deadline_lo: SimTime::from_millis(5),
        deadline_hi: SimTime::from_millis(25),
        short_threshold: cfg.short_threshold,
        inter_leaf_only: true,
    }
    .generate(&cfg.topo, &mut SimRng::new(seed))
}

/// Sixteen cross-rack flows of `size_bytes` each, two per sending host,
/// starting within the first 160 µs (the `perf5::high_bdp_jobs` shape).
/// The seed picks each flow's receiver and jitters its start.
fn bulk_flows(cfg: &SimConfig, size_bytes: u64, seed: u64) -> Vec<FlowSpec> {
    let hosts_per_leaf = cfg.topo.hosts_per_leaf() as u64;
    let mut rng = SimRng::new(seed);
    (0..16u64)
        .map(|i| FlowSpec {
            id: FlowId(i as u32),
            src: HostId((i % hosts_per_leaf) as u32),
            dst: HostId((hosts_per_leaf + rng.gen_range(hosts_per_leaf)) as u32),
            size_bytes,
            start: SimTime::from_nanos(10_000 * i + rng.gen_range(10_000)),
            deadline: None,
        })
        .collect()
}

/// Determinism digest of one run: `events | short afct | long goodput |
/// drops | marks | completed` — the `perf9::digest` format, so the pinned
/// `websearch_leafspine` digest is comparable with `BENCH_PR9.json`.
pub fn digest(r: &RunReport) -> String {
    format!(
        "{}|{:.12}|{:.12}|{}|{}|{}",
        r.events, r.fct_short.afct, r.fct_long.mean_goodput, r.drops, r.marks, r.completed
    )
}

/// Digest of a whole workload rep: the jobs' digests joined by `;`.
pub fn digest_all(reports: &[RunReport]) -> String {
    reports.iter().map(digest).collect::<Vec<_>>().join(";")
}
