//! Simulation configuration: topology + transport + switch + scheme.

use crate::dispatch::LbDispatch;
use crate::scheme::Scheme;
use tlb_engine::{EngineKind, FelKind, SimTime};
use tlb_net::{Fabric, LeafId, LeafSpineBuilder, LinkProps, SpineId};
use tlb_switch::QueueCfg;
use tlb_transport::TcpConfig;

/// One scheduled change to the fabric: at `at`, `change` acts on
/// `target`. Models failures, repairs and brownouts (paper §7's
/// asymmetry, but dynamic). Events of one instant apply in list order.
#[derive(Clone, Copy, Debug)]
pub struct AdminEvent {
    /// When the change takes effect.
    pub at: SimTime,
    /// What it acts on.
    pub target: Target,
    /// What it does.
    pub change: Change,
}

/// What an [`AdminEvent`] acts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// One LB-switch uplink and its reverse direction (leaf<->spine,
    /// edge<->agg, or agg<->core).
    Link {
        /// The LB switch owning the uplink (leaf-spine: leaf; fat tree:
        /// edges then aggs, in global LB-switch order).
        sw: LeafId,
        /// The uplink index within that switch.
        up: SpineId,
    },
    /// Every port of one switch (and the reverse direction of each), i.e.
    /// the whole box goes dark. Only [`Change::Down`] and [`Change::Up`]
    /// act on a switch.
    Switch {
        /// Global switch index in `0..topo.n_switches()`: LB switches
        /// first (leaves, or edges then aggs), then spines/cores.
        sw: usize,
    },
}

/// What an [`AdminEvent`] does to its target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Change {
    /// Ports go administratively down: packets already queued or in
    /// service drain normally; new admissions are dropped (and counted as
    /// drops). Routing reconverges around the failure immediately.
    Down,
    /// Ports come back up and routing reconverges to use them again.
    Up,
    /// The link's bandwidth and delay change in both directions, as
    /// [`Change::apply`] says, and routing keeps using it. With
    /// `bw_factor > 1` or a shorter `new_prop_delay`, a mid-run
    /// *improvement*.
    Rate {
        /// Multiplier on the current bandwidth; must be positive.
        bw_factor: f64,
        /// Replace the one-way propagation delay with this value (before
        /// `extra_delay` is added). `None` keeps the current delay.
        new_prop_delay: Option<SimTime>,
        /// Added one-way propagation delay.
        extra_delay: SimTime,
    },
}

impl Change {
    /// The one rate rule: what this change turns a link in state `l`
    /// into. A rate change replaces the delay (if it names one), then
    /// adds `extra_delay` and scales the bandwidth ([`LinkProps::degraded`]);
    /// `Down` and `Up` leave the props alone.
    pub fn apply(&self, l: LinkProps) -> LinkProps {
        match *self {
            Change::Down | Change::Up => l,
            Change::Rate {
                bw_factor,
                new_prop_delay,
                extra_delay,
            } => {
                let prop_delay = new_prop_delay.unwrap_or(l.prop_delay);
                LinkProps { prop_delay, ..l }.degraded(bw_factor, extra_delay)
            }
        }
    }
}

/// Everything needed to run one simulation (besides the flow set).
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The fabric (two-tier leaf-spine or three-tier fat tree).
    pub topo: Fabric,
    /// Transport endpoints' parameters.
    pub tcp: TcpConfig,
    /// Switch output-queue parameters (buffer size, ECN threshold).
    pub queue: QueueCfg,
    /// Host NIC queue parameters (large buffer; same ECN marking).
    pub host_queue: QueueCfg,
    /// The load-balancing scheme under test.
    pub scheme: Scheme,
    /// Master seed: fixes the balancers' randomness. (Workload randomness
    /// is seeded separately by the generator.)
    pub seed: u64,
    /// Hard stop; flows unfinished by then count as incomplete/missed.
    pub horizon: SimTime,
    /// Metrics classification threshold for short vs long (paper: 100 KB).
    pub short_threshold: u64,
    /// Bucket width for "instantaneous" time series.
    pub series_bucket: SimTime,
    /// Mid-run fabric changes: link and switch failures, repairs, and
    /// link-quality changes, in one schedule.
    pub admin_events: Vec<AdminEvent>,
    /// Flows whose packets should be path-traced into
    /// [`crate::RunReport::traces`] (diagnostics/tests; keep small — every
    /// hop of every traced packet is recorded).
    pub trace_flows: Vec<tlb_net::FlowId>,
    /// Sample leaf-0's uplink queue lengths every `series_bucket` into
    /// [`crate::RunReport::queue_series`] (the Fig. 5 queueing-process
    /// visualization).
    pub sample_queues: bool,
    /// Run the packet-conservation audit (see [`crate::audit`]): track
    /// every packet's lifecycle and prove conservation, per-port
    /// accounting consistency, clock monotonicity, and transport
    /// invariants at end of run, panicking with a labelled diff on any
    /// violation. The preset constructors enable it in debug builds
    /// (therefore in `cargo test` and every tier-1 run) and disable it in
    /// release figure runs so benchmarks are unaffected.
    pub audit: bool,
    /// Vestigial: the future-event list is always the calendar queue and
    /// nothing reads this field. It stays only because the benchmark
    /// harness still assigns it; it goes with that assignment.
    pub fel: FelKind,
    /// Vestigial: load balancers are always statically dispatched
    /// ([`crate::AnyLb`]) and nothing reads this field. It stays only
    /// because the benchmark harness still assigns it; it goes with that
    /// assignment.
    pub lb_dispatch: LbDispatch,
    /// Vestigial: arrivals always ride the per-link delivery pipes and
    /// nothing reads this field. It stays only because the benchmark
    /// harness still assigns it; it goes with that assignment.
    pub delivery: DeliveryKind,
    /// Simulation fidelity. Presets use full packet fidelity (`tlb-sim
    /// --fidelity hybrid` selects the other). [`FidelityKind::Hybrid`] is
    /// a *modeling* change: long-flow tails ride a fluid fair-share rate model, so
    /// results agree with [`FidelityKind::Packet`] within tolerance bands
    /// (`tests/fidelity.rs`) rather than bit-for-bit.
    pub fidelity: FidelityKind,
    /// `Some(W)`: snapshot the process allocation counters when the run
    /// loop has processed `W` events and report the steady-state delta in
    /// [`crate::RunReport::alloc_audit`]. Only meaningful when the binary
    /// installs [`tlb_engine::CountingAlloc`] and the run executes
    /// serially (the counters are process-wide). Presets leave it `None`;
    /// the report's audit is also `None` when a run ends before `W`
    /// events. The simulator is deterministic, so the delta is exactly
    /// reproducible for a given (config, flows) pair.
    pub alloc_warmup_events: Option<u64>,
    /// Execution engine. Presets run serially (`tlb-sim --engine sharded`
    /// selects the other). [`tlb_engine::EngineKind::Sharded`] executes
    /// the run across OS threads via conservative fabric sharding; results
    /// are bit-identical to serial for any worker count
    /// (`tests/determinism.rs`). Configurations the sharded engine cannot
    /// partition (hybrid fidelity, chained flows, single-shard
    /// topologies, …) run serially and
    /// [`crate::RunReport::engine_fallback`] says which
    /// [`crate::FallbackReason`] applied.
    pub engine: EngineKind,
}

/// How in-flight packets are scheduled for arrival. Vestigial, like
/// [`SimConfig::delivery`]: one variant, read by nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryKind {
    /// One FIFO pipe per link (a list through the packet arena) with a
    /// single chained delivery event: FEL occupancy stays
    /// O(ports + links + timers) regardless of packets in flight.
    Pipelined,
}

/// Which traffic runs at packet-level fidelity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FidelityKind {
    /// Everything is simulated packet by packet — the reference mode, and
    /// the default. Bit-identical to the pre-hybrid simulator.
    Packet,
    /// Long flows (past the 100 KB reclassification boundary, i.e.
    /// [`SimConfig::short_threshold`]) migrate their unsent bytes to a
    /// per-link fair-share rate model ([`tlb_net::FluidNet`]) whose rates
    /// are recomputed only on flow arrival/departure/reroute/failure
    /// events. Short flows, SYN/FIN handshakes, the packet prefix of every
    /// long flow, and all queue/ECN dynamics stay packet-level. Validated
    /// against [`FidelityKind::Packet`] by tolerance bands (see
    /// `tests/fidelity.rs`), not bit-equality.
    Hybrid,
}

impl SimConfig {
    /// What the three presets share: the paper's queue sizes and ECN
    /// threshold, no scheduled events or tracing, the audit in debug
    /// builds, packet fidelity on the serial engine.
    fn preset(
        topo: Fabric,
        tcp: TcpConfig,
        scheme: Scheme,
        horizon: SimTime,
        series_bucket: SimTime,
    ) -> SimConfig {
        SimConfig {
            topo,
            tcp,
            queue: QueueCfg {
                capacity_pkts: 256,
                ecn_threshold_pkts: Some(20),
            },
            host_queue: QueueCfg {
                capacity_pkts: 2048,
                ecn_threshold_pkts: Some(20),
            },
            scheme,
            seed: 1,
            horizon,
            short_threshold: 100_000,
            series_bucket,
            admin_events: Vec::new(),
            trace_flows: Vec::new(),
            sample_queues: false,
            audit: cfg!(debug_assertions),
            fel: FelKind::Calendar,
            lb_dispatch: LbDispatch::Enum,
            delivery: DeliveryKind::Pipelined,
            fidelity: FidelityKind::Packet,
            alloc_warmup_events: None,
            engine: EngineKind::Serial,
        }
    }

    /// The paper's basic NS2 setup (§4.2/§6.1): one sending rack and two
    /// receiving racks behind 15 spines, 1 Gbit/s links, 100 µs RTT,
    /// 256-packet buffers, DCTCP.
    pub fn basic_paper(scheme: Scheme) -> SimConfig {
        let topo = LeafSpineBuilder::new(3, 15, 16)
            .link_gbps(1.0)
            .target_rtt(SimTime::from_micros(100))
            .build();
        Self::preset(
            topo,
            TcpConfig::dctcp_default(),
            scheme,
            SimTime::from_secs(10),
            SimTime::from_millis(1),
        )
    }

    /// The §6.2 large-scale setup: 8 ToR × 8 core. The paper uses 256 hosts
    /// (32 per rack, 4:1 oversubscription); `hosts_per_leaf` scales that
    /// down for quicker runs while preserving the oversubscription shape
    /// when set ≥ `2 × spines`.
    pub fn large_scale(scheme: Scheme, hosts_per_leaf: usize) -> SimConfig {
        let topo = LeafSpineBuilder::new(8, 8, hosts_per_leaf)
            .link_gbps(1.0)
            .target_rtt(SimTime::from_micros(100))
            .build();
        Self::preset(
            topo,
            TcpConfig::dctcp_default(),
            scheme,
            SimTime::from_secs(20),
            SimTime::from_millis(5),
        )
    }

    /// The §7 Mininet-testbed setup: 10 equal-cost paths, 20 Mbit/s links,
    /// 1 ms per-link delay, 256-packet buffers, 200 ms min RTO.
    pub fn testbed(scheme: Scheme) -> SimConfig {
        let topo = LeafSpineBuilder::new(2, 10, 12)
            .link_mbps(20.0)
            .prop_per_link(SimTime::from_millis(1))
            .build();
        Self::preset(
            topo,
            TcpConfig::testbed_default(),
            scheme,
            SimTime::from_secs(400),
            SimTime::from_millis(500),
        )
    }

    /// Whether the admin schedule takes anything down or up: only then
    /// does a run keep reach masks and consult them on every decision. A
    /// schedule of rate changes alone keeps every uplink in the routing.
    pub fn has_failures(&self) -> bool {
        (self.admin_events.iter()).any(|e| !matches!(e.change, Change::Rate { .. }))
    }

    /// Check that the configuration can run: everything that would
    /// otherwise surface as a panic somewhere inside the run.
    pub fn validate(&self) -> Result<(), ConfigError> {
        use ConfigError as E;
        self.tcp.validate().map_err(E::Tcp)?;
        self.scheme.validate().map_err(E::Scheme)?;
        if self.queue.capacity_pkts == 0 || self.host_queue.capacity_pkts == 0 {
            return Err(E::ZeroQueueCapacity);
        }
        if self.horizon.is_zero() {
            return Err(E::ZeroHorizon);
        }
        if self.series_bucket.is_zero() {
            return Err(E::ZeroSeriesBucket);
        }
        let topo = &self.topo;
        let (n_lb, n_up) = (topo.n_lb_switches(), topo.n_spines());
        if n_up > 64 {
            return Err(E::TooManyUplinks(n_up));
        }
        if topo.n_switches() > usize::from(u16::MAX) {
            return Err(E::TooManySwitches(topo.n_switches()));
        }
        // Serialization time divides by the rate.
        if topo.host_link().bytes_per_sec == 0 {
            return Err(E::ZeroRateHostLink);
        }
        for sw in 0..n_lb {
            if let Some(up) = (0..n_up).find(|&up| topo.uplink_props(sw, up).bytes_per_sec == 0) {
                return Err(E::ZeroRateUplink { sw, up });
            }
        }
        for (index, ev) in self.admin_events.iter().enumerate() {
            if let Change::Rate { bw_factor, .. } = ev.change {
                if bw_factor <= 0.0 || bw_factor.is_nan() {
                    return Err(E::AdminEventFactor { index });
                }
            }
            let missing = match ev.target {
                Target::Link { sw, up } => sw.index() >= n_lb || up.index() >= n_up,
                Target::Switch { sw } => {
                    sw >= topo.n_switches() || matches!(ev.change, Change::Rate { .. })
                }
            };
            if missing {
                return Err(E::AdminEventTarget { index });
            }
        }
        Ok(())
    }
}

/// Why a job cannot run: what [`SimConfig::validate`] refuses in the
/// configuration, then what [`crate::Simulation::try_new_chained`] refuses
/// in the flows and chain pointers handed in with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// [`TcpConfig::validate`]'s complaint.
    Tcp(String),
    /// A scheme parameter its balancer's constructor would reject
    /// ([`Scheme::validate`]).
    Scheme(String),
    /// A switch or host queue that holds no packet.
    ZeroQueueCapacity,
    /// A run that ends when it starts.
    ZeroHorizon,
    /// Time series with no bucket width.
    ZeroSeriesBucket,
    /// This many uplinks per LB switch; a balancer's live-uplink set
    /// (`PortView`) and the reach masks are one `u64` per LB switch.
    TooManyUplinks(usize),
    /// This many switches; switch ids are 16 bits.
    TooManySwitches(usize),
    /// The host NIC link carries 0 bytes per second.
    ZeroRateHostLink,
    /// LB switch `sw`'s uplink `up` carries 0 bytes per second.
    ZeroRateUplink {
        /// The LB switch.
        sw: usize,
        /// Its uplink.
        up: usize,
    },
    /// `admin_events[index]` multiplies bandwidth by zero, less, or NaN.
    AdminEventFactor {
        /// Position in [`SimConfig::admin_events`].
        index: usize,
    },
    /// `admin_events[index]` names a link or switch the fabric does not
    /// have, or changes the rate of a switch.
    AdminEventTarget {
        /// Position in [`SimConfig::admin_events`].
        index: usize,
    },
    /// `flows[index]` carries this id; senders, receivers and the FCT
    /// recorder are dense tables, so flow `i` must carry id `i`.
    FlowIdNotDense {
        /// Position in the flow list.
        index: usize,
        /// The id found there.
        id: u32,
    },
    /// `flows[index]` names a host the fabric does not have.
    FlowHostOutOfRange {
        /// Position in the flow list.
        index: usize,
        /// Which endpoint: `"src"` or `"dst"`.
        field: &'static str,
        /// The host it names.
        host: usize,
        /// How many hosts the fabric has.
        n_hosts: usize,
    },
    /// `flows[index]` carries no payload: a connection has at least one
    /// segment.
    ZeroSizeFlow {
        /// Position in the flow list.
        index: usize,
    },
    /// `flows[index]` carries `size_bytes`, more segments of `mss` than
    /// the transport's 32-bit segment numbers count.
    FlowTooLarge {
        /// Position in the flow list.
        index: usize,
        /// Its size.
        size_bytes: u64,
        /// The segment size.
        mss: u64,
    },
    /// `flows[index]` exists: the flow index is the entity of an event
    /// ordering key, which has `key_bits` bits for it.
    FlowIndexOverflowsKey {
        /// Position in the flow list.
        index: usize,
        /// Width of the key's entity field.
        key_bits: u32,
    },
    /// The chain has `next` pointers for `flows` flows.
    ChainLength {
        /// Flows in the job.
        flows: usize,
        /// Chain pointers handed in with them.
        next: usize,
    },
    /// Flow `flow`'s successor `next` is not a flow.
    ChainOutOfRange {
        /// The predecessor.
        flow: usize,
        /// The successor it names.
        next: usize,
    },
    /// Two flows name `flow` as their successor.
    ChainedTwice {
        /// The shared successor.
        flow: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ConfigError as E;
        match self {
            E::Tcp(why) => write!(f, "transport: {why}"),
            E::Scheme(why) => write!(f, "scheme: {why}"),
            E::ZeroQueueCapacity => write!(f, "queues need nonzero capacity"),
            E::ZeroHorizon => write!(f, "horizon must be positive"),
            E::ZeroSeriesBucket => write!(f, "series bucket must be positive"),
            E::TooManyUplinks(n) => {
                write!(f, "{n} uplinks per LB switch: at most 64 are supported")
            }
            E::TooManySwitches(n) => {
                write!(f, "{n} switches: at most {} are supported", u16::MAX)
            }
            E::ZeroRateHostLink => write!(f, "the host link has a zero rate"),
            E::ZeroRateUplink { sw, up } => {
                write!(f, "LB switch {sw}'s uplink {up} has a zero rate")
            }
            E::AdminEventFactor { index } => {
                write!(f, "admin event {index}: bw_factor must be positive")
            }
            E::AdminEventTarget { index } => {
                write!(
                    f,
                    "admin event {index}: no such link, or a rate change on a switch"
                )
            }
            E::FlowIdNotDense { index, id } => {
                write!(f, "flow {index}: id is {id}, ids must be dense")
            }
            E::FlowHostOutOfRange {
                index,
                field,
                host,
                n_hosts,
            } => write!(f, "flow {index}: {field} is host {host} of {n_hosts}"),
            E::ZeroSizeFlow { index } => write!(f, "flow {index}: size is 0 bytes"),
            E::FlowTooLarge {
                index,
                size_bytes,
                mss,
            } => write!(
                f,
                "flow {index}: {size_bytes} bytes exceed {} segments of {mss} bytes",
                u32::MAX
            ),
            E::FlowIndexOverflowsKey { index, key_bits } => write!(
                f,
                "flow {index}: index overflows the {key_bits}-bit event key (at most {} flows)",
                (1u64 << key_bits) - 1
            ),
            E::ChainLength { flows, next } => {
                write!(f, "{next} next pointers for {flows} flows")
            }
            E::ChainOutOfRange { flow, next } => {
                write!(f, "flow {flow}: next pointer {next} out of range")
            }
            E::ChainedTwice { flow } => write!(f, "flow {flow} chained twice"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        SimConfig::basic_paper(Scheme::Ecmp).validate().unwrap();
        SimConfig::large_scale(Scheme::Rps, 16).validate().unwrap();
        SimConfig::testbed(Scheme::tlb_default())
            .validate()
            .unwrap();
    }

    #[test]
    fn basic_matches_paper_parameters() {
        let c = SimConfig::basic_paper(Scheme::Ecmp);
        assert_eq!(c.topo.n_spines(), 15, "15 equal-cost paths");
        assert_eq!(c.topo.host_link().bytes_per_sec, 125_000_000, "1 Gbit/s");
        assert_eq!(c.queue.capacity_pkts, 256);
        assert_eq!(
            c.topo.min_rtt(tlb_net::HostId(0), tlb_net::HostId(20)),
            SimTime::from_micros(100)
        );
    }

    #[test]
    fn large_scale_matches_paper_shape() {
        let c = SimConfig::large_scale(Scheme::Ecmp, 32);
        assert_eq!(c.topo.n_leaves(), 8);
        assert_eq!(c.topo.n_spines(), 8);
        assert_eq!(c.topo.n_hosts(), 256);
    }

    #[test]
    fn testbed_matches_paper_shape() {
        let c = SimConfig::testbed(Scheme::Ecmp);
        assert_eq!(c.topo.n_spines(), 10, "10 equal-cost paths");
        assert_eq!(c.topo.host_link().bytes_per_sec, 2_500_000, "20 Mbit/s");
        assert_eq!(c.tcp.min_rto, SimTime::from_millis(200));
    }

    #[test]
    fn more_than_64_uplinks_per_lb_switch_is_rejected() {
        let mut c = SimConfig::basic_paper(Scheme::Ecmp);
        c.topo = LeafSpineBuilder::new(2, 64, 1).build();
        c.validate().expect("64 uplinks fill the mask exactly");
        c.topo = LeafSpineBuilder::new(2, 65, 1).build();
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::TooManyUplinks(65));
        assert!(err.to_string().contains("65 uplinks"), "{err}");
        // A fat tree has k/2 uplinks per edge/agg: k = 130 is one too many.
        c.topo = tlb_net::FatTreeBuilder::new(130).build();
        assert_eq!(c.validate(), Err(ConfigError::TooManyUplinks(65)));
    }

    /// Every way a config can be refused, and that the refusal comes from
    /// `Simulation::new` — before `run`, so before anything is built.
    #[test]
    fn every_config_error_is_produced_and_stops_simulation_new() {
        use ConfigError as E;
        let rate = |target, bw_factor| AdminEvent {
            at: SimTime::ZERO,
            target,
            change: Change::Rate {
                bw_factor,
                new_prop_delay: None,
                extra_delay: SimTime::ZERO,
            },
        };
        let link = |up| Target::Link {
            sw: LeafId(0),
            up: SpineId(up),
        };
        let dead = tlb_net::LinkProps::gbps(0.0, SimTime::from_micros(10));
        let broken = |break_it: &dyn Fn(&mut SimConfig)| {
            let mut c = SimConfig::basic_paper(Scheme::Ecmp);
            break_it(&mut c);
            c
        };
        let cases: Vec<(SimConfig, ConfigError)> = vec![
            (
                broken(&|c| c.tcp.mss = 0),
                E::Tcp("mss must be positive".into()),
            ),
            (
                broken(&|c| {
                    let mut tlb = tlb_core::TlbConfig::paper_default();
                    tlb.update_interval = SimTime::ZERO;
                    c.scheme = Scheme::Tlb(tlb);
                }),
                E::Scheme("TLB: update_interval must be positive".into()),
            ),
            (
                broken(&|c| c.host_queue.capacity_pkts = 0),
                E::ZeroQueueCapacity,
            ),
            (broken(&|c| c.horizon = SimTime::ZERO), E::ZeroHorizon),
            (
                broken(&|c| c.series_bucket = SimTime::ZERO),
                E::ZeroSeriesBucket,
            ),
            (
                broken(&|c| c.topo = LeafSpineBuilder::new(2, 65, 1).build()),
                E::TooManyUplinks(65),
            ),
            (
                broken(&|c| c.topo = LeafSpineBuilder::new(65_535, 1, 1).build()),
                E::TooManySwitches(65_536),
            ),
            (
                broken(&|c| c.topo = LeafSpineBuilder::new(3, 15, 16).link_gbps(0.0).build()),
                E::ZeroRateHostLink,
            ),
            (
                broken(&|c| c.topo.set_uplink(1, 2, dead)),
                E::ZeroRateUplink { sw: 1, up: 2 },
            ),
            (
                broken(&|c| c.admin_events = vec![rate(link(0), 0.5), rate(link(0), f64::NAN)]),
                E::AdminEventFactor { index: 1 },
            ),
            (
                broken(&|c| c.admin_events = vec![rate(link(15), 0.5)]),
                E::AdminEventTarget { index: 0 },
            ),
            (
                broken(&|c| {
                    c.admin_events = vec![AdminEvent {
                        at: SimTime::ZERO,
                        target: Target::Switch { sw: 18 },
                        change: Change::Down,
                    }]
                }),
                E::AdminEventTarget { index: 0 },
            ),
            (
                broken(&|c| c.admin_events = vec![rate(Target::Switch { sw: 0 }, 0.5)]),
                E::AdminEventTarget { index: 0 },
            ),
        ];
        for (c, want) in cases {
            assert_eq!(c.validate(), Err(want.clone()));
            let panic = std::panic::catch_unwind(|| crate::Simulation::new(c, Vec::new()))
                .err()
                .unwrap_or_else(|| panic!("Simulation::new accepted {want:?}"));
            let msg = panic.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(
                *msg,
                format!("invalid simulation configuration: {want}"),
                "{want:?}"
            );
        }
    }

    #[test]
    fn change_apply_is_the_one_rate_rule() {
        let l = LinkProps {
            bytes_per_sec: 1_000,
            prop_delay: SimTime::from_micros(10),
        };
        assert_eq!(Change::Down.apply(l), l);
        assert_eq!(Change::Up.apply(l), l);
        let rate = |bw_factor, new_prop_delay, extra_delay| Change::Rate {
            bw_factor,
            new_prop_delay,
            extra_delay,
        };
        // The new delay replaces the old, then the extra delay adds to it.
        let us = SimTime::from_micros;
        let half = rate(0.5, Some(us(4)), us(3)).apply(l);
        assert_eq!(half.prop_delay, us(7));
        assert_eq!(half.bytes_per_sec, 500);
        // No new delay keeps the old one; a factor above 1 is an upgrade.
        let up = rate(2.0, None, us(1)).apply(l);
        assert_eq!((up.bytes_per_sec, up.prop_delay), (2_000, us(11)));
        // The bandwidth never drops below one byte per second.
        assert_eq!(rate(1e-9, None, SimTime::ZERO).apply(l).bytes_per_sec, 1);
    }
}
