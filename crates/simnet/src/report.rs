//! The result of one simulation run.

use crate::network::EVENT_CLASSES;
use tlb_engine::SimTime;
use tlb_metrics::{FctRecorder, FctSummary, FlowClass, SampleSet};
use tlb_net::{FlowId, PktKind};

/// One point a traced packet passed through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hop {
    /// Entered host `host`'s NIC queue.
    HostNic {
        /// Sending host index.
        host: u32,
    },
    /// Entered a leaf's uplink queue — the load balancer's choice.
    LeafUplink {
        /// Leaf switch index.
        leaf: u16,
        /// Chosen spine/uplink index.
        spine: u16,
    },
    /// Entered a leaf's host-facing downlink queue.
    LeafDownlink {
        /// Leaf switch index.
        leaf: u16,
        /// Local host slot.
        slot: u16,
    },
    /// Entered a spine's leaf-facing downlink queue.
    SpineDownlink {
        /// Spine switch index.
        spine: u16,
        /// Destination leaf index.
        leaf: u16,
    },
    /// Entered a fat-tree switch's uplink queue (edge→agg or agg→core).
    FabricUp {
        /// Global LB-switch index (edges then aggs).
        sw: u16,
        /// Chosen uplink index within the switch.
        up: u16,
    },
    /// Entered a fat-tree switch's downlink queue (edge→host, agg→edge,
    /// or core→agg).
    FabricDown {
        /// Global switch index (LB switches first, then cores).
        sw: u16,
        /// Downlink index within the switch.
        down: u16,
    },
    /// Delivered to the destination host's endpoint.
    Delivered {
        /// Receiving host index.
        host: u32,
    },
}

/// One trace record: a packet of a traced flow entering a hop.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// The traced flow.
    pub flow: FlowId,
    /// Packet kind (Data/Ack/...).
    pub kind: PktKind,
    /// Segment or ack number.
    pub seq: u32,
    /// When the packet reached this hop.
    pub at: SimTime,
    /// Where it went.
    pub hop: Hop,
}

/// Aggregated per-class transport counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassCounters {
    /// Data segments received (any disposition).
    pub data_received: u64,
    /// Out-of-order arrivals at receivers (gap detected).
    pub out_of_order: u64,
    /// Duplicate ACKs observed by senders.
    pub dup_acks: u64,
    /// Data segments sent (first transmissions).
    pub data_sent: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Fast retransmits.
    pub fast_retransmits: u64,
}

impl ClassCounters {
    /// Fraction of received data segments that arrived out of order —
    /// the paper's "reordering ratio" (Fig. 8(a)/9(a)).
    pub fn reorder_ratio(&self) -> f64 {
        if self.data_received == 0 {
            0.0
        } else {
            self.out_of_order as f64 / self.data_received as f64
        }
    }

    /// Duplicate ACKs per data segment sent — Fig. 3(b)'s metric.
    pub fn dupack_ratio(&self) -> f64 {
        if self.data_sent == 0 {
            0.0
        } else {
            self.dup_acks as f64 / self.data_sent as f64
        }
    }
}

/// Steady-state allocation audit: the process-wide allocator-counter delta
/// between the warmup snapshot and the end of the event loop. `Some` iff
/// the run had [`crate::SimConfig::alloc_warmup_events`] set *and*
/// processed at least that many events. Only meaningful when the binary
/// installs [`tlb_engine::CountingAlloc`] (`counting` reports whether it
/// did — a zero delta under a non-counting allocator is vacuous) and the
/// run executed serially (the counters are shared by every thread).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocAudit {
    /// Events processed before the snapshot was taken.
    pub warmup_events: u64,
    /// Events processed inside the audited window.
    pub steady_events: u64,
    /// Whether a counting allocator was actually installed.
    pub counting: bool,
    /// Heap allocations in the window (the gated invariant: 0).
    pub allocs: u64,
    /// Reallocations (growth) in the window (gated: 0).
    pub reallocs: u64,
    /// Deallocations in the window.
    pub deallocs: u64,
    /// Bytes requested by `allocs` + `reallocs` in the window.
    pub bytes: u64,
}

impl AllocAudit {
    /// Heap acquisitions in the steady window — the number that must be
    /// zero for the run to count as allocation-free.
    pub fn acquisitions(&self) -> u64 {
        self.allocs + self.reallocs
    }
}

/// Everything measured in one run. Time series carry
/// `(bucket_start_seconds, value)` points. A field is here because a
/// figure binary, a test, `tlb-sim` or the benchmark reads it, and none
/// grows with the bytes a run carries: per-packet samples are taken of
/// short-flow data only (bounded by flows × `short_threshold`), series by
/// horizon ÷ bucket, everything else by flows or fabric.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Scheme display name.
    pub scheme: String,
    /// Every flow of the job, started or not.
    pub total_flows: usize,
    /// Flows that delivered every byte.
    pub completed: usize,
    /// Short-flow FCT summary.
    pub fct_short: FctSummary,
    /// Long-flow FCT summary.
    pub fct_long: FctSummary,
    /// Every started flow's FCT record, for CDFs (Fig. 3(c)): built once,
    /// when the run reports, from the flow rows.
    pub fct: FctRecorder,
    /// Transport counters per class, over every endpoint the run opened.
    pub short: ClassCounters,
    /// Transport counters per class, over every endpoint the run opened.
    pub long: ClassCounters,
    /// Uplink queue length (packets) seen by short-flow data at enqueue,
    /// one sample per LB hop — Fig. 3(a).
    pub short_qlen: SampleSet,
    /// No longer recorded: always empty. It logged the same for every
    /// long-flow data packet, which no figure, test or tool read and which
    /// grew with the bytes a run carried. The field survives only because
    /// `benchmark/src/replay.rs::samples_pushed` adds its length and no
    /// file under `benchmark/` may change outside a benchmark PR; it goes
    /// with that term (ROADMAP item 2).
    pub long_qlen: SampleSet,
    /// Queueing delay of short-flow data at each LB uplink it was served
    /// by (seconds) — Fig. 8(b).
    pub short_qdelay: SampleSet,
    /// Pending-event count of the engine's future-event list, sampled once
    /// every 4096 processed events. The sampling schedule is a pure
    /// function of the event count, so the samples are bit-identical
    /// across thread counts; the benchmark reads its
    /// queue-depth percentiles (`engine.fel.depth_p50/p99`) from here.
    pub fel_depth: SampleSet,
    /// Peak of the FEL occupancy bound `2·ports + pending timers, later LB
    /// ticks and queue samples` over the same sample schedule. Computed
    /// from counters the schedule alone decides, so it is deterministic;
    /// every `fel_depth` sample is asserted ≤ the bound whenever the audit
    /// is on, on the serial engine and on every shard replica (where both
    /// are per-replica: the largest replica's bound, the union of the
    /// replicas' depth samples).
    pub fel_bound_peak: u64,
    /// High-water mark of the calendar FEL's node pool
    /// ([`tlb_engine::EventQueue::pool_nodes_peak`]): the most events that
    /// ever waited in the wheel outside its active bucket — the FEL's
    /// resident working set, whatever capacity was reserved. The largest
    /// shard's under the sharded engine; not part of any digest.
    pub fel_nodes_peak: u64,
    /// High-water mark of packets crossing links at once, counted on the
    /// link pipes: how full the wire got. A packet joins its pipe at its
    /// departure — at once if it found its port idle, and if it waited,
    /// when the port is next read after its start (its lazy departure),
    /// so a waiting packet counts from there and the mark can sit a little
    /// below the instantaneous one. (The packet arena also holds what
    /// waits at the ports, so its own high-water mark is at least this.)
    /// Under the sharded engine, the sum of the shards' own high-water
    /// marks, each over the links it receives; not part of any digest.
    pub wire_pkts_peak: u64,
    /// High-water mark of open connections: the connection-slab slots the
    /// run ever touched, senders plus receivers — how much per-flow
    /// endpoint state was ever resident, whatever the flow count. Under the
    /// sharded engine, the sum of the shards' own marks; not part of any
    /// digest.
    pub conns_peak: u64,
    /// Instantaneous reorder ratio of short flows over time — Fig. 8(a).
    /// (Long flows' reordering is reported as one ratio,
    /// `long.reorder_ratio()` — Fig. 9(a).)
    pub short_reorder_series: Vec<(f64, f64)>,
    /// Aggregate long-flow goodput (bytes/s) over time — Fig. 9(b).
    pub long_goodput_series: Vec<(f64, f64)>,
    /// Utilization of each leaf uplink: `busy_time / sim_duration`,
    /// indexed `[leaf][uplink]` — Fig. 4(a).
    pub uplink_utilization: Vec<Vec<f64>>,
    /// Packets dropped at switch/host queues.
    pub drops: u64,
    /// Packets ECN-marked.
    pub marks: u64,
    /// Peak balancer state across leaves, in bytes (Fig. 15(b)).
    pub lb_state_bytes_peak: usize,
    /// TLB only: `(time_s, q_th_bytes)` at each granularity update.
    pub qth_series: Vec<(f64, f64)>,
    /// Per-packet LB decisions taken (≈ upstream packets).
    pub lb_decisions: u64,
    /// Long-flow reroutes summed over leaves, for schemes that report them
    /// ([`tlb_switch::LoadBalancer::long_reroutes`]); `None` otherwise.
    /// The fuzzer's reroute oracle reads this: a TLB pinned at
    /// `q_th = u64::MAX` must report zero.
    pub tlb_long_reroutes: Option<u64>,
    /// Failure-forced reroutes summed over LB switches, for schemes that
    /// report them ([`tlb_switch::LoadBalancer::forced_reroutes`]);
    /// `None` otherwise. Kept separate from `tlb_long_reroutes` so the
    /// voluntary-reroute oracle stays strict under link failures.
    pub forced_reroutes: Option<u64>,
    /// Hybrid fidelity only ([`crate::FidelityKind::Hybrid`]): long-flow
    /// tails migrated from the packet path onto the fluid tier. Always 0
    /// under packet fidelity.
    pub fluid_migrations: u64,
    /// Hybrid fidelity only: fluid tails handed back to the packet path
    /// because a failure took down a link on their route.
    pub fluid_demotions: u64,
    /// Hybrid fidelity only: payload bytes handed to the fluid tier at
    /// migration (demotions return the undelivered remainder to the
    /// packet path, tracked separately in the conservation check).
    pub fluid_bytes: u64,
    /// Hybrid fidelity only: rate changes the fluid model reported (every
    /// join, leave and capacity change re-rates each sharer). Each one
    /// moves an entry of the seam's completion heap, not an FEL event.
    pub fluid_rate_changes: u64,
    /// Path traces for [`crate::SimConfig::trace_flows`] (in time order).
    pub traces: Vec<TraceEvent>,
    /// With [`crate::SimConfig::sample_queues`]: `(time_s, qlen_pkts per
    /// leaf-0 uplink)` sampled every series bucket.
    pub queue_series: Vec<(f64, Vec<u32>)>,
    /// Events processed by the engine.
    pub events: u64,
    /// [`RunReport::events`] by event class, in [`EVENT_CLASSES`] order:
    /// they sum to it.
    pub events_by_class: [u64; EVENT_CLASSES.len()],
    /// Packet-conservation audit outcome — `Some` iff the run had
    /// [`crate::SimConfig::audit`] set (a failing audit panics instead of
    /// reporting).
    pub audit: Option<crate::audit::AuditReport>,
    /// Steady-state allocation audit — `Some` iff the run had
    /// [`crate::SimConfig::alloc_warmup_events`] set and reached it.
    pub alloc_audit: Option<AllocAudit>,
    /// Simulated time at which the run ended (never past the horizon).
    pub sim_end: SimTime,
    /// Wall-clock runtime.
    pub wall: std::time::Duration,
    /// `Some(workers)` iff the sharded engine executed this run (with that
    /// many worker threads); `None` for the serial engine, including when
    /// [`tlb_engine::EngineKind::Sharded`] was requested but a
    /// precondition forced the serial fallback (see `engine_fallback`).
    /// Results are bit-identical either way — this records which machinery
    /// produced them.
    pub engine_workers: Option<u32>,
    /// `Some(why)` iff [`tlb_engine::EngineKind::Sharded`] was requested
    /// and the serial engine ran instead.
    pub engine_fallback: Option<FallbackReason>,
    /// Parallel windows the sharded engine opened: 0 for serial runs, at
    /// least 1 for a sharded run with anything to do, since every event
    /// of a sharded run executes inside a window. Tests use this to prove
    /// a job actually exercised barrier-synchronized parallel execution.
    pub sharded_windows: u64,
    /// Shards the sharded engine dealt the fabric into (one per worker,
    /// two at one worker, at most one per pod); 0 for serial runs.
    pub sharded_shards: u32,
    /// Packets handed from one shard replica to another (each crossed a
    /// link whose ends two shards own); 0 for serial runs.
    pub sharded_handoffs: u64,
    /// Windows that ran in two stretches: the run could end in them and
    /// some shard was done by their end, so the leader settled them at a
    /// second barrier crossing (the window that settles the run's end
    /// counts too). 0 for serial runs.
    pub sharded_split_windows: u64,
}

/// Why a run that asked for the sharded engine executed on the serial one:
/// the precondition of the conservative partition it does not meet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// Hybrid fidelity: a fluid flow's fair share reads every link on its
    /// path, across shards.
    HybridFidelity,
    /// Closed-loop chains: a completion on one shard would have to start
    /// the successor flow on another at the same instant.
    ChainedFlows,
    /// The fabric has fewer than two pods (leaves, on a leaf-spine), so it
    /// partitions into one shard however many workers run it.
    SingleShard,
    /// Some cross-shard link has zero propagation delay at some point of
    /// the run, so no window can be opened.
    ZeroLookahead,
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FallbackReason::HybridFidelity => "hybrid fidelity (fluid flows span shards)",
            FallbackReason::ChainedFlows => {
                "chained flows (completions start flows on other shards)"
            }
            FallbackReason::SingleShard => "the fabric has a single shard",
            FallbackReason::ZeroLookahead => "a cross-shard link with zero propagation delay",
        })
    }
}

impl RunReport {
    /// Mean long-flow goodput in bytes/second (completed long flows).
    pub fn long_throughput(&self) -> f64 {
        self.fct_long.mean_goodput
    }

    /// Mean utilization over all leaf uplinks.
    pub fn mean_uplink_utilization(&self) -> f64 {
        let all: Vec<f64> = self.uplink_utilization.iter().flatten().copied().collect();
        if all.is_empty() {
            0.0
        } else {
            all.iter().sum::<f64>() / all.len() as f64
        }
    }

    /// One-line human summary.
    pub fn one_line(&self) -> String {
        format!(
            "{:<10} short: afct={:.3}ms p99={:.3}ms miss={:.1}% | long: gput={:.1}Mbps reord={:.3}% | done {}/{}",
            self.scheme,
            self.fct_short.afct * 1e3,
            self.fct_short.p99 * 1e3,
            self.fct_short.deadline_miss * 100.0,
            self.long_throughput() * 8.0 / 1e6,
            self.long.reorder_ratio() * 100.0,
            self.completed,
            self.total_flows,
        )
    }

    /// Determinism digest: `events|short afct|long goodput|drops|marks|
    /// completed`, floats to 12 decimals. Two runs of the same job must
    /// agree on it whatever engine or thread count ran them;
    /// `benchmark/expected_digests.json` pins it per workload, and the
    /// tier-1 tests pin it per job.
    pub fn digest(&self) -> String {
        format!(
            "{}|{:.12}|{:.12}|{}|{}|{}",
            self.events,
            self.fct_short.afct,
            self.fct_long.mean_goodput,
            self.drops,
            self.marks,
            self.completed
        )
    }

    /// Order-sensitive FNV-1a fold of every flow's FCT, in flow order
    /// (the bits of [`FctRecorder::fct_of`], `u64::MAX` for a flow with
    /// none): unlike the digest's two class means, it moves when any one
    /// flow's completion time does.
    pub fn fct_hash(&self) -> u64 {
        (0..self.total_flows as u32)
            .map(|i| self.fct.fct_of(FlowId(i)).map_or(u64::MAX, f64::to_bits))
            .fold(0xcbf2_9ce4_8422_2325, |h, v| {
                (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
            })
    }

    /// Class summary accessor by enum.
    pub fn summary(&self, class: FlowClass) -> &FctSummary {
        match class {
            FlowClass::Short => &self.fct_short,
            FlowClass::Long => &self.fct_long,
        }
    }

    /// [`RunReport::events_by_class`] as one JSON object on one line,
    /// keys sorted.
    fn events_by_class_json(&self) -> String {
        let mut pairs: Vec<(&str, u64)> = EVENT_CLASSES
            .into_iter()
            .zip(self.events_by_class)
            .collect();
        pairs.sort_unstable();
        let rows: Vec<String> = pairs.iter().map(|(k, n)| format!("\"{k}\": {n}")).collect();
        format!("{{{}}}", rows.join(", "))
    }

    /// The run's result row as JSON — what `tlb-sim --json` prints: the
    /// paper's §6 metrics plus the run's totals, one key per line, sorted,
    /// two-space indent (`events_by_class` is one object, on its line).
    /// Floats print in Rust's shortest round-trip form
    /// (`{:?}`) and non-finite ones as `null`; the scheme name is a fixed
    /// ASCII word, so its `{:?}` quoting is its JSON string.
    pub fn to_json(&self) -> String {
        let num = |x: f64| {
            if x.is_finite() {
                format!("{x:?}")
            } else {
                "null".to_string()
            }
        };
        let fields = [
            ("completed", self.completed.to_string()),
            ("deadline_miss", num(self.fct_short.deadline_miss)),
            ("drops", self.drops.to_string()),
            ("events", self.events.to_string()),
            ("events_by_class", self.events_by_class_json()),
            ("long_goodput_bps", num(self.long_throughput())),
            ("long_reorder", num(self.long.reorder_ratio())),
            ("marks", self.marks.to_string()),
            (
                "mean_uplink_utilization",
                num(self.mean_uplink_utilization()),
            ),
            ("scheme", format!("{:?}", self.scheme)),
            ("short_afct_s", num(self.fct_short.afct)),
            ("short_p99_s", num(self.fct_short.p99)),
            ("short_reorder", num(self.short.reorder_ratio())),
            ("sim_end_s", num(self.sim_end.as_secs_f64())),
            ("total_flows", self.total_flows.to_string()),
            ("wall_ms", self.wall.as_millis().to_string()),
        ];
        let rows: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}", rows.join(",\n"))
    }
}
