//! The event-driven network: forwarding, serialization, endpoints, metrics.
//!
//! All output queues ([`tlb_switch::OutPort`]) live in one flat table laid
//! out by `portmap::PortMap`; a packet crosses
//! `host NIC → (LB uplinks, climbing) → (downlinks, descending) → host`,
//! consulting a [`tlb_switch::LoadBalancer`] at every LB switch it climbs.
//! This file owns the run itself — [`Simulation`], the job check, the
//! `Net` state, its build and the event loop. Every other decision has
//! exactly one owning module:
//!
//! | module | the one decision it owns | called from |
//! |---|---|---|
//! | `portmap` | the port layout over the fabric's `tlb_net::Shape` (which owns the wiring and the climb-then-descend rule): port ids, `next_hop` in port ids, reach masks, port labels/hops, the shard partition (pods dealt into one contiguous group per worker) | every module; none of them knows which fabric it is |
//! | `events` | the event vocabulary: an event is its `(class, entity)` ordering key, and nothing else, in the FEL, the build-time schedule and the completion heap alike | every module that pushes an event; `Net::step`'s one `match` |
//! | `link` | link physics: a port's props, an uplink's port pair, every state a link reaches over the admin schedule, the in-flight bound, payload capacity | build, `admin`, `hybrid`, `sharded` |
//! | `forward` | the per-packet switch path: admission, serialization, delivery pipes and their FIFO floor (the pipe's tail), the balancer decision, LB ticks | the event loop, `host`, `hybrid` (`choose_up`), `sharded` (`schedule_arrival`) |
//! | `host` | the endpoints: flow start, timers, sender outputs, receiver delivery, completion | the event loop, `forward`, `hybrid` |
//! | `admin` | the admin schedule's one handler: rate changes, failures and repairs, routing reconvergence | the event loop, on the serial engine and on every shard replica alike |
//! | `hybrid` | the fluid seam: migration, the completion heap — one of the run's three event sources, merged with the FEL head and the build-time schedule by `Net::peek` — and demotion; `Net::hybrid` is `Some` iff the run is hybrid | `host` (per ACK), `admin`, the event loop |
//! | `metrics` | the metric collectors, their build-time sizing, the shard fold and [`crate::RunReport`] assembly | the packet path writes them; `run_with`/`sharded` finish them |
//! | `finish` | closing the conservation audit, counting what is still on the wire | `metrics` (`into_report`), `sharded` (the fold) |
//! | `sharded` | the conservative multi-core engine over `Net` replicas: the partition, each replica's `ShardCtx` (its handoff buckets, the flows it receives and the leader's limit for its next stretch), the window protocol with its leader, which finds the run's last event once a window has run, and its four refusals | `run_with` |
//!
//! ## Failures
//!
//! An [`crate::config::AdminEvent`] whose change is `Down` or `Up` flips
//! ports administratively down/up at its scheduled time: queued and
//! in-service packets drain normally, new admissions drop with ordinary
//! accounting, and per-destination reachability masks are recomputed so
//! every LB decision sees only the uplinks that can still reach the
//! packet's destination group. Runs whose schedule takes nothing down or
//! up ([`SimConfig::has_failures`]) keep no masks, never consult them and
//! are bit-identical to the historical static-fabric paths.
//!
//! ## Delivery pipes
//!
//! A link's port serializes packets one at a time and its wire is FIFO,
//! so arrival times per link are non-decreasing. Every packet occupies one
//! slot of `Net::arena` from its host's emission to its delivery or drop,
//! on one list at a time: its port's queue, the link's pipe, the next
//! port's queue, and so on — moving on relinks the slot and never copies
//! the packet. A link's pipe is a [`tlb_net::PacketFifo`] — two slot
//! indices — holding the packets that have started serializing onto the
//! link and not yet arrived: a packet departs its port as its
//! serialization starts (`Net::schedule_arrival` is the one way on;
//! `Net::wire_pkts` counts them), and the port keeps only the time its
//! serializer is busy until. A port has no event of its own: a packet that
//! waits departs lazily where its serialization starts, on the next read
//! of the port ordered after that instant (`Net::advance`; DESIGN §13).
//! Instead of one FEL entry per in-flight packet, a pipe keeps at most
//! one chained `ARRIVAL` event in the FEL; popping it delivers the head
//! and re-arms the chain. That is exact, not an approximation: the one
//! live `ARRIVAL` is the only event under its port's arrival key, so the
//! FEL's `(time, key, seq)` order places it where the link's next arrival
//! belongs among every other event, and packets that reach the far end at
//! the same instant leave the pipe in the order they entered the wire. FEL occupancy is bounded by
//! O(ports + pending timers) instead of O(packets in flight);
//! every engine's run loop enforces that bound whenever the audit is on.
//! What is known at build — chain heads' starts, the admin schedule,
//! first ticks and samples — never enters the FEL: it waits in
//! `Net::sched`, a sorted list the run loop reads as a third event
//! source. A chained successor's start joins it at its predecessor's
//! completion, as the run's next event, so no flow start is ever an FEL
//! event.

mod admin;
mod events;
mod finish;
mod forward;
mod host;
mod hybrid;
mod link;
mod metrics;
mod portmap;
mod sharded;
mod slab;
#[cfg(test)]
mod tests;

use crate::audit::AuditLedger;
use crate::config::{ConfigError, FidelityKind, SimConfig};
use crate::dispatch::AnyLb;
use crate::report::{AllocAudit, RunReport};
use events::{class, key_of, KEY_ENTITY_BITS};
use portmap::{PortMap, PortRef};
use slab::{Slab, SlabSlot};
use tlb_engine::{alloc_audit, EventQueue, SimRng, SimTime};
use tlb_net::{PacketArena, PacketFifo};
use tlb_switch::{LoadBalancer, OutPort, QueueCfg};
use tlb_transport::{SenderOutput, TcpReceiver, TcpSender};
use tlb_workload::FlowSpec;

/// The engine's event classes by name, in same-instant dispatch order:
/// the names [`RunReport::events_by_class`] counts under.
pub use events::class::NAMES as EVENT_CLASSES;

/// An LB switch's control state (its ports live in the flat table).
struct LbSw {
    lb: AnyLb,
    rng: SimRng,
    /// No packet waiting at one of its uplinks starts before this: the
    /// least of their `Net::head_start`s when [`Net::advance_uplinks`]
    /// last passed over them, lowered as packets queue there. A head's
    /// start only ever moves later.
    up_due: SimTime,
}

/// What the packet path indexes per flow, and all a flow leaves for the
/// report: whether it started and when it completed, from which
/// [`Net::into_report`] builds its FCT record. The endpoints themselves
/// live in `Net::senders` / `Net::receivers` only while they are open
/// (DESIGN §14, "Connection slabs").
#[derive(Clone, Copy, Default)]
struct FlowRow {
    /// Segments the receiver must deliver in order (the hybrid seam
    /// shrinks it at migration and regrows it at demotion).
    total_segs: u32,
    /// From the flow's start until its sender emits `Finished`.
    sender: Option<SlabSlot>,
    /// From the first SYN to arrive until the flow completes.
    receiver: Option<SlabSlot>,
    /// Short/long classification, fixed at build.
    short: bool,
    /// Its `FLOW_START` ran: at [`FlowSpec::start`] for a chain head, at
    /// its predecessor's `end` for a chained successor.
    started: bool,
    completed: bool,
    /// In [`SimConfig::trace_flows`].
    traced: bool,
    /// When the flow completed; meaningful iff `completed`.
    end: SimTime,
}

/// One configured simulation, ready to run.
pub struct Simulation {
    cfg: SimConfig,
    flows: Vec<FlowSpec>,
    /// `next[i] = Some(j)`: flow `j` starts when flow `i` completes
    /// (closed-loop chains). Chain heads start at their `start` time;
    /// chained flows' `start` fields are ignored.
    next: Vec<Option<u32>>,
}

impl Simulation {
    /// Configure a simulation over the given flow set (all flows start at
    /// their `start` time).
    ///
    /// # Panics
    ///
    /// With `invalid simulation configuration: …` where
    /// [`Simulation::try_new`] returns the error.
    pub fn new(cfg: SimConfig, flows: Vec<FlowSpec>) -> Simulation {
        or_panic(Simulation::try_new(cfg, flows))
    }

    /// [`Simulation::new`], with a job that cannot run as a typed error.
    pub fn try_new(cfg: SimConfig, flows: Vec<FlowSpec>) -> Result<Simulation, ConfigError> {
        let next = vec![None; flows.len()];
        Simulation::try_new_chained(cfg, flows, next)
    }

    /// Configure a closed-loop simulation: `next[i] = Some(j)` makes flow
    /// `j` start back-to-back when flow `i` delivers its last byte — the
    /// way a request/response client keeps a sustained number of flows in
    /// flight. Chained flows must not also have their own start event, so
    /// every index that appears as someone's `next` is launched only by its
    /// predecessor.
    ///
    /// # Panics
    ///
    /// With `invalid simulation configuration: …` where
    /// [`Simulation::try_new_chained`] returns the error.
    pub fn new_chained(cfg: SimConfig, flows: Vec<FlowSpec>, next: Vec<Option<u32>>) -> Simulation {
        or_panic(Simulation::try_new_chained(cfg, flows, next))
    }

    /// [`Simulation::new_chained`], with a job that cannot run as a typed
    /// error.
    pub fn try_new_chained(
        cfg: SimConfig,
        flows: Vec<FlowSpec>,
        next: Vec<Option<u32>>,
    ) -> Result<Simulation, ConfigError> {
        check_job(&cfg, &flows, &next)?;
        Ok(Simulation { cfg, flows, next })
    }

    /// Run to completion (all flows done or horizon reached) and report.
    pub fn run(self) -> RunReport {
        run_with(&self.cfg, &self.flows, &self.next)
    }
}

/// The panicking entry points' way out of a failed job check.
pub(crate) fn or_panic<T>(checked: Result<T, ConfigError>) -> T {
    checked.unwrap_or_else(|e| panic!("invalid simulation configuration: {e}"))
}

/// What the driver indexes by without looking: flow `i` must carry id `i`
/// (the per-flow rows and the FCT records are dense tables), fit the
/// event key's entity bits, and name hosts the fabric has (`host_nic` is
/// the identity, so an out-of-range host would alias a switch port). Its
/// size must be 1 to `u32::MAX` segments of `mss`: the sender and the
/// flow row count segments in a `u32`.
fn check_flow(i: usize, f: &FlowSpec, n_hosts: usize, mss: u64) -> Result<(), ConfigError> {
    if i >= 1 << KEY_ENTITY_BITS {
        return Err(ConfigError::FlowIndexOverflowsKey {
            index: i,
            key_bits: KEY_ENTITY_BITS,
        });
    }
    if f.id.index() != i {
        return Err(ConfigError::FlowIdNotDense {
            index: i,
            id: f.id.0,
        });
    }
    if f.size_bytes == 0 {
        return Err(ConfigError::ZeroSizeFlow { index: i });
    }
    if f.size_bytes > u64::from(u32::MAX) * mss {
        return Err(ConfigError::FlowTooLarge {
            index: i,
            size_bytes: f.size_bytes,
            mss,
        });
    }
    for (field, h) in [("src", f.src), ("dst", f.dst)] {
        if h.index() >= n_hosts {
            return Err(ConfigError::FlowHostOutOfRange {
                index: i,
                field,
                host: h.index(),
                n_hosts,
            });
        }
    }
    Ok(())
}

/// The job check every entry point ([`Simulation::try_new_chained`] and
/// what lands in it, [`crate::runner::run_one_ref`]) runs before anything
/// is built: the configuration, every flow ([`check_flow`]), and the chain
/// pointers (one per flow, in range, and no flow the successor of two).
pub(crate) fn check_job(
    cfg: &SimConfig,
    flows: &[FlowSpec],
    next: &[Option<u32>],
) -> Result<(), ConfigError> {
    cfg.validate()?;
    let n_hosts = cfg.topo.n_hosts();
    for (i, f) in flows.iter().enumerate() {
        check_flow(i, f, n_hosts, cfg.tcp.mss as u64)?;
    }
    if next.len() != flows.len() {
        return Err(ConfigError::ChainLength {
            flows: flows.len(),
            next: next.len(),
        });
    }
    // The successor bitmap is only needed once something is chained.
    let mut chained: Vec<bool> = Vec::new();
    for (flow, &n) in next.iter().enumerate() {
        let Some(next) = n.map(|n| n as usize) else {
            continue;
        };
        if next >= flows.len() {
            return Err(ConfigError::ChainOutOfRange { flow, next });
        }
        chained.resize(flows.len(), false);
        if std::mem::replace(&mut chained[next], true) {
            return Err(ConfigError::ChainedTwice { flow: next });
        }
    }
    Ok(())
}

/// Run one checked job over borrowed inputs. [`Simulation::run`] and the
/// clone-free [`crate::runner::run_one_ref`] both land here.
pub(crate) fn run_with(
    cfg: &SimConfig,
    flows: &[FlowSpec],
    next_flow: &[Option<u32>],
) -> RunReport {
    let wall_start = std::time::Instant::now();
    let mut engine_fallback = None;
    if let tlb_engine::EngineKind::Sharded { workers } = cfg.engine {
        match sharded::try_run(cfg, flows, next_flow, workers, wall_start) {
            Ok(report) => return report,
            // A precondition is unmet: the serial engine is the sharded
            // engine's own fallback, digest-identical by definition.
            Err(why) => engine_fallback = Some(why),
        }
    }
    let mut net = Net::build(cfg, flows, next_flow, None);
    net.run_loop();
    let mut report = net.into_report(wall_start.elapsed());
    report.engine_fallback = engine_fallback;
    report
}

struct Net<'a> {
    cfg: &'a SimConfig,
    flows: &'a [FlowSpec],
    pmap: PortMap,
    /// Every output queue in the fabric, laid out per [`PortMap`].
    ports: Vec<OutPort>,
    /// Per port, when the head of its queue starts serializing: its
    /// `busy_until` while a packet waits, `SimTime::MAX` while none does.
    /// Kept beside `ports`, dense, because [`Net::advance`] reads it at
    /// every arrival and every balancer view, mostly to find nothing due;
    /// `Net::enqueue` and `Net::start_tx` keep it.
    head_start: Vec<SimTime>,
    /// Per-link delivery pipes, parallel to `ports` (each port drives
    /// exactly one link): the packets crossing the link, oldest first,
    /// chained through `arena`. On a shard replica the ones in use are the
    /// links it receives, not the ports it owns.
    pipes: Vec<PacketFifo>,
    /// One balancer per LB switch (leaves, or edges then aggs).
    lb_sws: Vec<LbSw>,
    /// Per-(LB switch, destination group) usable-uplink masks, indexed
    /// `sw * pmap.n_groups() + group`. Empty unless
    /// [`SimConfig::has_failures`]; an empty table gates every mask
    /// lookup off, so failure-free runs never touch it.
    reach: Vec<u64>,
    /// One row per flow of the job.
    rows: Vec<FlowRow>,
    /// The open connections' endpoints, each slab reserved at build for the
    /// flows whose src (senders) or dst (receivers) this `Net` hosts.
    senders: Slab<TcpSender>,
    receivers: Slab<TcpReceiver>,
    /// The job's chain table (see [`Simulation::new_chained`]), borrowed:
    /// every shard replica reads the one the caller holds.
    next_flow: &'a [Option<u32>],
    n_completed: usize,
    /// The future-event list. An entry is its `(time, key)`; the key is
    /// the whole event (see [`events`]).
    q: EventQueue<()>,
    /// The events known at build, sorted descending so the next is last:
    /// the owned chain heads' starts, the owned balancers' first ticks,
    /// the whole admin schedule and the first queue sample. The run's
    /// third event source beside the FEL and the completion heap. Only a
    /// chained successor's start joins it later, on the end, as the run's
    /// next event ([`Net::complete`]).
    sched: Vec<(SimTime, u32)>,
    /// Where every packet is from its host's emission to its delivery or
    /// drop — queued at a port, serializing, or crossing a link: one slab
    /// for the whole fabric, reserved once at build for
    /// [`link::packet_bound`] and touched only as deep as the fabric ever
    /// filled.
    arena: PacketArena,
    /// Packets on the pipes now (crossing links), and the most there ever
    /// were: [`RunReport::wire_pkts_peak`].
    wire_pkts: usize,
    wire_pkts_peak: usize,
    out_buf: Vec<SenderOutput>,
    /// Event count at which to capture the allocation-audit baseline
    /// (`u64::MAX` = off; sharded replicas never arm it).
    warmup_at: u64,
    /// Allocation counters captured when `events` crossed `warmup_at`
    /// (see [`SimConfig::alloc_warmup_events`]).
    alloc_at_warmup: Option<alloc_audit::AllocCounters>,
    /// Steady-state allocation report, filled at run-loop exit.
    alloc_report: Option<AllocAudit>,
    /// Events pending in the FEL that are not a link's `ARRIVAL`: timers,
    /// later LB ticks and later queue samples — the schedule-decided term
    /// of [`Net::fel_bound`].
    other_pending: u64,
    /// The run's clock: the time of the last event from either source
    /// ([`Net::peek`]). A tail completion leaves the FEL's own clock
    /// where it was, so this, not `q.now()`, is when the run stopped.
    now: SimTime,
    /// The latest start of any departure so far: a packet that waited
    /// starts at no event, so a run the horizon cuts reads its clock off
    /// this as well as `now` ([`Net::end_of_run`]).
    last_start: SimTime,
    events: u64,
    /// `events` by class rank: [`events::class::EVENTS`] index it, and
    /// the departure rank stays 0.
    events_by_rank: [u64; 8],
    /// Unit-test fault injection: the arrival this many arrivals from now
    /// vanishes without any accounting layer hearing of it — the
    /// simulator bug the conservation audit exists to catch.
    #[cfg(test)]
    lose_arrival: Option<u64>,
    /// Unit-test fault injection: the event with this count panics, as a
    /// bug inside one shard replica's window would.
    #[cfg(test)]
    panic_at_event: Option<u64>,
    /// Ordering key of the event currently dispatching (trace tagging);
    /// with `now`, the last event this `Net` ran, which is how the sharded
    /// engine's leader finds where the run ends.
    cur_key: u32,
    /// Everything the run measures (see [`metrics`]).
    m: metrics::Metrics,
    /// Packet-lifecycle ledger (no-op unless [`SimConfig::audit`]).
    audit: AuditLedger,
    /// The fluid tier: `Some` iff the run uses [`FidelityKind::Hybrid`]
    /// (see [`hybrid`]).
    hybrid: Option<hybrid::Hybrid>,
    /// Sharded-engine context: `Some` iff this `Net` is one shard's
    /// replica of the fabric (see [`sharded`]). Serial runs never set it
    /// and every sharded hook is gated on it.
    shard: Option<sharded::ShardCtx<'a>>,
}

impl<'a> Net<'a> {
    fn build(
        cfg: &'a SimConfig,
        flows: &'a [FlowSpec],
        next_flow: &'a [Option<u32>],
        shard: Option<sharded::ShardCtx<'a>>,
    ) -> Net<'a> {
        let mut master_rng = SimRng::new(cfg.seed);
        let pmap = PortMap::new(&cfg.topo);
        let n_ports = pmap.n_ports();
        let ports: Vec<OutPort> = (0..n_ports as u32)
            .map(|p| {
                let qcfg = match pmap.decode(p) {
                    PortRef::HostNic(_) => cfg.host_queue,
                    _ => cfg.queue,
                };
                // A replica never enqueues on a port another shard owns:
                // it keeps the link props and the admin flag every
                // replica's `recompute_reach` reads, and no queue.
                let qcfg = match &shard {
                    Some(ctx) if ctx.map.port_owner[p as usize] != ctx.id => QueueCfg {
                        capacity_pkts: 0,
                        ..qcfg
                    },
                    _ => qcfg,
                };
                OutPort::shared(link::base_props(&cfg.topo, &pmap, p), qcfg)
            })
            .collect();
        // The arena's one reservation, which is what keeps its slab out of
        // the steady-state allocation gate.
        let arena_cap = link::packet_bound(cfg, &pmap, &ports);

        let n = flows.len();
        let hosts = |h: tlb_net::HostId| shard.as_ref().is_none_or(|c| c.owns_host(h.0));
        let n_senders = flows.iter().filter(|f| hosts(f.src)).count();
        let owned_lb = (0..pmap.n_lb as usize)
            .filter(|&l| shard.as_ref().is_none_or(|c| c.owns_sw(l)))
            .count();
        // Size the FEL to the most `fel_bound` can reach, so steady state
        // never reallocates: an `ARRIVAL` per port, one timer per sender
        // this `Net` hosts, one tick per LB switch it owns, one queue
        // sample. No flow start enters it, so a shard
        // replica reserves for its own partition. (The calendar reserves
        // it once per tier — the overflow heap, the wheel's node pool and
        // the active bucket — and touches only as much of each as the
        // run's depth reaches.)
        let fel_cap = n_ports + n_senders + owned_lb + 1;
        let rows: Vec<FlowRow> = flows
            .iter()
            .map(|f| FlowRow {
                total_segs: f.size_bytes.div_ceil(cfg.tcp.mss as u64) as u32,
                short: f.size_bytes < cfg.short_threshold,
                traced: cfg.trace_flows.contains(&f.id),
                ..FlowRow::default()
            })
            .collect();
        let reach_len = if cfg.has_failures() {
            pmap.n_lb as usize * pmap.n_groups()
        } else {
            0
        };

        let mut net = Net {
            m: metrics::Metrics::new(cfg, &rows, shard.is_some()),
            senders: Slab::with_capacity(n_senders),
            receivers: Slab::with_capacity(flows.iter().filter(|f| hosts(f.dst)).count()),
            rows,
            reach: vec![0u64; reach_len],
            lb_sws: (0..pmap.n_lb as u64)
                .map(|l| LbSw {
                    lb: cfg.scheme.build_static(l + 1),
                    rng: master_rng.fork(l),
                    up_due: SimTime::MAX,
                })
                .collect(),
            hybrid: (cfg.fidelity == FidelityKind::Hybrid)
                .then(|| hybrid::Hybrid::new(&cfg.tcp, &ports, n)),
            pmap,
            ports,
            head_start: vec![SimTime::MAX; n_ports],
            pipes: vec![PacketFifo::default(); n_ports],
            next_flow,
            n_completed: 0,
            q: EventQueue::with_capacity(fel_cap),
            sched: Vec::new(),
            arena: PacketArena::with_capacity(arena_cap),
            wire_pkts: 0,
            wire_pkts_peak: 0,
            // The sender state machine bounds its per-call output (see
            // `TcpConfig::max_outputs_per_call`); the allocation audit
            // asserts this buffer never regrows.
            out_buf: Vec::with_capacity(cfg.tcp.max_outputs_per_call()),
            // The allocation audit is a serial-engine gate; replica
            // plumbing (handoff buckets) is outside its contract.
            warmup_at: match (&shard, cfg.alloc_warmup_events) {
                (None, Some(w)) => w,
                _ => u64::MAX,
            },
            alloc_at_warmup: None,
            alloc_report: None,
            other_pending: 0,
            now: SimTime::ZERO,
            last_start: SimTime::ZERO,
            events: 0,
            events_by_rank: [0; 8],
            audit: AuditLedger::new(cfg.audit),
            #[cfg(test)]
            lose_arrival: None,
            #[cfg(test)]
            panic_at_event: None,
            cur_key: 0,
            shard,
            cfg,
            flows,
        };
        net.seed_sched();
        if !net.reach.is_empty() {
            // Seed the reachability masks from the (fully live) fabric so
            // an `Up`-leading schedule still sees consistent state.
            net.recompute_reach();
        }
        net
    }

    /// Fill [`Net::sched`] with the events known at build: every owned
    /// chain head's start, the owned balancers' first ticks, the whole
    /// admin schedule — on every shard replica too: an admin event
    /// mutates only state each replica holds a full copy of, so
    /// each applies it to itself at the event's own `(time, key)` — and,
    /// on the serial engine or shard 0, the queue sampler. No two entries
    /// share a `(time, key)`, so one sort orders any job.
    fn seed_sched(&mut self) {
        let cfg = self.cfg;
        let shard = self.shard.as_ref();
        // Only chain heads start from the schedule; chained flows are
        // launched by their predecessor's completion.
        let mut is_chained = vec![false; self.flows.len()];
        for &nf in self.next_flow.iter().flatten() {
            is_chained[nf as usize] = true;
        }
        let sched = &mut self.sched;
        // Every flow, not just the heads: a chained successor's start
        // joins later, at most one at a time (`Net::complete`).
        sched.reserve_exact(self.flows.len() + self.lb_sws.len() + cfg.admin_events.len() + 1);
        for (i, f) in self.flows.iter().enumerate() {
            if !is_chained[i] && shard.is_none_or(|c| c.owns_host(f.src.0)) {
                sched.push((f.start, key_of(class::FLOW_START, i as u32)));
            }
        }
        for (l, sw) in self.lb_sws.iter().enumerate() {
            let Some(iv) = sw.lb.tick_interval() else {
                continue;
            };
            if shard.is_none_or(|c| c.owns_sw(l)) {
                sched.push((iv, key_of(class::LB_TICK, l as u32)));
                if l == 0 {
                    self.m.reserve_qth(cfg, iv);
                }
            }
        }
        for (i, ev) in cfg.admin_events.iter().enumerate() {
            sched.push((ev.at, key_of(class::ADMIN, i as u32)));
        }
        if cfg.sample_queues && shard.is_none_or(|c| c.id == 0) {
            sched.push((cfg.series_bucket, key_of(class::QUEUE_SAMPLE, 0)));
        }
        sched.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Sample FEL occupancy once per this many processed events. The
    /// sample schedule depends only on the event count, which is identical
    /// across thread counts, so the samples are deterministic.
    const FEL_DEPTH_SAMPLE_EVERY: u64 = 4096;

    /// The FEL occupancy bound: at most one `ARRIVAL` per port (no
    /// departure is an event), plus every other event pending in the FEL.
    /// Computed from a counter the schedule alone decides, so its peak is
    /// deterministic.
    #[inline]
    fn fel_bound(&self) -> u64 {
        self.ports.len() as u64 + self.other_pending
    }

    /// `(time, key)` of the run's next event, over its three sources: the
    /// FEL head, the schedule's next entry and, under hybrid fidelity, the
    /// earliest projected tail completion in the seam's heap
    /// ([`hybrid::Hybrid::next_done`]). No `(time, key)` is held by two of
    /// them: completions have a class of their own, the highest, so a tail
    /// loses every same-instant tie; a key the schedule holds re-enters
    /// the FEL, if at all, only at a later time.
    #[inline]
    fn peek(&self) -> Option<(SimTime, u32)> {
        let next = earlier(self.q.peek_time_key(), self.sched.last().copied());
        match &self.hybrid {
            Some(hy) => earlier(next, hy.next_done()),
            None => next,
        }
    }

    fn run_loop(&mut self) {
        let horizon = self.cfg.horizon;
        while self.n_completed < self.flows.len() {
            // Peek before popping: an event past the horizon must stay
            // pending (end-of-run accounting counts it as in flight) and
            // must not advance the clock past the horizon (it would inflate
            // `sim_end` and every rate derived from it).
            match self.peek() {
                Some(next) if next.0 <= horizon => self.step(next),
                _ => break, // nothing pending, or nothing left before the horizon
            }
        }
        self.close_alloc_window();
    }

    /// Take `next`, the [`Net::peek`] minimum the caller has just read,
    /// from its source and dispatch it — the shared body of the serial
    /// loop and the sharded window loop. Only FEL pops move the FEL's
    /// clock: the calendar windows every insert on that clock and promotes
    /// only as it pops. A tail completion leaves the seam's heap in
    /// [`Net::on_fluid_done`].
    fn step(&mut self, next: (SimTime, u32)) {
        debug_assert_eq!(self.peek(), Some(next), "step on an event that is not next");
        let (now, key) = next;
        let cls = events::class_of(key);
        // Arrivals come from the FEL alone, so the per-packet path never
        // reads the schedule here.
        if cls == class::ARRIVAL {
            self.q.pop().expect("peeked event vanished");
        } else if self.sched.last() == Some(&next) {
            self.sched.pop();
        } else if cls != class::FLUID_DONE {
            self.q.pop().expect("peeked event vanished");
            self.other_pending -= 1;
        }
        self.now = now;
        self.events += 1;
        self.events_by_rank[cls as usize] += 1;
        #[cfg(test)]
        assert_ne!(self.panic_at_event, Some(self.events), "injected fault");
        if self.events == self.warmup_at {
            self.alloc_at_warmup = Some(alloc_audit::counters());
        }
        if self.events.is_multiple_of(Self::FEL_DEPTH_SAMPLE_EVERY) {
            self.m.fel_depth.push(self.q.len() as f64);
            let bound = self.fel_bound();
            self.m.fel_bound_peak = self.m.fel_bound_peak.max(bound);
            // The occupancy oracle: the FEL stays within the fabric-sized
            // bound, on the serial engine and on every shard replica alike.
            if self.cfg.audit {
                assert!(
                    self.q.len() as u64 <= bound,
                    "FEL occupancy {} exceeds the pipelined bound {bound}",
                    self.q.len(),
                );
            }
            if let Some(hy) = self.hybrid.as_ref().filter(|_| self.cfg.audit) {
                hy.check_residents();
            }
        }
        self.cur_key = key;
        let entity = events::entity_of(key);
        match cls {
            class::FLOW_START => self.on_flow_start(entity, now),
            class::TIMER => self.on_timer(entity, now),
            class::ARRIVAL => self.on_deliver(entity, now),
            class::LB_TICK => self.on_lb_tick(entity as u16, now),
            class::QUEUE_SAMPLE => self.on_queue_sample(now),
            class::ADMIN => {
                // Every shard replica pops its own copy of an admin event;
                // the run counts it once, on shard 0, so `events` is the
                // serial engine's.
                if self.shard.as_ref().is_some_and(|c| c.id != 0) {
                    self.events -= 1;
                    self.events_by_rank[cls as usize] -= 1;
                }
                self.on_admin(entity as usize, now);
            }
            class::FLUID_DONE => self.on_fluid_done(now),
            _ => unreachable!("no event class {cls}"),
        }
    }

    /// Close the allocation-audit window at run-loop exit, *before* the
    /// reporting/audit phase — end-of-run summarization is allowed to
    /// allocate; the steady-state invariant covers event processing
    /// only. The probe runs after the final read so it cannot pollute
    /// the delta.
    fn close_alloc_window(&mut self) {
        if let Some(start) = self.alloc_at_warmup.take() {
            let d = start.delta(alloc_audit::counters());
            self.alloc_report = Some(AllocAudit {
                warmup_events: self.warmup_at,
                steady_events: self.events.saturating_sub(self.warmup_at),
                counting: alloc_audit::probe_counting(),
                allocs: d.allocs,
                reallocs: d.reallocs,
                deallocs: d.deallocs,
                bytes: d.bytes,
            });
        }
    }
}

/// The earlier of two optional `(time, key)` heads.
#[inline]
fn earlier(a: Option<(SimTime, u32)>, b: Option<(SimTime, u32)>) -> Option<(SimTime, u32)> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        _ => a.or(b),
    }
}
