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
//! | `portmap` | the port layout over the fabric's `tlb_net::Shape` (which owns the wiring and the climb-then-descend rule): port ids, `next_hop` in port ids, reach masks, port labels/hops, the shard partition | every module; none of them knows which fabric it is |
//! | `events` | the event vocabulary and its `(class, entity)` FEL ordering key | every module that pushes or pops the FEL |
//! | `link` | link physics: a port's props, what a `LinkEvent` does to them, every state a link reaches, the in-flight bound, payload capacity | build, `admin`, `hybrid`, `sharded` |
//! | `forward` | the per-packet switch path: admission, serialization, delivery pipes, the balancer decision, LB ticks | the event loop, `host`, `hybrid` (`choose_up`) |
//! | `host` | the endpoints: flow start, timers, sender outputs, receiver delivery, completion | the event loop, `forward`, `hybrid` |
//! | `admin` | scheduled link changes and failures, routing reconvergence | the event loop, on the serial engine and on every shard replica alike |
//! | `hybrid` | the fluid seam: migration, the completion heap and its one `FluidDone` timer, demotion — `Net::hybrid` is `Some` iff the run is hybrid | `host` (per ACK), `admin`, the event loop |
//! | `metrics` | the metric collectors, their build-time sizing, the shard fold and [`crate::RunReport`] assembly | the packet path writes them; `run_with`/`sharded` finish them |
//! | `finish` | closing the conservation audit, counting what is still on the wire | `metrics` (`into_report`), `sharded` (the fold) |
//! | `sharded` | the conservative multi-core engine over `Net` replicas | `run_with` |
//!
//! ## Failures
//!
//! [`crate::config::FailureEvent`]s flip ports administratively down/up at
//! their scheduled time: queued and in-service packets drain normally,
//! new admissions drop with ordinary accounting, and per-destination
//! reachability masks are recomputed so every LB decision sees only the
//! uplinks that can still reach the packet's destination group. Runs
//! without failure events never consult the masks and are bit-identical
//! to the historical static-fabric paths.
//!
//! ## Delivery pipes
//!
//! A link's port serializes packets one at a time and its wire is FIFO,
//! so arrival times per link are non-decreasing. Every packet occupies one
//! slot of `Net::arena` from its host's emission to its delivery or drop,
//! on one list at a time: its port's queue, that port's service slot, the
//! link's pipe, the next port's queue, and so on — moving on relinks the
//! slot and never copies the packet. A link's pipe is a
//! [`tlb_net::PacketFifo`] — two slot indices — holding the packets that
//! have left its port's serializer and not yet arrived
//! (`Net::schedule_arrival` is the one way on; `Net::wire_pkts` counts
//! them). Instead of one FEL entry per in-flight packet, a pipe
//! keeps at most one chained `Deliver` event in the FEL; popping it
//! delivers the head and re-arms the chain. That is exact, not an
//! approximation: the one live `Deliver` is the only event under its
//! port's arrival key, so the FEL's `(time, key, seq)` order places it
//! where the link's next arrival belongs among every other event, and
//! packets that reach the far end at the same instant leave the pipe in
//! the order they entered the wire. FEL occupancy is bounded by
//! O(ports + links + pending timers/starts) instead of O(packets in
//! flight); every engine's run loop enforces that bound whenever the
//! audit is on.

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
use events::{push_ev, Event, KEY_ENTITY_BITS};
use portmap::{PortMap, PortRef};
use slab::{Slab, SlabSlot};
use tlb_engine::{alloc_audit, EventQueue, SimRng, SimTime};
use tlb_net::{PacketArena, PacketFifo};
use tlb_switch::{LoadBalancer, OutPort, QueueCfg};
use tlb_transport::{SenderOutput, TcpReceiver, TcpSender};
use tlb_workload::FlowSpec;

/// An LB switch's control state (its ports live in the flat table).
struct LbSw {
    lb: AnyLb,
    rng: SimRng,
}

/// What the packet path indexes per flow. The endpoints themselves live
/// in `Net::senders` / `Net::receivers` only while they are open (DESIGN
/// §14, "Connection slabs").
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
    completed: bool,
    /// In [`SimConfig::trace_flows`].
    traced: bool,
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
        run_with(&self.cfg, &self.flows, self.next)
    }
}

/// The panicking entry points' way out of a failed job check.
pub(crate) fn or_panic<T>(checked: Result<T, ConfigError>) -> T {
    checked.unwrap_or_else(|e| panic!("invalid simulation configuration: {e}"))
}

/// What the driver indexes by without looking: flow `i` must carry id `i`
/// (the per-flow rows and the FCT recorder are dense tables), fit the
/// event key's entity bits, and name hosts the fabric has (`host_nic` is
/// the identity, so an out-of-range host would alias a switch port).
fn check_flow(i: usize, f: &FlowSpec, n_hosts: usize) -> Result<(), ConfigError> {
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
        check_flow(i, f, n_hosts)?;
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
    next_flow: Vec<Option<u32>>,
) -> RunReport {
    let wall_start = std::time::Instant::now();
    let mut engine_fallback = None;
    if let tlb_engine::EngineKind::Sharded { workers } = cfg.engine {
        match sharded::try_run(cfg, flows, &next_flow, workers, wall_start) {
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
    /// Per-link delivery pipes, parallel to `ports` (each port drives
    /// exactly one link): the packets crossing the link, oldest first,
    /// chained through `arena`. On a shard replica the ones in use are the
    /// links it receives, not the ports it owns.
    pipes: Vec<PacketFifo>,
    /// One balancer per LB switch (leaves, or edges then aggs).
    lb_sws: Vec<LbSw>,
    /// Whether any failure events are configured (constant per run):
    /// gates every mask lookup so failure-free runs never touch them.
    has_failures: bool,
    /// Per-(LB switch, destination group) usable-uplink masks, indexed
    /// `sw * pmap.n_groups() + group`. Empty unless `has_failures`.
    reach: Vec<u64>,
    /// Per-port FIFO floor: the latest arrival time already scheduled on
    /// each link. A mid-run propagation-delay *decrease* would otherwise
    /// let later packets overtake earlier ones on the same wire — links
    /// are FIFO, so arrivals clamp to this floor (a no-op whenever a
    /// link's delay never shrinks, which keeps legacy runs bit-identical).
    link_fifo: Vec<SimTime>,
    /// One row per flow of the job.
    rows: Vec<FlowRow>,
    /// The open connections' endpoints, each slab reserved at build for the
    /// flows whose src (senders) or dst (receivers) this `Net` hosts.
    senders: Slab<TcpSender>,
    receivers: Slab<TcpReceiver>,
    next_flow: Vec<Option<u32>>,
    n_completed: usize,
    q: EventQueue<Event>,
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
    // FEL-occupancy bound bookkeeping.
    /// `FlowStart` events pending in the FEL.
    starts_pending: u64,
    /// `Timer` events pending in the FEL.
    timers_live: u64,
    /// `LbTick`/`LinkChange`/`Failure`/`QueueSample` events pending in the
    /// FEL.
    misc_pending: u64,
    events: u64,
    /// Arrival events seen, for [`SimConfig::fault_drop_nth`].
    arrive_seen: u64,
    /// Ordering key of the event currently dispatching (trace tagging).
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
    shard: Option<sharded::ShardCtx>,
}

impl<'a> Net<'a> {
    fn build(
        cfg: &'a SimConfig,
        flows: &'a [FlowSpec],
        next_flow: Vec<Option<u32>>,
        shard: Option<sharded::ShardCtx>,
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
        // Size the FEL so steady state never reallocates: the occupancy is
        // bounded by the fabric (one `TxDone` plus one `Deliver` per port)
        // plus pending timers/starts. (The calendar reserves it once per
        // tier — the overflow heap, where the build-time bulk of
        // not-yet-started flows lands, the wheel's node pool and the
        // active bucket — and touches only as much of each as the run's
        // depth reaches.)
        let fel_cap = 2 * n + 2 * n_ports + 64;
        let rows: Vec<FlowRow> = flows
            .iter()
            .map(|f| FlowRow {
                total_segs: f.size_bytes.div_ceil(cfg.tcp.mss as u64) as u32,
                short: f.size_bytes < cfg.short_threshold,
                traced: cfg.trace_flows.contains(&f.id),
                ..FlowRow::default()
            })
            .collect();
        let hosts = |h: tlb_net::HostId| shard.as_ref().is_none_or(|c| c.owns_host(h.0));
        let has_failures = !cfg.failure_events.is_empty();
        let reach_len = if has_failures {
            pmap.n_lb as usize * pmap.n_groups()
        } else {
            0
        };

        let mut net = Net {
            m: metrics::Metrics::new(cfg, &rows, shard.is_some()),
            senders: Slab::with_capacity(flows.iter().filter(|f| hosts(f.src)).count()),
            receivers: Slab::with_capacity(flows.iter().filter(|f| hosts(f.dst)).count()),
            rows,
            has_failures,
            reach: vec![0u64; reach_len],
            lb_sws: (0..pmap.n_lb as u64)
                .map(|l| LbSw {
                    lb: cfg.scheme.build_static(l + 1),
                    rng: master_rng.fork(l),
                })
                .collect(),
            hybrid: (cfg.fidelity == FidelityKind::Hybrid)
                .then(|| hybrid::Hybrid::new(&cfg.tcp, &ports, n)),
            pmap,
            ports,
            pipes: vec![PacketFifo::default(); n_ports],
            next_flow,
            n_completed: 0,
            q: EventQueue::with_capacity(fel_cap),
            arena: PacketArena::with_capacity(arena_cap),
            wire_pkts: 0,
            wire_pkts_peak: 0,
            // The sender state machine bounds its per-call output (see
            // `TcpConfig::max_outputs_per_call`); the allocation audit
            // asserts this buffer never regrows.
            out_buf: Vec::with_capacity(cfg.tcp.max_outputs_per_call()),
            // The allocation audit is a serial-engine gate; replica
            // plumbing (inboxes, handoffs) is outside its contract.
            warmup_at: match (&shard, cfg.alloc_warmup_events) {
                (None, Some(w)) => w,
                _ => u64::MAX,
            },
            alloc_at_warmup: None,
            alloc_report: None,
            starts_pending: 0,
            timers_live: 0,
            misc_pending: 0,
            events: 0,
            link_fifo: vec![SimTime::ZERO; n_ports],
            audit: AuditLedger::new(cfg.audit),
            arrive_seen: 0,
            cur_key: 0,
            shard,
            cfg,
            flows,
        };
        net.seed_fel();
        if net.has_failures {
            // Seed the reachability masks from the (fully live) fabric so
            // an `Up`-leading schedule still sees consistent state.
            net.recompute_reach();
        }
        net
    }

    /// Push the events known at build: every owned chain head's start,
    /// the owned balancers' first ticks, the whole admin schedule — on
    /// every shard replica too: a link change or failure mutates only
    /// state each replica holds a full copy of, so each applies it to
    /// itself at the event's own `(time, key)` — and, on the serial engine
    /// or shard 0, the queue sampler.
    fn seed_fel(&mut self) {
        let cfg = self.cfg;
        let shard = self.shard.as_ref();
        // Only chain heads get their own start event; chained flows are
        // launched by their predecessor's completion.
        let mut is_chained = vec![false; self.flows.len()];
        for &nf in self.next_flow.iter().flatten() {
            is_chained[nf as usize] = true;
        }
        for (i, f) in self.flows.iter().enumerate() {
            if !is_chained[i] && shard.is_none_or(|c| c.owns_host(f.src.0)) {
                push_ev(&mut self.q, f.start, Event::FlowStart(i as u32));
                self.starts_pending += 1;
            }
        }
        for (l, sw) in self.lb_sws.iter().enumerate() {
            let Some(iv) = sw.lb.tick_interval() else {
                continue;
            };
            if shard.is_none_or(|c| c.owns_sw(l)) {
                push_ev(&mut self.q, iv, Event::LbTick { sw: l as u16 });
                self.misc_pending += 1;
                if l == 0 {
                    self.m.reserve_qth(cfg, iv);
                }
            }
        }
        for (i, ev) in cfg.link_events.iter().enumerate() {
            push_ev(&mut self.q, ev.at, Event::LinkChange(i as u32));
        }
        for (i, ev) in cfg.failure_events.iter().enumerate() {
            push_ev(&mut self.q, ev.at, Event::Failure(i as u32));
        }
        self.misc_pending += (cfg.link_events.len() + cfg.failure_events.len()) as u64;
        if cfg.sample_queues && shard.is_none_or(|c| c.id == 0) {
            push_ev(&mut self.q, cfg.series_bucket, Event::QueueSample);
            self.misc_pending += 1;
        }
    }

    /// Sample FEL occupancy once per this many processed events. The
    /// sample schedule depends only on the event count, which is identical
    /// across thread counts, so the samples are deterministic.
    const FEL_DEPTH_SAMPLE_EVERY: u64 = 4096;

    /// The FEL occupancy bound: at most one `TxDone` and one `Deliver` per
    /// port, plus every pending flow start, timer and housekeeping event,
    /// plus the fluid tier's completion timers (one live and rarely a few
    /// superseded ones — not one per rate change). Computed from counters
    /// the schedule alone decides, so its peak is deterministic.
    #[inline]
    fn fel_bound(&self) -> u64 {
        2 * self.ports.len() as u64
            + self.starts_pending
            + self.timers_live
            + self.misc_pending
            + self.hybrid.as_ref().map_or(0, |h| h.events_pending)
    }

    fn run_loop(&mut self) {
        let horizon = self.cfg.horizon;
        while self.n_completed < self.flows.len() {
            // Peek before popping: an event past the horizon must stay in
            // the queue (end-of-run accounting counts it as in flight) and
            // must not advance the clock past the horizon (it would inflate
            // `sim_end` and every rate derived from it).
            match self.q.peek_time() {
                Some(t) if t <= horizon => {}
                _ => break, // queue empty, or nothing left before the horizon
            }
            self.step();
        }
        self.close_alloc_window();
    }

    /// Pop and dispatch one event — the shared body of the serial loop,
    /// the sharded window loop, and the coordinator's tail.
    fn step(&mut self) {
        let (now, ev) = self.q.pop().expect("peeked event vanished");
        self.events += 1;
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
                hy.check_timer();
            }
        }
        self.cur_key = events::event_key(&ev);
        match ev {
            Event::FlowStart(i) => {
                self.starts_pending -= 1;
                self.on_flow_start(i, now);
            }
            Event::TxDone(p) => self.on_tx_done(p, now),
            Event::Deliver(p) => self.on_deliver(p, now),
            Event::Timer { flow } => {
                self.timers_live -= 1;
                self.on_timer(flow, now);
            }
            Event::LbTick { sw } => {
                self.misc_pending -= 1;
                self.on_lb_tick(sw, now);
            }
            Event::LinkChange(i) => {
                self.admin_event_popped();
                self.on_link_change(i as usize, now);
            }
            Event::Failure(i) => {
                self.admin_event_popped();
                self.on_failure(i as usize, now);
            }
            Event::QueueSample => {
                self.misc_pending -= 1;
                self.on_queue_sample(now);
            }
            Event::FluidDone { flow, gen } => self.on_fluid_done(flow, gen, now),
        }
    }

    /// Bookkeeping shared by the two admin arms of [`Net::step`]. Every
    /// shard replica pops its own copy of an admin event; the run counts
    /// it once, on shard 0, so `events` is the serial engine's.
    fn admin_event_popped(&mut self) {
        self.misc_pending -= 1;
        if self.shard.as_ref().is_some_and(|c| c.id != 0) {
            self.events -= 1;
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
