//! Deterministic multi-core execution of a single simulation via
//! conservative fabric sharding.
//!
//! One simulation is split into **shards** — per-pod for fat trees,
//! per-leaf for leaf-spine fabrics, hosts colocated with their edge/leaf
//! switch — each a replica of the [`super::Net`] state that touches only
//! its own entities: its switches' ports, its hosts' senders/receivers,
//! the links it receives, its slice of the FEL. A replica reserves arena
//! slots for the queues of the ports it owns only (the others keep their
//! link props and admin flag, which every replica's `recompute_reach`
//! reads, and a capacity of 0), its arena pages in only the packets queued
//! at its own ports and crossing its own links, and its connection slabs
//! hold only the endpoints of the flows it hosts while they are open;
//! what it still duplicates per shard is one `FlowRow` and one FCT record
//! per flow of the job, the FEL reservation and the metric collectors.
//! Shards advance in
//! barrier-synchronized **windows** bounded by the conservative lookahead
//! `Δ` = the minimum propagation delay over any cross-shard link (folded
//! over the whole [`crate::config::LinkEvent`] schedule): an event a shard
//! executes at time `t` can only influence another shard at `t + Δ` or
//! later, so every shard may freely run `[T, T + Δ)` where `T` is the
//! global minimum pending timestamp. Cross-shard packets travel as
//! [`XMsg`] handoffs through per-shard inboxes; between windows the
//! coordinator folds the earliest within-horizon arrival parked in each
//! inbox into `T` (the null-message horizon update of classic
//! conservative PDES, carried on the data path), reading the messages
//! themselves under the inbox's lock.
//!
//! ## Why the merged schedule is bit-identical to the serial engine
//!
//! Both engines order events by `(time, key, seq)` where
//! [`super::events::event_key`] encodes `(class, entity)`. Every key but
//! an admin event's (next section) is pushed by exactly one shard (see
//! `event_key`'s docs), so:
//!
//! * same-`(time, key)` ties are always same-shard, and the shard's local
//!   FIFO `seq` assigns them exactly the relative order the serial engine
//!   would (pushes happen in the same causal order);
//! * cross-shard order at a timestamp is settled by `key` alone, which
//!   the serial engine respects by construction.
//!
//! Worker-count independence follows because nothing above depends on
//! *which OS thread* runs a shard — the shard partition is a function of
//! the topology, each shard's event stream is deterministic, and message
//! order per key is the sender's FIFO order regardless of scheduling.
//!
//! ## Global events and the serialized tail
//!
//! [`super::events::Event::Failure`] / `LinkChange` mutate fabric state every
//! replica reads (`recompute_reach` scans the whole port table) — and only
//! state every replica holds a full copy of: port props, admin flags,
//! reach masks. So they are **replica-local**: every replica seeds the
//! whole admin schedule into its own FEL and applies each event to itself
//! at the event's own `(time, key)`, after its lower-ranked events of that
//! instant and before the later ones — which is where the serial engine
//! runs it. No other shard can tell when a replica did so: a shard's
//! events read its own replica only, and whatever another shard does at
//! `t` reaches it no earlier than `t + Δ`, as a handoff carrying its own
//! arrival time. Windows span admin timestamps like any other and the
//! coordinator never looks at them. Admin keys are the one exception to
//! single-origin keys: each is pushed by every shard, one copy each, and
//! a copy touches only its own replica, so the order among same-`(time,
//! key)` copies (the tail's merge breaks it by shard index) is immaterial.
//! The run counts an admin event once, on shard 0
//! (`Net::admin_event_popped`), so `events` is the serial engine's.
//!
//! The serial engine stops at the instant the last flow completes,
//! possibly mid-window. To reproduce that exactly, a parallel window
//! `[T, E)` (`E ≤ T + Δ`) is opened only when the run provably cannot end
//! inside it. One rule decides, with three conjuncts; the coordinator
//! leaves the windows for the **serialized tail** — a global `(time, key)`
//! merge across the shard FELs with the serial loop's exact termination
//! conditions — only when all three hold:
//!
//! 1. **every flow starts before `E`** (`last_start < E`). Events run
//!    strictly before `E`, so a `FlowStart` at or after it is not even
//!    popped and its flow cannot complete in the window;
//! 2. **the remaining completions fit in one window**
//!    (`remaining ≤ Σ_h c_h`). A flow completes only when a delivery pops
//!    at its receiving host, each delivery completes at most one flow, and
//!    host `h` sees at most `c_h = Δ / tx_h(header_bytes) + 2` packet
//!    arrivals in any window (see [`host_arrival_bounds`]);
//! 3. **no shard reports a blocker**: a flow whose receiver the shard owns
//!    and which still misses more than `c_dst` distinct segments
//!    (`total_segs − delivered_segs() − buffered() > c_dst`).
//!
//! Proof sketch for (3). *Distinct missing segments*: the receiver counts
//! a flow complete when its cumulative point reaches `total_segs`, so
//! every segment it has neither delivered nor buffered must still arrive
//! at the host at least once — `m` missing segments need `m` arrivals.
//! *Serialized host downlink*: every packet for host `h` crosses the one
//! port that drives `h`'s downlink, which transmits one packet at a time,
//! so consecutive arrivals at `h` are at least `tx_h(header_bytes)` apart
//! and a window of length `≤ Δ` holds at most `c_h` of them. *Static host
//! links*: a [`crate::config::LinkEvent`] rewrites fabric uplinks only,
//! so `tx_h` — and with it `c_h` — is a constant of the run, computed
//! once. Hence a flow missing more than `c_dst` segments at `T` is still
//! incomplete at `E`, and so is the run. The count only ever falls (one
//! per new distinct segment), so "is a blocker" is monotone: a flow that
//! stops being one never becomes one again, which is what lets each shard
//! keep a cursor over its candidates instead of rescanning (see
//! [`Watch`], which each replica keeps in its [`ShardCtx`] and advances
//! only while it holds its own `Net`).
//!
//! Each shard publishes its blocker bit with its next timestamp and
//! completion count after every window: the bit describes the state at
//! the start of the next candidate window.
//!
//! Conjunct (2) alone is loose — on the 8×8 web-search job `Σ_h c_h`
//! exceeds the flow count, so it holds from the first event — and (1)
//! stops holding when arrivals end, long before the drain does. With (3)
//! the windows stay parallel until every long flow is within one window's
//! worth of segments of finishing: the tail shrinks from the whole
//! post-arrival drain to the last few hundred events. A job with no
//! candidate at all (every flow at most `c_dst` segments) keeps the old
//! behaviour: windows while flows are still starting, then the tail.
//!
//! ## What the sharded engine refuses (and falls back to serial on)
//!
//! Each of the four preconditions of the partition is a
//! [`crate::report::FallbackReason`]: hybrid fidelity (a fluid flow's
//! rate reads links in several shards), closed-loop chains (a completion
//! on one shard would have to start a flow on another at the same
//! instant), single-shard topologies and zero lookahead. [`try_run`]
//! returns the reason, [`super::run_with`] runs the serial engine — the
//! digest reference anyway — and records it in
//! [`crate::report::RunReport::engine_fallback`], which `tlb-sim` prints.

use super::link;
use super::portmap::{NodeRef, PortId, PortMap};
use super::slab::Slab;
use super::{FlowRow, Net};
use crate::config::{FidelityKind, SimConfig};
use crate::report::FallbackReason;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tlb_engine::{SimTime, SpinBarrier};
use tlb_net::Packet;
use tlb_transport::TcpReceiver;
use tlb_workload::FlowSpec;

/// Which shard owns each entity, plus the derived per-port tables. Built
/// once per run and shared by every replica.
pub(crate) struct ShardMap {
    pub n_shards: u16,
    /// Per switch id (LB switches first, like [`PortMap::sw`]).
    pub sw_owner: Vec<u16>,
    /// Per host id (hosts live with their leaf/edge switch).
    pub host_owner: Vec<u16>,
    /// Per port: owner of the switch/host the port belongs to.
    pub port_owner: Vec<u16>,
    /// Per port: owner of the node a packet reaches after crossing the
    /// port's link — the shard that schedules and executes the arrival, so
    /// the owner of the link's delivery pipe.
    pub arrive_owner: Vec<u16>,
}

impl ShardMap {
    /// Partition the fabric by [`PortMap::shard_of`]. Hosts follow their
    /// leaf/edge, so host links are never cross-shard.
    fn new(pmap: &PortMap) -> ShardMap {
        let sw_owner: Vec<u16> = (0..pmap.sw.len() as u16)
            .map(|sw| pmap.shard_of(sw))
            .collect();
        let hpl = pmap.hosts_per_lb;
        let host_owner: Vec<u16> = (0..pmap.n_hosts)
            .map(|h| sw_owner[(h / hpl) as usize])
            .collect();
        let owner_of = |n: NodeRef| match n {
            NodeRef::Host(h) => host_owner[h as usize],
            NodeRef::Switch(sw) => sw_owner[sw as usize],
        };
        let arrive_owner: Vec<u16> = (0..pmap.n_ports() as u32)
            .map(|p| owner_of(pmap.next_node(p)))
            .collect();
        // A port belongs to the node its reverse link delivers to.
        let port_owner: Vec<u16> = pmap.rev.iter().map(|&r| arrive_owner[r as usize]).collect();
        ShardMap {
            n_shards: pmap.n_shards(),
            sw_owner,
            host_owner,
            port_owner,
            arrive_owner,
        }
    }
}

/// One replica's runtime handle on the partition.
pub(crate) struct ShardCtx {
    pub id: u16,
    pub map: Arc<ShardMap>,
    /// Cross-shard handoffs produced by this shard's events, drained and
    /// routed after every window (or every tail event).
    pub outbox: Vec<XMsg>,
    /// This shard's side of conjunct 3 of the tail rule.
    watch: Watch,
}

impl ShardCtx {
    pub fn owns_host(&self, h: u32) -> bool {
        self.map.host_owner[h as usize] == self.id
    }
    pub fn owns_sw(&self, sw: usize) -> bool {
        self.map.sw_owner[sw] == self.id
    }
}

/// A packet crossing a shard boundary: "this packet finishes crossing
/// `port`'s link at `at`" — the arguments of [`Net::schedule_arrival`],
/// which the owning shard calls with the exact key and timestamp the
/// serial engine uses.
pub(crate) struct XMsg {
    pub port: PortId,
    pub at: SimTime,
    pub pkt: Packet,
}

impl<'a> Net<'a> {
    /// Run every local event strictly before `end` (and at or before
    /// `horizon`). The global completion gate lives with the coordinator —
    /// the window protocol switches to a serialized tail before the run
    /// could possibly finish mid-window.
    fn run_window(&mut self, end: SimTime, horizon: SimTime) {
        while self.q.peek_time().is_some_and(|t| t < end && t <= horizon) {
            self.step();
        }
    }

    /// Receive a cross-shard handoff: the packet parks in this replica's
    /// arena and rides its `pipes[port]`, exactly as it would have on a
    /// serial engine — the sender owns the port, the receiver owns the
    /// link's far end and everything scheduled on it.
    fn inject_arrival(&mut self, XMsg { port, at, pkt }: XMsg) {
        debug_assert!(self.shard.is_some());
        let slot = self.arena.insert(pkt);
        self.schedule_arrival(port, at, slot);
    }

    /// Whether some flow received on this shard cannot complete within
    /// one window from the current state. O(1) while the watch's cached
    /// witness still blocks; when it drains the cursor moves on and —
    /// blockers being monotone — never returns, so a whole run scans each
    /// candidate once.
    fn has_blocker(&mut self) -> bool {
        let Net {
            shard,
            rows,
            receivers,
            ..
        } = self;
        let w = &mut shard.as_mut().expect("sharded net without ctx").watch;
        w.witness += w.candidates[w.witness..]
            .iter()
            .take_while(|&&(flow, c)| missing_segs(&rows[flow as usize], receivers) <= c)
            .count();
        w.witness < w.candidates.len()
    }

    /// Fold one shard replica into this one (the coordinator folds every
    /// shard into shard 0, then reports from the result). Ports and
    /// balancers move wholesale to their owner, a port's queued and
    /// in-service packets re-parked in this replica's arena; the other
    /// replica's open
    /// endpoints close where they are, as the serial engine's would at the
    /// end of the run, folding into its counters and ledger; counters add;
    /// the clocks join on the latest. Per the ownership partition every
    /// moved entity on `self` is still in its pristine build state, so the
    /// merged `Net` reports what a serial run would have (up to the FEL
    /// telemetry caveat on [`super::metrics::Metrics::absorb`]).
    fn absorb_shard(&mut self, mut other: Net<'a>) {
        let octx = other.shard.take().expect("absorbing a serial net");
        let oid = octx.id;
        let map = &octx.map;
        debug_assert!(octx.outbox.is_empty(), "unrouted cross-shard messages");
        for pi in 0..self.ports.len() {
            if map.port_owner[pi] == oid {
                other.ports[pi].rehome(&mut other.arena, &mut self.arena);
                std::mem::swap(&mut self.ports[pi], &mut other.ports[pi]);
            }
        }
        for l in 0..self.lb_sws.len() {
            if map.sw_owner[l] == oid {
                std::mem::swap(&mut self.lb_sws[l], &mut other.lb_sws[l]);
            }
        }
        other.close_open_endpoints();
        self.n_completed += other.n_completed;
        self.events += other.events;
        self.audit.absorb(&other.audit);
        // What is still crossing the links the other shard receives feeds
        // the merged ledger here — all its arena still holds; queued and
        // in-service residuals rode the moved ports into this one's,
        // scanned later by `finish_audit`.
        other.drain_pipes(&mut self.audit);
        self.m.absorb(other.m);
        self.m.fel_nodes_peak = self.m.fel_nodes_peak.max(other.q.pool_nodes_peak() as u64);
        self.m.wire_pkts_peak += other.wire_pkts_peak as u64;
        self.m.conns_peak += (other.senders.peak() + other.receivers.peak()) as u64;
        self.q
            .absorb_monotonicity_violations(other.q.monotonicity_violations());
        self.q.join_clock(other.q.now());
    }
}

/// Distinct segments of the flow in `row` that have not reached its
/// receiver yet: all of them before its receiver opens, none once the
/// flow completed (and the receiver closed).
fn missing_segs(row: &FlowRow, receivers: &Slab<TcpReceiver>) -> u32 {
    let got = match row.receiver {
        Some(r) => receivers[r].delivered_segs() + receivers[r].buffered() as u32,
        None if row.completed => row.total_segs,
        None => 0,
    };
    row.total_segs - got
}

/// A shard's mailbox: the handoffs other shards routed to it, in each
/// port's send order.
type Inbox = Mutex<Vec<XMsg>>;

/// One shard's side of conjunct 3 of the tail rule (module docs): the
/// flows it receives that could block the tail, and which of them still
/// does.
#[derive(Default)]
struct Watch {
    /// `(flow, c_dst)` for every flow whose receiving host the shard owns
    /// and whose segment count exceeds that host's per-window arrival
    /// bound, in flow order. Entries before `witness` have stopped being
    /// blockers for good.
    candidates: Vec<(u32, u32)>,
    /// Index of the cached witness: the first candidate not yet known to
    /// have drained.
    witness: usize,
}

impl Watch {
    /// The candidates of `net`'s shard under the per-host arrival bounds `c`.
    fn new(net: &Net, c: &[u32]) -> Watch {
        let ctx = net.shard.as_ref().expect("sharded net without ctx");
        let candidates = (net.flows.iter().zip(&net.rows))
            .enumerate()
            .filter(|(_, (f, r))| ctx.owns_host(f.dst.0) && r.total_segs > c[f.dst.index()])
            .map(|(i, (f, _))| (i as u32, c[f.dst.index()]))
            .collect();
        Watch {
            candidates,
            witness: 0,
        }
    }
}

/// The only way a lock here fails: its last holder panicked.
const POISONED: &str = "a shard worker panicked";

const STATE_RUN: u8 = 0;
const STATE_DONE: u8 = 1;

/// Coordinator → workers control block, published between barriers.
struct Ctl {
    state: AtomicU8,
    window_end: AtomicU64,
}

/// Run `cfg` sharded, or say which precondition fails so the caller runs
/// the serial engine and reports why.
pub(crate) fn try_run(
    cfg: &SimConfig,
    flows: &[FlowSpec],
    next_flow: &[Option<u32>],
    workers: Option<u32>,
    wall_start: std::time::Instant,
) -> Result<crate::report::RunReport, FallbackReason> {
    if cfg.fidelity == FidelityKind::Hybrid {
        return Err(FallbackReason::HybridFidelity);
    }
    if next_flow.iter().any(|n| n.is_some()) {
        return Err(FallbackReason::ChainedFlows);
    }
    let pmap = PortMap::new(&cfg.topo);
    let map = ShardMap::new(&pmap);
    if map.n_shards < 2 {
        return Err(FallbackReason::SingleShard);
    }
    let lookahead = lookahead(cfg, &pmap, &map);
    if lookahead.is_zero() {
        return Err(FallbackReason::ZeroLookahead);
    }
    let n_workers = workers
        .map(|w| w as usize)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, map.n_shards as usize);
    let arrivals = host_arrival_bounds(cfg, lookahead);
    let nets = build_replicas(cfg, flows, next_flow, Arc::new(map), &arrivals);
    let run = Run::new(cfg, flows, &nets, lookahead, &arrivals, n_workers);

    std::thread::scope(|sc| {
        for w in 1..n_workers {
            let run = &run;
            sc.spawn(move || run.worker_loop(w));
        }
        run.worker_loop(0);
    });
    let windows = run.windows.load(Ordering::Relaxed);
    let tail_events = run.tail_events.load(Ordering::Relaxed);
    drop(run);

    // Fold every replica into shard 0 and report from the merged state.
    let mut nets: Vec<Net> = nets
        .into_iter()
        .map(|m| m.into_inner().expect(POISONED))
        .collect();
    let mut base = nets.remove(0);
    for other in nets {
        base.absorb_shard(other);
    }
    base.m.sort_sharded_traces();
    base.shard = None;
    let mut report = base.into_report(wall_start.elapsed());
    report.engine_workers = Some(n_workers as u32);
    report.sharded_windows = windows;
    report.sharded_tail_events = tail_events;
    Ok(report)
}

/// One full replica per shard (built in parallel — builds are
/// independent), each watching its candidate blockers under the per-host
/// arrival bounds `arrivals`.
fn build_replicas<'a>(
    cfg: &'a SimConfig,
    flows: &'a [FlowSpec],
    next_flow: &[Option<u32>],
    map: Arc<ShardMap>,
    arrivals: &[u32],
) -> Vec<Mutex<Net<'a>>> {
    let mut slots: Vec<Option<Net>> = (0..map.n_shards).map(|_| None).collect();
    std::thread::scope(|sc| {
        for (sid, slot) in slots.iter_mut().enumerate() {
            let ctx = ShardCtx {
                id: sid as u16,
                map: map.clone(),
                outbox: Vec::new(),
                watch: Watch::default(),
            };
            sc.spawn(move || {
                let mut net = Net::build(cfg, flows, next_flow.to_vec(), Some(ctx));
                let watch = Watch::new(&net, arrivals);
                net.shard.as_mut().expect("sharded net without ctx").watch = watch;
                *slot = Some(net);
            });
        }
    });
    slots
        .into_iter()
        .map(|n| Mutex::new(n.expect("replica build panicked")))
        .collect()
}

/// The conservative lookahead: minimum propagation delay over every
/// cross-shard directed link, folded over the whole `LinkEvent` schedule
/// (a mid-run rewrite may shrink a delay; the lookahead must lower-bound
/// every state the link ever reaches).
fn lookahead(cfg: &SimConfig, pmap: &PortMap, map: &ShardMap) -> SimTime {
    let mut min = SimTime::from_nanos(u64::MAX);
    link::for_each_link_state(cfg, pmap, |p, l| {
        if map.port_owner[p as usize] != map.arrive_owner[p as usize] {
            min = min.min(l.prop_delay);
        }
    });
    debug_assert!(min.as_nanos() < u64::MAX, "no cross-shard links");
    min
}

/// Per host `h`, `c_h`: an upper bound on packet arrivals at `h` within
/// one parallel window. Deliveries to `h` are serialized by its downlink —
/// whose props no [`crate::config::LinkEvent`] ever rewrites (they target
/// fabric uplinks) — so a window of length `Δ` delivers at most
/// `Δ / tx_h(min_wire) + 2` packets there. Both completion conjuncts of
/// the tail rule read this table (module docs): their sum bounds the
/// completions per window, and `c_dst` bounds the distinct segments one
/// flow can gain.
fn host_arrival_bounds(cfg: &SimConfig, lookahead: SimTime) -> Vec<u32> {
    let min_wire = cfg.tcp.header_bytes.max(1) as u64;
    (0..cfg.topo.n_hosts())
        .map(|h| {
            let link = cfg.topo.host_link_of(tlb_net::HostId(h as u32));
            let tx = tlb_engine::time::tx_time(min_wire, link.bytes_per_sec)
                .as_nanos()
                .max(1);
            u32::try_from(lookahead.as_nanos() / tx + 2).unwrap_or(u32::MAX)
        })
        .collect()
}

/// Everything the window protocol shares across worker threads.
struct Run<'n, 'a> {
    nets: &'n [Mutex<Net<'a>>],
    inboxes: Vec<Inbox>,
    next_time: Vec<AtomicU64>,
    done_flows: Vec<AtomicUsize>,
    /// Per shard: it receives a flow that cannot complete within one
    /// window (conjunct 3 of the tail rule), as of its last `publish`.
    blocked: Vec<AtomicBool>,
    ctl: Ctl,
    barrier: SpinBarrier,
    horizon: SimTime,
    total_flows: usize,
    /// Latest flow start time (ns). A window whose end is at or before
    /// this cannot contain the final completion, whatever `bound` says.
    last_start: u64,
    lookahead: SimTime,
    /// `Σ_h c_h`: completions one window can hold (conjunct 2).
    bound: u64,
    n_workers: usize,
    /// Parallel windows opened (surfaces in
    /// [`crate::report::RunReport::sharded_windows`]).
    windows: AtomicU64,
    /// Events executed by [`Run::tail`] (surfaces in
    /// [`crate::report::RunReport::sharded_tail_events`]).
    tail_events: AtomicU64,
}

impl<'n, 'a> Run<'n, 'a> {
    fn new(
        cfg: &SimConfig,
        flows: &[FlowSpec],
        nets: &'n [Mutex<Net<'a>>],
        lookahead: SimTime,
        arrivals: &[u32],
        n_workers: usize,
    ) -> Run<'n, 'a> {
        let n_shards = nets.len();
        let run = Run {
            nets,
            inboxes: (0..n_shards).map(|_| Mutex::new(Vec::new())).collect(),
            next_time: (0..n_shards).map(|_| AtomicU64::new(0)).collect(),
            done_flows: (0..n_shards).map(|_| AtomicUsize::new(0)).collect(),
            blocked: (0..n_shards).map(|_| AtomicBool::new(false)).collect(),
            ctl: Ctl {
                state: AtomicU8::new(STATE_RUN),
                window_end: AtomicU64::new(0),
            },
            barrier: SpinBarrier::new(n_workers),
            horizon: cfg.horizon,
            total_flows: flows.len(),
            last_start: flows.iter().map(|f| f.start.as_nanos()).max().unwrap_or(0),
            lookahead,
            bound: arrivals.iter().map(|&c| u64::from(c)).sum(),
            n_workers,
            windows: AtomicU64::new(0),
            tail_events: AtomicU64::new(0),
        };
        // Seed the published per-shard state so the coordinator's first
        // decision sees the real schedule.
        for (s, net) in nets.iter().enumerate() {
            run.publish(s, &mut net.lock().expect(POISONED));
        }
        run
    }

    /// Publish shard `s`'s next within-horizon timestamp, completion count
    /// and blocker bit (read by the coordinator after the barrier).
    fn publish(&self, s: usize, net: &mut Net) {
        let t = match net.q.peek_time() {
            Some(t) if t <= self.horizon => t.as_nanos(),
            _ => u64::MAX,
        };
        self.next_time[s].store(t, Ordering::Release);
        self.done_flows[s].store(net.n_completed, Ordering::Release);
        self.blocked[s].store(net.has_blocker(), Ordering::Release);
    }

    /// The window protocol, from every worker's point of view. Worker 0
    /// doubles as the coordinator: it decides each window (running the
    /// serialized tail itself, while the other workers are parked at the
    /// barrier), publishes the decision, and then works its own shards
    /// like everyone else.
    fn worker_loop(&self, w: usize) {
        let n_shards = self.nets.len();
        let mut scratch: Vec<Vec<XMsg>> = (0..n_shards).map(|_| Vec::new()).collect();
        loop {
            if w == 0 {
                self.decide();
            }
            self.barrier.wait();
            if self.ctl.state.load(Ordering::Acquire) == STATE_DONE {
                break;
            }
            let end = SimTime::from_nanos(self.ctl.window_end.load(Ordering::Acquire));
            let mut s = w;
            while s < n_shards {
                self.phase_a(s, end, &mut scratch);
                s += self.n_workers;
            }
            self.barrier.wait();
        }
    }

    /// One shard's share of a parallel window: ingest handoffs, run every
    /// local event strictly before `end`, route produced handoffs, publish
    /// the new local minimum.
    fn phase_a(&self, s: usize, end: SimTime, scratch: &mut [Vec<XMsg>]) {
        let mut net = self.nets[s].lock().unwrap();
        let msgs = std::mem::take(&mut *self.inboxes[s].lock().unwrap());
        for m in msgs {
            net.inject_arrival(m);
        }
        net.run_window(end, self.horizon);
        self.route_outbox(&mut net, scratch);
        self.publish(s, &mut net);
    }

    /// Drain a shard's outbox into the target shards' inboxes, batched
    /// per target (one lock per destination; per-port message order — the
    /// only order that matters — is preserved).
    fn route_outbox(&self, net: &mut Net, scratch: &mut [Vec<XMsg>]) {
        let ctx = net.shard.as_mut().expect("sharded net without ctx");
        let ShardCtx { map, outbox, .. } = ctx;
        if outbox.is_empty() {
            return;
        }
        for m in outbox.drain(..) {
            scratch[map.arrive_owner[m.port as usize] as usize].push(m);
        }
        for (t, batch) in scratch.iter_mut().enumerate() {
            if !batch.is_empty() {
                self.inboxes[t].lock().unwrap().append(batch);
            }
        }
    }

    /// The earliest pending within-horizon timestamp over every shard's
    /// FEL (as last published) and inbox; `u64::MAX` when there is none.
    /// Reads the parked handoffs themselves: only the coordinator calls
    /// it, between barriers, when no worker touches an inbox.
    fn global_min(&self) -> u64 {
        let parked = (self.inboxes.iter()).flat_map(|ib| {
            let msgs = ib.lock().unwrap();
            (msgs.iter().map(|m| m.at))
                .filter(|&at| at <= self.horizon)
                .min()
                .map(SimTime::as_nanos)
        });
        (self.next_time.iter())
            .map(|t| t.load(Ordering::Acquire))
            .chain(parked)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The coordinator's between-windows step: find the global minimum,
    /// then declare the run done, finish serially (completion tail), or
    /// open the next parallel window. Runs with every other worker parked
    /// at the barrier, so the tail's locking all shards is deadlock-free.
    fn decide(&self) {
        let done: usize = (self.done_flows.iter())
            .map(|d| d.load(Ordering::Acquire))
            .sum();
        let t_min = self.global_min();
        if done >= self.total_flows || t_min == u64::MAX {
            self.finish();
            return;
        }
        let end = t_min.saturating_add(self.lookahead.as_nanos());
        // The run can end inside the candidate window only if every flow
        // starts before its end, the remaining completions fit in one
        // window, and no flow is more than one window's worth of segments
        // short (module docs). Only then go serial.
        if self.last_start < end
            && (self.total_flows - done) as u64 <= self.bound
            && !self.blocked.iter().any(|b| b.load(Ordering::Acquire))
        {
            self.tail();
            self.finish();
            return;
        }
        self.windows.fetch_add(1, Ordering::Relaxed);
        self.ctl.window_end.store(end, Ordering::Release);
        self.ctl.state.store(STATE_RUN, Ordering::Release);
    }

    fn finish(&self) {
        // Flush still-parked handoffs onto their owners' links so the
        // end-of-run audit counts them as propagating residuals, exactly
        // like the serial engine's leftover in-flight packets.
        self.flush_inboxes();
        self.ctl.state.store(STATE_DONE, Ordering::Release);
    }

    fn flush_inboxes(&self) {
        for (s, ib) in self.inboxes.iter().enumerate() {
            let mut ib = ib.lock().unwrap();
            if ib.is_empty() {
                continue;
            }
            let mut net = self.nets[s].lock().unwrap();
            for m in ib.drain(..) {
                net.inject_arrival(m);
            }
        }
    }

    /// The completion tail: the cross-shard merge, with the serial loop's
    /// exact termination conditions (stop the instant the last flow
    /// completes; never pop past the horizon). Repeatedly pop the
    /// `(time, key)`-minimum event over all shard FELs and dispatch it on
    /// its shard, routing handoffs immediately.
    ///
    /// Single-origin-per-key makes the tie order exact: a `(time, key)`
    /// collision across two shards is impossible — except among the
    /// copies of an admin event, whose order does not matter (module
    /// docs) — and within a shard the FEL's own `(time, key, seq)` order
    /// applies.
    fn tail(&self) {
        self.flush_inboxes();
        let mut guards: Vec<_> = self.nets.iter().map(|m| m.lock().unwrap()).collect();
        let map = guards[0]
            .shard
            .as_ref()
            .expect("sharded net without ctx")
            .map
            .clone();
        let mut done: usize = guards.iter().map(|g| g.n_completed).sum();
        let mut outbox = Vec::new();
        let mut steps = 0u64;
        while done < self.total_flows {
            let best = guards
                .iter()
                .enumerate()
                .filter_map(|(s, g)| g.q.peek_time_key().map(|(t, k)| (t, k, s)))
                .min();
            let Some((t, _, s)) = best else { break };
            if t > self.horizon {
                break;
            }
            let before = guards[s].n_completed;
            guards[s].step();
            steps += 1;
            done += guards[s].n_completed - before;
            // Route this event's handoffs immediately — the merge may
            // reach their timestamps before the next barrier.
            let ctx = guards[s].shard.as_mut().expect("sharded net without ctx");
            outbox.append(&mut ctx.outbox);
            for m in outbox.drain(..) {
                guards[map.arrive_owner[m.port as usize] as usize].inject_arrival(m);
            }
        }
        self.tail_events.fetch_add(steps, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::Scheme;

    #[test]
    fn leaf_spine_partition_colocates_hosts_and_spreads_spines() {
        let cfg = SimConfig::basic_paper(Scheme::Ecmp);
        let pmap = PortMap::new(&cfg.topo);
        let map = ShardMap::new(&pmap);
        let n_leaves = cfg.topo.n_leaves() as u16;
        assert_eq!(map.n_shards, n_leaves);
        for h in 0..cfg.topo.n_hosts() as u32 {
            let leaf = cfg.topo.leaf_of(tlb_net::HostId(h)).index() as u16;
            assert_eq!(map.host_owner[h as usize], leaf);
            // Host links never cross shards.
            let nic = pmap.host_nic(h);
            assert_eq!(map.port_owner[nic as usize], map.arrive_owner[nic as usize]);
        }
        // Spines are distributed round-robin.
        for s in 0..cfg.topo.n_spines() as u16 {
            assert_eq!(map.sw_owner[(n_leaves + s) as usize], s % n_leaves);
        }
    }

    #[test]
    fn fat_tree_partition_is_per_pod() {
        let mut cfg = SimConfig::basic_paper(Scheme::Ecmp);
        cfg.topo = tlb_net::FatTreeBuilder::new(4).build();
        let pmap = PortMap::new(&cfg.topo);
        let map = ShardMap::new(&pmap);
        // k = 4: 4 pods of 2 edges (switches 0..8) and 2 aggs (8..16) over
        // 4 cores (16..20), 2 hosts per edge.
        assert_eq!(map.n_shards, 4);
        // Every edge and agg lives with its pod; hosts with their edge;
        // cores are dealt round-robin.
        for e in 0..8 {
            assert_eq!(map.sw_owner[e], (e / 2) as u16);
            assert_eq!(map.sw_owner[8 + e], (e / 2) as u16);
        }
        for c in 0..4 {
            assert_eq!(map.sw_owner[16 + c], c as u16);
        }
        for h in 0..16 {
            assert_eq!(map.host_owner[h], map.sw_owner[h / 2]);
        }
    }

    /// One cross-rack flow of `segs` full segments on the basic fabric.
    fn one_flow(cfg: &SimConfig, segs: u32) -> Vec<FlowSpec> {
        vec![FlowSpec {
            id: tlb_net::FlowId(0),
            src: tlb_net::HostId(0),
            dst: tlb_net::HostId(cfg.topo.hosts_per_leaf() as u32),
            size_bytes: u64::from(segs) * cfg.tcp.mss as u64,
            start: SimTime::ZERO,
            deadline: None,
        }]
    }

    #[test]
    fn blocker_bit_is_recomputed_after_every_window() {
        // Drive a whole one-flow run through the window protocol, one
        // timestamp per window: after every window the published bit must
        // be the definition evaluated on the receiver's state *now* — in
        // particular right after the window whose delivery takes the flow
        // from `c_dst + 1` missing segments to `c_dst`.
        let cfg = SimConfig::basic_paper(Scheme::Ecmp);
        let pmap = PortMap::new(&cfg.topo);
        let map = ShardMap::new(&pmap);
        let la = lookahead(&cfg, &pmap, &map);
        let arrivals = host_arrival_bounds(&cfg, la);
        let flows = one_flow(&cfg, arrivals[0] + 3);
        let dst = flows[0].dst.index();
        let (c, rx) = (arrivals[dst], map.host_owner[dst] as usize);
        let nets = build_replicas(&cfg, &flows, &[None], Arc::new(map), &arrivals);
        let run = Run::new(&cfg, &flows, &nets, la, &arrivals, 1);
        let blocked = |s: usize| run.blocked[s].load(Ordering::Acquire);
        assert!(blocked(rx), "an unstarted flow of c + 3 segments blocks");

        let mut scratch: Vec<Vec<XMsg>> = nets.iter().map(|_| Vec::new()).collect();
        let mut cleared_at = None;
        loop {
            let t = run.global_min();
            let was = blocked(rx);
            for s in 0..nets.len() {
                run.phase_a(s, SimTime::from_nanos(t + 1), &mut scratch);
            }
            let net = nets[rx].lock().unwrap();
            let missing = missing_segs(&net.rows[0], &net.receivers);
            assert_eq!(blocked(rx), missing > c, "stale bit after t = {t}");
            if was && !blocked(rx) {
                assert_eq!(missing, c, "cleared by the delivery that reached c");
                assert!(cleared_at.replace(t).is_none(), "blockers are monotone");
            }
            if net.n_completed == 1 {
                break;
            }
        }
        assert!(cleared_at.is_some());
        for s in (0..nets.len()).filter(|&s| s != rx) {
            assert!(!blocked(s), "shard {s} receives nothing");
        }
    }

    #[test]
    fn a_flow_of_exactly_c_segments_is_never_watched() {
        let cfg = SimConfig::basic_paper(Scheme::Ecmp);
        let pmap = PortMap::new(&cfg.topo);
        let map = Arc::new(ShardMap::new(&pmap));
        let arrivals = host_arrival_bounds(&cfg, lookahead(&cfg, &pmap, &map));
        for (extra, watched) in [(0, 0), (1, 1)] {
            let flows = one_flow(&cfg, arrivals[0] + extra);
            let nets = build_replicas(&cfg, &flows, &[None], map.clone(), &arrivals);
            let n: usize = (nets.iter())
                .map(|n| {
                    n.lock()
                        .unwrap()
                        .shard
                        .as_ref()
                        .unwrap()
                        .watch
                        .candidates
                        .len()
                })
                .sum();
            assert_eq!(n, watched, "c + {extra} segments");
        }
    }

    /// The arena's reservation is the wire bound plus a full queue and a
    /// packet in service for every port a `Net` holds — NICs at the host
    /// queue's capacity, switch ports at the switch queue's, and, on a
    /// shard replica, 1 for each stub of a port another shard owns — plus
    /// the one packet a host holds before its NIC admits it.
    #[test]
    fn the_arena_reserves_the_wire_and_every_owned_queue() {
        let leaf_spine = SimConfig::basic_paper(Scheme::Ecmp);
        let mut fat_tree = SimConfig::basic_paper(Scheme::Ecmp);
        fat_tree.topo = tlb_net::FatTreeBuilder::new(4).build();
        for cfg in [leaf_spine, fat_tree] {
            let flows = one_flow(&cfg, 1);
            let pmap = PortMap::new(&cfg.topo);
            let queue = |p: u32| match pmap.decode(p) {
                super::super::portmap::PortRef::HostNic(_) => cfg.host_queue.capacity_pkts,
                _ => cfg.queue.capacity_pkts,
            };
            let ports = || 0..pmap.n_ports() as u32;
            let wire = link::wire_bound(&cfg, &pmap);
            let serial = Net::build(&cfg, &flows, vec![None], None);
            let every: usize = ports().map(|p| queue(p) + 1).sum();
            assert_eq!(
                link::packet_bound(&cfg, &pmap, &serial.ports),
                wire + every + 1
            );

            let map = Arc::new(ShardMap::new(&pmap));
            let arrivals = host_arrival_bounds(&cfg, lookahead(&cfg, &pmap, &map));
            let nets = build_replicas(&cfg, &flows, &[None], map.clone(), &arrivals);
            assert!(nets.len() > 1);
            for (id, net) in nets.iter().enumerate() {
                let owned = |p: &u32| map.port_owner[*p as usize] == id as u16;
                let own: usize = ports().filter(owned).map(|p| queue(p) + 1).sum();
                let stubs = ports().filter(|p| !owned(p)).count();
                let net = net.lock().unwrap();
                assert_eq!(
                    link::packet_bound(&cfg, &pmap, &net.ports),
                    wire + own + stubs + 1,
                    "shard {id}"
                );
            }
        }
    }

    #[test]
    fn every_refusal_names_its_reason() {
        let base = SimConfig::basic_paper(Scheme::Ecmp);
        let flows = [one_flow(&base, 4), one_flow(&base, 4)].concat();
        let flows: Vec<FlowSpec> = (flows.into_iter().enumerate())
            .map(|(i, f)| FlowSpec {
                id: tlb_net::FlowId(i as u32),
                ..f
            })
            .collect();
        let try_with = |set: &dyn Fn(&mut SimConfig), next: &[Option<u32>]| {
            let mut cfg = base.clone();
            set(&mut cfg);
            try_run(&cfg, &flows, next, Some(2), std::time::Instant::now()).map(|r| r.completed)
        };
        let flat = [None, None];
        assert_eq!(try_with(&|_| {}, &flat), Ok(2));
        assert_eq!(
            try_with(&|c| c.fidelity = FidelityKind::Hybrid, &flat),
            Err(FallbackReason::HybridFidelity)
        );
        assert_eq!(
            try_with(&|_| {}, &[Some(1), None]),
            Err(FallbackReason::ChainedFlows)
        );
        let one_leaf = |c: &mut SimConfig| {
            c.topo = tlb_net::LeafSpineBuilder::new(1, 2, 32).build();
        };
        assert_eq!(try_with(&one_leaf, &flat), Err(FallbackReason::SingleShard));
        let no_delay = |c: &mut SimConfig| {
            c.topo = tlb_net::LeafSpineBuilder::new(3, 15, 16)
                .prop_per_link(SimTime::ZERO)
                .build();
        };
        assert_eq!(
            try_with(&no_delay, &flat),
            Err(FallbackReason::ZeroLookahead)
        );
    }

    #[test]
    fn lookahead_is_min_cross_shard_prop() {
        let cfg = SimConfig::basic_paper(Scheme::Ecmp);
        let pmap = PortMap::new(&cfg.topo);
        let map = ShardMap::new(&pmap);
        let la = lookahead(&cfg, &pmap, &map);
        // Every cross-shard link is a leaf↔spine pair; the minimum is the
        // fabric's uplink propagation delay.
        assert_eq!(la, cfg.topo.uplink_props(0, 1).prop_delay);
        assert!(!la.is_zero());
    }
}
