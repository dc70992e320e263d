//! Deterministic multi-core execution of a single simulation via
//! conservative fabric sharding.
//!
//! One simulation is split into **shards**, one per worker asked for (two
//! for one worker, at most one per pod) and run on as many threads as
//! there are shards or host cores, whichever is fewer: the pods — a fat
//! tree's, or a leaf-spine's leaves — are dealt out in contiguous groups
//! (pod `p` of `P` to shard `p · n / P`), top switches round-robin, hosts
//! with their edge/leaf switch. Fewer shards keep more hops inside one
//! replica: a leaf↔spine hop crosses shards unless its spine was dealt to
//! its leaf's shard, so 1 − 1/n of them cross. Each shard is a replica of
//! the [`super::Net`] state that touches only its own entities: its
//! switches' ports, its hosts' senders/receivers, the links it receives,
//! its slice of the events. A replica reserves arena slots for the queues
//! of the ports it owns only (the others keep their link props and admin
//! flag, which every replica's `recompute_reach` reads, and a capacity of
//! 0), its arena pages in only the packets queued at its own ports and
//! crossing its own links, and its connection slabs hold only the
//! endpoints of the flows it hosts while they are open; its FEL reserves
//! for the senders it hosts and the balancers it owns. Every replica
//! borrows the job's one chain table and keeps no FCT record: a flow's
//! start and end live in its row, on its source's replica and its
//! destination's, and the fold ORs the rows together before the report
//! builds the records once. What it still duplicates per shard is one
//! `FlowRow` per flow of the job and the metric collectors. Shards advance
//! in barrier-synchronized **windows** bounded by the conservative lookahead
//! `Δ` = the minimum propagation delay over any cross-shard link (folded
//! over every rate change of the [`crate::config::AdminEvent`] schedule):
//! an event a shard executes at time `t` can only influence another shard
//! at `t + Δ` or later, so every shard may freely run `[T, T + Δ)` where
//! `T` is the global minimum pending timestamp.
//!
//! ## One barrier per window, and its leader
//!
//! The workers share three things: the replicas (one `Mutex` each), one
//! done flag and one [`SpinBarrier`], crossed once per window. Whichever
//! worker arrives last is the **leader** for that
//! crossing: it holds every replica (locking each once, in index order,
//! while the others are parked), decides, and only then releases them
//! into the next window; no worker is special, and the first crossing
//! decides on the freshly built replicas. It writes what it decides into
//! each replica's `ShardCtx` (its [`Limit`]) and never runs an event
//! itself. Cross-shard packets travel as
//! [`XMsg`] handoffs and move by ownership, never under a lock of their
//! own: a replica's events push them into its `ShardCtx::outbox`, one
//! bucket per destination shard; the leader swaps each non-empty bucket
//! with the destination's empty inbox bucket for that source (O(1), and
//! the capacity goes back to the sender), and each replica drains its
//! own inbox at the start of its next window, in parallel. Every port has
//! one source shard, so its handoffs keep their send order. The leader
//! reads what it decides on from the replicas themselves — each replica's
//! next timestamp ([`Net::peek`]: the FEL head or the build-time
//! schedule's next entry, since hybrid runs are refused), and, in a
//! window that could end the run, its completion count and last event —
//! and folds
//! the earliest within-horizon arrival parked in any inbox into `T`
//! (the null-message horizon update of classic conservative PDES,
//! carried on the data path). A worker that panics poisons the barrier
//! on its way out, so the others panic instead of spinning and the run
//! ends with the panic, as a serial run would.
//!
//! A packet that waits at a port departs lazily, with no event of its own
//! ([`Net::advance`]); on a serial run the `ARRIVAL`s of its port's own
//! link see to it, but a cross-shard port's link is received by another
//! replica. So each replica advances its cross-shard ports at the end of
//! every stretch to the point it ran to, handing off what started, and
//! the leader folds each replica's earliest waiting cross-shard departure
//! ([`Net::next_handoff`]) into `T`: a window opens at or before every
//! such start, and the handoff, sent at the window's end, lands at least
//! a lookahead after it, past the window.
//!
//! ## Why the merged schedule is bit-identical to the serial engine
//!
//! Both engines order events by `(time, key, seq)` where the key
//! ([`super::events::key_of`]) encodes `(class, entity)` and is the whole
//! event. Every key but an admin event's (next section) is pushed or
//! scheduled by exactly one shard (see the [`super::events`] docs), so:
//!
//! * same-`(time, key)` ties are always same-shard, and the shard's local
//!   FIFO `seq` assigns them exactly the relative order the serial engine
//!   would (pushes happen in the same causal order);
//! * cross-shard order at a timestamp is settled by `key` alone, which
//!   the serial engine respects by construction.
//!
//! Worker-count independence follows because nothing above depends on
//! *which* partition is used or which OS thread runs a shard — any
//! partition whose keys have one origin each reconstructs the serial
//! order, each shard's event stream is deterministic, and message order
//! per key is the sender's FIFO order regardless of scheduling. The
//! partition does follow the requested worker count (one replica per
//! worker), so what each replica holds — FEL depth samples, node-pool,
//! wire and connection peaks — does too; the digests and every FCT do
//! not.
//!
//! ## Global events
//!
//! Admin events ([`super::events::class::ADMIN`]: failures, repairs and
//! rate changes) mutate fabric state every replica reads
//! (`recompute_reach` scans the whole port table) — and only state every
//! replica holds a full copy of: port props, admin flags, reach masks. So
//! they are **replica-local**: every replica seeds the whole admin
//! schedule into its own build-time schedule (`Net::sched`, never the FEL)
//! and applies each event to itself
//! at the event's own `(time, key)`, after its lower-ranked events of that
//! instant and before the later ones — which is where the serial engine
//! runs it. No other shard can tell when a replica did so: a shard's
//! events read its own replica only, and whatever another shard does at
//! `t` reaches it no earlier than `t + Δ`, as a handoff carrying its own
//! arrival time. Windows span admin timestamps like any other and the
//! leader never looks at them. Admin keys are the one exception to
//! single-origin keys: each is pushed by every shard, one copy each, and
//! a copy touches only its own replica, so the order among same-`(time,
//! key)` copies is immaterial.
//! The run counts an admin event once, on shard 0 (in `Net::step`'s admin
//! arm), so `events` is the serial engine's.
//!
//! ## Where the run ends
//!
//! The serial engine stops right after the event that completes the last
//! flow, possibly mid-window. The leader finds that event once the window
//! has run, from three facts:
//!
//! 1. a flow completes only on the replica that owns its receiving host
//!    (`Net::complete`), so a shard is **done** once its `n_completed`
//!    reaches `ShardCtx::local_flows`;
//! 2. a shard's events inside a window depend only on its own state when
//!    the window opens, so a shard may stop mid-window and run on later;
//! 3. the run can end in `[T, E)` only if every flow starts before `E`
//!    (`last_start < E`). Only in such a window does each shard stop right
//!    after the step that makes it done; a shard done already runs nothing.
//!
//! At the barrier, if every shard is done, the run's last event is the
//! latest `(now, cur_key)` over the replicas, and every shard runs the
//! events ordered before it: that key is an arrival whose link only its
//! own shard receives, and that shard has run it. If only some shards are
//! done, they run on to `E`; if none is, the window is complete. Either
//! of the first two takes a second barrier crossing: the run counts such
//! **split windows** in [`crate::report::RunReport::sharded_split_windows`].
//! Fewer, larger shards split fewer windows — a shard is done only once
//! every flow its pods receive is.
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
use super::Net;
use crate::config::{FidelityKind, SimConfig};
use crate::report::FallbackReason;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use tlb_engine::shard::POISONED;
use tlb_engine::{SimTime, SpinBarrier};
use tlb_net::Packet;
use tlb_workload::FlowSpec;

/// Which shard owns each entity, plus the derived per-port tables. Built
/// once per run and borrowed by every replica.
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
    /// Deal the fabric into `n` shards by [`PortMap::shard_of`]. Hosts
    /// follow their leaf/edge, so host links are never cross-shard.
    fn new(pmap: &PortMap, n: u16) -> ShardMap {
        let sw_owner: Vec<u16> = (0..pmap.sw.len() as u16)
            .map(|sw| pmap.shard_of(sw, n))
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
            n_shards: n,
            sw_owner,
            host_owner,
            port_owner,
            arrive_owner,
        }
    }
}

/// One replica's runtime handle on the partition.
pub(crate) struct ShardCtx<'a> {
    pub id: u16,
    pub map: &'a ShardMap,
    /// Cross-shard handoffs produced by this shard's events, one bucket
    /// per destination shard, each in send order. The leader moves them
    /// to their destinations between windows.
    pub outbox: Vec<Vec<XMsg>>,
    /// Handoffs moved here, one bucket per source shard; drained at the
    /// start of this shard's next window.
    inbox: Vec<Vec<XMsg>>,
    /// The flows whose receiving host this shard owns: the only ones that
    /// complete on its replica, so it is done once `n_completed` reaches
    /// this.
    local_flows: usize,
    /// How far the replica's next [`Net::run_window`] goes, written by
    /// the leader at the barrier.
    limit: Limit,
    /// The ports this shard owns whose link another shard receives: no
    /// `ARRIVAL` of theirs runs here to depart what waits in them, so the
    /// replica advances them at the end of each stretch.
    cross: Vec<PortId>,
}

impl ShardCtx<'_> {
    pub fn owns_host(&self, h: u32) -> bool {
        self.map.host_owner[h as usize] == self.id
    }
    pub fn owns_sw(&self, sw: usize) -> bool {
        self.map.sw_owner[sw] == self.id
    }
}

/// How far a replica runs between two barrier crossings (module docs,
/// "Where the run ends").
#[derive(Clone, Copy)]
enum Limit {
    /// Every event before the window's end `E`.
    Window(SimTime),
    /// The same, but stop right after the step that completes the last
    /// flow this shard receives: the run may end in this window.
    UntilDone(SimTime),
    /// Every event ordered before the run's last `(time, key)`, which the
    /// one shard holding that key has already run.
    Before((SimTime, u32)),
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
    fn ctx(&mut self) -> &mut ShardCtx<'a> {
        self.shard.as_mut().expect("sharded net without ctx")
    }

    /// One shard's share of a parallel window: take in the handoffs moved
    /// here since the last one, then run every local event at or before
    /// `horizon` that the leader's [`Limit`] admits, and last depart every
    /// packet that started at a cross-shard port by the point it ran to,
    /// handing it off.
    fn run_window(&mut self, horizon: SimTime) {
        self.ingest();
        let limit = self.ctx().limit;
        while let Some(next) = self.peek().filter(|&(t, _)| t <= horizon) {
            let admitted = match limit {
                Limit::Window(end) => next.0 < end,
                Limit::UntilDone(end) => next.0 < end && !self.is_done(),
                Limit::Before(last) => next < last,
            };
            if !admitted {
                break;
            }
            self.step(next);
        }
        let ran_to = match limit {
            Limit::UntilDone(_) if self.is_done() => (self.now, self.cur_key),
            Limit::Window(end) | Limit::UntilDone(end) => (end, 0),
            Limit::Before(last) => last,
        };
        let ran_to = ran_to.min((horizon, u32::MAX));
        for i in 0..self.ctx().cross.len() {
            let p = self.ctx().cross[i];
            self.advance(p, ran_to);
        }
    }

    /// The earliest start of a packet waiting at one of this shard's
    /// cross-shard ports: a departure no event of its own marks, whose
    /// handoff the window that holds it must send.
    fn next_handoff(&self) -> Option<SimTime> {
        let ctx = self.shard.as_ref().expect("sharded net without ctx");
        (ctx.cross.iter())
            .map(|&p| self.head_start[p as usize])
            .min()
            .filter(|&t| t < SimTime::MAX)
    }

    /// Every flow this shard receives has completed.
    fn is_done(&self) -> bool {
        let ctx = self.shard.as_ref().expect("sharded net without ctx");
        self.n_completed == ctx.local_flows
    }

    /// Receive the cross-shard handoffs in this replica's inbox: each
    /// packet parks in this replica's arena and rides its `pipes[port]`,
    /// exactly as it would have on a serial engine — the sender owns the
    /// port, the receiver owns the link's far end and everything scheduled
    /// on it. A port has one source shard, so its handoffs arrive in send
    /// order; the drained buckets keep their capacity.
    fn ingest(&mut self) {
        for src in 0..self.ctx().inbox.len() {
            let mut msgs = std::mem::take(&mut self.ctx().inbox[src]);
            for XMsg { port, at, pkt } in msgs.drain(..) {
                let slot = self.arena.insert(pkt);
                self.schedule_arrival(port, at, slot, true);
            }
            self.ctx().inbox[src] = msgs;
        }
    }

    /// Fold one shard replica into this one (the run folds every shard
    /// into shard 0, then reports from the result). Ports, pipes and
    /// balancers move wholesale to their owner, a port's queued packets
    /// and a pipe's crossing ones re-parked in this replica's arena, where
    /// `finish_audit` reads them; the other replica's open
    /// endpoints close where they are, as the serial engine's would at the
    /// end of the run, folding into its counters and ledger; counters add;
    /// the clocks join on the latest event. Per the ownership partition every
    /// moved entity on `self` is still in its pristine build state, so the
    /// merged `Net` reports what a serial run would have (up to the FEL
    /// telemetry caveat on [`super::metrics::Metrics::absorb`]).
    fn absorb_shard(&mut self, mut other: Net<'a>) {
        let octx = other.shard.take().expect("absorbing a serial net");
        let (oid, map) = (octx.id, octx.map);
        debug_assert!(
            (octx.outbox.iter().chain(&octx.inbox)).all(Vec::is_empty),
            "undelivered cross-shard messages"
        );
        for pi in 0..self.ports.len() {
            if map.port_owner[pi] == oid {
                other.ports[pi].rehome(&mut other.arena, &mut self.arena);
                std::mem::swap(&mut self.ports[pi], &mut other.ports[pi]);
                self.head_start[pi] = other.head_start[pi];
            }
            if map.arrive_owner[pi] == oid {
                let mut wire = std::mem::take(&mut other.pipes[pi]);
                for (at, pkt) in other.arena.drain(&mut wire) {
                    let slot = self.arena.insert(pkt);
                    self.arena.link_back(&mut self.pipes[pi], slot, at);
                }
            }
        }
        debug_assert!(other.arena.is_empty(), "a packet on no port and no pipe");
        for l in 0..self.lb_sws.len() {
            if map.sw_owner[l] == oid {
                std::mem::swap(&mut self.lb_sws[l], &mut other.lb_sws[l]);
            }
        }
        other.close_open_endpoints();
        // A flow starts on its source's replica and completes on its
        // destination's; every other replica's row is still as built, so
        // OR-ing the two facts in is exact.
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            mine.started |= theirs.started;
            if theirs.completed {
                (mine.completed, mine.end) = (true, theirs.end);
            }
        }
        self.n_completed += other.n_completed;
        self.events += other.events;
        for (mine, theirs) in self.events_by_rank.iter_mut().zip(other.events_by_rank) {
            *mine += theirs;
        }
        self.last_start = self.last_start.max(other.last_start);
        self.audit.absorb(&other.audit);
        self.m.absorb(other.m);
        self.m.fel_nodes_peak = self.m.fel_nodes_peak.max(other.q.pool_nodes_peak() as u64);
        self.m.wire_pkts_peak += other.wire_pkts_peak as u64;
        self.m.conns_peak += (other.senders.peak() + other.receivers.peak()) as u64;
        self.q
            .absorb_monotonicity_violations(other.q.monotonicity_violations());
        // The run's last event is the latest any replica ran.
        (self.now, self.cur_key) = (self.now, self.cur_key).max((other.now, other.cur_key));
    }
}

/// Move every non-empty outbox bucket to its destination: an O(1) swap
/// with the destination's inbox bucket for that source, which is empty
/// (every replica drained its inbox at the start of the window) and so
/// hands its capacity back. Returns how many packets moved.
fn move_handoffs(nets: &mut [MutexGuard<Net>]) -> u64 {
    let mut moved = 0;
    for src in 0..nets.len() {
        for dst in 0..nets.len() {
            if nets[src].ctx().outbox[dst].is_empty() {
                continue;
            }
            let msgs = std::mem::take(&mut nets[src].ctx().outbox[dst]);
            moved += msgs.len() as u64;
            let spare = std::mem::replace(&mut nets[dst].ctx().inbox[src], msgs);
            debug_assert!(spare.is_empty(), "an inbox outlived its window");
            nets[src].ctx().outbox[dst] = spare;
        }
    }
    moved
}

/// The earliest pending within-horizon timestamp over every replica's
/// next event ([`Net::peek`]), its next cross-shard departure
/// ([`Net::next_handoff`]) and parked handoffs (the null-message horizon
/// update of classic conservative PDES, carried on the data path); `None`
/// when there is none.
fn global_min(nets: &[MutexGuard<Net>], horizon: SimTime) -> Option<SimTime> {
    (nets.iter())
        .flat_map(|n| {
            let ctx = n.shard.as_ref().expect("sharded net without ctx");
            let parked = ctx.inbox.iter().flatten().map(|m| m.at);
            let next = n.peek().map(|(t, _)| t).into_iter();
            next.chain(n.next_handoff()).chain(parked)
        })
        .filter(|&t| t <= horizon)
        .min()
}

/// Give every replica the same [`Limit`] for its next stretch.
fn set_limit(nets: &mut [MutexGuard<Net>], limit: Limit) {
    for net in nets.iter_mut() {
        net.ctx().limit = limit;
    }
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
    if pmap.n_pods() < 2 {
        return Err(FallbackReason::SingleShard);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = workers.map_or(cores, |w| w as usize);
    // One replica per worker asked for; one worker runs two shards, so a
    // 1-worker run is still a sharded run. The threads are no more than
    // the shards or the host's cores: a thread beyond the cores only spins
    // at the barrier for one the host has descheduled, so the workers
    // share the replicas out instead (`Run::worker_loop`).
    let n_shards = workers.clamp(2, pmap.n_pods() as usize);
    let n_workers = workers.clamp(1, n_shards).min(cores);
    let map = ShardMap::new(&pmap, n_shards as u16);
    let lookahead = lookahead(cfg, &pmap, &map);
    if lookahead.is_zero() {
        return Err(FallbackReason::ZeroLookahead);
    }
    let nets = build_replicas(cfg, flows, next_flow, &map);
    let run = Run::new(cfg, flows, &nets, lookahead, n_workers);
    run.drive();
    let [windows, handoffs, split_windows] =
        [run.windows, run.handoffs, run.split_windows].map(AtomicU64::into_inner);

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
    report.sharded_shards = n_shards as u32;
    report.sharded_windows = windows;
    report.sharded_handoffs = handoffs;
    report.sharded_split_windows = split_windows;
    Ok(report)
}

/// One full replica per shard (built in parallel — builds are
/// independent), each counting the flows it receives.
fn build_replicas<'a>(
    cfg: &'a SimConfig,
    flows: &'a [FlowSpec],
    next_flow: &'a [Option<u32>],
    map: &'a ShardMap,
) -> Vec<Mutex<Net<'a>>> {
    let n = map.n_shards as usize;
    let mut slots: Vec<Option<Net>> = (0..n).map(|_| None).collect();
    std::thread::scope(|sc| {
        for (sid, slot) in slots.iter_mut().enumerate() {
            let ctx = ShardCtx {
                id: sid as u16,
                map,
                outbox: (0..n).map(|_| Vec::new()).collect(),
                inbox: (0..n).map(|_| Vec::new()).collect(),
                local_flows: (flows.iter())
                    .filter(|f| map.host_owner[f.dst.index()] == sid as u16)
                    .count(),
                limit: Limit::Window(SimTime::ZERO),
                cross: (0..map.port_owner.len() as PortId)
                    .filter(|&p| {
                        let p = p as usize;
                        map.port_owner[p] == sid as u16 && map.arrive_owner[p] != sid as u16
                    })
                    .collect(),
            };
            sc.spawn(move || *slot = Some(Net::build(cfg, flows, next_flow, Some(ctx))));
        }
    });
    slots
        .into_iter()
        .map(|n| Mutex::new(n.expect("replica build panicked")))
        .collect()
}

/// The conservative lookahead: minimum propagation delay over every
/// cross-shard directed link, folded over every rate change of the admin
/// schedule (a mid-run rewrite may shrink a delay; the lookahead must
/// lower-bound every state the link ever reaches).
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

/// Everything the window protocol shares across worker threads: the
/// replicas, the done flag and the barrier. The rest is constant.
struct Run<'n, 'a> {
    nets: &'n [Mutex<Net<'a>>],
    /// Set by the leader when the run is over; the barrier orders the
    /// write before every worker's read.
    done: AtomicBool,
    barrier: SpinBarrier,
    horizon: SimTime,
    /// Latest flow start time: only a window that ends after it can hold
    /// the run's last event.
    last_start: SimTime,
    lookahead: SimTime,
    n_workers: usize,
    /// Parallel windows opened, packets moved between replicas and
    /// windows that took a second stretch (they surface in the
    /// [`crate::report::RunReport`] fields of the same names).
    windows: AtomicU64,
    handoffs: AtomicU64,
    split_windows: AtomicU64,
}

impl<'n, 'a> Run<'n, 'a> {
    fn new(
        cfg: &SimConfig,
        flows: &[FlowSpec],
        nets: &'n [Mutex<Net<'a>>],
        lookahead: SimTime,
        n_workers: usize,
    ) -> Run<'n, 'a> {
        Run {
            nets,
            done: AtomicBool::new(false),
            barrier: SpinBarrier::new(n_workers),
            horizon: cfg.horizon,
            last_start: flows.iter().map(|f| f.start).max().unwrap_or(SimTime::ZERO),
            lookahead,
            n_workers,
            windows: AtomicU64::new(0),
            handoffs: AtomicU64::new(0),
            split_windows: AtomicU64::new(0),
        }
    }

    /// Work the replicas on `n_workers` threads, this one included, until
    /// the run is done. A worker that panics poisons the barrier, so the
    /// others panic too and the panic leaves through the scope.
    fn drive(&self) {
        std::thread::scope(|sc| {
            for w in 1..self.n_workers {
                sc.spawn(move || self.worker_loop(w));
            }
            self.worker_loop(0);
        });
    }

    /// The window protocol, from every worker's point of view: one barrier
    /// crossing per stretch, whose last arriver decides while the others
    /// are parked, then every worker runs its replicas: every
    /// `n_workers`-th from its own index (one each when there are as many
    /// threads as shards).
    fn worker_loop(&self, w: usize) {
        let _party = self.barrier.party();
        loop {
            self.barrier.wait_then(|| self.decide());
            if self.done.load(Ordering::Relaxed) {
                return;
            }
            for net in self.nets.iter().skip(w).step_by(self.n_workers) {
                net.lock().expect(POISONED).run_window(self.horizon);
            }
        }
    }

    /// The leader's step, holding every replica (locked once, in index
    /// order). After a window that could end the run, settle it (module
    /// docs, "Where the run ends"): every shard done means the run's last
    /// event is known, and the shards run up to it; some done means they
    /// run on to the window's end. Otherwise move the handoffs, find the
    /// global minimum, and open the next window or end the run.
    ///
    /// The next window opens at or after the last one's end `E`, which
    /// every replica's [`Limit`] still holds: every event before `E` has
    /// run, and every handoff lands at or after its send time plus the
    /// lookahead. A replica that left an event below `E` unrun would
    /// otherwise have the same window reopened forever.
    fn decide(&self) {
        let mut nets: Vec<_> = (self.nets.iter())
            .map(|m| m.lock().expect(POISONED))
            .collect();
        let last_end = match nets[0].ctx().limit {
            Limit::Before(_) => return self.finish(&mut nets),
            Limit::UntilDone(end) => {
                let done = nets.iter().filter(|n| n.is_done()).count();
                if done > 0 {
                    self.split_windows.fetch_add(1, Ordering::Relaxed);
                }
                if done == nets.len() {
                    let last = nets.iter().map(|n| (n.now, n.cur_key)).max();
                    return set_limit(&mut nets, Limit::Before(last.expect("no replicas")));
                }
                if done > 0 {
                    return set_limit(&mut nets, Limit::Window(end));
                }
                end
            }
            Limit::Window(end) => end,
        };
        self.handoffs
            .fetch_add(move_handoffs(&mut nets), Ordering::Relaxed);
        let Some(t_min) = global_min(&nets, self.horizon) else {
            return self.finish(&mut nets);
        };
        debug_assert!(
            t_min >= last_end,
            "a window would reopen at {t_min:?}, before the last one's end {last_end:?}"
        );
        let end = SimTime::from_nanos(t_min.as_nanos().saturating_add(self.lookahead.as_nanos()));
        let limit = if self.last_start < end {
            Limit::UntilDone(end)
        } else {
            Limit::Window(end)
        };
        set_limit(&mut nets, limit);
        self.windows.fetch_add(1, Ordering::Relaxed);
    }

    /// End the run. Still-parked handoffs go onto their owners' links so
    /// the end-of-run audit counts them as propagating residuals, exactly
    /// like the serial engine's leftover in-flight packets.
    fn finish(&self, nets: &mut [MutexGuard<Net>]) {
        self.handoffs
            .fetch_add(move_handoffs(nets), Ordering::Relaxed);
        for net in nets.iter_mut() {
            net.ingest();
        }
        self.done.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::Scheme;

    #[test]
    fn leaf_spine_partition_deals_leaves_in_contiguous_groups() {
        let cfg = SimConfig::basic_paper(Scheme::Ecmp);
        let pmap = PortMap::new(&cfg.topo);
        let n_leaves = cfg.topo.n_leaves() as u16;
        assert_eq!(n_leaves, 3);
        // Two shards take leaves 0..2 and 2; one per leaf is the finest
        // partition.
        for (n, leaf_owner) in [(2, [0, 0, 1]), (3, [0, 1, 2])] {
            let map = ShardMap::new(&pmap, n);
            assert_eq!(map.n_shards, n);
            assert_eq!(map.sw_owner[..3], leaf_owner);
            for h in 0..cfg.topo.n_hosts() as u32 {
                let leaf = cfg.topo.leaf_of(tlb_net::HostId(h)).index();
                assert_eq!(map.host_owner[h as usize], leaf_owner[leaf]);
                // Host links never cross shards.
                let nic = pmap.host_nic(h);
                assert_eq!(map.port_owner[nic as usize], map.arrive_owner[nic as usize]);
            }
            // Spines are distributed round-robin.
            for s in 0..cfg.topo.n_spines() as u16 {
                assert_eq!(map.sw_owner[(n_leaves + s) as usize], s % n);
            }
        }
    }

    #[test]
    fn fat_tree_partition_deals_pods_in_contiguous_groups() {
        let mut cfg = SimConfig::basic_paper(Scheme::Ecmp);
        cfg.topo = tlb_net::FatTreeBuilder::new(4).build();
        let pmap = PortMap::new(&cfg.topo);
        assert_eq!(pmap.n_pods(), 4);
        // k = 4: 4 pods of 2 edges (switches 0..8) and 2 aggs (8..16) over
        // 4 cores (16..20), 2 hosts per edge. Every edge and agg lives with
        // its pod's group (pods 0-1 and 2-3 at two shards, one pod each
        // at four); hosts with their edge; cores are dealt round-robin.
        for n in [2u16, 3, 4] {
            let map = ShardMap::new(&pmap, n);
            assert_eq!(map.n_shards, n);
            for e in 0..8 {
                let group = (e / 2) as u16 * n / 4;
                assert_eq!(map.sw_owner[e], group, "edge {e} of {n} shards");
                assert_eq!(map.sw_owner[8 + e], group, "agg {e} of {n} shards");
            }
            for c in 0..4 {
                assert_eq!(map.sw_owner[16 + c], c as u16 % n);
            }
            for h in 0..16 {
                assert_eq!(map.host_owner[h], map.sw_owner[h / 2]);
            }
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
    fn a_worker_panic_ends_the_run_instead_of_hanging_it() {
        // One replica panics mid-window, on the worker that also leads
        // (shard 0) or on the other one. Either way the other worker must
        // leave the barrier with a panic instead of spinning for good.
        for faulty in [0, 1] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let cfg = SimConfig::basic_paper(Scheme::Ecmp);
                let flows = one_flow(&cfg, 200);
                let pmap = PortMap::new(&cfg.topo);
                let map = ShardMap::new(&pmap, 2);
                let la = lookahead(&cfg, &pmap, &map);
                let nets = build_replicas(&cfg, &flows, &[None], &map);
                nets[faulty].lock().unwrap().panic_at_event = Some(50);
                let run = Run::new(&cfg, &flows, &nets, la, 2);
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.drive()));
                tx.send(outcome.is_err()).unwrap();
            });
            let reported = rx.recv_timeout(std::time::Duration::from_secs(60));
            assert_eq!(reported, Ok(true), "replica {faulty}'s panic hung the run");
        }
    }

    /// The arena's reservation is the wire bound plus a full queue for
    /// every port a `Net` holds — NICs at the host queue's capacity, switch
    /// ports at the switch queue's, and, on a shard replica, nothing for a
    /// stub of a port another shard owns — plus the one packet a host holds
    /// before its NIC admits it.
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
            let serial = Net::build(&cfg, &flows, &[None], None);
            let every: usize = ports().map(queue).sum();
            assert_eq!(
                link::packet_bound(&cfg, &pmap, &serial.ports),
                wire + every + 1
            );

            let map = ShardMap::new(&pmap, 2);
            let nets = build_replicas(&cfg, &flows, &[None], &map);
            assert_eq!(nets.len(), 2);
            for (id, net) in nets.iter().enumerate() {
                let owned = |p: &u32| map.port_owner[*p as usize] == id as u16;
                let own: usize = ports().filter(owned).map(queue).sum();
                let net = net.lock().unwrap();
                assert_eq!(
                    link::packet_bound(&cfg, &pmap, &net.ports),
                    wire + own + 1,
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
        let map = ShardMap::new(&pmap, 2);
        let la = lookahead(&cfg, &pmap, &map);
        // Every cross-shard link is a leaf↔spine pair; the minimum is the
        // fabric's uplink propagation delay.
        assert_eq!(la, cfg.topo.uplink_props(0, 1).prop_delay);
        assert!(!la.is_zero());
    }
}
