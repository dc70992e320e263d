//! Deterministic multi-core execution of a single simulation via
//! conservative fabric sharding.
//!
//! One simulation is split into **shards** — per-pod for fat trees,
//! per-leaf for leaf-spine fabrics, hosts colocated with their edge/leaf
//! switch — each owning a full replica of the [`super::Net`] state but
//! touching only its own entities: its switches' ports, its hosts'
//! senders/receivers, its slice of the FEL. Shards advance in
//! barrier-synchronized **windows** bounded by the conservative lookahead
//! `Δ` = the minimum propagation delay over any cross-shard link (folded
//! over the whole [`crate::config::LinkEvent`] schedule): an event a shard
//! executes at time `t` can only influence another shard at `t + Δ` or
//! later, so every shard may freely run `[T, T + Δ)` where `T` is the
//! global minimum pending timestamp. Cross-shard packets travel as
//! [`XMsg`] handoffs through per-shard inboxes; each inbox also carries
//! its earliest pending timestamp, which the coordinator folds into `T`
//! (the null-message horizon update of classic conservative PDES, carried
//! on the data path).
//!
//! ## Why the merged schedule is bit-identical to the serial engine
//!
//! Both engines order events by `(time, key, seq)` where
//! [`super::events::event_key`] encodes `(class, entity)`. Every key is
//! pushed by exactly one shard (see `event_key`'s docs), so:
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
//! [`Event::Failure`] / [`Event::LinkChange`] mutate fabric state every
//! replica reads (`recompute_reach` scans the whole port table). They are
//! seeded only into shard 0's FEL and executed in **micro-steps**:
//! parallel windows never cross the next scheduled admin time; when it
//! becomes the global minimum the coordinator runs every event at exactly
//! that timestamp through the cross-shard merge loop and mirrors the state
//! mutation into every replica.
//!
//! The serial engine stops at the instant the last flow completes,
//! possibly mid-window. To reproduce that exactly, a parallel window with
//! end `E` is only opened when the run provably cannot finish inside it:
//! either some flow starts at or after `E` (its `FlowStart` is not
//! processed in the window — events run strictly before `E` — so it
//! cannot complete there), or `remaining flows > bound`, where `bound` is
//! a static upper bound on completions per window (each host can complete
//! at most `window/tx(min_wire) + 2` flows). Once neither holds — every
//! flow has started and `remaining ≤ bound` — the coordinator finishes
//! the run in a **serialized tail**: a global `(time, key)` merge across
//! the shard FELs with the serial loop's exact termination conditions.
//! For open-loop traces the `last_start` guard keeps windows parallel for
//! the whole arrival span and confines the tail to the post-trace drain;
//! small bursts take the tail from the first event — same digests, all
//! machinery exercised, no parallelism.
//!
//! ## What the sharded engine refuses (and falls back to serial on)
//!
//! Hybrid fidelity (fluid flows span shards), closed-loop chains (a
//! completion on one shard would have to start a flow on another),
//! `fault_drop_nth` (a global arrival counter), single-shard topologies
//! and zero lookahead. [`try_run`] returns `None` and [`super::run_with`]
//! runs the serial engine — which is the digest reference anyway.

use super::events::{class, key_of, split_key, Event};
use super::link;
use super::portmap::{NodeRef, PortId, PortMap};
use super::Net;
use crate::config::{FidelityKind, SimConfig};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tlb_engine::{SimTime, SpinBarrier};
use tlb_net::Packet;
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
    /// port's link — the shard that must execute the `Arrive`.
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
    /// routed after every window (or every merged step).
    pub outbox: Vec<XMsg>,
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
/// `port`'s link at `at`" — everything the owning shard needs to schedule
/// the `Arrive` with the exact key and timestamp the serial engine uses.
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

    /// Receive a cross-shard handoff: park the packet and schedule its
    /// arrival, exactly as the per-packet delivery path would have on the
    /// sending side. `Arrive` and `Deliver` share an ordering class on the
    /// transmitting port, so the merged `(time, key, seq)` schedule is
    /// unchanged relative to a serial run in either delivery mode.
    fn inject_arrival(&mut self, XMsg { port, at, pkt }: XMsg) {
        debug_assert!(self.shard.is_some());
        let slot = self.arena.insert(pkt);
        self.q.push_keyed(
            at,
            key_of(class::ARRIVAL, port),
            Event::Arrive { port, slot },
        );
    }

    /// Fold one shard replica into this one (the coordinator folds every
    /// shard into shard 0, then reports from the result). Entities move
    /// wholesale to their owner; counters add; the clocks join on the
    /// latest. Per the ownership partition every moved slot on `self` is
    /// still in its pristine build state, so the merged `Net` is what a
    /// serial run would have produced (up to the FEL telemetry caveat on
    /// [`super::metrics::Metrics::absorb`]).
    fn absorb_shard(&mut self, mut other: Net<'a>) {
        let octx = other.shard.take().expect("absorbing a serial net");
        let oid = octx.id;
        let map = &octx.map;
        debug_assert!(octx.outbox.is_empty(), "unrouted cross-shard messages");
        for pi in 0..self.ports.len() {
            if map.port_owner[pi] == oid {
                std::mem::swap(&mut self.ports[pi], &mut other.ports[pi]);
                std::mem::swap(&mut self.pipes[pi], &mut other.pipes[pi]);
                self.link_fifo[pi] = other.link_fifo[pi];
            }
        }
        for l in 0..self.lb_sws.len() {
            if map.sw_owner[l] == oid {
                std::mem::swap(&mut self.lb_sws[l], &mut other.lb_sws[l]);
            }
        }
        for i in 0..self.flows.len() {
            if other.senders[i].is_some() {
                debug_assert!(self.senders[i].is_none());
                self.senders[i] = other.senders[i].take();
            }
            if other.receivers[i].is_some() {
                debug_assert!(self.receivers[i].is_none());
                self.receivers[i] = other.receivers[i].take();
            }
            if other.completed[i] {
                debug_assert!(!self.completed[i]);
                self.completed[i] = true;
            }
        }
        self.n_completed += other.n_completed;
        self.events += other.events;
        self.arrive_seen += other.arrive_seen;
        self.m.absorb(other.m);
        self.audit.absorb(&other.audit);
        self.q
            .absorb_monotonicity_violations(other.q.monotonicity_violations());
        // Residual in-flight packets (end-of-run leftovers in the other
        // shard's FEL) feed the merged ledger; queued/in-service residuals
        // ride the moved ports and pipe residuals the moved pipes, both
        // scanned later by `finish_audit`.
        let end = other.q.now();
        for (_, ev) in other.q.drain_unordered() {
            if let Event::Arrive { slot, .. } = ev {
                self.audit.residual_propagating(&other.arena.take(slot));
            }
        }
        self.q.join_clock(end);
    }
}

/// A shard's mailbox: messages other shards routed to it, plus the
/// earliest pending within-horizon timestamp (`u64::MAX` when none) —
/// folded into the coordinator's global minimum so in-flight handoffs
/// keep the clock honest (the null-message role).
struct Inbox {
    msgs: Vec<XMsg>,
    min_at: u64,
}

const STATE_RUN: u8 = 0;
const STATE_DONE: u8 = 1;

/// Coordinator → workers control block, published between barriers.
struct Ctl {
    state: AtomicU8,
    window_end: AtomicU64,
}

/// Run `cfg` sharded, or return `None` when a precondition fails and the
/// caller should use the serial engine.
pub(crate) fn try_run(
    cfg: &SimConfig,
    flows: &[FlowSpec],
    next_flow: &[Option<u32>],
    workers: Option<u32>,
    wall_start: std::time::Instant,
) -> Option<crate::report::RunReport> {
    if cfg.fidelity == FidelityKind::Hybrid
        || cfg.fault_drop_nth.is_some()
        || next_flow.iter().any(|n| n.is_some())
    {
        return None;
    }
    let pmap = PortMap::new(&cfg.topo);
    let map = ShardMap::new(&pmap);
    if map.n_shards < 2 {
        return None;
    }
    let lookahead = lookahead(cfg, &pmap, &map);
    if lookahead.is_zero() {
        return None;
    }
    let map = Arc::new(map);
    let bound = completion_bound(cfg, lookahead);
    let n_shards = map.n_shards as usize;
    let n_workers = workers
        .map(|w| w as usize)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, n_shards);

    // Build every replica (in parallel — builds are independent).
    let mut slots: Vec<Option<Net>> = (0..n_shards).map(|_| None).collect();
    std::thread::scope(|sc| {
        for (sid, slot) in slots.iter_mut().enumerate() {
            let map = map.clone();
            sc.spawn(move || {
                let ctx = ShardCtx {
                    id: sid as u16,
                    map,
                    outbox: Vec::new(),
                };
                *slot = Some(Net::build(cfg, flows, next_flow.to_vec(), Some(ctx)));
            });
        }
    });
    let nets: Vec<Mutex<Net>> = slots
        .into_iter()
        .map(|n| Mutex::new(n.expect("replica build panicked")))
        .collect();

    let run = Run {
        nets: &nets,
        inboxes: (0..n_shards)
            .map(|_| {
                Mutex::new(Inbox {
                    msgs: Vec::new(),
                    min_at: u64::MAX,
                })
            })
            .collect(),
        next_time: (0..n_shards).map(|_| AtomicU64::new(0)).collect(),
        done_flows: (0..n_shards).map(|_| AtomicUsize::new(0)).collect(),
        ctl: Ctl {
            state: AtomicU8::new(STATE_RUN),
            window_end: AtomicU64::new(0),
        },
        barrier: SpinBarrier::new(n_workers),
        sched: admin_schedule(cfg),
        horizon: cfg.horizon,
        total_flows: flows.len(),
        last_start: flows.iter().map(|f| f.start.as_nanos()).max().unwrap_or(0),
        lookahead,
        bound,
        n_workers,
        windows: AtomicU64::new(0),
    };

    // Seed the published per-shard minimums so the coordinator's first
    // decision sees the real schedule.
    for (s, net) in nets.iter().enumerate() {
        let net = net.lock().unwrap();
        run.publish(s, &net);
    }

    std::thread::scope(|sc| {
        for w in 1..n_workers {
            let run = &run;
            sc.spawn(move || run.worker_loop(w));
        }
        run.worker_loop(0);
    });
    let run_windows = run.windows.load(Ordering::Relaxed);
    drop(run);

    // Fold every replica into shard 0 and report from the merged state.
    let mut nets: Vec<Net> = nets.into_iter().map(|m| m.into_inner().unwrap()).collect();
    let mut base = nets.remove(0);
    for other in nets {
        base.absorb_shard(other);
    }
    base.m.sort_sharded_traces();
    base.shard = None;
    let mut report = base.into_report(wall_start.elapsed());
    report.engine_workers = Some(n_workers as u32);
    report.sharded_windows = run_windows;
    Some(report)
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

/// Upper bound on flow completions within one parallel window. A flow
/// completes only when a host-side delivery pops (Hybrid fluid
/// completions are rejected up front), each delivery completes at most
/// one flow, and deliveries to host `h` are serialized by its downlink —
/// whose props no [`crate::config::LinkEvent`] ever rewrites (they target
/// fabric uplinks). A window of length `Δ` therefore delivers at most
/// `Δ / tx_h(min_wire) + 2` packets per host.
fn completion_bound(cfg: &SimConfig, lookahead: SimTime) -> usize {
    let min_wire = cfg.tcp.header_bytes.max(1) as u64;
    let mut bound = 0usize;
    for h in 0..cfg.topo.n_hosts() {
        let link = cfg.topo.host_link_of(tlb_net::HostId(h as u32));
        let tx = tlb_engine::time::tx_time(min_wire, link.bytes_per_sec)
            .as_nanos()
            .max(1);
        bound += (lookahead.as_nanos() / tx + 2) as usize;
    }
    bound
}

/// The merged, sorted schedule of admin (failure/link-change) event
/// times. Parallel windows never cross the next entry; micro-steps
/// consume entries as they execute.
fn admin_schedule(cfg: &SimConfig) -> Vec<u64> {
    let mut at: Vec<u64> = cfg
        .link_events
        .iter()
        .map(|e| e.at.as_nanos())
        .chain(cfg.failure_events.iter().map(|e| e.at.as_nanos()))
        .collect();
    at.sort_unstable();
    at
}

/// Everything the window protocol shares across worker threads.
struct Run<'n, 'a> {
    nets: &'n [Mutex<Net<'a>>],
    inboxes: Vec<Mutex<Inbox>>,
    next_time: Vec<AtomicU64>,
    done_flows: Vec<AtomicUsize>,
    ctl: Ctl,
    barrier: SpinBarrier,
    sched: Vec<u64>,
    horizon: SimTime,
    total_flows: usize,
    /// Latest flow start time (ns). A window whose end is at or before
    /// this cannot contain the final completion, whatever `bound` says.
    last_start: u64,
    lookahead: SimTime,
    bound: usize,
    n_workers: usize,
    /// Parallel windows opened (surfaces in
    /// [`crate::report::RunReport::sharded_windows`]).
    windows: AtomicU64,
}

impl<'n, 'a> Run<'n, 'a> {
    /// Publish shard `s`'s next within-horizon timestamp and completion
    /// count (read by the coordinator after the barrier).
    fn publish(&self, s: usize, net: &Net) {
        let t = match net.q.peek_time() {
            Some(t) if t <= self.horizon => t.as_nanos(),
            _ => u64::MAX,
        };
        self.next_time[s].store(t, Ordering::Release);
        self.done_flows[s].store(net.n_completed, Ordering::Release);
    }

    /// The window protocol, from every worker's point of view. Worker 0
    /// doubles as the coordinator: it decides each window (running
    /// micro-steps and the serialized tail itself, while the other
    /// workers are parked at the barrier), publishes the decision, and
    /// then works its own shards like everyone else.
    fn worker_loop(&self, w: usize) {
        let n_shards = self.nets.len();
        let mut scratch: Vec<Vec<XMsg>> = (0..n_shards).map(|_| Vec::new()).collect();
        // Coordinator-only: index of the next unconsumed admin time.
        let mut sched_at = 0usize;
        loop {
            if w == 0 {
                self.decide(&mut sched_at);
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
        let msgs = {
            let mut ib = self.inboxes[s].lock().unwrap();
            ib.min_at = u64::MAX;
            std::mem::take(&mut ib.msgs)
        };
        for m in msgs {
            net.inject_arrival(m);
        }
        net.run_window(end, self.horizon);
        self.route_outbox(&mut net, scratch);
        self.publish(s, &net);
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
            if batch.is_empty() {
                continue;
            }
            let bmin = batch
                .iter()
                .map(|m| m.at)
                .filter(|&at| at <= self.horizon)
                .min()
                .map(|t| t.as_nanos());
            let mut ib = self.inboxes[t].lock().unwrap();
            if let Some(bmin) = bmin {
                ib.min_at = ib.min_at.min(bmin);
            }
            ib.msgs.append(batch);
        }
    }

    /// The coordinator's between-windows step: find the global minimum,
    /// then either declare the run done, execute a micro-step (admin
    /// event), finish serially (completion tail), or open the next
    /// parallel window. Runs with every other worker parked at the
    /// barrier, so locking all shards is deadlock-free.
    fn decide(&self, sched_at: &mut usize) {
        loop {
            let done: usize = self
                .done_flows
                .iter()
                .map(|d| d.load(Ordering::Acquire))
                .sum();
            if done >= self.total_flows {
                self.finish();
                return;
            }
            let mut t_min = u64::MAX;
            for s in 0..self.nets.len() {
                t_min = t_min.min(self.next_time[s].load(Ordering::Acquire));
                t_min = t_min.min(self.inboxes[s].lock().unwrap().min_at);
            }
            if t_min == u64::MAX {
                self.finish();
                return;
            }
            let next_sched = self.sched.get(*sched_at).copied().unwrap_or(u64::MAX);
            let end = t_min
                .saturating_add(self.lookahead.as_nanos())
                .min(next_sched);
            // The run can only end inside the candidate window if every
            // flow starts strictly before its end (events run strictly
            // before `end`, so a later FlowStart cannot even be popped)
            // AND the remaining completions fit under the per-window
            // bound. Only then fall back to the serialized tail.
            if self.last_start < end && self.total_flows - done <= self.bound {
                self.merged_loop(None);
                self.finish();
                return;
            }
            if next_sched <= t_min {
                debug_assert_eq!(next_sched, t_min, "admin event skipped a window");
                self.merged_loop(Some(SimTime::from_nanos(next_sched)));
                while self.sched.get(*sched_at).copied() == Some(next_sched) {
                    *sched_at += 1;
                }
                continue;
            }
            self.windows.fetch_add(1, Ordering::Relaxed);
            self.ctl.window_end.store(end, Ordering::Release);
            self.ctl.state.store(STATE_RUN, Ordering::Release);
            return;
        }
    }

    fn finish(&self) {
        // Flush still-parked handoffs into their owners' FELs so the
        // end-of-run audit counts them as propagating residuals, exactly
        // like the serial engine's leftover in-flight packets.
        self.flush_inboxes();
        self.ctl.state.store(STATE_DONE, Ordering::Release);
    }

    fn flush_inboxes(&self) {
        for (s, ib) in self.inboxes.iter().enumerate() {
            let mut ib = ib.lock().unwrap();
            if ib.msgs.is_empty() {
                continue;
            }
            ib.min_at = u64::MAX;
            let mut net = self.nets[s].lock().unwrap();
            for m in ib.msgs.drain(..) {
                net.inject_arrival(m);
            }
        }
    }

    /// The cross-shard merge: repeatedly pop the `(time, key)`-minimum
    /// event over all shard FELs and dispatch it on its shard, routing
    /// handoffs immediately. `Some(at)` = micro-step (only events at
    /// exactly `at`, i.e. the admin events scheduled there and whatever
    /// shares their timestamp); `None` = completion tail, with the serial
    /// loop's exact termination conditions (stop the instant the last flow
    /// completes; never pop past the horizon).
    ///
    /// Single-origin-per-key makes the tie order exact: a `(time, key)`
    /// collision across two shards is impossible, and within a shard the
    /// FEL's own `(time, key, seq)` order applies.
    fn merged_loop(&self, only_at: Option<SimTime>) {
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
        loop {
            if only_at.is_none() && done >= self.total_flows {
                break;
            }
            let best = guards
                .iter()
                .enumerate()
                .filter_map(|(s, g)| g.q.peek_time_key().map(|(t, k)| (t, k, s)))
                .min();
            let Some((t, key, s)) = best else { break };
            if only_at.is_some_and(|at| t != at) || t > self.horizon {
                break;
            }
            let before = guards[s].n_completed;
            guards[s].step();
            done += guards[s].n_completed - before;
            // Admin events mutate state every replica reads: the owning
            // shard dispatched it (accounting included); mirror the
            // mutation everywhere else.
            let (rank, entity) = split_key(key);
            if matches!(rank, class::LINK_CHANGE | class::FAILURE) {
                for (_, g) in guards.iter_mut().enumerate().filter(|&(r, _)| r != s) {
                    if rank == class::LINK_CHANGE {
                        g.apply_link_change(entity as usize);
                    } else {
                        g.apply_failure(entity as usize);
                    }
                }
            }
            // Route this event's handoffs immediately — the merge may
            // reach their timestamps before the next barrier.
            let ctx = guards[s].shard.as_mut().expect("sharded net without ctx");
            outbox.append(&mut ctx.outbox);
            for m in outbox.drain(..) {
                guards[map.arrive_owner[m.port as usize] as usize].inject_arrival(m);
            }
        }
        for (s, g) in guards.iter().enumerate() {
            self.publish(s, g);
        }
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
        cfg.topo = tlb_net::FatTreeBuilder::new(4).build().into();
        let pmap = PortMap::new(&cfg.topo);
        let map = ShardMap::new(&pmap);
        let ft = cfg.topo.as_fat_tree().unwrap();
        assert_eq!(map.n_shards as usize, ft.n_pods());
        // Every edge and agg lives with its pod; hosts with their edge.
        for e in 0..ft.n_edges() {
            assert_eq!(map.sw_owner[e], (e / ft.half()) as u16);
        }
        for h in 0..cfg.topo.n_hosts() as u32 {
            let edge = ft.edge_of(tlb_net::HostId(h));
            assert_eq!(map.host_owner[h as usize], map.sw_owner[edge]);
        }
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
