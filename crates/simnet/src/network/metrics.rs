//! What a run measures: the metric collectors, their build-time sizing
//! (so steady state never grows them), the shard fold, and the assembly
//! of the final [`RunReport`].
//!
//! One rule decides what lives here: a collector exists iff a figure
//! binary, a test oracle, `tlb-sim` or the benchmark reads its *values*,
//! and what a run records is bounded by flows, fabric and
//! horizon ÷ bucket — never by bytes carried. Short-flow packets are few
//! by definition (≤ `short_threshold` per flow), so the two per-packet
//! sample sets are bounded by the flow count; a long flow costs this
//! layer one `long_goodput` bucket add per in-order delivery and nothing
//! else. DESIGN.md §14 lists each collector with its reader and bound.

use super::{FlowRow, Net};
use crate::config::SimConfig;
use crate::report::{ClassCounters, RunReport, TraceEvent};
use tlb_engine::SimTime;
use tlb_metrics::{FctRecorder, FlowClass, SampleSet, TimeSeries};
use tlb_switch::LoadBalancer;

/// Every collector the packet path writes into.
pub(super) struct Metrics {
    pub fct: FctRecorder,
    pub short_qlen: SampleSet,
    pub short_qdelay: SampleSet,
    /// FEL occupancy sampled every [`Net::FEL_DEPTH_SAMPLE_EVERY`] events.
    pub fel_depth: SampleSet,
    /// Peak of the occupancy bound over the depth-sample schedule.
    pub fel_bound_peak: u64,
    /// FEL pool high-water of the shards folded in so far (the hosting
    /// replica's own queue is read at report time); 0 in a serial run.
    pub fel_nodes_peak: u64,
    /// Wire high-water marks (`Net::wire_pkts_peak`) of the shards folded
    /// in so far, summed (the hosting replica's own is read at report
    /// time); 0 in a serial run.
    pub wire_pkts_peak: u64,
    /// Connection-slab high-water marks of the shards folded in so far,
    /// senders plus receivers (the hosting replica's own slabs are read at
    /// report time); 0 in a serial run.
    pub conns_peak: u64,
    /// Transport counters of long (`[0]`) and short (`[1]`) flows —
    /// indexed by `usize::from(FlowRow::short)` — folded in as each
    /// endpoint closes.
    pub classes: [ClassCounters; 2],
    pub short_reorder: TimeSeries,
    pub long_goodput: TimeSeries,
    pub qth_series: Vec<(f64, f64)>,
    pub traces: Vec<TraceEvent>,
    /// Per-row ordering keys for `traces`, recorded only under sharding:
    /// the report merge stable-sorts the concatenated shard traces by
    /// `(at, key)`, which reconstructs the serial emission order.
    pub trace_keys: Vec<u32>,
    pub queue_series: Vec<(f64, Vec<u32>)>,
    pub lb_state_peak: usize,
    pub lb_decisions: u64,
}

impl Metrics {
    /// Pre-size every collector at build, so steady state never grows one.
    /// The two per-packet sample sets follow *short*-flow segments only
    /// (`total_segs` counts first transmissions; the +25% headroom absorbs
    /// retransmissions — the allocation gate pins typical runs well under
    /// that); everything else is bounded by flows, fabric or
    /// horizon ÷ bucket.
    pub fn new(cfg: &SimConfig, rows: &[FlowRow], sharded: bool) -> Metrics {
        let n = rows.len();
        let segs = |of: fn(&FlowRow) -> bool| -> usize {
            (rows.iter().filter(|r| of(r)))
                .map(|r| r.total_segs as usize)
                .sum()
        };
        let short_segs = segs(|r| r.short);
        let short_cap = (short_segs + short_segs / 4 + 64).min(1 << 22);
        // FEL-depth samples — the one collector that follows the event
        // count, at one `f64` per 4096 events: a data segment costs
        // O(2 hops·(TxDone+Deliver)) events each way, so 24·segs/4096 is a
        // generous estimate.
        let depth_cap = (segs(|_| true) * 24 / 4096 + 64).min(1 << 20);
        let mut fct = FctRecorder::new(cfg.short_threshold);
        fct.reserve(n);
        let traced_segs = segs(|r| r.traced);
        // A traced data segment records ~5 hops each way (NIC, uplink,
        // spine, downlink, delivery; same for its ACK), plus
        // handshake/teardown and retransmissions. 16 rows per segment
        // covers that with headroom, so tracing stays off the steady-state
        // allocation gate; capped like the other horizon-scaled collectors.
        let trace_rows = if traced_segs == 0 {
            0
        } else {
            (traced_segs * 16 + 64).min(1 << 20)
        };
        // One row per series bucket up to the horizon, capped so a long
        // horizon with a fine bucket can't pre-allocate unboundedly.
        let queue_rows = if cfg.sample_queues {
            Self::rows_until_horizon(cfg, cfg.series_bucket, 1)
        } else {
            0
        };
        // A per-class time series reserved to the run horizon, so bucket
        // appends never reallocate mid-run.
        let series = || {
            let mut s = TimeSeries::new(cfg.series_bucket);
            s.reserve_until(cfg.horizon, 1 << 16);
            s
        };
        Metrics {
            fct,
            short_qlen: SampleSet::with_capacity(short_cap),
            short_qdelay: SampleSet::with_capacity(short_cap),
            fel_depth: SampleSet::with_capacity(depth_cap),
            fel_bound_peak: 0,
            fel_nodes_peak: 0,
            wire_pkts_peak: 0,
            conns_peak: 0,
            classes: Default::default(),
            short_reorder: series(),
            long_goodput: series(),
            qth_series: Vec::new(),
            traces: Vec::with_capacity(trace_rows),
            trace_keys: Vec::with_capacity(if sharded { trace_rows } else { 0 }),
            queue_series: Vec::with_capacity(queue_rows),
            lb_state_peak: 0,
            lb_decisions: 0,
        }
    }

    /// Rows a sampler firing every `every` adds by the horizon (plus
    /// `slack`), capped at 2^16.
    fn rows_until_horizon(cfg: &SimConfig, every: SimTime, slack: usize) -> usize {
        let rows = (cfg.horizon.as_nanos() / every.as_nanos().max(1)) as usize + slack;
        rows.min(1 << 16)
    }

    /// Leaf 0's threshold trace grows by at most one row per balancer
    /// tick; materialize the worst case at build.
    pub fn reserve_qth(&mut self, cfg: &SimConfig, tick: SimTime) {
        self.qth_series
            .reserve(Self::rows_until_horizon(cfg, tick, 2));
    }

    /// Fold another shard's collectors in: samples and series merge,
    /// counters add, peaks max. FEL-occupancy telemetry (`fel_depth`,
    /// `fel_bound_peak`) is the one part that is not what a serial run
    /// would have produced: each replica samples its own FEL on its own
    /// event count and checks it against its own bound, so the merged
    /// samples stay within the merged peak but follow per-shard schedules
    /// (deterministically, but not the serial one).
    pub fn absorb(&mut self, mut other: Metrics) {
        self.fct.absorb(other.fct);
        self.short_qlen.merge(&other.short_qlen);
        self.short_qdelay.merge(&other.short_qdelay);
        self.fel_depth.merge(&other.fel_depth);
        self.fel_bound_peak = self.fel_bound_peak.max(other.fel_bound_peak);
        for (mine, theirs) in self.classes.iter_mut().zip(other.classes) {
            mine.data_received += theirs.data_received;
            mine.out_of_order += theirs.out_of_order;
            mine.dup_acks += theirs.dup_acks;
            mine.data_sent += theirs.data_sent;
            mine.retransmits += theirs.retransmits;
            mine.timeouts += theirs.timeouts;
            mine.fast_retransmits += theirs.fast_retransmits;
        }
        self.short_reorder.absorb(&other.short_reorder);
        self.long_goodput.absorb(&other.long_goodput);
        // Leaf/edge 0 (and with it the qth/queue samplers) is always
        // shard 0's.
        debug_assert!(other.qth_series.is_empty());
        debug_assert!(other.queue_series.is_empty());
        self.traces.append(&mut other.traces);
        self.trace_keys.append(&mut other.trace_keys);
        self.lb_state_peak = self.lb_state_peak.max(other.lb_state_peak);
        self.lb_decisions += other.lb_decisions;
    }

    /// After every shard is folded in: stable-sort the concatenated trace
    /// rows by `(at, key)`, reconstructing serial emission order (rows
    /// from one event keep their relative order; events are totally
    /// ordered by `(time, key)` since every key has a single origin).
    pub fn sort_sharded_traces(&mut self) {
        let keys = std::mem::take(&mut self.trace_keys);
        debug_assert_eq!(keys.len(), self.traces.len());
        let mut rows: Vec<(TraceEvent, u32)> = self.traces.drain(..).zip(keys).collect();
        rows.sort_by_key(|(t, k)| (t.at, *k));
        self.traces.extend(rows.into_iter().map(|(t, _)| t));
    }
}

impl Net<'_> {
    pub(super) fn into_report(mut self, wall: std::time::Duration) -> RunReport {
        // The clock can only pass the horizon through a bug (the run loop
        // stops *before* popping any later event); clamp as a backstop so a
        // regression can't inflate every duration-derived rate.
        let sim_end = self.q.now().min(self.cfg.horizon);
        let dur = sim_end.as_secs_f64().max(1e-9);

        // The reusable sender-output buffer was sized from the state
        // machine's worst case (`TcpConfig::max_outputs_per_call`); a
        // regrowth means that bound went stale.
        debug_assert_eq!(
            self.out_buf.capacity(),
            self.cfg.tcp.max_outputs_per_call(),
            "out_buf regrew past the derived per-call output bound"
        );

        self.close_open_endpoints();
        let audit = self.finish_audit();

        let uplink_utilization = (0..self.pmap.n_lb as usize)
            .map(|l| {
                self.ports[self.pmap.up_range(l)]
                    .iter()
                    .map(|p| p.stats().busy.as_secs_f64() / dur)
                    .collect()
            })
            .collect();

        // A per-balancer counter summed over the LB switches: present iff
        // the scheme reports one (`None` keeps other schemes' reports
        // unambiguous).
        let lbs = || self.lb_sws.iter().map(|l| &l.lb);
        let sum_reported = |f: fn(&crate::AnyLb) -> Option<u64>| {
            lbs()
                .filter_map(f)
                .fold(None, |acc: Option<u64>, n| Some(acc.unwrap_or(0) + n))
        };
        let lb_state_final = lbs().map(|lb| lb.state_bytes()).max().unwrap_or(0);
        let fluid = |f: fn(&super::hybrid::Hybrid) -> u64| self.hybrid.as_ref().map_or(0, f);

        let m = self.m;
        RunReport {
            scheme: self.cfg.scheme.name().to_string(),
            total_flows: self.flows.len(),
            completed: self.n_completed,
            fct_short: m.fct.summary(FlowClass::Short),
            fct_long: m.fct.summary(FlowClass::Long),
            fct: m.fct,
            short: m.classes[1],
            long: m.classes[0],
            short_qlen: m.short_qlen,
            long_qlen: SampleSet::new(),
            short_qdelay: m.short_qdelay,
            fel_depth: m.fel_depth,
            fel_bound_peak: m.fel_bound_peak,
            fel_nodes_peak: m.fel_nodes_peak.max(self.q.pool_nodes_peak() as u64),
            wire_pkts_peak: m.wire_pkts_peak + self.wire_pkts_peak as u64,
            conns_peak: m.conns_peak + (self.senders.peak() + self.receivers.peak()) as u64,
            short_reorder_series: m.short_reorder.means(),
            long_goodput_series: m.long_goodput.rates(),
            uplink_utilization,
            drops: self.ports.iter().map(|p| p.stats().dropped).sum(),
            marks: self.ports.iter().map(|p| p.stats().marked).sum(),
            lb_state_bytes_peak: m.lb_state_peak.max(lb_state_final),
            qth_series: m.qth_series,
            traces: m.traces,
            queue_series: m.queue_series,
            lb_decisions: m.lb_decisions,
            fluid_migrations: fluid(|h| h.migrations),
            fluid_demotions: fluid(|h| h.demotions),
            fluid_bytes: fluid(|h| h.bytes),
            fluid_rate_changes: fluid(|h| h.rate_changes_seen),
            fluid_timer_events: fluid(|h| h.timer_events),
            // Voluntary long-flow reroutes (TLB) and failure-forced ones
            // are tallied separately.
            tlb_long_reroutes: sum_reported(|lb| lb.long_reroutes()),
            forced_reroutes: sum_reported(|lb| lb.forced_reroutes()),
            events: self.events,
            audit,
            alloc_audit: self.alloc_report,
            sim_end,
            wall,
            engine_workers: None,
            engine_fallback: None,
            sharded_windows: 0,
            sharded_tail_events: 0,
        }
    }
}
