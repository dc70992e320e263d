//! # tlb-core — Traffic-aware Load Balancing with adaptive granularity
//!
//! The primary contribution of the reproduced paper (ICPP 2019): a leaf-switch
//! load balancer that reroutes **short flows per packet** onto the shortest
//! uplink queue while **long flows switch only when their current queue
//! reaches an adaptive threshold `q_th`**, recomputed every interval from the
//! measured load strength of short flows via the M/G/1 model in `tlb-model`.
//!
//! Architecture (paper §3, Fig. 6):
//!
//! * **Granularity calculator** — [`Tlb::on_tick`]: every `t` (500 µs),
//!   purge idle flow records (the §5 sampling rule), recount active
//!   short/long flows, and recompute `q_th` from Eq. 9.
//! * **Forwarding manager** — [`Tlb::choose_uplink`]: per-packet forwarding
//!   with flow classification by bytes sent (100 KB threshold, §5) and
//!   SYN/FIN-driven flow counting.

pub mod config;

pub use config::{ThresholdMode, TlbConfig};

use tlb_engine::{SimRng, SimTime};
use tlb_model::{q_th_min, ModelParams, QTh};
use tlb_net::{Packet, PktKind};
use tlb_switch::{FlowMap, LoadBalancer, PortView};

/// Per-flow record at the leaf switch.
#[derive(Clone, Copy, Debug)]
struct FlowState {
    /// Payload bytes observed from this flow (drives classification).
    bytes_seen: u64,
    /// Uplink the flow's previous packet took.
    port: usize,
    /// True once `bytes_seen` exceeded the short/long threshold.
    is_long: bool,
    /// True if the flow is included in the m_S/m_L counts (we saw its SYN,
    /// or re-learned it after an idle purge). Reverse ACK streams stay
    /// uncounted — they carry no payload worth modelling.
    counted: bool,
}

/// The TLB load balancer. One instance runs per leaf switch.
///
/// ```
/// use tlb_core::Tlb;
/// use tlb_engine::{SimRng, SimTime};
/// use tlb_net::{FlowId, HostId, LinkProps, Packet, PktKind};
/// use tlb_switch::{LoadBalancer, OutPort, PortView, QueueCfg};
///
/// let ports: Vec<OutPort> = (0..15)
///     .map(|_| OutPort::new(LinkProps::gbps(1.0, SimTime::ZERO), QueueCfg::paper_default()))
///     .collect();
/// let mut tlb = Tlb::paper_default();
/// let mut rng = SimRng::new(1);
///
/// // A new flow announces itself with a SYN; TLB counts it as short.
/// let syn = Packet::control(FlowId(1), HostId(0), HostId(20), PktKind::Syn, 0, SimTime::ZERO);
/// let port = tlb.choose_uplink(&syn, PortView::new(&ports), SimTime::ZERO, &mut rng);
/// assert!(port < 15);
/// assert_eq!(tlb.counts(), (1, 0)); // (m_S, m_L)
/// ```
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    flows: FlowMap<FlowState>,
    /// Active counted short flows (`m_S`).
    m_short: usize,
    /// Active counted long flows (`m_L`).
    m_long: usize,
    /// Current switching threshold in bytes; `u64::MAX` encodes "infinite"
    /// (long flows pinned).
    q_th_bytes: u64,
    /// Online estimate of the mean short-flow size `X` (EWMA over completed
    /// short flows), used when [`TlbConfig::estimate_mean_short`] is set.
    mean_short_est: f64,
    /// Number of granularity recomputations performed (diagnostics).
    updates: u64,
    /// Number of long-flow reroutes performed (diagnostics / Fig. 9).
    long_reroutes: u64,
    /// Long flows moved because their cached uplink went down. Kept apart
    /// from `long_reroutes`: these are failure-forced, not the voluntary
    /// q_th-triggered moves the Fig. 9 accounting (and the fuzzer's
    /// pinned-TLB zero-reroute oracle) reason about.
    forced_reroutes: u64,
    /// Seeded bug for the fuzzer's mutation self-check: when set, the
    /// granularity update with this index skips its threshold recompute
    /// (a stale-`q_th` interval). Only exists under `fault-inject`; never
    /// armed unless a test calls [`Tlb::fault_skip_recompute_at`].
    #[cfg(feature = "fault-inject")]
    fault_skip_recompute_at: Option<u64>,
}

impl Tlb {
    /// Build a TLB instance from its configuration.
    pub fn new(cfg: TlbConfig) -> Tlb {
        cfg.validate().expect("invalid TLB configuration");
        let q0 = match cfg.threshold_mode {
            // Before the first tick there is no load estimate; start from
            // "switch freely" which the first update (500 µs in) corrects.
            ThresholdMode::Adaptive => 0,
            ThresholdMode::Fixed(q) => q,
        };
        Tlb {
            mean_short_est: cfg.mean_short_prior,
            cfg,
            flows: FlowMap::new(),
            m_short: 0,
            m_long: 0,
            q_th_bytes: q0,
            updates: 0,
            long_reroutes: 0,
            forced_reroutes: 0,
            #[cfg(feature = "fault-inject")]
            fault_skip_recompute_at: None,
        }
    }

    /// Arm the seeded bug: the granularity update with index `update_idx`
    /// (0-based, compare [`Tlb::updates`]) skips its threshold recompute,
    /// leaving `q_th` stale for one interval. The scenario fuzzer's
    /// conformance oracle must flag the divergence — this is the mutation
    /// self-check proving the oracles have teeth.
    #[cfg(feature = "fault-inject")]
    pub fn fault_skip_recompute_at(&mut self, update_idx: u64) {
        self.fault_skip_recompute_at = Some(update_idx);
    }

    /// A TLB instance with the paper's default parameters.
    pub fn paper_default() -> Tlb {
        Tlb::new(TlbConfig::paper_default())
    }

    /// Current switching threshold (Eq. 9 output).
    pub fn q_th(&self) -> QTh {
        if self.q_th_bytes == u64::MAX {
            QTh::Infinite
        } else {
            QTh::Finite(self.q_th_bytes as f64)
        }
    }

    /// Current switching threshold in bytes (`u64::MAX` = infinite).
    pub fn q_th_bytes(&self) -> u64 {
        self.q_th_bytes
    }

    /// Currently counted (short, long) active flows — the paper's
    /// `(m_S, m_L)`.
    pub fn counts(&self) -> (usize, usize) {
        (self.m_short, self.m_long)
    }

    /// The current mean-short-flow-size estimate `X` in bytes.
    pub fn mean_short_estimate(&self) -> f64 {
        self.mean_short_est
    }

    /// How many times a long flow was rerouted to a new uplink.
    pub fn long_reroutes(&self) -> u64 {
        self.long_reroutes
    }

    /// How many long flows were moved because their uplink went down.
    pub fn forced_reroutes(&self) -> u64 {
        self.forced_reroutes
    }

    /// How many granularity updates have run.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Access the configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    fn recount(&mut self) {
        let mut ms = 0;
        let mut ml = 0;
        for (_, st) in self.flows.iter() {
            if st.counted {
                if st.is_long {
                    ml += 1;
                } else {
                    ms += 1;
                }
            }
        }
        self.m_short = ms;
        self.m_long = ml;
    }

    fn recompute_threshold(&mut self, view: PortView<'_>) {
        let params = ModelParams {
            // Live paths only: after a failure the model should reason about
            // the fabric that actually exists. Full mask -> n_ports.
            n_paths: view.n_live() as f64,
            m_short: self.m_short as f64,
            m_long: self.m_long as f64,
            capacity: view.mean_capacity(),
            rtt: self.cfg.rtt.as_secs_f64(),
            interval: self.cfg.update_interval.as_secs_f64(),
            w_long: self.cfg.w_long_bytes,
            mean_short: self.mean_short_est.max(1.0),
            mss: self.cfg.mss as f64,
            deadline: self.cfg.deadline().as_secs_f64(),
        };
        self.q_th_bytes = if self.m_long == 0 {
            // No long flows: the threshold is moot; keep them free to switch.
            0
        } else {
            q_th_min(&params).as_bytes_saturating()
        };
    }
}

impl LoadBalancer for Tlb {
    fn name(&self) -> &'static str {
        "TLB"
    }

    fn choose_uplink(
        &mut self,
        pkt: &Packet,
        view: PortView<'_>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> usize {
        let n = view.n_ports();
        let shortest = view.shortest_bytes_rand(rng);
        let threshold = self.cfg.short_threshold_bytes;
        let q_th = self.q_th_bytes;

        match pkt.kind {
            PktKind::Fin => {
                // Paper §5: a FIN decrements the active-flow count. The FIN
                // itself still needs forwarding; as a single control packet
                // it takes the shortest queue.
                if let Some(st) = self.flows.remove(pkt.flow) {
                    if st.counted {
                        if st.is_long {
                            self.m_long = self.m_long.saturating_sub(1);
                        } else {
                            self.m_short = self.m_short.saturating_sub(1);
                            if self.cfg.estimate_mean_short && st.bytes_seen > 0 {
                                let g = self.cfg.ewma_gain;
                                self.mean_short_est =
                                    (1.0 - g) * self.mean_short_est + g * st.bytes_seen as f64;
                            }
                        }
                    }
                }
                shortest
            }
            PktKind::Syn => {
                // Paper §5: a SYN increments the count; all flows start short.
                let mut newly_counted = false;
                let st = self.flows.touch_or_insert_with(pkt.flow, now, || {
                    newly_counted = true;
                    FlowState {
                        bytes_seen: 0,
                        port: shortest,
                        is_long: false,
                        counted: true,
                    }
                });
                if !newly_counted && !st.counted {
                    // Entry pre-existed from an uncounted packet; the SYN
                    // upgrades it to counted.
                    st.counted = true;
                    newly_counted = true;
                }
                let is_long = st.is_long;
                st.port = shortest;
                if newly_counted {
                    if is_long {
                        self.m_long += 1;
                    } else {
                        self.m_short += 1;
                    }
                }
                shortest
            }
            PktKind::Data => {
                let mut became_long = false;
                let mut relearned = false;
                let st = self.flows.touch_or_insert_with(pkt.flow, now, || {
                    // A data packet with no record: the flow was purged as
                    // idle and resumed (or its SYN predates this switch's
                    // state). Re-learn it as counted.
                    relearned = true;
                    FlowState {
                        bytes_seen: 0,
                        port: shortest,
                        is_long: false,
                        counted: true,
                    }
                });
                st.bytes_seen += pkt.payload_bytes as u64;
                if !st.is_long && st.bytes_seen > threshold {
                    st.is_long = true;
                    became_long = st.counted;
                }
                let mut rerouted_long = false;
                let mut forced = false;
                let port = if st.is_long {
                    // Forwarding manager, long-flow rule: stick to the
                    // current uplink until its queue reaches q_th, then move
                    // to the shortest queue. A dead uplink forces the move
                    // unconditionally (counted separately from the voluntary
                    // q_th-triggered reroutes).
                    let cur = st.port % n;
                    if !view.is_live(cur) {
                        forced = true;
                        st.port = shortest;
                        shortest
                    } else if view.qlen_bytes(cur) >= q_th {
                        rerouted_long = cur != shortest;
                        st.port = shortest;
                        shortest
                    } else {
                        cur
                    }
                } else {
                    // Short-flow rule: every packet to the shortest queue.
                    st.port = shortest;
                    shortest
                };
                if relearned {
                    if st.is_long {
                        self.m_long += 1;
                    } else {
                        self.m_short += 1;
                    }
                } else if became_long {
                    self.m_short = self.m_short.saturating_sub(1);
                    self.m_long += 1;
                }
                if rerouted_long {
                    self.long_reroutes += 1;
                }
                if forced {
                    self.forced_reroutes += 1;
                }
                port
            }
            // SYN-ACK / ACK streams (reverse direction at this leaf): pure
            // control traffic, routed per packet to the shortest queue, and
            // tracked uncounted so they do not distort m_S.
            PktKind::SynAck | PktKind::Ack => {
                let st = self
                    .flows
                    .touch_or_insert_with(pkt.flow, now, || FlowState {
                        bytes_seen: 0,
                        port: shortest,
                        is_long: false,
                        counted: false,
                    });
                st.port = shortest;
                shortest
            }
        }
    }

    fn on_tick(&mut self, view: PortView<'_>, now: SimTime) {
        // Granularity calculator (paper §3.1 + §5): sample out idle flows,
        // re-estimate the load strength, update q_th.
        self.flows.purge_idle(now, self.cfg.idle_timeout);
        self.recount();
        #[cfg(feature = "fault-inject")]
        let fault_skips = self.fault_skip_recompute_at == Some(self.updates);
        #[cfg(not(feature = "fault-inject"))]
        let fault_skips = false;
        if !fault_skips && matches!(self.cfg.threshold_mode, ThresholdMode::Adaptive) {
            self.recompute_threshold(view);
        }
        self.updates += 1;
    }

    fn tick_interval(&self) -> Option<SimTime> {
        Some(self.cfg.update_interval)
    }

    fn state_bytes(&self) -> usize {
        self.flows.state_bytes() + std::mem::size_of::<Tlb>()
    }

    fn q_threshold(&self) -> Option<u64> {
        Some(self.q_th_bytes)
    }

    fn long_reroutes(&self) -> Option<u64> {
        Some(self.long_reroutes)
    }

    fn forced_reroutes(&self) -> Option<u64> {
        Some(self.forced_reroutes)
    }
}

#[cfg(test)]
mod tests;
