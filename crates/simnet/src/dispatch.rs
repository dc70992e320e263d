//! Static load-balancer dispatch: the hot-path alternative to
//! `Box<dyn LoadBalancer>`.
//!
//! A `Box<dyn LoadBalancer>` ([`Scheme::build`]) costs a virtual call on
//! **every** forwarded packet. [`AnyLb`] is a closed enum over the same
//! concrete schemes whose trait methods dispatch by `match` — the compiler
//! sees through the variant and can inline the scheme's decision logic
//! into the forwarding loop.
//!
//! The `dyn` path stays alive as a differential reference (mirroring the
//! FEL's heap-vs-calendar pattern): [`AnyLb::Dyn`] wraps the trait object
//! and [`LbDispatch`] selects which path a run uses. Both paths must be
//! observably identical — digest tests in `tests/determinism.rs` hold them
//! to bit-for-bit equality.

use crate::Scheme;
use tlb_core::Tlb;
use tlb_engine::{SimRng, SimTime};
use tlb_lb::{
    CongaLite, DiffFlow, Drill, Ecmp, FlowBender, HermesLite, LetFlow, Presto, Rps, Wcmp,
};
use tlb_net::Packet;
use tlb_switch::{LoadBalancer, PortView};

/// Which load-balancer dispatch path a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LbDispatch {
    /// Static enum dispatch ([`AnyLb`]'s concrete variants) — the default
    /// production path.
    Enum,
    /// The original `Box<dyn LoadBalancer>` virtual-call path, kept as a
    /// differential reference.
    Dyn,
}

/// A load balancer with static dispatch: one variant per concrete scheme,
/// plus [`AnyLb::Dyn`] wrapping the boxed trait object as the
/// differential reference path.
pub enum AnyLb {
    /// Flow-level hashing.
    Ecmp(Ecmp),
    /// Per-packet random spraying.
    Rps(Rps),
    /// Fixed-size flowcells, round-robin.
    Presto(Presto),
    /// Flowlet switching with random rerouting.
    LetFlow(LetFlow),
    /// Per-packet power-of-two-choices with memory.
    Drill(Drill),
    /// Flowlet switching onto the least-loaded uplink.
    CongaLite(CongaLite),
    /// Flow-level congestion-triggered rehashing.
    FlowBender(FlowBender),
    /// Size-aware flowlet/flow hybrid.
    Hermes(HermesLite),
    /// Weighted flow-level hashing.
    Wcmp(Wcmp),
    /// Static short/long split: spray shorts, pin longs.
    DiffFlow(DiffFlow),
    /// The paper's scheme: traffic-aware adaptive granularity.
    Tlb(Box<Tlb>),
    /// Virtual-call reference path ([`LbDispatch::Dyn`]).
    Dyn(Box<dyn LoadBalancer>),
}

/// Forward one expression to every variant's payload. `Box<T>` payloads
/// auto-deref in method calls, so one arm body serves concrete and boxed
/// variants alike; the two-body form gives the boxed variants (`Tlb`,
/// `Dyn`) their own expression where auto-deref is not enough.
macro_rules! dispatch {
    ($self:expr, $lb:ident => $body:expr) => {
        dispatch!($self, $lb => $body, $lb => $body)
    };
    ($self:expr, $lb:ident => $body:expr, $boxed:ident => $boxed_body:expr) => {
        match $self {
            AnyLb::Ecmp($lb) => $body,
            AnyLb::Rps($lb) => $body,
            AnyLb::Presto($lb) => $body,
            AnyLb::LetFlow($lb) => $body,
            AnyLb::Drill($lb) => $body,
            AnyLb::CongaLite($lb) => $body,
            AnyLb::FlowBender($lb) => $body,
            AnyLb::Hermes($lb) => $body,
            AnyLb::Wcmp($lb) => $body,
            AnyLb::DiffFlow($lb) => $body,
            AnyLb::Tlb($boxed) => $boxed_body,
            AnyLb::Dyn($boxed) => $boxed_body,
        }
    };
}

impl AnyLb {
    /// The concrete balancer behind this value as a trait object — what
    /// [`LbDispatch::Dyn`] runs (never an `AnyLb` inside the box).
    pub(crate) fn into_dyn(self) -> Box<dyn LoadBalancer> {
        dispatch!(self, lb => Box::new(lb) as Box<dyn LoadBalancer>, boxed => boxed)
    }
}

impl LoadBalancer for AnyLb {
    #[inline]
    fn name(&self) -> &'static str {
        dispatch!(self, lb => lb.name())
    }

    #[inline]
    fn choose_uplink(
        &mut self,
        pkt: &Packet,
        view: PortView<'_>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> usize {
        dispatch!(self, lb => lb.choose_uplink(pkt, view, now, rng))
    }

    #[inline]
    fn on_tick(&mut self, view: PortView<'_>, now: SimTime) {
        dispatch!(self, lb => lb.on_tick(view, now))
    }

    #[inline]
    fn tick_interval(&self) -> Option<SimTime> {
        dispatch!(self, lb => lb.tick_interval())
    }

    #[inline]
    fn state_bytes(&self) -> usize {
        dispatch!(self, lb => lb.state_bytes())
    }

    #[inline]
    fn q_threshold(&self) -> Option<u64> {
        dispatch!(self, lb => lb.q_threshold())
    }

    // `Tlb` also has *inherent* `long_reroutes()`/`forced_reroutes()`
    // returning `u64`, which method-call syntax would pick over the
    // trait's `Option<u64>`: name the trait, and deref the boxes by hand.
    #[inline]
    fn long_reroutes(&self) -> Option<u64> {
        dispatch!(self,
            lb => LoadBalancer::long_reroutes(lb),
            b => LoadBalancer::long_reroutes(&**b))
    }

    #[inline]
    fn forced_reroutes(&self) -> Option<u64> {
        dispatch!(self,
            lb => LoadBalancer::forced_reroutes(lb),
            b => LoadBalancer::forced_reroutes(&**b))
    }
}

impl Scheme {
    /// Build this scheme as a statically dispatched [`AnyLb`] — the one
    /// constructor table ([`Scheme::build`] boxes what this builds).
    /// `salt` decorrelates hash-based schemes across switches.
    pub fn build_static(&self, salt: u64) -> AnyLb {
        match self {
            Scheme::Ecmp => AnyLb::Ecmp(Ecmp::new(salt)),
            Scheme::Rps => AnyLb::Rps(Rps::new()),
            Scheme::Presto { cell_bytes } => AnyLb::Presto(Presto::new(*cell_bytes)),
            Scheme::LetFlow { timeout } => AnyLb::LetFlow(LetFlow::new(*timeout)),
            Scheme::Drill { d, m } => AnyLb::Drill(Drill::new(*d, *m)),
            Scheme::CongaLite { timeout } => AnyLb::CongaLite(CongaLite::new(*timeout)),
            Scheme::FlowBender {
                mark_threshold_pkts,
                frac_threshold,
                window_pkts,
            } => AnyLb::FlowBender(FlowBender::new(
                *mark_threshold_pkts,
                *frac_threshold,
                *window_pkts,
            )),
            Scheme::Hermes {
                reroute_size_bytes,
                congested_pkts,
                benefit_factor,
            } => AnyLb::Hermes(HermesLite::new(
                *reroute_size_bytes,
                *congested_pkts,
                *benefit_factor,
            )),
            Scheme::Wcmp => AnyLb::Wcmp(Wcmp::new()),
            Scheme::DiffFlow { threshold_bytes } => {
                AnyLb::DiffFlow(DiffFlow::new(*threshold_bytes))
            }
            Scheme::Tlb(cfg) => AnyLb::Tlb(Box::new(Tlb::new(*cfg))),
        }
    }

    /// Build this scheme on the requested dispatch path. Both paths
    /// construct the identical concrete balancer from the identical salt —
    /// only the call mechanism differs.
    pub fn build_dispatch(&self, salt: u64, dispatch: LbDispatch) -> AnyLb {
        match dispatch {
            LbDispatch::Enum => self.build_static(salt),
            LbDispatch::Dyn => AnyLb::Dyn(self.build(salt)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scheme: the enum path and the dyn path must expose identical
    /// trait-level metadata and make identical decisions on a packet
    /// stream (same salt, same RNG stream).
    #[test]
    fn enum_and_dyn_paths_agree_per_scheme() {
        use tlb_net::{FlowId, HostId, LinkProps, PktKind};
        use tlb_switch::{OutPort, QueueCfg};

        let link = LinkProps::gbps(1.0, SimTime::ZERO);
        let qcfg = QueueCfg {
            capacity_pkts: 64,
            ecn_threshold_pkts: Some(8),
        };
        let ports: Vec<OutPort> = (0..8)
            .map(|i| {
                let mut p = OutPort::new(link, qcfg);
                for s in 0..(i * 3 % 7) {
                    p.enqueue(
                        Packet::data(
                            FlowId(500),
                            HostId(0),
                            HostId(1),
                            s as u32,
                            1460,
                            40,
                            SimTime::ZERO,
                        ),
                        SimTime::ZERO,
                    );
                }
                p
            })
            .collect();

        for scheme in Scheme::extended_set() {
            let mut fast = scheme.build_dispatch(7, LbDispatch::Enum);
            let mut slow = scheme.build_dispatch(7, LbDispatch::Dyn);
            assert_eq!(fast.name(), slow.name());
            assert_eq!(fast.tick_interval(), slow.tick_interval());
            assert_eq!(fast.state_bytes(), slow.state_bytes());
            assert_eq!(fast.q_threshold(), slow.q_threshold());
            assert_eq!(fast.long_reroutes(), slow.long_reroutes());
            assert_eq!(fast.forced_reroutes(), slow.forced_reroutes());

            let mut rng_a = SimRng::new(11);
            let mut rng_b = SimRng::new(11);
            let mut now = SimTime::ZERO;
            for i in 0..512u32 {
                now += SimTime::from_nanos(700);
                let pkt = match i % 97 {
                    0 => Packet::control(
                        FlowId(i / 7),
                        HostId(0),
                        HostId(9),
                        PktKind::Syn,
                        0,
                        SimTime::ZERO,
                    ),
                    1 => Packet::control(
                        FlowId(i / 7),
                        HostId(0),
                        HostId(9),
                        PktKind::Fin,
                        0,
                        SimTime::ZERO,
                    ),
                    _ => Packet::data(
                        FlowId(i / 7),
                        HostId(0),
                        HostId(9),
                        i,
                        1460,
                        40,
                        SimTime::ZERO,
                    ),
                };
                let a = fast.choose_uplink(&pkt, PortView::new(&ports), now, &mut rng_a);
                let b = slow.choose_uplink(&pkt, PortView::new(&ports), now, &mut rng_b);
                assert_eq!(a, b, "{} diverged at packet {i}", scheme.name());
            }
        }
    }
}
