//! Static load-balancer dispatch: [`AnyLb`], a closed enum over the
//! concrete schemes whose trait methods dispatch by `match`. The compiler
//! sees through the variant and can inline the scheme's decision logic
//! into the forwarding loop, where a `Box<dyn LoadBalancer>` would cost a
//! virtual call on every forwarded packet. The [`LoadBalancer`] trait stays
//! the schemes' contract; this module's tests hold the enum to calling
//! each concrete balancer exactly as a trait object would.

use crate::Scheme;
use tlb_core::Tlb;
use tlb_engine::{SimRng, SimTime};
use tlb_lb::{DiffFlow, Drill, Ecmp, FlowBender, HermesLite, LetFlow, Presto, Rps, Wcmp};
use tlb_net::Packet;
use tlb_switch::{LoadBalancer, PortView};

/// Which load-balancer dispatch a run uses. Vestigial: [`AnyLb`] is the
/// only one and nothing reads this value. It stays only because the
/// benchmark harness still names it (`SimConfig::lb_dispatch`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LbDispatch {
    /// Static enum dispatch ([`AnyLb`]).
    Enum,
}

/// A load balancer with static dispatch: one variant per concrete scheme.
pub enum AnyLb {
    /// Flow-level hashing.
    Ecmp(Ecmp),
    /// Per-packet random spraying.
    Rps(Rps),
    /// Fixed-size flowcells, round-robin.
    Presto(Presto),
    /// Flowlet switching: LetFlow (random repick) and CONGA-lite
    /// (shortest-queue repick).
    LetFlow(LetFlow),
    /// Per-packet power-of-two-choices with memory.
    Drill(Drill),
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
}

/// Forward one expression to every variant's payload. `Box<T>` payloads
/// auto-deref in method calls, so one arm body serves concrete and boxed
/// variants alike; the two-body form gives the boxed `Tlb` its own
/// expression where auto-deref is not enough.
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
            AnyLb::FlowBender($lb) => $body,
            AnyLb::Hermes($lb) => $body,
            AnyLb::Wcmp($lb) => $body,
            AnyLb::DiffFlow($lb) => $body,
            AnyLb::Tlb($boxed) => $boxed_body,
        }
    };
}

impl LoadBalancer for AnyLb {
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
    /// Build this scheme's balancer for one LB switch — the one
    /// constructor table. `salt` decorrelates hash-based schemes across
    /// switches.
    pub fn build_static(&self, salt: u64) -> AnyLb {
        match self {
            Scheme::Ecmp => AnyLb::Ecmp(Ecmp::new(salt)),
            Scheme::Rps => AnyLb::Rps(Rps::new()),
            Scheme::Presto => AnyLb::Presto(Presto::new()),
            Scheme::LetFlow => AnyLb::LetFlow(LetFlow::new()),
            Scheme::Drill => AnyLb::Drill(Drill::new()),
            Scheme::CongaLite => AnyLb::LetFlow(LetFlow::conga()),
            Scheme::FlowBender => AnyLb::FlowBender(FlowBender::new()),
            Scheme::Hermes => AnyLb::Hermes(HermesLite::new()),
            Scheme::Wcmp => AnyLb::Wcmp(Wcmp::new()),
            Scheme::DiffFlow => AnyLb::DiffFlow(DiffFlow::new()),
            Scheme::Tlb(cfg) => AnyLb::Tlb(Box::new(Tlb::new(*cfg))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The concrete balancer behind `lb` as a trait object: the plain
    /// virtual-call path that `dispatch!` must be indistinguishable from.
    fn into_dyn(lb: AnyLb) -> Box<dyn LoadBalancer> {
        dispatch!(lb,
            lb => Box::new(lb) as Box<dyn LoadBalancer>,
            boxed => boxed as Box<dyn LoadBalancer>)
    }

    /// Every scheme: [`AnyLb`] and the trait object of the same concrete
    /// balancer must expose identical trait-level metadata and make
    /// identical decisions on a packet stream (same salt, same RNG
    /// stream) — `dispatch!` forwards every method, including the
    /// hand-written `long_reroutes` / `forced_reroutes` arms.
    #[test]
    fn enum_and_dyn_paths_agree_per_scheme() {
        use tlb_net::{FlowId, HostId, PktKind};
        use tlb_switch::OutPort;

        let lens: Vec<usize> = (0..8).map(|i| i * 3 % 7).collect();
        let ports = OutPort::filled(&lens);

        for scheme in Scheme::extended_set() {
            let mut fast = scheme.build_static(7);
            let mut slow = into_dyn(scheme.build_static(7));
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
