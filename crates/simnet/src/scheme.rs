//! The registry of load-balancing schemes a simulation can run.

use tlb_core::TlbConfig;
use tlb_engine::SimTime;
use tlb_lb::{DiffFlow, Drill, FlowBender, HermesLite, LetFlow, Presto};

/// A load-balancing scheme plus its parameters. One balancer instance is
/// built per leaf switch.
#[derive(Clone, Debug)]
pub enum Scheme {
    /// Flow-level hashing.
    Ecmp,
    /// Per-packet random spraying.
    Rps,
    /// Fixed-size flowcells, round-robin.
    Presto {
        /// Flowcell size in bytes (Presto default: 64 KB).
        cell_bytes: u64,
    },
    /// Flowlet switching with random rerouting.
    LetFlow {
        /// Flowlet inactivity timeout.
        timeout: SimTime,
    },
    /// Per-packet power-of-two-choices with memory (extension).
    Drill {
        /// Random samples per decision.
        d: usize,
        /// Remembered best ports.
        m: usize,
    },
    /// Flowlet switching onto the least-loaded uplink (extension).
    CongaLite {
        /// Flowlet inactivity timeout.
        timeout: SimTime,
    },
    /// Flow-level congestion-triggered rehashing (extension).
    FlowBender {
        /// Queue length (packets) counting as a congested observation.
        mark_threshold_pkts: usize,
        /// Congested fraction per window that triggers a reroute.
        frac_threshold: f64,
        /// Observation window in packets.
        window_pkts: u32,
    },
    /// Cautious size-gated rerouting (extension).
    Hermes {
        /// Bytes a flow must send before it may be rerouted.
        reroute_size_bytes: u64,
        /// Queue length (packets) counting as congested.
        congested_pkts: usize,
        /// Required improvement factor for a move.
        benefit_factor: f64,
    },
    /// Capacity-weighted flow hashing (extension).
    Wcmp,
    /// Static short/long split: spray short flows, pin long ones
    /// (extension).
    DiffFlow {
        /// Byte threshold after which a flow is pinned.
        threshold_bytes: u64,
    },
    /// The paper's contribution.
    Tlb(TlbConfig),
}

impl Scheme {
    /// Display name (matches the paper's figure legends).
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Ecmp => "ECMP",
            Scheme::Rps => "RPS",
            Scheme::Presto { .. } => "Presto",
            Scheme::LetFlow { .. } => "LetFlow",
            Scheme::Drill { .. } => "DRILL",
            Scheme::CongaLite { .. } => "CONGA-lite",
            Scheme::FlowBender { .. } => "FlowBender",
            Scheme::Hermes { .. } => "Hermes-lite",
            Scheme::Wcmp => "WCMP",
            Scheme::DiffFlow { .. } => "DiffFlow",
            Scheme::Tlb(_) => "TLB",
        }
    }

    /// The paper's default parameterizations.
    pub fn presto_default() -> Scheme {
        Scheme::Presto {
            cell_bytes: Presto::DEFAULT_CELL_BYTES,
        }
    }

    /// LetFlow with the paper's 150 µs flowlet timeout.
    pub fn letflow_default() -> Scheme {
        Scheme::LetFlow {
            timeout: LetFlow::DEFAULT_TIMEOUT,
        }
    }

    /// DRILL with its published power-of-two-choices parameters (d = 2
    /// random samples, m = 1 remembered best).
    pub fn drill_default() -> Scheme {
        Scheme::Drill {
            d: Drill::DEFAULT_D,
            m: Drill::DEFAULT_M,
        }
    }

    /// CONGA-lite with CONGA's published 500 µs flowlet timeout.
    pub fn conga_default() -> Scheme {
        Scheme::CongaLite {
            timeout: LetFlow::CONGA_TIMEOUT,
        }
    }

    /// FlowBender with its published parameters (5% trigger, K=20 sensing).
    pub fn flowbender_default() -> Scheme {
        Scheme::FlowBender {
            mark_threshold_pkts: FlowBender::DEFAULT_MARK_THRESHOLD_PKTS,
            frac_threshold: FlowBender::DEFAULT_FRAC_THRESHOLD,
            window_pkts: FlowBender::DEFAULT_WINDOW_PKTS,
        }
    }

    /// Hermes-lite with its defaults (100 kB gate, 2x benefit bar).
    pub fn hermes_default() -> Scheme {
        Scheme::Hermes {
            reroute_size_bytes: HermesLite::DEFAULT_REROUTE_SIZE_BYTES,
            congested_pkts: HermesLite::DEFAULT_CONGESTED_PKTS,
            benefit_factor: HermesLite::DEFAULT_BENEFIT_FACTOR,
        }
    }

    /// DiffFlow with the conventional 100 kB short/long boundary.
    pub fn diffflow_default() -> Scheme {
        Scheme::DiffFlow {
            threshold_bytes: DiffFlow::DEFAULT_THRESHOLD_BYTES,
        }
    }

    /// TLB with the paper's NS2 parameters.
    pub fn tlb_default() -> Scheme {
        Scheme::Tlb(TlbConfig::paper_default())
    }

    /// The extended comparison set: the paper's five plus six extensions —
    /// the §8-related DRILL, CONGA-lite, FlowBender and Hermes-lite, WCMP
    /// and DiffFlow.
    pub fn extended_set() -> Vec<Scheme> {
        let mut s = Scheme::paper_set();
        s.insert(4, Scheme::drill_default());
        s.insert(5, Scheme::conga_default());
        s.insert(6, Scheme::flowbender_default());
        s.insert(7, Scheme::hermes_default());
        s.insert(8, Scheme::Wcmp);
        s.insert(9, Scheme::diffflow_default());
        s
    }

    /// The paper's §6 comparison set: ECMP, RPS, Presto, LetFlow, TLB.
    pub fn paper_set() -> Vec<Scheme> {
        vec![
            Scheme::Ecmp,
            Scheme::Rps,
            Scheme::presto_default(),
            Scheme::letflow_default(),
            Scheme::tlb_default(),
        ]
    }

    /// Check the parameters against what the balancers' constructors
    /// assert, so a bad value is reported before anything is built.
    pub fn validate(&self) -> Result<(), String> {
        let check = |ok: bool, why: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{}: {why}", self.name()))
            }
        };
        match self {
            Scheme::Ecmp
            | Scheme::Rps
            | Scheme::LetFlow { .. }
            | Scheme::CongaLite { .. }
            | Scheme::Wcmp => Ok(()),
            Scheme::Presto { cell_bytes } => check(*cell_bytes > 0, "cell_bytes must be positive"),
            Scheme::Drill { d, .. } => check(*d >= 1, "needs at least one random sample"),
            Scheme::FlowBender {
                frac_threshold,
                window_pkts,
                ..
            } => {
                check(*window_pkts > 0, "window_pkts must be positive")?;
                check(
                    (0.0..=1.0).contains(frac_threshold),
                    "frac_threshold out of [0,1]",
                )
            }
            Scheme::Hermes { benefit_factor, .. } => {
                check(*benefit_factor >= 1.0, "benefit factor must be >= 1")
            }
            Scheme::DiffFlow { threshold_bytes } => {
                check(*threshold_bytes > 0, "threshold_bytes must be positive")
            }
            Scheme::Tlb(cfg) => cfg.validate().map_err(|why| format!("TLB: {why}")),
        }
    }
}

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(Scheme::Ecmp.name(), "ECMP");
        assert_eq!(Scheme::Rps.name(), "RPS");
        assert_eq!(Scheme::presto_default().name(), "Presto");
        assert_eq!(Scheme::letflow_default().name(), "LetFlow");
        assert_eq!(Scheme::tlb_default().name(), "TLB");
    }

    #[test]
    fn paper_set_is_the_five_schemes() {
        let set = Scheme::paper_set();
        let names: Vec<_> = set.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["ECMP", "RPS", "Presto", "LetFlow", "TLB"]);
    }

    /// `validate` refuses exactly what a constructor would panic on.
    #[test]
    fn validate_rejects_what_the_constructors_assert() {
        for scheme in Scheme::extended_set() {
            scheme.validate().expect("defaults are valid");
        }
        let mut tlb = TlbConfig::paper_default();
        tlb.mss = 0;
        let bad = [
            Scheme::Presto { cell_bytes: 0 },
            Scheme::Drill { d: 0, m: 1 },
            Scheme::FlowBender {
                mark_threshold_pkts: 20,
                frac_threshold: 0.05,
                window_pkts: 0,
            },
            Scheme::FlowBender {
                mark_threshold_pkts: 20,
                frac_threshold: 1.5,
                window_pkts: 32,
            },
            Scheme::Hermes {
                reroute_size_bytes: 100_000,
                congested_pkts: 20,
                benefit_factor: 0.5,
            },
            Scheme::DiffFlow { threshold_bytes: 0 },
            Scheme::Tlb(tlb),
        ];
        for scheme in bad {
            let why = scheme.validate().expect_err("out-of-range parameter");
            assert!(why.starts_with(scheme.name()), "{why}");
            let built = std::panic::catch_unwind(|| scheme.build_static(1));
            assert!(built.is_err(), "{why}: the constructor accepts it");
        }
    }

    #[test]
    fn extended_set_adds_the_six_extensions() {
        let names: Vec<_> = Scheme::extended_set().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "ECMP",
                "RPS",
                "Presto",
                "LetFlow",
                "DRILL",
                "CONGA-lite",
                "FlowBender",
                "Hermes-lite",
                "WCMP",
                "DiffFlow",
                "TLB"
            ]
        );
    }
}
