//! The registry of load-balancing schemes a simulation can run.

use tlb_core::TlbConfig;

/// A load-balancing scheme. One balancer instance is built per leaf
/// switch. Every baseline runs at its published setting, stated once as
/// constants of its balancer in `tlb_lb`; only TLB carries parameters.
#[derive(Clone, Debug)]
pub enum Scheme {
    /// Flow-level hashing.
    Ecmp,
    /// Per-packet random spraying.
    Rps,
    /// Fixed-size 64 KB flowcells, round-robin.
    Presto,
    /// Flowlet switching with random rerouting (150 µs timeout).
    LetFlow,
    /// Per-packet power-of-two-choices with memory, DRILL(2, 1)
    /// (extension).
    Drill,
    /// Flowlet switching onto the least-loaded uplink, 500 µs timeout
    /// (extension).
    CongaLite,
    /// Flow-level congestion-triggered rehashing (extension).
    FlowBender,
    /// Cautious size-gated rerouting (extension).
    Hermes,
    /// Capacity-weighted flow hashing (extension).
    Wcmp,
    /// Static short/long split at 100 KB: spray short flows, pin long ones
    /// (extension).
    DiffFlow,
    /// The paper's contribution.
    Tlb(TlbConfig),
}

impl Scheme {
    /// Display name (matches the paper's figure legends).
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Ecmp => "ECMP",
            Scheme::Rps => "RPS",
            Scheme::Presto => "Presto",
            Scheme::LetFlow => "LetFlow",
            Scheme::Drill => "DRILL",
            Scheme::CongaLite => "CONGA-lite",
            Scheme::FlowBender => "FlowBender",
            Scheme::Hermes => "Hermes-lite",
            Scheme::Wcmp => "WCMP",
            Scheme::DiffFlow => "DiffFlow",
            Scheme::Tlb(_) => "TLB",
        }
    }

    /// DiffFlow, under the name the benchmark workloads call it by.
    pub fn diffflow_default() -> Scheme {
        Scheme::DiffFlow
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
        s.insert(4, Scheme::Drill);
        s.insert(5, Scheme::CongaLite);
        s.insert(6, Scheme::FlowBender);
        s.insert(7, Scheme::Hermes);
        s.insert(8, Scheme::Wcmp);
        s.insert(9, Scheme::DiffFlow);
        s
    }

    /// The paper's §6 comparison set: ECMP, RPS, Presto, LetFlow, TLB.
    pub fn paper_set() -> Vec<Scheme> {
        vec![
            Scheme::Ecmp,
            Scheme::Rps,
            Scheme::Presto,
            Scheme::LetFlow,
            Scheme::tlb_default(),
        ]
    }

    /// Check TLB's parameters against what its constructor asserts, so a
    /// bad value is reported before anything is built; every other scheme
    /// has nothing to check.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Scheme::Tlb(cfg) => cfg.validate().map_err(|why| format!("TLB: {why}")),
            _ => Ok(()),
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
        assert_eq!(Scheme::Presto.name(), "Presto");
        assert_eq!(Scheme::LetFlow.name(), "LetFlow");
        assert_eq!(Scheme::tlb_default().name(), "TLB");
    }

    #[test]
    fn paper_set_is_the_five_schemes() {
        let set = Scheme::paper_set();
        let names: Vec<_> = set.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["ECMP", "RPS", "Presto", "LetFlow", "TLB"]);
    }

    /// `validate` refuses exactly what TLB's constructor would panic on.
    #[test]
    fn validate_rejects_what_the_constructor_asserts() {
        for scheme in Scheme::extended_set() {
            scheme.validate().expect("defaults are valid");
        }
        let mut tlb = TlbConfig::paper_default();
        tlb.update_interval = tlb_engine::SimTime::ZERO;
        let scheme = Scheme::Tlb(tlb);
        let why = scheme.validate().expect_err("out-of-range parameter");
        assert!(why.starts_with(scheme.name()), "{why}");
        let built = std::panic::catch_unwind(|| scheme.build_static(1));
        assert!(built.is_err(), "{why}: the constructor accepts it");
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
