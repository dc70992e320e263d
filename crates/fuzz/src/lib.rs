//! # tlb-fuzz — scenario fuzzing with invariant oracles
//!
//! A deterministic scenario fuzzer for the whole simulator stack:
//! random-but-valid leaf-spine topologies (switch/host counts, link
//! speeds, asymmetric degradation — static or mid-run), random workloads
//! (Poisson-spaced short/long mixes with sizes straddling the 100 KB
//! classification boundary, plus incast bursts), and random
//! load-balancer configs (TLB adaptive, TLB pinned, ECMP, RPS, Presto,
//! LetFlow). Every sampled scenario runs through `tlb-simnet` with the
//! packet-conservation audit forced on and is then checked against the
//! oracle catalog in [`oracles`]:
//!
//! * **Conservation** — [`tlb_simnet::SimConfig::audit`] panics inside
//!   the run on any lifecycle imbalance, port mismatch, clock regression,
//!   or sender/receiver transport-invariant violation.
//! * **FCT lower bound** — no completed flow finishes faster than its
//!   ideal serialization + propagation time
//!   ([`tlb_model::fct_lower_bound`] over the *undegraded* fabric).
//! * **Teardown ordering** — traced flows never deliver *first-time* data
//!   to the receiver after the FIN's delivery (the FIN follows full
//!   acknowledgment, so anything later must be a duplicate straggler).
//! * **Reroute discipline** — a TLB pinned at `q_th = ∞` reports zero
//!   long-flow reroutes; non-TLB schemes report none at all.
//! * **Completion** — with a generous horizon every flow completes
//!   (catches stalls and routing black holes).
//!
//! [`conformance`] adds a unit-level differential oracle: a reference
//! re-derivation of TLB's control law (threshold from the public
//! Eq. 9 API, flow counting, long-flow stickiness) driven in lock-step
//! with the real [`tlb_core::Tlb`]. Its mutation self-check seeds a
//! divergence in the harness — one granularity update ticked over all
//! uplinks but the last — and asserts the oracle catches it *and* that the
//! failure shrinks to a replayable `fuzz/regressions/` entry.
//!
//! Reproducibility: scenarios are pure functions of their sampled
//! parameters; the proptest driver honors `TLB_PROPTEST_SEED` /
//! `TLB_PROPTEST_CASES` and replays `fuzz/regressions/*.txt` first.

pub mod conformance;
pub mod oracles;
pub mod scenario;

pub use conformance::{expected_q_th, run_conformance};
pub use oracles::{check_report, check_report_with, OracleSet};
pub use scenario::{
    bound_fabric, failure_scenario_strategy, scenario_strategy, BuiltScenario, RawScenario,
    Scenario,
};

/// Build, run, and oracle-check one scenario; `Err` carries every
/// violated oracle. This is the closure body of both the crate's smoke
/// property and the top-level `tests/fuzz_scenarios.rs` entry point.
pub fn run_scenario_checked(raw: RawScenario) -> Result<tlb_simnet::RunReport, String> {
    let built = Scenario::from_raw(raw).build();
    let report = tlb_simnet::run_one_ref(&built.cfg, &built.flows);
    check_report(&built, &report)?;
    Ok(report)
}

/// The fixed 16-job batch the determinism, differential-reference and
/// allocation-hygiene tests all run: four raw tuples spanning schemes,
/// incast, and static + mid-run degradation, each fanned out over four
/// workload seeds (16 jobs gives a 3-thread pool enough queue depth that a
/// worker probe is not racing one fast worker draining the whole batch).
pub fn differential_batch() -> Vec<(tlb_simnet::SimConfig, Vec<tlb_workload::FlowSpec>)> {
    const NO_FAILURE: scenario::RawFailure = (0, false, 0, 0, false);
    let raws: [RawScenario; 4] = [
        (
            (2, 3, 2, 10),
            (4, 6, 1, 2),
            (42, true, 50, 10, false),
            NO_FAILURE,
        ),
        (
            (3, 4, 3, 15),
            (5, 10, 2, 3),
            (7, true, 25, 40, true),
            NO_FAILURE,
        ),
        (
            (2, 2, 4, 5),
            (1, 8, 1, 0),
            (99, false, 50, 0, false),
            NO_FAILURE,
        ),
        (
            (4, 6, 2, 20),
            (3, 12, 3, 5),
            (1234, true, 75, 5, true),
            NO_FAILURE,
        ),
    ];
    raws.iter()
        .flat_map(
            |&(topo, traffic, (seed, degrade, bw, extra, mid), failure)| {
                (0..4).map(move |k| {
                    let fault = (seed + k * 1000, degrade, bw, extra, mid);
                    (topo, traffic, fault, failure)
                })
            },
        )
        .map(|raw| {
            let b = Scenario::from_raw(raw).build();
            (b.cfg, b.flows)
        })
        .collect()
}

/// FCT agreement band for the hybrid differential oracle. Deliberately
/// generous: fuzzed scenarios hit extreme corners (near-empty fabrics,
/// heavy degradation) where the fluid approximation strays furthest, and
/// this oracle exists to catch *wrong* hybrid runs (stalls, double
/// counting, broken migration), not modeling drift. The paper-figure
/// operating points get tight bands in `tests/fidelity.rs`.
const HYBRID_FCT_BAND: (f64, f64) = (0.05, 20.0);

/// The hybrid differential: run one scenario at packet fidelity, then
/// again at hybrid fidelity, oracle-check both (hybrid skips the FCT
/// lower bound — a migrated flow's packet prefix and fluid tail overlap
/// in time), and compare the runs. Exact across fidelities: completion
/// counts and a pinned TLB's zero voluntary reroutes. Banded: per-class
/// mean FCT within `HYBRID_FCT_BAND` of the packet run's.
pub fn run_scenario_checked_hybrid(raw: RawScenario) -> Result<(), String> {
    let built = Scenario::from_raw(raw).build();
    let packet = tlb_simnet::run_one_ref(&built.cfg, &built.flows);
    check_report(&built, &packet)?;

    let mut cfg = built.cfg.clone();
    cfg.fidelity = tlb_simnet::FidelityKind::Hybrid;
    let hybrid = tlb_simnet::run_one_ref(&cfg, &built.flows);
    check_report_with(&built, &hybrid, OracleSet::for_hybrid())?;

    let mut violations: Vec<String> = Vec::new();
    if hybrid.completed != packet.completed {
        violations.push(format!(
            "completion diverged: packet {}/{} vs hybrid {}/{}",
            packet.completed, packet.total_flows, hybrid.completed, hybrid.total_flows
        ));
    }
    if packet.fluid_migrations != 0 {
        violations.push(format!(
            "packet fidelity used the fluid tier ({} migrations)",
            packet.fluid_migrations
        ));
    }
    if built.scenario.is_pinned_tlb() && hybrid.tlb_long_reroutes != packet.tlb_long_reroutes {
        violations.push(format!(
            "pinned-TLB reroute counters diverged: packet {:?} vs hybrid {:?}",
            packet.tlb_long_reroutes, hybrid.tlb_long_reroutes
        ));
    }
    let (lo, hi) = HYBRID_FCT_BAND;
    for (class, p, h) in [
        ("short", packet.fct_short.afct, hybrid.fct_short.afct),
        ("long", packet.fct_long.afct, hybrid.fct_long.afct),
    ] {
        if p > 0.0 && h > 0.0 {
            let ratio = h / p;
            if !(lo..=hi).contains(&ratio) {
                violations.push(format!(
                    "{class} mean FCT ratio hybrid/packet = {ratio:.3} outside [{lo}, {hi}] \
                     (packet {p:.6}, hybrid {h:.6})"
                ));
            }
        }
    }
    differential_verdict("hybrid", &built.scenario, violations)
}

/// The sharded differential: run one scenario on the serial engine
/// (oracle-checked) and again on the sharded engine with two workers. A
/// typed refusal ([`tlb_simnet::RunReport::engine_fallback`]) is
/// accepted — the serial engine ran; a silent one is not. Exact across
/// engines: the digest, the end-of-run clock, the whole audit ledger and
/// the completion count.
pub fn run_scenario_checked_sharded(raw: RawScenario) -> Result<(), String> {
    let built = Scenario::from_raw(raw).build();
    let serial = tlb_simnet::run_one_ref(&built.cfg, &built.flows);
    check_report(&built, &serial)?;

    let mut cfg = built.cfg.clone();
    cfg.engine = tlb_engine::EngineKind::Sharded { workers: Some(2) };
    let sharded = tlb_simnet::run_one_ref(&cfg, &built.flows);

    let mut violations: Vec<String> = Vec::new();
    if sharded.engine_fallback.is_none() && sharded.sharded_shards != 2 {
        violations.push(format!(
            "ran on {} shards without naming a fallback reason",
            sharded.sharded_shards
        ));
    }
    let shown = |r: &tlb_simnet::RunReport| {
        [
            ("digest", r.digest()),
            ("sim_end", format!("{:?}", r.sim_end)),
            ("audit ledger", format!("{:?}", r.audit)),
            ("completion", format!("{}/{}", r.completed, r.total_flows)),
        ]
    };
    for ((what, a), (_, b)) in shown(&serial).into_iter().zip(shown(&sharded)) {
        if a != b {
            violations.push(format!("{what} diverged: serial {a} vs sharded {b}"));
        }
    }
    differential_verdict("sharded", &built.scenario, violations)
}

/// `Ok` iff a differential found nothing; otherwise every violation, under
/// the scenario that produced them.
fn differential_verdict(
    kind: &str,
    scenario: &Scenario,
    violations: Vec<String>,
) -> Result<(), String> {
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{kind} differential on scenario {scenario:?} violated {} oracle(s):\n  - {}",
            violations.len(),
            violations.join("\n  - ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scenarios_are_deterministic_functions_of_raw_params() {
        let raw = (
            (2, 3, 2, 10),
            (4, 6, 1, 2),
            (42, true, 50, 10, false),
            (0, false, 0, 0, false),
        );
        let a = Scenario::from_raw(raw).build();
        let b = Scenario::from_raw(raw).build();
        assert_eq!(a.flows.len(), b.flows.len());
        for (x, y) in a.flows.iter().zip(&b.flows) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.src, y.src);
            assert_eq!(x.dst, y.dst);
            assert_eq!(x.size_bytes, y.size_bytes);
            assert_eq!(x.start, y.start);
        }
        assert_eq!(a.cfg.scheme.name(), b.cfg.scheme.name());
        assert_eq!(a.cfg.seed, b.cfg.seed);
    }

    #[test]
    fn built_scenarios_validate_and_force_the_audit() {
        for raw in [
            (
                (2, 2, 2, 5),
                (0, 1, 0, 0),
                (0, false, 99, 50, true),
                (0, false, 0, 0, false),
            ),
            (
                (4, 6, 4, 20),
                (5, 24, 3, 6),
                (7, true, 10, 0, true),
                (1, true, 400, 700, true),
            ),
            (
                (3, 4, 3, 12),
                (3, 12, 2, 3),
                (9, true, 40, 25, false),
                (0, true, 900, 0, false),
            ),
        ] {
            let b = Scenario::from_raw(raw).build();
            b.cfg
                .validate()
                .expect("scenario produced an invalid config");
            assert!(b.cfg.audit, "fuzz scenarios must force the audit on");
            assert!(!b.flows.is_empty());
            for (i, f) in b.flows.iter().enumerate() {
                assert_eq!(f.id.index(), i, "dense ids");
                assert_ne!(f.src, f.dst);
                assert!(f.size_bytes > 0);
                if i > 0 {
                    assert!(b.flows[i - 1].start <= f.start, "sorted starts");
                }
            }
        }
    }

    #[test]
    fn scheme_space_covers_the_paper_baselines_and_both_tlbs() {
        let names: Vec<&str> = (0..7u8)
            .map(|i| {
                let raw = (
                    (2, 2, 2, 10),
                    (i, 2, 1, 0),
                    (1, false, 50, 0, false),
                    (0, false, 0, 0, false),
                );
                Scenario::from_raw(raw).scheme().name()
            })
            .collect();
        assert_eq!(
            names,
            vec!["ECMP", "RPS", "Presto", "LetFlow", "TLB", "TLB", "DiffFlow"]
        );
        // Index 5 is the pinned variant the reroute oracle keys on; the
        // DiffFlow slot after it is not.
        assert!(Scenario::from_raw((
            (2, 2, 2, 10),
            (5, 2, 1, 0),
            (1, false, 50, 0, false),
            (0, false, 0, 0, false)
        ))
        .is_pinned_tlb());
        assert!(!Scenario::from_raw((
            (2, 2, 2, 10),
            (6, 2, 1, 0),
            (1, false, 50, 0, false),
            (0, false, 0, 0, false)
        ))
        .is_pinned_tlb());
    }

    proptest! {
        /// Smoke: a handful of full scenario runs per test invocation (the
        /// 256-case pinned-seed sweep lives in `tests/fuzz_scenarios.rs`).
        #[test]
        fn prop_scenario_smoke(raw in scenario_strategy()) {
            if let Err(v) = run_scenario_checked(raw) {
                return Err(proptest::TestCaseError::fail(v));
            }
        }

        /// Every case carries an active failure schedule (Down, often
        /// followed by the repair): reconvergence, admission-time drops,
        /// and forced reroutes all run under the conservation audit and
        /// the full oracle catalog.
        #[test]
        fn prop_failure_scenarios(raw in failure_scenario_strategy()) {
            if let Err(v) = run_scenario_checked(raw) {
                return Err(proptest::TestCaseError::fail(v));
            }
        }
    }
}
