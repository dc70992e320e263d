//! Scenario fuzzing entry point: randomized topologies, workloads, and
//! load-balancer configs through the full simulator, each run audited and
//! oracle-checked (see `crates/fuzz`).
//!
//! Case count: 256 by default (CI pins this via `TLB_PROPTEST_CASES`,
//! which can only lower it). Seed: derived from the property name and
//! `TLB_PROPTEST_SEED`. Failures shrink to a minimal scenario tuple and
//! persist to `fuzz/regressions/fuzz_scenarios.txt`, which replays first
//! on every future run.

use tlb_fuzz::{run_scenario_checked, scenario_strategy};

#[test]
fn fuzz_scenarios() {
    proptest::run_cases_n("fuzz_scenarios", 256, scenario_strategy(), |raw| {
        run_scenario_checked(raw)
            .map(|_| ())
            .map_err(proptest::TestCaseError::fail)
    });
}

/// The corpus pins in `fuzz/regressions/` are not just for the property
/// that wrote them — keep a direct named replay of each interesting
/// scenario shape so a regression is attributable even if the fuzz
/// property is renamed. This one is the shrunk scenario the fuzzer found
/// while the teardown oracle was being built: adaptive TLB on a degraded
/// 2x2 fabric where a duplicate data straggler arrives after the FIN
/// (legitimate multipath reordering — must stay green).
#[test]
fn regression_duplicate_straggler_after_fin() {
    let raw = (
        (2, 2, 2, 5),
        (4, 4, 3, 2),
        (549_721, true, 52, 46, false),
        (0, false, 0, 0, false),
    );
    run_scenario_checked(raw).unwrap();
}

/// The hybrid fidelity tier under the same scenario space: every case
/// runs packet-vs-hybrid with the differential oracle catalog (exact
/// completion/pinned-reroute agreement, generous FCT bands, hybrid skips
/// only the FCT lower bound). 128 fresh cases by default; CI's
/// fidelity-smoke job replays the corpus with `TLB_PROPTEST_CASES=64`.
#[test]
fn fuzz_hybrid_differential() {
    proptest::run_cases_n(
        "fuzz_hybrid_differential",
        128,
        scenario_strategy(),
        |raw| tlb_fuzz::run_scenario_checked_hybrid(raw).map_err(proptest::TestCaseError::fail),
    );
}

/// Named pin for the hybrid differential: a pinned-TLB scenario with
/// long flows straddling the 100 KB boundary *and* an active failure
/// schedule, so one replay exercises migration, demotion-on-failure, and
/// the exact pinned-reroute agreement in a single case.
#[test]
fn regression_hybrid_differential_under_failures() {
    let raw = (
        (4, 6, 4, 20),
        (5, 24, 3, 6),
        (7, true, 10, 0, true),
        (1, true, 400, 700, true),
    );
    tlb_fuzz::run_scenario_checked_hybrid(raw).unwrap();
}

/// The sharded engine under random admin schedules: every case carries an
/// active failure schedule (and often a mid-run degrade) and runs serial
/// vs two shard workers with the audit on; digest, end-of-run clock, audit
/// ledger and completion count must agree exactly. 64 fresh cases by
/// default; CI's shard-smoke job runs it in the default test profile.
#[test]
fn fuzz_sharded_differential() {
    proptest::run_cases_n(
        "fuzz_sharded_differential",
        64,
        tlb_fuzz::failure_scenario_strategy(),
        |raw| tlb_fuzz::run_scenario_checked_sharded(raw).map_err(proptest::TestCaseError::fail),
    );
}
