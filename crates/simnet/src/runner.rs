//! Parallel experiment execution.
//!
//! The figure harnesses sweep (scheme × load × seed) grids; each cell is an
//! independent, deterministic simulation, so [`run_all`] fans the batch out
//! over the vendored rayon shim's scoped-thread pool: `min(TLB_THREADS,
//! batch size)` OS threads (default: available cores) claim chunks of the
//! job vector off a shared cursor and write each [`RunReport`] into the
//! slot of its input index.
//!
//! **Determinism policy.** Parallel execution must be bit-identical to
//! serial execution. That holds by construction — every simulation owns its
//! RNG (seeded from its [`SimConfig`]), its event queue, and its entire
//! fabric state; jobs share nothing and results are keyed by input
//! position, so neither thread count nor scheduling order can leak into any
//! result. The tests below keep this load-bearing: a ≥8-job batch is
//! checked to really execute on multiple distinct OS threads *and* to
//! produce reports (events, FCT stats, audit counters) identical to the
//! single-threaded run. `TLB_THREADS=1` collapses [`run_all`] to in-line
//! serial execution.

use crate::config::SimConfig;
use crate::network::Simulation;
use crate::report::RunReport;
use rayon::prelude::*;
use tlb_workload::FlowSpec;

/// Run one simulation.
pub fn run_one(cfg: SimConfig, flows: Vec<FlowSpec>) -> RunReport {
    Simulation::new(cfg, flows).run()
}

/// Run one simulation over borrowed inputs — the clone-free twin of
/// [`run_one`] for harnesses that replay the same `(config, flows)` job
/// across repetitions (benchmarks, fuzz shrinking).
pub fn run_one_ref(cfg: &SimConfig, flows: &[FlowSpec]) -> RunReport {
    let next = vec![None; flows.len()];
    crate::network::or_panic(crate::network::check_job(cfg, flows, &next));
    crate::network::run_with(cfg, flows, next)
}

/// Run a batch of independent simulations in parallel, preserving input
/// order in the output. Thread count: `TLB_THREADS` env var (or a
/// `rayon::with_threads` override), else available cores, clamped to the
/// batch size.
pub fn run_all(jobs: Vec<(SimConfig, Vec<FlowSpec>)>) -> Vec<RunReport> {
    jobs.into_par_iter()
        .map(|(cfg, flows)| run_one(cfg, flows))
        .collect()
}

/// The borrowed twin of [`run_all`]: fan a batch out without consuming it,
/// so repeated legs (benchmark reps, A/B sweeps) reuse one job vector
/// instead of cloning every config and flow list per leg.
pub fn run_all_ref(jobs: &[(SimConfig, Vec<FlowSpec>)]) -> Vec<RunReport> {
    jobs.par_iter()
        .map(|(cfg, flows)| run_one_ref(cfg, flows))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use tlb_engine::SimRng;
    use tlb_workload::{basic_mix, BasicMixConfig};

    fn small_job(scheme: Scheme, seed: u64) -> (SimConfig, Vec<FlowSpec>) {
        let mut cfg = SimConfig::basic_paper(scheme);
        cfg.seed = seed;
        let mut mix = BasicMixConfig::paper_default();
        mix.n_short = 10;
        mix.n_long = 1;
        mix.long_lo = 1_000_000;
        mix.long_hi = 1_000_000;
        let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(seed));
        (cfg, flows)
    }

    /// An 8-job batch over distinct schemes and seeds — big enough that the
    /// pool must spread it over several workers.
    fn batch() -> Vec<(SimConfig, Vec<FlowSpec>)> {
        let schemes = [
            Scheme::Ecmp,
            Scheme::Rps,
            Scheme::letflow_default(),
            Scheme::tlb_default(),
        ];
        (0..8)
            .map(|i| {
                small_job(
                    schemes[i % schemes.len()].clone(),
                    1 + (i / schemes.len()) as u64,
                )
            })
            .collect()
    }

    /// `rayon::workers_observed` is one process-wide counter: the tests
    /// that spawn pool workers or assert the counter stood still take this
    /// lock, so the harness's own test threads cannot interleave them.
    static POOL_PROBE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn pool_probe() -> std::sync::MutexGuard<'static, ()> {
        POOL_PROBE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parallel_batch_preserves_order() {
        let _probe = pool_probe();
        let jobs = vec![
            small_job(Scheme::Ecmp, 1),
            small_job(Scheme::Rps, 1),
            small_job(Scheme::tlb_default(), 1),
        ];
        let reports = rayon::with_threads(3, || run_all(jobs));
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].scheme, "ECMP");
        assert_eq!(reports[1].scheme, "RPS");
        assert_eq!(reports[2].scheme, "TLB");
        for r in &reports {
            assert_eq!(r.completed, r.total_flows, "{} incomplete", r.scheme);
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let _probe = pool_probe();
        // Serial baseline two ways: run_one in a loop, and run_all pinned
        // to one thread (which must collapse to in-line execution).
        let by_one: Vec<RunReport> = batch()
            .into_iter()
            .map(|(cfg, flows)| run_one(cfg, flows))
            .collect();
        // The pinned leg must take the pool's in-line bypass: no workers
        // spawn, yet the digests below still match bit-for-bit.
        let before_pinned = rayon::workers_observed();
        let pinned = rayon::with_threads(1, || run_all(batch()));
        assert_eq!(
            rayon::workers_observed(),
            before_pinned,
            "pinned-to-1 batch must use the in-line bypass, not pool workers"
        );
        // The multi-threaded run, with a probe proving the batch really
        // spread over >1 OS thread (workers register only when they
        // execute at least one job).
        let before = rayon::workers_observed();
        let parallel = rayon::with_threads(4, || run_all(batch()));
        let workers = rayon::workers_observed() - before;
        assert!(
            workers >= 2,
            "8-job batch must execute on >1 OS thread, used {workers}"
        );

        assert_eq!(by_one.len(), parallel.len());
        for ((a, b), c) in by_one.iter().zip(&parallel).zip(&pinned) {
            for (leg, other) in [("parallel", b), ("pinned-serial", c)] {
                assert_eq!(a.digest(), other.digest(), "{leg} diverged from serial");
                assert_eq!(a.audit, other.audit, "{leg} audit ledger diverged");
                // `{:?}` prints floats round-trip exact: every FCT statistic,
                // not only the digest's two, must match to the bit.
                let rest = |r: &RunReport| {
                    format!(
                        "{:?} {:?} {} {:?}",
                        r.fct_short, r.fct_long, r.lb_decisions, r.sim_end
                    )
                };
                assert_eq!(rest(a), rest(other), "{leg} FCT/decisions/end diverged");
            }
            assert!(b.audit.is_some(), "test builds must carry the audit");
        }
    }

    #[test]
    fn single_thread_spawns_no_workers() {
        let _probe = pool_probe();
        let before = rayon::workers_observed();
        let reports = rayon::with_threads(1, || run_all(batch()));
        assert_eq!(reports.len(), 8);
        assert_eq!(
            rayon::workers_observed(),
            before,
            "TLB_THREADS=1 must not spawn pool workers"
        );
    }
}
