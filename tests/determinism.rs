//! Bit-determinism across every simulator feature: identical seeds must
//! produce identical runs even with chaining, failure injection, tracing
//! and every scheme in the registry.

use tlb::engine::EngineKind;
use tlb::metrics::FctSummary;
use tlb::prelude::*;
use tlb::simnet::{FallbackReason, Hop};
use tlb_fuzz::differential_batch;

type Job = (SimConfig, Vec<FlowSpec>);

fn full_feature_run(scheme: Scheme, seed: u64) -> RunReport {
    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.seed = seed;
    cfg.trace_flows = vec![FlowId(0)];
    cfg.admin_events.push(AdminEvent {
        at: SimTime::from_millis(5),
        target: Target::Link {
            sw: LeafId(0),
            up: SpineId(7),
        },
        change: Change::Rate {
            bw_factor: 0.5,
            new_prop_delay: None,
            extra_delay: SimTime::from_micros(50),
        },
    });
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 30;
    mix.n_long = 2;
    mix.long_lo = 1_500_000;
    mix.long_hi = 2_500_000;
    let (flows, next) = sustained_mix(&cfg.topo, &mix, 4, &mut SimRng::new(seed ^ 0xF00D));
    Simulation::new_chained(cfg, flows, next).run()
}

/// What two runs of one job must share whatever engine or thread count
/// ran them: the digest, the number of traced hops and the whole audit
/// ledger.
fn assert_same_results(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.digest(), b.digest(), "{}: {what}", a.scheme);
    assert_eq!(
        a.traces.len(),
        b.traces.len(),
        "{}: {what}: trace length",
        a.scheme
    );
    assert_eq!(a.audit, b.audit, "{}: {what}: audit counters", a.scheme);
}

/// Order-sensitive hash of the sampled FEL-occupancy series: the sample
/// schedule and every sampled depth, so a change to what waits in the FEL
/// moves it even where the digest holds.
fn fel_depth_hash(r: &RunReport) -> u64 {
    r.fel_depth
        .samples()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// `jobs` with `set` applied to every config.
fn with_mode(mut jobs: Vec<Job>, set: impl Fn(&mut SimConfig)) -> Vec<Job> {
    jobs.iter_mut().for_each(|(cfg, _)| set(cfg));
    jobs
}

/// Run `jobs` one by one and again on a 3-thread pool (an odd worker
/// count, pinned via the explicit pool so the test does not race on the
/// environment), prove the pool really fanned out, and require identical
/// results. Returns the `(serial, threaded)` reports for extra checks.
fn serial_vs_three_threads(jobs: Vec<Job>) -> Vec<(RunReport, RunReport)> {
    let serial: Vec<_> = jobs
        .iter()
        .cloned()
        .map(|(cfg, flows)| Simulation::new(cfg, flows).run())
        .collect();
    let before = rayon::workers_observed();
    let threaded = rayon::with_threads(3, || run_all(jobs));
    assert!(
        rayon::workers_observed() - before >= 2,
        "3-thread batch must actually fan out over >1 OS thread"
    );
    let pairs: Vec<_> = serial.into_iter().zip(threaded).collect();
    for (a, b) in &pairs {
        assert_same_results(a, b, "3-thread != serial");
        assert_eq!(
            fel_depth_hash(a),
            fel_depth_hash(b),
            "{}: fel_depth series diverged across thread counts",
            a.scheme
        );
    }
    pairs
}

/// Every scheme of the registry, in [`Scheme::extended_set`] order, on
/// one full-feature job: reruns agree hop for hop, and each run holds its
/// pinned row (see [`assert_pinned`]).
#[test]
fn all_schemes_are_bit_deterministic() {
    #[rustfmt::skip]
    const PINS: [Pin; 11] = [
        ("73946|0.002153481467|96032909.968313246965|0|3045|122", 16485, 296, 0x099bf5b1c7b6a32d, 0x3d02b529fc612435), // ECMP
        ("84886|0.002143703700|54596163.626808077097|0|1476|122", 19145, 301, 0x0b3b1afd354b0935, 0xca7f44688b86e37e), // RPS
        ("76547|0.001822437900|94096027.496071636677|0|2604|122", 17396, 308, 0xb54e95b1c7b6a32d, 0x31273a08c64212f6), // Presto
        ("74151|0.001940078000|103842579.922068998218|0|2430|122", 16485, 309, 0x7d05b5b1c7b6a32d, 0x6ef3b76590111dbb), // LetFlow
        ("80405|0.001692904050|59242721.552091106772|0|1703|122", 18340, 305, 0xdb472a165b574577, 0xe2ee66dbda6ad67d), // DRILL
        ("73951|0.001819422783|104548141.588267058134|0|2892|122", 16485, 309, 0x7db035b1c7b6a32d, 0xeed7dc33995b40b1), // CONGA-lite
        ("75303|0.001938448200|92515408.834130078554|0|2437|122", 16785, 306, 0xb09155b1c7b6a32d, 0x7fd84cf9c8c2334b), // FlowBender
        ("84441|0.002061005958|81386232.677620664239|0|5154|122", 18035, 301, 0x203ffafd354b0935, 0x0994a4905ad9e3f2), // Hermes-lite
        ("73955|0.002032626825|96958967.647168025374|0|2583|122", 16466, 306, 0x971f55b1c7b6a32d, 0xd2a7865b871d9aa6), // WCMP
        ("78939|0.002886902583|92191668.974092945457|0|1680|122", 16466, 290, 0xc9c36a165b574577, 0x808202482114f537), // DiffFlow
        ("80457|0.001661877117|63003903.658250920475|0|1678|122", 18262, 308, 0x94b24a165b574577, 0x5537dd45ecaf0cdd), // TLB
    ];
    let mut runs = Vec::new();
    for scheme in Scheme::extended_set() {
        let name = scheme.name();
        let a = full_feature_run(scheme.clone(), 99);
        let b = full_feature_run(scheme, 99);
        assert_same_results(&a, &b, "not deterministic");
        assert_eq!(
            fel_depth_hash(&a),
            fel_depth_hash(&b),
            "{name}: fel_depth series diverged between reruns"
        );
        // Even the packet traces must match hop for hop.
        for (x, y) in a.traces.iter().zip(&b.traces) {
            assert_eq!(x.hop, y.hop, "{name}: trace diverged");
            assert_eq!(x.at, y.at, "{name}: trace timing diverged");
        }
        runs.push(a);
    }
    assert_pinned(&runs, &PINS);
}

#[test]
fn parallel_execution_matches_serial() {
    // The pool fan-out must not perturb per-run results: run the same
    // 8-job batch serially (one `Simulation` at a time) and on a 4-thread
    // pool, and require bit-identical digests. The thread probe keeps the
    // test load-bearing — it fails if the "parallel" path silently
    // degrades to sequential.
    let mk_job = |seed| {
        let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
        cfg.seed = seed;
        let mut mix = BasicMixConfig::paper_default();
        mix.n_short = 20;
        mix.n_long = 1;
        mix.long_lo = 1_000_000;
        mix.long_hi = 1_000_000;
        let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(seed));
        (cfg, flows)
    };
    let serial: Vec<_> = (0..8)
        .map(|s| Simulation::new(mk_job(s).0, mk_job(s).1).run())
        .collect();
    let before = rayon::workers_observed();
    let parallel = rayon::with_threads(4, || run_all((0..8).map(mk_job).collect()));
    assert!(
        rayon::workers_observed() - before >= 2,
        "batch must actually fan out over >1 OS thread"
    );
    for (a, b) in serial.iter().zip(&parallel) {
        assert_same_results(a, b, "parallel != serial");
        assert_eq!(
            fel_depth_hash(a),
            fel_depth_hash(b),
            "{}: fel_depth series diverged across thread counts",
            a.scheme
        );
    }
}

#[test]
fn fuzz_scenarios_are_digest_stable_across_thread_counts() {
    // The fuzzer's scenarios must be as deterministic as the hand-built
    // ones, including under an odd worker count.
    serial_vs_three_threads(differential_batch());
}

#[test]
fn hybrid_fuzz_batch_is_digest_stable_across_thread_counts() {
    // The hybrid fluid tier (PR 8) must be exactly as deterministic as
    // packet fidelity: the same batch at `FidelityKind::Hybrid`, serial vs
    // a 3-thread pool. Hybrid digests are their own stable baseline — they
    // are never compared to packet digests (that comparison is banded, in
    // `tests/fidelity.rs`), only to themselves across worker counts.
    let pairs = serial_vs_three_threads(with_mode(differential_batch(), |c| {
        c.fidelity = FidelityKind::Hybrid
    }));
    assert!(
        pairs.iter().any(|(serial, _)| serial.fluid_migrations > 0),
        "the batch must exercise the fluid tier somewhere"
    );
    for (a, b) in &pairs {
        assert_eq!(
            (a.fluid_migrations, a.fluid_bytes),
            (b.fluid_migrations, b.fluid_bytes),
            "{}: fluid migrations/bytes diverged across thread counts",
            a.scheme
        );
    }
}

/// What a pinned production run must reproduce exactly: its digest, its
/// number of traced hops, the peak of its FEL occupancy bound,
/// [`fel_depth_hash`] and [`RunReport::fct_hash`] — the one column that
/// moves only when some flow's completion time does.
type Pin = (&'static str, usize, u64, u64, u64);

/// Hold `reports` to `pins` row for row. A mismatch names the rows that
/// moved and prints the whole table as the runs read it, in the form
/// `pins` is written in.
fn assert_pinned(reports: &[RunReport], pins: &[Pin]) {
    let row = |digest: &str, traces: usize, bound: u64, hash: u64, fct: u64| {
        format!("({digest:?}, {traces}, {bound}, {hash:#018x}, {fct:#018x}),")
    };
    let read: Vec<String> = reports
        .iter()
        .map(|r| {
            row(
                &r.digest(),
                r.traces.len(),
                r.fel_bound_peak,
                fel_depth_hash(r),
                r.fct_hash(),
            )
        })
        .collect();
    let pinned: Vec<String> = (pins.iter())
        .map(|&(d, t, b, h, f)| row(d, t, b, h, f))
        .collect();
    let moved: Vec<usize> = (0..read.len().max(pinned.len()))
        .filter(|&i| read.get(i) != pinned.get(i))
        .collect();
    assert!(
        moved.is_empty(),
        "rows {moved:?} moved off their pins; the runs read:\n    {}",
        read.join("\n    ")
    );
}

/// The fuzzer's 16-job batch (schemes, incast, static and mid-run
/// degradation) on the production path, pinned job by job.
#[test]
fn production_digests_are_pinned_on_fuzz_batch() {
    #[rustfmt::skip]
    const PINS: [Pin; 16] = [
        ("1718|0.000644860143|54736173.954795494676|0|133|9", 865, 0, 0xcbf29ce484222325, 0x88d11e0631f717a0),
        ("4499|0.001154895667|55196907.668109327555|0|252|9", 1885, 31, 0x9a6dbd4c8601b7df, 0xcb98bbb263e15568),
        ("2550|0.000914182800|64077757.370888300240|0|84|9", 669, 0, 0xcbf29ce484222325, 0xabd2353cbe9735a9),
        ("3893|0.001387357571|55660669.422936975956|0|192|9", 1005, 0, 0xcbf29ce484222325, 0xb209959786299f36),
        ("5235|0.000658656400|62576259.189943097532|0|60|15", 815, 60, 0x8456bd4c8601b7df, 0x92882b9a316b9a44),
        ("6008|0.001180956545|106521221.472724691033|0|362|15", 1025, 60, 0x8456bd4c8601b7df, 0x8a2e32d84ef5669b),
        ("4729|0.000985508917|126139634.849254727364|0|134|15", 733, 60, 0xab6bbd4c8601b7df, 0xa38f919fade94318),
        ("3437|0.000758936846|94603464.145707190037|0|117|15", 1167, 0, 0xcbf29ce484222325, 0x6c7ffc70aab53ef0),
        ("3205|0.003124886833|41270299.253001026809|0|277|9", 855, 0, 0xcbf29ce484222325, 0x24ff440e8f052bc8),
        ("3512|0.002022837500|34504060.853512234986|0|198|9", 927, 0, 0xcbf29ce484222325, 0x1f82083a8c945711),
        ("2219|0.000760448833|45550787.115526743233|0|259|9", 1017, 0, 0xcbf29ce484222325, 0x6dfea08f4f4d1485),
        ("3892|0.002305532000|45748761.479991957545|0|294|9", 1629, 0, 0xcbf29ce484222325, 0x32293a2bd0aa1c58),
        ("9464|0.000543827786|94008178.216650828719|0|675|20", 361, 84, 0xc8308807b4eb6fed, 0xe68229efb648f176),
        ("6851|0.000676172462|121448138.730474159122|0|474|20", 1905, 84, 0x837d3d4c8601b7df, 0x0fe2fcc5154ce980),
        ("10930|0.000748003312|140619632.655683517456|0|425|20", 1415, 84, 0x21b88807b4eb6fed, 0x1123884fb3e9fde7),
        ("8872|0.000716339538|99352823.017632678151|0|489|20", 747, 84, 0x28a68807b4eb6fed, 0x576c11d241893abc),
    ];
    assert_pinned(&run_all(differential_batch()), &PINS);
}

/// fig10-shaped traffic: the large-scale fabric under a Poisson
/// web-search load, where RTO timers and dense packet events mix in the
/// queue.
#[test]
fn production_digests_are_pinned_on_load_sweep() {
    #[rustfmt::skip]
    const PINS: [Pin; 4] = [
        ("30816|0.000617637200|107538215.810008212924|0|1340|15", 0, 271, 0x2a321a14b6876aa7, 0xf17b0267d8f68fcc),
        ("31144|0.000575116100|108531546.646823167801|0|1249|15", 0, 279, 0x6d681a14b6876aa7, 0x9c601667507ba283),
        ("92397|0.001188211684|94746918.747651636600|0|3995|28", 0, 284, 0xb35541652498787d, 0x36f568d83c346310),
        ("93733|0.001143242053|98054354.516619250178|0|3925|28", 0, 292, 0x20a681652498787d, 0xd255adde7a81366d),
    ];
    let dist = web_search();
    let mut jobs = Vec::new();
    for &load in &[0.4, 0.8] {
        for scheme in [Scheme::Ecmp, Scheme::tlb_default()] {
            let cfg = SimConfig::large_scale(scheme, 8);
            let wl = PoissonWorkload {
                load,
                dist: &dist,
                duration: SimTime::from_millis(5),
                deadline_lo: SimTime::from_millis(5),
                deadline_hi: SimTime::from_millis(25),
                short_threshold: 100_000,
                inter_leaf_only: true,
            };
            let flows = wl.generate(&cfg.topo, &mut SimRng::new(7 ^ load.to_bits()));
            jobs.push((cfg, flows));
        }
    }
    assert_pinned(&run_all(jobs), &PINS);
}

#[test]
fn workload_generators_are_seed_stable() {
    let topo = LeafSpineBuilder::new(4, 4, 8).build();
    // Regression pin: the first web-search Poisson flow for seed 1. If this
    // changes, the RNG stream or generator logic changed and all recorded
    // results need regeneration.
    let dist = web_search();
    let wl = PoissonWorkload {
        load: 0.5,
        dist: &dist,
        duration: SimTime::from_millis(20),
        deadline_lo: SimTime::from_millis(5),
        deadline_hi: SimTime::from_millis(25),
        short_threshold: 100_000,
        inter_leaf_only: true,
    };
    let a = wl.generate(&topo, &mut SimRng::new(1));
    let b = wl.generate(&topo, &mut SimRng::new(1));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.size_bytes, y.size_bytes);
        assert_eq!(x.start, y.start);
        assert_eq!((x.src, x.dst), (y.src, y.dst));
    }
}

/// Compare everything the sharded merge path must reproduce bit-for-bit
/// against a serial reference: the scalar digest, the audit ledger, the
/// end-of-run clock, every traced hop, every flow's FCT and both class
/// summaries. `fel_depth` is deliberately absent — its sampling schedule
/// is a function of each shard's local event counter, so the sharded
/// samples interleave differently (the *simulation* is still
/// bit-identical; the probe is engine-local).
fn assert_sharded_matches(serial: &RunReport, sharded: &RunReport, label: &str) {
    assert_same_results(serial, sharded, &format!("{label}: sharded != serial"));
    assert_eq!(serial.sim_end, sharded.sim_end, "{label}: sim_end diverged");
    for (x, y) in serial.traces.iter().zip(&sharded.traces) {
        assert_eq!(x.hop, y.hop, "{label}: trace hop diverged");
        assert_eq!(x.at, y.at, "{label}: trace timing diverged");
    }
    for id in (0..serial.total_flows as u32).map(FlowId) {
        let [a, b] = [serial, sharded].map(|r| r.fct.fct_of(id).map(f64::to_bits));
        assert_eq!(a, b, "{label}: FCT of flow {id} diverged");
    }
    for (class, x, y) in [
        ("short", &serial.fct_short, &sharded.fct_short),
        ("long", &serial.fct_long, &sharded.fct_long),
    ] {
        let bits = |s: &FctSummary| {
            let exact = [s.p50, s.p99, s.deadline_miss].map(f64::to_bits);
            (s.completed, s.unfinished, exact)
        };
        assert_eq!(bits(x), bits(y), "{label}: {class}-flow summary diverged");
    }
}

/// Assert `r` ran on the sharded engine, on the threads `requested`
/// workers get: one per shard, no more than the host's cores.
fn assert_ran_sharded(r: &RunReport, requested: u32, label: &str) {
    assert!(
        r.engine_fallback.is_none() && r.sharded_shards >= 2,
        "{label}: sharded engine refused"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
    let threads = requested.min(r.sharded_shards).min(cores);
    assert_eq!(r.engine_workers, Some(threads), "{label}: worker threads");
}

/// `cfg` run serially and on each of `workers` sharded worker counts, the
/// sharded reports checked against the serial one and returned.
fn sharded_vs_serial(cfg: &SimConfig, flows: &[FlowSpec], workers: &[u32]) -> Vec<RunReport> {
    let serial = run_one_ref(cfg, flows);
    assert_eq!(serial.completed, serial.total_flows);
    workers
        .iter()
        .map(|&w| {
            let mut cfg = cfg.clone();
            cfg.engine = EngineKind::Sharded { workers: Some(w) };
            let sharded = run_one_ref(&cfg, flows);
            assert_ran_sharded(&sharded, w, &format!("{w} workers"));
            assert_sharded_matches(&serial, &sharded, &format!("{w} workers"));
            sharded
        })
        .collect()
}

#[test]
fn sharded_engine_is_bit_identical_across_worker_counts() {
    // The tentpole acceptance gate: one simulation executed across OS
    // threads by conservative fabric sharding must produce the exact
    // serial digests for ANY worker count. Same 16-job fuzz batch as the
    // reference differentials (schemes, incast, static + mid-run
    // degradation), serial vs sharded at 1/2/4/8 workers. Every job has a
    // multi-shard fabric and a long flow, and every event of a sharded run
    // executes inside a parallel window.
    for (cfg, flows) in differential_batch() {
        assert!(flows.iter().any(|f| f.size_bytes >= cfg.short_threshold));
    }
    let serial = run_all(differential_batch());
    // The per-replica telemetry follows the partition, which follows the
    // worker count: one replica per worker, two at one worker. It repeats
    // exactly between two runs at each count — a replica takes in its
    // handoffs only at the start of a window, so what it holds at each of
    // its events does not depend on when its neighbours' workers ran — and
    // is equal at 1 and 2 workers, which both run two shards.
    let telemetry = |r: &RunReport| {
        let depth = r.fel_depth.samples().to_vec();
        (depth, r.fel_nodes_peak, r.wire_pkts_peak, r.conns_peak)
    };
    let mut at_two_shards = None;
    for workers in [1u32, 2, 4, 8] {
        let run = || {
            run_all(with_mode(differential_batch(), |c| {
                c.engine = EngineKind::Sharded {
                    workers: Some(workers),
                }
            }))
        };
        let sharded = run();
        let seen: Vec<_> = sharded.iter().map(telemetry).collect();
        let again: Vec<_> = run().iter().map(telemetry).collect();
        assert!(
            seen == again,
            "per-replica telemetry moved between two runs at {workers} workers"
        );
        if workers <= 2 {
            assert!(
                *at_two_shards.get_or_insert_with(|| seen.clone()) == seen,
                "per-replica telemetry moved between 1 and 2 workers"
            );
        }
        assert_eq!(serial.len(), sharded.len());
        for (a, b) in serial.iter().zip(&sharded) {
            assert!(
                b.engine_workers.is_some(),
                "{}: sharded engine fell back to serial on a fuzz job",
                b.scheme
            );
            assert_sharded_matches(a, b, &format!("{} @ {workers} workers", a.scheme));
            assert!(
                b.sharded_windows > 0,
                "{} @ {workers} workers: no window opened",
                b.scheme
            );
        }
    }
}

#[test]
fn sharded_engine_matches_serial_on_fat_tree_failure_flap() {
    // Three-tier partition + global events: a k=8 fat tree (128 hosts,
    // 80 switches, 8 pods dealt into 2, 4 or 8 shards) with a mid-run
    // edge-uplink down/up flap.
    // Failures force whole-fabric reachability recomputes, which every
    // replica must run on itself at exactly the serial instant.
    let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
    cfg.topo = FatTreeBuilder::new(8)
        .link_gbps(1.0)
        .target_rtt(SimTime::from_micros(100))
        .build();
    cfg.audit = true;
    cfg.trace_flows = vec![FlowId(3)];
    for (at_ms, change) in [(2, Change::Down), (6, Change::Up)] {
        cfg.admin_events.push(AdminEvent {
            at: SimTime::from_millis(at_ms),
            target: Target::Link {
                sw: LeafId(0), // edge 0
                up: SpineId(1),
            },
            change,
        });
    }
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 40;
    mix.n_long = 2;
    mix.long_lo = 1_500_000;
    mix.long_hi = 2_500_000;
    let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(23));
    // k=8 has 8 pods, so each of up to 8 workers gets one shard of whole
    // pods; the helper checks the threads that ran them.
    for sharded in sharded_vs_serial(&cfg, &flows, &[2, 4, 8]) {
        // Windows before, between and after the two failure events.
        assert!(sharded.sharded_windows > 0, "k8 flap ran without windows");
    }
}

#[test]
fn sharded_handoffs_follow_the_shard_count() {
    // One replica per worker: the 8×8 leaf-spine dealt into two shards of
    // four leaves keeps half of the leaf↔spine hops inside a shard, into
    // eight shards only one in eight. The same job must hand fewer packets
    // between replicas at 2 workers than at 8, and a serial run reports no
    // shards, handoffs or split windows.
    let mut cfg = SimConfig::large_scale(Scheme::tlb_default(), 4);
    cfg.audit = true;
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 40;
    mix.n_long = 2;
    mix.long_lo = 1_500_000;
    mix.long_hi = 2_500_000;
    let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(31));
    let serial = run_one_ref(&cfg, &flows);
    assert_eq!(
        (
            serial.sharded_shards,
            serial.sharded_handoffs,
            serial.sharded_split_windows
        ),
        (0, 0, 0)
    );
    let [two, eight] = <[RunReport; 2]>::try_from(sharded_vs_serial(&cfg, &flows, &[2, 8]))
        .unwrap_or_else(|_| unreachable!("two worker counts"));
    assert_eq!((two.sharded_shards, eight.sharded_shards), (2, 8));
    assert!(
        0 < two.sharded_handoffs && two.sharded_handoffs < eight.sharded_handoffs,
        "handoffs at 2 and 8 workers: {} and {}",
        two.sharded_handoffs,
        eight.sharded_handoffs
    );
    for r in [&two, &eight] {
        assert!(r.sharded_split_windows <= r.sharded_windows);
    }
}

#[test]
fn sharded_parallel_windows_match_serial() {
    // A job with a tiny lookahead, few hosts and many short flows: many
    // barrier-synchronized parallel windows — asserted via
    // `sharded_windows` — and the digests still match bit for bit.
    let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
    cfg.topo = LeafSpineBuilder::new(2, 2, 2)
        .link_mbps(100.0)
        .prop_per_link(SimTime::from_micros(5))
        .build();
    cfg.audit = true;
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 60;
    mix.n_long = 2;
    mix.long_lo = 300_000;
    mix.long_hi = 400_000;
    let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(5));
    for sharded in sharded_vs_serial(&cfg, &flows, &[1, 2]) {
        assert!(
            sharded.sharded_windows > 0,
            "job sized for parallel windows opened none"
        );
    }
}

#[test]
fn sharded_fcts_match_serial_when_the_horizon_cuts_flows() {
    // The web-search job cut off mid-arrivals: flows that completed, flows
    // that started on their source's shard and never completed, and flows
    // that never started must all fold to the serial engine's records —
    // the start-only half of the merge included.
    let mut cfg = SimConfig::large_scale(Scheme::tlb_default(), 32);
    cfg.audit = true;
    cfg.horizon = SimTime::from_millis(12);
    let dist = web_search();
    let flows = PoissonWorkload {
        load: 0.7,
        dist: &dist,
        duration: SimTime::from_millis(20),
        deadline_lo: SimTime::from_millis(5),
        deadline_hi: SimTime::from_millis(25),
        short_threshold: cfg.short_threshold,
        inter_leaf_only: true,
    }
    .generate(&cfg.topo, &mut SimRng::new(7));
    let serial = run_one_ref(&cfg, &flows);
    let started = serial.fct.n_flows();
    assert!(
        0 < serial.completed && serial.completed < started && started < flows.len(),
        "the horizon must leave flows unfinished and unstarted: {} of {started} started \
         flows completed, {} flows",
        serial.completed,
        flows.len()
    );
    cfg.engine = EngineKind::Sharded { workers: Some(2) };
    let sharded = run_one_ref(&cfg, &flows);
    assert_ran_sharded(&sharded, 2, "horizon-cut web-search");
    assert_sharded_matches(&serial, &sharded, "horizon-cut web-search");
}

#[test]
fn sharded_engine_delegates_hybrid_fidelity_to_serial() {
    // Hybrid fluid flows span shards (FluidNet recomputes whole-fabric
    // fair shares), so the sharded engine refuses them and delegates to
    // the serial engine. The run must report the fallback and produce the
    // exact serial-hybrid results.
    let run = |engine: EngineKind| {
        let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
        cfg.fidelity = FidelityKind::Hybrid;
        cfg.engine = engine;
        let mut mix = BasicMixConfig::paper_default();
        mix.n_short = 20;
        mix.n_long = 2;
        mix.long_lo = 1_500_000;
        mix.long_hi = 2_500_000;
        let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(11));
        Simulation::new(cfg, flows).run()
    };
    let serial = run(EngineKind::Serial);
    assert_eq!(serial.engine_fallback, None);
    let sharded = run(EngineKind::Sharded { workers: Some(4) });
    assert_eq!(
        (sharded.engine_workers, sharded.engine_fallback),
        (None, Some(FallbackReason::HybridFidelity)),
        "hybrid fidelity must fall back to the serial engine and say so"
    );
    assert_sharded_matches(&serial, &sharded, "hybrid fallback");
    assert_eq!(serial.fluid_migrations, sharded.fluid_migrations);
    assert_eq!(serial.fluid_bytes, sharded.fluid_bytes);
}

#[test]
fn sharded_websearch_quarter_job_matches_serial() {
    // The paper's §6.2 job at a quarter of the benchmark's length (8×8
    // leaf-spine, 256 hosts, web-search at load 0.7, 40 ms of arrivals):
    // every shard receives flows and finishes at its own last completion,
    // and the run ends at the serial engine's last event.
    let mut cfg = SimConfig::large_scale(Scheme::tlb_default(), 32);
    cfg.audit = false;
    let dist = web_search();
    let flows = PoissonWorkload {
        load: 0.7,
        dist: &dist,
        duration: SimTime::from_millis(40),
        deadline_lo: SimTime::from_millis(5),
        deadline_hi: SimTime::from_millis(25),
        short_threshold: cfg.short_threshold,
        inter_leaf_only: true,
    }
    .generate(&cfg.topo, &mut SimRng::new(20190805));
    for r in sharded_vs_serial(&cfg, &flows, &[1, 2, 4]) {
        assert!(r.sharded_windows > 0);
    }
}

/// A 4-leaf, 1 Gbit/s fabric and `c`, the most packets one of its hosts
/// can receive in one window (lookahead / header serialization time + 2),
/// which sizes the flows of some jobs below.
fn small_fabric() -> (SimConfig, u32) {
    let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
    cfg.topo = LeafSpineBuilder::new(4, 4, 4)
        .link_gbps(1.0)
        .target_rtt(SimTime::from_micros(100))
        .build();
    cfg.audit = true;
    let lookahead = cfg.topo.uplink_props(0, 0).prop_delay.as_nanos();
    let header_tx = TcpConfig::HEADER_BYTES as u64 * 8; // ns at 1 Gbit/s
    (cfg, (lookahead / header_tx + 2) as u32)
}

/// Flow `id` from host `src` to host `dst`, `segs` full segments.
fn flow_of(
    cfg: &SimConfig,
    id: u32,
    (src, dst): (u32, u32),
    segs: u32,
    start: SimTime,
) -> FlowSpec {
    FlowSpec {
        id: FlowId(id),
        src: HostId(src),
        dst: HostId(dst),
        size_bytes: u64::from(segs) * cfg.tcp.mss as u64,
        start,
        deadline: None,
    }
}

#[test]
fn sharded_lone_late_flow_matches_serial() {
    // Twelve 3-segment flows finish within the first millisecond; the
    // last flow starts at 2 ms, when every other shard is done. It is
    // `c` or `2c` segments long, one window's worth of arrivals at its
    // host or two: windows run it either way, the longer one in more of
    // them, and both must match the serial engine bit for bit. (Where one
    // window's worth ends is not sharp: a packet is handed to the next
    // shard as its serialization starts, so `c` and `c + 1` segments can
    // take the same windows.)
    let (cfg, c) = small_fabric();
    let run = |last_segs: u32| {
        let mut flows: Vec<FlowSpec> = (0..12)
            .map(|i| {
                let pair = (i % 4, 4 + (i * 5) % 12);
                flow_of(&cfg, i, pair, 3, SimTime::from_micros(10 * i as u64))
            })
            .collect();
        flows.push(flow_of(
            &cfg,
            12,
            (1, 14),
            last_segs,
            SimTime::from_millis(2),
        ));
        sharded_vs_serial(&cfg, &flows, &[2]).remove(0)
    };
    let (at, above) = (run(c), run(2 * c));
    assert!(
        above.sharded_windows > at.sharded_windows,
        "one more window's worth of segments must take more windows: {} vs {}",
        above.sharded_windows,
        at.sharded_windows
    );
}

#[test]
fn sharded_cross_shard_queue_departs_across_idle_gaps() {
    // One 10 Gbit/s spine, so an incast from the first two racks into one
    // host of the last crosses a single spine downlink — owned by the spine's
    // shard, received by the last rack's — and holds a queue there; six
    // 2-segment flows from the third rack, 400 µs apart, are the only
    // other traffic. A packet that waits at that downlink starts where
    // the one ahead of it ends, at no event of its own, often while no
    // shard has an event: its replica must hand it off in the window
    // that holds its start, and the leader must open a window there, or
    // the last rack meets it after it should have arrived.
    let (mut cfg, _) = small_fabric();
    cfg.scheme = Scheme::Ecmp;
    cfg.topo = LeafSpineBuilder::new(4, 1, 4)
        .link_gbps(10.0)
        .target_rtt(SimTime::from_micros(100))
        .build();
    let mut flows: Vec<FlowSpec> = (0..8)
        .map(|i| flow_of(&cfg, i, (i, 12), 600, SimTime::ZERO))
        .collect();
    flows.extend((0..6).map(|i| {
        let at = SimTime::from_micros(400 * i as u64);
        flow_of(&cfg, 8 + i, (8 + i % 4, 13 + i % 3), 2, at)
    }));
    let serial = run_one_ref(&cfg, &flows);
    for r in sharded_vs_serial(&cfg, &flows, &[2, 4]) {
        assert_eq!(r.fct_hash(), serial.fct_hash());
        assert_eq!(r.digest(), serial.digest());
    }
}

#[test]
fn sharded_all_short_job_matches_serial() {
    // No flow exceeds one window's worth of arrivals at its host, and
    // arrivals spread over 3 ms: many shards finish within a window of
    // the run's last event, which must still be the serial engine's.
    let (cfg, c) = small_fabric();
    let flows: Vec<FlowSpec> = (0..120)
        .map(|i| {
            let pair = (i % 16, (i % 16 + 4 + i % 3 * 4) % 16);
            let at = SimTime::from_micros(25 * i as u64);
            flow_of(&cfg, i, pair, 1 + i % c, at)
        })
        .collect();
    for r in sharded_vs_serial(&cfg, &flows, &[1, 2, 4]) {
        assert!(r.sharded_windows > 0, "staggered starts must open windows");
    }
}

#[test]
fn sharded_last_completions_tie_across_shards() {
    // Two equal flows on disjoint paths (leaf 0 → 1 and leaf 2 → 3) start
    // together and complete at the same instant on two shards. The run's
    // last event is the one of the two completions with the larger key;
    // the other shard must still run its events that order between them.
    let (mut cfg, _) = small_fabric();
    cfg.scheme = Scheme::Ecmp;
    let flows = [(0, 4), (8, 12)]
        .into_iter()
        .enumerate()
        .map(|(i, pair)| flow_of(&cfg, i as u32, pair, 200, SimTime::ZERO))
        .collect::<Vec<_>>();
    let serial = run_one_ref(&cfg, &flows);
    let [a, b] = [0, 1].map(|i| serial.fct.fct_of(FlowId(i)).map(f64::to_bits));
    assert!(a.is_some() && a == b, "the two completions must tie");
    sharded_vs_serial(&cfg, &flows, &[1, 2, 4]);
    // Eight workers ask for more shards than the four leaves give.
    cfg.engine = EngineKind::Sharded { workers: Some(8) };
    let sharded = run_one_ref(&cfg, &flows);
    assert_eq!(sharded.sharded_shards, 4);
    assert_ran_sharded(&sharded, 8, "8 workers");
    assert_sharded_matches(&serial, &sharded, "8 workers");
}

#[test]
fn sharded_shards_with_nothing_to_receive_match_serial() {
    // Incast into one rack: twelve TLB flows from leaves 1–3 into leaf 0,
    // 5 µs apart. At four workers three of the four shards receive
    // nothing (at one or two, one of two), so they are done from the
    // start: once every flow has started, they run each window only after
    // the receiving shard has run it.
    let (cfg, _) = small_fabric();
    let flows: Vec<FlowSpec> = (0..12)
        .map(|i| {
            let at = SimTime::from_micros(5 * i as u64);
            flow_of(&cfg, i, (4 + i, i % 4), 120, at)
        })
        .collect();
    for r in sharded_vs_serial(&cfg, &flows, &[1, 2, 4]) {
        assert!(r.sharded_windows > 0, "an incast must run in windows");
    }
}

#[test]
fn sharded_windows_span_admin_events_and_match_serial_traces() {
    // A rate change and a link failure land mid-transfer, 200 µs apart,
    // with tracing on: every replica applies each to itself inside an
    // ordinary parallel window, and the windows go on after them — the
    // long flows are still far from done.
    let (mut cfg, _) = small_fabric();
    cfg.trace_flows = vec![FlowId(0), FlowId(5)];
    cfg.admin_events.push(AdminEvent {
        at: SimTime::from_micros(1_000),
        target: Target::Link {
            sw: LeafId(0),
            up: SpineId(1),
        },
        change: Change::Rate {
            bw_factor: 0.5,
            new_prop_delay: None,
            extra_delay: SimTime::from_micros(20),
        },
    });
    for (at_us, change) in [(1_200, Change::Down), (6_000, Change::Up)] {
        cfg.admin_events.push(AdminEvent {
            at: SimTime::from_micros(at_us),
            target: Target::Link {
                sw: LeafId(0),
                up: SpineId(2),
            },
            change,
        });
    }
    let flows: Vec<FlowSpec> = (0..8)
        .map(|i| {
            let pair = (i % 4, 4 + (i * 5) % 12);
            flow_of(&cfg, i, pair, 1_000, SimTime::from_micros(5 * i as u64))
        })
        .collect();
    for r in sharded_vs_serial(&cfg, &flows, &[1, 2, 4]) {
        assert!(!r.traces.is_empty());
        assert!(
            r.sim_end > SimTime::from_micros(6_000),
            "the repair must land mid-run"
        );
    }
}

#[test]
fn sharded_admin_schedule_adds_no_coordinator_events() {
    // 2,400 link events that change nothing, 1 µs apart over every uplink,
    // land while eight long flows are mid-transfer. Each is one more event
    // for the serial engine and one more on every replica — popped inside
    // the window it falls in, so the leader opens the windows it would
    // have opened without them.
    const K: u64 = 2_400;
    let (cfg, _) = small_fabric();
    let mut noop = cfg.clone();
    noop.admin_events = (0..K)
        .map(|i| AdminEvent {
            at: SimTime::from_micros(1_000 + i),
            target: Target::Link {
                sw: LeafId((i % 4) as u32),
                up: SpineId((i / 4 % 4) as u32),
            },
            change: Change::Rate {
                bw_factor: 1.0,
                new_prop_delay: None,
                extra_delay: SimTime::ZERO,
            },
        })
        .collect();
    let flows: Vec<FlowSpec> = (0..8)
        .map(|i| {
            let pair = (i % 4, 4 + (i * 5) % 12);
            flow_of(&cfg, i, pair, 1_000, SimTime::from_micros(5 * i as u64))
        })
        .collect();
    // The helper holds each sharded run to its serial twin's digest and
    // `sim_end`, so these read as the serial engine's too.
    let [twin, sharded] = [&cfg, &noop].map(|c| sharded_vs_serial(c, &flows, &[2]).remove(0));
    assert!(
        sharded.sim_end > SimTime::from_micros(1_000 + K),
        "the whole schedule must land mid-run"
    );
    let events_differ_by_k =
        twin.digest()
            .replacen(&twin.events.to_string(), &(twin.events + K).to_string(), 1);
    assert_eq!(sharded.digest(), events_differ_by_k);
    assert!(
        sharded.sharded_windows <= twin.sharded_windows + twin.sharded_windows / 10 + 2,
        "admin events clamped the windows: {} against {} without them",
        sharded.sharded_windows,
        twin.sharded_windows
    );
}

/// A small TLB job whose schedule crowds single instants: flow ids out of
/// start order, two flows starting together, a flow starting with a link
/// change and a link failure at its own instant, a flow starting on the
/// balancers' first tick, and a link change on their second, which the
/// first one pushes while the run dispatches. Flows 0 and 3 are traced.
fn same_instant_job() -> (SimConfig, Vec<FlowSpec>) {
    let (mut cfg, _) = small_fabric();
    cfg.trace_flows = vec![FlowId(0), FlowId(3)];
    let Scheme::Tlb(tlb) = &cfg.scheme else {
        unreachable!("the small fabric runs TLB")
    };
    let first_tick = tlb.update_interval;
    let us = SimTime::from_micros;
    let crowded = us(300);
    for (at, leaf, spine) in [(crowded, 1, 0), (first_tick + first_tick, 1, 1)] {
        cfg.admin_events.push(AdminEvent {
            at,
            target: Target::Link {
                sw: LeafId(leaf),
                up: SpineId(spine),
            },
            change: Change::Rate {
                bw_factor: 0.5,
                new_prop_delay: None,
                extra_delay: us(10),
            },
        });
    }
    for (at, change) in [(crowded, Change::Down), (us(2_000), Change::Up)] {
        cfg.admin_events.push(AdminEvent {
            at,
            target: Target::Link {
                sw: LeafId(0),
                up: SpineId(2),
            },
            change,
        });
    }
    let flows = vec![
        flow_of(&cfg, 0, (0, 5), 40, first_tick),
        flow_of(&cfg, 1, (1, 9), 30, us(100)),
        flow_of(&cfg, 2, (4, 13), 30, us(100)),
        flow_of(&cfg, 3, (2, 6), 60, crowded),
        flow_of(&cfg, 4, (8, 3), 20, SimTime::ZERO),
        flow_of(&cfg, 5, (12, 7), 50, us(50)),
    ];
    (cfg, flows)
}

/// Same-instant order across the run's event sources, pinned: the starts,
/// ticks and admin events known at build dispatch in `(time, class,
/// entity)` order among themselves and among the events the run pushes —
/// a tick before the link change of its instant, a packet's arrival at a
/// leaf before the failure of the uplink it takes there, and a start
/// before the arrival that lands at its host in the same instant (flow 6
/// starts where and when flow 0's first segment is delivered, so its SYN
/// and that segment's ACK meet in one NIC queue) — on the serial engine
/// and on two workers alike. The pin was recorded while every one of
/// these events still waited in the FEL.
#[test]
fn same_instant_starts_ticks_and_admin_events_keep_their_order() {
    let (mut cfg, mut flows) = same_instant_job();
    let first = |r: &RunReport, flow: u32, leaf_up: bool| {
        *(r.traces.iter())
            .find(|t| {
                t.flow == FlowId(flow)
                    && if leaf_up {
                        matches!(t.hop, Hop::LeafUplink { .. })
                    } else {
                        matches!(t.hop, Hop::Delivered { .. })
                    }
            })
            .expect("flow traced")
    };
    // A change at `t` alters nothing before `t`, so an instant read off a
    // run holds once the change joins the job.
    let syn_up = first(&run_one_ref(&cfg, &flows), 3, true);
    let Hop::LeafUplink { leaf, spine } = syn_up.hop else {
        unreachable!()
    };
    cfg.admin_events.push(AdminEvent {
        at: syn_up.at,
        target: Target::Link {
            sw: LeafId(leaf.into()),
            up: SpineId(spine.into()),
        },
        change: Change::Down,
    });
    let delivered = first(&run_one_ref(&cfg, &flows), 0, false).at;
    flows.push(flow_of(&cfg, 6, (5, 10), 20, delivered));
    cfg.trace_flows.push(FlowId(6));
    let sharded = sharded_vs_serial(&cfg, &flows, &[2]).remove(0);
    assert_eq!(sharded.sharded_shards, 2);
    let up = first(&sharded, 3, true);
    assert_eq!(
        (up.at, up.hop),
        (syn_up.at, syn_up.hop),
        "flow 3's SYN lost its uplink"
    );
    assert_eq!(first(&sharded, 0, false).at, delivered);
    assert!(
        (sharded.traces.iter()).any(|t| t.flow == FlowId(6) && t.at == delivered),
        "flow 6 did not start at the delivery instant"
    );
    assert_eq!(
        (
            sharded.digest().as_str(),
            sharded.traces.len(),
            sharded.fct_hash()
        ),
        (
            "2604|0.005556674286|0.000000000000|2|0|7",
            1505,
            0xee3d8d0de44d7b23
        )
    );
}

/// The chained twin of [`same_instant_starts_ticks_and_admin_events_keep_their_order`],
/// serial only (the sharded engine refuses chains): flow 5 launches the
/// instant flow 1 completes, and a link change and a repair land at
/// exactly that instant, so the successor's start — pushed while the
/// run dispatches — meets both admin events at one `(time)`.
#[test]
fn a_chained_start_at_an_admin_instant_keeps_its_order() {
    let (mut cfg, flows) = same_instant_job();
    cfg.trace_flows = vec![FlowId(5)];
    let next = vec![None, Some(5), None, None, None, None];
    let run =
        |cfg: &SimConfig| Simulation::new_chained(cfg.clone(), flows.clone(), next.clone()).run();
    // Where the successor launches does not depend on what happens after
    // it: find the instant, then put the admin events there.
    let launch = |r: &RunReport| r.traces.first().expect("flow 5 traced").at;
    let at = launch(&run(&cfg));
    assert!(
        at > SimTime::from_micros(300),
        "the repair must follow the failure"
    );
    // Events of one instant apply in list order: the rate change goes
    // first, before the repair it meets.
    let rate = AdminEvent {
        at,
        target: Target::Link {
            sw: LeafId(2),
            up: SpineId(3),
        },
        change: Change::Rate {
            bw_factor: 0.5,
            new_prop_delay: None,
            extra_delay: SimTime::ZERO,
        },
    };
    cfg.admin_events.insert(0, rate);
    let repair = (cfg.admin_events.iter_mut()).find(|e| e.change == Change::Up);
    repair.expect("the job repairs its failure").at = at;
    let r = run(&cfg);
    assert_eq!(launch(&r), at, "the successor moved off the admin instant");
    assert_eq!(r.completed, r.total_flows);
    assert_eq!(
        (r.digest().as_str(), r.traces.len(), r.fct_hash()),
        (
            "2226|0.001270056000|0.000000000000|1|0|6",
            539,
            0x2d048c63afdee472
        )
    );
}
