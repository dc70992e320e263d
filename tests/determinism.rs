//! Bit-determinism across every simulator feature: identical seeds must
//! produce identical runs even with chaining, failure injection, tracing
//! and every scheme in the registry.

use tlb::engine::{EngineKind, FelKind};
use tlb::prelude::*;
use tlb::simnet::FallbackReason;
use tlb_fuzz::differential_batch;

type Job = (SimConfig, Vec<FlowSpec>);
type SetMode = fn(&mut SimConfig);

fn full_feature_run(scheme: Scheme, seed: u64) -> RunReport {
    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.seed = seed;
    cfg.trace_flows = vec![FlowId(0)];
    cfg.link_events.push(LinkEvent {
        at: SimTime::from_millis(5),
        leaf: LeafId(0),
        spine: SpineId(7),
        bw_factor: 0.5,
        new_prop_delay: None,
        extra_delay: SimTime::from_micros(50),
    });
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 30;
    mix.n_long = 2;
    mix.long_lo = 1_500_000;
    mix.long_hi = 2_500_000;
    let (flows, next) = sustained_mix(&cfg.topo, &mix, 4, &mut SimRng::new(seed ^ 0xF00D));
    Simulation::new_chained(cfg, flows, next).run()
}

/// What two runs of one job must share whatever implementation mode,
/// engine or thread count ran them: the digest, the number of traced hops
/// and the whole audit ledger.
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

/// Order-sensitive hash of the sampled FEL-occupancy series. The sample
/// *schedule* is delivery-mode-independent, but the *values* are actual
/// queue occupancies, which legitimately differ between pipelined and
/// per-packet delivery — so this is asserted only between runs of the
/// same delivery mode (backends, dispatch paths, thread counts, reruns).
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
        .map(|(cfg, flows)| run_one(cfg, flows))
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

#[test]
fn all_schemes_are_bit_deterministic() {
    let mut schemes = Scheme::extended_set();
    schemes.push(Scheme::Wcmp);
    for scheme in schemes {
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
    }
}

#[test]
fn parallel_execution_matches_serial() {
    // The pool fan-out must not perturb per-run results: run the same
    // 8-job batch serially (run_one) and on a 4-thread pool, and require
    // bit-identical digests. The thread probe keeps the test load-bearing —
    // it fails if the "parallel" path silently degrades to sequential.
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
    let serial: Vec<_> = (0..8).map(|s| run_one(mk_job(s).0, mk_job(s).1)).collect();
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

/// The reference implementation behind each bit-identical mode field,
/// next to the production path the presets select.
///
/// * The heap FEL is the calendar queue's reference; both backends must
///   realize the exact same `(time, key, seq)` pop order.
/// * The per-packet `Box<dyn LoadBalancer>` virtual call is the reference
///   of static enum dispatch (`AnyLb`); both paths build the identical
///   balancer from the identical salt.
/// * One FEL `Arrive` entry per in-flight packet is the reference of the
///   per-link delivery pipes with their one chained `Deliver` event. Both
///   carry their port's arrival key, under which nothing else is pushed,
///   so every observable, including the sampled `fel_depth` *schedule*,
///   is bit-identical across modes; only the FEL *occupancy* may differ,
///   bounded in pipelined mode by `fel_bound_peak` (itself
///   mode-independent).
const REFERENCES: [(&str, SetMode); 3] = [
    ("heap FEL", |c| c.fel = FelKind::Heap),
    ("dyn LB dispatch", |c| c.lb_dispatch = LbDispatch::Dyn),
    ("per-packet delivery", |c| {
        c.delivery = DeliveryKind::PerPacket
    }),
];

/// Run `jobs` on the production path and under each of [`REFERENCES`],
/// and require the full simulation digest — events, FCT bits, audit
/// ledger — to match job for job.
fn assert_references_match_production(jobs: &[Job]) {
    let production = run_all_ref(jobs);
    for (label, set) in REFERENCES {
        let ref_jobs = with_mode(jobs.to_vec(), set);
        let same_delivery = ref_jobs[0].0.delivery == jobs[0].0.delivery;
        let reference = run_all(ref_jobs);
        assert_eq!(production.len(), reference.len());
        for (a, b) in production.iter().zip(&reference) {
            assert_same_results(a, b, &format!("production != {label}"));
            assert_eq!(
                a.fel_bound_peak, b.fel_bound_peak,
                "{}: {label}: the occupancy bound must be mode-independent",
                a.scheme
            );
            if same_delivery {
                assert_eq!(
                    fel_depth_hash(a),
                    fel_depth_hash(b),
                    "{}: {label}: fel_depth series diverged",
                    a.scheme
                );
            }
        }
    }
}

#[test]
fn reference_implementations_are_bit_identical_on_fuzz_batch() {
    assert_references_match_production(&differential_batch());
}

#[test]
fn reference_implementations_are_bit_identical_on_load_sweep() {
    // Same check on fig10-shaped traffic: the large-scale fabric under a
    // Poisson web-search load, where RTO timers and dense packet events mix
    // in the queue.
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
    assert_references_match_production(&jobs);
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
/// end-of-run clock, and every traced hop. `fel_depth` is deliberately
/// absent — its sampling schedule is a function of each shard's local
/// event counter, so the sharded samples interleave differently (the
/// *simulation* is still bit-identical; the probe is engine-local).
fn assert_sharded_matches(serial: &RunReport, sharded: &RunReport, label: &str) {
    assert_same_results(serial, sharded, &format!("{label}: sharded != serial"));
    assert_eq!(serial.sim_end, sharded.sim_end, "{label}: sim_end diverged");
    for (x, y) in serial.traces.iter().zip(&sharded.traces) {
        assert_eq!(x.hop, y.hop, "{label}: trace hop diverged");
        assert_eq!(x.at, y.at, "{label}: trace timing diverged");
    }
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
            assert_eq!(sharded.engine_workers, Some(w));
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
    // multi-shard fabric and a long flow, so every job must open parallel
    // windows: a long flow is a blocker until it is within one window's
    // worth of segments of finishing.
    for (cfg, flows) in differential_batch() {
        assert!(flows.iter().any(|f| f.size_bytes >= cfg.short_threshold));
    }
    let serial = run_all(differential_batch());
    for workers in [1u32, 2, 4, 8] {
        let sharded = run_all(with_mode(differential_batch(), |c| {
            c.engine = EngineKind::Sharded {
                workers: Some(workers),
            }
        }));
        assert_eq!(serial.len(), sharded.len());
        for (a, b) in serial.iter().zip(&sharded) {
            assert!(
                b.engine_workers.is_some(),
                "{}: sharded engine fell back to serial on a fuzz job",
                b.scheme
            );
            assert_sharded_matches(a, b, &format!("{} @ {workers} workers", a.scheme));
            assert!(
                b.sharded_windows > 0 && b.sharded_tail_events < b.events,
                "{} @ {workers} workers: {} windows, {} of {} events in the tail",
                b.scheme,
                b.sharded_windows,
                b.sharded_tail_events,
                b.events
            );
        }
    }
}

#[test]
fn sharded_engine_matches_serial_on_fat_tree_failure_flap() {
    // Three-tier partition + global events: a k=8 fat tree (128 hosts,
    // 80 switches, 8 pod shards) with a mid-run edge-uplink down/up flap.
    // Failures force whole-fabric reachability recomputes, which every
    // replica must run on itself at exactly the serial instant.
    let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
    cfg.topo = FatTreeBuilder::new(8)
        .link_gbps(1.0)
        .target_rtt(SimTime::from_micros(100))
        .build();
    cfg.audit = true;
    cfg.trace_flows = vec![FlowId(3)];
    for (at_ms, action) in [(2, FailureAction::Down), (6, FailureAction::Up)] {
        cfg.failure_events.push(FailureEvent {
            at: SimTime::from_millis(at_ms),
            target: FailureTarget::Link {
                sw: LeafId(0), // edge 0
                up: SpineId(1),
            },
            action,
        });
    }
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 40;
    mix.n_long = 2;
    mix.long_lo = 1_500_000;
    mix.long_hi = 2_500_000;
    let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(23));
    // `engine_workers == Some(w)` in the helper: k=8 shards into 8 pods.
    for sharded in sharded_vs_serial(&cfg, &flows, &[2, 4, 8]) {
        // The two long flows block the tail across both failure events:
        // windows before, between and after them.
        assert!(sharded.sharded_windows > 0, "k8 flap ran without windows");
        assert!(
            sharded.sharded_tail_events * 10 < sharded.events,
            "k8 flap: {} of {} events ran in the tail",
            sharded.sharded_tail_events,
            sharded.events
        );
    }
}

#[test]
fn sharded_parallel_windows_match_serial() {
    // A job shaped so `flows >> completion bound` (tiny lookahead, few
    // hosts, many short flows): the aggregate conjunct of the tail rule
    // forces barrier-synchronized parallel windows whatever the long
    // flows do — asserted via `sharded_windows` — and the digests still
    // match bit for bit.
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
            "job sized for parallel windows ran entirely in the tail"
        );
    }
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
fn sharded_websearch_confines_the_tail_to_the_last_window() {
    // The paper's §6.2 job at a quarter of the benchmark's length (8×8
    // leaf-spine, 256 hosts, web-search at load 0.7, 40 ms of arrivals).
    // Arrivals end a fifth of the way into the run; the long flows keep
    // the windows parallel through the whole drain, so at most 1 % of the
    // events may run on the coordinator.
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
        assert!(
            r.sharded_tail_events * 100 <= r.events,
            "{} of {} events in the tail",
            r.sharded_tail_events,
            r.events
        );
        assert!(r.sharded_windows > 0);
    }
}

/// A 4-leaf, 1 Gbit/s fabric and `c`, the most packets one of its hosts
/// can receive in one window (lookahead / header serialization time + 2) —
/// the tail rule's per-flow threshold, restated from its definition.
fn small_fabric() -> (SimConfig, u32) {
    let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
    cfg.topo = LeafSpineBuilder::new(4, 4, 4)
        .link_gbps(1.0)
        .target_rtt(SimTime::from_micros(100))
        .build();
    cfg.audit = true;
    let lookahead = cfg.topo.uplink_props(0, 0).prop_delay.as_nanos();
    let header_tx = cfg.tcp.header_bytes as u64 * 8; // ns at 1 Gbit/s
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
fn sharded_tail_boundary_is_exactly_one_window_of_segments() {
    // Twelve 3-segment flows finish within the first millisecond; the
    // last flow starts at 2 ms. When its start comes into range it is the
    // only flow left and misses all of its segments: exactly `c` of them
    // is not a blocker, so the coordinator runs the whole flow in the
    // tail; `c + 1` is one, so windows stay open until its first data
    // segment lands. Both must match the serial engine bit for bit.
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
    let (at, above) = (run(c), run(c + 1));
    // With `c` segments every event of the last flow — handshake, `c` data
    // segments, `c` ACKs, each over four hops — is a tail event.
    assert!(at.sharded_tail_events > 8 * u64::from(c));
    assert!(
        above.sharded_windows > at.sharded_windows,
        "one more segment must keep windows open: {} vs {}",
        above.sharded_windows,
        at.sharded_windows
    );
    assert!(above.sharded_tail_events < at.sharded_tail_events);
}

#[test]
fn sharded_all_short_job_matches_serial() {
    // No flow ever exceeds one window of segments, so no shard ever
    // reports a blocker: windows come from the start-time conjunct alone
    // (arrivals spread over 3 ms) and the post-arrival drain is the tail.
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
        assert!(r.sharded_tail_events > 0, "nothing blocks the drain");
    }
}

#[test]
fn sharded_windows_span_admin_events_and_match_serial_traces() {
    // A rate change and a link failure land mid-transfer, 200 µs apart,
    // with tracing on: every replica applies each to itself inside an
    // ordinary parallel window, and the windows go on after them — the
    // long flows are still far from done — not the tail. Over 90 % of the
    // run's events come after the first of them.
    let (mut cfg, _) = small_fabric();
    cfg.trace_flows = vec![FlowId(0), FlowId(5)];
    cfg.link_events.push(LinkEvent {
        at: SimTime::from_micros(1_000),
        leaf: LeafId(0),
        spine: SpineId(1),
        bw_factor: 0.5,
        new_prop_delay: None,
        extra_delay: SimTime::from_micros(20),
    });
    for (at_us, action) in [(1_200, FailureAction::Down), (6_000, FailureAction::Up)] {
        cfg.failure_events.push(FailureEvent {
            at: SimTime::from_micros(at_us),
            target: FailureTarget::Link {
                sw: LeafId(0),
                up: SpineId(2),
            },
            action,
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
        assert!(
            r.sharded_tail_events * 10 < r.events,
            "{} of {} events on the coordinator: an admin event sent the run into the tail",
            r.sharded_tail_events,
            r.events
        );
    }
}

#[test]
fn sharded_admin_schedule_adds_no_coordinator_events() {
    // 2,400 link events that change nothing, 1 µs apart over every uplink,
    // land while eight long flows are mid-transfer. Each is one more event
    // for the serial engine and one more on every replica — popped inside
    // the window it falls in, so the coordinator opens the windows it
    // would have opened without them and its tail is no longer.
    const K: u64 = 2_400;
    let (cfg, _) = small_fabric();
    let mut noop = cfg.clone();
    noop.link_events = (0..K)
        .map(|i| LinkEvent {
            at: SimTime::from_micros(1_000 + i),
            leaf: LeafId((i % 4) as u32),
            spine: SpineId((i / 4 % 4) as u32),
            bw_factor: 1.0,
            new_prop_delay: None,
            extra_delay: SimTime::ZERO,
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
        sharded.sharded_tail_events < K,
        "{} coordinator events under {K} admin events",
        sharded.sharded_tail_events
    );
    assert!(
        sharded.sharded_windows <= twin.sharded_windows + twin.sharded_windows / 10 + 2,
        "admin events clamped the windows: {} against {} without them",
        sharded.sharded_windows,
        twin.sharded_windows
    );
}
