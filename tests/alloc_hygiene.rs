//! Allocation hygiene: after warmup, the simulator's per-packet steady
//! state performs ZERO heap acquisitions — no allocations, no Vec
//! regrowth — on a fig10-shaped production job with queue sampling and
//! packet tracing on, across a mid-run link flap and on the fuzzer's
//! 16-job differential batch.
//!
//! This binary installs [`tlb::engine::CountingAlloc`] as the global
//! allocator; the simulator snapshots the process-wide counters at the
//! configured warmup boundary and reports the steady-state delta in
//! [`RunReport::alloc_audit`]. Because the counters are process-wide,
//! everything here runs inside ONE `#[test]` — a second concurrent test
//! thread allocating mid-window would make the gate flaky. The simulator
//! itself is bit-deterministic, so within a quiet process the gate is an
//! exact equality, not a threshold.
//!
//! The warmup boundary is learned empirically per job: run once without
//! auditing to learn the total event count `E`, then rerun with the
//! window opening at `E/2`. Everything the simulator ever allocates —
//! metric reservations, pool/arena warm-up growth, calendar-queue pool
//! growth, balancer flow tables — must have reached steady state by
//! mid-run.

use tlb::engine::{alloc_audit, CountingAlloc};
use tlb::prelude::*;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// The macro job shape: the large-scale fabric under a Poisson
/// web-search load (what fig10 sweeps), sized to finish quickly in debug
/// builds while still processing enough events to have a steady state.
/// It also samples leaf 0's uplink queues (what fig05 reads) and traces
/// its first 8 flows, so both collectors' build-time reservations are
/// under the gate.
fn fig10_job() -> (SimConfig, Vec<FlowSpec>) {
    let dist = web_search();
    let mut cfg = SimConfig::large_scale(Scheme::tlb_default(), 8);
    cfg.sample_queues = true;
    cfg.trace_flows = (0..8).map(FlowId).collect();
    let wl = PoissonWorkload {
        load: 0.6,
        dist: &dist,
        duration: SimTime::from_millis(6),
        deadline_lo: SimTime::from_millis(5),
        deadline_hi: SimTime::from_millis(25),
        short_threshold: 100_000,
        inter_leaf_only: true,
    };
    let flows = wl.generate(&cfg.topo, &mut SimRng::new(42));
    (cfg, flows)
}

/// Run `(cfg, flows)` serially with the audit window opening at `warmup`
/// events. The packet-conservation ledger is disabled: it is test-only
/// bookkeeping whose per-packet records are *supposed* to allocate, and
/// the zero-alloc invariant covers the production path.
fn audited(mut cfg: SimConfig, flows: Vec<FlowSpec>, warmup: u64) -> RunReport {
    cfg.audit = false;
    cfg.alloc_warmup_events = Some(warmup.max(1));
    Simulation::new(cfg, flows).run()
}

/// Total events of `(cfg, flows)` without auditing (the learning pass).
fn learn_events(mut cfg: SimConfig, flows: Vec<FlowSpec>) -> u64 {
    cfg.audit = false;
    cfg.alloc_warmup_events = None;
    Simulation::new(cfg, flows).run().events
}

fn assert_zero_alloc(r: &RunReport, label: &str) {
    let a = r
        .alloc_audit
        .unwrap_or_else(|| panic!("{label}: audit window never closed"));
    assert!(a.counting, "{label}: counting allocator not detected");
    assert!(a.steady_events > 0, "{label}: empty steady window");
    assert_eq!(
        a.acquisitions(),
        0,
        "{label}: {} allocs + {} reallocs ({} bytes) across {} steady events",
        a.allocs,
        a.reallocs,
        a.bytes,
        a.steady_events,
    );
}

#[test]
fn steady_state_is_allocation_free() {
    assert!(
        alloc_audit::probe_counting(),
        "this binary must install the counting allocator"
    );

    // --- fig10-shaped job ----------------------------------------------
    // The FEL is reserved at build for the most its occupancy bound can
    // reach; a reservation short of what the run reaches would grow a
    // tier mid-window. A queue sample that collects a fresh row, or a
    // trace outgrowing its reservation, allocates mid-window too.
    let (cfg, flows) = fig10_job();
    let e = learn_events(cfg.clone(), flows.clone());
    assert!(e > 100_000, "job too small for a steady state: {e} events");
    let r = audited(cfg, flows, e / 2);
    assert_eq!(r.events, e, "the audit window changed the event count");
    assert_zero_alloc(&r, "fig10");

    // --- mid-audit flap on a 10 Gb/s link: pipe-capacity regression ------
    // Two stacked rate changes land INSIDE the audit window on one 10 Gb/s
    // uplink: a bandwidth improvement (shorter tx time) plus extra
    // propagation delay, each growing the worst-case number of packets in
    // flight on the wire. The packet arena behind the link pipes is
    // reserved once at build for every state the admin schedule
    // reaches; a reservation that forgot the schedule would grow the slab
    // mid-window and the realloc would trip the gate.
    {
        let dist = web_search();
        let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
        cfg.topo = LeafSpineBuilder::new(4, 4, 8)
            .link_gbps(10.0)
            .target_rtt(SimTime::from_micros(100))
            .build();
        for (at_us, extra_us) in [(1_300, 150), (1_600, 150)] {
            cfg.admin_events.push(AdminEvent {
                at: SimTime::from_micros(at_us),
                target: Target::Link {
                    sw: LeafId(0),
                    up: SpineId(1),
                },
                change: Change::Rate {
                    bw_factor: 1.25,
                    new_prop_delay: None,
                    extra_delay: SimTime::from_micros(extra_us),
                },
            });
        }
        let wl = PoissonWorkload {
            load: 0.4,
            dist: &dist,
            duration: SimTime::from_millis(2),
            deadline_lo: SimTime::from_millis(5),
            deadline_hi: SimTime::from_millis(25),
            short_threshold: 100_000,
            inter_leaf_only: true,
        };
        let flows = wl.generate(&cfg.topo, &mut SimRng::new(77));
        let e = learn_events(cfg.clone(), flows.clone());
        assert!(e > 100_000, "flap job too small for a steady state: {e}");
        let r = audited(cfg, flows, e / 2);
        assert_eq!(r.events, e, "the audit window changed the event count");
        assert_zero_alloc(&r, "10G mid-audit flap");
    }

    // --- the fuzzer's 16-job differential batch, run serially ------------
    // The same batch as tests/determinism.rs: schemes, incast, and static +
    // mid-run degradation.
    for (i, (cfg, flows)) in tlb_fuzz::differential_batch().into_iter().enumerate() {
        let e = learn_events(cfg.clone(), flows.clone());
        let r = audited(cfg, flows, e / 2);
        assert_zero_alloc(&r, &format!("fuzz job {i} ({})", r.scheme));
    }
}
