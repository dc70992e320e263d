//! The pipelined-delivery FEL bound on a high-BDP fabric.
//!
//! Long fat links are where per-packet `Arrive` events hurt: every packet
//! in flight is an FEL entry, so occupancy scales with the
//! bandwidth-delay product. The per-link delivery pipes cap it at
//! O(ports + pending timers/starts) regardless of BDP — this test builds a
//! 10 Gbit/s fabric with 500 µs per-link propagation (≈ 2 ms RTT across
//! the spine, a multi-megabyte BDP), runs both delivery modes, and checks
//! that the pipelined run is bit-identical yet bounded.

use tlb::engine::EngineKind;
use tlb::prelude::*;

/// 2 leaves × 4 spines × 8 hosts, 10 Gbit/s everywhere, 500 µs per link:
/// 16 cross-rack 4 MB long flows plus 32 staggered 20 KB short flows.
fn high_bdp_job(scheme: Scheme, seed: u64) -> (SimConfig, Vec<FlowSpec>) {
    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.seed = seed;
    cfg.audit = true; // arm the in-loop occupancy oracle
    cfg.topo = LeafSpineBuilder::new(2, 4, 8)
        .link_gbps(10.0)
        .prop_per_link(SimTime::from_micros(500))
        .build();
    cfg.horizon = SimTime::from_millis(60);
    let hosts_per_leaf = cfg.topo.hosts_per_leaf() as u32;
    let mut flows = Vec::new();
    for i in 0..16u32 {
        flows.push(FlowSpec {
            id: FlowId(i),
            src: HostId(i % hosts_per_leaf),
            dst: HostId(hosts_per_leaf + (i * 3) % hosts_per_leaf),
            size_bytes: 4_000_000,
            start: SimTime::from_micros(10 * i as u64),
            deadline: None,
        });
    }
    for i in 0..32u32 {
        flows.push(FlowSpec {
            id: FlowId(16 + i),
            src: HostId((i * 5) % hosts_per_leaf),
            dst: HostId(hosts_per_leaf + (i * 7) % hosts_per_leaf),
            size_bytes: 20_000,
            start: SimTime::from_micros(200 + 50 * i as u64),
            deadline: None,
        });
    }
    (cfg, flows)
}

#[test]
fn pipelined_delivery_bounds_fel_depth_on_high_bdp_links() {
    for scheme in [Scheme::Rps, Scheme::tlb_default()] {
        let name = scheme.name();
        let (mut cfg, flows) = high_bdp_job(scheme, 11);
        cfg.delivery = DeliveryKind::Pipelined;
        let piped = run_one_ref(&cfg, &flows);
        cfg.delivery = DeliveryKind::PerPacket;
        let reference = run_one_ref(&cfg, &flows);

        // Same physics, same results — only the FEL residency differs.
        assert_eq!(piped.digest(), reference.digest(), "{name}: modes diverged");
        assert_eq!(piped.audit, reference.audit, "{name}: audit diverged");
        assert_eq!(
            piped.fel_bound_peak, reference.fel_bound_peak,
            "{name}: occupancy bound must be mode-independent"
        );

        // The bound itself: every pipelined occupancy sample stays within
        // ports + links' worth of events plus pending timers/starts. (The
        // run loop also asserts this per sample when the audit is on; the
        // report-level check keeps it visible to integration callers.)
        let piped_max = piped.fel_depth.max();
        assert!(piped.fel_depth.len() > 10, "{name}: too few depth samples");
        assert!(
            piped_max <= piped.fel_bound_peak as f64,
            "{name}: pipelined FEL depth {piped_max} exceeds bound {}",
            piped.fel_bound_peak
        );

        // What the wheel keeps resident is bounded the same way: the node
        // pool grows only when every node is in use, so its high-water
        // mark is a depth the wheel actually reached.
        assert!(piped.fel_nodes_peak > 0, "{name}: nothing used the wheel");
        assert!(
            piped.fel_nodes_peak <= piped.fel_bound_peak,
            "{name}: {} pooled FEL nodes exceed bound {}",
            piped.fel_nodes_peak,
            piped.fel_bound_peak
        );

        // And it must matter: on a multi-megabyte BDP the per-packet
        // reference keeps an event per in-flight packet, far above the
        // fabric-sized bound the pipelined mode respects.
        let ref_max = reference.fel_depth.max();
        assert!(
            ref_max > piped.fel_bound_peak as f64,
            "{name}: scenario is not BDP-bound (per-packet max {ref_max} \
             within bound {})",
            piped.fel_bound_peak
        );
        assert!(
            piped_max * 2.0 < ref_max,
            "{name}: expected ≥2× FEL-depth reduction, got {piped_max} vs {ref_max}"
        );
    }
}

/// A shard replica is an engine like any other: a cross-shard packet rides
/// the receiving shard's link pipe, so every shard's FEL stays inside the
/// same fabric-sized bound (the in-loop oracle asserts it per sample on
/// every replica; the report-level check is the merged samples' maximum).
#[test]
fn sharded_shards_stay_within_the_pipelined_bound() {
    let (mut cfg, flows) = high_bdp_job(Scheme::Rps, 11);
    let serial = run_one_ref(&cfg, &flows);
    cfg.engine = EngineKind::Sharded { workers: Some(2) };
    let sharded = run_one_ref(&cfg, &flows);
    assert_eq!(sharded.engine_workers, Some(2), "engine refused");
    assert_eq!(sharded.digest(), serial.digest(), "engines diverged");
    assert_eq!(sharded.audit, serial.audit, "audit diverged");
    assert!(sharded.fel_depth.len() > 10, "too few depth samples");
    assert!(
        sharded.fel_depth.max() <= sharded.fel_bound_peak as f64,
        "a shard's FEL reached depth {} against a bound of {}",
        sharded.fel_depth.max(),
        sharded.fel_bound_peak
    );
}

/// The fig10 premise (`tests/fidelity.rs`): large-scale web-search at 60 %
/// load under one fidelity — 100 ms of arrivals, long enough that fluid
/// tails overlap and every join or leave re-rates a crowd of sharers.
fn websearch_job(fidelity: FidelityKind) -> RunReport {
    let mut cfg = SimConfig::large_scale(Scheme::tlb_default(), 32);
    cfg.audit = true; // arm the in-loop occupancy and fluid-timer oracles
    cfg.fidelity = fidelity;
    let dist = web_search();
    let wl = PoissonWorkload {
        load: 0.6,
        dist: &dist,
        duration: SimTime::from_millis(100),
        deadline_lo: SimTime::from_millis(5),
        deadline_hi: SimTime::from_millis(25),
        short_threshold: 100_000,
        inter_leaf_only: true,
    };
    let flows = wl.generate(&cfg.topo, &mut SimRng::new(100));
    Simulation::new(cfg, flows).run()
}

/// The fluid tier must not use the FEL as its priority queue: every join
/// and leave re-rates all sharers, and if each re-rate were an FEL event
/// the superseded ones would sit there until their time came. With the
/// projections in the seam's indexed heap, a hybrid run's FEL is no deeper
/// than its packet twin's and holds one timer push per completion, give or
/// take the few that are superseded or fire early.
#[test]
fn fluid_completions_stay_out_of_the_fel() {
    let packet = websearch_job(FidelityKind::Packet);
    let hybrid = websearch_job(FidelityKind::Hybrid);
    assert_eq!(hybrid.completed, hybrid.total_flows);
    assert!(hybrid.fluid_migrations > 0, "nothing migrated");
    let residencies = hybrid.fluid_migrations + hybrid.fluid_demotions;
    assert!(
        hybrid.fluid_rate_changes > 10 * residencies,
        "scenario has too little sharing to tell: {} rate changes for {residencies} residencies",
        hybrid.fluid_rate_changes
    );
    assert!(
        hybrid.fluid_timer_events <= 4 * residencies + 16,
        "{} fluid timer events for {residencies} residencies",
        hybrid.fluid_timer_events
    );
    assert!(
        hybrid.fel_depth.max() <= packet.fel_depth.max() + 16.0,
        "hybrid FEL depth {} against the packet twin's {}",
        hybrid.fel_depth.max(),
        packet.fel_depth.max()
    );
    assert!(hybrid.fel_depth.max() <= hybrid.fel_bound_peak as f64);
    for (name, r) in [("packet", &packet), ("hybrid", &hybrid)] {
        assert!(
            0 < r.fel_nodes_peak && r.fel_nodes_peak <= r.fel_bound_peak,
            "{name}: {} pooled FEL nodes against bound {}",
            r.fel_nodes_peak,
            r.fel_bound_peak
        );
    }
}
