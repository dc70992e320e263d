//! The FEL occupancy bound, on a high-BDP fabric and over long arrival
//! spans.
//!
//! Long fat links are where an FEL entry per packet in flight would hurt:
//! occupancy would scale with the bandwidth-delay product. The per-link
//! delivery pipes keep one chained arrival event per link, which caps it
//! at O(ports + pending timers) regardless of BDP.
//! These tests build a 10 Gbit/s fabric with 500 µs per-link propagation
//! (≈ 2 ms RTT across the spine, a multi-megabyte BDP) and check that the
//! FEL stays inside that bound while the wire holds many times more
//! packets than the bound allows entries.
//!
//! Long arrival spans are where an FEL entry per not-yet-started flow
//! would hurt: occupancy would scale with the flows of the job. Every
//! flow start waits in a sorted schedule outside the FEL — what is known
//! at build from the start, a chained successor's from its predecessor's
//! completion — so the FEL follows the connections open at once, not the
//! flows in total.

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
        let (cfg, flows) = high_bdp_job(scheme, 11);
        let r = run_one_ref(&cfg, &flows);

        // The bound itself: every occupancy sample stays within ports +
        // links' worth of events plus pending timers/starts. (The run loop
        // also asserts this per sample when the audit is on; the
        // report-level check keeps it visible to integration callers.)
        let depth_max = r.fel_depth.max();
        assert!(r.fel_depth.len() > 10, "{name}: too few depth samples");
        assert!(
            depth_max <= r.fel_bound_peak as f64,
            "{name}: FEL depth {depth_max} exceeds bound {}",
            r.fel_bound_peak
        );

        // What the wheel keeps resident is bounded the same way: the node
        // pool grows only when every node is in use, so its high-water
        // mark is a depth the wheel actually reached.
        assert!(r.fel_nodes_peak > 0, "{name}: nothing used the wheel");
        assert!(
            r.fel_nodes_peak <= r.fel_bound_peak,
            "{name}: {} pooled FEL nodes exceed bound {}",
            r.fel_nodes_peak,
            r.fel_bound_peak
        );

        // And it must matter: on a multi-megabyte BDP the wire carries
        // more than twice as many packets at once as the bound allows FEL
        // entries, so one entry per packet in flight could not fit in it.
        assert!(
            r.wire_pkts_peak > 2 * r.fel_bound_peak,
            "{name}: scenario is not BDP-bound ({} packets on the wire at \
             peak against a bound of {})",
            r.wire_pkts_peak,
            r.fel_bound_peak
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
/// load under one fidelity, over `arrivals_ms` of Poisson arrivals.
fn websearch_job(fidelity: FidelityKind, arrivals_ms: u64) -> RunReport {
    let mut cfg = SimConfig::large_scale(Scheme::tlb_default(), 32);
    cfg.audit = true; // arm the in-loop occupancy and fluid-resident oracles
    cfg.fidelity = fidelity;
    let dist = web_search();
    let wl = PoissonWorkload {
        load: 0.6,
        dist: &dist,
        duration: SimTime::from_millis(arrivals_ms),
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
/// the superseded ones would sit there until their time came. The
/// projections live in the seam's indexed heap, which the run loop reads
/// as an event source of its own — no fluid event enters the FEL at all —
/// so a hybrid run's FEL is no deeper than its packet twin's. 100 ms of
/// arrivals is long enough that fluid tails overlap and every join or
/// leave re-rates a crowd of sharers.
#[test]
fn fluid_completions_stay_out_of_the_fel() {
    let packet = websearch_job(FidelityKind::Packet, 100);
    let hybrid = websearch_job(FidelityKind::Hybrid, 100);
    assert_eq!(hybrid.completed, hybrid.total_flows);
    assert!(hybrid.fluid_migrations > 0, "nothing migrated");
    let residencies = hybrid.fluid_migrations + hybrid.fluid_demotions;
    assert!(
        hybrid.fluid_rate_changes > 10 * residencies,
        "scenario has too little sharing to tell: {} rate changes for {residencies} residencies",
        hybrid.fluid_rate_changes
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

/// Arrival span of the 1× run of [`fel_depth_does_not_follow_flows_total`].
const SPAN_MS: u64 = 10;

/// What the FEL may gain from 1× to 10× the arrival span beyond the
/// growth of the connection peak.
const FEL_GROWTH_SLACK: f64 = 64.0;

/// The FEL holds what is live — at most one serialization end and one
/// arrival per port, one retransmission timer per open sender, a few
/// ticks and samples — and never a flow that has not started: the
/// build-time schedule keeps those, outside it. So ten times the arrival
/// span at the same load — ten times the flows — may deepen the FEL only
/// as far as the connections open at once grew (one timer each), plus a
/// constant.
#[test]
fn fel_depth_does_not_follow_flows_total() {
    let short = websearch_job(FidelityKind::Packet, SPAN_MS);
    let long = websearch_job(FidelityKind::Packet, 10 * SPAN_MS);
    assert!(
        long.total_flows >= 8 * short.total_flows,
        "the spans drew too few flows to tell"
    );
    let conns_growth = long.conns_peak as f64 - short.conns_peak as f64;
    let fel_growth = long.fel_depth.max() - short.fel_depth.max();
    println!(
        "FEL max {} over {} flows and {} over {}; conns peak {} and {}",
        short.fel_depth.max(),
        short.total_flows,
        long.fel_depth.max(),
        long.total_flows,
        short.conns_peak,
        long.conns_peak
    );
    assert!(
        fel_growth - conns_growth <= FEL_GROWTH_SLACK,
        "FEL max grew by {fel_growth} from {} to {} flows, {} beyond the connection \
         peak's growth of {conns_growth}: something waits in the FEL per flow of the job",
        short.total_flows,
        long.total_flows,
        fel_growth - conns_growth
    );
}
