//! The pipelined-delivery FEL bound on a high-BDP fabric.
//!
//! Long fat links are where per-packet `Arrive` events hurt: every packet
//! in flight is an FEL entry, so occupancy scales with the
//! bandwidth-delay product. The per-link delivery pipes cap it at
//! O(ports + pending timers/starts) regardless of BDP — this test builds a
//! 10 Gbit/s fabric with 500 µs per-link propagation (≈ 2 ms RTT across
//! the spine, a multi-megabyte BDP), runs both delivery modes, and checks
//! that the pipelined run is bit-identical yet bounded.

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
        .build()
        .into();
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
