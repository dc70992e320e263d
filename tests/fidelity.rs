//! The hybrid fluid/packet fidelity tier, validated differentially
//! against full packet fidelity (PR 8).
//!
//! Under [`FidelityKind::Hybrid`], flows that cross the 100 KB
//! short/long boundary hand their unsent tail to a per-link fair-share
//! rate model; short flows, handshakes and all queue/ECN dynamics stay
//! packet-level. That is a *modeling* change, so hybrid results agree
//! with packet results within **tolerance bands**, not bit-for-bit:
//!
//! * **Exact across fidelities**: completion counts, conservation-audit
//!   cleanliness, and a pinned TLB's *zero voluntary reroutes* (the
//!   stickiness discipline the Liang & Borst analysis says a fluid tier
//!   must not erode).
//! * **Banded**: mean/p99 FCT per class. The hybrid tier is
//!   systematically *optimistic for short flows* (once a long flow's
//!   tail leaves the packet paths, shorts stop queueing behind it) and
//!   mildly *pessimistic-to-neutral for long flows* (the fair-share rate
//!   ignores the congestion window ramp it replaces but also never
//!   drops). The bands below bound both effects at every paper-figure
//!   operating point; measured quick-scale ratios sit well inside them
//!   (short AFCT ratio ≈ 0.6–0.9, long AFCT ratio ≈ 0.9–1.2).
//! * **Packet mode untouched**: `FidelityKind::Packet` runs the
//!   historical per-packet paths — same digests as before the field
//!   existed (the presets set it literally, and the determinism suite
//!   and `benchmark/expected_digests.json` pin packet-mode digests).

use tlb::prelude::*;

fn pinned_tlb() -> Scheme {
    let mut t = TlbConfig::paper_default();
    t.threshold_mode = ThresholdMode::Fixed(u64::MAX);
    Scheme::Tlb(t)
}

/// One paper-figure operating point, run under one fidelity.
fn run_shape(shape: &str, fidelity: FidelityKind, scheme: Scheme) -> RunReport {
    match shape {
        // Fig. 4's premise: sustained short load under a handful of long
        // flows on the 15-path basic fabric — the long-flow-centric view.
        "fig04" | "fig04-brownout" | "fig04-flap" => {
            let mut cfg = SimConfig::basic_paper(scheme);
            cfg.audit = true;
            cfg.fidelity = fidelity;
            // Leaf 0 holds every sender. The variants hit nine of its
            // fifteen uplinks 3 ms in, while the long tails are fluid: a
            // brown-out to 40 % re-rates the tails crossing them; a hard
            // flap demotes those tails, and they migrate again over the
            // six surviving paths (and the repaired ones after 6 ms).
            for s in 0..9 {
                match shape {
                    "fig04-brownout" => cfg.admin_events.push(AdminEvent {
                        at: SimTime::from_millis(3),
                        target: Target::Link {
                            sw: LeafId(0),
                            up: SpineId(s),
                        },
                        change: Change::Rate {
                            bw_factor: 0.4,
                            new_prop_delay: None,
                            extra_delay: SimTime::ZERO,
                        },
                    }),
                    "fig04-flap" => {
                        for (at_ms, change) in [(3, Change::Down), (6, Change::Up)] {
                            cfg.admin_events.push(AdminEvent {
                                at: SimTime::from_millis(at_ms),
                                target: Target::Link {
                                    sw: LeafId(0),
                                    up: SpineId(s),
                                },
                                change,
                            });
                        }
                    }
                    _ => {}
                }
            }
            let mut mix = BasicMixConfig::paper_default();
            mix.n_short = 60;
            mix.n_long = 5;
            mix.long_lo = 1_000_000;
            mix.long_hi = 2_000_000;
            let (flows, next) = sustained_mix(&cfg.topo, &mix, 6, &mut SimRng::new(40));
            Simulation::new_chained(cfg, flows, next).run()
        }
        // Fig. 8's premise: 100 sustained shorts against 3 longs — the
        // short-flow-centric view (reordering/queueing-delay figure).
        "fig08" => {
            let mut cfg = SimConfig::basic_paper(scheme);
            cfg.audit = true;
            cfg.fidelity = fidelity;
            let mut mix = BasicMixConfig::paper_default();
            mix.n_short = 100;
            mix.n_long = 3;
            let (flows, next) = sustained_mix(&cfg.topo, &mix, 4, &mut SimRng::new(80));
            Simulation::new_chained(cfg, flows, next).run()
        }
        // Fig. 10's premise: the large-scale web-search workload (heavy
        // tail, ~30% of bytes in >1 MB flows) at 60% load, quick trace.
        "fig10" => {
            let mut cfg = SimConfig::large_scale(scheme, 32);
            cfg.audit = true;
            cfg.fidelity = fidelity;
            let dist = web_search();
            let wl = PoissonWorkload {
                load: 0.6,
                dist: &dist,
                duration: SimTime::from_millis(10),
                deadline_lo: SimTime::from_millis(5),
                deadline_hi: SimTime::from_millis(25),
                short_threshold: 100_000,
                inter_leaf_only: true,
            };
            let flows = wl.generate(&cfg.topo, &mut SimRng::new(100));
            Simulation::new(cfg, flows).run()
        }
        other => panic!("unknown shape {other}"),
    }
}

/// Assert `hybrid/packet` for one metric within `[lo, hi]`.
fn band(shape: &str, metric: &str, packet: f64, hybrid: f64, lo: f64, hi: f64) {
    assert!(
        packet > 0.0,
        "{shape}/{metric}: packet baseline is degenerate ({packet})"
    );
    let ratio = hybrid / packet;
    assert!(
        (lo..=hi).contains(&ratio),
        "{shape}/{metric}: hybrid/packet ratio {ratio:.3} outside [{lo}, {hi}] \
         (packet {packet:.6}, hybrid {hybrid:.6})"
    );
}

/// The audit must have run and closed its books.
fn assert_audit_clean(shape: &str, r: &RunReport) {
    let audit = r
        .audit
        .as_ref()
        .unwrap_or_else(|| panic!("{shape}: audit enabled but report missing"));
    let in_flight: u64 = audit.kinds.iter().map(|k| k.in_flight_at_end()).sum();
    assert_eq!(
        audit.total_emitted(),
        audit.total_delivered() + audit.total_dropped() + in_flight,
        "{shape}: conservation must close the books"
    );
    assert_eq!(
        audit.monotonicity_violations, 0,
        "{shape}: clock ran backwards"
    );
}

/// The headline suite: rerun each paper-figure operating point under both
/// fidelities and hold hybrid to the documented tolerance bands, with the
/// exact metrics (completion, audit, stickiness) compared exactly.
#[test]
fn tolerance_bands_hold_at_paper_operating_points() {
    // (shape, short-AFCT band, short-p99 band, long-AFCT band).
    // Rationale for the widths: shorts can only get *faster* when long
    // tails vacate the queues (lower bound well under the measured ~0.6,
    // upper bound allows neutral-to-slightly-worse placements); long FCT
    // may swing both ways — the fluid rate skips slow-start (faster) but
    // also never exceeds its fair share even when the packet flow would
    // have (slower).
    type Band = (f64, f64);
    let shapes: [(&str, Band, Band, Band); 3] = [
        ("fig04", (0.25, 1.35), (0.25, 1.5), (0.45, 2.0)),
        ("fig08", (0.25, 1.35), (0.25, 1.5), (0.45, 2.0)),
        ("fig10", (0.30, 1.35), (0.30, 1.5), (0.40, 2.2)),
    ];
    for (shape, s_mean, s_p99, l_mean) in shapes {
        let p = run_shape(shape, FidelityKind::Packet, Scheme::tlb_default());
        let h = run_shape(shape, FidelityKind::Hybrid, Scheme::tlb_default());

        // Exact: both fidelities finish the same work, audited.
        assert_eq!(
            p.completed, p.total_flows,
            "{shape}: packet run stranded flows"
        );
        assert_eq!(
            h.completed, h.total_flows,
            "{shape}: hybrid run stranded flows"
        );
        assert_audit_clean(shape, &p);
        assert_audit_clean(shape, &h);

        // The model must actually engage: the workloads all carry >100 KB
        // flows, so hybrid runs migrate some and packet runs never do.
        assert_eq!(
            p.fluid_migrations, 0,
            "{shape}: packet run used the fluid tier"
        );
        assert!(
            h.fluid_migrations > 0,
            "{shape}: no flow ever migrated to the fluid tier"
        );

        // The point of the tier: the long-flow population's packet work
        // (segment transmissions) collapses once tails go fluid.
        let work = |r: &RunReport| r.long.data_sent + r.long.retransmits;
        assert!(
            work(&p) >= 2 * work(&h),
            "{shape}: expected ≥2x fewer long-flow segment transmissions, \
             packet {} vs hybrid {}",
            work(&p),
            work(&h)
        );

        // Banded: FCT per class.
        band(
            shape,
            "short.afct",
            p.fct_short.afct,
            h.fct_short.afct,
            s_mean.0,
            s_mean.1,
        );
        band(
            shape,
            "short.p99",
            p.fct_short.p99,
            h.fct_short.p99,
            s_p99.0,
            s_p99.1,
        );
        band(
            shape,
            "long.afct",
            p.fct_long.afct,
            h.fct_long.afct,
            l_mean.0,
            l_mean.1,
        );
    }
}

/// Stickiness discipline, preserved exactly: a TLB pinned at `q_th = ∞`
/// must make zero voluntary long-flow reroutes under *both* fidelities —
/// migrating a tail to the fluid tier routes it once through the same
/// balancer hooks and never again.
#[test]
fn pinned_tlb_voluntary_reroutes_are_exactly_preserved() {
    for shape in ["fig04", "fig08"] {
        let p = run_shape(shape, FidelityKind::Packet, pinned_tlb());
        let h = run_shape(shape, FidelityKind::Hybrid, pinned_tlb());
        assert_eq!(
            p.tlb_long_reroutes,
            Some(0),
            "{shape}: pinned TLB rerouted voluntarily at packet fidelity"
        );
        assert_eq!(
            h.tlb_long_reroutes,
            Some(0),
            "{shape}: pinned TLB rerouted voluntarily at hybrid fidelity"
        );
        assert_eq!(p.completed, p.total_flows);
        assert_eq!(h.completed, h.total_flows);
    }
}

/// Hybrid runs are themselves bit-deterministic: same seed, same digests,
/// rerun to rerun (the fluid model's f64 updates happen in a fixed
/// flow-id order precisely so this holds).
#[test]
fn hybrid_runs_are_bit_deterministic() {
    let a = run_shape("fig04", FidelityKind::Hybrid, Scheme::tlb_default());
    let b = run_shape("fig04", FidelityKind::Hybrid, Scheme::tlb_default());
    assert_eq!(a.digest(), b.digest(), "hybrid rerun diverged");
    assert_eq!(a.fluid_migrations, b.fluid_migrations);
    assert_eq!(a.fluid_bytes, b.fluid_bytes);
    assert_eq!(a.audit, b.audit, "hybrid audit counters diverged");
}

/// Everything a run reports about flows and packets except how many FEL
/// events it took: the digest without its `events` field, and both FCT
/// summaries in full.
fn results_pin(r: &RunReport) -> String {
    let digest = r.digest();
    let (_events, rest) = digest.split_once('|').expect("digest has fields");
    format!("{rest} {:?} {:?}", r.fct_short, r.fct_long)
}

/// How the fluid tier schedules its completions is an implementation
/// matter; what the run *reports* is not. These are the hybrid results of
/// the three paper shapes, a brown-out and a demote-and-remigrate flap,
/// recorded before fluid completions moved from one FEL event per rate
/// change to one timer over an indexed heap — that change, and any later
/// one to the seam's scheduling, must leave them bit-identical.
#[test]
fn hybrid_results_are_pinned_whatever_schedules_the_completions() {
    let pins: [(&str, &str); 5] = [
        (
            "fig04",
            "0.002273657161|95528444.623588979244|0|6271|365 FctSummary { completed: 360, unfinished: 0, afct: 0.0022736571611111107, p99: 0.005315135120000003, p50: 0.0020382869999999997, deadline_miss: 0.002777777777777778, mean_goodput: 34644930.066784 } FctSummary { completed: 5, unfinished: 0, afct: 0.015610311400000002, p99: 0.022870937280000003, p50: 0.013867114, deadline_miss: 0.0, mean_goodput: 95528444.62358898 }",
        ),
        (
            "fig08",
            "0.003353899525|120938264.355006739497|0|8000|403 FctSummary { completed: 400, unfinished: 0, afct: 0.0033538995249999975, p99: 0.007096621049999999, p50: 0.0031178935, deadline_miss: 0.0, mean_goodput: 23709089.267542653 } FctSummary { completed: 3, unfinished: 0, afct: 0.13586666833333333, p99: 0.16470055968, p50: 0.149554938, deadline_miss: 0.0, mean_goodput: 120938264.35500674 }",
        ),
        (
            "fig10",
            "0.000681427223|73518418.144620403647|0|3034|195 FctSummary { completed: 121, unfinished: 0, afct: 0.0006814272231404956, p99: 0.0014652613999999993, p50: 0.000650215, deadline_miss: 0.0, mean_goodput: 31861106.36231863 } FctSummary { completed: 74, unfinished: 0, afct: 0.029593025662162164, p99: 0.13092666279999998, p50: 0.0243620575, deadline_miss: 0.0, mean_goodput: 73518418.1446204 }",
        ),
        (
            "fig04-brownout",
            "0.003769737333|68561521.165128380060|0|1841|365 FctSummary { completed: 360, unfinished: 0, afct: 0.0037697373333333345, p99: 0.007622202660000004, p50: 0.0035787815000000002, deadline_miss: 0.008333333333333333, mean_goodput: 22279538.22219322 } FctSummary { completed: 5, unfinished: 0, afct: 0.0290812026, p99: 0.052677341200000005, p50: 0.017928514, deadline_miss: 0.0, mean_goodput: 68561521.16512838 }",
        ),
        (
            "fig04-flap",
            "0.002588845333|113167572.793100640178|13|7285|365 FctSummary { completed: 360, unfinished: 0, afct: 0.0025888453333333347, p99: 0.006146536720000001, p50: 0.0022542919999999998, deadline_miss: 0.0, mean_goodput: 31693529.933814652 } FctSummary { completed: 5, unfinished: 0, afct: 0.0119690656, p99: 0.0138441934, p50: 0.013168832, deadline_miss: 0.0, mean_goodput: 113167572.79310064 }",
        ),
    ];
    for (shape, pin) in pins {
        let r = run_shape(shape, FidelityKind::Hybrid, Scheme::tlb_default());
        assert_eq!(r.completed, r.total_flows, "{shape}: stranded flows");
        if shape == "fig04-flap" {
            assert!(r.fluid_demotions > 0, "{shape}: the flap demoted nothing");
            // Five long flows: more residencies than that are re-entries.
            assert!(
                r.fluid_migrations > 5,
                "{shape}: no demoted tail migrated again"
            );
        }
        assert_eq!(results_pin(&r), pin, "{shape}: hybrid results moved");
    }
}
