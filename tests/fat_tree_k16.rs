//! k=16 fat-tree smoke coverage (PR 8).
//!
//! The k=8 fabric is exercised by the failure-injection matrix; this
//! suite scales the same machinery to the 1024-host, 320-switch k=16
//! pod fabric and checks the things that tend to break first at scale:
//! every flow completes, the conservation audit closes its books, and
//! reruns are bit-identical (digest stability). A hybrid-fidelity leg
//! rides along so the fluid tier's multi-hop fat-tree routing (edge →
//! agg → core → agg → edge) gets coverage on the deepest path shape.

use tlb::engine::FelKind;
use tlb::prelude::*;

fn k16_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.topo = FatTreeBuilder::new(16)
        .link_gbps(1.0)
        .target_rtt(SimTime::from_micros(100))
        .build();
    cfg.audit = true;
    cfg
}

fn k16_run(scheme: Scheme, fidelity: FidelityKind, seed: u64) -> RunReport {
    let mut cfg = k16_cfg(scheme);
    cfg.fidelity = fidelity;
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 80;
    mix.n_long = 4;
    mix.long_lo = 1_000_000;
    mix.long_hi = 2_000_000;
    let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(seed));
    Simulation::new(cfg, flows).run()
}

#[test]
fn k16_smoke_completes_with_clean_audit() {
    let r = k16_run(Scheme::tlb_default(), FidelityKind::Packet, 16);
    assert_eq!(r.completed, r.total_flows, "k=16 run stranded flows");
    let audit = r.audit.as_ref().expect("conservation audit did not run");
    let in_flight: u64 = audit.kinds.iter().map(|k| k.in_flight_at_end()).sum();
    assert_eq!(
        audit.total_emitted(),
        audit.total_delivered() + audit.total_dropped() + in_flight,
        "k=16: conservation must close the books"
    );
    assert_eq!(audit.monotonicity_violations, 0);
}

#[test]
fn k16_digests_are_stable_across_reruns_and_backends() {
    let base = k16_run(Scheme::tlb_default(), FidelityKind::Packet, 16);
    let rerun = k16_run(Scheme::tlb_default(), FidelityKind::Packet, 16);
    assert_eq!(base.digest(), rerun.digest(), "k=16 rerun diverged");

    // The differential backends must agree at this scale too.
    for fel in [FelKind::Calendar, FelKind::Heap] {
        let mut cfg = k16_cfg(Scheme::tlb_default());
        cfg.fel = fel;
        let mut mix = BasicMixConfig::paper_default();
        mix.n_short = 80;
        mix.n_long = 4;
        mix.long_lo = 1_000_000;
        mix.long_hi = 2_000_000;
        let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(16));
        let r = Simulation::new(cfg, flows).run();
        assert_eq!(r.digest(), base.digest(), "{fel:?} diverged on k=16");
    }
}

#[test]
fn k16_hybrid_smoke_migrates_and_completes() {
    let r = k16_run(Scheme::tlb_default(), FidelityKind::Hybrid, 16);
    assert_eq!(r.completed, r.total_flows, "k=16 hybrid run stranded flows");
    assert!(
        r.fluid_migrations > 0,
        "no flow migrated to the fluid tier on the k=16 fabric"
    );
    assert!(r.audit.is_some(), "conservation audit did not run");
    // Determinism holds for the hybrid tier on the deep path shape too.
    let rerun = k16_run(Scheme::tlb_default(), FidelityKind::Hybrid, 16);
    assert_eq!(r.digest(), rerun.digest(), "k=16 hybrid rerun diverged");
    assert_eq!(r.fluid_bytes, rerun.fluid_bytes);
}

/// Resident memory follows what is live, not what is reserved (Linux only:
/// it reads `VmHWM`). The k=16 fabric reserves ≈ 130 MB of port rings
/// (5,120 switch ports × 256 packets, 1,024 NICs × 2,048) and one arena
/// slab for the sum of its 6,144 links' in-flight bounds; a run may page
/// in only the ring slots a backlog actually reached, as many arena slots
/// as packets were ever on the wire at once, and an FEL pool as deep as
/// the wheel ever got. Links own no storage, so an idle one costs nothing.
#[cfg(target_os = "linux")]
mod resident_memory {
    use super::*;
    use std::process::Command;
    use tlb::engine::EngineKind;

    fn vm_hwm_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB"))
            .expect("no VmHWM in /proc/self/status");
        kib.trim().parse().expect("VmHWM in kB")
    }

    const PROBE_TAG: &str = "VmHWM growth KiB:";

    /// Build and run one web-search job under TLB with the audit off (its
    /// ledger is test bookkeeping; the gates are about the production
    /// path) and print how far that pushed this process's peak RSS. A
    /// high-water mark is the job's only when nothing else runs in the
    /// process, so the gates below spawn each probe alone in a child.
    fn probe_job(name: &str, mut cfg: SimConfig, load: f64, arrivals_ms: u64, seed: u64) {
        let before = vm_hwm_kib();
        cfg.audit = false;
        let dist = web_search();
        let wl = PoissonWorkload {
            load,
            dist: &dist,
            duration: SimTime::from_millis(arrivals_ms),
            deadline_lo: SimTime::from_millis(5),
            deadline_hi: SimTime::from_millis(25),
            short_threshold: 100_000,
            inter_leaf_only: true,
        };
        let flows = wl.generate(&cfg.topo, &mut SimRng::new(seed));
        let r = Simulation::new(cfg, flows).run();
        assert_eq!(
            r.completed, r.total_flows,
            "{name} web-search stranded flows"
        );
        println!("{name} {PROBE_TAG} {}", vm_hwm_kib() - before);
    }

    /// Run `resident_memory::<probe>` in a process of its own and read the
    /// growth it printed.
    fn growth_kib(probe: &str) -> u64 {
        let out = Command::new(std::env::current_exe().expect("test binary path"))
            .args([
                "--exact",
                &format!("resident_memory::{probe}"),
                "--ignored",
                "--nocapture",
            ])
            .output()
            .expect("probe spawns");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{probe} failed: {text}");
        text.lines()
            .find_map(|l| l.split_once(PROBE_TAG))
            .unwrap_or_else(|| panic!("no probe line in {text}"))
            .1
            .trim()
            .parse()
            .expect("a KiB count")
    }

    /// The k=16 job: load 0.5, 5 ms of arrivals — 294 flows, 5.2 M events,
    /// every tier's ports cycling.
    #[test]
    #[ignore = "run by k16_resident_memory_stays_under_its_ceiling, in a process of its own"]
    fn probe() {
        probe_job("k16", k16_cfg(Scheme::tlb_default()), 0.5, 5, 16);
    }

    /// 1.25 × the 36,884 KiB this job grew by once link pipes became lists
    /// through the packet arena. With a ring per link it grew by 46,356
    /// KiB (one touched page per ring, 6,144 of them); before rings
    /// re-based on drain, by 104,256 KiB.
    const CEILING_KIB: u64 = 46_105;

    #[test]
    fn k16_resident_memory_stays_under_its_ceiling() {
        let grew = growth_kib("probe");
        assert!(
            grew <= CEILING_KIB,
            "building and running the k=16 job grew peak RSS by {grew} KiB, ceiling {CEILING_KIB}"
        );
    }

    /// The benchmark's leaf-spine job — 8×8, 32 hosts per leaf, load 0.7,
    /// 150 ms of arrivals — on `engine`.
    fn leafspine_probe(name: &str, engine: EngineKind) {
        let mut cfg = SimConfig::large_scale(Scheme::tlb_default(), 32);
        cfg.engine = engine;
        probe_job(name, cfg, 0.7, 150, 1);
    }

    #[test]
    #[ignore = "run by sharded_replicas_stay_near_serial, in a process of its own"]
    fn leafspine_serial_probe() {
        leafspine_probe("leaf-spine serial", EngineKind::Serial);
    }

    #[test]
    #[ignore = "run by sharded_replicas_stay_near_serial, in a process of its own"]
    fn leafspine_sharded_probe() {
        leafspine_probe(
            "leaf-spine sharded",
            EngineKind::Sharded { workers: Some(2) },
        );
    }

    /// Eight shard replicas may not cost eight fabrics: a replica builds
    /// rings only for the ports it owns and parks only the packets on the
    /// links it receives. What it still duplicates — FEL reservation,
    /// metric collectors, per-flow tables — has to fit in one more serial
    /// run's worth of memory.
    #[test]
    fn sharded_replicas_stay_near_serial() {
        let serial = growth_kib("leafspine_serial_probe");
        let sharded = growth_kib("leafspine_sharded_probe");
        assert!(
            sharded <= 2 * serial,
            "the sharded engine grew peak RSS by {sharded} KiB, the serial engine by {serial}"
        );
    }
}
