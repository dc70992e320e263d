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
/// it reads `VmHWM`). The k=16 fabric reserves ≈ 160 MB of port and pipe
/// rings (5,120 switch ports × 256 packets, 1,024 NICs × 2,048, every
/// link's in-flight bound); a run may page in only the slots a backlog
/// actually reached, plus an FEL pool as deep as the wheel ever got.
#[cfg(target_os = "linux")]
mod resident_memory {
    use super::*;
    use std::process::Command;

    fn vm_hwm_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB"))
            .expect("no VmHWM in /proc/self/status");
        kib.trim().parse().expect("VmHWM in kB")
    }

    const PROBE_TAG: &str = "k16 VmHWM growth KiB:";

    /// Prints how far building and running a k=16 web-search job (load
    /// 0.5, 5 ms of arrivals: 294 flows, 5.2 M events, every tier's rings
    /// cycling) pushed this process's peak RSS. A high-water mark is this
    /// job's only when nothing else runs in the process, so the gate below
    /// spawns this test alone in a child. The audit is off: its ledger is
    /// test bookkeeping, and the ceiling is about the production path.
    #[test]
    #[ignore = "run by k16_resident_memory_stays_under_its_ceiling, in a process of its own"]
    fn probe() {
        let before = vm_hwm_kib();
        let mut cfg = k16_cfg(Scheme::tlb_default());
        cfg.audit = false;
        let dist = web_search();
        let wl = PoissonWorkload {
            load: 0.5,
            dist: &dist,
            duration: SimTime::from_millis(5),
            deadline_lo: SimTime::from_millis(5),
            deadline_hi: SimTime::from_millis(25),
            short_threshold: 100_000,
            inter_leaf_only: true,
        };
        let flows = wl.generate(&cfg.topo, &mut SimRng::new(16));
        let r = Simulation::new(cfg, flows).run();
        assert_eq!(r.completed, r.total_flows, "k=16 web-search stranded flows");
        println!("{PROBE_TAG} {}", vm_hwm_kib() - before);
    }

    /// 1.25 × the 47,956 KiB this job grew by when the FEL pool and the
    /// ring re-base landed. The commit before them grew by 104,256 KiB:
    /// its ring heads marched through every port's and pipe's reserved
    /// capacity, one page after another.
    const CEILING_KIB: u64 = 59_945;

    #[test]
    fn k16_resident_memory_stays_under_its_ceiling() {
        let out = Command::new(std::env::current_exe().expect("test binary path"))
            .args([
                "--exact",
                "resident_memory::probe",
                "--ignored",
                "--nocapture",
            ])
            .output()
            .expect("probe spawns");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "probe failed: {text}");
        let grew: u64 = text
            .lines()
            .find_map(|l| l.split_once(PROBE_TAG))
            .unwrap_or_else(|| panic!("no probe line in {text}"))
            .1
            .trim()
            .parse()
            .expect("a KiB count");
        assert!(
            grew <= CEILING_KIB,
            "building and running the k=16 job grew peak RSS by {grew} KiB, ceiling {CEILING_KIB}"
        );
    }
}
