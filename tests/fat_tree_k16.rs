//! k=16 fat-tree smoke coverage (PR 8).
//!
//! The k=8 fabric is exercised by the failure-injection flap; this
//! suite scales the same machinery to the 1024-host, 320-switch k=16
//! pod fabric and checks the things that tend to break first at scale:
//! every flow completes, the conservation audit closes its books, and
//! reruns reproduce a pinned digest. A hybrid-fidelity leg
//! rides along so the fluid tier's multi-hop fat-tree routing (edge →
//! agg → core → agg → edge) gets coverage on the deepest path shape.

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

/// The k=16 run reproduces its pinned digest, on a rerun too.
#[test]
fn k16_digests_are_stable_across_reruns_and_backends() {
    const PINNED: &str = "168905|0.006145906813|61770810.437453903258|0|4796|84";
    let base = k16_run(Scheme::tlb_default(), FidelityKind::Packet, 16);
    assert_eq!(base.digest(), PINNED, "k=16 run moved off its pin");
    let rerun = k16_run(Scheme::tlb_default(), FidelityKind::Packet, 16);
    assert_eq!(rerun.digest(), PINNED, "k=16 rerun diverged");
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
/// it reads `VmHWM`). The k=16 fabric reserves one packet arena for the
/// sum of its 6,144 links' in-flight bounds and a full queue plus the
/// packet in service at each of its ports (5,120 switch ports × 257,
/// 1,024 NICs × 2,049: ≈ 3.4 M slots, 218 MB of address space); a run may
/// page in only as many 64-byte slots as packets were ever queued or on
/// the wire at once, and an FEL pool as deep as the wheel ever got. Ports
/// and links own no packet storage, so an idle one costs nothing.
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
    const DIGEST_TAG: &str = "digest:";

    /// Build and run one job with the audit off (its ledger is test
    /// bookkeeping; the gates are about the production path) and print how
    /// far that pushed this process's peak RSS. A high-water mark is the
    /// job's only when nothing else runs in the process, so the gates
    /// below spawn each probe alone in a child.
    fn probe_run(name: &str, mut cfg: SimConfig, flows: impl FnOnce(&Fabric) -> Vec<FlowSpec>) {
        let before = vm_hwm_kib();
        cfg.audit = false;
        let flows = flows(&cfg.topo);
        let r = Simulation::new(cfg, flows).run();
        assert_eq!(r.completed, r.total_flows, "{name} stranded flows");
        println!("{name} {PROBE_TAG} {}", vm_hwm_kib() - before);
        println!("{name} {DIGEST_TAG} {}", r.digest());
    }

    /// [`probe_run`] on one web-search job under `cfg`'s scheme.
    fn probe_job(name: &str, cfg: SimConfig, load: f64, arrivals_ms: u64, seed: u64) {
        probe_run(name, cfg, |topo| {
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
            wl.generate(topo, &mut SimRng::new(seed))
        });
    }

    /// Run `resident_memory::<probe>` in a process of its own and read the
    /// growth and the run digest it printed.
    fn run_probe(probe: &str) -> (u64, String) {
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
        let field = |tag: &str| {
            text.lines()
                .find_map(|l| l.split_once(tag))
                .unwrap_or_else(|| panic!("no {tag} line in {text}"))
                .1
                .trim()
                .to_string()
        };
        let growth = field(PROBE_TAG).parse().expect("a KiB count");
        (growth, field(DIGEST_TAG))
    }

    /// [`run_probe`]'s growth alone.
    fn growth_kib(probe: &str) -> u64 {
        run_probe(probe).0
    }

    /// The k=16 job: load 0.5, 5 ms of arrivals — 294 flows, 5.2 M events,
    /// every tier's ports cycling.
    #[test]
    #[ignore = "run by k16_resident_memory_stays_under_its_ceiling, in a process of its own"]
    fn probe() {
        probe_job("k16", k16_cfg(Scheme::tlb_default()), 0.5, 5, 16);
    }

    /// 1.25 × the 2,228 KiB this job grows by (the highest of five
    /// readings, 1,996–2,228) now that a packet takes one arena slot from
    /// its host's NIC to the receiving host. With a ring per port it grew
    /// by 32,712 KiB (at least one touched page per ring, 6,144 of them);
    /// with a sender and a receiver slot for every flow of the job as
    /// well, by 33,116 KiB; with a per-packet log of long-flow data, by
    /// 36,884 KiB; with a ring per link too, by 46,356 KiB; before rings
    /// re-based on drain, by 104,256 KiB.
    const CEILING_KIB: u64 = 2_785;

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
    #[ignore = "run by sharded_replicas_stay_near_serial and growth_does_not_follow_queue_capacity, \
                in a process of its own"]
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

    /// 1.25 × the 2,536 KiB the serial leaf-spine job grows by (the
    /// highest of five readings, 2,312–2,536; 9,023 KiB while every port
    /// kept a ring of its own; 9,996 KiB while every flow also kept its
    /// endpoint slots to the end of the run).
    const LEAFSPINE_SERIAL_CEILING_KIB: u64 = 3_170;
    /// 1.25 × the 884 KiB two workers' two replicas added to that when
    /// this ceiling was cut (the highest of ten readings, 512–884 on a
    /// 2-core host), and below every reading, 2,212–2,644 KiB, taken while
    /// two workers drove eight replicas, one per leaf; 3,232–3,800 KiB
    /// while each replica also kept FCT records and a chain table of its
    /// own. It read 13,760 KiB while every replica built a sender and a
    /// receiver slot for each of the job's 3,125 flows (≈ 11 MB of it).
    const REPLICA_OVERHEAD_CEILING_KIB: u64 = 1_105;

    /// Two shard replicas, one per worker, may not cost two fabrics: a
    /// replica reserves queue slots only for the ports it owns, parks only
    /// the packets queued there and crossing the links it receives, holds
    /// endpoints only for the connections it hosts while they are open,
    /// borrows the job's chain table and keeps no FCT record (the report
    /// builds those once, from the merged rows). What it still duplicates
    /// is the overhead gated here, `sharded − serial`: one 24-byte flow row
    /// per flow of the job (≈ 73 KiB × 2), then the FEL and
    /// metric-collector reservations each replica sizes for the whole job.
    /// The replica count follows the worker count, not the fabric's eight
    /// leaves.
    ///
    /// Both ceilings are absolute. This gate used to read `sharded ≤ 2 ×
    /// serial` and passed at 1.61 × only because numerator and denominator
    /// both carried the same 17 MiB log of long-flow queue lengths that
    /// nothing read; without it the honest ratio is ≈ 2.4 ×, and a ratio
    /// of two growths says nothing about either.
    #[test]
    fn sharded_replicas_stay_near_serial() {
        let serial = growth_kib("leafspine_serial_probe");
        let sharded = growth_kib("leafspine_sharded_probe");
        let overhead = sharded.saturating_sub(serial);
        assert!(
            serial <= LEAFSPINE_SERIAL_CEILING_KIB && overhead <= REPLICA_OVERHEAD_CEILING_KIB,
            "peak RSS grew by {serial} KiB on the serial engine (ceiling \
             {LEAFSPINE_SERIAL_CEILING_KIB}) and by {sharded} KiB on the sharded one: {:.2} × \
             serial, replica overhead {overhead} KiB (ceiling {REPLICA_OVERHEAD_CEILING_KIB})",
            sharded as f64 / serial as f64
        );
    }

    #[test]
    #[ignore = "run by growth_does_not_follow_queue_capacity, in a process of its own"]
    fn queue_8x_probe() {
        let mut cfg = SimConfig::large_scale(Scheme::tlb_default(), 32);
        cfg.engine = EngineKind::Serial;
        cfg.queue.capacity_pkts *= 8;
        cfg.host_queue.capacity_pkts *= 8;
        probe_job("leaf-spine, 8x queues", cfg, 0.7, 150, 1);
    }

    /// Memory follows the packets a fabric holds, not the queue room it
    /// was configured with: the serial leaf-spine job with every switch
    /// and NIC queue eight times deeper (2,048 and 16,384 packets) never
    /// fills the extra room — the digest is the same — and may move peak
    /// RSS only by noise. Queue room is address space, not pages; with a
    /// ring per port the 8× job grew by 22,020 KiB against 9,092.
    #[test]
    fn growth_does_not_follow_queue_capacity() {
        let (small, d1) = run_probe("leafspine_serial_probe");
        let (large, d8) = run_probe("queue_8x_probe");
        assert_eq!(d1, d8, "eight times the queue room changed the run");
        assert!(
            large.abs_diff(small) <= 512,
            "8× queues grew peak RSS by {large} KiB, 1× by {small}"
        );
    }

    /// The span probes' job: web-search at load 0.5 on the paper's basic
    /// fabric, `arrivals_ms` of arrivals. Generated before a probe reads
    /// its baseline, so the growth is the simulator's.
    fn span_job(arrivals_ms: u64) -> (SimConfig, Vec<FlowSpec>) {
        let cfg = SimConfig::basic_paper(Scheme::tlb_default());
        let dist = web_search();
        let wl = PoissonWorkload {
            load: 0.5,
            dist: &dist,
            duration: SimTime::from_millis(arrivals_ms),
            deadline_lo: SimTime::from_millis(5),
            deadline_hi: SimTime::from_millis(25),
            short_threshold: 100_000,
            inter_leaf_only: true,
        };
        let flows = wl.generate(&cfg.topo, &mut SimRng::new(26));
        (cfg, flows)
    }

    #[test]
    #[ignore = "run by growth_does_not_follow_flows_total, in a process of its own"]
    fn span_1x_probe() {
        let (cfg, flows) = span_job(SPAN_MS);
        probe_run("span 1x", cfg, |_| flows);
    }

    #[test]
    #[ignore = "run by growth_does_not_follow_flows_total, in a process of its own"]
    fn span_10x_probe() {
        let (cfg, flows) = span_job(10 * SPAN_MS);
        probe_run("span 10x", cfg, |_| flows);
    }

    /// Arrival span of the 1× probe: 366 flows, and 3,658 at 10× (≈ 4 s
    /// in release).
    const SPAN_MS: u64 = 130;
    /// 1.25 × the 957 B per flow measured when it was set (906–972 over
    /// six runs), less the 24 B per flow that left with the not-yet-started
    /// flows' FEL entries: each was a 40-byte entry in the FEL's overflow
    /// tier and is now a 16-byte entry of the build-time schedule. A 2-core
    /// host reads 297–346 B per flow with the FEL entries and 300–334
    /// without, in release and debug alike; in release, 324–365 with a
    /// flow's start and end in its 24-byte row and 319–363 while a
    /// recorder kept them beside 16-byte rows for the whole run. With a
    /// sender and a receiver slot for every flow of the job — 424 B per
    /// flow of slots alone — it read 1,362–1,404.
    const FLOW_SLOPE_CEILING_B: f64 = 1_172.0;

    /// Memory follows flows outstanding, not flows total: ten times the
    /// arrival span at the same load — the same concurrency, ten times the
    /// flows — may add only what a flow leaves for the report (its 24-byte
    /// row, which holds its start and end; its FCT record, built from the
    /// row once the run ends; its short-flow queue samples) and what a
    /// ten times longer run pushes its high-water marks to (queue depths,
    /// the FEL sample log).
    #[test]
    fn growth_does_not_follow_flows_total() {
        let flows = |ms| span_job(ms).1.len();
        let (few, many) = (flows(SPAN_MS), flows(10 * SPAN_MS));
        let (small, large) = (growth_kib("span_1x_probe"), growth_kib("span_10x_probe"));
        let slope = (large as f64 - small as f64) * 1024.0 / (many - few) as f64;
        println!(
            "peak RSS grew by {small} KiB over {few} flows and {large} KiB over {many}: \
             {slope:.1} B per flow"
        );
        assert!(
            slope <= FLOW_SLOPE_CEILING_B,
            "{slope:.1} B per flow, ceiling {FLOW_SLOPE_CEILING_B}: peak RSS grew by {small} KiB \
             over {few} flows and {large} KiB over {many}"
        );
    }

    /// Eight cross-rack flows of `mb` MB each under ECMP on the paper's
    /// basic fabric: the same fabric, flow count and paths at every size.
    fn carried_probe(mb: u64) {
        let cfg = SimConfig::basic_paper(Scheme::Ecmp);
        probe_run(&format!("8 x {mb} MB"), cfg, |topo| {
            let per_leaf = topo.hosts_per_leaf() as u32;
            (0..8)
                .map(|i| FlowSpec {
                    id: FlowId(i),
                    src: HostId(i),
                    dst: HostId(per_leaf + i),
                    size_bytes: mb * 1_000_000,
                    start: SimTime::ZERO,
                    deadline: None,
                })
                .collect()
        });
    }

    #[test]
    #[ignore = "run by growth_does_not_follow_bytes_carried, in a process of its own"]
    fn carried_10mb_probe() {
        carried_probe(10);
    }

    #[test]
    #[ignore = "run by growth_does_not_follow_bytes_carried, in a process of its own"]
    fn carried_50mb_probe() {
        carried_probe(50);
    }

    /// What a run records is bounded by flows, fabric and horizon ÷ bucket,
    /// never by bytes carried: five times the bytes over the same flows
    /// may move peak RSS only by noise (a deeper FEL sample log at 8 B per
    /// 4,096 events, a few more touched arena slots). One `f64` logged per
    /// long-flow packet — what `long_qlen` was — is 1.75 MB here.
    #[test]
    fn growth_does_not_follow_bytes_carried() {
        let small = growth_kib("carried_10mb_probe");
        let large = growth_kib("carried_50mb_probe");
        assert!(
            large <= small + 512,
            "8 flows of 50 MB grew peak RSS by {large} KiB, of 10 MB by {small}"
        );
    }
}
