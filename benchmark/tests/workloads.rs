//! Every workload builder, at 1/50 of its measured size.

use tlb_benchmark::rep::Ready;
use tlb_benchmark::workloads::{digest_all, Workload, DEFAULT_SEED};
use tlb_engine::{EngineKind, FelKind};
use tlb_simnet::{DeliveryKind, FidelityKind, LbDispatch};

const SCALE: u32 = 50;

fn digest(w: Workload, seed: u64) -> (String, u64, u64) {
    let jobs = w.jobs(seed, SCALE);
    let flows = jobs.iter().map(|(_, f)| f.len() as u64).sum();
    let reports = Ready::of(jobs).run();
    let completed = reports.iter().map(|r| r.completed as u64).sum();
    (digest_all(&reports), flows, completed)
}

#[test]
fn every_workload_completes_all_flows_and_repeats() {
    for w in Workload::ALL {
        let (a, flows, completed) = digest(w, DEFAULT_SEED);
        assert!(flows > 0, "{} generated no flows", w.name());
        assert_eq!(completed, flows, "{} left flows unfinished", w.name());
        let (b, ..) = digest(w, DEFAULT_SEED);
        assert_eq!(a, b, "{}: same seed, different digest", w.name());
    }
}

#[test]
fn another_seed_is_another_flow_set() {
    for w in Workload::ALL {
        let sizes = |seed| -> Vec<(u32, u32, u64, u64)> {
            w.jobs(seed, SCALE)[0]
                .1
                .iter()
                .map(|f| (f.src.0, f.dst.0, f.size_bytes, f.start.as_nanos()))
                .collect()
        };
        assert_eq!(sizes(DEFAULT_SEED), sizes(DEFAULT_SEED), "{}", w.name());
        assert_ne!(
            sizes(DEFAULT_SEED),
            sizes(7),
            "{}: seed 7 changed nothing",
            w.name()
        );
    }
}

#[test]
fn every_mode_field_is_pinned() {
    for w in Workload::ALL {
        for cfg in w.configs(DEFAULT_SEED) {
            assert_eq!(cfg.fel, FelKind::Calendar);
            assert_eq!(cfg.lb_dispatch, LbDispatch::Enum);
            assert_eq!(cfg.delivery, DeliveryKind::Pipelined);
            assert!(!cfg.audit);
            assert_eq!(cfg.alloc_warmup_events, None);
            assert_eq!(cfg.seed, 1, "default seed lands on the presets' seed");
            let hybrid = w == Workload::WebsearchHybrid;
            assert_eq!(cfg.fidelity == FidelityKind::Hybrid, hybrid, "{}", w.name());
            let sharded = w == Workload::WebsearchSharded2;
            let want = EngineKind::Sharded { workers: Some(2) };
            assert_eq!(cfg.engine == want, sharded, "{}", w.name());
            assert_eq!(cfg.engine == EngineKind::Serial, !sharded, "{}", w.name());
        }
        assert_eq!(
            w.configs(8)[0].seed,
            8u64.wrapping_sub(DEFAULT_SEED).wrapping_add(1)
        );
    }
}

#[test]
fn sharded_reproduces_the_serial_digest_on_two_workers() {
    // 1/10 rather than 1/50: the sharded engine runs jobs that could end
    // inside one window entirely in its serialized tail.
    let run = |w: Workload| Ready::of(w.jobs(DEFAULT_SEED, 10)).run().remove(0);
    let serial = run(Workload::WebsearchLeafspine);
    let sharded = run(Workload::WebsearchSharded2);
    assert_eq!(sharded.engine_workers, Some(2));
    assert!(
        sharded.sharded_windows > 0,
        "never opened a parallel window"
    );
    assert_eq!(digest_all(&[sharded]), digest_all(&[serial]));
}
