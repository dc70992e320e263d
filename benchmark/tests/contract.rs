//! `BENCHMARK.json` and the build profile must say what the harness does.

use tlb_benchmark::json::{as_arr, as_f64, as_str, field, parse};
use tlb_benchmark::metrics::{END_TO_END, PER_LAYER};
use tlb_benchmark::workloads::Workload;

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The text of a manifest's `[profile.release]` table, comments and blank
/// lines dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_is_the_root_manifests() {
    let mine = release_profile(&read("Cargo.toml"));
    let root = release_profile(&read("../Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has a [profile.release]");
    assert_eq!(
        mine, root,
        "benchmark/Cargo.toml must measure the build users run"
    );
}

#[test]
fn benchmark_json_lists_the_harness_workloads() {
    let spec = parse(&read("../BENCHMARK.json")).unwrap();
    let listed: Vec<(String, String)> = as_arr(field(&spec, "workloads").unwrap())
        .unwrap()
        .iter()
        .map(|w| {
            let text = |k| as_str(field(w, k).unwrap()).unwrap().to_string();
            (text("name"), text("why"))
        })
        .collect();
    let mine: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(listed, mine);
    for (name, why) in &mine {
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is {} chars",
            why.len()
        );
    }
    assert_eq!(as_arr(field(&spec, "paths").unwrap()).unwrap().len(), 1);
}

#[test]
fn benchmark_json_lists_the_harness_metrics() {
    let spec = parse(&read("../BENCHMARK.json")).unwrap();
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String, String)> = as_arr(field(&spec, key).unwrap())
            .unwrap()
            .iter()
            .map(|m| {
                let text = |k| as_str(field(m, k).unwrap()).unwrap().to_string();
                (text("name"), text("unit"), text("better"))
            })
            .collect();
        let mine: Vec<(String, String, String)> = table
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(listed, mine, "{key}");
    }
    let bounds = tlb_benchmark::suite::bounds().unwrap();
    assert_eq!(bounds.len(), END_TO_END.len());
    let largest = bounds.values().map(|(b, _)| *b).fold(0.0, f64::max);
    assert!(largest <= 0.25);
    assert_eq!(
        bounds["setup_s"].0, largest,
        "set-up time gets the largest bound"
    );
    let seconds = as_f64(field(&spec, "run_seconds").unwrap()).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}
