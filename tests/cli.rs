//! `tlb-sim` end to end: the command line cannot lie (a value it cannot
//! parse or that is out of range, an option it does not know, or
//! `--workers` without the sharded engine exits 2 naming the culprit), the engine and fidelity options
//! select what they say (and stderr says which engine ran, or why the
//! sharded one did not), and the run is a pure function of the command
//! line — no `TLB_*` mode variable in the environment changes it.

use std::process::{Command, Output};

/// A small fixed job: quick in debug builds, big enough to shard and to
/// migrate long flows under hybrid fidelity.
const JOB: &[&str] = &[
    "--scheme",
    "tlb",
    "--workload",
    "mix",
    "--shorts",
    "30",
    "--longs",
    "2",
    "--leaves",
    "4",
    "--spines",
    "4",
    "--hosts-per-leaf",
    "4",
    "--json",
];

/// Flows in `JOB`: its shorts plus its longs.
const JOB_FLOWS: u64 = 30 + 2;

fn tlb_sim(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tlb-sim"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("tlb-sim spawns")
}

/// The `--json` summary of `JOB` plus `extra`, without its `wall_ms` line
/// (the only field that is not a function of the job).
fn summary(extra: &[&str], env: &[(&str, &str)]) -> String {
    let out = tlb_sim(&[JOB, extra].concat(), env);
    assert!(
        out.status.success(),
        "tlb-sim {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 summary");
    assert!(text.contains("\"wall_ms\""), "summary carries wall_ms");
    text.lines()
        .filter(|l| !l.contains("\"wall_ms\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The stderr lines of `JOB` plus `extra` that start with `prefix`.
fn stderr_lines(extra: &[&str], prefix: &str) -> Vec<String> {
    let out = tlb_sim(&[JOB, extra].concat(), &[]);
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
    err.lines()
        .filter(|l| l.starts_with(prefix))
        .map(str::to_string)
        .collect()
}

fn field(summary: &str, name: &str) -> String {
    summary
        .lines()
        .find(|l| l.contains(&format!("\"{name}\"")))
        .unwrap_or_else(|| panic!("no {name} in {summary}"))
        .to_string()
}

#[test]
fn bad_command_lines_exit_2_naming_the_culprit() {
    let cases: &[(&[&str], &[&str])] = &[
        (&["--load", "abc"], &["--load", "abc"]),
        (&["--fidelty", "hybrid"], &["--fidelty"]),
        (&["--workers", "2"], &["--workers", "2", "--engine sharded"]),
        (
            &["--engine", "serial", "--workers", "2"],
            &["--workers", "2", "--engine sharded"],
        ),
        (&["--fidelity", "fluid"], &["--fidelity", "fluid"]),
        (&["--seed"], &["--seed"]),
        // Values that parse but that no fabric, workload or clock can take.
        (&["--leaves", "0"], &["--leaves", "'0'"]),
        (&["--leaves", "1"], &["--leaves", "'1'"]),
        (&["--spines", "0"], &["--spines", "'0'"]),
        (&["--spines", "65"], &["--spines", "'65'"]),
        (&["--hosts-per-leaf", "0"], &["--hosts-per-leaf", "'0'"]),
        (&["--fat-tree", "3"], &["--fat-tree", "'3'", "even"]),
        (&["--fat-tree", "130"], &["--fat-tree", "'130'"]),
        (&["--gbps", "0"], &["--gbps", "'0'"]),
        (&["--gbps", "1e-12"], &["zero rate"]),
        (&["--load", "0"], &["--load", "'0'"]),
        (&["--load", "nan"], &["--load", "nan"]),
        (&["--load", "2"], &["--load", "'2'"]),
        (&["--degrade", "9:0:0.5:10"], &["--degrade", "9:0:0.5:10"]),
        (&["--degrade", "0:0:2:10"], &["--degrade", "'2'", "(0, 1]"]),
        (&["--fail", "99:0:100"], &["--fail", "99:0:100"]),
        (&["--repair", "0:8:100"], &["--repair", "0:8:100"]),
        (
            &["--fail", "0:0:18446744073709551615"],
            &["--fail", "18446744073709551615"],
        ),
        (
            &["--duration-ms", "18446744073709551615"],
            &["--duration-ms", "18446744073709551615"],
        ),
    ];
    for &(args, named) in cases {
        let out = tlb_sim(args, &[]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran a simulation");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        for word in named {
            assert!(err.contains(word), "{args:?}: {err:?} lacks {word:?}");
        }
    }
}

#[test]
fn sharded_engine_prints_the_serial_summary() {
    let serial = summary(&[], &[]);
    let sharded = summary(&["--engine", "sharded", "--workers", "2"], &[]);
    assert_eq!(serial, sharded);
}

#[test]
fn the_engine_line_says_which_engine_ran_and_why() {
    let engine_line = |extra: &[&str]| {
        let lines = stderr_lines(extra, "engine: ");
        assert_eq!(lines.len(), 1, "one engine line in {lines:?}");
        // Which engine ran, then what its FEL held — sampled depth and the
        // node pool's high-water mark (the job pushes into the wheel, so
        // the pool cannot have stayed empty) — then how full the wire got
        // (every packet crosses a link, so never zero either), then how
        // many connection endpoints were ever open at once (at least one,
        // at most a sender and a receiver per flow). All four are
        // per-replica telemetry, summed or maxed over the shards, so the
        // sharded figures are not the serial ones.
        let (engine, fel) = lines[0]
            .split_once("; fel depth p50 ")
            .unwrap_or_else(|| panic!("no FEL half in {lines:?}"));
        let nums: Vec<u64> = fel
            .split(|c: char| !c.is_ascii_digit())
            .filter(|w| !w.is_empty())
            .map(|w| w.parse().expect("digits"))
            .collect();
        let [p50, max, pool, wire, conns] = nums[..] else {
            panic!(
                "want 'N max M, pool peak K nodes; wire peak W pkts; conns peak C', got {fel:?}"
            );
        };
        assert!(fel.contains(" nodes; wire peak ") && fel.contains(" pkts; conns peak "));
        assert!(p50 <= max && pool > 0 && wire > 0, "{fel:?}");
        assert!(conns > 0 && conns <= 2 * JOB_FLOWS, "{fel:?}");
        engine.to_string()
    };
    assert_eq!(engine_line(&[]), "engine: serial");
    // "sharded, 2 workers, 2 shards, W windows (S split), H handoffs": one
    // replica per worker; every event runs inside a window, at most every
    // window is split, and a cross-rack job hands packets between shards.
    let sharded = engine_line(&["--engine", "sharded", "--workers", "2"]);
    let counts: Vec<u64> = (sharded.strip_prefix("engine: sharded, 2 workers, "))
        .unwrap_or_else(|| panic!("{sharded:?}"))
        .split(|c: char| !c.is_ascii_digit())
        .filter(|w| !w.is_empty())
        .map(|w| w.parse().expect("digits"))
        .collect();
    let [shards, windows, split, handoffs] = counts[..] else {
        panic!("want 'N shards, W windows (S split), H handoffs', got {sharded:?}");
    };
    assert!(
        sharded.contains(" shards, ")
            && sharded.ends_with(&format!(" split), {handoffs} handoffs")),
        "{sharded:?}"
    );
    assert_eq!(shards, 2, "{sharded:?}");
    assert!(
        windows > 0 && split <= windows && handoffs > 0,
        "{sharded:?}"
    );
    let refused = engine_line(&["--engine", "sharded", "--fidelity", "hybrid"]);
    assert_eq!(
        refused,
        "engine: serial, sharded engine refused: hybrid fidelity (fluid flows span shards)"
    );
}

#[test]
fn hybrid_fidelity_changes_the_event_count() {
    let packet = summary(&["--fidelity", "packet"], &[]);
    assert_eq!(packet, summary(&[], &[]), "packet is the default");
    let hybrid = summary(&["--fidelity", "hybrid"], &[]);
    assert_ne!(field(&packet, "events"), field(&hybrid, "events"));
    assert_eq!(field(&packet, "completed"), field(&hybrid, "completed"));
}

#[test]
fn the_fluid_line_reports_three_counts_under_hybrid_only() {
    assert!(
        stderr_lines(&[], "fluid: ").is_empty(),
        "packet runs have no fluid tier"
    );
    let lines = stderr_lines(&["--fidelity", "hybrid"], "fluid: ");
    assert_eq!(lines.len(), 1, "one fluid line in {lines:?}");
    // "fluid: M migrations, D demotions, R rate changes"
    let counts: Vec<u64> = lines[0]
        .split(|c: char| !c.is_ascii_digit())
        .filter(|w| !w.is_empty())
        .map(|w| w.parse().expect("a count"))
        .collect();
    let [m, _d, r] = counts[..] else {
        panic!("three counts in {:?}", lines[0]);
    };
    assert!(
        lines[0].ends_with(" rate changes") && lines[0].contains(" demotions, "),
        "{:?}",
        lines[0]
    );
    assert!(
        m > 0 && r >= m,
        "the job migrates long flows: {:?}",
        lines[0]
    );
}

#[test]
fn mode_variables_in_the_environment_change_nothing() {
    // The retired selectors, prefix added here so that a grep for the full
    // names over the tree finds no reader.
    let retired = [
        ("FEL", "heap"),
        ("LB_DISPATCH", "dyn"),
        ("DELIVERY", "per-packet"),
        ("FIDELITY", "hybrid"),
        ("ENGINE", "sharded"),
        ("ALLOC_AUDIT", "1"),
    ]
    .map(|(name, value)| (format!("TLB_{name}"), value));
    let env: Vec<(&str, &str)> = retired.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    assert_eq!(summary(&[], &[]), summary(&[], &env));
}
