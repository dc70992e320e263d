//! Command line of both binaries.

use crate::json;
use crate::suite;
use crate::workloads::{Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: tlb-benchmark <command> [options]

  run     [--seed N] [--reps R] [--repeat K]   every workload: warm-up, R reps (default 5,
                                               rep-major interleaved), traced pass; K > 1
                                               runs K sets and compares them
  trace   [--seed N]                           `run --reps 1`: one rep and the traced pass
  compare A.json B.json                        apply BENCHMARK.json's bounds to two result files
  bench   --workload W --seed N --seconds S --trace 0|1
                                               one workload, one JSON line (the driver's contract)

workloads: websearch_leafspine highbdp_bulk fattree_k16_websearch scheme_sweep
           websearch_hybrid websearch_sharded2";

/// Options after the command word: `--key value` pairs, bare flags and
/// positional arguments.
struct Args {
    rest: Vec<String>,
}

impl Args {
    /// The value following `--key`, parsed; `default` when absent.
    fn value<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match self.rest.iter().position(|a| a == key) {
            Some(i) => self
                .rest
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{key} needs a valid value")),
            None => default.ok_or_else(|| format!("{key} is required")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.rest.iter().any(|a| a == key)
    }

    fn workload(&self) -> Result<Workload, String> {
        let name: String = self.value("--workload", None)?;
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

fn dispatch(cmd: &str, args: &Args) -> Result<bool, String> {
    let seed = || args.value("--seed", Some(DEFAULT_SEED));
    match cmd {
        "run" => suite::run(
            seed()?,
            args.value("--reps", Some(5))?,
            args.value("--repeat", Some(1))?,
        ),
        "trace" => suite::run(seed()?, 1, 1),
        "compare" => match &args.rest[..] {
            [a, b] => suite::compare(&PathBuf::from(a), &PathBuf::from(b), false),
            _ => Err("compare takes two result files".into()),
        },
        "bench" => {
            let trace: u8 = args.value("--trace", None)?;
            suite::bench(
                args.workload()?,
                seed()?,
                args.value("--seconds", None)?,
                trace != 0,
            )
        }
        // The two child commands the parent spawns.
        "rep" => {
            let rep = crate::rep::run_rep(
                args.workload()?,
                seed()?,
                args.value("--scale", Some(1))?,
                args.flag("--serial-leg"),
            );
            println!("{}", json::compact(&rep.to_json()));
            Ok(true)
        }
        "traced" => {
            if !tlb_engine::alloc_audit::probe_counting() {
                return Err(
                    "the traced pass needs the counting allocator: run tlb-benchmark-traced".into(),
                );
            }
            let traced = crate::trace::run_traced(
                args.workload()?,
                seed()?,
                args.value("--scale", Some(1))?,
            );
            println!("{}", json::compact(&traced.to_json()));
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// Parse the command line, run the command, map the outcome to an exit
/// code: 0 all good, 1 a check or comparison failed, 2 could not run.
pub fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match dispatch(
        &cmd,
        &Args {
            rest: argv.collect(),
        },
    ) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tlb-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
