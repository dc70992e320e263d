//! `tlb-sim` — run one data-center load-balancing simulation from the
//! command line.
//!
//! ```sh
//! tlb-sim --scheme tlb --workload websearch --load 0.6
//! tlb-sim --scheme letflow --workload mix --shorts 100 --longs 3
//! tlb-sim --scheme rps --degrade 0:3:0.25:200 --json
//! tlb-sim --fat-tree 8 --engine sharded --workers 4 --fidelity packet
//! tlb-sim --help
//! ```

use tlb::engine::EngineKind;
use tlb::prelude::*;

const HELP: &str = "\
tlb-sim — packet-level DCN load-balancing simulator (TLB reproduction)

USAGE:
    tlb-sim [OPTIONS]

OPTIONS:
    --scheme <s>          ecmp | rps | presto | letflow | drill | conga |
                          flowbender | hermes | wcmp | diffflow | tlb          [tlb]
    --workload <w>        websearch | datamining | mix                    [websearch]
    --load <f>            offered load fraction for Poisson workloads, in
                          (0, 1.5]                                              [0.6]
    --shorts <n>          short flows for the 'mix' workload                    [100]
    --longs <n>           long flows for the 'mix' workload                       [3]
    --leaves <n>          leaf switches, at least 2                               [8]
    --spines <n>          spine switches (= equal-cost paths), 1 to 64            [8]
    --hosts-per-leaf <n>  hosts per rack, at least 1                             [16]
    --fat-tree <k>        use a k-ary fat tree instead of leaf-spine (k even,
                          2 to 128, k^3/4 hosts); overrides the three knobs above
    --gbps <f>            link rate in Gbit/s                                   [1.0]
    --duration-ms <n>     Poisson traffic window                                 [50]
    --seed <n>            RNG seed (runs are deterministic per seed)              [1]
    --fidelity <f>        packet | hybrid — hybrid moves long-flow tails onto a
                          fluid fair-share model (banded, not bit-identical) [packet]
    --engine <e>          serial | sharded — sharded falls back to serial when
                          the config is unpartitionable, with bit-identical
                          results; stderr says which ran, or why not         [serial]
    --workers <n>         worker threads; needs --engine sharded       [all cores]
    --degrade l:s:bw:us   degrade uplink leaf l -> spine s to bw x bandwidth
                          with +us microseconds delay (repeatable)
    --fail sw:up:at_us    take LB switch sw's uplink up down at_us microseconds
                          into the run (repeatable)
    --repair sw:up:at_us  bring the same uplink back up at_us microseconds in
                          (repeatable)
    --json                machine-readable output
    --help                this text
";

/// Options that take a value.
const VALUE_OPTS: &[&str] = &[
    "--scheme",
    "--workload",
    "--load",
    "--shorts",
    "--longs",
    "--leaves",
    "--spines",
    "--hosts-per-leaf",
    "--fat-tree",
    "--gbps",
    "--duration-ms",
    "--seed",
    "--fidelity",
    "--engine",
    "--workers",
    "--degrade",
    "--fail",
    "--repair",
];
/// Options that stand alone.
const FLAGS: &[&str] = &["--json", "--help", "-h"];

/// Reject the command line: say why on stderr and exit 2.
fn usage_error(msg: String) -> ! {
    eprintln!("tlb-sim: {msg} (see --help)");
    std::process::exit(2);
}

/// The usage error for a job the simulator refuses.
fn refuse<T>(why: tlb::simnet::ConfigError) -> T {
    usage_error(format!("cannot run this configuration: {why}"))
}

/// `value` parsed as a `T` that is `ok`, or a usage error naming `flag`,
/// the value and what was wanted.
fn parse_where<T: std::str::FromStr>(
    flag: &str,
    value: &str,
    want: &str,
    ok: impl FnOnce(&T) -> bool,
) -> T {
    match value.parse() {
        Ok(v) if ok(&v) => v,
        _ => usage_error(format!("bad {flag} '{value}', expected {want}")),
    }
}

/// [`parse_where`] any `T` will do.
fn parse_value<T: std::str::FromStr>(flag: &str, value: &str, want: &str) -> T {
    parse_where(flag, value, want, |_| true)
}

/// Longest time an option may name, in microseconds (about 11 days): far
/// past any horizon, far below where nanosecond clock arithmetic overflows.
const MAX_US: u64 = 1_000_000_000_000;

/// `value` as a time in microseconds.
fn parse_micros(flag: &str, value: &str) -> SimTime {
    SimTime::from_micros(parse_where(
        flag,
        value,
        "microseconds, at most 10^12",
        |&us| us <= MAX_US,
    ))
}

/// The `N` colon-separated fields of a `--degrade`/`--fail`/`--repair`
/// value of the given `shape`.
fn fields<'a, const N: usize>(flag: &str, spec: &'a str, shape: &str) -> [&'a str; N] {
    let parts: Vec<&str> = spec.split(':').collect();
    parts
        .try_into()
        .unwrap_or_else(|_| usage_error(format!("bad {flag} '{spec}', expected {shape}")))
}

/// The command line as `(option, value)` pairs and bare flags, every name
/// checked against [`VALUE_OPTS`] / [`FLAGS`].
struct Args {
    opts: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn from_argv(mut argv: impl Iterator<Item = String>) -> Args {
        let mut args = Args {
            opts: Vec::new(),
            flags: Vec::new(),
        };
        while let Some(name) = argv.next() {
            if FLAGS.contains(&name.as_str()) {
                args.flags.push(name);
            } else if VALUE_OPTS.contains(&name.as_str()) {
                match argv.next() {
                    Some(value) => args.opts.push((name, value)),
                    None => usage_error(format!("{name} needs a value")),
                }
            } else {
                usage_error(format!("unknown option '{name}'"));
            }
        }
        args
    }

    fn values_of<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.opts
            .iter()
            .filter(move |(name, _)| name == key)
            .map(|(_, value)| value.as_str())
    }

    fn value_of<'a>(&'a self, key: &'a str) -> Option<&'a str> {
        self.values_of(key).next()
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|a| a == key)
    }

    /// `key`'s value as a `T` that is `ok`; `default` only when the option
    /// is absent.
    fn parse_where<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        want: &str,
        ok: impl FnOnce(&T) -> bool,
    ) -> T {
        match self.value_of(key) {
            Some(v) => parse_where(key, v, want, ok),
            None => default,
        }
    }

    /// [`Args::parse_where`] any `T` will do.
    fn parse<T: std::str::FromStr>(&self, key: &str, default: T, want: &str) -> T {
        self.parse_where(key, default, want, |_| true)
    }
}

fn scheme_from(name: &str) -> Scheme {
    match name {
        "ecmp" => Scheme::Ecmp,
        "rps" => Scheme::Rps,
        "presto" => Scheme::presto_default(),
        "letflow" => Scheme::letflow_default(),
        "drill" => Scheme::Drill { d: 2, m: 1 },
        "flowbender" => Scheme::flowbender_default(),
        "hermes" => Scheme::hermes_default(),
        "wcmp" => Scheme::Wcmp,
        "conga" => Scheme::CongaLite {
            timeout: SimTime::from_micros(500),
        },
        "diffflow" => Scheme::diffflow_default(),
        "tlb" => Scheme::tlb_default(),
        other => usage_error(format!(
            "bad --scheme '{other}', expected one of the listed"
        )),
    }
}

fn main() {
    let args = Args::from_argv(std::env::args().skip(1));
    if args.flag("--help") || args.flag("-h") {
        print!("{HELP}");
        return;
    }

    const COUNT: &str = "a non-negative integer";
    let scheme = scheme_from(args.value_of("--scheme").unwrap_or("tlb"));
    let scheme_name = scheme.name();
    // Every workload sends between racks, and a balancer's uplink set is
    // one 64-bit mask.
    let leaves: usize =
        args.parse_where("--leaves", 8, "an integer, at least 2", |&n: &usize| n >= 2);
    let spines: usize = args.parse_where("--spines", 8, "an integer from 1 to 64", |n| {
        (1..=64).contains(n)
    });
    let hosts_per_leaf: usize =
        args.parse_where("--hosts-per-leaf", 16, "a positive integer", |&n| n >= 1);
    let gbps: f64 = args.parse_where("--gbps", 1.0, "a positive number", |g: &f64| {
        g.is_finite() && *g > 0.0
    });
    let seed: u64 = args.parse("--seed", 1, COUNT);
    // Parsed whatever the workload, so a bad value never passes unseen.
    let load: f64 = args.parse_where("--load", 0.6, "a number in (0, 1.5]", |l| {
        *l > 0.0 && *l <= 1.5
    });
    let duration_ms: u64 =
        args.parse_where("--duration-ms", 50, "milliseconds, at most 10^9", |&ms| {
            ms <= MAX_US / 1000
        });
    let n_short: usize = args.parse("--shorts", 100, COUNT);
    let n_long: usize = args.parse("--longs", 3, COUNT);

    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.topo = if let Some(k) = args.value_of("--fat-tree") {
        let even = "an even integer from 2 to 128";
        FatTreeBuilder::new(parse_where("--fat-tree", k, even, |&k: &usize| {
            (2..=128).contains(&k) && k % 2 == 0
        }))
        .link_gbps(gbps)
        .target_rtt(SimTime::from_micros(100))
        .build()
    } else {
        LeafSpineBuilder::new(leaves, spines, hosts_per_leaf)
            .link_gbps(gbps)
            .target_rtt(SimTime::from_micros(100))
            .build()
    };
    cfg.seed = seed;

    cfg.fidelity = match args.value_of("--fidelity").unwrap_or("packet") {
        "packet" => FidelityKind::Packet,
        "hybrid" => FidelityKind::Hybrid,
        other => usage_error(format!(
            "bad --fidelity '{other}', expected packet or hybrid"
        )),
    };

    let workers = args
        .value_of("--workers")
        .map(|w| parse_value::<std::num::NonZeroU32>("--workers", w, "a positive integer").get());
    cfg.engine = match args.value_of("--engine").unwrap_or("serial") {
        "serial" => EngineKind::Serial,
        "sharded" => EngineKind::Sharded { workers },
        other => usage_error(format!(
            "bad --engine '{other}', expected serial or sharded"
        )),
    };
    if let (Some(w), EngineKind::Serial) = (workers, cfg.engine) {
        usage_error(format!("--workers {w} needs --engine sharded"));
    }

    // `(sw, up)` of a `--degrade`/`--fail`/`--repair` value, on the fabric.
    let (n_lb, n_up) = (cfg.topo.n_lb_switches(), cfg.topo.n_spines());
    let uplink = |key: &str, spec: &str, sw: &str, up: &str| -> (LeafId, SpineId) {
        let sw: u32 = parse_value(key, sw, "an LB switch index");
        let up: u32 = parse_value(key, up, "an uplink index");
        if sw as usize >= n_lb || up as usize >= n_up {
            usage_error(format!(
                "bad {key} '{spec}', the fabric has {n_lb} LB switches of {n_up} uplinks"
            ));
        }
        (LeafId(sw), SpineId(up))
    };

    for spec in args.values_of("--degrade") {
        let key = "--degrade";
        let [l, s, bw, us] = fields(key, spec, "l:s:bw:us");
        let (l, s) = uplink(key, spec, l, s);
        cfg.topo.degrade_link(
            l,
            s,
            parse_where(key, bw, "a bandwidth factor in (0, 1]", |f: &f64| {
                *f > 0.0 && *f <= 1.0
            }),
            parse_micros(key, us),
        );
    }

    for (key, action) in [
        ("--fail", FailureAction::Down),
        ("--repair", FailureAction::Up),
    ] {
        for spec in args.values_of(key) {
            let [sw, up, at] = fields(key, spec, "sw:up:at_us");
            let (sw, up) = uplink(key, spec, sw, up);
            cfg.failure_events.push(FailureEvent {
                at: parse_micros(key, at),
                target: FailureTarget::Link { sw, up },
                action,
            });
        }
    }
    cfg.failure_events.sort_by_key(|e| e.at);
    // The range checks above name the flag; whatever they miss still stops
    // here, before a workload is drawn over a fabric that cannot carry it.
    cfg.validate().unwrap_or_else(refuse);

    let workload = args.value_of("--workload").unwrap_or("websearch");
    let mut rng = SimRng::new(seed ^ 0xABCD);
    let flows = match workload {
        "mix" => {
            let mut mix = BasicMixConfig::paper_default();
            mix.n_short = n_short;
            mix.n_long = n_long;
            basic_mix(&cfg.topo, &mix, &mut rng)
        }
        w @ ("websearch" | "datamining") => {
            let dist = if w == "websearch" {
                web_search()
            } else {
                data_mining()
            };
            let wl = PoissonWorkload {
                load,
                dist: &dist,
                duration: SimTime::from_millis(duration_ms),
                deadline_lo: SimTime::from_millis(5),
                deadline_hi: SimTime::from_millis(25),
                short_threshold: 100_000,
                inter_leaf_only: true,
            };
            wl.generate(&cfg.topo, &mut rng)
        }
        other => usage_error(format!(
            "bad --workload '{other}', expected websearch, datamining or mix"
        )),
    };

    let n = flows.len();
    eprintln!("running {n} flows under {scheme_name} (seed {seed})...");
    let hybrid = cfg.fidelity == FidelityKind::Hybrid;
    let r = Simulation::try_new(cfg, flows).unwrap_or_else(refuse).run();
    // Which machinery produced the (identical) results goes to stderr: the
    // summary on stdout is compared across engines.
    let engine = match (r.engine_workers, r.engine_fallback) {
        (Some(workers), _) => format!(
            "sharded, {workers} workers, {} windows, {} tail events",
            r.sharded_windows, r.sharded_tail_events
        ),
        (None, Some(why)) => format!("serial, sharded engine refused: {why}"),
        (None, None) => "serial".to_string(),
    };
    // And what the FEL held: sampled depth against the node pool's
    // high-water mark, i.e. how much of it the wheel kept resident. Then
    // how full the wire got: the most packets crossing links at once. Then
    // the most connection endpoints ever open at once.
    eprintln!(
        "engine: {engine}; fel depth p50 {:.0} max {:.0}, pool peak {} nodes; wire peak {} pkts; \
         conns peak {}",
        r.fel_depth.quantile(0.5),
        r.fel_depth.max(),
        r.fel_nodes_peak,
        r.wire_pkts_peak,
        r.conns_peak
    );
    // What the fluid tier cost: timer events are FEL pushes, rate changes
    // only move entries of the seam's completion heap.
    if hybrid {
        eprintln!(
            "fluid: {} migrations, {} demotions, {} rate changes, {} timer events",
            r.fluid_migrations, r.fluid_demotions, r.fluid_rate_changes, r.fluid_timer_events
        );
    }

    if args.flag("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&r.to_summary()).expect("serializable summary")
        );
    } else {
        println!("{}", r.one_line());
        println!(
            "  events {}  drops {}  ECN marks {}  wall {:?}",
            r.events, r.drops, r.marks, r.wall
        );
    }
}
