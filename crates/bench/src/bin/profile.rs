//! Where a run's CPU time goes: a sampling profile of one simulator job,
//! booked to source lines and to symbols (Linux on x86_64).
//!
//! ```sh
//! cargo build --profile profiling -p tlb-bench --bin profile
//! target/profiling/profile --job leafspine --seconds 10 [--pcs FILE]
//! ```
//!
//! Jobs: `leafspine` (8×8 leaf-spine, 256 hosts, TLB, web-search at load
//! 0.7, 150 ms of arrivals), `highbdp` (2×4×8 leaf-spine at 10 Gbit/s with
//! 500 µs links, ECMP, 16 flows of 250 MB), `k16` (k=16 fat tree, TLB,
//! web-search at load 0.5, 20 ms) — the shapes of the benchmark's
//! `websearch_leafspine`, `highbdp_bulk` and `fattree_k16_websearch` — and
//! `quick` (the leaf-spine job over 10 ms, for a smoke run).
//!
//! A `SIGPROF` handler, installed through raw `sigaction` and armed by
//! `setitimer(ITIMER_PROF)` around each `Simulation::run`, stores the
//! interrupted instruction pointer (`RIP`, read from the signal's
//! `ucontext`). The job runs again and again until `--seconds` of wall
//! time have passed. Each PC, minus the executable's load base, goes to
//! `addr2line -i -f`, which resolves it to its chain of inlined frames; a
//! sample is booked to the first frame of the chain in this repository (a
//! store inside `ptr::write` belongs to the `push` that inlined it) and to
//! the chain's last function, the one that was not inlined. `--pcs` also
//! writes the load-base-relative PCs, one per line, for booking them
//! another way. The `profiling` build profile is `release` plus line
//! tables, so the code sampled is the code users run. A virtual machine's
//! timer tick may cap the sampling rate at a few hundred Hz: pool enough
//! seconds for the shares you read.

use std::collections::HashMap;
use std::io::Write;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use tlb_engine::{SimRng, SimTime};
use tlb_net::{FatTreeBuilder, FlowId, HostId, LeafSpineBuilder};
use tlb_simnet::{Scheme, SimConfig, Simulation};
use tlb_workload::{web_search, FlowSpec, PoissonWorkload};

const SEED: u64 = 20190805;

/// The job `name` names, or `None`.
fn job(name: &str) -> Option<(SimConfig, Vec<FlowSpec>)> {
    let websearch = |cfg: SimConfig, load: f64, ms: u64| {
        let dist = web_search();
        let flows = PoissonWorkload {
            load,
            dist: &dist,
            duration: SimTime::from_millis(ms),
            deadline_lo: SimTime::from_millis(5),
            deadline_hi: SimTime::from_millis(25),
            short_threshold: cfg.short_threshold,
            inter_leaf_only: true,
        }
        .generate(&cfg.topo, &mut SimRng::new(SEED));
        (cfg, flows)
    };
    let leafspine = || SimConfig::large_scale(Scheme::tlb_default(), 32);
    Some(match name {
        "leafspine" => websearch(leafspine(), 0.7, 150),
        "quick" => websearch(leafspine(), 0.7, 10),
        "k16" => {
            let mut cfg = leafspine();
            cfg.topo = FatTreeBuilder::new(16)
                .link_gbps(1.0)
                .target_rtt(SimTime::from_micros(100))
                .build();
            websearch(cfg, 0.5, 20)
        }
        "highbdp" => {
            let mut cfg = SimConfig::basic_paper(Scheme::Ecmp);
            cfg.topo = LeafSpineBuilder::new(2, 4, 8)
                .link_gbps(10.0)
                .prop_per_link(SimTime::from_micros(500))
                .build();
            cfg.horizon = SimTime::from_secs(20);
            let mut rng = SimRng::new(SEED);
            let flows = (0..16u64)
                .map(|i| FlowSpec {
                    id: FlowId(i as u32),
                    src: HostId((i % 8) as u32),
                    dst: HostId((8 + rng.gen_range(8)) as u32),
                    size_bytes: 250_000_000,
                    start: SimTime::from_nanos(10_000 * i + rng.gen_range(10_000)),
                    deadline: None,
                })
                .collect();
            (cfg, flows)
        }
        _ => return None,
    })
}

/// The raw `SIGPROF` sampler: libc's `sigaction` and `setitimer` through
/// their C layouts on x86_64 Linux, and a handler that only stores.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::ffi::c_void;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::OnceLock;

    const SIGPROF: i32 = 27;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    const ITIMER_PROF: i32 = 2;
    /// `uc_mcontext.gregs[REG_RIP]` in an x86_64 Linux `ucontext_t`:
    /// `uc_flags`, `uc_link` and the 24-byte `uc_stack` come first (40
    /// bytes), then the general registers, `RIP` the 17th.
    const RIP_OFFSET: usize = 40 + 16 * 8;

    #[repr(C)]
    struct SigAction {
        handler: extern "C" fn(i32, *mut c_void, *mut c_void),
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[derive(Clone, Copy)]
    #[repr(C)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    extern "C" {
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    }

    static PCS: OnceLock<Box<[AtomicU64]>> = OnceLock::new();
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    extern "C" fn on_prof(_sig: i32, _info: *mut c_void, ctx: *mut c_void) {
        // SAFETY: the kernel passes a valid `ucontext_t` to an SA_SIGINFO
        // handler, and `RIP_OFFSET` lies inside its register array.
        let rip = unsafe { ctx.cast::<u8>().add(RIP_OFFSET).cast::<u64>().read() };
        let i = TAKEN.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = PCS.get().and_then(|pcs| pcs.get(i)) {
            slot.store(rip, Ordering::Relaxed);
        }
    }

    /// Install the handler, with room for `cap` samples.
    pub fn install(cap: usize) {
        PCS.get_or_init(|| (0..cap).map(|_| AtomicU64::new(0)).collect());
        let act = SigAction {
            handler: on_prof,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: a valid `struct sigaction` for a handler that only
        // touches atomics.
        let rc = unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction(SIGPROF) failed");
    }

    /// Sample every `period_us` of CPU time from now, or stop (`0`).
    pub fn arm(period_us: i64) {
        let t = TimeVal {
            sec: period_us / 1_000_000,
            usec: period_us % 1_000_000,
        };
        let it = ITimerVal {
            interval: t,
            value: t,
        };
        // SAFETY: plain structs in, no old value out.
        let rc = unsafe { setitimer(ITIMER_PROF, &it, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer(ITIMER_PROF) failed");
    }

    /// The samples stored so far, and how many fired past the room.
    pub fn taken() -> (Vec<u64>, usize) {
        let pcs = PCS.get().expect("sampler installed");
        let n = TAKEN.load(Ordering::Relaxed);
        let kept = n.min(pcs.len());
        let out = pcs[..kept]
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .collect();
        (out, n - kept)
    }
}

/// Where the executable's first mapping starts (`/proc/self/maps`): what
/// `addr2line` reads a position-independent executable's PCs against.
fn load_base(exe: &std::path::Path) -> u64 {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
    let exe = exe.to_string_lossy();
    (maps.lines())
        .find(|l| l.ends_with(exe.as_ref()))
        .and_then(|l| l.split('-').next())
        .and_then(|start| u64::from_str_radix(start, 16).ok())
        .expect("the executable's mapping")
}

/// A frame chain's repo-relative location, if it lies in this workspace.
fn in_repo(loc: &str, root: &str) -> Option<String> {
    let rel = loc
        .strip_prefix(root)
        .unwrap_or(loc)
        .trim_start_matches('/');
    let rel = rel.split(" (discriminator").next().unwrap_or(rel);
    (rel.starts_with("crates/") || rel.starts_with("src/")).then(|| rel.to_string())
}

/// A demangled symbol without its trailing `::h<hash>` and without the
/// generic arguments that follow a name (`sort<T, F>` reads `sort`); a
/// qualified path's `<T as Trait>` or `<impl T>` stays.
fn short_name(sym: &str) -> String {
    let sym = match sym.rsplit_once("::h") {
        Some((name, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            name
        }
        _ => sym,
    };
    let (mut out, mut skip) = (String::new(), 0);
    for c in sym.chars() {
        match c {
            '<' if skip > 0 || out.ends_with(|p: char| p.is_alphanumeric() || p == '_') => {
                skip += 1
            }
            '>' if skip > 0 => skip -= 1,
            _ if skip > 0 => {}
            _ => out.push(c),
        }
    }
    out
}

/// Resolve each distinct PC with `addr2line -a -i -f -C` to (first repo
/// line, outermost function).
fn symbolize(exe: &std::path::Path, pcs: &[u64]) -> HashMap<u64, (String, String)> {
    let child = Command::new("/usr/bin/addr2line")
        .args(["-a", "-i", "-f", "-C", "-e"])
        .arg(exe)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn();
    let Ok(mut child) = child else {
        eprintln!("profile: /usr/bin/addr2line did not start; PCs stay unresolved");
        return HashMap::new();
    };
    let input: String = pcs.iter().map(|pc| format!("{pc:#x}\n")).collect();
    let mut stdin = child.stdin.take().expect("piped stdin");
    let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
    let out = child.wait_with_output().expect("addr2line output");
    writer.join().expect("writer").expect("addr2line stdin");
    let text = String::from_utf8_lossy(&out.stdout);
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let root = std::fs::canonicalize(root).map_or(root.to_string(), |p| p.display().to_string());
    let mut resolved = HashMap::new();
    let mut lines = text.lines().peekable();
    while let Some(addr) = lines.next() {
        let Ok(pc) = u64::from_str_radix(addr.trim_start_matches("0x"), 16) else {
            continue;
        };
        let (mut line, mut func) = (None, String::from("??"));
        while lines.peek().is_some_and(|l| !l.starts_with("0x")) {
            let f = lines.next().unwrap_or_default();
            let loc = lines.next().unwrap_or_default();
            func = short_name(f);
            line = line.or_else(|| in_repo(loc, &root));
        }
        resolved.insert(
            pc,
            (line.unwrap_or_else(|| "(outside the repo)".into()), func),
        );
    }
    resolved
}

/// Rows each table of the report prints.
const TOP: usize = 25;

/// The [`TOP`] heaviest keys of `counts`, as shares of `total`.
fn print_top(title: &str, counts: HashMap<&str, usize>, total: usize) {
    let mut rows: Vec<(&str, usize)> = counts.into_iter().collect();
    rows.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("\n{title}");
    for (key, n) in rows.into_iter().take(TOP) {
        println!("  {:>5.1} %  {key}", 100.0 * n as f64 / total as f64);
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |name: &str| {
        (args.iter())
            .position(|a| a == name)
            .map(|i| args.get(i + 1).cloned().unwrap_or_default())
    };
    let fail = |why: String| -> ! {
        eprintln!("profile: {why}");
        std::process::exit(2)
    };
    let num = |name: &str, default: f64| {
        opt(name).map_or(default, |v| {
            (v.parse::<f64>().ok().filter(|x| *x > 0.0))
                .unwrap_or_else(|| fail(format!("bad {name} '{v}'")))
        })
    };
    let name = opt("--job").unwrap_or_else(|| "quick".into());
    let (cfg, flows) = job(&name).unwrap_or_else(|| {
        fail(format!(
            "bad --job '{name}', expected leafspine, highbdp, k16 or quick"
        ))
    });
    let seconds = num("--seconds", 5.0);

    const HZ: f64 = 1000.0;
    sampler::install((seconds * HZ * 2.0) as usize + 1024);
    let start = Instant::now();
    let mut runs = 0;
    while runs == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        let sim = Simulation::new(cfg.clone(), flows.clone());
        sampler::arm((1e6 / HZ) as i64);
        let r = sim.run();
        sampler::arm(0);
        assert_eq!(r.completed, r.total_flows, "{name}: flows left unfinished");
        runs += 1;
    }
    let (pcs, lost) = sampler::taken();

    let exe = std::env::current_exe().expect("own path");
    let base = load_base(&exe);
    let rel: Vec<u64> = pcs.iter().map(|pc| pc.wrapping_sub(base)).collect();
    if let Some(path) = opt("--pcs") {
        let text: String = rel.iter().map(|pc| format!("{pc:#x}\n")).collect();
        std::fs::write(&path, text).unwrap_or_else(|e| fail(format!("--pcs {path}: {e}")));
    }
    let mut distinct = rel.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let resolved = symbolize(&exe, &distinct);
    let (mut lines, mut funcs) = (HashMap::new(), HashMap::new());
    for pc in &rel {
        let (line, func) = resolved.get(pc).map_or(("??", "??"), |(l, f)| (l, f));
        *lines.entry(line).or_insert(0) += 1;
        *funcs.entry(func).or_insert(0) += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    println!(
        "profile: job {name}, {runs} run(s), {wall:.1} s, {} samples ({:.0} Hz){}",
        rel.len(),
        rel.len() as f64 / wall,
        if lost > 0 {
            format!(", {lost} past the buffer")
        } else {
            String::new()
        }
    );
    if rel.is_empty() {
        fail("no samples: the interval timer never fired".into());
    }
    print_top("first repo frame", lines, rel.len());
    print_top("symbol (not inlined)", funcs, rel.len());
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    let _ = (job, load_base, symbolize, print_top);
    eprintln!("profile: needs Linux on x86_64 (SIGPROF and the ucontext layout)");
    std::process::exit(2);
}
