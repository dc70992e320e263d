//! One untraced repetition of one workload, run in a process of its own
//! so that `VmHWM` is the rep's and no rep inherits another's heap.

use crate::json::{self, as_f64, as_obj, as_str, field};
use crate::procstat;
use crate::workloads::{digest_all, Job, Workload};
use serde::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;
use tlb_metrics::SampleSet;
use tlb_simnet::{run_all, RunReport, Simulation};

/// Named values, as they travel between child and parent.
pub type Values = BTreeMap<String, f64>;

/// What one rep reports to the parent.
#[derive(Clone, Debug, PartialEq)]
pub struct Rep {
    /// Flows launched (the rep's attempted operations).
    pub flows: u64,
    /// Flows that delivered every byte by the horizon.
    pub completed: u64,
    /// Workload digest (jobs' digests joined by `;`).
    pub digest: String,
    /// `RunReport::engine_workers` of the first job, 0 for serial.
    pub workers: u64,
    /// Every end-to-end metric (the child fills in memory and set-up, the
    /// parent the normalised times).
    pub e2e: Values,
    /// The per-layer metrics an untraced rep can measure
    /// ([`crate::metrics::Source::Exact`] and `Timed`).
    pub layers: Values,
}

/// Named values as a JSON object.
pub fn values_to_json(v: &Values) -> Value {
    Value::Obj(v.iter().map(|(k, x)| (k.clone(), json::num(*x))).collect())
}

/// Parse [`values_to_json`].
pub fn values_from_json(v: &Value) -> Result<Values, String> {
    as_obj(v)?
        .iter()
        .map(|(k, x)| Ok((k.clone(), as_f64(x)?)))
        .collect()
}

impl Rep {
    /// The rep as the one-line JSON the child prints.
    pub fn to_json(&self) -> Value {
        json::object([
            ("flows", json::int(self.flows)),
            ("completed", json::int(self.completed)),
            ("digest", json::string(&self.digest)),
            ("workers", json::int(self.workers)),
            ("e2e", values_to_json(&self.e2e)),
            ("layers", values_to_json(&self.layers)),
        ])
    }

    /// Parse [`Rep::to_json`].
    pub fn from_json(v: &Value) -> Result<Rep, String> {
        Ok(Rep {
            flows: as_f64(field(v, "flows")?)? as u64,
            completed: as_f64(field(v, "completed")?)? as u64,
            digest: as_str(field(v, "digest")?)?.to_string(),
            workers: as_f64(field(v, "workers")?)? as u64,
            e2e: values_from_json(field(v, "e2e")?)?,
            layers: values_from_json(field(v, "layers")?)?,
        })
    }
}

/// How long a rep spends timing set-up.
const SETUP_TIMING_SECONDS: f64 = 0.25;
/// What [`speed_probe`] reads on the recording host at its fastest. A
/// scale constant only, and like the probe itself frozen: changing either
/// moves every recorded `setup_s`.
pub const PROBE_NOMINAL_SECONDS: f64 = 8.7e-6;

/// A few microseconds of what set-up code is made of — a heap
/// allocation, a cache-resident fill with pseudo-random floats, a sort and
/// a reduction — and of nothing in the simulator.
pub fn speed_probe() -> f64 {
    let t = Instant::now();
    let mut x = 88_172_645_463_325_252u64;
    let mut v: Vec<f64> = Vec::with_capacity(512);
    for _ in 0..512 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push((x >> 11) as f64 / (1u64 << 53) as f64);
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let sum: f64 = v.iter().enumerate().map(|(i, a)| a * (i & 7) as f64).sum();
    std::hint::black_box((sum, v));
    t.elapsed().as_secs_f64()
}

/// A workload's jobs, ready to run, and what building them costs.
///
/// Set-up (fabric build + flow generation + `Simulation::new`) is half a
/// microsecond to a few milliseconds of work, and on the recording host
/// such code runs at one of about three speeds (1 : 1.6 : 2.6) for seconds
/// to minutes at a time: timed once per process, the medians of ten
/// processes drifted by 40 % within two minutes, uncorrelated (r ≈ 0.25)
/// with the reference workload of [`crate::calib`]. So set-up is repeated
/// for [`SETUP_TIMING_SECONDS`], every round next to a [`speed_probe`],
/// and a stage's time is its fastest round × `PROBE_NOMINAL_SECONDS ÷`
/// the fastest probe: seconds as on a core where the probe takes
/// [`PROBE_NOMINAL_SECONDS`].
pub struct Setup {
    /// Fabric build and mode pinning (`Workload::configs`).
    pub fabric_s: f64,
    /// Flow generation (`Workload::flows`).
    pub gen_s: f64,
    /// `Simulation::new` of a single job; 0 for a batch, whose simulations
    /// `run_all` builds, inside the timed region.
    pub new_s: f64,
    /// Flows over all jobs.
    pub flows: u64,
    /// Payload bytes over all jobs.
    pub bytes: u64,
    /// The last round's jobs.
    pub ready: Ready,
}

/// A workload's jobs up to the call a user makes to run them: one job is
/// a built `Simulation`, a batch is the argument of `tlb_simnet::run_all`
/// (which builds each simulation on the thread that runs it).
pub enum Ready {
    /// A single job.
    One(Box<Simulation>),
    /// A sweep.
    Batch(Vec<Job>),
}

impl Ready {
    /// `Simulation::new` for a single job; a batch as it is.
    pub fn of(mut jobs: Vec<Job>) -> Ready {
        if jobs.len() == 1 {
            let (cfg, flows) = jobs.remove(0);
            Ready::One(Box::new(Simulation::new(cfg, flows)))
        } else {
            Ready::Batch(jobs)
        }
    }

    /// Run the way a user would: `Simulation::run()` on this thread, or
    /// `run_all` on two rayon threads.
    pub fn run(self) -> Vec<RunReport> {
        match self {
            Ready::One(sim) => vec![sim.run()],
            Ready::Batch(jobs) => rayon::with_threads(2, || run_all(jobs)),
        }
    }
}

impl Setup {
    /// Everything up to the call to `run()`.
    pub fn total_s(&self) -> f64 {
        self.fabric_s + self.gen_s + self.new_s
    }
}

/// Build the workload over and over, timing each stage.
pub fn setup(w: Workload, seed: u64, scale: u32) -> Setup {
    let began = Instant::now();
    let mut best = [f64::INFINITY; 3];
    let mut probe = f64::INFINITY;
    let (mut flows_n, mut bytes) = (0u64, 0u64);
    let mut ready = None;
    while ready.is_none() || began.elapsed().as_secs_f64() < SETUP_TIMING_SECONDS {
        probe = probe.min(speed_probe());
        // The previous round's jobs are freed outside the timing.
        drop(ready.take());
        let t0 = Instant::now();
        let cfgs = w.configs(seed);
        let t1 = Instant::now();
        let flows: Vec<_> = cfgs.iter().map(|c| w.flows(c, seed, scale)).collect();
        let t2 = Instant::now();
        flows_n = flows.iter().map(|f| f.len() as u64).sum();
        bytes = flows.iter().flatten().map(|f| f.size_bytes).sum();
        let jobs: Vec<Job> = cfgs.into_iter().zip(flows).collect();
        let t3 = Instant::now();
        ready = Some(Ready::of(jobs));
        let t4 = Instant::now();
        let round = [t1 - t0, t2 - t1, t4 - t3];
        for (b, r) in best.iter_mut().zip(round) {
            *b = b.min(r.as_secs_f64());
        }
    }
    let [fabric_s, gen_s, new_s] = best.map(|seconds| seconds * PROBE_NOMINAL_SECONDS / probe);
    Setup {
        fabric_s,
        gen_s,
        new_s,
        flows: flows_n,
        bytes,
        ready: ready.expect("at least one round ran"),
    }
}

/// One timed rep. With `serial_leg`, a multi-job workload is afterwards
/// run again one job at a time, for `simnet.sweep.speedup`.
pub fn run_rep(w: Workload, seed: u64, scale: u32, serial_leg: bool) -> Rep {
    let s = setup(w, seed, scale);
    let setup_s = s.total_s();
    let cpu0 = procstat::cpu_seconds();
    let t0 = Instant::now();
    let reports = s.ready.run();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procstat::cpu_seconds() - cpu0;
    let n_jobs = reports.len();
    // Before the serial leg, which would raise it.
    let peak_rss_mib = procstat::peak_rss_mib();

    // The parent adds the two host-normalised times: it holds the
    // reference workload, so that this process's `VmHWM` is the rep's own.
    let mut e2e = Values::new();
    e2e.insert("peak_rss_mib".into(), peak_rss_mib);
    e2e.insert("setup_s".into(), setup_s);

    let completed: u64 = reports.iter().map(|r| r.completed as u64).sum();
    let events: u64 = reports.iter().map(|r| r.events).sum();
    let mut layers = report_layers(&reports);
    let mut put = |k: &str, v: f64| layers.insert(k.to_string(), v);
    put("engine.shard.cpu_per_wall", cpu_s / wall_s);
    put("net.fabric.build_s", s.fabric_s);
    put("workload.flows", s.flows as f64);
    put("workload.bytes", s.bytes as f64);
    put("workload.gen_s", s.gen_s);
    put("simnet.events_per_s", events as f64 / wall_s);
    put("simnet.ns_per_event", wall_s * 1e9 / events as f64);
    put("simnet.flows_per_s", completed as f64 / wall_s);
    put("simnet.new_s", s.new_s);
    put("simnet.run_s", wall_s);
    put("simnet.cpu_s", cpu_s);
    put(
        "simnet.sweep.jobs",
        if n_jobs > 1 { n_jobs as f64 } else { 0.0 },
    );
    put("simnet.sweep.threads", if n_jobs > 1 { 2.0 } else { 0.0 });
    let job_walls: f64 = reports.iter().map(|r| r.wall.as_secs_f64()).sum();
    put(
        "simnet.sweep.job_wall_sum_s",
        if n_jobs > 1 { job_walls } else { 0.0 },
    );
    if serial_leg && n_jobs > 1 {
        let serial: f64 = w
            .jobs(seed, scale)
            .into_iter()
            .map(|(c, f)| Simulation::new(c, f).run().wall.as_secs_f64())
            .sum();
        put("simnet.sweep.job_wall_serial_s", serial);
        put("simnet.sweep.speedup", serial / wall_s);
    }

    Rep {
        flows: s.flows,
        completed,
        digest: digest_all(&reports),
        workers: reports[0].engine_workers.map_or(0, u64::from),
        e2e,
        layers,
    }
}

/// The exact per-layer metrics: counts and simulated statistics read off
/// the run reports. Counters add over jobs, ratios are taken over the
/// summed counters, quantiles over the merged sample sets, and FCT
/// statistics are the mean over jobs.
pub fn report_layers(reports: &[RunReport]) -> Values {
    let n = reports.len() as f64;
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let mean = |f: &dyn Fn(&RunReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    let merged = |f: &dyn Fn(&RunReport) -> &SampleSet| {
        let mut all = SampleSet::new();
        reports.iter().for_each(|r| all.merge(f(r)));
        all
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let events = sum(&|r| r.events);
    let depth = merged(&|r| &r.fel_depth).quantiles(&[0.5, 0.99]);
    let qlen = merged(&|r| &r.short_qlen).quantiles(&[0.5, 0.99]);
    let windows = sum(&|r| r.sharded_windows);
    let data_sent = sum(&|r| r.short.data_sent + r.long.data_sent);
    let data_received = sum(&|r| r.short.data_received + r.long.data_received);
    let retransmits = sum(&|r| r.short.retransmits + r.long.retransmits);

    let mut v = Values::new();
    let mut put = |k: &str, x: f64| v.insert(k.to_string(), x);
    put("engine.fel.events", events);
    put("engine.fel.depth_p50", depth[0]);
    put("engine.fel.depth_p99", depth[1]);
    put(
        "engine.fel.bound_peak",
        reports.iter().map(|r| r.fel_bound_peak).max().unwrap_or(0) as f64,
    );
    put(
        "engine.shard.workers",
        sum(&|r| r.engine_workers.map_or(0, u64::from)),
    );
    put("engine.shard.windows", windows);
    put("engine.shard.events_per_window", ratio(events, windows));
    put("net.fluid.migrations", sum(&|r| r.fluid_migrations));
    put("net.fluid.demotions", sum(&|r| r.fluid_demotions));
    put("net.fluid.bytes", sum(&|r| r.fluid_bytes));
    put("switch.port.drops", sum(&|r| r.drops));
    put("switch.port.marks", sum(&|r| r.marks));
    put("switch.port.short_qlen_p50", qlen[0]);
    put("switch.port.short_qlen_p99", qlen[1]);
    put(
        "switch.port.short_qdelay_p99_us",
        merged(&|r| &r.short_qdelay).quantile(0.99) * 1e6,
    );
    put(
        "switch.port.uplink_util_mean",
        mean(&|r| r.mean_uplink_utilization()),
    );
    put("lb.decisions", sum(&|r| r.lb_decisions));
    put(
        "lb.state_bytes_peak",
        reports
            .iter()
            .map(|r| r.lb_state_bytes_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    put(
        "core.tlb.long_reroutes",
        sum(&|r| r.tlb_long_reroutes.unwrap_or(0)),
    );
    put("core.tlb.qth_updates", sum(&|r| r.qth_series.len() as u64));
    put("transport.data_sent", data_sent);
    put("transport.retransmits", retransmits);
    put("transport.retx_ratio", ratio(retransmits, data_sent));
    put(
        "transport.timeouts",
        sum(&|r| r.short.timeouts + r.long.timeouts),
    );
    put(
        "transport.dup_acks",
        sum(&|r| r.short.dup_acks + r.long.dup_acks),
    );
    put(
        "transport.ooo_ratio",
        ratio(
            sum(&|r| r.short.out_of_order + r.long.out_of_order),
            data_received,
        ),
    );
    put("transport.short_afct_ms", mean(&|r| r.fct_short.afct * 1e3));
    put("transport.short_p99_ms", mean(&|r| r.fct_short.p99 * 1e3));
    put(
        "transport.long_goodput_mbps",
        mean(&|r| r.long_throughput() * 8.0 / 1e6),
    );
    put(
        "transport.deadline_miss",
        mean(&|r| r.fct_short.deadline_miss),
    );
    put("simnet.events", events);
    put(
        "simnet.sim_end_s",
        reports
            .iter()
            .map(|r| r.sim_end.as_secs_f64())
            .fold(0.0, f64::max),
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_round_trips_through_json() {
        let rep = Rep {
            flows: 3125,
            completed: 3125,
            digest: "36789813|0.002658271333|17261866.961987093091|0|1020257|3125".into(),
            workers: 2,
            e2e: [
                ("peak_rss_mib".to_string(), 67.25),
                ("setup_s".to_string(), 7.1e-4),
            ]
            .into(),
            layers: [("engine.fel.events".to_string(), 36789813.0)].into(),
        };
        let line = json::compact(&rep.to_json());
        assert!(!line.contains('\n'));
        assert_eq!(Rep::from_json(&json::parse(&line).unwrap()).unwrap(), rep);
    }
}
