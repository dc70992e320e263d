//! The traced pass: one run per workload with the conservation audit, the
//! steady-state allocation audit and sixteen path-traced flows switched
//! on, wrapped in host spans, followed by one replay span per layer.
//! End-to-end numbers never come from here.

use crate::rep::{report_layers, values_from_json, values_to_json, Values};
use crate::replay;
use crate::spans::{self, Recorder};
use crate::workloads::{pin_modes, Workload};
use serde::json::Value;
use std::collections::HashMap;
use std::path::PathBuf;
use tlb_engine::{EngineKind, SimTime};
use tlb_metrics::SampleSet;
use tlb_net::FlowId;
use tlb_simnet::{FidelityKind, Hop, RunReport, SimConfig, Simulation, TraceEvent};
use tlb_workload::FlowSpec;

/// Events the allocation audit lets pass before it starts counting (the
/// simulator's own `TLB_ALLOC_AUDIT=1` default).
const ALLOC_WARMUP_EVENTS: u64 = 1 << 17;
/// Flows whose packets are path-traced, evenly spaced over the ids of the
/// flows small enough to trace.
const TRACED_FLOWS: usize = 16;
/// Every hop of every packet of a traced flow is recorded, so a traced
/// bulk flow would cost more memory than the run it observes. Larger
/// flows are not traced; `highbdp_bulk` has no other kind and reports 0
/// for `simnet.hop.*`.
const TRACED_FLOW_MAX_BYTES: u64 = 1_000_000;
/// Packet spans written per span file; the hop percentiles use them all.
const MAX_PACKET_SPANS: usize = 2_000;

/// Where result and span files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// What the traced pass hands back to the parent.
pub struct Traced {
    /// Every [`crate::metrics::Source::Traced`] metric except the two the
    /// parent derives from an untraced rep (`simnet.trace_overhead`,
    /// `simnet.unattributed_s`) and the sweep's serial leg.
    pub layers: Values,
    /// Host seconds `run()` took with tracing on, summed over jobs.
    pub traced_run_s: f64,
}

impl Traced {
    /// Sum of the `*.est_s` estimates.
    pub fn est_sum_s(&self) -> f64 {
        let estimates = self.layers.iter().filter(|(k, _)| k.ends_with(".est_s"));
        estimates.map(|(_, s)| s).sum()
    }

    /// As the one-line JSON the traced child prints.
    pub fn to_json(&self) -> Value {
        crate::json::object([
            ("layers", values_to_json(&self.layers)),
            ("traced_run_s", crate::json::num(self.traced_run_s)),
        ])
    }

    /// Parse [`Traced::to_json`].
    pub fn from_json(v: &Value) -> Result<Traced, String> {
        use crate::json::{as_f64, field};
        Ok(Traced {
            layers: values_from_json(field(v, "layers")?)?,
            traced_run_s: as_f64(field(v, "traced_run_s")?)?,
        })
    }
}

/// Switch the observation machinery on for one job.
fn arm(cfg: &mut SimConfig, flows: &[FlowSpec]) {
    cfg.audit = true;
    cfg.alloc_warmup_events = Some(ALLOC_WARMUP_EVENTS);
    let small: Vec<FlowId> = flows
        .iter()
        .filter(|f| f.size_bytes <= TRACED_FLOW_MAX_BYTES)
        .map(|f| f.id)
        .collect();
    let k = TRACED_FLOWS.min(small.len());
    cfg.trace_flows = (0..k).map(|i| small[i * small.len() / k]).collect();
}

/// Run the traced pass of `w` and write its span file.
pub fn run_traced(w: Workload, seed: u64, scale: u32) -> Traced {
    let mut rec = Recorder::new();
    let mut layers = Values::new();
    let mut traced_run_s = 0.0;

    rec.host("trace.pass", |rec| {
        let (mut cfgs, _) = rec.host("net.fabric.build", |_| w.configs(seed));
        let (flows, _) = rec.host("workload.generate", |_| {
            cfgs.iter()
                .map(|c| w.flows(c, seed, scale))
                .collect::<Vec<_>>()
        });
        for (cfg, f) in cfgs.iter_mut().zip(&flows) {
            arm(cfg, f);
        }
        let kept: Vec<SimConfig> = cfgs.clone();
        let (sims, _) = rec.host("simnet.new", |_| {
            cfgs.into_iter()
                .zip(flows)
                .map(|(c, f)| Simulation::new(c, f))
                .collect::<Vec<_>>()
        });
        // One job at a time: the allocation counters are process-wide.
        let (reports, run_s) = rec.host("simnet.run", |_| {
            sims.into_iter()
                .map(Simulation::run)
                .collect::<Vec<RunReport>>()
        });
        traced_run_s = run_s;

        let mut put = |k: &str, x: f64| {
            layers.insert(k.to_string(), x);
        };
        audit_layers(&reports, &mut put);
        replay_layers(rec, &kept, &reports, &mut put);
        hop_layers(rec, &reports, &mut put);
        let (short_err, long_err) = match w {
            Workload::WebsearchHybrid => {
                rec.host("verify.fluid_pair", |_| fluid_error(seed, scale))
                    .0
            }
            _ => (0.0, 0.0),
        };
        put("fluid_err_short_afct", short_err);
        put("fluid_err_long_goodput", long_err);
    });

    let bad = spans::nesting_violations(rec.spans());
    assert!(bad.is_empty(), "spans outside their parents: {bad:?}");
    let path = out_dir().join(format!("trace-{}.json", w.name()));
    let doc = crate::json::pretty(&spans::to_json(w.name(), rec.spans()));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    Traced {
        layers,
        traced_run_s,
    }
}

/// Counts only the audits can give: packets emitted, hop-level drop
/// ratio, steady-state allocations.
fn audit_layers(reports: &[RunReport], put: &mut impl FnMut(&str, f64)) {
    let audits: Vec<_> = reports.iter().filter_map(|r| r.audit.as_ref()).collect();
    // A failing audit panics inside `run()`; reaching here with one report
    // per job means conservation, per-port accounting, clock monotonicity
    // and the transport invariants all held.
    put(
        "simnet.audit_ok",
        (audits.len() == reports.len()) as u64 as f64,
    );
    let emitted: u64 = audits.iter().map(|a| a.total_emitted()).sum();
    let attempts: u64 = audits
        .iter()
        .flat_map(|a| a.kinds.iter())
        .map(|k| k.enqueue_attempts)
        .sum();
    let dropped: u64 = audits.iter().map(|a| a.total_dropped()).sum();
    put("switch.port.pkts_emitted", emitted as f64);
    put(
        "switch.port.drop_ratio",
        if attempts > 0 {
            dropped as f64 / attempts as f64
        } else {
            0.0
        },
    );
    // `None` on the sharded engine (the counters are process-wide, so its
    // replicas never arm the window) and on runs shorter than the warm-up.
    let allocs = reports.iter().filter_map(|r| r.alloc_audit);
    put(
        "net.arena.steady_allocs",
        allocs.clone().map(|a| a.acquisitions()).sum::<u64>() as f64,
    );
    put(
        "net.arena.steady_bytes",
        allocs.map(|a| a.bytes).sum::<u64>() as f64,
    );
}

/// One replay span per layer; `ns_per_op × count` gives each `*.est_s`.
fn replay_layers(
    rec: &mut Recorder,
    cfgs: &[SimConfig],
    reports: &[RunReport],
    put: &mut impl FnMut(&str, f64),
) {
    let counts = report_layers(reports);
    let count = |k: &str| counts[k];
    let cfg = &cfgs[0];
    let flows: u64 = reports.iter().map(|r| r.total_flows as u64).sum();
    let tx_done: u64 = reports
        .iter()
        .filter_map(|r| r.audit.as_ref())
        .flat_map(|a| a.kinds.iter())
        .map(|k| k.tx_done)
        .sum();
    let data_received: u64 = reports
        .iter()
        .map(|r| r.short.data_received + r.long.data_received)
        .sum();
    // Flows in progress at once, per job and on average over jobs: the
    // size of every per-flow table a replay fills.
    let active: Vec<u32> = reports.iter().map(replay::mean_active_flows).collect();
    let mean_active = active.iter().sum::<u32>() / active.len() as u32;

    let depth = count("engine.fel.depth_p50") as usize;
    let (hold, _) = rec.host("replay.engine.fel", |_| {
        replay::fel_hold_ns(depth, 1_000_000)
    });
    put("engine.fel.hold_ns", hold);
    put("engine.fel.est_s", hold * count("engine.fel.events") * 1e-9);
    put(
        "engine.rng.next_ns",
        rec.host("replay.engine.rng", |_| replay::rng_next_ns(4_000_000))
            .0,
    );

    let qlen = count("switch.port.short_qlen_p50") as usize;
    let (cycle, _) = rec.host("replay.switch.port", |_| {
        replay::port_cycle_ns(cfg, qlen, 2_000_000)
    });
    put("switch.port.cycle_ns", cycle);
    put("switch.port.est_s", cycle * tx_done as f64 * 1e-9);
    let (touch, _) = rec.host("replay.switch.flowmap", |_| {
        replay::flowmap_touch_ns(mean_active, 2_000_000)
    });
    put("switch.flowmap.touch_ns", touch);
    let (arena, _) = rec.host("replay.net.arena", |_| {
        replay::arena_cycle_ns(cfg, depth, 2_000_000)
    });
    put("net.arena.cycle_ns", arena);

    // The LB layer per job: the sweep uses it six different ways.
    let ((choose_s, tick_ns), _) = rec.host("replay.lb", |_| {
        let (mut choose_s, mut tick_ns) = (0.0, 0.0f64);
        for ((c, r), flows) in cfgs.iter().zip(reports).zip(&active) {
            let (choose, tick) = replay::lb_ns(c, *flows, 1_000_000, 2_000);
            choose_s += choose * r.lb_decisions as f64 * 1e-9;
            tick_ns = tick_ns.max(tick);
        }
        (choose_s, tick_ns)
    });
    let decisions = count("lb.decisions");
    put(
        "lb.choose_ns",
        if decisions > 0.0 {
            choose_s * 1e9 / decisions
        } else {
            0.0
        },
    );
    put(
        "lb.est_s",
        choose_s + tick_ns * count("core.tlb.qth_updates") * 1e-9,
    );
    put("core.tlb.tick_ns", tick_ns);
    put(
        "model.qth_min_ns",
        rec.host("replay.model", |_| replay::qth_min_ns(1_000_000))
            .0,
    );

    let ((on_ack, on_data), _) =
        rec.host("replay.transport", |_| replay::transport_ns(cfg, 1_000_000));
    put("transport.sender.on_ack_ns", on_ack);
    put("transport.receiver.on_data_ns", on_data);
    put(
        "transport.est_s",
        (on_ack + on_data) * data_received as f64 * 1e-9,
    );

    // Only a hybrid run has a fluid tier to replay.
    let migrations = count("net.fluid.migrations");
    let residents = replay::mean_fluid_residents(&reports[0]);
    let (fluid, _) = rec.host("replay.net.fluid", |_| match residents {
        0 => 0.0,
        n => replay::fluid_join_leave_ns(cfg, n, 50_000),
    });
    put("net.fluid.join_leave_ns", fluid);
    put("net.fluid.est_s", fluid * migrations * 1e-9);

    let pushes: u64 = reports.iter().map(replay::samples_pushed).sum();
    let ((record, push), _) = rec.host("replay.metrics", |_| {
        replay::metrics_ns(cfg, flows as u32, pushes.max(1))
    });
    put("metrics.fct.record_ns", record);
    put("metrics.samples.push_ns", push);
    put(
        "metrics.est_s",
        (record * flows as f64 + push * pushes as f64) * 1e-9,
    );
}

/// Which of the three hop classes a traced packet entered.
#[derive(Clone, Copy, PartialEq)]
enum HopClass {
    HostNic,
    Uplink,
    Downlink,
    Delivered,
}

fn class_of(hop: Hop) -> HopClass {
    match hop {
        Hop::HostNic { .. } => HopClass::HostNic,
        Hop::LeafUplink { .. } | Hop::FabricUp { .. } => HopClass::Uplink,
        Hop::LeafDownlink { .. } | Hop::SpineDownlink { .. } | Hop::FabricDown { .. } => {
            HopClass::Downlink
        }
        Hop::Delivered { .. } => HopClass::Delivered,
    }
}

/// Simulated-clock spans per traced packet and hop, and the
/// `simnet.hop.*` percentiles: the time from entering a hop's queue to
/// entering the next hop (queueing + serialization + propagation).
fn hop_layers(rec: &mut Recorder, reports: &[RunReport], put: &mut impl FnMut(&str, f64)) {
    let (mut nic, mut up, mut down, mut e2e) = (
        SampleSet::new(),
        SampleSet::new(),
        SampleSet::new(),
        SampleSet::new(),
    );
    let mut written = 0usize;
    let us = |a: SimTime, b: SimTime| b.saturating_sub(a).as_micros_f64();
    for r in reports {
        // A packet's records, in time order; a retransmission reuses the
        // key and starts over at its HostNic record.
        let mut open: HashMap<(FlowId, u8, u32), Vec<&TraceEvent>> = HashMap::new();
        for ev in &r.traces {
            let key = (ev.flow, ev.kind as u8, ev.seq);
            let chain = open.entry(key).or_default();
            if class_of(ev.hop) == HopClass::HostNic {
                chain.clear();
            }
            chain.push(ev);
            if class_of(ev.hop) != HopClass::Delivered || chain.len() < 2 {
                continue;
            }
            let chain = open.remove(&key).expect("entry just used");
            if class_of(chain[0].hop) != HopClass::HostNic {
                continue;
            }
            e2e.push(us(chain[0].at, ev.at));
            let write = written < MAX_PACKET_SPANS;
            written += write as usize;
            let parent = write.then(|| {
                let name = format!("packet.f{}.{:?}.{}", ev.flow.0, ev.kind, ev.seq);
                rec.sim(&name, None, chain[0].at.as_secs_f64(), ev.at.as_secs_f64())
            });
            for pair in chain.windows(2) {
                let d = us(pair[0].at, pair[1].at);
                let name = match class_of(pair[0].hop) {
                    HopClass::HostNic => {
                        nic.push(d);
                        "hop.host_nic"
                    }
                    HopClass::Uplink => {
                        up.push(d);
                        "hop.uplink"
                    }
                    _ => {
                        down.push(d);
                        "hop.downlink"
                    }
                };
                if parent.is_some() {
                    rec.sim(
                        name,
                        parent,
                        pair[0].at.as_secs_f64(),
                        pair[1].at.as_secs_f64(),
                    );
                }
            }
        }
    }
    put("simnet.hop.host_nic_us_p50", nic.quantile(0.5));
    let q = up.quantiles(&[0.5, 0.99]);
    put("simnet.hop.uplink_us_p50", q[0]);
    put("simnet.hop.uplink_us_p99", q[1]);
    put("simnet.hop.downlink_us_p50", down.quantile(0.5));
    put("simnet.hop.e2e_us_p50", e2e.quantile(0.5));
    put("simnet.hop.packets_traced", e2e.len() as f64);
}

/// The hybrid tier's distance from the packet model: the leaf-spine job
/// at 50 ms of arrivals under both fidelities, `|hybrid ÷ packet − 1|` of
/// short-flow AFCT and of mean long-flow goodput.
pub fn fluid_error(seed: u64, scale: u32) -> (f64, f64) {
    let run = |fidelity| {
        let mut cfg = Workload::WebsearchLeafspine.configs(seed).remove(0);
        pin_modes(&mut cfg, seed, fidelity, EngineKind::Serial);
        // A third of the leaf-spine job's 150 ms span.
        let flows = Workload::WebsearchLeafspine.flows(&cfg, seed, 3 * scale);
        Simulation::new(cfg, flows).run()
    };
    let (packet, hybrid) = (run(FidelityKind::Packet), run(FidelityKind::Hybrid));
    let err = |h: f64, p: f64| if p > 0.0 { (h / p - 1.0).abs() } else { 0.0 };
    (
        err(hybrid.fct_short.afct, packet.fct_short.afct),
        err(hybrid.long_throughput(), packet.long_throughput()),
    )
}
