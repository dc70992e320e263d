//! The metric tables: every name the benchmark prints, with its unit,
//! direction and where the number comes from. `BENCHMARK.json` repeats
//! names, units and directions (a test keeps them equal) and alone holds
//! the end-to-end bounds.

/// Which way is good.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parse [`Better::as_str`].
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Where a per-layer number is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// A count or simulated statistic of an untraced rep. The simulator is
    /// deterministic, so it must repeat exactly from rep to rep.
    Exact,
    /// A host time (or a ratio of host times) of an untraced rep; reported
    /// as the median over reps.
    Timed,
    /// A host time of the traced pass: replay timings and `*.est_s`.
    Traced,
    /// A count or simulated statistic only the traced pass can give (audit
    /// and allocation counts, hop latencies, fluid accuracy). Repeats
    /// exactly, like [`Source::Exact`].
    TracedExact,
}

/// One metric: name, unit, direction, source.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Dotted name, `layer.part.what` for per-layer metrics.
    pub name: &'static str,
    /// Unit string as printed.
    pub unit: &'static str,
    /// Which way is good.
    pub better: Better,
    /// Where it is measured (end-to-end metrics are all [`Source::Timed`]).
    pub source: Source,
}

const fn m(name: &'static str, unit: &'static str, better: Better, source: Source) -> Metric {
    Metric {
        name,
        unit,
        better,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Exact, Timed, Traced, TracedExact};

/// What a user of the simulator pays per simulated job. Host times are
/// divided by the simulated payload delivered, so that a value is a
/// property of the program and the workload, not of how many bytes one
/// seed's flow set happens to hold, and normalised by the reference
/// workload of [`crate::calib`], so that it is not a property of how busy
/// the machine under the guest is this minute either.
pub const END_TO_END: [Metric; 4] = [
    m("norm_wall_s_per_gb", "s/GB", Lower, Timed),
    m("norm_cpu_s_per_gb", "s/GB", Lower, Timed),
    m("peak_rss_mib", "MiB", Lower, Timed),
    m("setup_s", "s", Lower, Timed),
];

/// One table for all layers; the prefix is the crate.
pub const PER_LAYER: [Metric; 84] = [
    // engine
    m("engine.fel.events", "count", Lower, Exact),
    m("engine.fel.depth_p50", "count", Lower, Exact),
    m("engine.fel.depth_p99", "count", Lower, Exact),
    m("engine.fel.bound_peak", "count", Lower, Exact),
    m("engine.fel.hold_ns", "ns", Lower, Traced),
    m("engine.fel.est_s", "s", Lower, Traced),
    m("engine.rng.next_ns", "ns", Lower, Traced),
    m("engine.shard.workers", "count", Higher, Exact),
    m("engine.shard.windows", "count", Lower, Exact),
    m("engine.shard.events_per_window", "count", Higher, Exact),
    m("engine.shard.cpu_per_wall", "ratio", Lower, Timed),
    // net
    m("net.fabric.build_s", "s", Lower, Timed),
    m("net.arena.cycle_ns", "ns", Lower, Traced),
    m("net.arena.steady_allocs", "count", Lower, TracedExact),
    m("net.arena.steady_bytes", "B", Lower, TracedExact),
    m("net.fluid.migrations", "count", Higher, Exact),
    m("net.fluid.demotions", "count", Lower, Exact),
    m("net.fluid.bytes", "B", Higher, Exact),
    m("net.fluid.join_leave_ns", "ns", Lower, Traced),
    m("net.fluid.est_s", "s", Lower, Traced),
    m("fluid_err_short_afct", "ratio", Lower, TracedExact),
    m("fluid_err_long_goodput", "ratio", Lower, TracedExact),
    // switch
    m("switch.port.pkts_emitted", "count", Lower, TracedExact),
    m("switch.port.drops", "count", Lower, Exact),
    m("switch.port.marks", "count", Lower, Exact),
    m("switch.port.drop_ratio", "ratio", Lower, TracedExact),
    m("switch.port.cycle_ns", "ns", Lower, Traced),
    m("switch.port.est_s", "s", Lower, Traced),
    m("switch.port.short_qlen_p50", "pkts", Lower, Exact),
    m("switch.port.short_qlen_p99", "pkts", Lower, Exact),
    m("switch.port.short_qdelay_p99_us", "us", Lower, Exact),
    m("switch.port.uplink_util_mean", "ratio", Higher, Exact),
    m("switch.flowmap.touch_ns", "ns", Lower, Traced),
    // lb / core / model
    m("lb.decisions", "count", Lower, Exact),
    m("lb.choose_ns", "ns", Lower, Traced),
    m("lb.est_s", "s", Lower, Traced),
    m("lb.state_bytes_peak", "B", Lower, Exact),
    m("core.tlb.long_reroutes", "count", Lower, Exact),
    m("core.tlb.qth_updates", "count", Lower, Exact),
    m("core.tlb.tick_ns", "ns", Lower, Traced),
    m("model.qth_min_ns", "ns", Lower, Traced),
    // transport
    m("transport.data_sent", "count", Lower, Exact),
    m("transport.retransmits", "count", Lower, Exact),
    m("transport.retx_ratio", "ratio", Lower, Exact),
    m("transport.timeouts", "count", Lower, Exact),
    m("transport.dup_acks", "count", Lower, Exact),
    m("transport.ooo_ratio", "ratio", Lower, Exact),
    m("transport.sender.on_ack_ns", "ns", Lower, Traced),
    m("transport.receiver.on_data_ns", "ns", Lower, Traced),
    m("transport.est_s", "s", Lower, Traced),
    m("transport.short_afct_ms", "ms", Lower, Exact),
    m("transport.short_p99_ms", "ms", Lower, Exact),
    m("transport.long_goodput_mbps", "Mbit/s", Higher, Exact),
    m("transport.deadline_miss", "ratio", Lower, Exact),
    // workload
    m("workload.flows", "count", Higher, Exact),
    m("workload.bytes", "B", Higher, Exact),
    m("workload.gen_s", "s", Lower, Timed),
    // metrics
    m("metrics.fct.record_ns", "ns", Lower, Traced),
    m("metrics.samples.push_ns", "ns", Lower, Traced),
    m("metrics.est_s", "s", Lower, Traced),
    // simnet
    m("simnet.events", "count", Lower, Exact),
    m("simnet.events_per_s", "1/s", Higher, Timed),
    m("simnet.ns_per_event", "ns", Lower, Timed),
    m("simnet.flows_per_s", "1/s", Higher, Timed),
    m("simnet.new_s", "s", Lower, Timed),
    m("simnet.run_s", "s", Lower, Timed),
    m("simnet.cpu_s", "s", Lower, Timed),
    m("simnet.host_speed", "ratio", Higher, Timed),
    m("simnet.sim_end_s", "s", Lower, Exact),
    m("simnet.unattributed_s", "s", Lower, Traced),
    m("simnet.trace_overhead", "ratio", Lower, Traced),
    m("simnet.audit_ok", "count", Higher, TracedExact),
    m("simnet.digest_pinned_match", "count", Higher, Exact),
    m("simnet.sweep.jobs", "count", Higher, Exact),
    m("simnet.sweep.threads", "count", Higher, Exact),
    m("simnet.sweep.job_wall_sum_s", "s", Lower, Timed),
    m("simnet.sweep.job_wall_serial_s", "s", Lower, Traced),
    m("simnet.sweep.speedup", "ratio", Higher, Traced),
    m("simnet.hop.host_nic_us_p50", "us", Lower, TracedExact),
    m("simnet.hop.uplink_us_p50", "us", Lower, TracedExact),
    m("simnet.hop.uplink_us_p99", "us", Lower, TracedExact),
    m("simnet.hop.downlink_us_p50", "us", Lower, TracedExact),
    m("simnet.hop.e2e_us_p50", "us", Lower, TracedExact),
    m("simnet.hop.packets_traced", "count", Higher, TracedExact),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(m.name.chars().all(ok), "{}", m.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(m.unit.chars().all(ok), "{} unit {}", m.name, m.unit);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
    }
}
