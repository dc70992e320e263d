//! Fig. 4 — the impact of switching granularity on **long flows**:
//! (a) per-path link utilization, (b) out-of-order ratio, (c) average
//! long-flow throughput, under flow/flowlet/packet granularity.

use tlb_bench::{granularity_schemes, sustained_scenario, Out, Scale};

fn main() {
    let scale = Scale::from_env();
    let mut out = Out::new("fig04");
    let n_short = 100;
    let n_long = 5;
    let rounds = scale.pick(15, 40);
    let seed = tlb_bench::scale::base_seed();

    out.line("Fig. 4 — impact of switching granularity on long flows");
    out.line(&format!(
        "  workload: {n_short} short + {n_long} long, 15 paths, DCTCP"
    ));
    out.blank();

    let reports: Vec<_> = granularity_schemes()
        .into_iter()
        .map(|(label, scheme)| {
            (
                label,
                sustained_scenario(scheme, n_short, n_long, rounds, seed),
            )
        })
        .collect();

    out.line("(a) sender-rack uplink utilization");
    out.line(&format!(
        "{:<10} {:>8} {:>8} {:>8} {:>10}",
        "granular.", "min", "mean", "max", "stddev"
    ));
    for (label, r) in &reports {
        let ups = &r.uplink_utilization[0]; // leaf 0 hosts all senders
        let mean = tlb_metrics::mean(ups);
        let min = tlb_metrics::min(ups);
        let max = tlb_metrics::max(ups);
        let var = ups.iter().map(|u| (u - mean).powi(2)).sum::<f64>() / ups.len() as f64;
        out.line(&format!(
            "{:<10} {:>8.3} {:>8.3} {:>8.3} {:>10.4}",
            label,
            min,
            mean,
            max,
            var.sqrt()
        ));
    }
    out.blank();

    out.line("(b) out-of-order arrival ratio of long flows");
    for (label, r) in &reports {
        out.line(&format!(
            "{:<10} {:>8.4}  ({} ooo / {} received)",
            label,
            r.long.reorder_ratio(),
            r.long.out_of_order,
            r.long.data_received
        ));
    }
    out.blank();

    out.line("(c) average long-flow throughput (Mbit/s, goodput per flow)");
    for (label, r) in &reports {
        out.line(&format!(
            "{:<10} {:>8.1}   ({:.1}% of 1 Gbit/s line rate)",
            label,
            r.long_throughput() * 8.0 / 1e6,
            r.long_throughput() * 8.0 / 1e7,
        ));
    }
    out.blank();
    out.line("expected shape (paper): flow granularity leaves paths idle");
    out.line("(utilization spread high), packet granularity reorders most;");
    out.line("both cost long-flow throughput.");
    out.save();
}
