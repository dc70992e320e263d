//! Fig. 15 — leaf-switch overhead per scheme. The paper measures BMv2 CPU
//! and memory utilization; the simulator-level analogues (substitution
//! documented in DESIGN.md) are:
//!
//! (a) **CPU** — nanoseconds per forwarding decision, from the harness's
//!     one decision-cost fixture ([`tlb_bench::measure_decision_ns`]:
//!     each balancer driven by a realistic packet stream against a loaded
//!     15-port view; `extensions` reads the same fixture for all eleven
//!     schemes): the median pass and the [min, max] range. Wall-clock, so
//!     two schemes whose ranges overlap are not ordered by it;
//! (b) **memory** — peak bytes of balancer state during the basic mixed
//!     workload (flow/flowlet tables, counters).

use tlb_bench::{basic_scenario, measure_decision_ns, Out, Scale, DECISION_PASSES};
use tlb_simnet::Scheme;

fn main() {
    let _ = Scale::from_env();
    let mut out = Out::new("fig15");
    out.line("Fig. 15 — leaf-switch overhead (simulator analogue)");
    out.blank();

    let schemes = Scheme::paper_set();

    out.line(&format!(
        "(a) CPU: per-packet forwarding-decision cost (ns), median of {DECISION_PASSES} passes [min, max]"
    ));
    for s in &schemes {
        let ns = measure_decision_ns(s);
        let (median, min, max) = (ns.quantile(0.5), ns.min(), ns.max());
        let name = s.name();
        out.line(&format!(
            "{name:<10} {median:>8.1} ns/decision  [{min:.1}, {max:.1}]"
        ));
    }
    out.blank();

    out.line("(b) memory: peak balancer state during the basic workload (bytes)");
    let seed = tlb_bench::scale::base_seed();
    for s in &schemes {
        let r = basic_scenario(s.clone(), 100, 3, seed);
        out.line(&format!(
            "{:<10} {:>8} bytes",
            r.scheme, r.lb_state_bytes_peak
        ));
    }
    out.blank();
    out.line("expected shape (paper): ECMP/RPS/Presto near-zero overhead;");
    out.line("TLB adds a small flow table and periodic computation — visible");
    out.line("but not excessive.");
    out.line("(a) is wall-clock and moves with the host: rows whose [min, max]");
    out.line("ranges overlap are not ordered by it. (b) is deterministic.");
    out.save();
}
