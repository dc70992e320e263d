//! Failure injection: 30% of the rack's uplink capacity browns out while a
//! mixed workload is in flight. Watch which balancers reroute around the
//! damage and which keep feeding it.
//!
//! ```sh
//! cargo run --release --example failure_demo
//! ```

use tlb::prelude::*;

fn main() {
    println!("brownout drill: at t=10ms, 4 of 15 uplinks drop to 10% bandwidth\n");
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>14}",
        "scheme", "AFCT(ms)", "p99(ms)", "miss(%)", "long(Mbit/s)"
    );

    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 100;
    mix.n_long = 4;
    mix.short_window = SimTime::from_millis(30);

    let mut schemes = Scheme::paper_set();
    schemes.push(Scheme::Wcmp); // knows nothing: weights were set pre-failure

    for scheme in schemes {
        let mut cfg = SimConfig::basic_paper(scheme);
        for up in [1, 5, 9, 13].map(SpineId) {
            cfg.admin_events.push(AdminEvent {
                at: SimTime::from_millis(10),
                target: Target::Link { sw: LeafId(0), up },
                change: Change::Rate {
                    bw_factor: 0.10,
                    new_prop_delay: None,
                    extra_delay: SimTime::ZERO,
                },
            });
        }
        let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(404));
        let r = Simulation::new(cfg, flows).run();
        println!(
            "{:<12} {:>12.3} {:>12.3} {:>10.1} {:>14.1}",
            r.scheme,
            r.fct_short.afct * 1e3,
            r.fct_short.p99 * 1e3,
            r.fct_short.deadline_miss * 100.0,
            r.long_throughput() * 8.0 / 1e6,
        );
    }

    println!("\nECMP and WCMP placed flows before the failure and never");
    println!("reconsider; queue-aware schemes (TLB, and LetFlow at flowlet");
    println!("gaps) drain away from the browned-out links.");
}
