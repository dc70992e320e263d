//! Run every figure reproduction in sequence. Results land in `results/`.
//!
//! ```sh
//! cargo run --release -p tlb-bench --bin repro_all            # quick
//! TLB_SCALE=full cargo run --release -p tlb-bench --bin repro_all
//! ```
//!
//! Figures run one after another (their outputs interleave badly
//! otherwise), but each binary fans its own (scheme × load × seed) batch
//! out over the thread pool — `TLB_THREADS` (default: all cores) controls
//! the width.

use std::process::Command;

fn main() {
    let figures = [
        "fig03",
        "fig04",
        "fig05",
        "fig07",
        "fig08",
        "fig09",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "ablation",
        "extensions",
    ];
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir");
    println!(
        "repro_all: {} pool thread(s) per figure ({} host core(s); set TLB_THREADS to override)",
        rayon::current_num_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let t0 = std::time::Instant::now();
    let mut failed = Vec::new();
    for fig in figures {
        println!("\n================ {fig} ================");
        let status = Command::new(dir.join(fig))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {fig}: {e}"));
        if !status.success() {
            eprintln!("{fig} FAILED: {status}");
            failed.push(fig);
        }
    }
    println!(
        "\nrepro_all finished in {:.1}s ({} figures, {} failed)",
        t0.elapsed().as_secs_f64(),
        figures.len(),
        failed.len()
    );
    if !failed.is_empty() {
        eprintln!("failed figures: {failed:?}");
        std::process::exit(1);
    }
}
