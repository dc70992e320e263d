//! The measuring binary: plain system allocator, as users run the
//! simulator.

fn main() -> std::process::ExitCode {
    tlb_benchmark::cli::main()
}
