//! The traced-pass binary: the same program with the counting allocator
//! installed, so `net.arena.steady_allocs` is measured rather than argued.
//! End-to-end numbers never come from this binary.

#[global_allocator]
static ALLOC: tlb_engine::CountingAlloc = tlb_engine::CountingAlloc;

fn main() -> std::process::ExitCode {
    tlb_benchmark::cli::main()
}
