//! Traced runs: the per-layer metrics. Allocations are counted per thread
//! so the comm runtime can report its steady-state allocations.

use pargcn_util::allocmeter::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    std::process::exit(pargcn_benchmark::main(true))
}
