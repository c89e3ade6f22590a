//! Untraced runs: the end-to-end metrics, under the system allocator.

fn main() {
    std::process::exit(pargcn_benchmark::main(false))
}
