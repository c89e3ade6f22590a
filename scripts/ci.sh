#!/usr/bin/env sh
# Local mirror of .github/workflows/ci.yml: the same checks, in the
# same modes, so "scripts/ci.sh passes" means "CI will pass". Exits
# non-zero on the first failure.
#
# The workspace is dependency-free by design (see crates/util), so every
# step runs with --offline: no registry, no network, no surprises.

set -eu

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --offline --locked
# The whole suite twice: serial kernels, then 4 pool threads per rank.
# Every result is bitwise thread-count-independent, so both must pass
# identically (see the determinism_threads suites).
run env PARGCN_THREADS=1 cargo test -q --offline --locked
run env PARGCN_THREADS=4 cargo test -q --offline --locked
# Kernel-engine parity: the bitwise-determinism suites and the
# allocation contract must hold under both compute engines
# (PARGCN_KERNEL selects naive vs blocked GEMM/SpMM; every result is
# bitwise engine-independent — DESIGN.md §10). The pargcn-matrix suites
# pin both engines themselves, so only pargcn-core's run here.
for kernel in naive blocked; do
    run env PARGCN_KERNEL=$kernel \
        cargo test -q --offline --locked -p pargcn-core \
        --test determinism_threads --test no_alloc_steady_state \
        --test minibatch_engine
done
# Smoke-run the communication and kernel-engine microbenchmarks (a few
# samples each) so the bench harnesses can't rot between perf sessions.
run cargo bench -q --offline --locked -p pargcn-bench --bench comm -- --quick
run cargo bench -q --offline --locked -p pargcn-bench --bench kernels -- --quick kernel_engine
run cargo bench -q --offline --locked -p pargcn-bench --bench minibatch -- --quick
run cargo bench -q --offline --locked -p pargcn-bench --bench partitioners -- --quick
# Build the benchmark (a workspace of its own over the crates' public
# API) and run its exact-count self-test, so an API change that breaks
# it fails here rather than in the next performance measurement.
run cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml
run cargo fmt --check
run cargo clippy --workspace --all-targets --offline --locked -- -D warnings

echo "==> all checks passed"
