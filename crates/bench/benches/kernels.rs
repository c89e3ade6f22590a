//! Criterion microbenchmarks for the matrix kernels driving GCN training:
//! SpMM (the convolution), DMM (parameter application), the `Xₘₙ ⊗ H` row
//! gather (message assembly), adjacency normalization, and the kernels
//! split across 1/2/4 threads plus the bare pool dispatch overhead. The
//! `spmm`/`dmm` groups and their `_threads` variants run the naive engine
//! through [`ComputeCtx`], so their figures stay comparable with earlier
//! runs in `results/kernels_threads.json`.

use pargcn_graph::gen::{grid, rmat};
use pargcn_matrix::{gather, norm, ComputeCtx, Dense, KernelKind};
use pargcn_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pargcn_util::pool::Pool;
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;

/// Thread counts exercised by the `_threads` kernel benchmarks. At `t = 1`
/// the context runs the row-range body inline with no pool dispatch, so
/// the `t > 1` rows read off the split's speedup net of dispatch cost.
const THREADS: [usize; 3] = [1, 2, 4];

/// The naive engine on `threads` threads.
fn naive(threads: usize) -> ComputeCtx {
    ComputeCtx::with_threads(threads).with_kernel(KernelKind::Naive)
}

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm");
    let cctx = naive(1);
    for (name, graph) in [
        ("road_10k", grid::road_network(10_000, 1)),
        ("rmat_10k", rmat::generate_sized(10_000, 8.0, false, 1)),
    ] {
        let a = graph.normalized_adjacency();
        for d in [16usize, 64] {
            let mut rng = StdRng::seed_from_u64(2);
            let h = Dense::random(a.n_cols(), d, &mut rng);
            group.throughput(Throughput::Elements((a.nnz() * d) as u64));
            group.bench_with_input(BenchmarkId::new(name, d), &d, |b, _| {
                b.iter(|| cctx.spmm(&a, std::hint::black_box(&h)))
            });
        }
    }
    group.finish();
}

fn bench_dmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("dmm");
    let cctx = naive(1);
    let mut rng = StdRng::seed_from_u64(3);
    for (rows, k, n) in [(10_000usize, 32usize, 32usize), (10_000, 64, 16)] {
        let a = Dense::random(rows, k, &mut rng);
        let w = Dense::random(k, n, &mut rng);
        group.throughput(Throughput::Elements((rows * k * n) as u64));
        group.bench_function(format!("{rows}x{k}x{n}"), |b| {
            b.iter(|| cctx.matmul(&a, std::hint::black_box(&w)))
        });
    }
    group.finish();
}

fn bench_gather(c: &mut Criterion) {
    let mut group = c.benchmark_group("gather_rows");
    let mut rng = StdRng::seed_from_u64(4);
    let h = Dense::random(100_000, 32, &mut rng);
    for frac in [10usize, 2] {
        let idx: Vec<u32> = (0..100_000u32).step_by(frac).collect();
        group.throughput(Throughput::Bytes((idx.len() * 32 * 4) as u64));
        group.bench_function(format!("every_{frac}th"), |b| {
            let mut buf = Vec::new();
            b.iter(|| gather::gather_rows_into(std::hint::black_box(&h), &idx, &mut buf))
        });
    }
    group.finish();
}

fn bench_normalize(c: &mut Criterion) {
    let g = rmat::generate_sized(20_000, 8.0, false, 5);
    c.bench_function("normalize_adjacency_20k", |b| {
        b.iter(|| norm::normalize_adjacency(std::hint::black_box(g.adjacency())))
    });
}

/// Threaded SpMM over the skewed RMAT graph — the kernel the nnz-weighted
/// chunking exists for. Same shapes as `bench_spmm` so the speedup is
/// directly readable across groups.
fn bench_spmm_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm_threads");
    let graph = rmat::generate_sized(10_000, 8.0, false, 1);
    let a = graph.normalized_adjacency();
    let d = 64usize;
    let mut rng = StdRng::seed_from_u64(2);
    let h = Dense::random(a.n_cols(), d, &mut rng);
    group.throughput(Throughput::Elements((a.nnz() * d) as u64));
    for t in THREADS {
        let cctx = naive(t);
        group.bench_with_input(BenchmarkId::new("rmat_10k_d64", t), &t, |b, _| {
            b.iter(|| cctx.spmm(&a, std::hint::black_box(&h)))
        });
    }
    group.finish();
}

/// Threaded DMM (forward `H·W`) and its backward transposed forms
/// (`AᵀB` for `ΔW`, `G·Wᵀ` for the input gradient).
fn bench_dmm_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("dmm_threads");
    let mut rng = StdRng::seed_from_u64(3);
    let (rows, k, n) = (10_000usize, 64usize, 16usize);
    let a = Dense::random(rows, k, &mut rng);
    let w = Dense::random(k, n, &mut rng);
    let g = Dense::random(rows, n, &mut rng);
    group.throughput(Throughput::Elements((rows * k * n) as u64));
    for t in THREADS {
        let cctx = naive(t);
        group.bench_with_input(BenchmarkId::new("matmul_10000x64x16", t), &t, |b, _| {
            b.iter(|| cctx.matmul(&a, std::hint::black_box(&w)))
        });
        group.bench_with_input(BenchmarkId::new("matmul_at_10000x64x16", t), &t, |b, _| {
            b.iter(|| cctx.matmul_at(&a, std::hint::black_box(&g)))
        });
        group.bench_with_input(BenchmarkId::new("matmul_bt_10000x16x64", t), &t, |b, _| {
            b.iter(|| cctx.matmul_bt(&g, std::hint::black_box(&w)))
        });
    }
    group.finish();
}

/// Bare pool dispatch cost: post-to-workers + latch wait with an empty
/// body, versus the same trip count inline. This is the fixed price every
/// split kernel pays, and what `MIN_PARALLEL_WORK` amortizes away.
fn bench_pool_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_overhead");
    for t in THREADS {
        let pool = Pool::new(t);
        group.bench_with_input(BenchmarkId::new("empty_run", t), &t, |b, &t| {
            b.iter(|| pool.run(std::hint::black_box(t), |_| {}))
        });
    }
    group.bench_function("inline_loop_4", |b| {
        b.iter(|| {
            for i in 0..4usize {
                std::hint::black_box(i);
            }
        })
    });
    group.finish();
}

/// Naive vs blocked kernel engine head-to-head on GCN-typical skinny
/// shapes (`n × {16,64,128}` features), single thread — the single-core
/// arithmetic headroom the blocked engine exists for. Throughput is in
/// multiply-add elements, so `elements_per_s × 2 = FLOP/s` and the
/// naive/blocked ratio reads off directly at equal shapes. Results are
/// bitwise identical between engines (determinism suite), so this is a
/// pure speed comparison. Baseline: `results/kernels_blocked.json`.
fn bench_kernel_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_engine");
    let engines = [
        ("naive", ComputeCtx::serial().with_kernel(KernelKind::Naive)),
        (
            "blocked",
            ComputeCtx::serial().with_kernel(KernelKind::Blocked),
        ),
    ];
    let mut rng = StdRng::seed_from_u64(6);

    // Forward DMM H·W: tall-skinny × small square.
    let n = 8192usize;
    for d in [16usize, 64, 128] {
        let h = Dense::random(n, d, &mut rng);
        let w = Dense::random(d, d, &mut rng);
        group.throughput(Throughput::Elements((n * d * d) as u64));
        for (name, cctx) in &engines {
            group.bench_with_input(
                BenchmarkId::new(format!("gemm_{name}"), format!("{n}x{d}x{d}")),
                &d,
                |b, _| b.iter(|| cctx.matmul(std::hint::black_box(&h), &w)),
            );
        }
    }

    // Backward twins at the widest GCN shape: ΔW = HᵀG and S = G·Wᵀ.
    // `gemm_at_relu` runs ΔW on a ReLU output, half its entries exact
    // zeros in no pattern: a data-dependent zero branch in Aᵀ·B shows up
    // as the gap to `gemm_at`.
    let d = 64usize;
    let h = Dense::random(n, d, &mut rng);
    let mut h_relu = h.clone();
    h_relu.map_inplace(|v| (v - 0.5).max(0.0));
    let g = Dense::random(n, d, &mut rng);
    let w = Dense::random(d, d, &mut rng);
    group.throughput(Throughput::Elements((n * d * d) as u64));
    for (name, cctx) in &engines {
        group.bench_with_input(
            BenchmarkId::new(format!("gemm_at_{name}"), format!("{n}x{d}x{d}")),
            &d,
            |b, _| b.iter(|| cctx.matmul_at(std::hint::black_box(&h), &g)),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("gemm_at_relu_{name}"), format!("{n}x{d}x{d}")),
            &d,
            |b, _| b.iter(|| cctx.matmul_at(std::hint::black_box(&h_relu), &g)),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("gemm_bt_{name}"), format!("{n}x{d}x{d}")),
            &d,
            |b, _| b.iter(|| cctx.matmul_bt(std::hint::black_box(&g), &w)),
        );
    }

    // SpMM Â·H on the skewed RMAT graph across the same feature widths.
    let graph = rmat::generate_sized(10_000, 8.0, false, 1);
    let a = graph.normalized_adjacency();
    for d in [16usize, 64, 128] {
        let h = Dense::random(a.n_cols(), d, &mut rng);
        group.throughput(Throughput::Elements((a.nnz() * d) as u64));
        for (name, cctx) in &engines {
            group.bench_with_input(
                BenchmarkId::new(format!("spmm_{name}"), format!("rmat_10k_{d}")),
                &d,
                |b, _| b.iter(|| cctx.spmm(std::hint::black_box(&a), &h)),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_spmm,
    bench_dmm,
    bench_gather,
    bench_normalize,
    bench_spmm_threads,
    bench_dmm_threads,
    bench_pool_overhead,
    bench_kernel_engine
);
criterion_main!(benches);
