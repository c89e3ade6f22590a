//! Bitwise equivalence of the blocked kernel engine and the naive
//! reference, dispatched through [`ComputeCtx`].
//!
//! The engine contract (DESIGN.md §10): for every GEMM variant and SpMM,
//! at every pool size, the blocked engine produces output **bitwise
//! identical** to the naive loops — every output element is a single
//! accumulator summing its terms in the one canonical ascending order,
//! and no tiling or chunking ever regroups a sum. These tests sweep
//! qc-seeded shapes plus the adversarial corners (0-row/0-col matrices,
//! 1-wide operands, dims that are not tile multiples) at pool sizes
//! t ∈ {1, 2, 7}, and pin the shape-derived FLOP accounting.

use pargcn_matrix::{ComputeCtx, Csr, Dense, KernelKind};
use pargcn_util::qc;
use pargcn_util::rng::{Rng, StdRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Tile-adversarial dimension corners: degenerate (0), 1-wide, exactly
/// the micro-tile (4×8) and the SpMM column tile (16), one off either
/// side of each, and sizes well past one tile.
const EDGE_DIMS: [usize; 10] = [0, 1, 3, 4, 5, 8, 15, 16, 17, 37];

fn bits(d: &Dense) -> Vec<u32> {
    d.data().iter().map(|v| v.to_bits()).collect()
}

/// Dense matrix with ~20% exact zeros, so the naive kernels' `aik == 0.0`
/// skip paths are exercised against the blocked engine's skip-free loops.
fn dense(rng: &mut StdRng, r: usize, c: usize) -> Dense {
    Dense::from_fn(r, c, |_, _| {
        if rng.gen_range(0..5u32) == 0 {
            0.0
        } else {
            rng.gen_range(-2.0..2.0f32)
        }
    })
}

fn random_csr(rng: &mut StdRng, rows: usize, cols: usize) -> Csr {
    let mut coo = Vec::new();
    for r in 0..rows {
        let nnz = match rng.gen_range(0..8u32) {
            0..=1 => 0,
            7 => rng.gen_range(0..cols.min(32)),
            _ => rng.gen_range(0..4),
        };
        for _ in 0..nnz {
            coo.push((
                r as u32,
                rng.gen_range(0..cols as u32),
                rng.gen_range(-1.0..1.0),
            ));
        }
    }
    Csr::from_coo(rows, cols, coo)
}

fn ctx(kernel: KernelKind, threads: usize) -> ComputeCtx {
    ComputeCtx::with_threads(threads).with_kernel(kernel)
}

/// One qc-drawn dimension: mostly edge cases, sometimes a larger free
/// size so the multi-tile and parallel-cutoff paths run too.
fn dim(rng: &mut StdRng) -> usize {
    if rng.gen_range(0..3u32) == 0 {
        rng.gen_range(18..90)
    } else {
        EDGE_DIMS[rng.gen_range(0..EDGE_DIMS.len())]
    }
}

/// A nonzero [`dim`], for operand sides that must stay conformable with
/// a nonempty output.
fn dim_nz(rng: &mut StdRng) -> usize {
    dim(rng).max(1)
}

#[test]
fn gemm_all_variants_blocked_equals_naive_bitwise() {
    qc::run(48, |rng| {
        let (m, k, n) = (dim(rng), dim(rng), dim(rng));
        let a = dense(rng, m, k);
        let b = dense(rng, k, n);
        let bt = dense(rng, n, k);
        let at_b = dense(rng, m, n);
        for t in THREAD_COUNTS {
            let naive = ctx(KernelKind::Naive, t);
            let blocked = ctx(KernelKind::Blocked, t);
            assert_eq!(
                bits(&naive.matmul(&a, &b)),
                bits(&blocked.matmul(&a, &b)),
                "matmul {m}x{k}x{n} t={t}"
            );
            assert_eq!(
                bits(&naive.matmul_bt(&a, &bt)),
                bits(&blocked.matmul_bt(&a, &bt)),
                "matmul_bt {m}x{k}x{n} t={t}"
            );
            assert_eq!(
                bits(&naive.matmul_at(&a, &at_b)),
                bits(&blocked.matmul_at(&a, &at_b)),
                "matmul_at {m}x{k}x{n} t={t}"
            );
        }
    });
}

#[test]
fn gemm_accumulate_blocked_equals_naive_bitwise() {
    qc::run(32, |rng| {
        let (m, k, n) = (dim(rng), dim_nz(rng), dim(rng));
        let a = dense(rng, m, k);
        let b = dense(rng, k, n);
        for t in THREAD_COUNTS {
            let naive = ctx(KernelKind::Naive, t);
            let blocked = ctx(KernelKind::Blocked, t);
            // Seed the accumulator with a prior kernel output — the
            // sum-reachable state real training buffers are always in
            // (never -0.0; see DESIGN.md §10 on the zero-skip argument).
            let mut out_n = naive.matmul(&a, &b);
            let mut out_b = out_n.clone();
            naive.matmul_into(&a, &b, &mut out_n, true);
            blocked.matmul_into(&a, &b, &mut out_b, true);
            assert_eq!(bits(&out_n), bits(&out_b), "accumulate {m}x{k}x{n} t={t}");
        }
    });
}

/// A row-dependent epilogue, like backprop's `g ⊙= σ'(h)`: it reads a
/// side matrix at the global rows it is handed, so a wrong row offset in
/// the block dispatch shows up as a wrong bit.
fn side_epilogue(side: &Dense) -> impl Fn(std::ops::Range<usize>, &mut [f32]) + Sync + '_ {
    move |rows, out| {
        let w = side.cols();
        for (o, &s) in out
            .iter_mut()
            .zip(&side.data()[rows.start * w..rows.end * w])
        {
            *o = o.max(0.0) * if s > 0.0 { 1.0 } else { 0.0 };
        }
    }
}

/// Output-row counts for the epilogue tests: none, under one epilogue
/// block, and several blocks with a ragged tail.
fn epilogue_rows(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..4u32) {
        0 => 0,
        1 => rng.gen_range(1..64),
        _ => rng.gen_range(65..300),
    }
}

#[test]
fn gemm_epilogues_equal_product_then_pass_bitwise() {
    qc::run(24, |rng| {
        let (m, k, n) = (epilogue_rows(rng), dim_nz(rng), dim(rng));
        let a = dense(rng, m, k);
        let b = dense(rng, k, n);
        let bt = dense(rng, n, k);
        let side = dense(rng, m, n);
        let epi = side_epilogue(&side);
        for kernel in [KernelKind::Naive, KernelKind::Blocked] {
            for t in THREAD_COUNTS {
                let c = ctx(kernel, t);
                let label = format!("{kernel:?} {m}x{k}x{n} t={t}");
                for accumulate in [false, true] {
                    // Accumulators start from a prior product, as in training.
                    let mut want = c.matmul(&a, &b);
                    let mut got = want.clone();
                    c.matmul_into(&a, &b, &mut want, accumulate);
                    epi(0..m, want.data_mut());
                    c.matmul_into_with(&a, &b, &mut got, accumulate, &epi);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "matmul_with acc={accumulate} {label}"
                    );
                }
                let mut want = c.matmul_bt(&a, &bt);
                epi(0..m, want.data_mut());
                let mut got = Dense::zeros(m, n);
                c.matmul_bt_into_with(&a, &bt, &mut got, &epi);
                assert_eq!(bits(&got), bits(&want), "matmul_bt_with {label}");
            }
        }
    });
}

#[test]
fn gemm_at_on_relu_sparse_input_blocked_equals_naive_bitwise() {
    // ΔW = Hᵀ·(ÂG) with H a ReLU output: about half exact zeros, some of
    // them -0.0. The blocked engine multiplies through them, the naive
    // one skips them; on finite data both give the same bits.
    qc::run(32, |rng| {
        let (r, m, n) = (dim(rng), dim(rng), dim(rng));
        let a = Dense::from_fn(r, m, |_, _| match rng.gen_range(0..4u32) {
            0 => -0.0,
            1 => 0.0,
            _ => rng.gen_range(-2.0..2.0f32).max(0.0),
        });
        let b = dense(rng, r, n);
        for t in THREAD_COUNTS {
            assert_eq!(
                bits(&ctx(KernelKind::Naive, t).matmul_at(&a, &b)),
                bits(&ctx(KernelKind::Blocked, t).matmul_at(&a, &b)),
                "relu matmul_at {r}x{m}x{n} t={t}"
            );
        }
    });
}

#[test]
fn spmm_blocked_equals_naive_bitwise() {
    qc::run(48, |rng| {
        let rows = dim(rng);
        let cols = dim_nz(rng);
        let d = dim(rng);
        let a = random_csr(rng, rows, cols);
        let h = dense(rng, cols, d);
        for t in THREAD_COUNTS {
            let naive = ctx(KernelKind::Naive, t);
            let blocked = ctx(KernelKind::Blocked, t);
            let out_n = naive.spmm(&a, &h);
            let out_b = blocked.spmm(&a, &h);
            assert_eq!(bits(&out_n), bits(&out_b), "spmm {rows}x{cols}x{d} t={t}");

            let mut acc_n = out_n.clone();
            let mut acc_b = out_b;
            naive.spmm_into(&a, &h, &mut acc_n, true);
            blocked.spmm_into(&a, &h, &mut acc_b, true);
            assert_eq!(
                bits(&acc_n),
                bits(&acc_b),
                "spmm accumulate {rows}x{cols}x{d} t={t}"
            );
        }
    });
}

#[test]
fn flops_are_shape_derived_and_engine_independent() {
    let a = Dense::zeros(12, 7);
    let b = Dense::zeros(7, 5);
    let g = Dense::zeros(12, 5);
    let csr = Csr::from_coo(4, 7, vec![(0, 1, 1.0), (2, 3, 2.0), (2, 6, -1.0)]);
    let h = Dense::zeros(7, 3);
    for kernel in [KernelKind::Naive, KernelKind::Blocked] {
        let c = ctx(kernel, 1);
        let _ = c.matmul(&a, &b); // 2·12·7·5
        let _ = c.matmul_bt(&a, &a); // 2·12·7·12
        let _ = c.matmul_at(&a, &g); // 2·12·7·5
        let _ = c.spmm(&csr, &h); // 2·3·3
        assert_eq!(
            c.take_flops(),
            2 * (12 * 7 * 5) + 2 * (12 * 7 * 12) + 2 * (12 * 7 * 5) + 2 * (3 * 3),
            "{kernel:?}"
        );
        assert_eq!(c.flops(), 0, "take_flops must drain");
    }
}
