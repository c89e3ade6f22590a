//! Bitwise determinism of the kernel API across engines and pool sizes.
//!
//! The contract (DESIGN.md §10): every [`ComputeCtx`] product produces
//! output **bitwise identical** to the naive engine on one thread, for
//! both engines at any thread count, because chunks write disjoint output
//! rows and nothing is reduced across threads. These tests pin that down
//! over qc-seeded shapes, including empty rows, skewed (hub-heavy)
//! sparsity, and row counts far above the chunk count.

use pargcn_matrix::{ComputeCtx, Csr, Dense, KernelKind};
use pargcn_util::qc;
use pargcn_util::rng::{Rng, SeedableRng, StdRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

fn bits(d: &Dense) -> Vec<u32> {
    d.data().iter().map(|v| v.to_bits()).collect()
}

/// The reference every context is compared against: naive, one thread.
fn reference() -> ComputeCtx {
    ComputeCtx::serial().with_kernel(KernelKind::Naive)
}

/// Both engines at every pool size in [`THREAD_COUNTS`].
fn contexts() -> Vec<ComputeCtx> {
    [KernelKind::Naive, KernelKind::Blocked]
        .into_iter()
        .flat_map(|k| THREAD_COUNTS.map(|t| ComputeCtx::with_threads(t).with_kernel(k)))
        .collect()
}

fn label(ctx: &ComputeCtx) -> String {
    format!("{} at {} threads", ctx.kernel().name(), ctx.threads())
}

/// Random CSR with forced empty rows and a few dense "hub" rows, so the
/// nnz-weighted chunking sees the skew it exists for.
fn random_csr(rng: &mut StdRng, rows: usize, cols: usize) -> Csr {
    let mut coo = Vec::new();
    for r in 0..rows {
        let nnz = match rng.gen_range(0..10u32) {
            0..=2 => 0,                          // empty row
            9 => rng.gen_range(0..cols.min(64)), // hub row
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

#[test]
fn spmm_bitwise_equal_across_thread_counts() {
    let ctxs = contexts();
    qc::run(24, |rng| {
        let rows = rng.gen_range(1..600);
        let cols = rng.gen_range(1..400);
        let d = rng.gen_range(1..48);
        let a = random_csr(rng, rows, cols);
        let h = Dense::random(cols, d, rng);
        let expected = reference().spmm(&a, &h);
        // The accumulate path too, seeded with a prior product.
        let mut twice = expected.clone();
        reference().spmm_into(&a, &h, &mut twice, true);
        for ctx in &ctxs {
            let mut out = ctx.spmm(&a, &h);
            assert_eq!(bits(&out), bits(&expected), "spmm, {}", label(ctx));
            ctx.spmm_into(&a, &h, &mut out, true);
            assert_eq!(bits(&out), bits(&twice), "spmm accumulate, {}", label(ctx));
        }
    });
}

#[test]
fn matmul_bitwise_equal_across_thread_counts() {
    let ctxs = contexts();
    qc::run(24, |rng| {
        let m = rng.gen_range(1..400);
        let k = rng.gen_range(1..48);
        let n = rng.gen_range(1..48);
        let a = Dense::random(m, k, rng);
        let b = Dense::random(k, n, rng);
        let expected = reference().matmul(&a, &b);
        let mut twice = expected.clone();
        reference().matmul_into(&a, &b, &mut twice, true);
        for ctx in &ctxs {
            let mut out = ctx.matmul(&a, &b);
            assert_eq!(bits(&out), bits(&expected), "matmul, {}", label(ctx));
            ctx.matmul_into(&a, &b, &mut out, true);
            assert_eq!(
                bits(&out),
                bits(&twice),
                "matmul accumulate, {}",
                label(ctx)
            );
        }
    });
}

#[test]
fn matmul_bt_bitwise_equal_across_thread_counts() {
    let ctxs = contexts();
    qc::run(24, |rng| {
        let m = rng.gen_range(1..400);
        let k = rng.gen_range(1..48);
        let n = rng.gen_range(1..64);
        let a = Dense::random(m, k, rng);
        let b = Dense::random(n, k, rng);
        let expected = bits(&reference().matmul_bt(&a, &b));
        for ctx in &ctxs {
            let mut out = Dense::zeros(m, n);
            ctx.matmul_bt_into(&a, &b, &mut out);
            assert_eq!(bits(&out), expected, "matmul_bt, {}", label(ctx));
        }
    });
}

/// `out = relu(out) ⊙ [side > 0]` on the handed rows: row-dependent, so
/// the global row indices each block gets are checked too.
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

#[test]
fn epilogue_products_bitwise_equal_across_thread_counts() {
    let ctxs = contexts();
    qc::run(24, |rng| {
        // 0 rows, or enough rows that every pool size splits the product
        // into chunks of several epilogue blocks with ragged ends.
        let m = if rng.gen_range(0..6u32) == 0 {
            0
        } else {
            rng.gen_range(1..700)
        };
        let k = rng.gen_range(1..48);
        let n = rng.gen_range(1..48);
        let a = Dense::from_fn(m, k, |_, _| rng.gen_range(-1.0..1.0f32));
        let b = Dense::from_fn(k, n, |_, _| rng.gen_range(-1.0..1.0f32));
        let bt = Dense::from_fn(n, k, |_, _| rng.gen_range(-1.0..1.0f32));
        let side = Dense::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0f32));
        let epi = side_epilogue(&side);
        // The reference: naive on one thread, then a separate pass.
        let mut want = reference().matmul(&a, &b);
        epi(0..m, want.data_mut());
        let mut want_bt = reference().matmul_bt(&a, &bt);
        epi(0..m, want_bt.data_mut());
        for ctx in &ctxs {
            let mut out = Dense::zeros(m, n);
            ctx.matmul_into_with(&a, &b, &mut out, false, &epi);
            assert_eq!(bits(&out), bits(&want), "matmul_with, {}", label(ctx));
            ctx.matmul_bt_into_with(&a, &bt, &mut out, &epi);
            assert_eq!(bits(&out), bits(&want_bt), "matmul_bt_with, {}", label(ctx));
        }
    });
}

#[test]
fn matmul_at_bitwise_equal_across_thread_counts() {
    let ctxs = contexts();
    qc::run(24, |rng| {
        let n = rng.gen_range(1..400);
        let m = rng.gen_range(1..64);
        let k = rng.gen_range(1..48);
        let a = Dense::random(n, m, rng);
        let b = Dense::random(n, k, rng);
        let expected = bits(&reference().matmul_at(&a, &b));
        for ctx in &ctxs {
            let mut out = Dense::zeros(m, k);
            ctx.matmul_at_into(&a, &b, &mut out);
            assert_eq!(bits(&out), expected, "matmul_at, {}", label(ctx));
        }
    });
}

#[test]
fn rows_far_exceeding_chunk_count() {
    // One big deterministic case: 20k rows on a 7-thread pool, so every
    // chunk spans thousands of rows.
    let mut rng = StdRng::seed_from_u64(42);
    let a = random_csr(&mut rng, 20_000, 500);
    let h = Dense::random(500, 16, &mut rng);
    let expected = bits(&reference().spmm(&a, &h));
    for ctx in contexts() {
        assert_eq!(bits(&ctx.spmm(&a, &h)), expected, "{}", label(&ctx));
    }
}
