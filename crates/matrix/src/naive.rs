//! The naive kernel engine: the four reference loops, each written once
//! over a range of output rows.
//!
//! [`crate::ComputeCtx`] owns the shape checks, the FLOP meter and the
//! split of a product's output rows across the pool; an engine only
//! supplies the row-range body. These bodies are the straightforward
//! loops (i-k-j GEMM, dot-product `A·Bᵀ`, output-column-split `Aᵀ·B`,
//! CSR row axpy) and the oracle the blocked engine ([`crate::gemm`],
//! [`crate::spmm_kernel`]) must match bitwise. Every output element
//! sums its terms in ascending order with one accumulator, so any split
//! of the rows gives the same bits (DESIGN.md §10).
//!
//! `out` always holds exactly the rows of `rows`: its row `0` is output
//! row `rows.start`.

use std::ops::Range;

use crate::{Csr, Dense};

/// Rows `rows` of `out (+)= a × b`, i-k-j order so the inner loop streams
/// a row of `b`; exact-zero entries of `a` are skipped.
pub(crate) fn gemm_rows(
    a: &Dense,
    b: &Dense,
    rows: Range<usize>,
    out: &mut [f32],
    accumulate: bool,
) {
    if !accumulate {
        out.fill(0.0);
    }
    let n = b.cols();
    for (i, out_row) in rows.zip(out.chunks_exact_mut(n.max(1))) {
        for (k, &aik) in a.row(i).iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(b.row(k)) {
                *o += aik * bv;
            }
        }
    }
}

/// Rows `rows` of `out = a × bᵀ`: one dot product per output element
/// (`b` is `n×k`, so `Bᵀ` is never materialized).
pub(crate) fn gemm_bt_rows(a: &Dense, b: &Dense, rows: Range<usize>, out: &mut [f32]) {
    let n = b.rows();
    for (i, out_row) in rows.zip(out.chunks_exact_mut(n.max(1))) {
        let a_row = a.row(i);
        for (j, o) in out_row.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b.row(j)) {
                acc += x * y;
            }
            *o = acc;
        }
    }
}

/// Output rows `js` (= columns of `a`) of `out = aᵀ × b`: every input row
/// `i` is swept in ascending order, touching only the owned output rows,
/// so each element accumulates its `i`-terms in the same order whatever
/// the split — no partial buffers, no cross-thread reduction.
pub(crate) fn gemm_at_rows(a: &Dense, b: &Dense, js: Range<usize>, out: &mut [f32]) {
    out.fill(0.0);
    let n = b.cols();
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let b_row = b.row(i);
        for (j, out_row) in js.clone().zip(out.chunks_exact_mut(n.max(1))) {
            let aij = a_row[j];
            if aij == 0.0 {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aij * bv;
            }
        }
    }
}

/// Rows `rows` of `out (+)= a × h` (SpMM): each output row is an axpy of
/// the `h` rows its nonzeros select, in ascending CSR order — the shape
/// of Algorithm 1 line 9 when `accumulate` folds remote blocks in.
pub(crate) fn spmm_rows(a: &Csr, h: &Dense, rows: Range<usize>, out: &mut [f32], accumulate: bool) {
    if !accumulate {
        out.fill(0.0);
    }
    let d = h.cols();
    for (i, out_row) in rows.zip(out.chunks_exact_mut(d.max(1))) {
        for (&c, &v) in a.row_indices(i).iter().zip(a.row_values(i)) {
            for (o, &x) in out_row.iter_mut().zip(h.row(c as usize)) {
                *o += v * x;
            }
        }
    }
}
