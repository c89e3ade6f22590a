//! Row-block × column-tile SpMM kernel: the blocked engine's row-range
//! body behind [`crate::ComputeCtx::spmm_into`] (which owns the shape
//! checks and the nnz-weighted split of rows across threads).
//!
//! The naive engine's SpMM is a scalar row-wise axpy: every
//! nonzero re-reads and re-writes the whole `d`-wide output row from
//! memory. This kernel instead walks each row's nonzeros once per
//! **column tile** of the dense operand, holding the tile's partial sums
//! in a register accumulator array across the entire nonzero loop — the
//! output row is loaded and stored once per tile instead of once per
//! nonzero. Tiles are taken greedily wide (64, then 32, then 16 columns,
//! each a monomorphized kernel with constant loop bounds) so the GCN
//! feature widths {16, 32, 64, 128} need at most two passes over a row's
//! nonzeros; narrow tiles would multiply the (random-access) `H`-row
//! gathers instead. Rows are visited in small blocks so neighbouring
//! rows (which share many columns on real graphs) reuse the same `H`
//! tile columns while they are cache-hot.
//!
//! **Bitwise contract**: splitting a row's `d` output columns into tiles
//! never regroups any sums — each output element still accumulates its
//! nonzero terms in ascending CSR order with a single accumulator, which
//! is exactly the naive kernel's order. Blocked ≡ naive bit-for-bit on
//! every input, at every thread count (see DESIGN.md §10).

use std::ops::Range;

use crate::csr::Csr;
use crate::dense::Dense;

/// Rows per block: consecutive rows processed tile-by-tile together so
/// their (overlapping) column accesses reuse hot cache lines.
const RB: usize = 8;

/// One full-width tile pass over a single row's nonzeros: `W` constant
/// so the accumulator array stays in registers (or at worst L1 spill
/// slots) and the inner loop fully vectorizes.
#[inline]
fn tile_pass<const W: usize>(
    cols: &[u32],
    vals: &[f32],
    h: &Dense,
    j0: usize,
    out_row: &mut [f32],
    accumulate: bool,
) {
    let mut acc = [0.0f32; W];
    if accumulate {
        acc.copy_from_slice(out_row);
    }
    for (&c, &v) in cols.iter().zip(vals) {
        let hr: &[f32; W] = h.row(c as usize)[j0..j0 + W].try_into().unwrap();
        for jj in 0..W {
            acc[jj] += v * hr[jj];
        }
    }
    out_row.copy_from_slice(&acc);
}

/// Dynamic-width edge pass for the sub-16 remainder columns.
#[inline]
fn edge_pass(
    cols: &[u32],
    vals: &[f32],
    h: &Dense,
    j0: usize,
    out_row: &mut [f32],
    accumulate: bool,
) {
    let w = out_row.len();
    let mut acc = [0.0f32; 16];
    if accumulate {
        acc[..w].copy_from_slice(out_row);
    }
    for (&c, &v) in cols.iter().zip(vals) {
        let hr = &h.row(c as usize)[j0..j0 + w];
        for (jj, &x) in hr.iter().enumerate() {
            acc[jj] += v * x;
        }
    }
    out_row.copy_from_slice(&acc[..w]);
}

/// Rows `rows` of `out (+)= a × h`, written into `out` from its first
/// row on (row-major, width `d = h.cols()`).
pub(crate) fn spmm_rows(a: &Csr, h: &Dense, rows: Range<usize>, out: &mut [f32], accumulate: bool) {
    let (row0, m, d) = (rows.start, rows.len(), h.cols());
    let mut ib = 0;
    while ib < m {
        let ie = (ib + RB).min(m);
        let mut j0 = 0;
        while j0 < d {
            // Greedy widest tile: fewer passes over each row's nonzeros
            // means fewer repeat gathers of the same (random) `H` rows.
            let w = match d - j0 {
                rem if rem >= 64 => 64,
                rem if rem >= 32 => 32,
                rem if rem >= 16 => 16,
                rem => rem,
            };
            for li in ib..ie {
                let cols = a.row_indices(row0 + li);
                let vals = a.row_values(row0 + li);
                let out_row = &mut out[li * d + j0..li * d + j0 + w];
                match w {
                    64 => tile_pass::<64>(cols, vals, h, j0, out_row, accumulate),
                    32 => tile_pass::<32>(cols, vals, h, j0, out_row, accumulate),
                    16 => tile_pass::<16>(cols, vals, h, j0, out_row, accumulate),
                    _ => edge_pass(cols, vals, h, j0, out_row, accumulate),
                }
            }
            j0 += w;
        }
        ib = ie;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputeCtx, KernelKind};
    use pargcn_util::rng::{Rng, SeedableRng, StdRng};

    fn bits(d: &Dense) -> Vec<u32> {
        d.data().iter().map(|v| v.to_bits()).collect()
    }

    fn random_csr(rows: usize, cols: usize, per_row: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut triplets = Vec::new();
        for i in 0..rows {
            for _ in 0..per_row {
                let c = rng.gen_range(0..cols.max(1)) as u32;
                triplets.push((i as u32, c, rng.gen_range(-1.0..=1.0)));
            }
        }
        Csr::from_coo(rows, cols, triplets)
    }

    #[test]
    fn blocked_spmm_matches_naive_bitwise() {
        let naive = ComputeCtx::serial().with_kernel(KernelKind::Naive);
        let blocked = ComputeCtx::serial().with_kernel(KernelKind::Blocked);
        let mut rng = StdRng::seed_from_u64(9);
        for (rows, cols, d) in [(40, 30, 16), (17, 23, 5), (8, 8, 33), (3, 50, 1)] {
            let a = random_csr(rows, cols, 4, rows as u64);
            let h = Dense::random(cols, d, &mut rng);
            let out_n = naive.spmm(&a, &h);
            let mut out_b = blocked.spmm(&a, &h);
            assert_eq!(bits(&out_n), bits(&out_b), "{rows}x{cols} d={d}");

            // Accumulating path, seeded with a sum-reachable value.
            let mut acc_n = out_n.clone();
            naive.spmm_into(&a, &h, &mut acc_n, true);
            blocked.spmm_into(&a, &h, &mut out_b, true);
            assert_eq!(bits(&acc_n), bits(&out_b));
        }
    }

    #[test]
    fn empty_and_zero_row_matrices() {
        let ctx = ComputeCtx::with_threads(2).with_kernel(KernelKind::Blocked);
        let a = Csr::from_coo(0, 5, vec![]);
        let h = Dense::zeros(5, 7);
        assert_eq!(ctx.spmm(&a, &h).rows(), 0);
        let a = Csr::from_coo(4, 5, vec![]); // rows but no nonzeros
        let mut out = Dense::from_fn(4, 7, |_, _| 1.0);
        ctx.spmm_into(&a, &h, &mut out, false);
        assert!(out.data().iter().all(|&v| v == 0.0));
    }
}
