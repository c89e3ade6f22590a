//! Cache-blocked GEMM engine: the blocked row-range bodies behind
//! [`crate::ComputeCtx`]'s three dense products (which own the shape
//! checks, the split of output rows across threads, and the row-block
//! epilogues that fuse `σ` and `σ'⊙` into `A·B` and `A·Bᵀ`).
//!
//! The classic packing scheme (Goto & van de Geijn): the right-hand
//! operand is copied once per call into `NR`-wide **column panels** laid
//! out k-major, so the micro-kernel's inner loop reads one contiguous
//! `NR`-float line per `k` step regardless of the original leading
//! dimension. Over the panels runs an `MR×NR` register-tiled micro-kernel
//! holding all `MR·NR` accumulators in registers across the whole `k`
//! loop — the naive kernels instead re-read and re-write the output row
//! from memory on every `k` step.
//!
//! **Bitwise contract** (DESIGN.md §10): every output element is produced
//! by a single accumulator summing its `k` terms in strictly ascending
//! order — exactly the naive kernels' per-element order. Every blocked
//! body multiplies through zeros; the naive kernels' `a == 0.0 → skip`
//! shortcut is a bitwise no-op on finite data (a `±0.0·b` term never
//! changes an accumulator that is not `-0.0`, and ascending sums started
//! from `+0.0` can never reach `-0.0`), so blocked and naive agree
//! bit-for-bit, at every thread count, whenever `b` is finite. The
//! property suite (`tests/kernel_engine.rs`) pins this across
//! adversarial shapes.
//!
//! The transposed-operand variants share the machinery where it helps:
//! `A·B` packs `B` directly and `A·Bᵀ` packs `B`'s columns during the
//! copy (a transposing pack) — the panel buffer lives in [`PackBuf`] and
//! grows once to the largest shape it ever sees, so steady-state calls
//! allocate nothing. `Aᵀ·B` (the `ΔW` gradient shape: a huge reduction
//! dimension onto a tiny output) is different: packing either operand
//! would copy more memory than the whole multiply reads, so it gets its
//! own pack-free kernel — an input-row-blocked outer product with
//! register-tiled output columns (see [`at_rows`]).

use std::ops::Range;

use crate::dense::Dense;

/// Micro-kernel output-tile height (rows of `A` per tile).
pub const MR: usize = 4;
/// Micro-kernel output-tile width (columns of `B` per panel).
pub const NR: usize = 8;

/// Grow-once packing scratch. One per [`crate::ComputeCtx`]; reused by
/// every blocked call, so after the first pass over the largest operand
/// shapes the engine is allocation-free.
#[derive(Debug, Default)]
pub struct PackBuf {
    /// The B operand packed into `NR`-wide column panels (k-major).
    panels: Vec<f32>,
}

impl PackBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the panel buffer to at least the given float count. Called
    /// once at workspace setup (`EpochWorkspace::new`) so that no
    /// steady-state kernel call ever needs to grow it.
    pub fn reserve(&mut self, panel_floats: usize) {
        if self.panels.len() < panel_floats {
            self.panels.resize(panel_floats, 0.0);
        }
    }
}

/// Packs `b` (`k×n`, row-major) into column panels — panel `jp` holds
/// columns `[jp, jp+w)` contiguously k-major at offset `jp*k` — and
/// returns them.
pub(crate) fn pack_b<'p>(b: &Dense, pack: &'p mut PackBuf) -> &'p [f32] {
    let (k, n) = (b.rows(), b.cols());
    let b = b.data();
    pack.reserve(k * n);
    let mut jp = 0;
    while jp < n {
        let w = NR.min(n - jp);
        let dst = &mut pack.panels[jp * k..jp * k + k * w];
        for kk in 0..k {
            dst[kk * w..kk * w + w].copy_from_slice(&b[kk * n + jp..kk * n + jp + w]);
        }
        jp += w;
    }
    &pack.panels[..k * n]
}

/// Transposing pack: treats `b` (`n×k`, row-major) as its transpose
/// `Bᵀ` (`k×n`) and packs that into column panels — the `A·Bᵀ` product
/// never materializes `Bᵀ`.
pub(crate) fn pack_bt<'p>(b: &Dense, pack: &'p mut PackBuf) -> &'p [f32] {
    let (n, k) = (b.rows(), b.cols());
    let b = b.data();
    pack.reserve(k * n);
    let mut jp = 0;
    while jp < n {
        let w = NR.min(n - jp);
        let dst = &mut pack.panels[jp * k..jp * k + k * w];
        for kk in 0..k {
            for jj in 0..w {
                dst[kk * w + jj] = b[(jp + jj) * k + kk];
            }
        }
        jp += w;
    }
    &pack.panels[..k * n]
}

/// Input rows per block of the `Aᵀ·B` outer-product kernel: the register
/// accumulators for one output tile persist across this many reduction
/// steps before spilling back to the (cache-hot) output.
const AT_IB: usize = 16;

/// One `W`-wide output-column tile of one input-row block:
/// `acc[jj] (+)= a[i][j] · b[i][n0+jj]` over the block's rows `i`,
/// ascending. `a_blk`/`b_blk` hold just the block's rows (`m`/`n` floats
/// each), so the row walk needs no per-row index arithmetic. `W` is
/// constant so the accumulators stay in registers and the body
/// vectorizes. There is no `aij == 0.0` skip: on a ReLU output `a` half
/// the entries are zeros in no pattern, and the branch would mispredict
/// on them. Multiplying through adds `±0.0` terms, which leave the
/// accumulator's bits alone while `b` is finite (module docs).
#[inline]
fn at_tile_pass<const W: usize>(
    a_blk: &[f32],
    m: usize,
    j: usize,
    b_blk: &[f32],
    n: usize,
    n0: usize,
    out_row: &mut [f32],
) {
    let mut acc: [f32; W] = out_row.try_into().expect("the caller hands a W-wide tile");
    for (ar, br) in a_blk.chunks_exact(m).zip(b_blk.chunks_exact(n)) {
        let aij = ar[j];
        let br: &[f32; W] = br[n0..n0 + W].try_into().expect("a W-long slice");
        for jj in 0..W {
            acc[jj] += aij * br[jj];
        }
    }
    out_row.copy_from_slice(&acc);
}

/// Dynamic-width edge tile for the sub-16 remainder columns.
#[inline]
fn at_edge_pass(
    a_blk: &[f32],
    m: usize,
    j: usize,
    b_blk: &[f32],
    n: usize,
    n0: usize,
    out_row: &mut [f32],
) {
    let w = out_row.len();
    let mut acc = [0.0f32; 16];
    acc[..w].copy_from_slice(out_row);
    for (ar, br) in a_blk.chunks_exact(m).zip(b_blk.chunks_exact(n)) {
        let aij = ar[j];
        for (acc, &bv) in acc.iter_mut().zip(&br[n0..n0 + w]) {
            *acc += aij * bv;
        }
    }
    out_row.copy_from_slice(&acc[..w]);
}

/// `Aᵀ·B` over output rows `js` (= columns of `a`): for each block of
/// `AT_IB` input rows, sweep the owned output rows tile by tile, keeping
/// each tile's partial sums in registers across the block. The whole
/// output stays cache-hot (it is `a.cols × b.cols` — feature-sized), both
/// inputs are streamed through exactly once, and every output element
/// still sums its terms in ascending input-row order — the naive
/// engine's order, bit for bit (on finite `b`; see [`at_tile_pass`]).
/// Packing either operand would copy more memory than the whole multiply
/// reads, so this body is pack-free.
pub(crate) fn at_rows(a: &Dense, b: &Dense, js: Range<usize>, out_rows: &mut [f32]) {
    let (r, m, n) = (a.rows(), a.cols(), b.cols());
    let (a, b) = (a.data(), b.data());
    out_rows.fill(0.0);
    let mut i0 = 0;
    while i0 < r {
        let ie = (i0 + AT_IB).min(r);
        let (a_blk, b_blk) = (&a[i0 * m..ie * m], &b[i0 * n..ie * n]);
        for j in js.clone() {
            let local = j - js.start;
            let mut n0 = 0;
            while n0 < n {
                let w = match n - n0 {
                    rem if rem >= 64 => 64,
                    rem if rem >= 32 => 32,
                    rem if rem >= 16 => 16,
                    rem => rem,
                };
                let out_row = &mut out_rows[local * n + n0..local * n + n0 + w];
                match w {
                    64 => at_tile_pass::<64>(a_blk, m, j, b_blk, n, n0, out_row),
                    32 => at_tile_pass::<32>(a_blk, m, j, b_blk, n, n0, out_row),
                    16 => at_tile_pass::<16>(a_blk, m, j, b_blk, n, n0, out_row),
                    _ => at_edge_pass(a_blk, m, j, b_blk, n, n0, out_row),
                }
                n0 += w;
            }
        }
        i0 = ie;
    }
}

/// Full `MR×NR` tile: all 32 accumulators live in registers across the
/// whole `k` loop; the loop bounds are compile-time constants so the body
/// vectorizes. `a` starts at the tile's first row (stride `lda`); `out`
/// starts at the tile's first output row (stride `ldc`, column offset
/// `j0`). Each accumulator sums its terms in ascending `kk` — the
/// bitwise-canonical order. The `k` loop zips the panel's `NR`-float
/// lines with the tile's `MR` row slices, so it carries no bounds checks
/// and keeps every row pointer in a register.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_full(
    a: &[f32],
    lda: usize,
    panel: &[f32],
    k: usize,
    out: &mut [f32],
    ldc: usize,
    j0: usize,
    accumulate: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if accumulate {
        for (ii, acc_row) in acc.iter_mut().enumerate() {
            acc_row.copy_from_slice(&out[ii * ldc + j0..ii * ldc + j0 + NR]);
        }
    }
    let [r0, r1, r2, r3]: [&[f32]; MR] = std::array::from_fn(|ii| &a[ii * lda..ii * lda + k]);
    let a_cols = r0.iter().zip(r1).zip(r2.iter().zip(r3));
    for (bp, ((&a0, &a1), (&a2, &a3))) in panel.chunks_exact(NR).zip(a_cols) {
        let bp: &[f32; NR] = bp.try_into().expect("chunks_exact yields NR floats");
        for (acc_row, aik) in acc.iter_mut().zip([a0, a1, a2, a3]) {
            for jj in 0..NR {
                acc_row[jj] += aik * bp[jj];
            }
        }
    }
    for (ii, acc_row) in acc.iter().enumerate() {
        out[ii * ldc + j0..ii * ldc + j0 + NR].copy_from_slice(acc_row);
    }
}

/// Remainder tile (`mr ≤ MR` rows, `w ≤ NR` columns) with runtime
/// bounds; same register accumulators and the same ascending-`kk` order.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_edge(
    a: &[f32],
    lda: usize,
    mr: usize,
    panel: &[f32],
    w: usize,
    k: usize,
    out: &mut [f32],
    ldc: usize,
    j0: usize,
    accumulate: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if accumulate {
        for (ii, acc_row) in acc.iter_mut().enumerate().take(mr) {
            acc_row[..w].copy_from_slice(&out[ii * ldc + j0..ii * ldc + j0 + w]);
        }
    }
    for kk in 0..k {
        let bp = &panel[kk * w..kk * w + w];
        for (ii, acc_row) in acc.iter_mut().enumerate().take(mr) {
            let aik = a[ii * lda + kk];
            for (jj, &bv) in bp.iter().enumerate() {
                acc_row[jj] += aik * bv;
            }
        }
    }
    for (ii, acc_row) in acc.iter().enumerate().take(mr) {
        out[ii * ldc + j0..ii * ldc + j0 + w].copy_from_slice(&acc_row[..w]);
    }
}

/// Runs the micro-kernels over rows `rows` of `a` against the panels of
/// an `n`-column right operand, writing those output rows into `out`. A
/// split only regroups rows and per-element sums are row-independent, so
/// splitting is bitwise invisible.
pub(crate) fn gemm_rows(
    a: &Dense,
    rows: Range<usize>,
    panels: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    let (m, k) = (rows.len(), a.cols());
    let a = &a.data()[rows.start * k..];
    let mut i0 = 0;
    while i0 < m {
        let mr = MR.min(m - i0);
        let a_tile = &a[i0 * k..];
        let mut jp = 0;
        while jp < n {
            let w = NR.min(n - jp);
            let panel = &panels[jp * k..jp * k + k * w];
            let out_tile = &mut out[i0 * n..];
            if mr == MR && w == NR {
                micro_full(a_tile, k, panel, k, out_tile, n, jp, accumulate);
            } else {
                micro_edge(a_tile, k, mr, panel, w, k, out_tile, n, jp, accumulate);
            }
            jp += w;
        }
        i0 += mr;
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

    fn random(rows: usize, cols: usize, seed: u64) -> Dense {
        let mut rng = StdRng::seed_from_u64(seed);
        Dense::from_fn(rows, cols, |_, _| {
            // Mix in exact zeros so the naive zero-skip path is exercised.
            if rng.gen::<f32>() < 0.2 {
                0.0
            } else {
                rng.gen_range(-1.0..=1.0)
            }
        })
    }

    fn engines(threads: usize) -> (ComputeCtx, ComputeCtx) {
        let ctx = ComputeCtx::with_threads(threads);
        (
            ctx.clone().with_kernel(KernelKind::Naive),
            ctx.with_kernel(KernelKind::Blocked),
        )
    }

    #[test]
    fn blocked_matmul_matches_naive_bitwise() {
        let (naive, blocked) = engines(1);
        for (m, k, n) in [(7, 5, 9), (64, 32, 16), (1, 1, 1), (13, 8, 8), (100, 3, 17)] {
            let a = random(m, k, 1);
            let b = random(k, n, 2);
            assert_eq!(
                bits(&naive.matmul(&a, &b)),
                bits(&blocked.matmul(&a, &b)),
                "shape {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn blocked_accumulate_matches_naive_bitwise() {
        let (naive, blocked) = engines(2);
        let a = random(33, 17, 3);
        let b = random(17, 12, 4);
        // Accumulator contents must be sum-reachable (never -0.0): use a
        // prior product, exactly like the trainers do.
        let mut out_n = naive.matmul(&a, &b);
        let mut out_b = out_n.clone();
        naive.matmul_into(&a, &b, &mut out_n, true);
        blocked.matmul_into(&a, &b, &mut out_b, true);
        assert_eq!(bits(&out_n), bits(&out_b));
    }

    #[test]
    fn blocked_bt_and_at_match_naive_bitwise() {
        let (naive, blocked) = engines(1);
        let a = random(21, 10, 5);
        let b = random(14, 10, 6);
        assert_eq!(
            bits(&naive.matmul_bt(&a, &b)),
            bits(&blocked.matmul_bt(&a, &b))
        );

        let h = random(50, 6, 7);
        let g = random(50, 11, 8);
        assert_eq!(
            bits(&naive.matmul_at(&h, &g)),
            bits(&blocked.matmul_at(&h, &g))
        );
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        let (naive, blocked) = engines(1);
        for (m, k, n) in [(0, 4, 4), (4, 0, 4), (4, 4, 0), (0, 0, 0)] {
            let a = Dense::zeros(m, k);
            let b = Dense::zeros(k, n);
            assert_eq!(bits(&naive.matmul(&a, &b)), bits(&blocked.matmul(&a, &b)));
        }
    }

    #[test]
    fn pack_buf_grows_once() {
        let mut pack = PackBuf::new();
        pack.reserve(100);
        let p0 = pack.panels.as_ptr();
        pack.reserve(80); // smaller: no move
        assert_eq!(p0, pack.panels.as_ptr());
    }
}
