//! Compute context: the one kernel API, and the per-rank handle to
//! intra-rank thread parallelism and kernel selection.
//!
//! The paper's processors each run multithreaded SuiteSparse:GraphBLAS
//! kernels; [`ComputeCtx`] is our equivalent. Every GEMM and SpMM goes
//! through its `_into` methods, which write into caller buffers. Each one
//! checks the shapes, meters the FLOPs, and splits the output rows across
//! a shared [`Pool`] (serially below [`MIN_PARALLEL_WORK`]). It then runs
//! the selected **kernel engine**'s row-range body ([`KernelKind`]) on
//! each chunk: the naive reference loops, or the cache-blocked engine
//! ([`crate::gemm`], [`crate::spmm_kernel`]). The element-wise
//! activations ride along as **epilogues** (`matmul_into_with`,
//! `matmul_bt_into_with`): run on each block of output rows as soon as
//! it is written, so they cost no extra sweep over the output. Threading
//! never leaks into the engines. One context is built per simulated
//! rank, so `p` ranks × `t` threads gives the paper's hybrid execution
//! model.
//!
//! Every kernel dispatched here produces **bitwise identical** results
//! regardless of engine and thread count: per output element the
//! summation order is the single canonical ascending order (see
//! DESIGN.md §10), chunks write disjoint output rows, and nothing is
//! ever reduced across threads.
//!
//! The context also meters arithmetic: every dispatched kernel adds its
//! shape-derived FLOP count (2·m·k·n per GEMM, 2·nnz·d per SpMM) to a
//! shared counter the trainers drain into
//! `CommCounters::compute_flops`, making per-rank GFLOP/s reportable
//! alongside the comm/compute time split.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::gemm::{self, PackBuf};
use crate::{naive, spmm_kernel};
use crate::{Csr, Dense};
use pargcn_util::pool::{auto_threads, even_chunks, weighted_chunks, Pool};

/// Minimum per-kernel work (≈ inner-loop multiply-adds) before a kernel
/// bothers splitting across threads; below this the pool dispatch overhead
/// dominates. The cutoff is a pure function of operand shape, so a given
/// call is chunked the same way on every rank and every run.
pub const MIN_PARALLEL_WORK: usize = 16 * 1024;

/// Which kernel engine a [`ComputeCtx`] dispatches to. Both engines are
/// bitwise identical on the training pipeline's data; `Naive` exists as
/// the reference and for A/B benchmarking (`--kernel`, `PARGCN_KERNEL`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// The straightforward i-k-j / row-axpy loops.
    Naive,
    /// The packed, register-tiled engine (default).
    Blocked,
}

impl KernelKind {
    /// Parses a CLI/env spelling (`naive` | `blocked`, case-insensitive).
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s.to_ascii_lowercase().as_str() {
            "naive" => Some(KernelKind::Naive),
            "blocked" => Some(KernelKind::Blocked),
            _ => None,
        }
    }

    /// The `PARGCN_KERNEL` env var, defaulting to `Blocked` (unknown
    /// values also fall back to the default).
    pub fn from_env() -> KernelKind {
        std::env::var("PARGCN_KERNEL")
            .ok()
            .and_then(|s| KernelKind::parse(&s))
            .unwrap_or(KernelKind::Blocked)
    }

    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Naive => "naive",
            KernelKind::Blocked => "blocked",
        }
    }
}

/// Explicit per-rank compute configuration for the training entry points
/// (`None` fields fall back to the env-driven defaults: `PARGCN_THREADS`
/// and `PARGCN_KERNEL`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComputeSpec {
    /// Kernel thread-pool size per rank.
    pub threads: Option<usize>,
    /// Kernel engine.
    pub kernel: Option<KernelKind>,
}

impl ComputeSpec {
    /// Spec with only a thread count (kernel from env).
    pub fn threads(threads: Option<usize>) -> Self {
        ComputeSpec {
            threads,
            kernel: None,
        }
    }
}

/// State shared by every clone of one context: the packing scratch of
/// the blocked engine (grow-once; see [`PackBuf`]) and the FLOP meter.
#[derive(Debug, Default)]
struct Scratch {
    pack: Mutex<PackBuf>,
    flops: AtomicU64,
}

/// Cheaply cloneable handle to a per-rank thread pool plus the selected
/// kernel engine; clones share the pool, the packing scratch and the
/// FLOP counter.
#[derive(Clone, Debug)]
pub struct ComputeCtx {
    pool: Arc<Pool>,
    kernel: KernelKind,
    scratch: Arc<Scratch>,
}

impl ComputeCtx {
    /// A single-threaded context: every kernel runs inline on the caller.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// A context with exactly `threads` executors (min 1); kernel engine
    /// from `PARGCN_KERNEL` (default blocked).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            pool: Arc::new(Pool::new(threads)),
            kernel: KernelKind::from_env(),
            scratch: Arc::new(Scratch::default()),
        }
    }

    /// A context for one of `ranks` simulated processors sharing the
    /// machine: `threads` if given, else `PARGCN_THREADS`, else
    /// `available_parallelism / ranks` (see [`auto_threads`]).
    pub fn for_ranks(ranks: usize, threads: Option<usize>) -> Self {
        Self::for_ranks_spec(ranks, ComputeSpec::threads(threads))
    }

    /// As [`ComputeCtx::for_ranks`] with an explicit kernel choice.
    pub fn for_ranks_spec(ranks: usize, spec: ComputeSpec) -> Self {
        let mut ctx = Self::with_threads(auto_threads(ranks, spec.threads));
        if let Some(kernel) = spec.kernel {
            ctx.kernel = kernel;
        }
        ctx
    }

    /// Replaces the kernel engine (builder-style, for benches/tests).
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    #[inline]
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    #[inline]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    #[inline]
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// FLOPs dispatched through this context (and its clones) so far.
    pub fn flops(&self) -> u64 {
        self.scratch.flops.load(Ordering::Relaxed)
    }

    /// Drains the FLOP counter, returning the count accumulated since the
    /// last drain — the trainers call this once per run to credit the
    /// rank's `CommCounters`.
    pub fn take_flops(&self) -> u64 {
        self.scratch.flops.swap(0, Ordering::Relaxed)
    }

    #[inline]
    fn add_flops(&self, n: u64) {
        self.scratch.flops.fetch_add(n, Ordering::Relaxed);
    }

    /// Pre-sizes the blocked engine's panel-packing scratch so
    /// steady-state kernel calls never grow it — called once from
    /// `EpochWorkspace::new` with the run's largest operand shapes.
    pub fn reserve_pack(&self, panel_floats: usize) {
        self.scratch.pack.lock().unwrap().reserve(panel_floats);
    }

    /// Runs `body(rows, out_rows)` over the output rows of `out` (row
    /// width `width`): inline over all rows on a 1-thread pool or below
    /// [`MIN_PARALLEL_WORK`], else once per chunk of `split` on the pool.
    /// Chunks own disjoint output rows, so the split is bitwise invisible.
    fn for_row_chunks(
        &self,
        out: &mut [f32],
        width: usize,
        work: usize,
        split: Split<'_>,
        body: impl Fn(Range<usize>, &mut [f32]) + Sync,
    ) {
        let threads = self.threads();
        if threads == 1 || work < MIN_PARALLEL_WORK {
            body(0..split.rows(), out);
            return;
        }
        let ranges = match split {
            Split::Even(rows) => even_chunks(rows, threads),
            Split::Nnz(indptr) => weighted_chunks(indptr, threads),
        };
        self.pool
            .run_disjoint_rows(out, width, &ranges, |chunk, out_rows| {
                body(ranges[chunk].clone(), out_rows)
            });
    }

    /// `out (+)= a × b` on the selected engine.
    pub fn matmul_into(&self, a: &Dense, b: &Dense, out: &mut Dense, accumulate: bool) {
        self.matmul_into_with(a, b, out, accumulate, |_, _| {});
    }

    /// `out (+)= a × b`, then `epi(rows, out_rows)` on each block of
    /// output rows right after the block is produced, while it is still
    /// cache-hot — the forward pass's `Hᵏ = σ(Zᵏ)` without a second sweep.
    /// `rows` are global output-row indices and `out_rows` their slice of
    /// `out`. Bitwise equal to the product followed by a separate pass of
    /// `epi` over all rows, on both engines at every thread count,
    /// whenever `epi` maps each row independently.
    pub fn matmul_into_with(
        &self,
        a: &Dense,
        b: &Dense,
        out: &mut Dense,
        accumulate: bool,
        epi: impl Fn(Range<usize>, &mut [f32]) + Sync,
    ) {
        assert_eq!(a.cols(), b.rows(), "matmul dimension mismatch");
        assert_eq!(out.rows(), a.rows(), "matmul output rows mismatch");
        assert_eq!(out.cols(), b.cols(), "matmul output cols mismatch");
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        self.add_flops(2 * (m * k * n) as u64);
        let mut pack;
        let panels = match self.kernel {
            KernelKind::Naive => &[][..],
            KernelKind::Blocked => {
                pack = self.scratch.pack.lock().expect("a blocked kernel panicked");
                gemm::pack_b(b, &mut pack)
            }
        };
        let out = out.data_mut();
        self.for_row_chunks(out, n, m * k * n, Split::Even(m), |rows, out| {
            with_epilogue(rows, out, n, &epi, |rows, out| match self.kernel {
                KernelKind::Naive => naive::gemm_rows(a, b, rows, out, accumulate),
                KernelKind::Blocked => gemm::gemm_rows(a, rows, panels, n, out, accumulate),
            })
        });
    }

    /// `a × b` on the selected engine.
    pub fn matmul(&self, a: &Dense, b: &Dense) -> Dense {
        let mut out = Dense::zeros(a.rows(), b.cols());
        self.matmul_into(a, b, &mut out, false);
        out
    }

    /// `out = a × bᵀ` on the selected engine (`b` is `n×k`; `Bᵀ` is never
    /// materialized) — backpropagation's `S = (ÂG)·Wᵀ`.
    pub fn matmul_bt_into(&self, a: &Dense, b: &Dense, out: &mut Dense) {
        self.matmul_bt_into_with(a, b, out, |_, _| {});
    }

    /// `out = a × bᵀ` with a row-block epilogue, as
    /// [`ComputeCtx::matmul_into_with`] — backpropagation's
    /// `G^{k-1} = Sᵏ ⊙ σ'(H^{k-1})` formed as `Sᵏ`'s rows land.
    pub fn matmul_bt_into_with(
        &self,
        a: &Dense,
        b: &Dense,
        out: &mut Dense,
        epi: impl Fn(Range<usize>, &mut [f32]) + Sync,
    ) {
        assert_eq!(a.cols(), b.cols(), "matmul_bt dimension mismatch");
        assert_eq!(
            (out.rows(), out.cols()),
            (a.rows(), b.rows()),
            "matmul_bt_into output shape mismatch"
        );
        let (m, k, n) = (a.rows(), a.cols(), b.rows());
        self.add_flops(2 * (m * k * n) as u64);
        let mut pack;
        let panels = match self.kernel {
            KernelKind::Naive => &[][..],
            KernelKind::Blocked => {
                pack = self.scratch.pack.lock().expect("a blocked kernel panicked");
                gemm::pack_bt(b, &mut pack)
            }
        };
        let out = out.data_mut();
        self.for_row_chunks(out, n, m * k * n, Split::Even(m), |rows, out| {
            with_epilogue(rows, out, n, &epi, |rows, out| match self.kernel {
                KernelKind::Naive => naive::gemm_bt_rows(a, b, rows, out),
                KernelKind::Blocked => gemm::gemm_rows(a, rows, panels, n, out, false),
            })
        });
    }

    /// `a × bᵀ` on the selected engine.
    pub fn matmul_bt(&self, a: &Dense, b: &Dense) -> Dense {
        let mut out = Dense::zeros(a.rows(), b.rows());
        self.matmul_bt_into(a, b, &mut out);
        out
    }

    /// `out = aᵀ × b` on the selected engine (`a` is `r×m`, `b` is `r×n`)
    /// — the parameter gradient `ΔWᵏ = (H^{k-1})ᵀ (Â Gᵏ)` (paper Eq. 4).
    /// The split is over output rows (columns of `a`), each chunk
    /// sweeping every input row, so nothing is reduced across threads.
    pub fn matmul_at_into(&self, a: &Dense, b: &Dense, out: &mut Dense) {
        assert_eq!(a.rows(), b.rows(), "matmul_at dimension mismatch");
        assert_eq!(
            (out.rows(), out.cols()),
            (a.cols(), b.cols()),
            "matmul_at_into output shape mismatch"
        );
        let (r, m, n) = (a.rows(), a.cols(), b.cols());
        self.add_flops(2 * (r * m * n) as u64);
        let out = out.data_mut();
        self.for_row_chunks(out, n, r * m * n, Split::Even(m), |js, out| {
            match self.kernel {
                KernelKind::Naive => naive::gemm_at_rows(a, b, js, out),
                KernelKind::Blocked => gemm::at_rows(a, b, js, out),
            }
        });
    }

    /// `aᵀ × b` on the selected engine.
    pub fn matmul_at(&self, a: &Dense, b: &Dense) -> Dense {
        let mut out = Dense::zeros(a.cols(), b.cols());
        self.matmul_at_into(a, b, &mut out);
        out
    }

    /// `out (+)= a × h` (SpMM) on the selected engine. Rows are split by
    /// nonzero count, so a few dense hub rows don't serialize the kernel;
    /// `accumulate` is Algorithm 1 line 9, folding remote blocks `Âₘ·H`
    /// into the local product.
    pub fn spmm_into(&self, a: &Csr, h: &Dense, out: &mut Dense, accumulate: bool) {
        assert_eq!(a.n_cols(), h.rows(), "spmm dimension mismatch");
        assert_eq!(out.rows(), a.n_rows(), "spmm output rows mismatch");
        assert_eq!(out.cols(), h.cols(), "spmm output cols mismatch");
        let d = h.cols();
        self.add_flops(2 * (a.nnz() * d) as u64);
        let out = out.data_mut();
        let split = Split::Nnz(a.indptr());
        self.for_row_chunks(out, d, a.nnz() * d, split, |rows, out| match self.kernel {
            KernelKind::Naive => naive::spmm_rows(a, h, rows, out, accumulate),
            KernelKind::Blocked => spmm_kernel::spmm_rows(a, h, rows, out, accumulate),
        });
    }

    /// `a × h` (SpMM) on the selected engine.
    pub fn spmm(&self, a: &Csr, h: &Dense) -> Dense {
        let mut out = Dense::zeros(a.n_rows(), h.cols());
        self.spmm_into(a, h, &mut out, false);
        out
    }
}

/// Output rows per epilogue block: small enough that a block of the
/// widest layer is still in L1/L2 when the epilogue reads it back.
const EPI_ROWS: usize = 64;

/// Runs `body` over `rows` (whose output is `out`, `width` floats per
/// row) in blocks of [`EPI_ROWS`], each followed at once by `epi` on the
/// same block. Splitting rows is bitwise invisible to the products, so
/// only the epilogue's timing changes, never a bit.
fn with_epilogue(
    rows: Range<usize>,
    out: &mut [f32],
    width: usize,
    epi: &impl Fn(Range<usize>, &mut [f32]),
    body: impl Fn(Range<usize>, &mut [f32]),
) {
    let mut r0 = rows.start;
    while r0 < rows.end {
        let r1 = (r0 + EPI_ROWS).min(rows.end);
        let block = &mut out[(r0 - rows.start) * width..(r1 - rows.start) * width];
        body(r0..r1, block);
        epi(r0..r1, block);
        r0 = r1;
    }
}

/// How a product's output rows are chunked across the pool.
#[derive(Clone, Copy)]
enum Split<'a> {
    /// [`even_chunks`] over this many output rows (GEMM).
    Even(usize),
    /// [`weighted_chunks`] over a CSR `indptr`: balanced by nonzeros (SpMM).
    Nnz(&'a [usize]),
}

impl Split<'_> {
    fn rows(self) -> usize {
        match self {
            Split::Even(rows) => rows,
            Split::Nnz(indptr) => indptr.len() - 1,
        }
    }
}

impl Default for ComputeCtx {
    fn default() -> Self {
        Self::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_ctx_has_one_thread() {
        assert_eq!(ComputeCtx::serial().threads(), 1);
        assert_eq!(ComputeCtx::default().threads(), 1);
    }

    #[test]
    fn explicit_threads_win() {
        assert_eq!(ComputeCtx::for_ranks(4, Some(3)).threads(), 3);
    }

    #[test]
    fn clone_shares_the_pool() {
        let ctx = ComputeCtx::with_threads(2);
        let clone = ctx.clone();
        assert!(std::ptr::eq(ctx.pool(), clone.pool()));
    }

    #[test]
    fn kernel_kind_parses() {
        assert_eq!(KernelKind::parse("naive"), Some(KernelKind::Naive));
        assert_eq!(KernelKind::parse("Blocked"), Some(KernelKind::Blocked));
        assert_eq!(KernelKind::parse("simd"), None);
        assert_eq!(KernelKind::Naive.name(), "naive");
    }

    #[test]
    fn spec_kernel_overrides_env_default() {
        let spec = ComputeSpec {
            threads: Some(1),
            kernel: Some(KernelKind::Naive),
        };
        assert_eq!(
            ComputeCtx::for_ranks_spec(2, spec).kernel(),
            KernelKind::Naive
        );
        let ctx = ComputeCtx::serial().with_kernel(KernelKind::Blocked);
        assert_eq!(ctx.kernel(), KernelKind::Blocked);
    }

    #[test]
    fn flops_are_counted_from_shapes_and_shared_by_clones() {
        let ctx = ComputeCtx::serial();
        ctx.take_flops();
        let a = Dense::zeros(10, 4);
        let b = Dense::zeros(4, 3);
        let _ = ctx.matmul(&a, &b); // 2*10*4*3 = 240
        let clone = ctx.clone();
        let _ = clone.matmul_bt(&b, &b); // 2*4*3*4 = 96
        assert_eq!(ctx.flops(), 240 + 96);
        assert_eq!(ctx.take_flops(), 336);
        assert_eq!(ctx.flops(), 0);
    }

    #[test]
    fn dispatch_engines_agree_bitwise() {
        use pargcn_util::rng::{SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(4);
        let a = Dense::random(30, 12, &mut rng);
        let b = Dense::random(12, 9, &mut rng);
        let naive = ComputeCtx::serial().with_kernel(KernelKind::Naive);
        let blocked = ComputeCtx::serial().with_kernel(KernelKind::Blocked);
        let bits = |d: &Dense| d.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&naive.matmul(&a, &b)), bits(&blocked.matmul(&a, &b)));
    }
}
