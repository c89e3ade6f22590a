//! Compute context: the per-rank handle to intra-rank thread parallelism
//! and kernel selection.
//!
//! The paper's processors each run multithreaded SuiteSparse:GraphBLAS
//! kernels; [`ComputeCtx`] is our equivalent — a shared handle to a
//! [`Pool`] that the SpMM/DMM kernels use to split row ranges across
//! threads, plus the choice of **kernel engine** ([`KernelKind`]): the
//! naive reference loops or the cache-blocked engine ([`crate::gemm`],
//! [`crate::spmm_kernel`]). One context is built per simulated rank, so
//! `p` ranks × `t` threads gives the paper's hybrid execution model.
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::gemm::{self, PackBuf};
use crate::spmm_kernel;
use crate::{Csr, Dense};
use pargcn_util::pool::{auto_threads, Pool};

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

    /// `out (+)= a × b` on the selected engine.
    pub fn matmul_into(&self, a: &Dense, b: &Dense, out: &mut Dense, accumulate: bool) {
        self.add_flops(2 * (a.rows() * a.cols() * b.cols()) as u64);
        match self.kernel {
            KernelKind::Naive => a.matmul_into_pool(b, out, accumulate, self.pool()),
            KernelKind::Blocked => {
                let mut pack = self.scratch.pack.lock().unwrap();
                gemm::matmul_into(a, b, out, accumulate, &mut pack, self.pool());
            }
        }
    }

    /// `a × b` on the selected engine.
    pub fn matmul(&self, a: &Dense, b: &Dense) -> Dense {
        let mut out = Dense::zeros(a.rows(), b.cols());
        self.matmul_into(a, b, &mut out, false);
        out
    }

    /// `out = a × bᵀ` on the selected engine.
    pub fn matmul_bt_into(&self, a: &Dense, b: &Dense, out: &mut Dense) {
        self.add_flops(2 * (a.rows() * a.cols() * b.rows()) as u64);
        match self.kernel {
            KernelKind::Naive => a.matmul_bt_into_pool(b, out, self.pool()),
            KernelKind::Blocked => {
                let mut pack = self.scratch.pack.lock().unwrap();
                gemm::matmul_bt_into(a, b, out, &mut pack, self.pool());
            }
        }
    }

    /// `a × bᵀ` on the selected engine.
    pub fn matmul_bt(&self, a: &Dense, b: &Dense) -> Dense {
        let mut out = Dense::zeros(a.rows(), b.rows());
        self.matmul_bt_into(a, b, &mut out);
        out
    }

    /// `out = aᵀ × b` (the parameter-gradient kernel) on the selected
    /// engine.
    pub fn matmul_at_into(&self, a: &Dense, b: &Dense, out: &mut Dense) {
        self.add_flops(2 * (a.rows() * a.cols() * b.cols()) as u64);
        match self.kernel {
            KernelKind::Naive => a.matmul_at_into_pool(b, out, self.pool()),
            KernelKind::Blocked => gemm::matmul_at_into(a, b, out, self.pool()),
        }
    }

    /// `aᵀ × b` on the selected engine.
    pub fn matmul_at(&self, a: &Dense, b: &Dense) -> Dense {
        let mut out = Dense::zeros(a.cols(), b.cols());
        self.matmul_at_into(a, b, &mut out);
        out
    }

    /// `out (+)= a × h` (SpMM) on the selected engine.
    pub fn spmm_into(&self, a: &Csr, h: &Dense, out: &mut Dense, accumulate: bool) {
        self.add_flops(2 * (a.nnz() * h.cols()) as u64);
        match self.kernel {
            KernelKind::Naive => a.spmm_into_pool(h, out, accumulate, self.pool()),
            KernelKind::Blocked => spmm_kernel::spmm_into(a, h, out, accumulate, self.pool()),
        }
    }

    /// `a × h` (SpMM) on the selected engine.
    pub fn spmm(&self, a: &Csr, h: &Dense) -> Dense {
        let mut out = Dense::zeros(a.n_rows(), h.cols());
        self.spmm_into(a, h, &mut out, false);
        out
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
