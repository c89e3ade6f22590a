//! The distributed training algorithms: Algorithm 1 (parallel feedforward)
//! and Algorithm 2 (parallel backpropagation) over the message-passing
//! runtime, run on every rank by the one training [`driver`].
//!
//! The layer loop is written once, generic over [`SpmmExchange`] — the
//! only part that varies between algorithms is how the SpMM's remote rows
//! arrive. [`RankPlan`] exchanges exactly the needed rows point-to-point
//! (the paper's algorithm); the CAGNET baseline
//! ([`crate::baselines::cagnet::CagnetRank`]) broadcasts whole blocks
//! turn by turn. Full-batch training ([`trainer`]), the mini-batch engine
//! and the per-batch mini-batch oracle ([`crate::minibatch`]) and CAGNET
//! all step the same [`Driver`].

pub mod backprop;
pub mod driver;
pub mod feedforward;
pub mod trainer;
pub mod workspace;

pub use driver::{Driver, RankData, StepInput};
pub use trainer::{train_full_batch, train_full_batch_spec, DistOutcome};
pub use workspace::{prewarm_comm_pools, EpochWorkspace, ExchangeScratch};

use crate::model::{GcnConfig, Params};
use crate::optim::OptimizerState;
use crate::plan::RankPlan;
use pargcn_comm::RankCtx;
use pargcn_matrix::{ComputeCtx, Dense};

/// How one rank's SpMM `A·X` receives the rows of `X` it does not own —
/// the single point where the training algorithms differ.
pub trait SpmmExchange: Sync {
    /// Global ids of the rows this rank owns, in local order (their count
    /// is the rank's local row count).
    fn local_rows(&self) -> &[u32];

    /// Overwrites `ax` with this rank's block of `A · X`, where `x_local`
    /// is the locally-owned row block of `X`. `tag` keys the layer and
    /// direction; `scratch` persists across every exchange of a run.
    fn exchange_into(
        &self,
        ctx: &mut RankCtx,
        x_local: &Dense,
        tag: u32,
        cctx: &ComputeCtx,
        scratch: &mut ExchangeScratch,
        ax: &mut Dense,
    );

    /// Tops this rank's payload pools and queues up for one epoch over
    /// `plan_f`/`plan_b` (idempotent; called before every driver step).
    /// The default sizes nothing and lets pools grow on demand.
    fn prewarm(ctx: &mut RankCtx, plan_f: &Self, plan_b: &Self, config: &GcnConfig) {
        let _ = (ctx, plan_f, plan_b, config);
    }
}

/// The paper's point-to-point exchange (Algorithm 1, lines 3–9).
impl SpmmExchange for RankPlan {
    fn local_rows(&self) -> &[u32] {
        &self.local_rows
    }

    fn exchange_into(
        &self,
        ctx: &mut RankCtx,
        x_local: &Dense,
        tag: u32,
        cctx: &ComputeCtx,
        scratch: &mut ExchangeScratch,
        ax: &mut Dense,
    ) {
        feedforward::spmm_exchange_into(ctx, self, x_local, tag, cctx, scratch, ax);
    }

    fn prewarm(ctx: &mut RankCtx, plan_f: &Self, plan_b: &Self, config: &GcnConfig) {
        prewarm_comm_pools(ctx, plan_f, plan_b, config);
    }
}

/// Everything one rank holds during training: its slice of the plan and
/// data, plus the replicated parameters.
pub struct RankState<'a, P = RankPlan> {
    /// Feedforward-direction plan (pattern of `Â`).
    pub plan_f: &'a P,
    /// Backpropagation-direction plan (pattern of `Âᵀ`; same object as
    /// `plan_f` for undirected graphs).
    pub plan_b: &'a P,
    pub config: &'a GcnConfig,
    /// Replicated parameter matrices (identical on every rank).
    pub params: Params,
    /// Local block of the input features `H⁰ₘ` (borrowed — never copied
    /// into the forward pass).
    pub h0: &'a Dense,
    /// Labels of owned vertices.
    pub labels: &'a [u32],
    /// Training mask of owned vertices.
    pub mask: &'a [bool],
    /// Global count of masked vertices (loss normalizer, same on all ranks).
    pub mask_total: f64,
    /// Replicated optimizer state (kept in lock-step like the parameters).
    pub opt_state: OptimizerState,
    /// This rank's thread pool for local kernels (the paper's per-processor
    /// multithreaded GraphBLAS layer). Pooled kernels are bitwise identical
    /// to serial, so the thread count never changes results.
    pub ctx: ComputeCtx,
}

/// Local intermediates of one forward pass (per rank), living in the
/// persistent [`EpochWorkspace`] and overwritten every epoch. Only the
/// activations are kept: `σ` is applied to `Zᵏ`'s rows as they are
/// produced, and backpropagation reads `σ'` from `Hᵏ` (see
/// [`crate::activations`]), so no `Zᵏ` is ever stored.
pub struct LocalForward {
    /// `H¹ₘ…H^Lₘ` (`h[k−1]` is `Hᵏₘ`; `H⁰ₘ` stays in
    /// [`RankState::h0`] — it never changes, so it is never copied).
    pub h: Vec<Dense>,
}

impl LocalForward {
    /// The output-layer activations `H^Lₘ`.
    pub fn output(&self) -> &Dense {
        self.h.last().expect("at least one layer")
    }
}

/// Base tag for feedforward layer messages; layer `k` uses `TAG_FWD + k`.
pub const TAG_FWD: u32 = 0;
/// Base tag for backpropagation layer messages.
pub const TAG_BWD: u32 = 4096;
