//! Persistent per-rank training workspaces.
//!
//! Every buffer one rank needs across a training run — the `A·X`
//! accumulators of the SpMM exchange, the arrived-payload slots, the
//! forward activations `H`, the backward gradient-flow matrices —
//! is allocated *once* here and reused across layers, epochs,
//! feedforward and backpropagation. Together with the comm runtime's
//! payload pools (`pargcn_comm::bufpool`, pre-warmed by
//! [`prewarm_comm_pools`]) this makes the steady-state epoch loop free of
//! heap allocation on its communication path, which the
//! counting-allocator test (`no_alloc_steady_state`) pins down.

use super::{LocalForward, SpmmExchange};
use crate::model::{GcnConfig, LayerOrder};
use crate::plan::RankPlan;
use pargcn_comm::RankCtx;
use pargcn_matrix::{ComputeCtx, Dense};

/// Scratch state of one in-flight exchange. For [`spmm_exchange_into`]:
/// a slot per remote block for payloads that arrived out of plan order,
/// plus the peer → slot map, re-keyed by `begin` (forward and backward
/// plans may have different receive sets). For CAGNET's broadcasts: the
/// stage payload. Reused across every exchange of a run.
///
/// [`spmm_exchange_into`]: super::feedforward::spmm_exchange_into
pub struct ExchangeScratch {
    /// `arrived[i]` buffers the payload of remote block `i` until every
    /// earlier block has been folded (plan-order accumulation).
    pub(crate) arrived: Vec<Option<Vec<f32>>>,
    /// Peer rank → remote-block index for the current exchange.
    pub(crate) peer_slot: Vec<u32>,
    /// One broadcast stage's block, grown once to the largest block.
    pub(crate) stage: Vec<f32>,
}

impl ExchangeScratch {
    /// Scratch for a `p`-rank job.
    pub fn new(p: usize) -> Self {
        ExchangeScratch {
            arrived: Vec::new(),
            peer_slot: vec![u32::MAX; p],
            stage: Vec::new(),
        }
    }

    /// Re-keys the scratch for an exchange over `plan`. Allocation-free
    /// once `arrived` has grown to the largest receive set.
    pub(crate) fn begin(&mut self, plan: &RankPlan) {
        self.arrived.clear();
        self.arrived.resize_with(plan.a_remote.len(), || None);
        for (i, block) in plan.a_remote.iter().enumerate() {
            self.peer_slot[block.peer] = i as u32;
        }
    }

    #[inline]
    pub(crate) fn slot_of(&self, peer: usize) -> usize {
        let s = self.peer_slot[peer];
        debug_assert_ne!(s, u32::MAX, "message from a peer outside the plan");
        s as usize
    }
}

/// All persistent matrices one rank reuses every epoch.
pub struct EpochWorkspace {
    /// Exchange scratch shared by every layer in both directions.
    pub exchange: ExchangeScratch,
    /// Forward activations `H¹…H^L` (`H⁰` stays in `RankState`, never
    /// copied).
    pub fwd: LocalForward,
    /// Forward exchange accumulators (SpmmFirst only): `ax_f[k−1]` holds
    /// this rank's block of `Â·H^{k-1}`. DmmFirst aggregates straight
    /// into `fwd.h`, so the list is empty there.
    pub ax_f: Vec<Dense>,
    /// Backward exchange accumulators: `ax_b[k−1]` holds `(Â'Gᵏ)ₘ`.
    pub ax_b: Vec<Dense>,
    /// DmmFirst-only scratch for the local `H^{k-1}·Wᵏ` products.
    pub hw: Vec<Dense>,
    /// Backward gradient flow: `g[k−1]` holds `Gᵏ`. The loss writes its
    /// gradient straight into `Gᴸ`'s buffer.
    pub g: Vec<Dense>,
    /// Parameter-gradient partials/sums: `dw[k−1]` holds `ΔWᵏ`.
    pub dw: Vec<Dense>,
}

impl EpochWorkspace {
    /// Allocates every buffer training needs for one rank of a `p`-rank
    /// job, sized from the plan and model shape, and pre-sizes the
    /// compute context's kernel packing scratch for the run's widest
    /// operands. Called once per run, before the first epoch.
    pub fn new<P: SpmmExchange>(plan: &P, config: &GcnConfig, p: usize, cctx: &ComputeCtx) -> Self {
        let n = plan.local_rows().len();
        let dims = &config.dims;
        let layers = config.layers();
        // The blocked GEMM engine packs its widest B operand (≤ dmax²
        // floats for the weight-shaped operands, ≤ n·dmax for the
        // activation-shaped ones); grow the shared scratch to that once,
        // here, so steady-state kernel calls stay allocation-free
        // (DESIGN.md §9).
        let dmax = dims.iter().copied().max().unwrap_or(0);
        cctx.reserve_pack(n.max(dmax) * dmax);
        let zeros = |d: usize| Dense::zeros(n, d);
        EpochWorkspace {
            exchange: ExchangeScratch::new(p),
            fwd: LocalForward {
                h: (1..=layers).map(|k| zeros(dims[k])).collect(),
            },
            ax_f: match config.order {
                LayerOrder::SpmmFirst => (1..=layers).map(|k| zeros(dims[k - 1])).collect(),
                LayerOrder::DmmFirst => Vec::new(),
            },
            ax_b: (1..=layers).map(|k| zeros(dims[k])).collect(),
            hw: match config.order {
                LayerOrder::SpmmFirst => Vec::new(),
                LayerOrder::DmmFirst => (1..=layers).map(|k| zeros(dims[k])).collect(),
            },
            g: (1..=layers).map(|k| zeros(dims[k])).collect(),
            dw: (1..=layers)
                .map(|k| Dense::zeros(dims[k - 1], dims[k]))
                .collect(),
        }
    }

    /// Re-dimensions every row-sized buffer for `plan`'s local row count
    /// (the driver's per-step call; a no-op unless the row count changed,
    /// as between mini-batches). Column widths are fixed by the model
    /// config, `dw` is row-count-independent, and `exchange` is re-keyed
    /// by its own `begin`; everything row-sized grows once to the
    /// high-water batch and is fully overwritten before being read (the
    /// same argument that makes cross-epoch reuse bitwise safe), so
    /// steady-state batches of bounded size allocate nothing.
    pub fn resize_for_plan<P: SpmmExchange>(
        &mut self,
        plan: &P,
        config: &GcnConfig,
        cctx: &ComputeCtx,
    ) {
        let n = plan.local_rows().len();
        let dmax = config.dims.iter().copied().max().unwrap_or(0);
        cctx.reserve_pack(n.max(dmax) * dmax);
        for m in self
            .fwd
            .h
            .iter_mut()
            .chain(self.ax_f.iter_mut())
            .chain(self.ax_b.iter_mut())
            .chain(self.hw.iter_mut())
            .chain(self.g.iter_mut())
        {
            m.resize_rows(n);
        }
    }
}

/// Pre-fills this rank's payload pools so every steady-state `acquire`
/// is a hit: two buffers per point-to-point destination (one in flight,
/// one still travelling back from the previous layer — the FIFO
/// non-overtaking argument in DESIGN.md §9 bounds the outstanding count
/// at two) sized for the widest layer, plus two per binomial-tree
/// collective neighbour sized for the largest `ΔW` payload — and
/// reserves the inbound queues for one epoch's messages.
///
/// Idempotent (`ensure_pool` tops up instead of accreting, queue
/// reservation never shrinks), so the driver calls this at every step
/// boundary: with a *stream* of plans — the mini-batch engine, one plan
/// per batch — each batch gets its own analytic worst case, pools grow
/// only when the stream hits a new high-water batch, and steady state
/// stays provably allocation-free rather than relying on timing-dependent
/// grow-on-miss convergence.
pub fn prewarm_comm_pools(
    ctx: &mut RankCtx,
    plan_f: &RankPlan,
    plan_b: &RankPlan,
    config: &GcnConfig,
) {
    let wmax = config.dims.iter().copied().max().unwrap_or(0);
    for ss in plan_f.send.iter().chain(&plan_b.send) {
        ctx.ensure_pool(ss.peer, 2, ss.local_indices.len() * wmax);
    }
    let dw_max = (0..config.layers())
        .map(|k| config.dims[k] * config.dims[k + 1])
        .max()
        .unwrap_or(1);
    ctx.ensure_collectives(2, dw_max);
    // Queue depth at this rank is bounded by one epoch's worth of
    // inbound traffic (the per-layer allreduces stop senders running
    // further ahead): per layer, one forward and one backward exchange
    // of the plans' remote-block counts, plus up to 2·⌈log₂ p⌉ tree
    // hops per allreduce. Reserve twice that so no interleaving can
    // grow a queue mid-epoch.
    let log2p = ctx.p().next_power_of_two().trailing_zeros() as usize;
    let per_epoch =
        config.layers() * (plan_f.a_remote.len() + plan_b.a_remote.len() + 2 * log2p + 2);
    ctx.reserve_queues(2 * per_epoch + 8);
}
