//! Algorithm 1: parallel feedforward.
//!
//! Per layer `k`, each rank:
//!
//! 1. for every selector `Xₘₙ ∈ Sₘ`, gathers the needed local `H^{k-1}`
//!    rows (`Xₘₙ ⊗ H`, here a row gather) into a pooled payload buffer
//!    and posts a **non-blocking send** to `Pₙ` (lines 3–5);
//! 2. multiplies its diagonal block against the local feature block
//!    *without waiting* (line 6 — the overlap);
//! 3. receives each peer's rows (any completion order, one mailbox drain
//!    per pass) and accumulates the off-diagonal products (lines 7–9),
//!    releasing every payload back to its sender's pool;
//! 4. applies the replicated `Wᵏ` (pure local DMM) and the activation
//!    (line 10) — `σ` as the DMM's row-block epilogue, so `Hᵏ` is written
//!    in the one sweep that produces `Zᵏ`, and `Zᵏ` is never stored.
//!
//! One deviation from the paper's literal pseudocode: lines 6/9 write
//! `(AₘH)Wᵏ` per contribution; we accumulate `AₘH` first and apply `Wᵏ`
//! once — algebraically identical (distributivity) and fewer DMM FLOPs.
//!
//! All layer outputs land in the persistent [`EpochWorkspace`]; a
//! steady-state forward pass allocates nothing on the comm path.

use super::workspace::{EpochWorkspace, ExchangeScratch};
use super::{RankState, SpmmExchange, TAG_FWD};
use crate::model::LayerOrder;
use pargcn_comm::RankCtx;
use pargcn_matrix::{gather, ComputeCtx, Dense};

/// Runs the full feedforward pass into `ws.fwd` (`H¹…H^L`). Local
/// kernels (SpMM/DMM) run on the rank's thread pool; the SpMM's remote
/// rows arrive through `P`'s exchange.
pub fn run<P: SpmmExchange>(ctx: &mut RankCtx, st: &RankState<'_, P>, ws: &mut EpochWorkspace) {
    let cctx = &st.ctx;
    let layers = st.config.layers();
    for k in 1..=layers {
        let w = &st.params.weights[k - 1];
        let tag = TAG_FWD + k as u32;
        let EpochWorkspace {
            exchange,
            fwd,
            ax_f,
            hw,
            ..
        } = ws;
        let act = st.config.activation(k);
        let (h_done, h_rest) = fwd.h.split_at_mut(k - 1);
        let h_prev: &Dense = if k == 1 { st.h0 } else { &h_done[k - 2] };
        let h_out = &mut h_rest[0];
        match st.config.order {
            LayerOrder::SpmmFirst => {
                let ax = &mut ax_f[k - 1];
                st.plan_f
                    .exchange_into(ctx, h_prev, tag, cctx, exchange, ax);
                cctx.matmul_into_with(ax, w, h_out, false, |_, rows| act.apply(rows));
            }
            LayerOrder::DmmFirst => {
                // §4.4: transform locally first, then aggregate with the
                // *same* communication pattern (messages carry d_out-wide
                // rows instead of d_in-wide ones). The aggregate IS `Zᵏ`,
                // so the exchange accumulates straight into `Hᵏ`'s buffer
                // and `σ` finishes it in place.
                cctx.matmul_into(h_prev, w, &mut hw[k - 1], false);
                st.plan_f
                    .exchange_into(ctx, &hw[k - 1], tag, cctx, exchange, h_out);
                act.apply(h_out.data_mut());
            }
        }
    }
}

/// The communication core shared by feedforward (on `H`) and
/// backpropagation (on `G`): accumulates this rank's block of `A · X`
/// into `ax`, where `x_local` is the locally-owned row block of `X`.
///
/// Payloads are drawn from and returned to the runtime's buffer pools,
/// arrivals are staged in `scratch`, and the output lands in the
/// caller-provided accumulator — after warmup the whole exchange touches
/// no allocator.
pub fn spmm_exchange_into(
    ctx: &mut RankCtx,
    plan: &crate::plan::RankPlan,
    x_local: &Dense,
    tag: u32,
    cctx: &ComputeCtx,
    scratch: &mut ExchangeScratch,
    ax: &mut Dense,
) {
    let d = x_local.cols();
    assert_eq!(ax.rows(), plan.n_local(), "exchange accumulator rows");
    assert_eq!(ax.cols(), d, "exchange accumulator cols");

    // Lines 3–5: gather and non-blocking-send the rows each peer needs,
    // each payload recycled from the pool of its destination.
    for ss in &plan.send {
        let mut payload = ctx.acquire(ss.peer, ss.local_indices.len() * d);
        gather::gather_rows_into(x_local, &ss.local_indices, &mut payload);
        ctx.isend(ss.peer, tag, payload);
    }

    // Line 6: local block product, overlapping the in-flight messages.
    cctx.spmm_into(&plan.a_own, x_local, ax, false);

    // Lines 7–9: drain receives eagerly (any completion order), but
    // *accumulate* strictly in plan order. Remote blocks overlap on output
    // rows, and float addition is not associative, so summing in arrival
    // order would let thread scheduling leak into the results — the
    // repeated-runs-bitwise-identical guarantee the tests pin down.
    //
    // Each pass drains the whole mailbox with one `try_recv_any` sweep
    // (instead of probing every peer individually), folds every in-order
    // block that has landed, and only then blocks — on *any* next arrival,
    // since exactly the planned peers send under this tag.
    scratch.begin(plan);
    let n_blocks = plan.a_remote.len();
    let mut next = 0;
    while next < n_blocks {
        while let Some((from, payload)) = ctx.try_recv_any(tag) {
            let slot = scratch.slot_of(from);
            debug_assert!(scratch.arrived[slot].is_none(), "duplicate block payload");
            scratch.arrived[slot] = Some(payload);
        }
        let mut progressed = false;
        while next < n_blocks {
            let Some(payload) = scratch.arrived[next].take() else {
                break;
            };
            accumulate_block(ctx, plan, next, payload, d, ax, cctx);
            next += 1;
            progressed = true;
        }
        if !progressed {
            // Nothing in order yet: park until any planned payload lands
            // rather than spinning over try_recv_any.
            let (from, payload) = ctx.recv_any(tag);
            let slot = scratch.slot_of(from);
            debug_assert!(scratch.arrived[slot].is_none(), "duplicate block payload");
            scratch.arrived[slot] = Some(payload);
        }
    }
}

/// Folds remote block `i`'s payload into `ax` and recycles the buffer
/// back to its sender — a zero-copy view via `Dense::from_vec`/`into_vec`.
fn accumulate_block(
    ctx: &mut RankCtx,
    plan: &crate::plan::RankPlan,
    i: usize,
    payload: Vec<f32>,
    d: usize,
    ax: &mut Dense,
    cctx: &ComputeCtx,
) {
    let block = &plan.a_remote[i];
    let x_recv = Dense::from_vec(block.rows.len(), d, payload);
    cctx.spmm_into(&block.a, &x_recv, ax, true);
    ctx.release(block.peer, x_recv.into_vec());
}

/// As [`spmm_exchange_into`] with freshly allocated scratch and output
/// (used directly by tests; the trainers keep persistent versions).
pub fn spmm_exchange_with_plan(
    ctx: &mut RankCtx,
    plan: &crate::plan::RankPlan,
    x_local: &Dense,
    tag: u32,
    cctx: &ComputeCtx,
) -> Dense {
    let mut scratch = ExchangeScratch::new(ctx.p());
    let mut ax = Dense::zeros(plan.n_local(), x_local.cols());
    spmm_exchange_into(ctx, plan, x_local, tag, cctx, &mut scratch, &mut ax);
    ax
}
