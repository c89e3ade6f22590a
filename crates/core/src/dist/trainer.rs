//! Distributed full-batch training — builds the plans and steps one
//! [`Driver`] over them — and the per-rank epoch step every trainer runs.

use super::driver::{Driver, RankData, StepInput};
use super::workspace::EpochWorkspace;
use super::{backprop, feedforward, RankState, SpmmExchange};
use crate::loss;
use crate::model::{GcnConfig, Params};
use crate::optim::OptimizerState;
use crate::plan::CommPlan;
use pargcn_comm::{CommCounters, RankCtx};
use pargcn_graph::Graph;
use pargcn_matrix::{ComputeSpec, Csr, Dense};
use pargcn_partition::Partition;

/// Global results of a distributed training run.
pub struct DistOutcome {
    /// Per-epoch global training loss (identical on every rank).
    pub losses: Vec<f64>,
    /// Final parameters (replicated; taken from rank 0).
    pub params: Params,
    /// Output-layer logits for every vertex, assembled in global order.
    pub predictions: Dense,
    /// Per-rank communication counters, accumulated over all epochs.
    pub counters: Vec<CommCounters>,
    /// Per-rank wall-clock seconds spent training (excluding plan build).
    pub rank_seconds: Vec<f64>,
}

impl DistOutcome {
    /// Slowest rank's wall time — the parallel running time.
    pub fn wall_seconds(&self) -> f64 {
        self.rank_seconds.iter().copied().fold(0.0, f64::max)
    }
}

/// Trains an L-layer GCN for `epochs` full-batch epochs on `p` ranks
/// (one OS thread per rank, plus each rank's kernel thread pool sized by
/// `PARGCN_THREADS` / `available_parallelism / p`), with masked softmax
/// cross-entropy.
///
/// Functionally equivalent to [`crate::serial::SerialTrainer`] with the
/// same `param_seed` — that equivalence, for arbitrary partitions, is the
/// correctness contract of the whole algorithm and is enforced by the
/// test-suite.
// The training entry points take the full problem description by design;
// a config struct would just rename the eight pieces.
#[allow(clippy::too_many_arguments)]
pub fn train_full_batch(
    graph: &Graph,
    h0: &Dense,
    labels: &[u32],
    mask: &[bool],
    part: &Partition,
    config: &GcnConfig,
    epochs: usize,
    param_seed: u64,
) -> DistOutcome {
    train_full_batch_spec(
        graph,
        h0,
        labels,
        mask,
        part,
        config,
        epochs,
        param_seed,
        ComputeSpec::default(),
    )
}

/// As [`train_full_batch`] with a full per-rank compute spec (thread
/// count and kernel engine; `None` fields fall back to `PARGCN_THREADS` /
/// `PARGCN_KERNEL`). Neither choice ever changes results: all engines and
/// pool splits are bitwise identical (determinism suite).
#[allow(clippy::too_many_arguments)]
pub fn train_full_batch_spec(
    graph: &Graph,
    h0: &Dense,
    labels: &[u32],
    mask: &[bool],
    part: &Partition,
    config: &GcnConfig,
    epochs: usize,
    param_seed: u64,
    spec: ComputeSpec,
) -> DistOutcome {
    let build = |a: &Csr, part: &Partition| CommPlan::build(a, part).ranks;
    train_full_batch_with(
        graph, h0, labels, mask, part, config, epochs, param_seed, spec, build,
    )
}

/// Full-batch training over the per-rank plans `build` makes of `Â` (and
/// of `Âᵀ` for directed graphs), whatever their exchange: one [`Driver`]
/// stepped `epochs` times, then a final forward pass for the predictions.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_full_batch_with<P: SpmmExchange>(
    graph: &Graph,
    h0: &Dense,
    labels: &[u32],
    mask: &[bool],
    part: &Partition,
    config: &GcnConfig,
    epochs: usize,
    param_seed: u64,
    spec: ComputeSpec,
    build: impl Fn(&Csr, &Partition) -> Vec<P>,
) -> DistOutcome {
    let n = graph.n();
    assert_eq!(h0.rows(), n, "feature rows mismatch");
    assert_eq!(labels.len(), n, "labels mismatch");
    assert_eq!(mask.len(), n, "mask mismatch");
    let a = graph.normalized_adjacency();
    let plan_f = build(&a, part);
    let plan_b = graph.directed().then(|| build(&a.transpose(), part));
    let plan_b = plan_b.as_deref().unwrap_or(&plan_f);
    let data: Vec<RankData> = plan_f
        .iter()
        .map(|rp| RankData::gather(rp.local_rows(), h0, labels, mask))
        .collect();
    let input = StepInput {
        plan_f: &plan_f,
        plan_b,
        data: &data,
        mask_total: mask.iter().filter(|&&m| m).count().max(1) as f64,
    };
    let init = config.init_params(param_seed);
    let opt_state = OptimizerState::new(config.optimizer, &config.shapes());
    let mut driver = Driver::new(part.p(), config, spec, init, opt_state);
    let losses = (0..epochs).map(|_| driver.step(&input, || {})).collect();
    let predictions = driver.predict(&input);
    DistOutcome {
        losses,
        params: driver.params(),
        predictions,
        counters: driver.counters(),
        rank_seconds: driver.rank_seconds(),
    }
}

/// One full training epoch for one rank — forward pass, global loss,
/// backpropagation/update — over the persistent workspace. Returns the
/// global loss (identical on every rank). Every driver step is this on
/// every rank; tests (e.g. the steady-state allocation test) drive epochs
/// individually through it.
pub fn epoch_step<P: SpmmExchange>(
    ctx: &mut RankCtx,
    st: &mut RankState<'_, P>,
    ws: &mut EpochWorkspace,
) -> f64 {
    feedforward::run(ctx, st, ws);
    let loss_local = local_loss_and_grad(
        ws.fwd.output(),
        st.labels,
        st.mask,
        st.mask_total,
        &mut ws.probs,
        &mut ws.grad,
    );
    // Global loss: allreduce of the local sums (stack buffer, no heap).
    let mut buf = [loss_local as f32];
    ctx.allreduce_sum(&mut buf);
    backprop::run(ctx, st, ws);
    buf[0] as f64
}

/// Local masked cross-entropy: the *sum* of masked row losses divided by
/// the global mask count, and (into `grad`, overwritten) the loss
/// gradient for the local rows. Allreducing the per-rank values yields
/// the identical global loss the serial trainer computes. `probs` is the
/// workspace's persistent softmax buffer, so the loss path stays
/// allocation-free (§9).
fn local_loss_and_grad(
    hl: &Dense,
    labels: &[u32],
    mask: &[bool],
    mask_total: f64,
    probs: &mut Dense,
    grad: &mut Dense,
) -> f64 {
    loss::softmax_rows_into(hl, probs);
    grad.fill_zero();
    let mut total = 0.0f64;
    for i in 0..hl.rows() {
        if !mask[i] {
            continue;
        }
        let y = labels[i] as usize;
        let pv = probs.get(i, y).max(1e-12);
        total -= (pv as f64).ln();
        let g = grad.row_mut(i);
        for (j, gv) in g.iter_mut().enumerate() {
            let indicator = if j == y { 1.0 } else { 0.0 };
            *gv = (probs.get(i, j) - indicator) / mask_total as f32;
        }
    }
    total / mask_total
}
