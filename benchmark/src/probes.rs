//! Standalone timings of single layers, taken in traced runs after the
//! timed loop: each public call is repeated on its own and the median kept.

use crate::outcome::Outcome;
use crate::rig::{slowest, RankTiming, Rig};
use crate::stats::median;
use crate::trace::Tracer;
use pargcn_core::minibatch::restrict_partition;
use pargcn_core::{GcnConfig, PlanBuilder};
use pargcn_graph::{Graph, SubgraphScratch};
use pargcn_matrix::{norm, Dense};
use pargcn_partition::Partition;
use std::time::Instant;

/// Repetitions per probe: at least `MIN_REPS`, then more while the probe
/// has used less than `PROBE_BUDGET_S`, up to `MAX_REPS`.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 200;
const PROBE_BUDGET_S: f64 = 0.25;
/// Calls per sample for probes too short to time one at a time.
const INNER: usize = 100;

/// Runs `f` repeatedly under the probe budget; returns its samples.
fn repeat(mut f: impl FnMut(u64) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS
        || (samples.len() < MAX_REPS && start.elapsed().as_secs_f64() < PROBE_BUDGET_S)
    {
        samples.push(f(samples.len() as u64));
    }
    samples
}

/// Records one span per rank for a rank-side call.
pub fn record_ranks(tr: &mut Tracer, name: &'static str, step: u64, ranks: &[RankTiming]) {
    for (m, r) in ranks.iter().enumerate() {
        tr.record(name, m as i32, step, r.t0, r.t1);
    }
}

/// A rank-side probe: the slowest rank's time per sample.
fn rank_probe(
    rig: &mut Rig<'_>,
    tr: &mut Tracer,
    name: &'static str,
    mut call: impl FnMut(&mut Rig<'_>) -> Vec<RankTiming>,
) -> f64 {
    median(&repeat(|i| {
        let ranks = call(rig);
        record_ranks(tr, name, i, &ranks);
        slowest(&ranks).seconds()
    }))
}

/// Dist, comm, matrix and pool probes against a rig that has trained a
/// few epochs. `step_s` is the rig's median epoch time, from which the
/// backward share is taken.
pub fn layers(
    rig: &mut Rig<'_>,
    tr: &mut Tracer,
    config: &GcnConfig,
    step_s: f64,
    out: &mut Outcome,
) {
    let fwd = rank_probe(rig, tr, "dist.fwd", |r| r.forward());
    out.put("dist.fwd_s", fwd, "s");
    out.put("dist.bwd_s", step_s - fwd, "s");
    let exchange = rank_probe(rig, tr, "dist.exchange", |r| r.exchanges());
    out.put("dist.exchange_s", exchange, "s");

    // The largest ΔW, the payload of the backward allreduces.
    let dw_max = (0..config.layers())
        .map(|k| config.dims[k] * config.dims[k + 1])
        .max()
        .unwrap_or(1);
    let allreduce = rank_probe(rig, tr, "comm.allreduce", |r| r.allreduce(INNER, dw_max));
    out.put("comm.allreduce_s", allreduce / INNER as f64, "s");
    let sync = median(&repeat(|i| {
        let (s, _) = tr.time("comm.step_sync", i, || rig.step_sync());
        s
    }));
    out.put("comm.step_sync_s", sync, "s");

    kernels(rig, tr, config, out);
}

/// `ComputeCtx` products on rank 0's operands and kernel pool, from the
/// main thread while the ranks are idle.
fn kernels(rig: &mut Rig<'_>, tr: &mut Tracer, config: &GcnConfig, out: &mut Outcome) {
    let cctx = rig.compute_ctx(0);
    let (a_own, x, ax, ag_first, ag_last, w_first, w_last) = rig.with_workspace(0, |st, ws| {
        (
            st.plan_f.a_own.clone(),
            st.h0.clone(),
            ws.ax_f[0].clone(),
            ws.ax_b[0].clone(),
            ws.ax_b[config.layers() - 1].clone(),
            st.params.weights[0].clone(),
            st.params.weights[config.layers() - 1].clone(),
        )
    });
    let n = x.rows();

    let mut spmm_out = Dense::zeros(n, x.cols());
    cctx.take_flops();
    let samples = repeat(|i| {
        tr.time("matrix.spmm", i, || {
            cctx.spmm_into(&a_own, &x, &mut spmm_out, false)
        })
        .1
    });
    let (spmm, spmm_flops) = (
        median(&samples),
        cctx.take_flops() as f64 / samples.len() as f64,
    );
    out.put("matrix.spmm_s", spmm, "s");
    out.put("matrix.spmm_gflops", spmm_flops / spmm / 1e9, "GFLOP/s");

    // The three GEMM shapes of an epoch: Z = (ÂH)·W, ΔW = Hᵀ·(ÂG),
    // S = (ÂG)·Wᵀ.
    let mut z = Dense::zeros(n, w_first.cols());
    let mut dw = Dense::zeros(x.cols(), ag_first.cols());
    let mut s = Dense::zeros(n, w_last.rows());
    let samples = repeat(|i| {
        tr.time("matrix.gemm", i, || {
            cctx.matmul_into(&ax, &w_first, &mut z, false);
            cctx.matmul_at_into(&x, &ag_first, &mut dw);
            cctx.matmul_bt_into(&ag_last, &w_last, &mut s);
        })
        .1
    });
    let (gemm, gemm_flops) = (
        median(&samples),
        cctx.take_flops() as f64 / samples.len() as f64,
    );
    out.put("matrix.gemm_s", gemm, "s");
    out.put("matrix.gemm_gflops", gemm_flops / gemm / 1e9, "GFLOP/s");

    let pool = cctx.pool();
    let dispatch = median(&repeat(|i| {
        let (_, s) = tr.time("pool.dispatch", i, || {
            for _ in 0..INNER {
                pool.run(pool.threads(), |c| {
                    std::hint::black_box(c);
                });
            }
        });
        s / INNER as f64
    }));
    out.put("pool.dispatch_s", dispatch, "s");
}

/// Times the mini-batch engine's per-batch preparation —
/// `induced_subgraph_into`, normalization, `restrict_partition` and
/// `PlanBuilder::build` — on each batch. Returns the per-batch times and
/// the mean forward-plan volume in rows.
pub fn batch_prep(
    tr: &mut Tracer,
    graph: &Graph,
    part: &Partition,
    batches: &[Vec<u32>],
) -> (Vec<f64>, f64) {
    let mut builder = PlanBuilder::new();
    let mut scratch = SubgraphScratch::new();
    let mut volume = 0u64;
    let times = batches
        .iter()
        .enumerate()
        .map(|(i, batch)| {
            let (rows, s) = tr.time("minibatch.prep", i as u64, || {
                let sub = graph.induced_subgraph_into(batch, &mut scratch);
                let a = norm::normalize_adjacency(sub.adjacency());
                let sub_part = restrict_partition(part, batch);
                let plan_f = builder.build(&a, &sub_part);
                if sub.directed() {
                    std::hint::black_box(builder.build(&a.transpose(), &sub_part));
                }
                plan_f.total_volume_rows()
            });
            volume += rows;
            s
        })
        .collect();
    (times, volume as f64 / batches.len().max(1) as f64)
}
