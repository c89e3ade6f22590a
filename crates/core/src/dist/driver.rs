//! The one training driver every GCN trainer steps.
//!
//! A [`Driver`] owns one [`CommSession`] and, per rank, the replicated
//! parameters and optimizer state, the kernel [`ComputeCtx`] and a
//! grow-once [`EpochWorkspace`]. A [`step`](Driver::step) tops each
//! rank's comm pools up for the step's plans (`SpmmExchange::prewarm`)
//! and runs one [`epoch_step`] on every rank; [`predict`](Driver::predict)
//! runs a final forward pass and assembles the global logits. Both do the
//! per-rank compute-time and FLOP accounting, so `comm + compute` equals
//! each rank's stepping wall time.
//!
//! Full-batch training steps one plan E times; the mini-batch engine
//! steps one plan per batch on a long-lived driver, preparing the next
//! batch on the main thread while the ranks train (the `main` closure of
//! [`step`](Driver::step)); CAGNET steps the same loop over its broadcast
//! exchange.

use super::trainer::epoch_step;
use super::workspace::EpochWorkspace;
use super::{feedforward, RankState, SpmmExchange};
use crate::model::{GcnConfig, Params};
use crate::optim::{Optimizer, OptimizerState};
use crate::plan::RankPlan;
use pargcn_comm::{CommCounters, CommSession, RankCtx};
use pargcn_matrix::{gather, ComputeCtx, ComputeSpec, Dense};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// One rank's slice of the training data.
pub struct RankData {
    /// Feature rows of the rank's owned vertices, in local order.
    pub h: Dense,
    pub labels: Vec<u32>,
    pub mask: Vec<bool>,
}

impl RankData {
    /// Slices the rows `rows` (in that order) out of the global data.
    pub fn gather(rows: &[u32], h0: &Dense, labels: &[u32], mask: &[bool]) -> RankData {
        RankData {
            h: gather::gather_rows(h0, rows),
            labels: rows.iter().map(|&v| labels[v as usize]).collect(),
            mask: rows.iter().map(|&v| mask[v as usize]).collect(),
        }
    }
}

/// What every rank trains on in one step: one entry per rank.
pub struct StepInput<'x, P = RankPlan> {
    /// Feedforward-direction plans.
    pub plan_f: &'x [P],
    /// Backpropagation-direction plans (`plan_f` for undirected graphs).
    pub plan_b: &'x [P],
    pub data: &'x [RankData],
    /// Global count of masked vertices (the loss normalizer).
    pub mask_total: f64,
}

/// Per-rank persistent state. The `Mutex` is uncontended: only rank `m`'s
/// thread (or the main thread between steps) ever touches slot `m`.
struct RankSlot {
    /// Replicated parameters (lock-step across slots).
    params: Params,
    /// Replicated optimizer state.
    opt_state: OptimizerState,
    /// The rank's kernel thread pool, built once.
    cctx: ComputeCtx,
    /// Created on the first step, row-resized (grow-once) for later plans.
    ws: Option<EpochWorkspace>,
    /// Wall seconds spent in steps.
    seconds: f64,
    /// The last step's global loss.
    loss: f64,
}

/// Persistent per-rank training state over one rank session.
pub struct Driver<'c> {
    config: &'c GcnConfig,
    session: CommSession,
    slots: Vec<Mutex<RankSlot>>,
}

impl<'c> Driver<'c> {
    /// Spawns `p` ranks, each starting from `params` and `opt_state` with
    /// its own kernel pool built from `spec`.
    pub fn new(
        p: usize,
        config: &'c GcnConfig,
        spec: ComputeSpec,
        params: Params,
        opt_state: OptimizerState,
    ) -> Driver<'c> {
        let slots = (0..p)
            .map(|_| {
                Mutex::new(RankSlot {
                    params: params.clone(),
                    opt_state: opt_state.clone(),
                    cctx: ComputeCtx::for_ranks_spec(p, spec),
                    ws: None,
                    seconds: 0.0,
                    loss: 0.0,
                })
            })
            .collect();
        Driver {
            config,
            session: CommSession::new(p),
            slots,
        }
    }

    /// One training epoch over `input` on every rank; returns the global
    /// loss. `main` runs on the calling thread while the ranks train.
    pub fn step<P: SpmmExchange>(&mut self, input: &StepInput<'_, P>, main: impl FnOnce()) -> f64 {
        self.run(input, main, |ctx, st, ws| epoch_step(ctx, st, ws));
        self.slot(0).loss
    }

    /// Output-layer logits of every vertex under the current parameters,
    /// from one forward pass, in global row order.
    pub fn predict<P: SpmmExchange>(&mut self, input: &StepInput<'_, P>) -> Dense {
        self.run(
            input,
            || {},
            |ctx, st, ws| {
                feedforward::run(ctx, st, ws);
                0.0
            },
        );
        let n = input.plan_f.iter().map(|rp| rp.local_rows().len()).sum();
        let mut predictions = Dense::zeros(n, self.config.dims[self.config.layers()]);
        for (m, rp) in input.plan_f.iter().enumerate() {
            let slot = self.slot(m);
            let out = slot.ws.as_ref().expect("forward pass ran").fwd.output();
            gather::scatter_rows(out, rp.local_rows(), &mut predictions);
        }
        predictions
    }

    /// Runs `body` on every rank against its persistent state, with `main`
    /// on the calling thread meanwhile.
    fn run<P: SpmmExchange>(
        &mut self,
        input: &StepInput<'_, P>,
        main: impl FnOnce(),
        body: impl Fn(&mut RankCtx, &mut RankState<'_, P>, &mut EpochWorkspace) -> f64 + Sync,
    ) {
        let p = self.session.p();
        assert!(
            input.plan_f.len() == p && input.plan_b.len() == p && input.data.len() == p,
            "step input must hold one plan pair and data slice per rank"
        );
        let (config, slots) = (self.config, &self.slots);
        let step = |ctx: &mut RankCtx| {
            let m = ctx.rank();
            let mut guard = slots[m].lock().expect("rank slot poisoned");
            let RankSlot {
                params,
                opt_state,
                cctx,
                ws,
                seconds,
                loss,
            } = &mut *guard;
            let (plan_f, plan_b, data) = (&input.plan_f[m], &input.plan_b[m], &input.data[m]);
            P::prewarm(ctx, plan_f, plan_b, config);
            let ws = match ws {
                Some(ws) => {
                    ws.resize_for_plan(plan_f, config, cctx);
                    ws
                }
                None => ws.insert(EpochWorkspace::new(plan_f, config, p, cctx)),
            };
            let mut st = RankState {
                plan_f,
                plan_b,
                config,
                params: std::mem::take(params),
                h0: &data.h,
                labels: &data.labels,
                mask: &data.mask,
                mask_total: input.mask_total,
                opt_state: std::mem::replace(opt_state, OptimizerState::new(Optimizer::Sgd, &[])),
                ctx: cctx.clone(),
            };
            let comm_before = ctx.counters().comm_seconds;
            let start = Instant::now();
            *loss = body(ctx, &mut st, ws);
            let wall = start.elapsed().as_secs_f64();
            // Compute time is the non-blocked complement of the
            // runtime-timed comm seconds, so `comm + compute == wall` per
            // rank (the fig4a split); the kernels' shape-counted FLOPs
            // give the matching rate.
            ctx.add_compute_seconds(wall - (ctx.counters().comm_seconds - comm_before));
            ctx.add_compute_flops(cctx.take_flops());
            *seconds += wall;
            *params = st.params;
            *opt_state = st.opt_state;
        };
        // SAFETY: `step` and everything it borrows outlive the blocking
        // `collect_step` below, which runs even if `main` panics.
        unsafe { self.session.submit_step(&step) };
        let main_result = catch_unwind(AssertUnwindSafe(main));
        self.session.collect_step();
        if let Err(payload) = main_result {
            resume_unwind(payload);
        }
    }

    fn slot(&self, m: usize) -> std::sync::MutexGuard<'_, RankSlot> {
        self.slots[m].lock().expect("rank slot poisoned")
    }

    /// The current (replicated) parameters.
    pub fn params(&self) -> Params {
        self.slot(0).params.clone()
    }

    /// The replicated parameters and optimizer state, to carry into
    /// another driver.
    pub fn into_state(self) -> (Params, OptimizerState) {
        let slot = self.slots.into_iter().next().expect("at least one rank");
        let slot = slot.into_inner().expect("rank slot poisoned");
        (slot.params, slot.opt_state)
    }

    /// Per-rank wall seconds spent in steps and predictions.
    pub fn rank_seconds(&self) -> Vec<f64> {
        (0..self.slots.len())
            .map(|m| self.slot(m).seconds)
            .collect()
    }

    /// Per-rank communication counters, accumulated since the driver was
    /// created (or last [`Driver::reset_counters`]).
    pub fn counters(&mut self) -> Vec<CommCounters> {
        self.session.run_step(|ctx| ctx.counters().clone())
    }

    /// Zeroes every rank's counters (e.g. after warm-up steps, so a
    /// measurement window sees steady state only).
    pub fn reset_counters(&mut self) {
        self.session.run_step(|ctx| ctx.reset_counters());
    }
}
