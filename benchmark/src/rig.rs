//! A full-batch training loop driven from outside, one `CommSession` step
//! per epoch, through the same public calls `dist::trainer` makes:
//! per-rank slicing, `prewarm_comm_pools`, `EpochWorkspace::new` and
//! `epoch_step`. Driving epochs one at a time lets the benchmark time every
//! rank's epoch, read the counters between epochs, and call single layers
//! (`feedforward::run`, `spmm_exchange_into`, `allreduce_sum`) against the
//! live per-rank state.

use pargcn_comm::{CommCounters, CommSession, RankCtx};
use pargcn_core::dist::feedforward::{self, spmm_exchange_into};
use pargcn_core::dist::trainer::epoch_step;
use pargcn_core::dist::{prewarm_comm_pools, EpochWorkspace, RankState, TAG_BWD, TAG_FWD};
use pargcn_core::optim::OptimizerState;
use pargcn_core::{CommPlan, GcnConfig};
use pargcn_matrix::{gather, ComputeCtx, ComputeSpec, Dense};
use std::sync::Mutex;
use std::time::Instant;

/// One rank's slice of the training data.
pub struct Local {
    pub h: Dense,
    pub labels: Vec<u32>,
    pub mask: Vec<bool>,
}

/// Slices every rank's rows out of the global data, as the trainer does
/// on its main thread. Returns the slices and each rank's slicing time.
pub fn slice(plan: &CommPlan, h0: &Dense, labels: &[u32], mask: &[bool]) -> (Vec<Local>, Vec<f64>) {
    plan.ranks
        .iter()
        .map(|rp| {
            let t = Instant::now();
            let local = Local {
                h: gather::gather_rows(h0, &rp.local_rows),
                labels: rp.local_rows.iter().map(|&v| labels[v as usize]).collect(),
                mask: rp.local_rows.iter().map(|&v| mask[v as usize]).collect(),
            };
            (local, t.elapsed().as_secs_f64())
        })
        .unzip()
}

/// What one rank did in one timed call, timestamps in seconds since the
/// rig's origin.
#[derive(Clone, Debug)]
pub struct RankTiming {
    pub t0: f64,
    pub t1: f64,
    /// Global loss (epoch steps only).
    pub loss: f64,
    /// Counter change over the call.
    pub delta: CommCounters,
    /// Kernel FLOPs dispatched during the call.
    pub flops: u64,
}

impl RankTiming {
    pub fn seconds(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Time not spent blocked in receives and collectives.
    pub fn busy(&self) -> f64 {
        self.seconds() - self.delta.comm_seconds
    }
}

/// Field-wise `after − before`.
pub fn counters_delta(after: &CommCounters, before: &CommCounters) -> CommCounters {
    CommCounters {
        sent_messages: after.sent_messages - before.sent_messages,
        sent_bytes: after.sent_bytes - before.sent_bytes,
        recv_messages: after.recv_messages - before.recv_messages,
        recv_bytes: after.recv_bytes - before.recv_bytes,
        collective_messages: after.collective_messages - before.collective_messages,
        collective_bytes: after.collective_bytes - before.collective_bytes,
        comm_path_allocs: after.comm_path_allocs - before.comm_path_allocs,
        comm_seconds: after.comm_seconds - before.comm_seconds,
        compute_seconds: after.compute_seconds - before.compute_seconds,
        compute_flops: after.compute_flops - before.compute_flops,
    }
}

struct Slot<'a> {
    st: RankState<'a>,
    ws: EpochWorkspace,
}

pub struct Rig<'a> {
    session: CommSession,
    slots: Vec<Mutex<Option<Slot<'a>>>>,
    plan_f: &'a CommPlan,
    plan_b: &'a CommPlan,
    locals: &'a [Local],
    config: &'a GcnConfig,
    spec: ComputeSpec,
    param_seed: u64,
    origin: Instant,
}

impl<'a> Rig<'a> {
    /// Wraps an already spawned session (`CommSession::new` is timed on
    /// its own by the caller).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        session: CommSession,
        plan_f: &'a CommPlan,
        plan_b: &'a CommPlan,
        locals: &'a [Local],
        config: &'a GcnConfig,
        spec: ComputeSpec,
        param_seed: u64,
        origin: Instant,
    ) -> Rig<'a> {
        let slots = (0..session.p()).map(|_| Mutex::new(None)).collect();
        Rig {
            session,
            slots,
            plan_f,
            plan_b,
            locals,
            config,
            spec,
            param_seed,
            origin,
        }
    }

    pub fn p(&self) -> usize {
        self.session.p()
    }

    /// Builds every rank's state: rank state and kernel pool,
    /// `prewarm_comm_pools`, `EpochWorkspace::new` — the trainer's per-rank
    /// start-up. Returns each rank's time.
    pub fn init(&mut self) -> Vec<f64> {
        let (plan_f, plan_b, locals, config) = (self.plan_f, self.plan_b, self.locals, self.config);
        let (spec, p, slots) = (self.spec, self.p(), &self.slots);
        let init = config.init_params(self.param_seed);
        let mask_total = locals
            .iter()
            .map(|l| l.mask.iter().filter(|&&m| m).count())
            .sum::<usize>();
        self.session.run_step(|ctx: &mut RankCtx| {
            let m = ctx.rank();
            let t = Instant::now();
            let local = &locals[m];
            let st = RankState {
                plan_f: &plan_f.ranks[m],
                plan_b: &plan_b.ranks[m],
                config,
                params: init.clone(),
                h0: &local.h,
                labels: &local.labels,
                mask: &local.mask,
                mask_total: mask_total.max(1) as f64,
                opt_state: OptimizerState::new(config.optimizer, &config.shapes()),
                ctx: ComputeCtx::for_ranks_spec(p, spec),
            };
            prewarm_comm_pools(ctx, st.plan_f, st.plan_b, config);
            let ws = EpochWorkspace::new(st.plan_f, config, p, &st.ctx);
            let seconds = t.elapsed().as_secs_f64();
            *slots[m].lock().expect("rank slot poisoned") = Some(Slot { st, ws });
            seconds
        })
    }

    /// Runs `f` on every rank against its live state, timing it and
    /// taking the counter and FLOP change over the call.
    fn timed(
        &mut self,
        f: impl Fn(&mut RankCtx, &mut RankState<'a>, &mut EpochWorkspace) -> f64 + Sync,
    ) -> Vec<RankTiming> {
        let (slots, origin) = (&self.slots, self.origin);
        self.session.run_step(|ctx: &mut RankCtx| {
            let m = ctx.rank();
            let mut guard = slots[m].lock().expect("rank slot poisoned");
            let slot = guard.as_mut().expect("rank initialised");
            let before = ctx.counters().clone();
            slot.st.ctx.take_flops();
            let t0 = origin.elapsed().as_secs_f64();
            let loss = f(ctx, &mut slot.st, &mut slot.ws);
            let t1 = origin.elapsed().as_secs_f64();
            RankTiming {
                t0,
                t1,
                loss,
                delta: counters_delta(ctx.counters(), &before),
                flops: slot.st.ctx.take_flops(),
            }
        })
    }

    /// One training epoch (`epoch_step`) on every rank.
    pub fn step(&mut self) -> Vec<RankTiming> {
        self.timed(|ctx, st, ws| epoch_step(ctx, st, ws))
    }

    /// A forward pass (`feedforward::run`) alone. It leaves parameters
    /// untouched, so it does not change later epochs.
    pub fn forward(&mut self) -> Vec<RankTiming> {
        self.timed(|ctx, st, ws| {
            feedforward::run(ctx, st, ws);
            0.0
        })
    }

    /// `spmm_exchange_into` over both layers and both plans, on the
    /// inputs the epoch exchanges (`H⁰`, `H¹` forward; `G²`, `G¹` backward).
    /// Reads the workspace left by the last epoch, writes only exchange
    /// accumulators that the next epoch overwrites before reading.
    pub fn exchanges(&mut self) -> Vec<RankTiming> {
        self.timed(|ctx, st, ws| {
            let cctx = st.ctx.clone();
            let layers = st.config.layers();
            let EpochWorkspace {
                exchange,
                fwd,
                ax_f,
                ax_b,
                g,
                ..
            } = ws;
            for k in 1..=layers {
                let x = if k == 1 { st.h0 } else { &fwd.h[k - 2] };
                let tag = TAG_FWD + k as u32;
                spmm_exchange_into(ctx, st.plan_f, x, tag, &cctx, exchange, &mut ax_f[k - 1]);
            }
            for k in (1..=layers).rev() {
                let tag = TAG_BWD + k as u32;
                spmm_exchange_into(
                    ctx,
                    st.plan_b,
                    &g[k - 1],
                    tag,
                    &cctx,
                    exchange,
                    &mut ax_b[k - 1],
                );
            }
            0.0
        })
    }

    /// `reps` back-to-back `allreduce_sum`s of `len` floats per rank.
    pub fn allreduce(&mut self, reps: usize, len: usize) -> Vec<RankTiming> {
        self.timed(|ctx, _, _| {
            let mut buf = vec![0.0f32; len];
            for _ in 0..reps {
                ctx.allreduce_sum(&mut buf);
            }
            0.0
        })
    }

    /// Times one no-op step on the main thread: the session's submit and
    /// collect barrier alone.
    pub fn step_sync(&mut self) -> f64 {
        let t = Instant::now();
        self.session.run_step(|_: &mut RankCtx| ());
        t.elapsed().as_secs_f64()
    }

    /// Rank `m`'s compute context (its kernel pool and engine).
    pub fn compute_ctx(&self, m: usize) -> ComputeCtx {
        let guard = self.slots[m].lock().expect("rank slot poisoned");
        guard.as_ref().expect("rank initialised").st.ctx.clone()
    }

    /// Rank `m`'s live workspace, for shaping kernel probes.
    pub fn with_workspace<R>(
        &self,
        m: usize,
        f: impl FnOnce(&RankState<'a>, &EpochWorkspace) -> R,
    ) -> R {
        let guard = self.slots[m].lock().expect("rank slot poisoned");
        let slot = guard.as_ref().expect("rank initialised");
        f(&slot.st, &slot.ws)
    }
}

/// The slowest rank of one call.
pub fn slowest(ranks: &[RankTiming]) -> &RankTiming {
    ranks
        .iter()
        .max_by(|a, b| a.seconds().total_cmp(&b.seconds()))
        .expect("at least one rank")
}

/// Sum over ranks of one call's counter changes.
pub fn summed(ranks: &[RankTiming]) -> CommCounters {
    let deltas: Vec<CommCounters> = ranks.iter().map(|r| r.delta.clone()).collect();
    CommCounters::merged(&deltas)
}
